"""One labelled coordinate vector for every ring the engine computes in.

The sector, localized and semisimple coordinates are three bases of one
(n^2+1)-dimensional space over Q(zeta_n); the resolution ring is
(n+1)-dimensional.  A ``Coords`` holds the weight n, the basis kind and the
dense tuple of coordinates.  ``basis`` gives each coordinate its text label and
its JSON index, in the fixed output order:

    sector  x[0]^j (j <= n) at j; x[m]^j (m >= 1) at m*n + 1 + j
    loc     e[0,0] at 0; xe[0,0] at 1; e[m,l] at m*n + l + 1
    u       e[0,0] at 0; u[l,q] at 1 + l*n + q
    res     1 first; e[q] at 1 + q

so loc and u share one n x n grid after the leading e[0,0], whose (0,0) cell
holds xe[0,0] in loc.  The products live with their rings; this module knows
the linear structure, the ring units and the shared text form.  A linear map
is stored as sparse columns, one per source coordinate, and applied by
``apply_columns``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Callable, Iterable, Sequence

from .cyclotomic import Cyc, format_cyc

KINDS = ("sector", "loc", "u", "res")

#: Nonzero entries of a column or row, as (position, entry) pairs; integral
#: entries are stored as ``int``.
Sparse = tuple[tuple[int, "Cyc | int"], ...]


def sector_start(n: int, m: int) -> int:
    """Position of x[m]^0 in sector coordinates."""
    return 0 if m == 0 else m * n + 1


def grid(n: int, r: int, c: int) -> int:
    """Position of e[r,c] in loc ((r,c) != (0,0)) and of u[r,c] in u coordinates."""
    return 1 + r * n + c


def _label(key: tuple) -> str:
    if key[0] == "x":
        _, m, j = key
        return "one[%d]" % m if j == 0 else "x[%d]" % m if j == 1 else "x[%d]^%d" % (m, j)
    if key == ("1",):
        return "1"
    return "%s[%s]" % (key[0], ",".join(str(i) for i in key[1:]))


@dataclass(frozen=True)
class Basis:
    """Text label, JSON index and position of every coordinate of one basis."""

    labels: tuple[str, ...]
    json: tuple[tuple, ...]
    position: dict[str, int]


@cache
def basis(n: int, kind: str) -> Basis:
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    if kind == "sector":
        keys = [("x", m, j) for m in range(n) for j in range(n + 1 if m == 0 else n)]
    elif kind == "loc":
        keys = [("e", 0, 0), ("xe", 0, 0)] + [
            ("e", m, l) for m in range(n) for l in range(n) if (m, l) != (0, 0)
        ]
    elif kind == "u":
        keys = [("e", 0, 0)] + [("u", l, q) for l in range(n) for q in range(n)]
    elif kind == "res":
        keys = [("1",)] + [("e", q) for q in range(n)]
    else:
        raise ValueError("unknown basis kind %r (choose from %s)" % (kind, ", ".join(KINDS)))
    labels = tuple(_label(k) for k in keys)
    return Basis(labels, tuple(keys), {label: i for i, label in enumerate(labels)})


@dataclass(frozen=True)
class Coords:
    """An element of one of the rings, as dense coordinates in a labelled basis."""

    n: int
    kind: str
    coeffs: tuple[Cyc, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        size = len(self.basis.labels)
        if len(self.coeffs) != size:
            raise ValueError("%s coordinates for n=%d need %d entries, got %d"
                             % (self.kind, self.n, size, len(self.coeffs)))

    @property
    def basis(self) -> Basis:
        return basis(self.n, self.kind)

    def __getitem__(self, label: str) -> Cyc:
        return self.coeffs[self.basis.position[label]]

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def check(self, other: "Coords") -> None:
        """Raise ValueError unless ``other`` has the same weight and basis."""
        if (self.n, self.kind) != (other.n, other.kind):
            raise ValueError(
                "mixed coordinates: n=%d %s vs n=%d %s"
                % (self.n, self.kind, other.n, other.kind)
            )

    def check_kind(self, kind: str) -> None:
        """Raise ValueError unless the coordinates are in basis ``kind``."""
        if self.kind != kind:
            raise ValueError("expected %s coordinates, got %s" % (kind, self.kind))

    def __add__(self, other: "Coords") -> "Coords":
        self.check(other)
        return Coords(self.n, self.kind, tuple(
            (a + b if a else b) if b else a for a, b in zip(self.coeffs, other.coeffs)
        ))

    def __neg__(self) -> "Coords":
        return Coords(self.n, self.kind, tuple(-a for a in self.coeffs))

    def __sub__(self, other: "Coords") -> "Coords":
        return self + (-other)

    def scale(self, c: Cyc | int | Fraction) -> "Coords":
        c = c if isinstance(c, Cyc) else Cyc.rational(self.n, c)
        if not c:
            return zero(self.n, self.kind)
        return Coords(self.n, self.kind, tuple(a * c if a else a for a in self.coeffs))

    def __str__(self) -> str:
        terms = [(c, label) for c, label in zip(self.coeffs, self.basis.labels) if c]
        return _join_terms(terms)


@cache
def zero(n: int, kind: str) -> Coords:
    z = Cyc.zero(n)
    return Coords(n, kind, (z,) * len(basis(n, kind).labels))


def gen(n: int, kind: str, label: str, coeff: Cyc | int | Fraction = 1) -> Coords:
    """``coeff`` times the basis vector named ``label``."""
    coeffs = list(zero(n, kind).coeffs)
    coeffs[basis(n, kind).position[label]] = (
        coeff if isinstance(coeff, Cyc) else Cyc.rational(n, coeff)
    )
    return Coords(n, kind, coeffs)


@cache
def unit(n: int, kind: str) -> Coords:
    """The ring unit: one[0] on the sector side, the sum of the row idempotents
    e[0,l] in loc, e[0,0] plus every u[l,q] with l != 0 in u, and 1 in res."""
    coeffs = list(zero(n, kind).coeffs)
    ones = {"loc": [0] + [grid(n, 0, l) for l in range(1, n)],
            "u": [0] + list(range(grid(n, 1, 0), n * n + 1))}.get(kind, [0])
    for i in ones:
        coeffs[i] = Cyc.one(n)
    return Coords(n, kind, coeffs)


@cache
def basis_vectors(n: int, kind: str) -> tuple[tuple[str, Coords], ...]:
    """Every basis vector with its label, in coordinate order."""
    return tuple((label, gen(n, kind, label)) for label in basis(n, kind).labels)


def sparse(coeffs: Sequence[Cyc]) -> Sparse:
    """The nonzero entries of a dense coefficient sequence, integral ones as int."""
    return tuple((i, c.num[0] if c.den == 1 and c.is_rational() else c)
                 for i, c in enumerate(coeffs) if c)


def apply_columns(n: int, kind: str, terms: Iterable[tuple[Cyc, int, Sparse]]) -> Coords:
    """The sum of c * column over ``terms`` of (c, start, column), in basis ``kind``.

    A column's positions count from ``start``.  An entry 1 adds c without a
    multiplication.
    """
    out = list(zero(n, kind).coeffs)
    for c, start, column in terms:
        for offset, r in column:
            i = start + offset
            out[i] = out[i] + (c if r == 1 else c * r)
    return Coords(n, kind, out)


def power(a: Coords, k: int, mul: Callable[[Coords, Coords], Coords]) -> Coords:
    """a^k for k >= 0 by square-and-multiply, ``mul`` being the ring product."""
    if k < 0:
        raise ValueError("negative powers need an explicit inverse")
    result = unit(a.n, a.kind)
    base = a
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _coeff_prefix(c: Cyc, first: bool) -> tuple[str, str]:
    # Returns (sign-or-separator, coefficient text without sign); "" means 1.
    if c.is_rational():
        r = c.rational_value()
        sign = "-" if r < 0 else "+"
        mag = abs(r)
        text = "" if mag == 1 else str(mag)
    else:
        sign = "+"
        text = "(%s)" % format_cyc(c)
    if first:
        lead = "-" if sign == "-" else ""
        return lead, text
    return " %s " % sign, text


def _join_terms(terms: list[tuple[Cyc, str]]) -> str:
    """Text form of a sum of labelled terms, e.g. ``-e[0,0] + 2*xe[0,0]``."""
    if not terms:
        return "0"
    out = []
    for i, (c, sym) in enumerate(terms):
        sep, text = _coeff_prefix(c, i == 0)
        if sym == "1":
            body = text if text else "1"
        else:
            body = "%s*%s" % (text, sym) if text else sym
        out.append(sep + body)
    return "".join(out)
