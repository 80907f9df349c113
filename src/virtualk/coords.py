"""One labelled coordinate vector for every ring the engine computes in.

The sector, localized and semisimple coordinates are three bases of one
(n^2+1)-dimensional space over Q(zeta_n); the resolution ring is
(n+1)-dimensional.  A ``Coords`` holds the weight n, the basis kind and its
nonzero coordinates by position.  ``basis`` gives each coordinate its text
label and its JSON index, in the fixed output order:

    sector  x[0]^j (j <= n) at j; x[m]^j (m >= 1) at m*n + 1 + j
    loc     e[0,0] at 0; xe[0,0] at 1; e[m,l] at m*n + l + 1
    u       e[0,0] at 0; u[l,q] at 1 + l*n + q
    res     1 first; e[q] at 1 + q

so loc and u share one n x n grid after the leading e[0,0], whose (0,0) cell
holds xe[0,0] in loc.  The products live with their rings; this module knows
the linear structure, the ring units and the shared text form.

Every kernel computes in one integer form.  ``numerators`` writes the
stored coordinates of a class as integer numerator vectors over one common
denominator; the kernels add integer products to raw sums keyed by output
position (``cyclotomic._scatter``), and ``from_numerators`` normalises each
output coordinate once.  Tables read by the kernels are ``Sparse`` columns
and rows, whose entries ``sparse`` keeps in Z[zeta_n].
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cache

from .cyclotomic import Cyc, _canonical, format_cyc
from .records import Record

KINDS = ("sector", "loc", "u", "res")

#: The nonzero entries of a column or row, as two parallel tuples: ascending
#: positions and their entries, integral entries stored as ``int``.
Sparse = tuple[tuple[int, ...], tuple["Cyc | int", ...]]


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


class Basis(Record):
    """Text label, JSON index and position of every coordinate of one basis:
    ``labels`` (tuple of str), ``json`` (tuple of index tuples) and
    ``position`` (dict from label to position)."""

    __slots__ = ("labels", "json", "position")


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


class Coords:
    """An element of one of the rings: its nonzero coordinates in a labelled basis.

    ``Coords(n, kind, coeffs)`` takes the dense coordinates, one ``Cyc`` of
    weight n per basis vector.  ``terms`` maps the position of every nonzero
    coordinate to its value, in ascending position order, and never holds a
    zero, so equal vectors store equal terms.
    """

    __slots__ = ("n", "kind", "terms")

    def __new__(cls, n: int, kind: str, coeffs: Iterable[Cyc]):
        coeffs = tuple(coeffs)
        size = len(basis(n, kind).labels)
        if len(coeffs) != size:
            raise ValueError("%s coordinates for n=%d need %d entries, got %d"
                             % (kind, n, size, len(coeffs)))
        return from_canonical(n, kind, {i: c for i, c in enumerate(coeffs) if _entry(n, c)})

    def __setattr__(self, name, value):
        raise AttributeError("Coords values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Coords values are immutable")

    @property
    def basis(self) -> Basis:
        return basis(self.n, self.kind)

    @property
    def coeffs(self) -> tuple[Cyc, ...]:
        """The dense coordinates, zeros included."""
        z, get = Cyc.zero(self.n), self.terms.get
        return tuple(get(i, z) for i in range(len(self.basis.labels)))

    def __getitem__(self, label: str) -> Cyc:
        return self.terms.get(self.basis.position[label], Cyc.zero(self.n))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coords):
            return NotImplemented
        return (self.n, self.kind) == (other.n, other.kind) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, self.kind, tuple(self.terms.items())))

    def __repr__(self) -> str:
        return "Coords(%d, %r, %s)" % (self.n, self.kind, self)

    def __reduce__(self):
        return from_canonical, (self.n, self.kind, self.terms)

    def is_zero(self) -> bool:
        return not self.terms

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
        out = dict(self.terms)
        for i, b in other.terms.items():
            out[i] = out[i] + b if i in out else b
        return from_terms(self.n, self.kind, out)

    def __neg__(self) -> "Coords":
        return from_canonical(self.n, self.kind, {i: -a for i, a in self.terms.items()})

    def __sub__(self, other: "Coords") -> "Coords":
        return self + (-other)

    def scale(self, c: Cyc | int | Fraction) -> "Coords":
        c = c if isinstance(c, Cyc) else Cyc.rational(self.n, c)
        if not c:
            return zero(self.n, self.kind)
        return from_canonical(self.n, self.kind, {i: a * c for i, a in self.terms.items()})

    def __str__(self) -> str:
        """Text form in coordinate order, e.g. ``-e[0,0] + 2*xe[0,0]``."""
        labels = self.basis.labels
        text = "".join(_term(c, labels[i]) for i, c in self.terms.items())
        return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


# Slot setters that bypass the immutability guard in Coords.__setattr__.
_set_n, _set_kind, _set_terms = Coords.n.__set__, Coords.kind.__set__, Coords.terms.__set__


def from_canonical(n: int, kind: str, terms: dict[int, Cyc]) -> Coords:
    """The vector with ``terms``, which must already be canonical: ascending
    positions, each holding a nonzero ``Cyc`` of order n.  Nothing is checked."""
    obj = object.__new__(Coords)
    _set_n(obj, n)
    _set_kind(obj, kind)
    _set_terms(obj, terms)
    return obj


def _entry(n: int, c: Cyc) -> Cyc:
    # c, once it is known to be a Cyc of order n.
    if not isinstance(c, Cyc):
        raise TypeError("a coordinate must be a Cyc, got %s" % type(c).__name__)
    if c.n != n:
        raise ValueError("a coordinate in Q(zeta_%d) for the weight n=%d" % (c.n, n))
    return c


def from_terms(n: int, kind: str, terms: dict[int, Cyc]) -> Coords:
    """The vector with coordinate ``terms[i]`` at each position i; zero values are dropped."""
    return from_canonical(n, kind, {i: terms[i] for i in sorted(terms) if terms[i]})


@cache
def zero(n: int, kind: str) -> Coords:
    basis(n, kind)
    return from_canonical(n, kind, {})


def gen(n: int, kind: str, label: str, coeff: Cyc | int | Fraction = 1) -> Coords:
    """``coeff`` times the basis vector named ``label``."""
    i = basis(n, kind).position[label]
    c = _entry(n, coeff if isinstance(coeff, Cyc) else Cyc.rational(n, coeff))
    return from_canonical(n, kind, {i: c} if c else {})


@cache
def unit(n: int, kind: str) -> Coords:
    """The ring unit: one[0] on the sector side, the sum of the row idempotents
    e[0,l] in loc, e[0,0] plus every u[l,q] with l != 0 in u, and 1 in res."""
    basis(n, kind)
    ones = {"loc": [0] + [grid(n, 0, l) for l in range(1, n)],
            "u": [0] + list(range(grid(n, 1, 0), n * n + 1))}.get(kind, [0])
    return from_canonical(n, kind, dict.fromkeys(ones, Cyc.one(n)))


@cache
def basis_vectors(n: int, kind: str) -> tuple[tuple[str, Coords], ...]:
    """Every basis vector with its label, in coordinate order."""
    return tuple((label, gen(n, kind, label)) for label in basis(n, kind).labels)


def sparse(entries: Iterable[tuple[int, Cyc | int]]) -> Sparse:
    """The nonzero ones of the (position, entry) pairs ``entries``, as a
    column: integral entries are stored as ``int``.  An entry must lie in
    Z[zeta_n], as the kernels multiply numerators only."""
    nonzero = [(i, c) for i, c in entries if c]
    for i, c in nonzero:
        if isinstance(c, Cyc) and c.den != 1:
            raise ValueError("the entry at position %d is not in Z[zeta_%d]: %s" % (i, c.n, c))
    return tuple(i for i, _ in nonzero), tuple(
        c.num[0] if isinstance(c, Cyc) and c.is_rational() else c for _, c in nonzero)


def numerators(a: Coords) -> tuple[int, dict[int, Sequence[int]]]:
    """(den, nums): the stored coordinates of ``a`` over their least common
    denominator, the coordinate at position i being nums[i] / den."""
    terms, den = a.terms, 1
    for c in terms.values():
        if den % c.den:
            den = math.lcm(den, c.den)
    return den, {i: c.num if c.den == den else [x * (den // c.den) for x in c.num]
                 for i, c in terms.items()}


def from_numerators(n: int, kind: str, sums: dict[int, Sequence[int]], den: int) -> Coords:
    """The vector with coordinate sums[i] / den at each position i, from raw
    numerators of length deg(Phi_n): each is normalised once, zeros are dropped."""
    return from_canonical(n, kind, {i: _canonical(n, s, den) for i, s in sorted(sums.items())
                                    if any(s)})


def power(a: Coords | Cyc, k: int, mul: Callable) -> Coords | Cyc:
    """a^k for k >= 0 by square-and-multiply, ``mul`` being the ring product.

    The one power loop, for classes and scalars: a ``Cyc`` starts from 1.
    """
    if k < 0:
        raise ValueError("negative powers need an explicit inverse")
    result = Cyc.one(a.n) if isinstance(a, Cyc) else unit(a.n, a.kind)
    base = a
    while k:
        if k & 1:
            result = mul(result, base)
        k >>= 1
        if k:
            base = mul(base, base)
    return result


def _term(c: Cyc, label: str) -> str:
    # " + c*label", or " - |c|*label" for a negative rational c; a coefficient
    # 1 and the label "1" are left out.
    if c.is_rational():
        r = c.rational_value()
        sign, coeff = " - " if r < 0 else " + ", "" if abs(r) == 1 else str(abs(r))
    else:
        sign, coeff = " + ", "(%s)" % format_cyc(c)
    if label == "1":
        return sign + (coeff or "1")
    return sign + ("%s*%s" % (coeff, label) if coeff else label)
