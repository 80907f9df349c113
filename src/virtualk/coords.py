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

A class is stored in one integer form, numerators over one denominator
(``Coords``).  Every kernel reads it, adds integer products to raw sums
keyed by output position (``cyclotomic._scatter``) and leaves through
``from_numerators``, one gcd per class; ``from_terms`` is the entry for
values computed on ``Cyc``, which is built only to read a coordinate
(``coord``, ``terms``), not to print it: the text form is written from
``den`` and ``nums`` by ``cyclotomic.format_num``.  ``sector_split``
writes a sector class as the flat integer terms of each sector, which the
virtual product reads: the one memo a ``Coords`` keeps.  Table entries
(``Sparse``) stay in Z[zeta_n].
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import chain

from .cyclotomic import Cyc, PolyTerms, _canonical, _poly_terms, _times, format_num, format_ratio
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
    weight n per basis vector.  ``nums`` maps each nonzero coordinate's
    position, ascending, to its tuple of deg(Phi_n) integer numerators over
    ``den`` > 0, with gcd(den, every numerator) = 1, so equal vectors store
    equal integers.  A sector vector also keeps its
    ``sector_split`` once built; equality, hashing, copies and pickles see
    only n, kind, den and nums.
    """

    __slots__ = ("n", "kind", "den", "nums", "_split")

    def __new__(cls, n: int, kind: str, coeffs: Iterable[Cyc]):
        coeffs = tuple(coeffs)
        size = len(basis(n, kind).labels)
        if len(coeffs) != size:
            raise ValueError("%s coordinates for n=%d need %d entries, got %d"
                             % (kind, n, size, len(coeffs)))
        return from_terms(n, kind, {i: _entry(n, c) for i, c in enumerate(coeffs)})

    def __setattr__(self, name, value):
        raise AttributeError("Coords values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Coords values are immutable")

    @property
    def basis(self) -> Basis:
        return basis(self.n, self.kind)

    def coord(self, i: int) -> Cyc:
        """The coordinate at position i, in its own lowest terms."""
        num = self.nums.get(i)
        return Cyc.zero(self.n) if num is None else _canonical(self.n, num, self.den)

    @property
    def terms(self) -> dict[int, Cyc]:
        """Read-only: each nonzero coordinate as a ``Cyc``, by ascending position."""
        return {i: _canonical(self.n, num, self.den) for i, num in self.nums.items()}

    @property
    def coeffs(self) -> tuple[Cyc, ...]:
        """The dense coordinates, zeros included."""
        return tuple(map(self.coord, range(len(self.basis.labels))))

    def __getitem__(self, label: str) -> Cyc:
        return self.coord(self.basis.position[label])

    def __eq__(self, other) -> bool:
        if not isinstance(other, Coords):
            return NotImplemented
        return ((self.n, self.kind, self.den) == (other.n, other.kind, other.den)
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.n, self.kind, self.den, tuple(self.nums.items())))

    def __repr__(self) -> str:
        return "Coords(%d, %r, %s)" % (self.n, self.kind, self)

    def __reduce__(self):
        return from_numerators, (self.n, self.kind, self.nums, self.den)

    def is_zero(self) -> bool:
        return not self.nums

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
        return self._plus(other, 1)

    def __sub__(self, other: "Coords") -> "Coords":
        return self._plus(other, -1)

    def _plus(self, other: "Coords", sign: int) -> "Coords":
        # self + sign * other over the lcm of the two denominators, one pass.
        self.check(other)
        den = math.lcm(self.den, other.den)
        fa, fb = den // self.den, sign * (den // other.den)
        out = dict(self.nums) if fa == 1 else {i: [x * fa for x in a]
                                               for i, a in self.nums.items()}
        for i, b in other.nums.items():
            a = out.get(i)
            out[i] = [y * fb for y in b] if a is None else [x + y * fb for x, y in zip(a, b)]
        return from_numerators(self.n, self.kind, out, den)

    def __neg__(self) -> "Coords":
        # Negating every row keeps the stored form canonical.
        return _make(self.n, self.kind, self.den,
                     {i: tuple([-x for x in a]) for i, a in self.nums.items()})

    def scale(self, c: Cyc | int | Fraction) -> "Coords":
        c = _entry(self.n, c if isinstance(c, Cyc) else Cyc.rational(self.n, c))
        rational = c.is_rational()
        return from_numerators(self.n, self.kind, {i: _times(self.n, c.num, a, rational)
                                                   for i, a in self.nums.items()},
                               self.den * c.den)

    def __str__(self) -> str:
        """Text form in coordinate order, e.g. ``-e[0,0] + 2*xe[0,0]``, each
        coefficient in its own lowest terms, written from the stored integers."""
        labels, den = self.basis.labels, self.den
        text = "".join([_term(num, den, labels[i]) for i, num in self.nums.items()])
        return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


# Slot setters that bypass the immutability guard in Coords.__setattr__.
_set_n, _set_kind, _set_split = Coords.n.__set__, Coords.kind.__set__, Coords._split.__set__
_set_den, _set_nums = Coords.den.__set__, Coords.nums.__set__


def from_numerators(n: int, kind: str, sums: dict[int, Sequence[int]], den: int) -> Coords:
    """The vector with coordinate sums[i] / den at each position i, sums[i] of
    length deg(Phi_n) and den > 0: the one exit of every kernel."""
    nums = {i: tuple(sums[i]) for i in sorted(sums) if any(sums[i])}
    g = math.gcd(den, *chain.from_iterable(nums.values())) if den > 1 else 1
    if g > 1:
        den, nums = den // g, {i: tuple([x // g for x in s]) for i, s in nums.items()}
    return _make(n, kind, den, nums)


def _make(n: int, kind: str, den: int, nums: dict[int, tuple[int, ...]]) -> Coords:
    # The vector with (den, nums) already canonical.
    obj = object.__new__(Coords)
    _set_n(obj, n)
    _set_kind(obj, kind)
    _set_den(obj, den)
    _set_nums(obj, nums)
    return obj


def _entry(n: int, c: Cyc) -> Cyc:
    # c, once it is known to be a Cyc of order n.
    if not isinstance(c, Cyc):
        raise TypeError("a coordinate must be a Cyc, got %s" % type(c).__name__)
    if c.n != n:
        raise ValueError("a coordinate in Q(zeta_%d) for the weight n=%d" % (c.n, n))
    return c


def from_terms(n: int, kind: str, terms: dict[int, Cyc]) -> Coords:
    """The vector with coordinate ``terms[i]``, a ``Cyc``, at each position i."""
    den = math.lcm(*[c.den for c in terms.values()])
    scaled = {i: c.num if c.den == den else [x * (den // c.den) for x in c.num]
              for i, c in terms.items()}
    return from_numerators(n, kind, scaled, den)


@cache
def zero(n: int, kind: str) -> Coords:
    basis(n, kind)
    return from_numerators(n, kind, {}, 1)


def gen(n: int, kind: str, label: str, coeff: Cyc | int | Fraction = 1) -> Coords:
    """``coeff`` times the basis vector named ``label``."""
    i = basis(n, kind).position[label]
    c = _entry(n, coeff if isinstance(coeff, Cyc) else Cyc.rational(n, coeff))
    return from_numerators(n, kind, {i: c.num}, c.den)


@cache
def unit(n: int, kind: str) -> Coords:
    """The ring unit: one[0] on the sector side, the sum of the row idempotents
    e[0,l] in loc, e[0,0] plus every u[l,q] with l != 0 in u, and 1 in res."""
    basis(n, kind)
    ones = {"loc": [0] + [grid(n, 0, l) for l in range(1, n)],
            "u": [0] + list(range(grid(n, 1, 0), n * n + 1))}.get(kind, [0])
    return from_terms(n, kind, dict.fromkeys(ones, Cyc.one(n)))


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


#: A sector class as ``sector_split`` writes it: (den, {m: (lo, hi, terms)}).
Split = tuple[int, dict[int, PolyTerms]]


def sector_split(a: Coords) -> Split:
    """(den, sectors): the sector class ``a`` over its denominator as integer
    terms in x and zeta, the form ``cyclotomic._poly_times`` takes.
    sectors[m] is (lo, hi, terms) for each sector m with a stored coordinate:
    lo and hi the lowest and highest power of x stored, and terms the pairs
    ((j - lo) * w + i, v), v != 0 the coefficient of x^j zeta^i, in flat rows
    w = 2 deg(Phi_n) - 1 wide (``cyclotomic._poly_terms``).  A pure function
    of den and nums, built on first use and kept on ``a``."""
    try:
        return a._split
    except AttributeError:
        split = _split_sectors(a)
        _set_split(a, split)
        return split


def _split_sectors(a: Coords) -> Split:
    json = a.basis.json
    rows: dict[int, list[tuple[int, Sequence[int]]]] = {}
    for i, num in a.nums.items():
        _, m, j = json[i]
        rows.setdefault(m, []).append((j, num))
    return a.den, {m: _poly_terms(a.n, js) for m, js in rows.items()}


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


def _term(num: Sequence[int], den: int, label: str) -> str:
    # " + c*label" for the coordinate c = num/den, or " - |c|*label" for a
    # negative rational c; a coefficient 1 and the label "1" are left out.
    if any(num[1:]):
        sign, coeff = " + ", "(%s)" % format_num(num, den)
    else:
        c = num[0]
        sign, coeff = (" - ", format_ratio(-c, den)) if c < 0 else (" + ", format_ratio(c, den))
    if label == "1":
        return sign + coeff
    return sign + (label if coeff == "1" else "%s*%s" % (coeff, label))
