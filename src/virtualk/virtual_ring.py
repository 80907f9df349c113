"""The full inertial K-theory ring of P(1,n) with the virtual product.

A class is a sector ``Coords``: the coefficients of x_m^j for every inertia
sector m.  The virtual product of monomials is

    x_{m1}^{a1} * x_{m2}^{a2} = x_{m1+m2}^{a1+a2} . e(m1, m2)

where the Euler factor e(m1, m2) follows the three-case table implemented by
``euler_factor`` and the target sector index is taken mod n (the case
m1 + m2 = n is detected before reduction).  Virtual Adams operations twist
the ordinary ones by a Bott class on each twisted sector; the untwisted
sector carries the ordinary Adams operations untouched.

Both operations run on integer structure constants derived lazily from the
closed forms of ``sector_ring``: x^(qn+r) = x^r on a twisted sector and
x^r + q(x^n - 1) on sector 0.  ``_euler_rows`` holds the reduced class of
x^s * e for s = 0..n, each power of x folded by that form, keyed on the
integer Euler factor e itself, so a replaced ``euler_factor`` (a planted
defect in the tests) gets rows of its own; ``_adams_column`` gives the image
of one monomial x_m^j under psi~^k from one of two caches: on a twisted
sector the Bott counts rotated by e = jk mod n, cached per (n, e, k) for
every twisted sector alike, and on sector 0 per (n, j, k).  A replaced
``_adams_column`` (a planted defect) is the one ``virtual_adams`` reads,
and the caches behind it stay correct.  Rows and columns are
``coords.Sparse``: parallel tuples of offsets and coefficients, integral
coefficients stored as ``int``.

Both read a class's stored numerators over its one denominator, reduce in
the sector ring before they read a table, build no ``Cyc`` and leave
through ``coords.from_numerators``.  The product reads each factor's
``coords.sector_split``, built once per class, multiplies each pair of
nonzero sectors in one integer product (``cyclotomic._poly_times``) folded
modulo the target sector's modulus, and scatters the coefficient of each
power s <= n left once, through Euler row s (``cyclotomic._scatter``).  The
split holds nothing of a table, so a replaced ``euler_factor`` acts on every
operand alike.  The Adams operation first sums the coordinates of a twisted
sector whose images x^(jk mod n) coincide, and scatters each sum, and each
coordinate of sector 0, through its column.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from operator import add

from .coords import (Coords, Sparse, from_numerators, from_terms, sector_split, sector_start,
                     sparse, unit)
from .cyclotomic import CycPoly, _poly_times, _scatter
from .sector_ring import bott_counts, sector_adams, sector_monomial

#: Columns kept by each Adams column cache.  Verify's working set at n = 8,
#: k = 1..16, is 86 twisted columns (one per (jk mod 8, k)) and 144 sector-0
#: columns (one per (j, k)); a stream of distinct Adams indices evicts the
#: least recently used columns instead of growing the caches.
ADAMS_COLUMN_CACHE_SIZE = 2048


def k_monomial(n: int, m: int, a: int) -> Coords:
    """The class of x_m^a, supported on sector m."""
    if not 0 <= m < n:
        raise ValueError("sector index out of range")
    return from_terms(n, "sector", dict(enumerate(sector_monomial(n, m, a).coeffs,
                                                  sector_start(n, m))))


def euler_factor(n: int, m1: int, m2: int) -> tuple[int, ...]:
    """K-theory Euler class attached to a sector pair, in sector m1+m2 mod n,
    as its integer coefficients of 1, x^(-1), x^(-2).

    Three cases: 1 when either index is 0; (1 - 1/x)^2 = 1 - 2/x + 1/x^2
    when the indices are nonzero and sum to exactly n; 1 - 1/x otherwise.
    """
    if not (0 <= m1 < n and 0 <= m2 < n):
        raise ValueError("sector indices out of range")
    if m1 == 0 or m2 == 0:
        return (1,)
    return (1, -2, 1) if m1 + m2 == n else (1, -1)


@cache
def _euler_rows(n: int, e: tuple[int, ...], untwisted: bool) -> tuple[Sparse, ...]:
    """Row s = 0..n: the reduced class of x^s * e in an untwisted or a twisted
    sector, e[i] the coefficient of x^(-i).  x^(qn+r) is x^r, plus q(x^n - 1)
    when untwisted.  A product reaches only these rows, as it is folded to a
    representative before it meets its Euler factor."""
    rows = []
    for s in range(n + 1):
        row = [0] * (n + 1)
        for i, c in enumerate(e):
            q, r = divmod(s - i, n)
            row[r] += c
            if untwisted and q:
                row[n] += q * c
                row[0] -= q * c
        rows.append(sparse(enumerate(row)))
    return tuple(rows)


def virtual_mul(a: Coords, b: Coords) -> Coords:
    """Bilinear extension of the monomial product with its Euler factor.

    Each pair of nonzero sectors, as the factors' ``coords.sector_split``
    gives them, is multiplied as two polynomials in x and zeta with integer
    coefficients (``cyclotomic._poly_times``), over the product of the
    factors' common denominators, and reduced modulo the target sector's
    modulus before it meets the Euler factor: x^n = 1 on a twisted target,
    x^(qn+r) = x^r + q(x^n - 1) on sector 0.  Powers that cancel there are
    dropped; the coefficient of each power s <= n left is scattered once,
    through row s of the Euler rows.
    """
    a.check_kind("sector")
    a.check(b)
    n, (da, sectors_a), (db, sectors_b) = a.n, sector_split(a), sector_split(b)
    sums: dict[int, list[int]] = {}
    for m1, t1 in sectors_a.items():
        for m2, t2 in sectors_b.items():
            t = (m1 + m2) % n
            start, rows = sector_start(n, t), _euler_rows(n, euler_factor(n, m1, m2), t == 0)
            for s, num in _poly_times(n, t1, t2, t == 0):
                _scatter(n, sums, num, start, *rows[s])
    return from_numerators(n, "sector", sums, da * db)


def _adams_column(n: int, m: int, j: int, k: int) -> Sparse:
    """psi~^k(x_m^j) on sector m: psi^k, times the k-th Bott class when m != 0.

    On a twisted sector psi^k(x_m^j) is the monomial x_m^e, e = jk mod n, so
    the product rotates the Bott counts by e: position t gets the count of
    x^(t-e).  The column depends on m and j only through e, which lets
    ``virtual_adams`` scatter the exponents that share e through one column,
    and every twisted sector read one cached column per (n, e, k).
    """
    return _twisted_column(n, j * k % n, k) if m else _untwisted_column(n, j, k)


@lru_cache(maxsize=ADAMS_COLUMN_CACHE_SIZE)
def _twisted_column(n: int, e: int, k: int) -> Sparse:
    counts = bott_counts(n, k)
    return sparse((t, counts[(t - e) % n]) for t in range(n))


@lru_cache(maxsize=ADAMS_COLUMN_CACHE_SIZE)
def _untwisted_column(n: int, j: int, k: int) -> Sparse:
    return sparse(enumerate(sector_adams(0, CycPoly.monomial(n, j), k).coeffs))


def virtual_adams(a: Coords, k: int) -> Coords:
    """Virtual Adams operation: psi^k twisted by the Bott class on twisted sectors.

    On a twisted sector m, x_m^j has the image of x_m^(jk mod n), so the
    coordinates whose exponents j share jk mod n are summed first and each
    sum is scattered once, through the column of the first j of its group.
    Each coordinate of sector 0 is scattered through its own column.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    a.check_kind("sector")
    n, json = a.n, a.basis.json
    groups: dict[tuple[int, int], list] = {}
    for i, num in a.nums.items():
        _, m, j = json[i]
        key = (m, j * k % n if m else j)
        if key in groups:
            groups[key][1] = list(map(add, groups[key][1], num))
        else:
            groups[key] = [j, num]
    sums: dict[int, list[int]] = {}
    for (m, _), (j, num) in groups.items():
        if any(num):
            _scatter(n, sums, num, sector_start(n, m), *_adams_column(n, m, j, k))
    return from_numerators(n, "sector", sums, a.den)


def virtual_augmentation(a: Coords) -> Coords:
    """Rank projection: sector 0 maps to its value at 1 times 1_0, twisted sectors die.

    The value at x = 1 is the sum of the sector-0 coefficients.
    """
    a.check_kind("sector")
    rows = [c for i, c in a.nums.items() if i <= a.n]
    return from_numerators(a.n, "sector", {0: list(map(sum, zip(*rows)))}, a.den)


def lambda_from_adams(a: Coords, i: int) -> Coords:
    """i-th lambda operation derived from the virtual Adams operations.

    Newton's identity i*lam^i(a) = sum_{j=1..i} (-1)^(j-1) lam^(i-j)(a) * psi^j(a),
    with all products virtual; the j = i term is psi^i(a) itself, as lam^0 = 1.
    """
    if i < 0:
        raise ValueError("lambda operations are defined for i >= 0")
    lams = [unit(a.n, "sector")]
    psis = [None, a]
    for t in range(1, i + 1):
        while len(psis) <= t:
            psis.append(virtual_adams(a, len(psis)))
        total = psis[t] if t % 2 else -psis[t]
        for j in range(1, t):
            term = virtual_mul(lams[t - j], psis[j])
            total = total + (term if j % 2 else -term)
        lams.append(total.scale(Fraction(1, t)))
    return lams[i]
