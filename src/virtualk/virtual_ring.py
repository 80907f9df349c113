"""The full inertial K-theory ring of P(1,n) with the virtual product.

A class is a sector ``Coords``: the coefficients of x_m^j for every inertia
sector m.  The virtual product of monomials is

    x_{m1}^{a1} * x_{m2}^{a2} = x_{m1+m2}^{a1+a2} . e(m1, m2)

where the Euler factor e(m1, m2) follows the three-case table implemented by
``euler_factor`` and the target sector index is taken mod n (the case
m1 + m2 = n is detected before reduction).  Virtual Adams operations twist
the ordinary ones by a Bott class on each twisted sector; the untwisted
sector carries the ordinary Adams operations untouched.

Both operations run on structure constants derived lazily from the sector
polynomial code, which stays their single source: ``_euler_rows`` holds the
reduced class of x^s * e for s = 0..n, keyed on the Euler polynomial e
itself, so a replaced ``euler_factor`` (a planted defect in the tests) gets
rows of its own, and ``_pair_rows`` finds the rows of each sector pair once
per Euler table; ``_adams_column`` holds the image of one monomial x_m^j
under psi~^k.
Rows and columns are ``coords.Sparse``: parallel tuples of offsets and
coefficients, integral coefficients stored as ``int``.

Both compute in the integer form of ``coords.numerators``: each factor over
one common denominator, and both reduce in the sector ring before they read
a table.  The product writes each sector of a factor as integer terms in x
and zeta, multiplies each pair of nonzero sectors in one integer product
(``cyclotomic._poly_times``) and folds it modulo the target sector's modulus
by the closed form of ``sector_ring``, so powers that cancel there never
reach a table; it scatters the coefficient of each power s <= n left once,
through Euler row s (``cyclotomic._scatter``).  So it builds no ``Cyc`` and
convolves no numerator vectors per pair of coefficients.  The Adams
operation first sums the coordinates of a twisted sector whose images
x^(jk mod n) coincide, and scatters each sum, and each coordinate of
sector 0, through its column.  ``coords.from_numerators`` normalises each
output coordinate once.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from operator import add

from .coords import (Coords, Sparse, from_numerators, from_terms, numerators, sector_start, sparse,
                     unit)
from .cyclotomic import Cyc, CycPoly, _poly_times, _scatter
from .sector_ring import (
    bott_class,
    reduce_coeffs,
    sector_adams,
    sector_monomial,
    sector_mul,
    sector_x_inverse,
)

#: Columns kept by the Adams column cache.  Verify's working set at n = 8 is
#: k = 1..16 on all 65 monomials; a stream of distinct Adams indices evicts
#: the least recently used columns instead of growing the cache.
ADAMS_COLUMN_CACHE_SIZE = 2048


def k_monomial(n: int, m: int, a: int) -> Coords:
    """The class of x_m^a, supported on sector m."""
    if not 0 <= m < n:
        raise ValueError("sector index out of range")
    return from_terms(n, "sector", dict(enumerate(sector_monomial(n, m, a).coeffs,
                                                  sector_start(n, m))))


@cache
def euler_factor(n: int, m1: int, m2: int) -> CycPoly:
    """K-theory Euler class attached to a sector pair, in sector m1+m2 mod n.

    Three cases: 1 when either index is 0; 1 - 2/x + 1/x^2 when the indices
    are nonzero and sum to exactly n; 1 - 1/x otherwise.
    """
    if not (0 <= m1 < n and 0 <= m2 < n):
        raise ValueError("sector indices out of range")
    one = CycPoly.one_poly(n)
    if m1 == 0 or m2 == 0:
        return one
    t = (m1 + m2) % n
    xinv = sector_x_inverse(n, t)
    if m1 + m2 == n:
        return one - xinv.scale(2) + sector_mul(t, xinv, xinv)
    return one - xinv


@cache
def _euler_rows(e: CycPoly, untwisted: bool) -> tuple[Sparse, ...]:
    """Row s = 0..n: the reduced class of x^s * e in an untwisted or a twisted
    sector.  A product reaches only these rows, as it is folded to a
    representative before it meets its Euler factor."""
    n = e.n
    pad = (Cyc.zero(n),)
    return tuple(sparse(enumerate(reduce_coeffs(n, 0 if untwisted else 1, pad * s + e.coeffs)))
                 for s in range(n + 1))


@cache
def _pair_rows(euler, n: int, m1: int, m2: int) -> tuple[int, tuple[Sparse, ...]]:
    """Where the product of sectors m1 and m2 lands and its Euler rows under
    the table ``euler``; a replaced table gets entries of its own."""
    t = (m1 + m2) % n
    return sector_start(n, t), _euler_rows(euler(n, m1, m2), t == 0)


def virtual_mul(a: Coords, b: Coords) -> Coords:
    """Bilinear extension of the monomial product with its Euler factor.

    Each pair of nonzero sectors is multiplied as two polynomials in x and
    zeta with integer coefficients (``cyclotomic._poly_times``), over the
    product of the factors' common denominators, and reduced modulo the
    target sector's modulus before it meets the Euler factor: x^n = 1 on a
    twisted target, x^(qn+r) = x^r + q(x^n - 1) on sector 0.  Powers that
    cancel there are dropped; the coefficient of each power s <= n left is
    scattered once, through row s of the Euler rows.
    """
    a.check_kind("sector")
    a.check(b)
    n, json, factors = a.n, a.basis.json, []
    for c in (a, b):
        den, nums = numerators(c)
        sectors: dict[int, list[tuple[int, int, int]]] = {}
        for i, num in nums.items():
            _, m, j = json[i]
            terms = sectors.setdefault(m, [])
            for k, v in enumerate(num):
                if v:
                    terms.append((j, k, v))
        factors.append((den, sectors))
    (da, sectors_a), (db, sectors_b) = factors
    sums: dict[int, list[int]] = {}
    for m1, t1 in sectors_a.items():
        for m2, t2 in sectors_b.items():
            start, rows = _pair_rows(euler_factor, n, m1, m2)
            for s, num in _poly_times(n, t1, t2, start == 0):  # start 0: the target is sector 0
                _scatter(n, sums, num, start, *rows[s])
    return from_numerators(n, "sector", sums, da * db)


@lru_cache(maxsize=ADAMS_COLUMN_CACHE_SIZE)
def _adams_column(n: int, m: int, j: int, k: int) -> Sparse:
    """psi~^k(x_m^j) on sector m: psi^k, times the k-th Bott class when m != 0.

    On a twisted sector psi^k(x_m^j) is the monomial x_m^e, e = jk mod n, so
    the product rotates the Bott class by e: position t gets its coefficient
    of x^(t-e).  The column depends on j only through e, which lets
    ``virtual_adams`` scatter the exponents that share e through one column.
    """
    ps = sector_adams(m, CycPoly.monomial(n, j), k)
    if not m:
        return sparse(enumerate(ps.coeffs))
    e, bott = ps.degree, bott_class(n, m, k).coeffs
    bott += (Cyc.zero(n),) * (n - len(bott))
    return sparse((t, bott[(t - e) % n]) for t in range(n))


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
    den, nums = numerators(a)
    groups: dict[tuple[int, int], list] = {}
    for i, num in nums.items():
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
    return from_numerators(n, "sector", sums, den)


def virtual_augmentation(a: Coords) -> Coords:
    """Rank projection: sector 0 maps to its value at 1 times 1_0, twisted sectors die.

    The value at x = 1 is the sum of the sector-0 coefficients.
    """
    a.check_kind("sector")
    sector0 = sum((c for i, c in a.terms.items() if i <= a.n), Cyc.zero(a.n))
    return unit(a.n, "sector").scale(sector0)


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
