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
reduced class of x^s * e for every exponent sum s of two monomials, keyed on
the Euler polynomial e itself, so a replaced ``euler_factor`` (a planted
defect in the tests) gets rows of its own; ``_adams_column`` holds the image
of one monomial x_m^j under psi~^k.
Rows and columns are ``coords.Sparse``: parallel tuples of offsets and
coefficients, integral coefficients stored as ``int``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache

from .coords import (Coords, Sparse, apply_columns, from_canonical, from_terms, sector_start, sparse,
                     unit)
from .cyclotomic import Accumulator, Cyc, CycPoly
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
    """Row s = 0..2n: the reduced class of x^s * e in an untwisted or a twisted sector."""
    n = e.n
    pad = (Cyc.zero(n),)
    return tuple(sparse(enumerate(reduce_coeffs(n, 0 if untwisted else 1, pad * s + e.coeffs)))
                 for s in range(2 * n + 1))


def _terms(a: Coords) -> dict[int, tuple[list[int], list[Cyc]]]:
    # Sector m -> the exponents j and the coefficients of x_m^j stored in ``a``.
    out: dict[int, tuple[list[int], list[Cyc]]] = {}
    json = a.basis.json
    for i, c in a.terms.items():
        _, m, j = json[i]
        exponents, coeffs = out.setdefault(m, ([], []))
        exponents.append(j)
        coeffs.append(c)
    return out


def virtual_mul(a: Coords, b: Coords) -> Coords:
    """Bilinear extension of the monomial product with its Euler factor.

    For each pair of nonzero sectors the coordinates are convolved by exponent
    sum, and each sum s is scattered through row s of the Euler rows.  Both
    steps run through ``cyclotomic.Accumulator`` on raw numerators, so each
    output coordinate is normalised once.
    """
    a.check_kind("sector")
    a.check(b)
    n = a.n
    terms_b = _terms(b)
    out = Accumulator(n)
    for m1, (exponents, coeffs) in _terms(a).items():
        for m2, column in terms_b.items():
            conv = Accumulator(n)
            for j1, c1 in zip(exponents, coeffs):
                conv.add(c1.num, c1.den, j1, *column)
            t = (m1 + m2) % n
            rows = _euler_rows(euler_factor(n, m1, m2), t == 0)
            start = sector_start(n, t)
            for s, (num, den) in conv.sums.items():
                if any(num):
                    out.add(num, den, start, *rows[s])
    return from_canonical(n, "sector", out.result())


@lru_cache(maxsize=ADAMS_COLUMN_CACHE_SIZE)
def _adams_column(n: int, m: int, j: int, k: int) -> Sparse:
    """psi~^k(x_m^j) on sector m: psi^k, times the k-th Bott class when m != 0.

    On a twisted sector psi^k(x_m^j) is the monomial x_m^e, so the product
    rotates the Bott class by e: position t gets its coefficient of x^(t-e).
    """
    ps = sector_adams(m, CycPoly.monomial(n, j), k)
    if not m:
        return sparse(enumerate(ps.coeffs))
    e, bott = ps.degree, bott_class(n, m, k).coeffs
    bott += (Cyc.zero(n),) * (n - len(bott))
    return sparse((t, bott[(t - e) % n]) for t in range(n))


def virtual_adams(a: Coords, k: int) -> Coords:
    """Virtual Adams operation: psi^k twisted by the Bott class on twisted sectors."""
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    a.check_kind("sector")
    n, json = a.n, a.basis.json
    return apply_columns(n, "sector", (
        (c, sector_start(n, json[i][1]), _adams_column(n, json[i][1], json[i][2], k))
        for i, c in a.terms.items()))


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
