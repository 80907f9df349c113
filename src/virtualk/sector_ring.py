"""The individual sector rings of the inertia decomposition of P(1,n).

The untwisted sector (m = 0) is the representation-theoretic quotient
Q(zeta_n)[x]/((x-1)(x^n-1)) with canonical representatives of degree <= n;
a twisted sector (m != 0) is Q(zeta_n)[x]/(x^n-1) with representatives of
degree <= n-1.  Both moduli have unit constant term, so x is invertible in
every sector and negative powers are eliminated at construction time.

On the untwisted sector every power has a closed-form representative: write
e = qn + r with 0 <= r < n; then

    x^e = x^r + q (x^n - 1)   modulo (x-1)(x^n-1),

because t = x^n - 1 satisfies t x = t and t^2 = 0, so (x^n)^q = (1 + t)^q =
1 + q t.  The Adams operations use it and never divide, and so do the
integer tables of ``virtual_ring``: its Euler rows fold each power by it, and
its twisted Adams columns rotate ``bott_counts``.

A class in sector m is a ``CycPoly`` in x_m; the sector index is passed
alongside it.  Canonical representatives make equality a plain tuple
comparison.  In the package only ``sector_monomial`` calls ``sector_mul``:
a power of x_0 past x^n runs through it and the long division of
``reduce_coeffs``.
"""

from __future__ import annotations

from collections.abc import Sequence
from functools import cache

from .cyclotomic import Cyc, CycPoly


def _check_n(n: int) -> None:
    if n < 2:
        raise ValueError("the weight n must be at least 2")


@cache
def sector_modulus(n: int, m: int) -> CycPoly:
    """Defining modulus of sector m: (x-1)(x^n-1) for m = 0, else x^n - 1."""
    _check_n(n)
    if m % n == 0:
        # (x - 1)(x^n - 1) = x^(n+1) - x^n - x + 1
        coeffs = [1, -1] + [0] * (n - 2) + [-1, 1]
    else:
        coeffs = [-1] + [0] * (n - 1) + [1]
    return CycPoly.from_ints(n, coeffs)


def reduce_coeffs(n: int, m: int, coeffs: Sequence[Cyc]) -> tuple[Cyc, ...]:
    """Reduce an arbitrary coefficient list to the canonical representative."""
    if m % n:
        # x^n = 1: fold exponents.
        folded = [Cyc.zero(n) for _ in range(n)]
        for e, c in enumerate(coeffs):
            if c:
                folded[e % n] = folded[e % n] + c
        return CycPoly.from_cycs(n, folded).coeffs
    poly = CycPoly.from_cycs(n, coeffs)
    if poly.degree <= n:
        return poly.coeffs
    _, rem = poly.divmod_by(sector_modulus(n, 0))
    return rem.coeffs


def sector_monomial(n: int, m: int, a: int) -> CycPoly:
    """x_m^a for any integer a, negative powers included."""
    _check_n(n)
    if m % n:
        return CycPoly.monomial(n, a % n)
    if 0 <= a <= n:
        return CycPoly.monomial(n, a)
    acc = CycPoly.one_poly(n)
    # x^(-1) = 1 + x^(n-1) - x^n: x times it is x + x^n - x^(n+1) = 1 modulo
    # (x-1)(x^n-1) = x^(n+1) - x^n - x + 1.
    x = (sector_monomial(n, 0, 1) if a > 0
         else CycPoly.from_ints(n, [1] + [0] * (n - 2) + [1, -1]))
    for _ in range(abs(a)):
        acc = sector_mul(0, acc, x)
    return acc


def sector_mul(m: int, a: CycPoly, b: CycPoly) -> CycPoly:
    """Ordinary product within sector m, reduced modulo the sector modulus."""
    return CycPoly(a.n, reduce_coeffs(a.n, m, (a * b).coeffs))


def sector_adams(m: int, a: CycPoly, k: int) -> CycPoly:
    """Ordinary Adams operation psi^k: x_m^j -> x_m^(jk), extended linearly.

    x^(jk) with jk = qn + r is x^r on a twisted sector and x^r + q (x^n - 1)
    on the untwisted one, so the cost is one fold per nonzero coefficient.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    n = a.n
    untwisted = m % n == 0
    out = [Cyc.zero(n)] * (n + untwisted)
    for j, c in enumerate(a.coeffs):
        if c:
            q, r = divmod(j * k, n)
            out[r] = out[r] + c
            if untwisted and q:
                qc = c.scale_int(q)
                out[n] = out[n] + qc
                out[0] = out[0] - qc
    return CycPoly.from_cycs(n, out)


def bott_counts(n: int, j: int) -> list[int]:
    """The j-th Bott class on a twisted sector, 1 + x^(-1) + ... + x^(-(j-1))
    with x^n = 1, as the integer coefficients of 1, x, ..., x^(n-1).

    Residue s collects the exponents -i with i = c, c + n, ... below j, where
    c = -s mod n: (j - 1 - c) // n + 1 of them, which is 0 when c >= j.
    """
    return [(j - 1 - (-s % n)) // n + 1 for s in range(n)]
