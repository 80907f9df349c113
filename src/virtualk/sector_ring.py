"""The individual sector rings of the inertia decomposition of P(1,n).

The untwisted sector (m = 0) is the representation-theoretic quotient
Q(zeta_n)[x]/((x-1)(x^n-1)) with canonical representatives of degree <= n;
a twisted sector (m != 0) is Q(zeta_n)[x]/(x^n-1) with representatives of
degree <= n-1.  Both moduli have unit constant term, so x is invertible in
every sector and negative powers are eliminated at construction time.

A class in sector m is a ``CycPoly`` in x_m; the sector index is passed
alongside it.  Canonical representatives make equality a plain tuple
comparison.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

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


def _strip(coeffs: list[Cyc]) -> tuple[Cyc, ...]:
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def reduce_coeffs(n: int, m: int, coeffs: Sequence[Cyc]) -> tuple[Cyc, ...]:
    """Reduce an arbitrary coefficient list to the canonical representative."""
    if m % n:
        # x^n = 1: fold exponents.
        folded = [Cyc.zero(n) for _ in range(n)]
        for e, c in enumerate(coeffs):
            if c:
                folded[e % n] = folded[e % n] + c
        return _strip(folded)
    poly = CycPoly.from_cycs(n, coeffs)
    if poly.degree <= n:
        return poly.coeffs
    _, rem = poly.divmod_by(sector_modulus(n, 0))
    return rem.coeffs


def sector_x_inverse(n: int, m: int) -> CycPoly:
    """The class y with y * x_m = 1_m.

    For m != 0 this is x_m^(n-1); for m = 0 it is 1 + x^(n-1) - x^n, since
    x (1 + x^(n-1) - x^n) = 1 modulo (x-1)(x^n-1) = x^(n+1) - x^n - x + 1.
    """
    _check_n(n)
    if m % n:
        return sector_monomial(n, m, n - 1)
    return CycPoly.from_ints(n, [1] + [0] * (n - 2) + [1, -1])


def sector_monomial(n: int, m: int, a: int) -> CycPoly:
    """x_m^a for any integer a, negative powers included."""
    _check_n(n)
    if m % n:
        return CycPoly.monomial(n, a % n)
    if 0 <= a <= n:
        return CycPoly.monomial(n, a)
    acc = CycPoly.one_poly(n)
    x = sector_monomial(n, 0, 1) if a > 0 else sector_x_inverse(n, 0)
    for _ in range(abs(a)):
        acc = sector_mul(0, acc, x)
    return acc


def sector_mul(m: int, a: CycPoly, b: CycPoly) -> CycPoly:
    """Ordinary product within sector m, reduced modulo the sector modulus."""
    return CycPoly(a.n, reduce_coeffs(a.n, m, (a * b).coeffs))


def sector_adams(m: int, a: CycPoly, k: int) -> CycPoly:
    """Ordinary Adams operation psi^k: x_m^j -> x_m^(jk), extended linearly."""
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    n = a.n
    if m:
        folded = [Cyc.zero(n) for _ in range(n)]
        for j, c in enumerate(a.coeffs):
            if c:
                e = (j * k) % n
                folded[e] = folded[e] + c
        return CycPoly(n, _strip(folded))
    out = [Cyc.zero(n)] * (k * max(len(a.coeffs) - 1, 0) + 1)
    for j, c in enumerate(a.coeffs):
        if c:
            out[j * k] = out[j * k] + c
    return CycPoly(n, reduce_coeffs(n, 0, out))


def bott_class(n: int, m: int, j: int) -> CycPoly:
    """The j-th Bott class of the dual tautological character on sector m.

    This is the geometric sum 1 + x_m^(-1) + ... + x_m^(-(j-1)), reduced.
    """
    _check_n(n)
    if j < 1:
        raise ValueError("Bott classes are defined for j >= 1")
    if m % n:
        folded = [Cyc.zero(n) for _ in range(n)]
        for i in range(j):
            e = (-i) % n
            folded[e] = folded[e] + Cyc.one(n)
        return CycPoly(n, _strip(folded))
    total = CycPoly.one_poly(n)
    power = CycPoly.one_poly(n)
    xinv = sector_x_inverse(n, 0)
    for _ in range(j - 1):
        power = sector_mul(0, power, xinv)
        total = total + power
    return total
