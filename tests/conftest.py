"""Shared helpers for the test suite."""

from __future__ import annotations

from hypothesis import settings

from virtualk.coords import Coords, from_terms, sector_start
from virtualk.cyclotomic import Cyc, CycPoly
from virtualk.sector_ring import sector_x_inverse
from virtualk.virtual_ring import euler_factor

# Property tests draw a fixed sequence of examples, so every run checks the
# same cases, and are not timed, so a slow host cannot fail them.
settings.register_profile("virtualk", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("virtualk")


def evaluate(p: CycPoly, x: Cyc) -> Cyc:
    """p(x) by Horner's rule."""
    total = Cyc.zero(p.n)
    for c in reversed(p.coeffs):
        total = total * x + c
    return total


def perturbed_euler(n: int, m1: int, m2: int) -> CycPoly:
    """Euler table with the coincident case (m1 + m2 = n) deliberately wrong."""
    if m1 != 0 and m2 != 0 and m1 + m2 == n:
        return CycPoly.one_poly(n) - sector_x_inverse(n, (m1 + m2) % n)
    return euler_factor(n, m1, m2)


def sector_part(a: Coords, m: int) -> CycPoly:
    """The class of ``a`` in sector m, as a polynomial in x_m."""
    a.check_kind("sector")
    start, get = sector_start(a.n, m), a.terms.get
    width = a.n + 1 if m == 0 else a.n
    return CycPoly.from_cycs(a.n, [get(start + j, Cyc.zero(a.n)) for j in range(width)])


def from_sectors(n: int, parts: dict[int, CycPoly]) -> Coords:
    """The class with the reduced polynomial ``parts[m]`` on sector m, zero elsewhere."""
    terms = {}
    for m, p in parts.items():
        assert len(p.coeffs) <= (n + 1 if m == 0 else n), "representative is not reduced"
        terms.update(enumerate(p.coeffs, sector_start(n, m)))
    return from_terms(n, "sector", terms)
