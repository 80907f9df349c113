"""Shared helpers for the test suite."""

from __future__ import annotations

from hypothesis import settings

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
