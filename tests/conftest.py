"""Shared helpers for the test suite."""

from __future__ import annotations

from virtualk.cyclotomic import CycPoly
from virtualk.sector_ring import sector_x_inverse
from virtualk.virtual_ring import euler_factor


def perturbed_euler(n: int, m1: int, m2: int) -> CycPoly:
    """Euler table with the coincident case (m1 + m2 = n) deliberately wrong."""
    if m1 != 0 and m2 != 0 and m1 + m2 == n:
        return CycPoly.one_poly(n) - sector_x_inverse(n, (m1 + m2) % n)
    return euler_factor(n, m1, m2)
