"""The tests' own references stand apart from the code they check.

The sector-layer reference in ``conftest.py`` (long division by the monic
sector modulus, the schoolbook product, square-and-multiply) evaluates the
virtual product and Adams operation with every polynomial route of
``sector_ring``, the ``CycPoly`` product and division, and the tables of
``virtual_ring`` patched to raise; the Euler factor, every Euler row and
every twisted Adams column are checked against the paper's cases written
there; and no test module imports another, so each reference has one home.
"""

import ast
import itertools
from pathlib import Path

import pytest

import conftest
import virtualk.sector_ring as sr
import virtualk.virtual_ring as vr
from conftest import (euler_table, ints, poly_add, poly_pow, poly_reduce, poly_scale,
                      reference_adams, reference_bott_class, reference_mul, x_inverse)
from virtualk.coords import basis_vectors
from virtualk.cyclotomic import Cyc, CycPoly

#: The routes of the code under test that the reference must not call.
ROUTES = ("reduce_coeffs", "sector_mul", "sector_adams", "bott_counts", "sector_modulus",
          "euler_factor", "_euler_rows", "_adams_column", "_twisted_column",
          "_untwisted_column")


def test_references_call_nothing_of_the_sector_layer(monkeypatch):
    cases = []
    for n in range(2, 5):
        basis = [a for _, a in basis_vectors(n, "sector")]
        cases += [(reference_mul, (a, b), vr.virtual_mul(a, b))
                  for a, b in itertools.product(basis, repeat=2)]
        cases += [(reference_adams, (a, k), vr.virtual_adams(a, k))
                  for a in basis for k in range(1, 2 * n + 1)]

    def refuse(*args):
        raise AssertionError("a reference called the code it checks")

    # conftest too, in case a name is ever imported into it.
    for module, name in itertools.product((sr, vr, conftest), ROUTES):
        if hasattr(module, name):
            monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(CycPoly, "divmod_by", refuse)
    monkeypatch.setattr(CycPoly, "__mul__", refuse)
    reference_bott_class.cache_clear()
    for reference, args, expected in cases:
        assert reference(*args) == expected, (reference.__name__, args)
    # The patches are live.
    one = CycPoly.one_poly(3)
    for call in (lambda: one * one, lambda: sr.sector_adams(0, one, 2),
                 lambda: vr.euler_factor(3, 1, 2), lambda: vr._adams_column(3, 1, 1, 2)):
        with pytest.raises(AssertionError, match="a reference called"):
            call()


def test_euler_factor_matches_the_papers_three_cases():
    # euler_factor gives the coefficients c_i of x^(-i); their sum is the
    # paper's class in the target sector.
    for n in range(2, 13):
        for m1, m2 in itertools.product(range(n), repeat=2):
            t = (m1 + m2) % n
            factor = poly_add(n, *(poly_scale(n, poly_pow(n, t, x_inverse(n, t), i), c)
                                   for i, c in enumerate(vr.euler_factor(n, m1, m2))))
            assert factor == euler_table(n, m1, m2), (n, m1, m2)


def _nonzero(coeffs) -> dict:
    """A reference class as {position: rational value} over its nonzero coefficients."""
    return {i: c for i, c in enumerate(ints(coeffs)) if c}


def test_euler_rows_are_the_reference_factor_times_powers_of_x():
    # Row s of a sector pair is x^s times the paper's Euler factor, reduced
    # in the target sector, for s = 0..n.
    for n in range(2, 13):
        pad = (Cyc.zero(n),)
        for m1, m2 in itertools.product(range(n), repeat=2):
            t, e = (m1 + m2) % n, euler_table(n, m1, m2)
            rows = vr._euler_rows(n, vr.euler_factor(n, m1, m2), t == 0)
            assert [dict(zip(*row)) for row in rows] == [
                _nonzero(poly_reduce(n, t, pad * s + e)) for s in range(n + 1)], (n, m1, m2)


def test_twisted_adams_columns_are_the_reference_bott_class_rotated():
    # psi~^k(x_m^j) on a twisted sector is x^e times the k-th Bott class,
    # e = jk mod n: position t holds the Bott coefficient of x^(t - e).
    for n in range(2, 9):
        for m, k in itertools.product(range(1, n), [*range(1, 2 * n + 1), 97, 3000]):
            bott = ints(reference_bott_class(n, m, k))
            bott += [0] * (n - len(bott))
            for j in range(n):
                e = j * k % n
                expected = {t: bott[(t - e) % n] for t in range(n) if bott[(t - e) % n]}
                assert dict(zip(*vr._adams_column(n, m, j, k))) == expected, (n, m, j, k)


def test_no_test_module_imports_another():
    for path in sorted(Path(__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not [m for m in names if m.split(".")[0].startswith("test_")], (path.name, names)
