"""The tests' own references stand apart from the code they check.

The sector-layer reference in ``conftest.py`` (long division by the monic
sector modulus, the schoolbook product, square-and-multiply) evaluates the
virtual product and Adams operation with every polynomial route of
``sector_ring``, the ``CycPoly`` product and division, and
``virtual_ring.euler_factor`` patched to raise; the Euler table is checked
against the paper's three cases written there; and no test module imports
another, so each reference has one home.
"""

import ast
import itertools
from pathlib import Path

import pytest

import conftest
import virtualk.sector_ring as sr
import virtualk.virtual_ring as vr
from conftest import euler_table, reference_adams, reference_bott_class, reference_mul
from virtualk.coords import basis_vectors
from virtualk.cyclotomic import CycPoly

#: The routes of the code under test that the reference must not call.
ROUTES = ("reduce_coeffs", "sector_mul", "sector_adams", "bott_class", "sector_modulus",
          "sector_x_inverse", "euler_factor")


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
                 lambda: vr.euler_factor(3, 1, 2)):
        with pytest.raises(AssertionError, match="a reference called"):
            call()


def test_euler_factor_matches_the_papers_three_cases():
    for n in range(2, 13):
        for m1, m2 in itertools.product(range(n), repeat=2):
            assert vr.euler_factor(n, m1, m2).coeffs == euler_table(n, m1, m2), (n, m1, m2)


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
