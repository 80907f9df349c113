import pytest

import virtualk.presentation as pres
from virtualk.coords import Coords, gen, unit, zero
from virtualk.cyclotomic import Cyc
from virtualk.line_elements import line_realize, nu, sigma
from virtualk.presentation import (
    gamma0_project,
    resolution_adams,
    resolution_mul,
    verify_presentation,
    verify_resolution_isomorphism,
)
from virtualk.verify import SUITES


def _nu_hat(n, i):
    return unit(n, "res") + gen(n, "res", "e[%d]" % i)


def test_resolution_square_zero():
    n = 4
    for i in range(n):
        for j in range(n):
            e_i = _nu_hat(n, i) - unit(n, "res")
            e_j = _nu_hat(n, j) - unit(n, "res")
            assert resolution_mul(e_i, e_j) == zero(n, "res")


def test_resolution_adams_on_generators():
    n = 3
    for i in range(n):
        nh = _nu_hat(n, i)
        for k in (1, 2, 5):
            expected = unit(n, "res") + (nh - unit(n, "res")).scale(k)
            assert resolution_adams(nh, k) == expected
    x = Coords(n, "res", (Cyc.rational(n, 2),) + tuple(Cyc.one(n) for _ in range(n)))
    assert resolution_adams(x, 1) == x


def test_resolution_adams_is_ring_map():
    n = 3
    x = _nu_hat(n, 0) + _nu_hat(n, 2).scale(3)
    y = _nu_hat(n, 1) - unit(n, "res").scale(2)
    for k in (2, 3, 4):
        assert resolution_adams(resolution_mul(x, y), k) == resolution_mul(
            resolution_adams(x, k), resolution_adams(y, k)
        )


def test_gamma0_on_generators():
    n = 3
    for i in range(n):
        assert gamma0_project(line_realize(sigma(n, i))) == unit(n, "res")
        assert gamma0_project(line_realize(nu(n, i))) == _nu_hat(n, i)
    assert gamma0_project(unit(n, "u")) == unit(n, "res")
    assert gamma0_project(gen(n, "u", "e[0,0]")) == unit(n, "res")
    assert gamma0_project(gen(n, "u", "u[1,2]")) == zero(n, "res")


def test_presentation_relations_hold():
    for n in (2, 3, 4):
        bad = [c for c in SUITES["presentation"](n, 2 * n) if not c.passed]
        assert not bad, bad


def test_generation_rank_value():
    gen = [c for c in SUITES["presentation"](2, 4) if "span" in c.id]
    assert len(gen) == 1
    assert gen[0].lhs == "5"


def test_resolution_isomorphism_reports():
    for n in (2, 3, 4):
        bad = [c for c in SUITES["resolution"](n, 2 * n) if not c.passed]
        assert not bad, bad


def test_dimension_report_present():
    relations = verify_resolution_isomorphism(2, k_max=2)
    assert any("dimension" in name for name, _, _ in relations)


def test_dimension_report_compares_the_real_sizes(monkeypatch):
    # Give the resolution one coordinate too many: the check must fail.
    real = pres.basis
    monkeypatch.setattr(pres, "basis", lambda n, kind: real(n + 1 if kind == "res" else n, kind))
    check = SUITES["resolution"](3, 2)[0]
    assert check.id == "resolution/n=3/dimension of l=0 block vs resolution"
    assert (check.lhs, check.rhs, check.status) == ("4", "5", "fail")


def test_generation_rank_is_full_for_every_n():
    for n in range(2, 9):
        assert pres._generation_rank(n) == n * n + 1


def test_invalid_n_rejected():
    with pytest.raises(ValueError):
        verify_presentation(1)
    with pytest.raises(ValueError):
        verify_resolution_isomorphism(0, 2)
    with pytest.raises(ValueError):
        verify_resolution_isomorphism(3, 0)
