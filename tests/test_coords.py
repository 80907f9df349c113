from fractions import Fraction

import pytest

from virtualk.coords import (
    Coords,
    basis,
    basis_vectors,
    gen,
    grid,
    power,
    sector_start,
    unit,
    zero,
)
from virtualk.cyclotomic import Cyc, zeta_pow
from virtualk.line_elements import is_line_element
from virtualk.localization import (
    from_u_basis,
    gamma,
    gamma_inverse,
    loc_adams,
    loc_augmentation,
    loc_mul,
    to_u_basis,
    u_adams,
    u_inverse,
    u_is_invertible,
    u_mul,
)
from virtualk.presentation import gamma0_project, resolution_adams, resolution_mul
from virtualk.virtual_ring import virtual_adams, virtual_augmentation, virtual_mul


def test_positions_follow_the_index_formulas():
    for n in range(2, 9):
        pos = {kind: basis(n, kind).position for kind in ("sector", "loc", "u", "res")}
        assert [len(p) for p in pos.values()] == [n * n + 1] * 3 + [n + 1]
        assert pos["sector"]["one[0]"] == 0 and pos["sector"]["x[0]^%d" % n] == n
        for m in range(1, n):
            assert pos["sector"]["one[%d]" % m] == sector_start(n, m) == m * n + 1
            assert pos["sector"]["x[%d]" % m] == m * n + 2
        assert pos["loc"]["e[0,0]"] == 0 and pos["loc"]["xe[0,0]"] == 1
        assert pos["u"]["e[0,0]"] == 0
        for r in range(n):
            for c in range(n):
                if (r, c) != (0, 0):
                    assert pos["loc"]["e[%d,%d]" % (r, c)] == grid(n, r, c) == r * n + c + 1
                assert pos["u"]["u[%d,%d]" % (r, c)] == grid(n, r, c)
        assert pos["res"]["1"] == 0
        assert [pos["res"]["e[%d]" % q] for q in range(n)] == list(range(1, n + 1))


def test_json_index_matches_label():
    b = basis(3, "sector")
    assert b.json[:2] == (("x", 0, 0), ("x", 0, 1)) and b.labels[:2] == ("one[0]", "x[0]")
    assert b.json[b.position["x[2]^2"]] == ("x", 2, 2)
    assert basis(3, "loc").json[1] == ("xe", 0, 0)
    assert basis(3, "u").json[basis(3, "u").position["u[2,1]"]] == ("u", 2, 1)


def test_text_form_and_accessor():
    n = 3
    v = gen(n, "loc", "e[0,0]", -1) + gen(n, "loc", "xe[0,0]", 2) + gen(
        n, "loc", "e[2,1]", zeta_pow(n, 1))
    assert str(v) == "-e[0,0] + 2*xe[0,0] + (zeta)*e[2,1]"
    assert v["xe[0,0]"] == Cyc.rational(n, 2) and v["e[1,1]"] == Cyc.zero(n)
    assert str(zero(n, "u")) == "0"
    assert str(unit(n, "res").scale(Fraction(1, 2)) - gen(n, "res", "e[1]")) == "1/2 - e[1]"
    assert str(unit(n, "res")) == "1"


def test_linear_structure():
    n = 4
    a = gen(n, "u", "u[1,2]", 3) + gen(n, "u", "e[0,0]")
    b = gen(n, "u", "u[1,2]", -3)
    assert (a + b) == gen(n, "u", "e[0,0]")
    assert (a - a).is_zero() and not a.is_zero()
    assert -a == a.scale(-1)
    assert a.scale(0) == zero(n, "u")
    assert a.scale(Cyc.rational(n, 2)) == a + a
    assert [label for label, _ in basis_vectors(n, "u")] == list(basis(n, "u").labels)


def test_units_and_power():
    for n in (2, 3, 5):
        for kind, mul in (("loc", loc_mul), ("u", u_mul)):
            for _, e in basis_vectors(n, kind):
                assert mul(unit(n, kind), e) == e
                assert power(e, 0, mul) == unit(n, kind)
                assert power(e, 3, mul) == mul(e, mul(e, e))


def test_invalid_coordinates_rejected():
    with pytest.raises(ValueError):
        Coords(3, "loc", ())
    with pytest.raises(ValueError):
        basis(3, "nope")
    with pytest.raises(ValueError):
        basis(1, "u")
    with pytest.raises(KeyError):
        gen(3, "u", "u[3,0]")


def test_entries_must_be_cycs_of_the_weight():
    # A coordinate of another cyclotomic order printed like a valid one but
    # compared unequal to it; a non-Cyc entry failed only when printed.
    with pytest.raises(ValueError, match="Q\\(zeta_5\\)"):
        Coords(3, "u", [Cyc.one(5)] * 10)
    with pytest.raises(ValueError, match="Q\\(zeta_5\\)"):
        gen(3, "u", "e[0,0]", Cyc.one(5))
    with pytest.raises(TypeError, match="must be a Cyc"):
        Coords(3, "u", [1] * 10)
    with pytest.raises(TypeError, match="must be a Cyc"):
        Coords(3, "u", [Cyc.one(3)] * 9 + [Fraction(1, 2)])
    with pytest.raises(TypeError):
        gen(3, "u", "e[0,0]", "1")
    assert Coords(3, "u", [Cyc.one(3)] * 10) == unit(3, "u") + gen(3, "u", "u[0,0]") + gen(
        3, "u", "u[0,1]") + gen(3, "u", "u[0,2]")


# Sector, loc and u coordinates all have n^2 + 1 entries, so only the kind
# tells a function that reads coordinates by position that it got the wrong one.
WRONG_KIND = {
    "gamma": (gamma, "loc"),
    "gamma_inverse": (gamma_inverse, "sector"),
    "loc_mul": (lambda a: loc_mul(a, a), "u"),
    "loc_augmentation": (loc_augmentation, "sector"),
    "loc_adams": (lambda a: loc_adams(a, 2), "sector"),
    "to_u_basis": (to_u_basis, "u"),
    "from_u_basis": (from_u_basis, "loc"),
    "u_mul": (lambda a: u_mul(a, a), "loc"),
    "u_is_invertible": (u_is_invertible, "loc"),
    "u_inverse": (u_inverse, "loc"),
    "u_adams": (lambda a: u_adams(a, 2), "loc"),
    "virtual_mul": (lambda a: virtual_mul(a, a), "loc"),
    "virtual_adams": (lambda a: virtual_adams(a, 2), "u"),
    "virtual_augmentation": (virtual_augmentation, "loc"),
    "resolution_mul": (lambda a: resolution_mul(a, a), "u"),
    "resolution_adams": (lambda a: resolution_adams(a, 2), "u"),
    "gamma0_project": (gamma0_project, "loc"),
    "is_line_element": (is_line_element, "loc"),
}


@pytest.mark.parametrize("name", WRONG_KIND)
def test_wrong_kind_rejected(name):
    call, kind = WRONG_KIND[name]
    with pytest.raises(ValueError, match="expected .* coordinates, got %s" % kind):
        call(unit(3, kind))
