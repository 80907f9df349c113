import itertools
from fractions import Fraction

import pytest

from virtualk.coords import basis_vectors, gen, power, unit, zero
from virtualk.cyclotomic import Cyc, zeta_pow
from virtualk.localization import (
    adams_solutions,
    from_u_basis,
    gamma,
    gamma_inverse,
    loc_adams,
    loc_mul,
    to_u_basis,
    u_adams,
    u_inverse,
    u_is_invertible,
    u_mul,
)
from virtualk.virtual_ring import (
    k_monomial,
    sector_part,
    virtual_adams,
    virtual_mul,
)


def _ints(s):
    return [c.rational_value() for c in s.coeffs]


def test_gamma_of_unit_is_row_idempotent_sum():
    for n in (2, 3, 5):
        assert gamma(unit(n, "sector")) == unit(n, "loc")


def test_gamma_jet_example():
    # n=2: x_0 has value 1 and derivative 1 at 1, value -1 at -1.
    g = gamma(k_monomial(2, 0, 1))
    assert g["e[0,0]"] == Cyc.zero(2)
    assert g["xe[0,0]"] == Cyc.one(2)
    assert g["e[0,1]"] == Cyc.rational(2, -1)
    assert g["e[1,0]"] == Cyc.zero(2) and g["e[1,1]"] == Cyc.zero(2)


def test_gamma_of_zero():
    for n in (2, 4):
        assert gamma(zero(n, "sector")) == zero(n, "loc")


def test_gamma_inverse_block_unit_example():
    # n=2: (1/4)(3 + 2x - x^2).
    img = gamma_inverse(gen(2, "loc", "e[0,0]"))
    assert _ints(sector_part(img, 0)) == [Fraction(3, 4), Fraction(1, 2), Fraction(-1, 4)]


def test_gamma_inverse_twisted_row0_formula():
    # 1_m0 pulls back to the averaged geometric sum (1/n)(1 + x + ... + x^(n-1)).
    for n in (2, 3, 5, 6):
        for m in range(1, n):
            img = gamma_inverse(gen(n, "loc", "e[%d,0]" % m))
            assert _ints(sector_part(img, m)) == [Fraction(1, n)] * n


def test_gamma_roundtrip_exhaustive():
    for n in range(2, 6):
        for label, e in basis_vectors(n, "loc"):
            assert gamma(gamma_inverse(e)) == e, label
        for label, a in basis_vectors(n, "sector"):
            assert gamma_inverse(gamma(a)) == a, label


def test_loc_mul_block_unit_and_x():
    n = 4
    e00, x00 = gen(n, "loc", "e[0,0]"), gen(n, "loc", "xe[0,0]")
    assert loc_mul(e00, e00) == e00
    assert loc_mul(e00, x00) == x00
    assert loc_mul(x00, x00) == x00.scale(2) - e00
    for m in range(1, n):
        em0 = gen(n, "loc", "e[%d,0]" % m)
        assert loc_mul(e00, em0) == em0
        assert loc_mul(x00, em0) == em0
    assert loc_mul(gen(n, "loc", "e[1,0]"), gen(n, "loc", "e[2,0]")) == zero(n, "loc")
    assert loc_mul(gen(n, "loc", "e[1,0]"), gen(n, "loc", "e[3,0]")) == zero(n, "loc")


def test_loc_mul_twisted_rows():
    n = 4
    one = Cyc.one(n)
    for l in range(1, n):
        w = one - zeta_pow(n, -l)
        e2l = gen(n, "loc", "e[2,%d]" % l)
        assert loc_mul(gen(n, "loc", "e[0,%d]" % l), e2l) == e2l
        got = loc_mul(gen(n, "loc", "e[1,%d]" % l), gen(n, "loc", "e[2,%d]" % l))
        assert got == gen(n, "loc", "e[3,%d]" % l).scale(w)
        got = loc_mul(gen(n, "loc", "e[1,%d]" % l), gen(n, "loc", "e[3,%d]" % l))
        assert got == gen(n, "loc", "e[0,%d]" % l).scale(w * w)
    # cross-row products vanish, x_00 kills twisted rows
    assert loc_mul(gen(n, "loc", "e[1,1]"), gen(n, "loc", "e[2,3]")) == zero(n, "loc")
    assert loc_mul(gen(n, "loc", "xe[0,0]"), gen(n, "loc", "e[2,1]")) == zero(n, "loc")
    assert loc_mul(gen(n, "loc", "xe[0,0]"), gen(n, "loc", "e[0,2]")) == zero(n, "loc")


def test_loc_mul_matches_transported_product_small():
    for n in (2, 3, 4):
        basis = basis_vectors(n, "loc")
        for (la, ea), (lb, eb) in itertools.combinations_with_replacement(basis, 2):
            oracle = gamma(virtual_mul(gamma_inverse(ea), gamma_inverse(eb)))
            assert loc_mul(ea, eb) == oracle, (n, la, lb)


def test_adams_solutions():
    assert adams_solutions(2, 2, 0) == (0, 1)
    assert adams_solutions(2, 2, 1) == ()
    assert adams_solutions(4, 2, 2) == (1, 3)
    assert adams_solutions(6, 4, 2) == (2, 5)
    assert adams_solutions(5, 3, 2) == (4,)
    for n in (2, 3, 4, 5, 6, 7, 8):
        for k in range(1, 2 * n + 1):
            for l in range(n):
                sols = adams_solutions(n, k, l)
                assert all((k * s - l) % n == 0 for s in sols)
                assert list(sols) == sorted(sols)
                if l == 0:
                    assert sols[0] == 0


def test_loc_adams_examples():
    # d = 2 does not divide l = 1: annihilated.
    assert loc_adams(gen(2, "loc", "e[0,1]"), 2) == zero(2, "loc")
    # twisted row 0 scales by k
    for n in (2, 3, 5):
        for m in range(1, n):
            for k in (1, 2, 3, 7):
                em0 = gen(n, "loc", "e[%d,0]" % m)
                assert loc_adams(em0, k) == em0.scale(k)
    # the 2-jet block mixes into the new idempotents
    got = loc_adams(gen(2, "loc", "xe[0,0]"), 2)
    expected = (gen(2, "loc", "xe[0,0]", 2) - gen(2, "loc", "e[0,0]")
                + gen(2, "loc", "e[0,1]"))
    assert got == expected


def test_loc_adams_matches_transport_small():
    for n in (2, 3, 4):
        for label, e in basis_vectors(n, "loc"):
            for k in range(1, 2 * n + 1):
                oracle = gamma(virtual_adams(gamma_inverse(e), k))
                assert loc_adams(e, k) == oracle, (n, label, k)


def test_u_basis_example():
    # n=2: u_1^0 = (1/2) 1_01 + (1/4) 1_11.
    got = from_u_basis(gen(2, "u", "u[1,0]"))
    assert got["e[0,1]"] == Cyc.rational(2, Fraction(1, 2))
    assert got["e[1,1]"] == Cyc.rational(2, Fraction(1, 4))
    assert got["e[0,0]"] == Cyc.zero(2) and got["xe[0,0]"] == Cyc.zero(2)


def test_u_roundtrip():
    for n in range(2, 7):
        for label, b in basis_vectors(n, "u"):
            assert to_u_basis(from_u_basis(b)) == b, label
        for label, e in basis_vectors(n, "loc"):
            assert from_u_basis(to_u_basis(e)) == e, label


def test_u_sum_recovers_row_idempotent():
    for n in (2, 3, 4, 5):
        for l in range(1, n):
            total = zero(n, "u")
            for q in range(n):
                total = total + gen(n, "u", "u[%d,%d]" % (l, q))
            assert from_u_basis(total) == gen(n, "loc", "e[0,%d]" % l)


def test_u_block_zero_generators():
    n = 3
    expected = gen(n, "loc", "xe[0,0]") - gen(n, "loc", "e[0,0]")
    assert from_u_basis(gen(n, "u", "u[0,0]")) == expected
    for m in range(1, n):
        assert from_u_basis(gen(n, "u", "u[0,%d]" % m)) == gen(n, "loc", "e[%d,0]" % m)
    assert from_u_basis(unit(n, "u")) == unit(n, "loc")


def test_u_mul_is_kronecker():
    n = 4
    for l1, q1 in itertools.product(range(n), repeat=2):
        for l2, q2 in itertools.product(range(n), repeat=2):
            a = gen(n, "u", "u[%d,%d]" % (l1, q1))
            got = u_mul(a, gen(n, "u", "u[%d,%d]" % (l2, q2)))
            if (l1, q1) == (l2, q2) and l1 != 0:
                assert got == a
            else:
                assert got == zero(n, "u")


def test_u_adams_examples():
    n = 4
    for q in range(n):
        for k in (1, 2, 3):
            u0q = gen(n, "u", "u[0,%d]" % q)
            assert u_adams(u0q, k) == u0q.scale(k)
    for k in (1, 2, 3, 5, 8):
        assert u_adams(unit(n, "u"), k) == unit(n, "u")
    got = u_adams(gen(4, "u", "u[2,1]"), 2)
    assert got == gen(4, "u", "u[1,1]") + gen(4, "u", "u[3,1]")
    assert u_adams(gen(4, "u", "u[1,0]"), 2) == zero(4, "u")


def test_u_adams_matches_loc_transport():
    for n in (2, 3, 4):
        for label, b in basis_vectors(n, "u"):
            for k in range(1, 2 * n + 1):
                assert u_adams(b, k) == to_u_basis(loc_adams(from_u_basis(b), k)), (
                    n, label, k,
                )


def test_u_inverse():
    n = 3
    with pytest.raises(ZeroDivisionError):
        u_inverse(gen(n, "u", "u[1,0]"))
    assert not u_is_invertible(gen(n, "u", "u[0,0]"))
    a = unit(n, "u") + gen(n, "u", "u[0,1]").scale(5) + gen(n, "u", "u[1,2]").scale(2)
    assert u_is_invertible(a)
    assert u_mul(a, u_inverse(a)) == unit(n, "u")


def test_loc_pow_negative():
    # Negative powers go through the semisimple inverse.
    n = 2
    a = unit(n, "loc").scale(2)
    inv = from_u_basis(u_inverse(to_u_basis(a)))
    assert loc_mul(inv, a) == unit(n, "loc")
    assert loc_mul(power(inv, 3, loc_mul), power(a, 3, loc_mul)) == unit(n, "loc")


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        loc_mul(unit(2, "loc"), unit(3, "loc"))
    with pytest.raises(ValueError):
        u_mul(unit(2, "u"), unit(3, "u"))
