import itertools
from fractions import Fraction

import pytest

from virtualk.coords import Coords, gen, zero
from virtualk.cyclotomic import Cyc, CycPoly
from virtualk.sector_ring import (
    bott_class,
    sector_adams,
    sector_modulus,
    sector_monomial,
    sector_mul,
    sector_x_inverse,
)
from virtualk.virtual_ring import from_sectors


def _naive_reduce(n: int, m: int, coeffs: list[int]) -> list[Fraction]:
    # Independent long-division oracle over plain rationals.
    mod = [1, -1] + [0] * (n - 2) + [-1, 1] if m == 0 else [-1] + [0] * (n - 1) + [1]
    rem = [Fraction(c) for c in coeffs]
    while len(rem) >= len(mod):
        lead = rem[-1]
        shift = len(rem) - len(mod)
        for i, c in enumerate(mod):
            rem[shift + i] -= lead * c
        while rem and not rem[-1]:
            rem.pop()
    return rem


def _one(n: int) -> CycPoly:
    return CycPoly.one_poly(n)


def _coeff_ints(s: CycPoly) -> list[Fraction]:
    return [c.rational_value() for c in s.coeffs]


def test_modulus_shapes():
    assert [c.rational_value() for c in sector_modulus(3, 0).coeffs] == [1, -1, 0, -1, 1]
    assert [c.rational_value() for c in sector_modulus(3, 1).coeffs] == [-1, 0, 0, 1]


def test_twisted_monomial_wraps():
    for n in (2, 3, 5):
        assert sector_monomial(n, 1, n - 1) == sector_mul(
            1, sector_monomial(n, 1, n - 2), sector_monomial(n, 1, 1)
        )
        assert sector_mul(1, sector_monomial(n, 1, n - 1), sector_monomial(n, 1, 1)) == _one(n)


def test_untwisted_cubic_reduction():
    # x^3 mod (x-1)(x^2-1) = x^2 + x - 1, cross-checked by the long-division oracle.
    got = sector_mul(0, sector_monomial(2, 0, 2), sector_monomial(2, 0, 1))
    assert _coeff_ints(got) == [-1, 1, 1]
    assert _coeff_ints(got) == _naive_reduce(2, 0, [0, 0, 0, 1])


def test_identity_element():
    for n, m in ((2, 0), (3, 1), (5, 4)):
        a = sector_monomial(n, m, 1) + _one(n).scale(3)
        assert sector_mul(m, _one(n), a) == a


def test_x_inverse_twisted():
    for n in (2, 3, 4, 7):
        for m in range(1, n):
            assert sector_x_inverse(n, m) == sector_monomial(n, m, n - 1)


def test_x_inverse_untwisted():
    y = sector_x_inverse(2, 0)
    assert _coeff_ints(y) == [1, 1, -1]
    for n in range(2, 9):
        prod = sector_mul(0, sector_x_inverse(n, 0), sector_monomial(n, 0, 1))
        assert prod == _one(n)


def test_negative_monomials():
    for n in (2, 3, 5):
        for m in range(n):
            assert sector_monomial(n, m, -1) == sector_x_inverse(n, m)
            assert sector_mul(m, sector_monomial(n, m, -2), sector_monomial(n, m, 2)) == _one(n)


def test_adams_fixes_units():
    for n, m in ((2, 0), (3, 2), (5, 1)):
        for k in (1, 2, 5):
            assert sector_adams(m, _one(n), k) == _one(n)


def test_adams_twisted_example():
    assert sector_adams(1, sector_monomial(2, 1, 1), 2) == _one(2)


def test_adams_untwisted_examples():
    assert sector_adams(0, sector_monomial(2, 0, 1), 2) == sector_monomial(2, 0, 2)
    # psi^2(x^2) = x^4 = 2x^2 - 1 modulo (x-1)(x^2-1).
    got = sector_adams(0, sector_monomial(2, 0, 2), 2)
    assert _coeff_ints(got) == [-1, 0, 2]
    assert _coeff_ints(got) == _naive_reduce(2, 0, [0, 0, 0, 0, 1])


def test_adams_composition_on_monomials():
    for n in range(2, 7):
        for m in range(n):
            top = n if m == 0 else n - 1
            for j in range(top + 1):
                a = sector_monomial(n, m, j)
                for k, l in itertools.product(range(1, 7), repeat=2):
                    assert sector_adams(m, sector_adams(m, a, l), k) == sector_adams(m, a, k * l)


def test_mul_commutative_associative_monomials():
    for n in range(2, 7):
        for m in range(n):
            top = n if m == 0 else n - 1
            monos = [sector_monomial(n, m, j) for j in range(top + 1)]
            for a, b in itertools.product(monos, repeat=2):
                assert sector_mul(m, a, b) == sector_mul(m, b, a)
            for a, b, c in itertools.product(monos, repeat=3):
                lhs = sector_mul(m, sector_mul(m, a, b), c)
                assert lhs == sector_mul(m, a, sector_mul(m, b, c))


def test_bott_first_is_unit():
    for n, m in ((2, 0), (3, 1), (5, 3)):
        assert bott_class(n, m, 1) == _one(n)


def test_bott_expansion_example():
    # n=3, m=1, j=3: 1 + x^(-1) + x^(-2) = 1 + x^2 + x.
    got = bott_class(3, 1, 3)
    assert _coeff_ints(got) == [1, 1, 1]


def test_bott_two_terms_any_sector():
    for n in (2, 3, 5):
        for m in range(n):
            expected = _one(n) + sector_x_inverse(n, m)
            assert bott_class(n, m, 2) == expected


def test_sector_mismatch_rejected():
    # Vectors of different bases or weights never mix.
    with pytest.raises(ValueError):
        gen(3, "sector", "one[1]") + gen(3, "loc", "e[1,0]")
    with pytest.raises(ValueError):
        gen(3, "sector", "one[1]") + gen(4, "sector", "one[1]")
    with pytest.raises(ValueError):
        zero(3, "u") - zero(3, "loc")


def test_degree_bounds_enforced():
    with pytest.raises(ValueError):
        from_sectors(3, {1: CycPoly(3, tuple(Cyc.one(3) for _ in range(4)))})
    with pytest.raises(ValueError):
        from_sectors(3, {0: CycPoly(3, tuple(Cyc.one(3) for _ in range(5)))})
    with pytest.raises(ValueError):
        Coords(3, "sector", tuple(Cyc.one(3) for _ in range(9)))
    with pytest.raises(ValueError):
        Coords(3, "res", tuple(Cyc.one(3) for _ in range(3)))
