import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualk.coords import Coords, gen, zero
from virtualk.cyclotomic import Cyc, CycPoly, phi_degree
from virtualk.sector_ring import (
    bott_class,
    sector_adams,
    sector_modulus,
    sector_monomial,
    sector_mul,
    sector_x_inverse,
)


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


def reference_sector_adams(a: CycPoly, k: int) -> CycPoly:
    """psi^k on sector 0 by substitution x^j -> x^(jk), then long division."""
    n = a.n
    out = [Cyc.zero(n)] * (k * max(len(a.coeffs) - 1, 0) + 1)
    for j, c in enumerate(a.coeffs):
        if c:
            out[j * k] = out[j * k] + c
    return CycPoly.from_cycs(n, out).divmod_by(sector_modulus(n, 0))[1]


def reference_bott_class(n: int, m: int, j: int) -> CycPoly:
    """1 + y + ... + y^(j-1) for y = x_m^(-1), one product at a time."""
    total = power = _one(n)
    for _ in range(j - 1):
        power = sector_mul(m, power, sector_x_inverse(n, m))
        total = total + power
    return total


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


@st.composite
def _dense_sector0_classes(draw):
    # Up to degree 2n, so unreduced representatives are covered too.
    n = draw(st.integers(2, 6))
    small = st.integers(-4, 4)

    def scalar():
        if draw(st.booleans()):
            return Cyc.zero(n)
        return Cyc(n, draw(st.lists(small, min_size=phi_degree(n), max_size=phi_degree(n))),
                   draw(st.integers(1, 3)))

    return CycPoly.from_cycs(n, [scalar() for _ in range(draw(st.integers(0, 2 * n + 1)))])


@settings(max_examples=40)
@given(_dense_sector0_classes(), st.integers(1, 300))
def test_untwisted_adams_matches_long_division(a, k):
    assert sector_adams(0, a, k) == reference_sector_adams(a, k)


def test_adams_reads_the_sector_index_mod_n():
    # Sector n is sector 0: psi^2(x^2) = x^4 = x^3 + x - 1 at n = 3.
    a = sector_monomial(3, 0, 2)
    assert _coeff_ints(sector_adams(3, a, 2)) == [-1, 1, 0, 1]
    for n in (2, 3, 5):
        for m in range(n):
            for j in range(n + 1 if m == 0 else n):
                a = sector_monomial(n, m, j)
                for k in (1, 2, 3, n + 1, 2 * n + 3):
                    assert sector_adams(m + n, a, k) == sector_adams(m, a, k)


def test_bott_matches_the_sum_of_inverse_powers():
    for n in range(2, 9):
        for m in range(n):
            for j in range(1, 3 * n + 2):
                assert bott_class(n, m, j) == reference_bott_class(n, m, j), (n, m, j)


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
        Coords(3, "sector", tuple(Cyc.one(3) for _ in range(9)))
    with pytest.raises(ValueError):
        Coords(3, "res", tuple(Cyc.one(3) for _ in range(3)))
