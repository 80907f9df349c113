import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import cycs, ints, poly_add, poly_reduce, reference_bott_class, scalars, x_inverse
from virtualk.coords import Coords, gen, zero
from virtualk.cyclotomic import Cyc, CycPoly
from virtualk.sector_ring import (
    bott_counts,
    sector_adams,
    sector_modulus,
    sector_monomial,
    sector_mul,
)


def reference_sector_adams(n: int, a, k: int) -> tuple[Cyc, ...]:
    """psi^k on sector 0 by substitution x^j -> x^(jk), then long division."""
    out = [Cyc.zero(n)] * (k * max(len(a) - 1, 0) + 1)
    for j, c in enumerate(a):
        out[j * k] = out[j * k] + c
    return poly_reduce(n, 0, out)


_one = CycPoly.one_poly


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
    assert ints(got.coeffs) == [-1, 1, 1]
    assert got.coeffs == poly_reduce(2, 0, cycs(2, [0, 0, 0, 1]))


def test_identity_element():
    for n, m in ((2, 0), (3, 1), (5, 4)):
        a = CycPoly.from_ints(n, [3, 1])
        assert sector_mul(m, _one(n), a) == a


def test_x_inverse_twisted():
    for n in (2, 3, 4, 7):
        for m in range(1, n):
            assert sector_monomial(n, m, -1) == sector_monomial(n, m, n - 1)


def test_x_inverse_untwisted():
    y = sector_monomial(2, 0, -1)
    assert ints(y.coeffs) == [1, 1, -1]
    for n in range(2, 9):
        prod = sector_mul(0, sector_monomial(n, 0, -1), sector_monomial(n, 0, 1))
        assert prod == _one(n)


def test_negative_monomials():
    for n in (2, 3, 5):
        for m in range(n):
            assert sector_monomial(n, m, -1).coeffs == x_inverse(n, m)
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
    assert ints(got.coeffs) == [-1, 0, 2]
    assert got.coeffs == poly_reduce(2, 0, cycs(2, [0, 0, 0, 0, 1]))


def test_adams_composition_on_monomials():
    for n in range(2, 7):
        for m in range(n):
            top = n if m == 0 else n - 1
            for j in range(top + 1):
                a = sector_monomial(n, m, j)
                for k, l in itertools.product(range(1, 7), repeat=2):
                    assert sector_adams(m, sector_adams(m, a, l), k) == sector_adams(m, a, k * l)


# Up to degree 2n, so unreduced representatives are covered too.
_SECTOR0_POLYS = st.integers(2, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(scalars(n), max_size=2 * n + 1)))


@settings(max_examples=40)
@given(_SECTOR0_POLYS, st.integers(1, 300))
def test_untwisted_adams_matches_long_division(case, k):
    n, a = case
    assert sector_adams(0, CycPoly.from_cycs(n, a), k).coeffs == reference_sector_adams(n, a, k)


def test_adams_reads_the_sector_index_mod_n():
    # Sector n is sector 0: psi^2(x^2) = x^4 = x^3 + x - 1 at n = 3.
    a = sector_monomial(3, 0, 2)
    assert ints(sector_adams(3, a, 2).coeffs) == [-1, 1, 0, 1]
    for n in (2, 3, 5):
        for m in range(n):
            for j in range(n + 1 if m == 0 else n):
                a = sector_monomial(n, m, j)
                for k in (1, 2, 3, n + 1, 2 * n + 3):
                    assert sector_adams(m + n, a, k) == sector_adams(m, a, k)


def _bott(n: int, coeffs) -> list:
    """A twisted-sector class as its n integer coefficients of 1, x, ..., x^(n-1)."""
    return ints(coeffs) + [0] * (n - len(coeffs))


def test_bott_matches_the_sum_of_inverse_powers():
    for n in range(2, 9):
        for m in range(1, n):
            for j in range(1, 3 * n + 2):
                assert bott_counts(n, j) == _bott(n, reference_bott_class(n, m, j)), (n, m, j)


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
    for n in (2, 3, 5):
        assert bott_counts(n, 1) == [1] + [0] * (n - 1)


def test_bott_expansion_example():
    # n=3, j=3: 1 + x^(-1) + x^(-2) = 1 + x^2 + x.
    assert bott_counts(3, 3) == [1, 1, 1]


def test_bott_two_terms_any_twisted_sector():
    for n in (2, 3, 5):
        for m in range(1, n):
            expected = poly_add(n, (Cyc.one(n),), x_inverse(n, m))
            assert bott_counts(n, 2) == _bott(n, expected)


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
