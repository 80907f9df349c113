import itertools
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import virtualk.sector_ring as sr
import virtualk.virtual_ring as vr
from conftest import (classes, ints, perturbed_euler, record_calls, reference_adams,
                      reference_mul, sector_part)
from virtualk.cli import main
from virtualk.coords import Coords, basis_vectors, power, unit, zero
from virtualk.cyclotomic import Cyc, CycPoly, zeta_pow
from virtualk.expr import format_value
from virtualk.sector_ring import sector_monomial
from virtualk.virtual_ring import (
    euler_factor,
    k_monomial,
    lambda_from_adams,
    virtual_adams,
    virtual_augmentation,
    virtual_mul,
)


def test_euler_unit_case():
    assert euler_factor(5, 0, 3) == euler_factor(5, 3, 0) == (1,)


def test_euler_coincident_case():
    # n=2, (1,1): 1 - 2/x + 1/x^2 lands in sector 0 as x^2 - 2x + 1.
    assert euler_factor(2, 1, 1) == euler_factor(5, 2, 3) == (1, -2, 1)
    assert vr._euler_rows(2, euler_factor(2, 1, 1), True)[0] == ((0, 1, 2), (1, -2, 1))


def test_euler_generic_case():
    assert euler_factor(5, 1, 2) == (1, -1)


def test_unit_is_identity():
    for n in (2, 3, 5):
        for label, a in basis_vectors(n, "sector"):
            assert virtual_mul(unit(n, "sector"), a) == a, label
            assert virtual_mul(a, unit(n, "sector")) == a, label


def test_twisted_square_example():
    r = virtual_mul(k_monomial(2, 1, 1), k_monomial(2, 1, 1))
    assert sector_part(r, 1) == ()
    assert ints(sector_part(r, 0)) == [1, -2, 1]


def test_untwisted_sector_is_ordinary():
    for n in (2, 3, 4):
        for a in range(n):
            for b in range(n):
                got = virtual_mul(k_monomial(n, 0, a), k_monomial(n, 0, b))
                assert got == k_monomial(n, 0, a + b)


def test_mul_commutative_associative_small():
    for n in (2, 3):
        basis = [a for _, a in basis_vectors(n, "sector")]
        for a, b in itertools.product(basis, repeat=2):
            assert virtual_mul(a, b) == virtual_mul(b, a)
        for a, b, c in itertools.product(basis, repeat=3):
            assert virtual_mul(virtual_mul(a, b), c) == virtual_mul(a, virtual_mul(b, c))


def test_adams_identity_operation():
    for n in (2, 3, 5):
        for _, a in basis_vectors(n, "sector"):
            assert virtual_adams(a, 1) == a


def test_adams_untwisted_power_rule():
    for n in (2, 3, 4):
        for a in range(n + 1):
            for k in (1, 2, 3):
                assert virtual_adams(k_monomial(n, 0, a), k) == k_monomial(n, 0, a * k)


def test_adams_twisted_example():
    # psi~^2(x_1) at n=2: psi^2(x_1) * theta^2(1/x_1) = 1 + x_1.
    got = virtual_adams(k_monomial(2, 1, 1), 2)
    assert got == k_monomial(2, 1, 0) + k_monomial(2, 1, 1)


def test_augmentation():
    n = 3
    assert virtual_augmentation(unit(n, "sector")) == unit(n, "sector")
    assert virtual_augmentation(k_monomial(n, 0, 3)) == unit(n, "sector")
    assert virtual_augmentation(k_monomial(n, 2, 2)) == zero(n, "sector")
    mixed = k_monomial(n, 0, 2).scale(5) + k_monomial(n, 1, 1)
    assert virtual_augmentation(mixed) == unit(n, "sector").scale(5)


def test_lambda_low_orders():
    n = 3
    a = k_monomial(n, 1, 1) + k_monomial(n, 0, 2).scale(Fraction(1, 2))
    assert lambda_from_adams(a, 0) == unit(n, "sector")
    assert lambda_from_adams(a, 1) == a


def test_lambda_vanishes_on_line_bundles():
    # Ordinary line bundles x_0^a satisfy the rank-1 condition, so the
    # derived lambda operations vanish from order 2 on.
    for n in (2, 3):
        for a in (1, 2, 3):
            L = k_monomial(n, 0, a)
            for i in (2, 3):
                assert lambda_from_adams(L, i).is_zero()


def test_lambda_matches_direct_formula():
    n = 2
    a = k_monomial(n, 1, 1)
    direct = virtual_mul(a, a) - virtual_adams(a, 2)
    assert lambda_from_adams(a, 2) == direct.scale(Fraction(1, 2))


def test_pow():
    n = 3
    a = k_monomial(n, 1, 1)
    assert power(a, 0, virtual_mul) == unit(n, "sector")
    assert power(a, 3, virtual_mul) == virtual_mul(a, virtual_mul(a, a))
    with pytest.raises(ValueError):
        power(a, -1, virtual_mul)


@pytest.mark.parametrize("m", [3, -1])
def test_k_monomial_rejects_a_sector_index_out_of_range(m):
    with pytest.raises(ValueError, match="sector index out of range"):
        k_monomial(3, m, 1)


def test_weight_mismatch_rejected():
    with pytest.raises(ValueError):
        virtual_mul(unit(2, "sector"), unit(3, "sector"))


def test_n_must_be_at_least_two():
    with pytest.raises(ValueError):
        unit(1, "sector")


# ---------------------------------------------------------------------------
# The cached tables against the sector-layer reference of conftest.py.


@pytest.mark.parametrize("n", range(2, 9))
def test_mul_table_matches_reference_on_all_basis_pairs(n):
    basis = [a for _, a in basis_vectors(n, "sector")]
    for a, b in itertools.product(basis, repeat=2):
        assert virtual_mul(a, b) == reference_mul(a, b)


@pytest.mark.parametrize("n", range(2, 9))
def test_adams_columns_match_reference_on_all_basis_vectors(n):
    for label, a in basis_vectors(n, "sector"):
        for k in list(range(1, 2 * n + 3)) + [97, 3000]:
            assert virtual_adams(a, k) == reference_adams(a, k), (label, k)


def _zeta_classes(n):
    """Two classes whose coordinates are all powers of zeta over 1, 2 or 3: at
    n = 7 these include zeta^6, which has six nonzero coordinates, and at n = 8
    products of them fold through Phi_8 = x^4 + 1."""
    size = len(zero(n, "sector").coeffs)
    return [Coords(n, "sector", [zeta_pow(n, t * i + 1) * Cyc.rational(n, Fraction(1, 1 + i % 3))
                                    for i in range(size)])
            for t in (3, 5)]


@settings(max_examples=40)
@given(classes(("sector", "sector")), st.integers(1, 14))
@example(_zeta_classes(7), 5)
@example(_zeta_classes(8), 13)
def test_tables_match_reference_on_dense_classes(ab, k):
    a, b = ab
    assert virtual_mul(a, b) == reference_mul(a, b)
    assert virtual_adams(a, k) == reference_adams(a, k)


def test_euler_override_reaches_warm_tables(monkeypatch):
    # The rows are keyed on the Euler factor, so a patched table reaches
    # products whose rows are already cached, and the cache stays correct.
    pairs = [(k_monomial(n, 1, 1), k_monomial(n, n - 1, 2)) for n in (2, 3, 4)]
    defaults = [virtual_mul(a, b) for a, b in pairs]
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    for (a, b), default in zip(pairs, defaults):
        perturbed = virtual_mul(a, b)
        assert perturbed == reference_mul(a, b, squared=False)
        assert perturbed != default
    monkeypatch.undo()
    assert [virtual_mul(a, b) for a, b in pairs] == defaults


# ---------------------------------------------------------------------------
# No polynomial arithmetic in the tables.


def test_sector_tables_do_no_polynomial_arithmetic(monkeypatch):
    # Every Euler row and Adams column for n = 2..8, built past the caches.
    calls = [record_calls(monkeypatch, CycPoly, "divmod_by"),
             record_calls(monkeypatch, CycPoly, "__mul__"),
             record_calls(monkeypatch, sr, "reduce_coeffs"),
             record_calls(monkeypatch, sr, "sector_mul")]
    # A twisted column is one rotation e of the Bott counts, a sector-0
    # column one monomial x^j.
    rows = vr._euler_rows.__wrapped__
    twisted, untwisted = vr._twisted_column.__wrapped__, vr._untwisted_column.__wrapped__
    for n in range(2, 9):
        for m1, m2 in itertools.product(range(n), repeat=2):
            rows(n, euler_factor(n, m1, m2), (m1 + m2) % n == 0)
        for k in [*range(1, 2 * n + 3), 97, 3000]:
            for e in range(n):
                twisted(n, e, k)
            for j in range(n + 1):
                untwisted(n, j, k)
    assert calls == [[]] * 4
    # The guards can fail: a product on sector 0 past x^n multiplies and divides.
    x8 = sector_monomial(8, 0, 8)
    sr.sector_mul(0, x8, x8)
    assert all(calls)


def test_dense_untwisted_adams_query_divides_nothing(monkeypatch, capsys):
    # psi^3000 of a dense sector-0 class at n = 8, from cold Adams columns.
    text = " + ".join(["x[0]"] + ["x[0]^%d" % j for j in range(2, 9)])
    cold = lru_cache(maxsize=vr.ADAMS_COLUMN_CACHE_SIZE)(vr._untwisted_column.__wrapped__)
    monkeypatch.setattr(vr, "_untwisted_column", cold)
    calls = record_calls(monkeypatch, CycPoly, "divmod_by")
    assert (main(["eval", "--n", "8", "psi[3000](%s)" % text]), calls) == (0, [])
    assert cold.cache_info().misses == 8
    a = sum((k_monomial(8, 0, j) for j in range(2, 9)), k_monomial(8, 0, 1))
    assert capsys.readouterr().out.strip() == format_value(reference_adams(a, 3000))


def test_adams_column_cache_is_bounded():
    for columns in (vr._twisted_column, vr._untwisted_column):
        assert columns.cache_info().maxsize == vr.ADAMS_COLUMN_CACHE_SIZE
    # verify at n = 8 uses k = 1..16: one twisted column per (jk mod 8, k)
    # and one sector-0 column per (j, k), j = 0..8
    twisted = {(j * k % 8, k) for j in range(8) for k in range(1, 17)}
    assert len(twisted) == 86
    assert len(twisted) + 9 * 16 <= vr.ADAMS_COLUMN_CACHE_SIZE < 10 ** 5


@pytest.mark.parametrize("n", [3, 4, 5])
def test_virtual_adams_builds_one_column_per_rotation_and_sector_0_monomial(monkeypatch, n):
    # psi^k of every basis vector for k <= 2n, from cold tables: a twisted
    # column build reads the Bott counts once, a sector-0 build sector_adams
    # once, and the n - 1 twisted sectors share one column per (jk mod n, k).
    for table in vars(vr).values():
        if hasattr(table, "cache_clear") and table.__module__ == vr.__name__:
            table.cache_clear()
    bott = record_calls(monkeypatch, vr, "bott_counts")
    untwisted = record_calls(monkeypatch, vr, "sector_adams")
    ks = range(1, 2 * n + 1)
    for label, a in basis_vectors(n, "sector"):
        for k in ks:
            assert virtual_adams(a, k) == reference_adams(a, k), (label, k)
    rotations = Counter(k for k in ks for _ in {j * k % n for j in range(n)})
    assert Counter(k for _, k in bott) == rotations
    assert len(bott) < (n - 1) * n * len(ks)
    assert sorted((p.degree, k) for _, p, k in untwisted) == [
        (j, k) for j in range(n + 1) for k in ks]
