import itertools
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virtualk.virtual_ring as vr
from conftest import from_sectors, perturbed_euler, sector_part
from virtualk.cli import main
from virtualk.coords import Coords, basis_vectors, power, unit, zero
from virtualk.cyclotomic import Cyc, CycPoly, phi_degree
from virtualk.expr import format_value
from virtualk.sector_ring import (
    bott_class,
    reduce_coeffs,
    sector_adams,
    sector_mul,
    sector_x_inverse,
)
from virtualk.virtual_ring import (
    euler_factor,
    k_monomial,
    lambda_from_adams,
    virtual_adams,
    virtual_augmentation,
    virtual_mul,
)


def _ints(s):
    return [c.rational_value() for c in s.coeffs]


def test_euler_unit_case():
    e = euler_factor(5, 0, 3)
    assert e == CycPoly.one_poly(5)
    assert euler_factor(5, 3, 0) == CycPoly.one_poly(5)


def test_euler_coincident_case():
    # n=2, (1,1): 1 - 2/x + 1/x^2 lands in sector 0 as x^2 - 2x + 1.
    e = euler_factor(2, 1, 1)
    assert _ints(e) == [1, -2, 1]
    t = CycPoly.one_poly(5) - sector_x_inverse(5, 0).scale(2) + sector_mul(
        0, sector_x_inverse(5, 0), sector_x_inverse(5, 0)
    )
    assert euler_factor(5, 2, 3) == t


def test_euler_generic_case():
    e = euler_factor(5, 1, 2)
    assert e == CycPoly.one_poly(5) - sector_x_inverse(5, 3)


def test_unit_is_identity():
    rng = random.Random(5)
    for n in (2, 3, 5):
        for label, a in basis_vectors(n, "sector"):
            assert virtual_mul(unit(n, "sector"), a) == a, label
            assert virtual_mul(a, unit(n, "sector")) == a, label


def test_twisted_square_example():
    r = virtual_mul(k_monomial(2, 1, 1), k_monomial(2, 1, 1))
    assert sector_part(r, 1).is_zero()
    assert _ints(sector_part(r, 0)) == [1, -2, 1]


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
# The cached tables against the polynomial products they are derived from.


def reference_mul(a, b, euler=euler_factor):
    """The virtual product computed on whole sector polynomials."""
    n = a.n
    acc = {}
    for m1 in range(n):
        s1 = sector_part(a, m1)
        if s1.is_zero():
            continue
        for m2 in range(n):
            s2 = sector_part(b, m2)
            if s2.is_zero():
                continue
            t = (m1 + m2) % n
            full = s1 * s2 * euler(n, m1, m2)
            acc[t] = acc[t] + full if t in acc else full
    return from_sectors(n, {t: CycPoly(n, reduce_coeffs(n, t, p.coeffs))
                            for t, p in acc.items()})


def reference_x0_power(n, e):
    """x_0^e for e >= 0 by square-and-multiply through sector_mul."""
    result, base = CycPoly.one_poly(n), CycPoly.monomial(n, 1)
    while e:
        if e & 1:
            result = sector_mul(0, result, base)
        e >>= 1
        if e:
            base = sector_mul(0, base, base)
    return result


def reference_adams(a, k):
    """The virtual Adams operation computed on whole sector polynomials.

    On sector 0, x_0^j maps to x_0^(jk), taken by repeated squaring rather
    than by the long division of ``sector_adams``, so the reference does not
    share the table's sector-0 route.
    """
    n = a.n
    parts = {}
    for m in range(n):
        s = sector_part(a, m)
        if s.is_zero():
            continue
        if m:
            ps = sector_adams(m, s, k)
            if not ps.is_zero():
                ps = sector_mul(m, ps, bott_class(n, m, k))
        else:
            ps = CycPoly.zero(n)
            for j, c in enumerate(s.coeffs):
                if c:
                    ps = ps + reference_x0_power(n, j * k).scale(c)
        parts[m] = ps
    return from_sectors(n, parts)


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


@st.composite
def _dense_classes(draw, count):
    n = draw(st.integers(2, 6))
    small = st.integers(-4, 4)

    def scalar():
        if draw(st.booleans()):
            return Cyc.zero(n)
        return Cyc(n, draw(st.lists(small, min_size=phi_degree(n), max_size=phi_degree(n))),
                   draw(st.integers(1, 3)))

    size = len(zero(n, "sector").coeffs)
    return [Coords(n, "sector", [scalar() for _ in range(size)]) for _ in range(count)]


@settings(max_examples=40)
@given(_dense_classes(2), st.integers(1, 14))
def test_tables_match_reference_on_dense_classes(ab, k):
    a, b = ab
    assert virtual_mul(a, b) == reference_mul(a, b)
    assert virtual_adams(a, k) == reference_adams(a, k)


def test_euler_override_reaches_warm_tables(monkeypatch):
    # The rows are keyed on the Euler polynomial, so a patched table reaches
    # products whose rows are already cached, and the cache stays correct.
    pairs = [(k_monomial(n, 1, 1), k_monomial(n, n - 1, 2)) for n in (2, 3, 4)]
    defaults = [virtual_mul(a, b) for a, b in pairs]
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    for (a, b), default in zip(pairs, defaults):
        perturbed = virtual_mul(a, b)
        assert perturbed == reference_mul(a, b, perturbed_euler)
        assert perturbed != default
    monkeypatch.undo()
    assert [virtual_mul(a, b) for a, b in pairs] == defaults


# ---------------------------------------------------------------------------
# No long division on the Adams path.


def _count_divisions(monkeypatch, fn, *args):
    calls = [0]
    original = CycPoly.divmod_by

    def counted(self, d):
        calls[0] += 1
        return original(self, d)

    with monkeypatch.context() as m:
        m.setattr(CycPoly, "divmod_by", counted)
        result = fn(*args)
    return result, calls[0]


def _all_adams_columns():
    build = vr._adams_column.__wrapped__  # the derivation, past the cache
    return [build(n, m, j, k) for n in range(2, 9) for m in range(n)
            for j in range(n + 1 if m == 0 else n)
            for k in list(range(1, 2 * n + 3)) + [97, 3000]]


def test_adams_columns_divide_nothing(monkeypatch):
    _, calls = _count_divisions(monkeypatch, _all_adams_columns)
    assert calls == 0
    # The guard can fail: the reference takes sector-0 powers through sector_mul.
    _, calls = _count_divisions(monkeypatch, reference_adams, k_monomial(8, 0, 8), 3000)
    assert calls > 0


def test_dense_untwisted_adams_query_divides_nothing(monkeypatch, capsys):
    # psi^3000 of a dense sector-0 class at n = 8, from cold Adams columns.
    text = " + ".join(["x[0]"] + ["x[0]^%d" % j for j in range(2, 9)])
    cold = lru_cache(maxsize=vr.ADAMS_COLUMN_CACHE_SIZE)(vr._adams_column.__wrapped__)
    monkeypatch.setattr(vr, "_adams_column", cold)
    code, calls = _count_divisions(monkeypatch, main, ["eval", "--n", "8", "psi[3000](%s)" % text])
    assert (code, calls) == (0, 0)
    assert cold.cache_info().misses == 8
    a = sum((k_monomial(8, 0, j) for j in range(2, 9)), k_monomial(8, 0, 1))
    assert capsys.readouterr().out.strip() == format_value("sector", reference_adams(a, 3000))


def test_adams_column_cache_is_bounded():
    maxsize = vr._adams_column.cache_info().maxsize
    assert maxsize == vr.ADAMS_COLUMN_CACHE_SIZE
    # verify at n = 8 uses k = 1..16 on all 65 monomials
    assert 16 * 65 <= maxsize < 10 ** 5
