import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virtualk.cyclotomic as cyclotomic
from conftest import evaluate, poly_reduce
from virtualk.coords import power
from virtualk.cyclotomic import (
    Cyc,
    CycPoly,
    cyclotomic_polynomial,
    format_cyc,
    phi_degree,
    zeta_pow,
)


def _totient(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_phi_small_cases():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_phi_divisor_product_oracle():
    # Independent check: the product of Phi_d over d | n rebuilds x^n - 1.
    for n in range(1, 25):
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                prod = _int_mul(prod, list(cyclotomic_polynomial(d)))
        expected = [-1] + [0] * (n - 1) + [1]
        assert prod == expected, n


def test_phi_degree_is_totient():
    for n in range(1, 25):
        assert phi_degree(n) == _totient(n)


def test_root_of_unity_products():
    for n in (2, 3, 4, 6, 8):
        assert zeta_pow(n, 1) * zeta_pow(n, n - 1) == Cyc.one(n)
    z = zeta_pow(3, 1)
    assert z * z == Cyc(3, [-1, -1])


def test_additive_inverse():
    z = zeta_pow(5, 1)
    one = Cyc.one(5)
    assert (z - one) + (one - z) == Cyc.zero(5)


def test_zeta_pow_examples():
    assert zeta_pow(4, 0) == Cyc.one(4)
    assert zeta_pow(2, 1) == Cyc.rational(2, -1)
    assert zeta_pow(6, 7) == zeta_pow(6, 1)


def test_inverse_examples():
    assert Cyc.one(3).inv() == Cyc.one(3)
    assert zeta_pow(2, 1).inv() == zeta_pow(2, 1)
    w = zeta_pow(4, 1) - Cyc.one(4)
    wi = w.inv()
    assert wi == Cyc(4, [-1, -1], 2)
    assert w * wi == Cyc.one(4)


def test_inverse_of_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Cyc.zero(6).inv()


def test_field_axioms_random_samples():
    rng = random.Random(11)
    for n in (3, 4, 5, 8, 12):
        deg = phi_degree(n)
        sample = [
            Cyc(n, [rng.randint(-4, 4) for _ in range(deg)], rng.choice([1, 2, 3]))
            for _ in range(6)
        ]
        for a in sample:
            for b in sample:
                assert a + b == b + a
                assert a * b == b * a
                for c in sample:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c
            if a:
                assert a * a.inv() == Cyc.one(n)


def test_root_of_unity_sum_vanishes():
    # sum_{i<n} zeta^(i*eta) = 0 whenever eta is not a multiple of n.
    for n in range(2, 13):
        for eta in range(1, n):
            total = Cyc.zero(n)
            for i in range(n):
                total = total + zeta_pow(n, i * eta)
            assert total == Cyc.zero(n), (n, eta)


def test_canonical_representation():
    for n in (4, 6, 9):
        assert power(zeta_pow(n, 1), n, Cyc.__mul__) == Cyc.one(n)
        a = Cyc(n, [2, 4], 6)
        assert a.den > 0
        assert math.gcd(a.den, *a.num) == 1
    assert hash(Cyc(4, [1, 2], 2)) == hash(Cyc(4, [1, 2], 2))


def test_set_of_scalars_and_an_int_does_not_depend_on_order():
    # Equality is transitive: a Cyc equals no int, so the set holds three
    # elements whichever is inserted first.
    a, b = Cyc.rational(5, 3), Cyc.rational(7, 3)
    assert len({a, 3, b}) == len({3, a, b}) == len({a, b, 3}) == 3
    assert hash(zeta_pow(5, 1)) == hash(zeta_pow(5, 6))


_SMALL = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))


@st.composite
def _scalars(draw):
    n = draw(st.integers(1, 9))
    coeffs = draw(st.lists(_SMALL, max_size=2 * n))
    return Cyc(n, coeffs, draw(st.sampled_from((1, 2, 3, 6, 2**61 - 1))))


@given(_scalars(), _scalars(), st.one_of(_SMALL, st.fractions()))
def test_equal_scalars_hash_equally_and_no_scalar_equals_another_kind(a, b, r):
    # Equality and hashing read (n, numerators, denominator) only.
    if (a.n, a.num, a.den) == (b.n, b.num, b.den):
        assert a == b and hash(a) == hash(b)
    else:
        assert a != b
    rebuilt = Cyc(a.n, a.num, a.den)
    assert rebuilt == a and hash(rebuilt) == hash(a) and len({a, rebuilt}) == 1
    # Not an int or a Fraction, even for the rational value that matches.
    assert a != r and r != a
    c = Cyc.rational(a.n, r)
    for other in (r, Fraction(r)):
        assert c != other and other != c and not c == other
        assert len({c, other}) == 2
    # Not a Cyc of another order, even for equal numerators.
    for m in (a.n + 1, 2 * a.n):
        twin = Cyc.rational(m, r)
        assert c != twin and twin != c and len({c, twin}) == 2


def test_operands_other_than_a_cyc_are_refused():
    c = zeta_pow(5, 1)
    for op in (lambda: c * 2, lambda: 2 * c, lambda: 2 + c, lambda: c + 2,
               lambda: c - Fraction(1, 2), lambda: 1 - c, lambda: c / c,
               lambda: 1 / c, lambda: c / 2, lambda: c * 0.5):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(TypeError):
        c.scale_int(Fraction(1, 2))
    assert c.scale_int(3) == c + c + c


def test_coeffs_property_and_rational_detection():
    a = Cyc(4, [3, 1], 2)
    assert a.coeffs == (Fraction(3, 2), Fraction(1, 2))
    assert not a.is_rational()
    b = Cyc.rational(4, Fraction(7, 3))
    assert b.is_rational() and b.rational_value() == Fraction(7, 3)


def test_pow_and_division():
    z = zeta_pow(8, 1)
    assert power(z, 8, Cyc.__mul__) == Cyc.one(8)
    assert power(z.inv(), 3, Cyc.__mul__) == zeta_pow(8, 5)
    assert z * z.inv() == Cyc.one(8)
    assert z.inv() == zeta_pow(8, 7)


@given(_scalars(), st.integers(0, 12))
def test_power_of_a_scalar_is_the_repeated_product(c, k):
    # coords.power is the one square-and-multiply, for scalars too: it starts
    # from Cyc.one of the scalar's order.
    product = Cyc.one(c.n)
    for _ in range(k):
        product = product * c
    assert power(c, k, Cyc.__mul__) == product


def test_a_scalar_has_no_power_operator():
    with pytest.raises(TypeError):
        zeta_pow(8, 1) ** 2


def test_mixed_order_arithmetic_rejected():
    with pytest.raises(ValueError):
        zeta_pow(3, 1) + zeta_pow(4, 1)


def test_format_round_trip_examples():
    assert format_cyc(Cyc.zero(5)) == "0"
    assert format_cyc(Cyc.rational(5, Fraction(-3, 4))) == "-3/4"
    assert format_cyc(zeta_pow(5, 2)) == "zeta^2"
    assert format_cyc(Cyc.one(5) - zeta_pow(5, 1)) == "-zeta + 1"


def test_cycpoly_divmod_and_eval():
    n = 4
    # (x^2 + 1) * (x - 2) + 3
    d = CycPoly.from_ints(n, [1, 0, 1])
    q = CycPoly.from_ints(n, [-2, 1])
    r = CycPoly.from_ints(n, [3])
    p = CycPoly.from_ints(n, [1, 1, -2, 1])
    assert d * q == CycPoly.from_ints(n, [-2, 1, -2, 1])
    qq, rr = p.divmod_by(d)
    assert qq == q and rr == r
    p_x, d_x, q_x, r_x = (evaluate(v.coeffs, zeta_pow(n, 1)) for v in (p, d, q, r))
    assert p_x == d_x * q_x + r_x


# ---------------------------------------------------------------------------
# The operand-kind fast paths against a reference: plain schoolbook
# convolution with the x^e mod Phi_n fold, on rational coordinate vectors.
# Zero, integral and fractional rational operands take the early return and
# the rational scaling of ``_times``; two irrational ones are convolved.

from hypothesis import given
from hypothesis import strategies as st

from virtualk.cyclotomic import _xpow

KINDS = ("zero", "integral", "fractional", "irrational")


def test_every_row_of_xpow_is_x_to_the_e_mod_phi():
    # x^e minus row e is a multiple of Phi_n, by schoolbook long division.
    for n in range(1, 17):
        phi, rows = cyclotomic_polynomial(n), _xpow(n)
        assert len(rows) == 2 * n - 1
        for e, row in enumerate(rows):
            assert len(row) == len(phi) - 1
            rem = [-r for r in row] + [0] * (e + 1 - len(row))
            rem[e] += 1
            for top in reversed(range(len(phi) - 1, len(rem))):
                c = rem[top]
                for j, p in enumerate(phi):
                    rem[top - len(phi) + 1 + j] -= c * p
            assert not any(rem), (n, e)


def _vector(v):
    return list(v.coeffs)


def _ref_mul(n, a, b):
    deg = len(a)
    conv = [Fraction(0)] * (2 * deg - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    out, rows = conv[:deg], _xpow(n)
    for e in range(deg, len(conv)):
        for i, r in enumerate(rows[e % n]):
            out[i] += conv[e] * r
    return out


def _canonical(n, vec):
    den = math.lcm(*(f.denominator for f in vec))
    return n, tuple(int(f * den) for f in vec), den


def _data(c):
    return c.n, c.num, c.den


def _operand(rng, n, kind):
    deg = phi_degree(n)
    if kind == "zero":
        return rng.choice([Cyc.zero(n), Cyc(n, [0] * deg, 5)])
    if kind == "integral":
        return Cyc.rational(n, rng.choice([-1, 1]) * rng.randint(1, 40))
    if kind == "fractional":
        return Cyc.rational(n, Fraction(rng.choice([-1, 1]) * rng.randint(1, 40),
                                        rng.randint(2, 12)))
    coeffs = [rng.randint(-9, 9) for _ in range(deg)]
    coeffs[rng.randrange(1, deg)] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Cyc(n, coeffs, rng.randint(1, 12))


def _check_ops(n, a, b):
    """Compare a op b with the reference."""
    va, vb = _vector(a), _vector(b)
    assert _data(a + b) == _canonical(n, [x + y for x, y in zip(va, vb)])
    assert _data(a - b) == _canonical(n, [x - y for x, y in zip(va, vb)])
    assert _data(a * b) == _canonical(n, _ref_mul(n, va, vb))
    assert (a == b) == (b == a) == (va == vb)
    if any(vb):
        q = a * b.inv()
        assert _canonical(n, _ref_mul(n, _vector(q), vb)) == _canonical(n, va)
        assert _data(q) == _canonical(n, _vector(q))
    else:
        with pytest.raises(ZeroDivisionError):
            b.inv()


def test_fast_paths_match_reference_on_every_operand_pairing():
    rng = random.Random(20131)
    for n in range(2, 13):
        for ka in KINDS:
            for kb in KINDS:
                if "irrational" in (ka, kb) and phi_degree(n) == 1:
                    continue
                for _ in range(4):
                    _check_ops(n, _operand(rng, n, ka), _operand(rng, n, kb))


@st.composite
def _operands(draw):
    n = draw(st.integers(2, 12))
    deg = phi_degree(n)
    kinds = [k for k in KINDS if k != "irrational" or deg > 1]
    small = st.integers(-50, 50)

    def one():
        kind = draw(st.sampled_from(kinds))
        if kind == "zero":
            return Cyc.zero(n)
        if kind == "integral":
            return Cyc.rational(n, draw(small))
        if kind == "fractional":
            return Cyc.rational(n, Fraction(draw(small), draw(st.integers(2, 30))))
        coeffs = draw(st.lists(small, min_size=deg, max_size=deg))
        return Cyc(n, coeffs, draw(st.integers(1, 30)))

    return n, one(), one()


@given(_operands())
def test_fast_paths_match_reference_property(case):
    n, a, b = case
    _check_ops(n, a, b)


def test_fast_paths_share_canonical_constants():
    for n in range(2, 13):
        z = zeta_pow(n, 1)
        assert Cyc.zero(n) is Cyc.zero(n) and Cyc.one(n) is Cyc.one(n)
        assert (z * Cyc.zero(n)) is Cyc.zero(n) and (Cyc.zero(n) * z) is Cyc.zero(n)
        assert (z + Cyc.zero(n)) is z and (Cyc.zero(n) + z) is z
        assert (z - Cyc.zero(n)) is z and z.scale_int(0) is Cyc.zero(n)
        assert _data(Cyc.rational(n, 3)) == _data(Cyc.rational(n, Fraction(3)))


def test_mixed_order_rejected_with_a_zero_operand():
    with pytest.raises(ValueError):
        Cyc.zero(3) * Cyc.one(4)
    with pytest.raises(ValueError):
        Cyc.one(4) + Cyc.zero(3)
    with pytest.raises(ValueError):
        Cyc.one(4) - Cyc.zero(3)
    with pytest.raises(ValueError):
        Cyc.zero(4) * Cyc.zero(3)


def test_immutable_after_construction():
    for c in (Cyc(5, [1, 2]), Cyc.zero(5), Cyc.one(5), zeta_pow(5, 2) * zeta_pow(5, 1)):
        with pytest.raises(AttributeError):
            c.num = (0, 0, 0, 0)
    assert Cyc.zero(5).num == (0, 0, 0, 0)


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        Cyc(3, [Fraction(1, 2), 1])
    with pytest.raises(TypeError):
        Cyc(3, [0.9, 2.7])
    with pytest.raises(TypeError):
        Cyc(3, [1, 2], 1.0)
    with pytest.raises(TypeError):
        Cyc(3, [1, 2], Fraction(1, 2))
    assert Cyc(3, [1, 2], 2).coeffs == (Fraction(1, 2), Fraction(1))


def test_rational_rejects_floats_and_strings():
    # No float or string becomes an exact scalar, here or in the helpers
    # that coerce through Cyc.rational.
    from virtualk.coords import gen, unit
    from virtualk.line_elements import line_element

    for value in (0.1, 2.0, "1/3", None):
        with pytest.raises(TypeError):
            Cyc.rational(3, value)
        with pytest.raises(TypeError):
            unit(3, "u").scale(value)
        with pytest.raises(TypeError):
            gen(3, "u", "e[0,0]", value)
        with pytest.raises(TypeError):
            CycPoly.from_ints(3, [1, value])
        with pytest.raises(TypeError):
            line_element(3, [0, 0, 0], [value, 0, 0])
    assert Cyc.rational(3, Fraction(1, 3)).rational_value() == Fraction(1, 3)
    assert Cyc.rational(3, -2) == Cyc(3, [-2])


def test_every_product_of_two_numerator_vectors_goes_through_times(monkeypatch):
    # One product rule: Cyc multiplication of two irrational scalars, the norm
    # products of Cyc.inv and _scatter with a Cyc entry all call _times.
    import virtualk.cyclotomic as cyclotomic

    calls = []
    times = cyclotomic._times

    def counted(n, a, b, *rest):
        calls.append((tuple(a), tuple(b)))
        return times(n, a, b, *rest)

    monkeypatch.setattr(cyclotomic, "_times", counted)
    n = 7
    a, b = zeta_pow(n, 1) + Cyc.rational(n, 2), zeta_pow(n, 3) - Cyc.rational(n, 5)
    product = a * b
    assert calls == [(a.num, b.num)]
    calls.clear()
    assert a.inv() * a == Cyc.one(n)
    assert len(calls) >= phi_degree(n)
    calls.clear()
    sums = {}
    cyclotomic._scatter(n, sums, a.num, 1, (0, 1), (b, 3))
    assert calls == [(a.num, b.num)]
    assert {i: Cyc(n, s) for i, s in sums.items()} == {1: product, 2: a + a + a}


def test_scatter_scales_by_a_rational_numerator_without_convolving(monkeypatch):
    # _scatter reads off num itself that it is zero past its constant term.
    import virtualk.cyclotomic as cyclotomic

    convolved = []
    monkeypatch.setattr(cyclotomic, "_convolve", lambda *args: convolved.append(args))
    n = 7
    two, b = Cyc.rational(n, 2), zeta_pow(n, 3) - Cyc.rational(n, 5)
    sums = {}
    cyclotomic._scatter(n, sums, two.num, 0, (0, 2), (b, 3))
    assert convolved == []
    assert {i: Cyc(n, s) for i, s in sums.items()} == {0: b + b, 2: Cyc.rational(n, 6)}


@settings(max_examples=200)
@given(st.data(), st.integers(1, 12))
def test_reduce_matches_the_rows_of_x_to_the_e(data, n):
    # Any length: short vectors are padded, vectors past 2n - 1 are folded
    # by x^n = 1 first, as Cyc(n, coeffs) accepts coefficient lists of any length.
    value = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
    raw = data.draw(st.lists(value, max_size=3 * n))
    expected, rows = [0] * phi_degree(n), _xpow(n)
    for e, c in enumerate(raw):
        for i, r in enumerate(rows[e % n]):
            expected[i] += c * r
    assert cyclotomic._reduce(n, list(raw)) == expected


@settings(max_examples=100)
@given(st.data(), st.integers(1, 12), st.booleans())
def test_poly_times_matches_the_sum_of_cyc_products(data, n, untwisted):
    # Integer terms (j, i, v) stand for v * x^j * zeta^i; a factor with
    # only i = 0 is rational, and two rational factors are not folded.  The
    # product is reduced modulo x^n - 1, or (x - 1)(x^n - 1) when untwisted,
    # here by the long division of conftest.py; exponents up to 2n in each
    # factor fold more than once.  _poly_times reads each factor in the flat
    # form _poly_terms writes from the numerator rows of each power of x.
    deg = phi_degree(n)

    def factor():
        top = 0 if data.draw(st.booleans()) else deg - 1
        term = st.tuples(st.integers(0, 2 * n), st.integers(0, top),
                         st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)))
        return data.draw(st.lists(term, min_size=1, max_size=8))

    a, b = factor(), factor()
    product = [Cyc.zero(n)] * (4 * n + 1)
    for j1, i1, v1 in a:
        for j2, i2, v2 in b:
            product[j1 + j2] += zeta_pow(n, i1 + i2) * Cyc.rational(n, v1 * v2)
    expected = poly_reduce(n, 0 if untwisted else 1, product)
    flat = []
    for terms in (a, b):
        rows = {}
        for j, i, v in terms:
            rows.setdefault(j, [0] * deg)[i] += v
        flat.append(cyclotomic._poly_terms(n, sorted(rows.items())))
    got = cyclotomic._poly_times(n, *flat, untwisted)
    assert [s for s, _ in got] == sorted({s for s, _ in got})
    assert all(len(num) == deg and any(num) for _, num in got)
    assert all(s < n + untwisted for s, _ in got)
    assert {s: Cyc(n, num) for s, num in got} == {s: c for s, c in enumerate(expected) if c}


@settings(max_examples=100)
@given(st.data(), st.integers(2, 12), st.sampled_from((1, -1)))
def test_rotation_sums_match_the_sum_of_cyc_products(data, n, sign):
    # A vector v of length n stands for sum_p v[p] zeta^p, so its entries past
    # deg(Phi_n) must be reduced; j may reach n and beyond, as x^n does on sector 0.
    value = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70))
    js = data.draw(st.lists(st.integers(0, 2 * n), min_size=1, max_size=n))
    vectors = [(j, data.draw(st.lists(value, min_size=n, max_size=n))) for j in js]
    ls = data.draw(st.lists(st.integers(0, n - 1), max_size=n))
    sums = {}
    cyclotomic._rotation_sums(n, sums, vectors, sign, range(10, 10 + len(ls)), ls)
    expected = {i: sum((Cyc(n, v) * zeta_pow(n, sign * l * j) for j, v in vectors), Cyc.zero(n))
                for i, l in enumerate(ls, 10)}
    # Raw numerators, one per position, zero sums included: Cyc(n, num) only normalises them.
    assert {i: Cyc(n, num) for i, num in sums.items()} == expected
    assert all(len(num) == phi_degree(n) for num in sums.values())
