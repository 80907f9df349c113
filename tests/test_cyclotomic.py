import math
import random
from fractions import Fraction

import pytest

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
    assert wi == Cyc.from_rats(4, [Fraction(-1, 2), Fraction(-1, 2)])
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
        assert zeta_pow(n, 1) ** n == Cyc.one(n)
        a = Cyc(n, [2, 4], 6)
        assert a.den > 0
        assert math.gcd(a.den, *a.num) == 1
    assert hash(Cyc(4, [1, 2], 2)) == hash(Cyc(4, [1, 2], 2))


def test_rational_hash_matches_int_and_fraction():
    # Equal values hash equally, so sets and dicts see one element.
    for n in (1, 2, 3, 4, 7, 8):
        for v in (0, 1, 3, -5, Fraction(1, 2), Fraction(-7, 3)):
            c = Cyc.rational(n, v)
            assert c == v and hash(c) == hash(v)
            assert len({c, v}) == 1
    assert len({Cyc.rational(3, 1), 1}) == 1
    assert hash(zeta_pow(5, 1)) == hash(zeta_pow(5, 6))


def test_coeffs_property_and_rational_detection():
    a = Cyc(4, [3, 1], 2)
    assert a.coeffs == (Fraction(3, 2), Fraction(1, 2))
    assert not a.is_rational()
    b = Cyc.rational(4, Fraction(7, 3))
    assert b.is_rational() and b.rational_value() == Fraction(7, 3)


def test_pow_and_division():
    z = zeta_pow(8, 1)
    assert z**8 == Cyc.one(8)
    assert z**-3 == zeta_pow(8, 5)
    assert (z / z) == Cyc.one(8)
    assert 1 / z == zeta_pow(8, 7)


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
    p = d * q + r
    qq, rr = p.divmod_by(d)
    assert qq == q and rr == r
    x = zeta_pow(n, 1)
    assert p(x) == d(x) * q(x) + r(x)
    assert p.derivative().degree == p.degree - 1
