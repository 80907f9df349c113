import random
from fractions import Fraction

import pytest

from virtualk.cyclotomic import Cyc, zeta_pow
from virtualk.line_elements import (
    LineElt,
    is_line_element,
    line_element,
    line_identity,
    line_inverse,
    line_mul,
    line_realize,
    nu,
    realize_combo,
    sigma,
    span_block,
    span_rank,
)
from virtualk.coords import gen, power, unit, zero
from virtualk.linalg import rank
from virtualk.localization import u_adams, u_mul


def test_identity_realizes_to_unit():
    for n in (2, 3, 5):
        assert line_realize(line_identity(n)) == unit(n, "u")


def test_nu_realization():
    for n in (2, 4):
        for j in range(n):
            assert line_realize(nu(n, j)) == unit(n, "u") + gen(n, "u", "u[0,%d]" % j)


def test_sigma_realization():
    n = 3
    i = 1
    got = line_realize(sigma(n, i))
    expected = unit(n, "u")
    for l in range(1, n):
        expected = expected + gen(n, "u", "u[%d,%d]" % (l, i), zeta_pow(n, l) - Cyc.one(n))
    assert got == expected


def test_a_beta_entry_of_another_order_is_refused_at_construction():
    # beta_q is the u[0,q] coordinate, so it must lie in Q(zeta_n) itself.
    with pytest.raises(ValueError, match=r"Q\(zeta_4\) for the weight n=3"):
        line_element(3, [0, 1, 2], [Cyc.one(4), 0, 0])
    with pytest.raises(ValueError, match=r"Q\(zeta_2\) for the weight n=3"):
        LineElt(3, (0, 0, 0), (Cyc.zero(3), Cyc.zero(3), Cyc.one(2)))
    with pytest.raises(TypeError, match="a coordinate must be a Cyc, got int"):
        LineElt(3, (0, 0, 0), (1, Cyc.zero(3), Cyc.zero(3)))
    assert line_element(3, [0, 1, 2], [Cyc.one(3), 0, 0]).beta[0] == Cyc.one(3)


def test_the_repr_of_a_line_element_is_the_one_the_certificate_family_renders():
    # The line-elements suite writes this repr into both sides of its
    # certificate checks, so it is part of the report's bytes.
    L = line_element(3, [0, 1, 5], [0, Fraction(-1, 2), zeta_pow(3, 1) + Cyc.rational(3, 2)])
    assert repr(L) == str(L) == "LineElt(n=3, f=(0, 1, 2), beta=(0, -1/2, zeta + 2))"
    assert repr(is_line_element(line_realize(L))) == (
        "LineCertificate(ok=True, reason='', params=%r)" % L)


def test_group_law_matches_ring_product():
    rng = random.Random(3)
    for n in (2, 3, 5, 8):
        for _ in range(6):
            a = line_element(n, [rng.randrange(n) for _ in range(n)],
                             [rng.randint(-2, 2) for _ in range(n)])
            b = line_element(n, [rng.randrange(n) for _ in range(n)],
                             [rng.randint(-2, 2) for _ in range(n)])
            assert line_realize(line_mul(a, b)) == u_mul(line_realize(a), line_realize(b))


def test_inverse_and_torsion():
    n = 5
    L = line_element(n, [1, 4, 2, 0, 3], [1, 0, -1, 2, 0])
    assert line_mul(L, line_inverse(L)) == line_identity(n)
    s = sigma(n, 2)
    acc = s
    for _ in range(n - 1):
        acc = line_mul(acc, s)
    assert acc == line_identity(n)


def test_nu_products_are_square_zero():
    n = 3
    one = unit(n, "u")
    for i in range(n):
        for j in range(n):
            prod = line_mul(nu(n, i), nu(n, j))
            beta = [0] * n
            beta[i] += 1
            beta[j] += 1
            assert prod == line_element(n, [0] * n, beta)
            lhs = u_mul(line_realize(nu(n, i)) - one, line_realize(nu(n, j)) - one)
            assert lhs == zero(n, "u")


def test_power_law_for_generators():
    for n in (2, 3, 4):
        gens = [sigma(n, i) for i in range(n)] + [nu(n, j) for j in range(n)]
        for L in gens:
            b = line_realize(L)
            for k in range(1, 2 * n + 1):
                assert u_adams(b, k) == power(b, k, u_mul)


def test_certificate_recovers_parameters():
    rng = random.Random(9)
    for n in (2, 3, 5):
        for _ in range(5):
            L = line_element(n, [rng.randrange(n) for _ in range(n)],
                             [rng.randint(-3, 3) for _ in range(n)])
            cert = is_line_element(line_realize(L))
            assert cert.ok and cert.params == L


def test_rejections():
    n = 3
    no_unit = gen(n, "u", "u[1,0]") + gen(n, "u", "u[0,1]")
    cert = is_line_element(no_unit)
    assert not cert.ok and "invertible" in cert.reason
    doubled = unit(n, "u").scale(2)
    cert = is_line_element(doubled)
    assert not cert.ok and "psi^2" in cert.reason
    # invertible, passes no power law: a non-root unit coefficient
    skewed = unit(n, "u") + gen(n, "u", "u[1,0]")
    cert = is_line_element(skewed)
    assert not cert.ok


def test_k_max_validation():
    with pytest.raises(ValueError):
        is_line_element(unit(3, "u"), k_max=1)


def test_span_rank_values():
    assert span_rank(2).rank == 2
    assert span_rank(3).rank == 6
    for n in (4, 5):
        assert span_rank(n).rank == n * (n - 1)


def reference_span_matrix(n):
    """The dense span matrix: rows (q, l), columns (q', alpha), entry
    zeta^(l alpha) - 1 when q = q' and 0 otherwise."""
    B = span_block(n)
    size = n * (n - 1)
    out = [[Cyc.zero(n)] * size for _ in range(size)]
    for q in range(n):
        for r in range(n - 1):
            for c in range(n - 1):
                out[q * (n - 1) + r][q * (n - 1) + c] = B[r][c]
    return out


def test_span_matrix_block_structure():
    # span_rank ranks one block; the dense block-diagonal matrix is the reference.
    for n in range(2, 9):
        A = reference_span_matrix(n)
        assert len(A) == n * (n - 1)
        assert span_rank(n).rank == rank(A)
    assert span_block(3)[0][1] == zeta_pow(3, 2) - Cyc.one(3)


def test_block_square_pattern():
    # B^2 is the real matrix with entries n, and 2n on the r+c=n antidiagonal.
    for n in range(2, 7):
        B = span_block(n)
        for r in range(n - 1):
            for c in range(n - 1):
                entry = sum((B[r][t] * B[t][c] for t in range(n - 1)), Cyc.zero(n))
                expected = 2 * n if (r + 1) + (c + 1) == n else n
                assert entry == Cyc.rational(n, expected)


def test_witnesses_reconstruct_basis():
    for n in (2, 3):
        w = span_rank(n)
        assert realize_combo(n, w.combos["1"]) == unit(n, "u")
        for q in range(n):
            assert realize_combo(n, w.combos["u[0,%d]" % q]) == gen(n, "u", "u[0,%d]" % q)
            for l in range(1, n):
                label = "u[%d,%d]" % (l, q)
                assert realize_combo(n, w.combos[label]) == gen(n, "u", label)
