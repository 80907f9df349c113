import random
from fractions import Fraction

import pytest

import virtualk.line_elements as le
from conftest import record_calls
from virtualk.cyclotomic import Cyc, zeta_pow
from virtualk.line_elements import (
    LineCertificate,
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
from virtualk.coords import from_terms, gen, grid, power, unit, zero
from virtualk.localization import u_adams, u_is_invertible, u_mul


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
            b = line_realize(L)
            cert = is_line_element(b)
            assert cert.ok and cert.params == L and line_realize(cert.params) == b


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


def reference_is_line_element(b, k_max=None):
    """Membership decided loop first: psi^k(b) = b^k for 2 <= k <= k_max
    (default 2n), then recovery of (f; beta) and its re-realization."""
    n = b.n
    if k_max is None:
        k_max = 2 * n
    if not u_is_invertible(b):
        return LineCertificate(False, "not invertible in the localized ring", None)
    power = b
    for k in range(2, k_max + 1):
        power = u_mul(power, b)
        if u_adams(b, k) != power:
            return LineCertificate(False, "psi^%d does not equal the %d-th power" % (k, k), None)
    if b.terms[0] != Cyc.one(n):
        return LineCertificate(False, "unit coefficient is not 1", None)
    roots = [zeta_pow(n, t) for t in range(n)]
    f = []
    for q in range(n):
        val = b.terms[grid(n, 1, q)]
        if val not in roots:
            return LineCertificate(False, "column %d is not generated by a root of unity" % q,
                                   None)
        fq = roots.index(val)
        for l in range(2, n):
            if b.terms[grid(n, l, q)] != zeta_pow(n, l * fq):
                return LineCertificate(False, "column %d does not follow the power law" % q,
                                       None)
        f.append(fq)
    params = line_element(n, f, [b.terms.get(grid(n, 0, q), Cyc.zero(n)) for q in range(n)])
    if line_realize(params) != b:
        return LineCertificate(False, "parameter recovery failed to re-realize", None)
    return LineCertificate(True, "", params)


def _random_scalar(rng, n):
    # An irrational scalar of Q(zeta_n) with a denominator (for n > 2).
    return Cyc(n, [rng.randint(-3, 3) for _ in range(n)] + [1], rng.randint(2, 6))


def _random_line(rng, n):
    return line_element(n, [rng.randrange(n) for _ in range(n)],
                        [_random_scalar(rng, n) if rng.random() < 0.7 else 0 for _ in range(n)])


def _replaced(b, l, q, value):
    terms = dict(b.terms)
    terms[grid(b.n, l, q)] = value
    return from_terms(b.n, "u", terms)


#: Exponents e_1 .. e_(n-1) of one column zeta^(e_l) that obeys the power
#: law for k = 2 but not for k = 3, so that a class holding it passes the
#: first step of the rejection scan and is rejected at k = 3.  Doubling fixes the exponent of zeta^(n/2) =
#: -1 at even n; at n = 7 it has two orbits, {1, 2, 4} and {3, 6, 5}.
TWO_ONLY_COLUMNS = {4: (2, 0, 0), 6: (3, 0, 0, 0, 0), 7: (0, 0, 1, 0, 4, 2),
                    8: (4, 0, 0, 0, 0, 0, 0)}


def _membership_inputs(n):
    rng = random.Random(28 + n)
    lines = [line_realize(_random_line(rng, n)) for _ in range(4)]
    yield from lines
    yield unit(n, "u").scale(2)
    yield gen(n, "u", "u[1,0]")
    yield lines[0] - gen(n, "u", "u[%d,%d]" % (n - 1, n - 1), lines[0]["u[%d,%d]" % (n - 1, n - 1)])
    for l in range(1, n):
        # one entry moved off a root of unity
        yield _replaced(lines[1], l, l % n, lines[1].terms[grid(n, l, l % n)].scale_int(2))
    for l in range(2, n):
        # a root of unity that breaks the power law of its column
        yield _replaced(lines[2], l, 0, lines[2].terms[grid(n, l, 0)] * zeta_pow(n, 1))
    if n in TWO_ONLY_COLUMNS:
        b = lines[3]
        for l, e in enumerate(TWO_ONLY_COLUMNS[n], 1):
            b = _replaced(b, l, 1, zeta_pow(n, e))
        yield b


@pytest.mark.parametrize("n", range(2, 9))
def test_membership_agrees_with_the_loop_first_reference(n):
    # The reference scans far past n, so agreement pins the first failing k
    # of every rejected class at k <= n, where is_line_element stops.
    reasons = set()
    for b in _membership_inputs(n):
        got = is_line_element(b)
        for k_max in (2 * n, 64):
            assert got == reference_is_line_element(b, k_max), k_max
        # Accepted on recovery alone, which has matched every coordinate.
        assert not got.ok or line_realize(got.params) == b
        reasons.add(got.reason)
    scan = {"psi^%d does not equal the %d-th power" % (k, k) for k in range(2, n + 1)}
    assert reasons <= {"", "not invertible in the localized ring"} | scan
    if n in TWO_ONLY_COLUMNS:
        assert "psi^3 does not equal the 3-th power" in reasons
    assert {"", "not invertible in the localized ring",
            "psi^2 does not equal the 2-th power"} <= reasons


def test_a_recovered_class_is_accepted_without_a_power_law(monkeypatch):
    L = _random_line(random.Random(5), 6)
    b = line_realize(L)
    calls = [record_calls(monkeypatch, le, name) for name in ("u_mul", "u_adams", "line_realize")]
    cert = is_line_element(b)
    assert cert == LineCertificate(True, "", L) and line_realize(cert.params) == b
    assert list(map(len, calls)) == [0, 0, 0]
    cert = is_line_element(unit(6, "u").scale(2))
    assert cert.reason == "psi^2 does not equal the 2-th power"
    assert list(map(len, calls)) == [1, 1, 0]


def test_a_line_element_that_recovery_misses_raises_instead_of_being_rejected(monkeypatch):
    # Negative control for the converse: a real line element passes the
    # power law at every k <= n, so a recovery that cannot read it must be
    # reported as a broken argument, not as a rejection.
    monkeypatch.setattr(le, "_recover", lambda b: None)
    for n in (2, 3, 6):
        with pytest.raises(ArithmeticError, match="not recovered"):
            is_line_element(line_realize(_random_line(random.Random(n), n)))
    assert not is_line_element(unit(3, "u").scale(2)).ok


def test_span_rank_values():
    for n in range(2, 9):
        assert span_rank(n).rank == n * (n - 1)


def _matmul(n, A, B):
    return [[sum((a * b for a, b in zip(row, col)), Cyc.zero(n)) for col in zip(*B)] for row in A]


def test_span_matrix_block_structure():
    # The span matrix is n copies of the block B on its diagonal.  B is
    # invertible, B^-1 = B (P - J/n) / n for the antidiagonal permutation P
    # (r + c = n - 2, from 0) and the all-ones J, so the rank is n(n - 1).
    for n in range(2, 17):
        size, B = n - 1, span_block(n)
        W = [[Cyc.rational(n, Fraction(n * (r + c == n - 2) - 1, n * n)) for c in range(size)]
             for r in range(size)]
        assert _matmul(n, B, _matmul(n, B, W)) == [
            [Cyc.rational(n, int(r == c)) for c in range(size)] for r in range(size)]
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


def test_a_combination_is_realized_as_its_sum_of_realized_line_elements():
    rng = random.Random(17)
    for n in range(2, 10):
        for _ in range(8):
            combo = tuple((_random_line(rng, n), _random_scalar(rng, n))
                          for _ in range(rng.randint(1, 5)))
            expected = zero(n, "u")
            for L, c in combo:
                expected = expected + line_realize(L).scale(c)
            assert realize_combo(n, combo) == expected
    # Terms that cancel leave no stored zero.
    L = sigma(4, 1)
    assert realize_combo(4, ((L, Cyc.one(4)), (L, -Cyc.one(4)))) == zero(4, "u")


def test_witnesses_reconstruct_basis():
    for n in (2, 3, 9, 10, 11, 12):
        w = span_rank(n)
        assert realize_combo(n, w.combos["1"]) == unit(n, "u")
        for q in range(n):
            assert realize_combo(n, w.combos["u[0,%d]" % q]) == gen(n, "u", "u[0,%d]" % q)
            for l in range(1, n):
                label = "u[%d,%d]" % (l, q)
                assert realize_combo(n, w.combos[label]) == gen(n, "u", label)
