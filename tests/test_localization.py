import functools
import itertools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virtualk.localization as loc
from conftest import evaluate, from_sectors, sector_part
from virtualk.coords import Coords, basis_vectors, gen, grid, power, unit, zero
from virtualk.cyclotomic import Cyc, CycPoly, phi_degree, zeta_pow
from virtualk.localization import (
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
from virtualk.virtual_ring import k_monomial, virtual_adams, virtual_mul


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


# ---------------------------------------------------------------------------
# The cached tables against the dense loops they replaced.


def reference_gamma(a):
    """Horner evaluation of each sector at every root, and the 2-jet at 1."""
    n = a.n
    out = list(zero(n, "loc").coeffs)
    for m in range(n):
        s = sector_part(a, m)
        if s.is_zero():
            continue
        for l in range(n):
            if m == 0 and l == 0:
                continue
            out[grid(n, m, l)] = evaluate(s, zeta_pow(n, l))
    f = sector_part(a, 0).coeffs
    f1 = sum(f, Cyc.zero(n))
    d1 = sum((c * j for j, c in enumerate(f)), Cyc.zero(n))
    out[0], out[1] = f1 - d1, d1
    return Coords(n, "loc", out)


def _geom_div(n, l):
    # (x^n - 1)/(x - zeta^l) expanded as prod_{i != l} (x - zeta^i).
    prod = CycPoly.one_poly(n)
    for i in range(n):
        if i != l:
            prod = prod * CycPoly.from_cycs(n, (-zeta_pow(n, i), Cyc.one(n)))
    return prod


@functools.cache
def _images(n):
    """Preimages of every localized generator, as polynomials on their sector.

    1_00  -> (1/2n)((1-n)x + (1+n)) (x^n-1)/(x-1)                  (sector 0)
    x_00  -> (1/2n)((3-n)x + (n-1)) (x^n-1)/(x-1)                  (sector 0)
    1_0l  -> zeta^l / (n(zeta^l - 1)) (x-1)(x^n-1)/(x-zeta^l)      (l != 0, sector 0)
    1_ml  -> (zeta^l / n) (x^n-1)/(x-zeta^l)                       (m != 0, sector m)

    (x^n - 1)/(x - zeta^l) is the product over the other roots, not the
    inverse DFT that ``gamma_inverse`` reads.
    """
    images = {}
    geom = [_geom_div(n, l) for l in range(n)]
    half = Fraction(1, 2 * n)
    images["1_00"] = (CycPoly.from_ints(n, [1 + n, 1 - n]) * geom[0]).scale(half)
    images["x_00"] = (CycPoly.from_ints(n, [n - 1, 3 - n]) * geom[0]).scale(half)
    x_minus_one = CycPoly.from_ints(n, [-1, 1])
    for l in range(1, n):
        zl = zeta_pow(n, l)
        images[(0, l)] = (x_minus_one * geom[l]).scale(zl / ((zl - Cyc.one(n)) * n))
    for l in range(n):
        poly = geom[l].scale(zeta_pow(n, l) * Fraction(1, n))
        for m in range(1, n):
            images[(m, l)] = poly
    return images


def reference_gamma_inverse(b):
    """Sum of the scaled preimage polynomials, sector by sector."""
    n = b.n
    images = _images(n)
    acc = [CycPoly.zero(n)] * n
    if b.coeffs[0]:
        acc[0] = acc[0] + images["1_00"].scale(b.coeffs[0])
    if b.coeffs[1]:
        acc[0] = acc[0] + images["x_00"].scale(b.coeffs[1])
    for m in range(n):
        for l in range(n):
            c = b.coeffs[grid(n, m, l)]
            if c and (m, l) != (0, 0):
                acc[m] = acc[m] + images[(m, l)].scale(c)
    return from_sectors(n, dict(enumerate(acc)))


def reference_loc_mul(a, b):
    """The localized product rules as one dense loop."""
    n = a.n
    A, B = a.coeffs, b.coeffs
    out = list(zero(n, "loc").coeffs)
    out[0] = A[0] * B[0] - A[1] * B[1]
    out[1] = A[0] * B[1] + A[1] * B[0] + (A[1] * B[1]).scale_int(2)
    ra = A[0] + A[1]
    rb = B[0] + B[1]
    for m in range(1, n):
        i = grid(n, m, 0)
        out[i] = ra * B[i] + rb * A[i]
    for l in range(1, n):
        w = Cyc.one(n) - zeta_pow(n, -l)
        row = grid(n, 0, l)
        au, bu = A[row], B[row]
        if au and bu:
            out[row] = out[row] + au * bu
        for m in range(1, n):
            i = grid(n, m, l)
            t = au * B[i] + bu * A[i]
            if t:
                out[i] = out[i] + t
        for m1 in range(1, n):
            c1 = A[grid(n, m1, l)]
            if not c1:
                continue
            for m2 in range(1, n):
                c2 = B[grid(n, m2, l)]
                if not c2:
                    continue
                c = c1 * c2
                if m1 + m2 == n:
                    out[row] = out[row] + c * w * w
                else:
                    i = grid(n, (m1 + m2) % n, l)
                    out[i] = out[i] + c * w
    return Coords(n, "loc", out)


def reference_from_u_basis(b):
    """A discrete Fourier transform per row, with the row weight on every term."""
    n = b.n
    U = b.coeffs
    out = list(zero(n, "loc").coeffs)
    out[0] = U[0] - U[1]
    out[1] = U[1]
    for m in range(1, n):
        out[grid(n, m, 0)] = U[grid(n, 0, m)]
    inv_n = Fraction(1, n)
    for l in range(1, n):
        winv = (Cyc.one(n) - zeta_pow(n, -l)).inv()
        row = U[grid(n, l, 0):grid(n, l + 1, 0)]
        if not any(row):
            continue
        total = Cyc.zero(n)
        for q in range(n):
            total = total + row[q]
        out[grid(n, 0, l)] = total * inv_n
        for i in range(1, n):
            acc = Cyc.zero(n)
            for q in range(n):
                c = row[q]
                if c:
                    acc = acc + c * zeta_pow(n, -i * q)
            out[grid(n, i, l)] = acc * winv * inv_n
    return Coords(n, "loc", out)


def reference_to_u_basis(a):
    """The inverse transform per row, with the row weight on every term."""
    n = a.n
    L = a.coeffs
    out = list(zero(n, "u").coeffs)
    out[0] = L[0] + L[1]
    out[1] = L[1]
    for m in range(1, n):
        out[grid(n, 0, m)] = L[grid(n, m, 0)]
    for l in range(1, n):
        w = Cyc.one(n) - zeta_pow(n, -l)
        base = L[grid(n, 0, l)]
        for q in range(n):
            acc = base
            for i in range(1, n):
                c = L[grid(n, i, l)]
                if c:
                    acc = acc + c * w * zeta_pow(n, i * q)
            out[grid(n, l, q)] = acc
    return Coords(n, "u", out)


def _solutions(n, k, l):
    """Ascending solutions of k*y = l (mod n); empty when gcd(k,n) does not divide l."""
    d = math.gcd(k, n)
    if l % d:
        return ()
    nd = n // d
    y0 = (pow(k // d, -1, nd) * ((l // d) % nd)) % nd if nd > 1 else 0
    return tuple(y0 + i * nd for i in range(d))


def reference_loc_adams(a, k):
    """psi^k pushed forward: each generator is sent to its images over the
    solution set of k*y = l (mod n), with the row weight recomputed here."""
    n = a.n
    A = a.coeffs
    out = list(zero(n, "loc").coeffs)
    sols0 = _solutions(n, k, 0)
    if A[0]:
        out[0] = out[0] + A[0]
        for s in sols0[1:]:
            out[grid(n, 0, s)] = out[grid(n, 0, s)] + A[0]
    if A[1]:
        out[1] = out[1] + A[1].scale_int(k)
        out[0] = out[0] - A[1].scale_int(k - 1)
        for s in sols0[1:]:
            out[grid(n, 0, s)] = out[grid(n, 0, s)] + A[1]
    for m in range(1, n):
        i = grid(n, m, 0)
        if A[i]:
            out[i] = out[i] + A[i].scale_int(k)
    one = Cyc.one(n)
    for l in range(1, n):
        sols = _solutions(n, k, l)
        cu = A[grid(n, 0, l)]
        if cu:
            for s in sols:
                out[grid(n, 0, s)] = out[grid(n, 0, s)] + cu
        for m in range(1, n):
            c = A[grid(n, m, l)]
            if c:
                for s in sols:
                    weight = (zeta_pow(n, -l) - one) * (zeta_pow(n, -s) - one).inv()
                    out[grid(n, m, s)] = out[grid(n, m, s)] + c * weight
    return Coords(n, "loc", out)


def reference_u_adams(a, k):
    """psi^k pushed forward on semisimple coordinates over the same solution sets."""
    n = a.n
    A = a.coeffs
    out = list(zero(n, "u").coeffs)
    out[0] = A[0]
    if A[0]:
        for s in _solutions(n, k, 0)[1:]:
            for q in range(n):
                out[grid(n, s, q)] = out[grid(n, s, q)] + A[0]
    for q in range(n):
        c = A[grid(n, 0, q)]
        if c:
            out[grid(n, 0, q)] = out[grid(n, 0, q)] + c.scale_int(k)
    for l in range(1, n):
        for q in range(n):
            c = A[grid(n, l, q)]
            if c:
                for s in _solutions(n, k, l):
                    out[grid(n, s, q)] = out[grid(n, s, q)] + c
    return Coords(n, "u", out)


def test_solution_sets():
    assert _solutions(2, 2, 0) == (0, 1)
    assert _solutions(2, 2, 1) == ()
    assert _solutions(4, 2, 2) == (1, 3)
    assert _solutions(6, 4, 2) == (2, 5)
    assert _solutions(5, 3, 2) == (4,)
    for n in range(2, 9):
        for k in range(1, 2 * n + 1):
            for l in range(n):
                sols = _solutions(n, k, l)
                assert [s for s in range(n) if (k * s - l) % n == 0] == list(sols)


@pytest.mark.parametrize("n", range(2, 9))
def test_adams_gathers_match_reference_on_all_basis_vectors(n):
    for k in list(range(1, 3 * n + 1)) + [97, 2999, 3000]:
        for label, e in basis_vectors(n, "loc"):
            assert loc_adams(e, k) == reference_loc_adams(e, k), (label, k)
        for label, b in basis_vectors(n, "u"):
            assert u_adams(b, k) == reference_u_adams(b, k), (label, k)


@pytest.mark.parametrize("n", range(2, 9))
def test_loc_mul_table_matches_reference_on_all_basis_pairs(n):
    basis = basis_vectors(n, "loc")
    for (la, a), (lb, b) in itertools.product(basis, repeat=2):
        assert loc_mul(a, b) == reference_loc_mul(a, b), (la, lb)


@pytest.mark.parametrize("n", range(2, 9))
def test_basis_changes_match_reference_on_all_basis_vectors(n):
    for label, a in basis_vectors(n, "sector"):
        assert gamma(a) == reference_gamma(a), label
    for label, b in basis_vectors(n, "loc"):
        assert gamma_inverse(b) == reference_gamma_inverse(b), label
        assert to_u_basis(b) == reference_to_u_basis(b), label
    for label, u in basis_vectors(n, "u"):
        assert from_u_basis(u) == reference_from_u_basis(u), label


@st.composite
def _dense(draw, kind):
    n = draw(st.integers(2, 8))
    small = st.integers(-4, 4)

    def scalar():
        if draw(st.booleans()):
            return Cyc.zero(n)
        return Cyc(n, draw(st.lists(small, min_size=phi_degree(n), max_size=phi_degree(n))),
                   draw(st.integers(1, 3)))

    return [Coords(n, k, [scalar() for _ in range(n * n + 1)]) for k in kind]


@settings(max_examples=40)
@given(_dense(("loc", "loc", "sector", "u")))
def test_tables_match_reference_on_dense_classes(classes):
    a, b, s, u = classes
    assert loc_mul(a, b) == reference_loc_mul(a, b)
    assert gamma(s) == reference_gamma(s)
    assert gamma_inverse(a) == reference_gamma_inverse(a)
    assert to_u_basis(a) == reference_to_u_basis(a)
    assert from_u_basis(u) == reference_from_u_basis(u)


ADAMS_INDEX = st.integers(1, 3000)


@settings(max_examples=40)
@given(_dense(("loc", "u")), ADAMS_INDEX)
def test_adams_gathers_match_reference_on_dense_classes(classes, k):
    a, u = classes
    assert loc_adams(a, k) == reference_loc_adams(a, k)
    assert u_adams(u, k) == reference_u_adams(u, k)


# ---------------------------------------------------------------------------
# Ring and psi axioms on random dense classes.


@settings(max_examples=40)
@given(_dense(("sector",)))
def test_dense_sector_classes_survive_the_round_trip_through_u(classes):
    (s,) = classes
    assert gamma_inverse(from_u_basis(to_u_basis(gamma(s)))) == s


@settings(max_examples=40)
@given(_dense(("loc", "loc", "u", "u")), ADAMS_INDEX, ADAMS_INDEX)
def test_adams_composes_and_is_multiplicative_on_dense_classes(classes, k, l):
    a, b, u, v = classes
    assert loc_adams(loc_adams(a, l), k) == loc_adams(a, k * l)
    assert u_adams(u_adams(u, l), k) == u_adams(u, k * l)
    assert loc_adams(loc_mul(a, b), k) == loc_mul(loc_adams(a, k), loc_adams(b, k))
    assert u_adams(u_mul(u, v), k) == u_mul(u_adams(u, k), u_adams(v, k))


TABLES = ("_gamma_columns", "_gamma_inverse_columns", "_loc_mul_table", "_to_u_map",
          "_from_u_map")


def test_tables_are_not_built_at_import():
    script = ("import virtualk.cli, virtualk.localization as loc; "
              "print([getattr(loc, t).cache_info().currsize for t in %r])" % (TABLES,))
    src = os.path.dirname(os.path.dirname(loc.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == str([0] * len(TABLES))


@pytest.mark.parametrize("table", TABLES)
def test_cleared_table_rebuilds_the_same(table):
    build = getattr(loc, table)
    before = build(4)
    build.cache_clear()
    after = build(4)
    assert after == before and after is not before
