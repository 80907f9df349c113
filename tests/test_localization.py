import functools
import importlib
import itertools
import os
import pkgutil
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virtualk
import virtualk.localization as loc
from conftest import (classes, cycs, evaluate, from_sectors, ints, poly_add, poly_mul, poly_scale,
                      record_calls, reference_loc_adams, reference_loc_mul, reference_u_adams,
                      sector_part, solutions)
from virtualk.coords import Coords, basis_vectors, gen, grid, power, unit, zero
from virtualk.cyclotomic import Cyc, zeta_pow
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
    assert ints(sector_part(img, 0)) == [Fraction(3, 4), Fraction(1, 2), Fraction(-1, 4)]


def test_gamma_inverse_twisted_row0_formula():
    # 1_m0 pulls back to the averaged geometric sum (1/n)(1 + x + ... + x^(n-1)).
    for n in (2, 3, 5, 6):
        for m in range(1, n):
            img = gamma_inverse(gen(n, "loc", "e[%d,0]" % m))
            assert ints(sector_part(img, m)) == [Fraction(1, n)] * n


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


def test_adams_weights_are_built_without_inverting_a_scalar(monkeypatch):
    # w_l / w_s is read through the integer matrix of n / w_s; the Galois
    # inverse of w_s is only the reference here.
    loc._adams_weight.cache_clear()
    loc._inverse_weights.cache_clear()
    inversions = record_calls(monkeypatch, Cyc, "inv")
    weights = {(n, l, s): loc._adams_weight(n, l, s)
               for n in range(2, 13) for l in range(1, n) for s in range(1, n)}
    assert inversions == []
    for (n, l, s), w in weights.items():
        assert w == loc._w(n, l) * loc._w(n, s).inv(), (n, l, s)


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
        if not s:
            continue
        for l in range(n):
            if m == 0 and l == 0:
                continue
            out[grid(n, m, l)] = evaluate(s, zeta_pow(n, l))
    f = sector_part(a, 0)
    f1 = sum(f, Cyc.zero(n))
    d1 = sum((c * Cyc.rational(n, j) for j, c in enumerate(f)), Cyc.zero(n))
    out[0], out[1] = f1 - d1, d1
    return Coords(n, "loc", out)


def _geom_div(n, l):
    # (x^n - 1)/(x - zeta^l) expanded as prod_{i != l} (x - zeta^i), of degree n - 1.
    prod = (Cyc.one(n),)
    for i in range(n):
        if i != l:
            prod = poly_mul(n, 1, prod, (-zeta_pow(n, i), Cyc.one(n)))
    return prod


@functools.cache
def _images(n):
    """Preimages of every localized generator, by position: (sector, polynomial).

    1_00  -> (1/2n)((1-n)x + (1+n)) (x^n-1)/(x-1)                  (sector 0)
    x_00  -> (1/2n)((3-n)x + (n-1)) (x^n-1)/(x-1)                  (sector 0)
    1_0l  -> zeta^l / (n(zeta^l - 1)) (x-1)(x^n-1)/(x-zeta^l)      (l != 0, sector 0)
    1_ml  -> (zeta^l / n) (x^n-1)/(x-zeta^l)                       (m != 0, sector m)

    (x^n - 1)/(x - zeta^l) is the product over the other roots, not the
    inverse DFT that ``gamma_inverse`` reads.  Every product has degree at
    most n, so none is reduced.
    """
    geom = [_geom_div(n, l) for l in range(n)]
    half, inv_n = Fraction(1, 2 * n), Cyc.rational(n, Fraction(1, n))
    images = {0: (0, poly_scale(n, poly_mul(n, 0, cycs(n, [1 + n, 1 - n]), geom[0]), half)),
              1: (0, poly_scale(n, poly_mul(n, 0, cycs(n, [n - 1, 3 - n]), geom[0]), half))}
    for l in range(1, n):
        zl = zeta_pow(n, l)
        images[grid(n, 0, l)] = (0, poly_scale(n, poly_mul(n, 0, cycs(n, [-1, 1]), geom[l]),
                                               zl * (zl - Cyc.one(n)).inv() * inv_n))
    for l in range(n):
        poly = poly_scale(n, geom[l], zeta_pow(n, l) * inv_n)
        for m in range(1, n):
            images[grid(n, m, l)] = (m, poly)
    return images


def reference_gamma_inverse(b):
    """Sum of the scaled preimage polynomials, sector by sector."""
    n, acc = b.n, [()] * b.n
    for i, c in b.terms.items():
        m, poly = _images(n)[i]
        acc[m] = poly_add(n, acc[m], poly_scale(n, poly, c))
    return from_sectors(n, dict(enumerate(acc)))


def reference_from_u_basis(b):
    """A discrete Fourier transform per row, with the row weight on every term."""
    n = b.n
    U = b.coeffs
    out = list(zero(n, "loc").coeffs)
    out[0] = U[0] - U[1]
    out[1] = U[1]
    for m in range(1, n):
        out[grid(n, m, 0)] = U[grid(n, 0, m)]
    inv_n = Cyc.rational(n, Fraction(1, n))
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


def test_solution_sets():
    assert solutions(2, 2, 0) == (0, 1)
    assert solutions(2, 2, 1) == ()
    assert solutions(4, 2, 2) == (1, 3)
    assert solutions(6, 4, 2) == (2, 5)
    assert solutions(5, 3, 2) == (4,)
    for n in range(2, 9):
        for k in range(1, 2 * n + 1):
            for l in range(n):
                sols = solutions(n, k, l)
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


@settings(max_examples=40)
@given(classes(("loc", "loc", "sector", "u"), 12))
def test_tables_match_reference_on_dense_classes(drawn):
    # n = 9 reduces through Phi_9, 11 is prime and 12 composite.
    a, b, s, u = drawn
    assert loc_mul(a, b) == reference_loc_mul(a, b)
    assert gamma(s) == reference_gamma(s)
    assert gamma_inverse(a) == reference_gamma_inverse(a)
    assert to_u_basis(a) == reference_to_u_basis(a)
    assert from_u_basis(u) == reference_from_u_basis(u)


ADAMS_INDEX = st.integers(1, 3000)


@settings(max_examples=40)
@given(classes(("loc", "u")), ADAMS_INDEX)
def test_adams_gathers_match_reference_on_dense_classes(drawn, k):
    a, u = drawn
    assert loc_adams(a, k) == reference_loc_adams(a, k)
    assert u_adams(u, k) == reference_u_adams(u, k)


# ---------------------------------------------------------------------------
# Ring and psi axioms on random dense classes.


@settings(max_examples=40)
@given(classes(("sector",)))
def test_dense_sector_classes_survive_the_round_trip_through_u(drawn):
    (s,) = drawn
    assert gamma_inverse(from_u_basis(to_u_basis(gamma(s)))) == s


@settings(max_examples=40)
@given(classes(("loc", "loc", "u", "u")), ADAMS_INDEX, ADAMS_INDEX)
def test_adams_composes_and_is_multiplicative_on_dense_classes(drawn, k, l):
    a, b, u, v = drawn
    assert loc_adams(loc_adams(a, l), k) == loc_adams(a, k * l)
    assert u_adams(u_adams(u, l), k) == u_adams(u, k * l)
    assert loc_adams(loc_mul(a, b), k) == loc_mul(loc_adams(a, k), loc_adams(b, k))
    assert u_adams(u_mul(u, v), k) == u_mul(u_adams(u, k), u_adams(v, k))


#: Every ``functools`` cache of the package: (module, qualified name, maxsize).
#: A new cache layer is a deliberate edit of this table.
CACHES = {
    ("cli", "_build_parser", None),
    ("coords", "basis", None),
    ("coords", "basis_vectors", None),
    ("coords", "unit", None),
    ("coords", "zero", None),
    ("cyclotomic", "Cyc.one", None),
    ("cyclotomic", "Cyc.zero", None),
    ("cyclotomic", "_reduction", None),
    ("cyclotomic", "_zeta_powers", None),
    ("cyclotomic", "cyclotomic_polynomial", None),
    ("localization", "_adams_weight", None),
    ("localization", "_inverse_weights", None),
    ("localization", "_loc_mul_table", None),
    ("localization", "_preimages", None),
    ("sector_ring", "sector_modulus", None),
    ("virtual_ring", "_adams_column", 2048),
    ("virtual_ring", "_euler_rows", None),
}

#: The slots of a ``Coords``: its fields and the one memo kept on a value,
#: its ``sector_split``.  A new per-value memo is a deliberate edit of this line.
COORDS_SLOTS = ("n", "kind", "den", "nums", "_split")

#: The per-n tables, each with the module that defines it.
TABLES = {"_loc_mul_table": "localization", "_inverse_weights": "localization",
          "_reduction": "cyclotomic"}


def _package_caches():
    # Every cache defined in a module of the package, at module level or on
    # a class (a cached staticmethod), found by walking the namespaces.
    found = set()
    for info in pkgutil.iter_modules(virtualk.__path__):
        module = importlib.import_module("virtualk." + info.name)
        objects = list(vars(module).values())
        objects += [attr for cls in objects
                    if isinstance(cls, type) and cls.__module__ == module.__name__
                    for attr in vars(cls).values()]
        for obj in objects:
            obj = getattr(obj, "__func__", obj)
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found.add((info.name, obj.__qualname__, obj.cache_info().maxsize))
    return found


def test_tables_are_not_built_at_import():
    assert _package_caches() == CACHES
    assert Coords.__slots__ == COORDS_SLOTS
    script = ("import functools, importlib, virtualk.cli; "
              "print([(m, q) for m, q, _ in %r if functools.reduce("
              "getattr, q.split('.'), importlib.import_module('virtualk.' + m))"
              ".cache_info().currsize])" % (sorted(CACHES),))
    src = os.path.dirname(os.path.dirname(loc.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("table", TABLES)
def test_cleared_table_rebuilds_the_same(table):
    build = getattr(importlib.import_module("virtualk." + TABLES[table]), table)
    before = build(4)
    build.cache_clear()
    after = build(4)
    assert after == before and after is not before
