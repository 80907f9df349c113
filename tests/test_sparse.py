"""Sparse coordinates: the canonical form, and the products that run over the
stored terms against the dense loops they replaced."""

import copy
import itertools
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical, classes, reference_loc_mul, reference_mul
from virtualk.coords import Coords, basis, basis_vectors, gen, grid, unit, zero
from virtualk.cyclotomic import Cyc
from virtualk.line_elements import line_identity, line_mul, line_realize, nu, sigma
from virtualk.localization import loc_mul, u_adams, u_mul
from virtualk.presentation import resolution_mul
from virtualk.virtual_ring import virtual_adams, virtual_mul


# ---------------------------------------------------------------------------
# The dense loops the sparse products replaced.


def dense_u_mul(a, b):
    n = a.n
    A, B = a.coeffs, b.coeffs
    out = [A[0] * B[0]]
    out += [A[0] * B[i] + B[0] * A[i] for i in range(grid(n, 0, 0), grid(n, 1, 0))]
    out += [A[i] * B[i] for i in range(grid(n, 1, 0), len(A))]
    return Coords(n, "u", out)


def dense_resolution_mul(x, y):
    a, b = x.coeffs[0], x.coeffs[1:]
    a2, b2 = y.coeffs[0], y.coeffs[1:]
    return Coords(x.n, "res", (a * a2,) + tuple(a * v + a2 * u for u, v in zip(b, b2)))


@settings(max_examples=60)
@given(classes(("u", "u"), sparse=True))
def test_u_mul_matches_dense_loop(ab):
    a, b = ab
    assert canonical(u_mul(a, b)) == dense_u_mul(a, b)


@settings(max_examples=60)
@given(classes(("res", "res"), sparse=True))
def test_resolution_mul_matches_dense_loop(ab):
    a, b = ab
    assert canonical(resolution_mul(a, b)) == dense_resolution_mul(a, b)


@settings(max_examples=60)
@given(classes(("loc", "loc"), sparse=True))
def test_loc_mul_matches_dense_loop(ab):
    a, b = ab
    assert canonical(loc_mul(a, b)) == reference_loc_mul(a, b)


@settings(max_examples=40)
@given(classes(("sector", "sector"), 6, sparse=True))
def test_virtual_mul_matches_dense_loop(ab):
    a, b = ab
    assert canonical(virtual_mul(a, b)) == reference_mul(a, b)


@settings(max_examples=60)
@given(classes(("u", "u"), sparse=True))
def test_linear_structure_is_canonical(ab):
    a, b = ab
    assert canonical(a) is a and canonical(a + b).coeffs == tuple(
        x + y for x, y in zip(a.coeffs, b.coeffs))
    assert canonical(-a) + a == zero(a.n, "u")
    assert canonical(-a).coeffs == tuple(-x for x in a.coeffs)
    assert canonical(a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
    assert (a - a).terms == {} and (a - a).is_zero()
    assert canonical(a.scale(Cyc.rational(a.n, -3))).coeffs == tuple(
        -(x + x + x) for x in a.coeffs)


def _one_form(x, y):
    # Equal, with the same den, the same rows in the same order and one hash.
    canonical(x), canonical(y)
    assert (x.den, list(x.nums.items()), hash(x)) == (y.den, list(y.nums.items()), hash(y))
    assert x == y


@settings(max_examples=40)
@given(classes(("sector", "sector"), 6, sparse=True))
def test_equal_values_reached_by_different_routes_share_one_stored_form(ab):
    a, b = ab
    _one_form(virtual_mul(a, b), virtual_mul(b, a))
    _one_form((a + b) - b, a)
    _one_form(pickle.loads(pickle.dumps(a)), a)
    _one_form(Coords(a.n, a.kind, a.coeffs), a)


def test_orthogonal_idempotents_store_nothing():
    for n in (2, 3, 5):
        u1, u2 = gen(n, "u", "u[1,0]"), gen(n, "u", "u[1,1]")
        assert u_mul(u1, u2).terms == {} and u_mul(u1, u2) == zero(n, "u")
        assert u_mul(u1, u1) == u1
        e1 = gen(n, "loc", "e[0,1]")
        for other in ["e[0,0]"] + (["e[0,2]"] if n > 2 else []):
            assert loc_mul(e1, gen(n, "loc", other)).terms == {}
        sq0 = gen(n, "u", "u[0,1]")
        assert u_mul(sq0, sq0).terms == {}


def test_explicit_zeros_equal_and_hash_like_gen():
    for n in (2, 3, 4):
        for kind in ("sector", "loc", "u", "res"):
            size = len(basis(n, kind).labels)
            for i, (label, e) in enumerate(basis_vectors(n, kind)):
                dense = Coords(n, kind, [Cyc.one(n) if j == i else Cyc.zero(n)
                                         for j in range(size)])
                assert dense == e == gen(n, kind, label)
                assert hash(dense) == hash(e) and len({dense, e}) == 1
                assert dense.terms == {i: Cyc.one(n)} and dense[label] == Cyc.one(n)
            assert Coords(n, kind, [Cyc.zero(n)] * size) == zero(n, kind)
            assert hash(Coords(n, kind, unit(n, kind).coeffs)) == hash(unit(n, kind))
            assert gen(n, kind, basis(n, kind).labels[0], 0).terms == {}


def test_copies_are_equal():
    for v in (gen(3, "u", "e[0,0]"), unit(4, "loc"), zero(2, "res")):
        assert copy.copy(v) == v and hash(copy.copy(v)) == hash(v)


def test_terms_are_read_only():
    v = gen(3, "u", "e[0,0]")
    for name in ("n", "kind", "terms"):
        with pytest.raises(AttributeError):
            setattr(v, name, None)


# ---------------------------------------------------------------------------
# Ring and psi axioms of the virtual product on random dense sector classes.


@settings(max_examples=25)
@given(classes(("sector",) * 3, 5), st.integers(1, 12), st.integers(1, 12))
def test_virtual_ring_and_psi_axioms(abc, k, l):
    a, b, c = abc
    assert virtual_mul(virtual_mul(a, b), c) == virtual_mul(a, virtual_mul(b, c))
    assert virtual_mul(a, b + c) == virtual_mul(a, b) + virtual_mul(a, c)
    assert virtual_mul(a, b) == virtual_mul(b, a)
    assert virtual_mul(unit(a.n, "sector"), a) == a
    assert virtual_adams(virtual_mul(a, b), k) == virtual_mul(virtual_adams(a, k),
                                                              virtual_adams(b, k))
    assert virtual_adams(a + b, k) == virtual_adams(a, k) + virtual_adams(b, k)
    assert virtual_adams(virtual_adams(a, l), k) == virtual_adams(a, k * l)


def test_products_of_basis_vectors_are_canonical():
    for n in (2, 3, 4):
        for kind, mul in (("u", u_mul), ("loc", loc_mul), ("res", resolution_mul),
                          ("sector", virtual_mul)):
            for (_, a), (_, b) in itertools.product(basis_vectors(n, kind), repeat=2):
                canonical(mul(a, b))


def test_u_adams_and_line_realize_build_canonical_terms():
    for n in range(2, 9):
        for (_, v), k in itertools.product(basis_vectors(n, "u"), range(1, n + 2)):
            canonical(u_adams(v, k))
        for i in range(n):
            for L in (sigma(n, i), nu(n, i), line_mul(sigma(n, i), nu(n, (i + 1) % n))):
                canonical(line_realize(L))
        canonical(line_realize(line_identity(n)))
