"""The integer kernels: ``_scatter``, ``from_numerators`` and the basis changes.

``cyclotomic._scatter`` adds integer products to raw numerators over one
denominator, and ``coords.from_numerators`` divides the whole output class
by one gcd; the products, the virtual Adams operations and the four basis
changes (``gamma``, ``gamma_inverse``, ``to_u_basis`` and ``from_u_basis``)
leave through it.  The term-by-term sum the kernels replaced is kept here
as the reference: every term there builds a canonical ``Cyc`` for its
product and another for its sum, so equal results show that the single
normalisation lands on the same canonical class.  Counters check that the
kernels build no scalar, that the basis changes form no scalar product and
that each leaves through one ``from_numerators``.

The products and Adams operations reduce in the sector ring before they
read a table: ``virtual_mul`` folds each sector-pair product modulo its
target sector's modulus, ``virtual_adams`` sums the coordinates of a twisted
sector whose images coincide, and ``loc_adams`` and ``u_adams`` write each
stored coordinate to its preimage set.  These paths are checked against the
references on operands that reach every fold, and a count pins the
``_scatter`` calls they save.
"""

import functools
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virtualk.coords as coords
import virtualk.cyclotomic as cyclotomic
import virtualk.localization as localization
import virtualk.virtual_ring as vr
from conftest import (canonical, classes, perturbed_euler, record_calls, reference_adams,
                      reference_loc_adams, reference_mul, reference_u_adams, scalars)
from virtualk.coords import (Coords, basis, basis_vectors, from_numerators, from_terms, grid,
                             sparse, zero)
from virtualk.cyclotomic import Cyc, phi_degree, zeta_pow
from virtualk.localization import (from_u_basis, gamma, gamma_inverse, loc_adams, loc_mul,
                                   to_u_basis, u_adams)
from virtualk.virtual_ring import k_monomial, virtual_adams, virtual_mul

#: Class denominators 1, 2, 3, 6 and a large prime, so terms meet over an lcm.
DENOMINATORS = (1, 2, 3, 6, 1_000_003)


def reference_apply_columns(n, kind, terms):
    """The sum of c * column, one canonical product and one canonical sum per term."""
    out = {}
    for c, start, (positions, entries) in terms:
        for offset, r in zip(positions, entries):
            i, v = start + offset, c * (r if isinstance(r, Cyc) else Cyc.rational(n, r))
            out[i] = out[i] + v if i in out else v
    return from_terms(n, kind, out)


def scatter_columns(n, kind, terms):
    """The same sum through the kernels: every c over the terms' common
    denominator, each product scattered by ``_scatter``, normalised once."""
    den, sums = math.lcm(*[c.den for c, _, _ in terms]), {}
    for c, start, column in terms:
        num = [x * (den // c.den) for x in c.num]
        cyclotomic._scatter(n, sums, num, start, *column)
    return from_numerators(n, kind, sums, den)


def gamma_columns(n):
    """Image under Gamma of each monomial x_m^j, in sector coordinate order.

    x^j takes the value zeta^(lj) at zeta^l, stored in e[m,l]; on sector 0
    the block (0,0) holds its 2-jet at 1 instead: value 1 and derivative j,
    stored as e[0,0] = 1 - j and xe[0,0] = j.
    """
    columns = []
    for _, m, j in basis(n, "sector").json:
        jet = [(0, 1 - j), (1, j)] if m == 0 else []
        columns.append(sparse(jet + [(grid(n, m, l), zeta_pow(n, l * j))
                                     for l in range(1 if m == 0 else 0, n)]))
    return columns


#: A scalar of Q(zeta_n): short or long numerators, mixed denominators, rational half the time.
_scalars = functools.partial(scalars, numerators=st.one_of(st.integers(-6, 6),
                                                           st.integers(-2**80, 2**80)),
                             denominators=st.sampled_from(DENOMINATORS), zeros=False,
                             rationals=True)


@st.composite
def _integral(draw, n):
    """A scalar of Z[zeta_n], irrational or rational: a table entry."""
    deg, numerator = phi_degree(n), st.one_of(st.integers(-6, 6), st.integers(-2**70, 2**70))
    top = deg if draw(st.booleans()) else 1
    return Cyc(n, draw(st.lists(numerator, min_size=top, max_size=top)))


@st.composite
def _column_terms(draw):
    """(n, terms) of (c, start, column) in sector coordinates.

    Column entries mix ``int`` and ``Cyc`` in Z[zeta_n]; some terms repeat an
    earlier one negated, so their sums cancel to zero.
    """
    n = draw(st.integers(2, 8))
    size = len(basis(n, "sector").labels)
    entry = st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70), _integral(n))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        if terms and draw(st.booleans()):
            c, start, column = draw(st.sampled_from(terms))
            terms.append((-c, start, column))
            continue
        start = draw(st.integers(0, size - 1))
        positions = sorted(draw(st.sets(st.integers(0, size - 1 - start), max_size=6)))
        c = draw(_scalars(n))
        if c:
            terms.append((c, start, sparse((p, draw(entry)) for p in positions)))
    return n, terms


@settings(max_examples=300)
@given(_column_terms())
def test_scatter_matches_the_term_by_term_sum(case):
    n, terms = case
    assert canonical(scatter_columns(n, "sector", terms)) == reference_apply_columns(
        n, "sector", terms)


@settings(max_examples=25)
@given(classes(("sector", "sector"), scalar=_scalars))
def test_virtual_mul_matches_the_polynomial_product_on_mixed_denominators(ab):
    # n = 7 folds zeta^6 into six coordinates; n = 8 folds through Phi_8 = x^4 + 1.
    a, b = ab
    assert canonical(virtual_mul(a, b)) == reference_mul(a, b)


def test_virtual_mul_matches_the_polynomial_product_on_preimage_pairs():
    # The dense preimages Gamma^-1(e) that the product-oracle multiplies.
    n = 4
    pre = [gamma_inverse(e) for _, e in basis_vectors(n, "loc")]
    for i, a in enumerate(pre):
        for b in pre[i:]:
            assert canonical(virtual_mul(a, b)) == reference_mul(a, b)


def test_cancelling_terms_store_nothing():
    n = 7
    c = Cyc(n, [1, -2, 3, 0, 5, 7], 6)
    column = sparse([(0, 2), (3, Cyc(n, [1, -2, 3, 0, 5, 7])), (5, Cyc.rational(n, -4))])
    assert column[1][2] == -4
    assert scatter_columns(n, "sector", [(c, 1, column), (-c, 1, column)]).terms == {}


def test_a_fractional_table_entry_is_refused():
    # _scatter multiplies numerators only, so a table entry must lie in Z[zeta_n].
    n = 7
    with pytest.raises(ValueError, match="position 3 is not in Z"):
        sparse([(0, 2), (3, Cyc(n, [1, -2, 3], 2)), (5, Cyc.rational(n, 1))])
    with pytest.raises(ValueError, match="position 5 is not in Z"):
        sparse([(5, Cyc.rational(n, Fraction(1, 3)))])


# ---------------------------------------------------------------------------
# One normalisation per output class, no scalar built.


def _dense7():
    n = 7
    size = len(basis(n, "sector").labels)
    return [Coords(n, "sector", [Cyc(n, [(i * t + s) % 11 - 5 for s in range(6)],
                                     DENOMINATORS[(i + t) % len(DENOMINATORS)])
                                 for i in range(size)]) for t in (1, 2)]


def test_linear_maps_build_no_scalar(monkeypatch):
    # Each map leaves through from_numerators, one gcd for the whole class:
    # no coordinate is normalised on its own until it is read.
    a, b = _dense7()
    loc, loc_b = gamma(a), gamma(b)
    u = to_u_basis(loc)
    # The tables and the Adams columns are built once per n, outside the count.
    from_u_basis(u), loc_mul(loc, loc_b), virtual_adams(a, 2), virtual_adams(a, 3)
    calls = record_calls(monkeypatch, cyclotomic, "_normalized")
    for fn, args in ((gamma, (a,)), (gamma_inverse, (loc,)), (to_u_basis, (loc,)),
                     (from_u_basis, (u,)), (loc_mul, (loc, loc_b)), (virtual_adams, (a, 2)),
                     (virtual_adams, (a, 3))):
        calls.clear()
        out = canonical(fn(*args))
        assert calls == [] and out.nums, fn.__name__
        assert len(out.terms) == len(calls) == len(out.nums), fn.__name__
    # The guard can fail: the term-by-term sum normalises once per term.
    columns = gamma_columns(a.n)
    calls.clear()
    out = reference_apply_columns(a.n, "loc", [(c, 0, columns[i]) for i, c in a.terms.items()])
    assert len(calls) > 2 * len(out.terms)


def test_virtual_mul_builds_no_scalar(monkeypatch):
    a, b = _dense7()
    virtual_mul(a, b)  # the Euler rows are built once per sector pair, outside the count
    calls = record_calls(monkeypatch, cyclotomic, "_normalized")
    out = canonical(virtual_mul(a, b))
    assert calls == [] and out.nums
    assert out == reference_mul(a, b)


def test_virtual_mul_multiplies_no_numerator_vectors_pairwise(monkeypatch):
    # Each sector pair is one integer product in x and zeta, so once the Euler
    # rows are built the preimage pairs at n = 8 call neither _times nor
    # _convolve; multiplying coefficient by coefficient made 142,077 and 36,692.
    n = 8
    pre = [gamma_inverse(e) for _, e in basis_vectors(n, "loc")]
    for m1 in range(n):
        for m2 in range(n):
            virtual_mul(k_monomial(n, m1, 1), k_monomial(n, m2, 1))
    calls = _record_products(monkeypatch)
    for i, a in enumerate(pre):
        for b in pre[i:]:
            virtual_mul(a, b)
    assert list(map(len, calls)) == [0, 0]
    # The counters are live: one irrational product makes one call of each.
    z = zeta_pow(n, 1)
    assert z * (z + Cyc.one(n)) == zeta_pow(n, 2) + z
    assert list(map(len, calls)) == [1, 1]


def test_virtual_mul_splits_each_operand_once(monkeypatch):
    # The product-oracle pairs at n = 8 split each of the 65 preimages once,
    # on first use, in the order the pairs first meet them.
    n = 8
    pre = [gamma_inverse(e) for _, e in basis_vectors(n, "loc")]
    calls = record_calls(monkeypatch, coords, "_split_sectors")
    for i, a in enumerate(pre):
        for b in pre[i:]:
            virtual_mul(a, b)
    assert len(calls) == 65 and [id(a) for a, in calls] == list(map(id, pre))
    # A repeated product on the same objects builds no split and an equal value.
    a, b = _dense7()
    calls.clear()
    first = virtual_mul(a, b)
    assert len(calls) == 2
    assert virtual_mul(a, b) == first == reference_mul(a, b) and len(calls) == 2


def _record_products(monkeypatch):
    """The calls of ``_times`` and of ``_convolve`` from now on."""
    return [record_calls(monkeypatch, cyclotomic, name) for name in ("_times", "_convolve")]


def _dense8():
    n = 8
    size = len(basis(n, "sector").labels)
    return Coords(n, "sector", [Cyc(n, [(i * 5 + t) % 9 - 4 for t in range(4)], 1 + i % 3)
                                for i in range(size)])


def test_basis_changes_multiply_no_numerator_vectors(monkeypatch):
    # Gamma, its inverse and the maps to and from the semisimple basis are
    # rotation sums over Z[zeta_n]: on dense classes at n = 8, once the tables
    # are built, they form no scalar product; applying columns of zeta powers
    # made one _times per stored entry and column entry.
    s = _dense8()
    n, a, u = s.n, gamma(s), to_u_basis(gamma(s))
    assert len(a.terms) == len(u.terms) == n * n + 1
    from_u_basis(u)
    calls = _record_products(monkeypatch)
    assert gamma_inverse(from_u_basis(to_u_basis(gamma(s)))) == s
    assert list(map(len, calls)) == [0, 0]
    # The counters are live: the term-by-term sum of Gamma's columns makes both.
    columns = gamma_columns(n)
    reference_apply_columns(n, "loc", [(c, 0, columns[i]) for i, c in s.terms.items()])
    assert all(calls)


def test_each_basis_change_leaves_through_one_from_numerators(monkeypatch):
    # Every output coordinate of Gamma, its inverse and the maps to and from
    # the semisimple basis is a raw sum over one denominator per call, the
    # closed-form and passed-through coordinates included.
    s = _dense8()
    a = gamma(s)
    u = to_u_basis(a)
    calls = record_calls(monkeypatch, localization, "from_numerators")
    for fn, arg, kind in ((gamma, s, "loc"), (gamma_inverse, a, "sector"),
                          (to_u_basis, a, "u"), (from_u_basis, u, "loc")):
        calls.clear()
        assert len(fn(arg).terms) == s.n * s.n + 1
        assert [args[1] for args in calls] == [kind], fn.__name__


# ---------------------------------------------------------------------------
# Reduced in the sector ring before the table.


def _top_class(n, m, width):
    """The top ``width`` powers of sector m, each with its own irrational
    coefficient over 1, 2 or 3: x[0]^n is the top power of sector 0."""
    top = n if m == 0 else n - 1
    return sum((k_monomial(n, m, j).scale(
        zeta_pow(n, 3 * j + m) + Cyc.rational(n, Fraction(j - m, 1 + (j + m) % 3)))
        for j in range(max(top - width + 1, 0), top + 1)), zero(n, "sector"))


@pytest.mark.parametrize("n", range(2, 10))
def test_virtual_mul_folds_exponent_sums_up_to_2n(n, monkeypatch):
    # Every sector pair of factors carrying their top powers: exponent sums
    # n..2n on sector 0 pairs (x[0]^n * x[0]^n), on m1 + m2 = n pairs, whose
    # target is sector 0, and on twisted targets; then the same under a
    # replaced Euler table, which gets its own rows.
    tops = [_top_class(n, m, 3) for m in range(n)]
    for euler, squared in ((vr.euler_factor, True), (perturbed_euler, False)):
        monkeypatch.setattr(vr, "euler_factor", euler)
        for a, b in itertools.product(tops, repeat=2):
            assert canonical(virtual_mul(a, b)) == reference_mul(a, b, squared)
        a = sum(tops[1:], tops[0])
        assert canonical(virtual_mul(a, a)) == reference_mul(a, a, squared)


def _adams_indices(n):
    """k = 1..2n, and for each divisor d > 1 of n the indices d, n + d and 3n + d."""
    divisors = [d for d in range(2, n + 1) if n % d == 0]
    return sorted(set(range(1, 2 * n + 1)) | {t * n + d for d in divisors for t in (0, 1, 3)})


@pytest.mark.parametrize("n", range(2, 10))
def test_virtual_adams_sums_equal_images_on_dense_twisted_classes(n):
    # A dense twisted class has n coordinates per sector; at gcd(k, n) > 1
    # several share the image x^(jk mod n), and at k = 0 (mod n) all do.
    dense = [_top_class(n, m, n + 1) for m in range(n)]
    cancelling = [k_monomial(n, m, 0) - k_monomial(n, m, n // 2) for m in range(1, n)]
    for k in _adams_indices(n):
        for a in dense + [sum(dense[1:], dense[0])]:
            assert canonical(virtual_adams(a, k)) == reference_adams(a, k), k
        # x^0 and x^h, h = n // 2, share their image when k*h = 0 (mod n),
        # and then their difference vanishes.
        for a in cancelling:
            out = canonical(virtual_adams(a, k))
            assert out == reference_adams(a, k)
            assert out.is_zero() == (k * (n // 2) % n == 0), k


@pytest.mark.parametrize("n", range(2, 10))
def test_loc_and_u_adams_write_preimage_sets_of_stored_terms(n):
    # Every u basis vector in loc coordinates (a dense row l, or column 0),
    # and every loc basis vector in u coordinates (a dense row of the grid).
    # The preimage sets depend on k mod n only, and k enters otherwise as a
    # scale, so every residue and two larger k cover them.
    loc_classes = [from_u_basis(b) for _, b in basis_vectors(n, "u")]
    u_classes = [to_u_basis(e) for _, e in basis_vectors(n, "loc")]
    for k in list(range(1, n + 1)) + [2 * n + 1, 3000]:
        for a in loc_classes:
            assert canonical(loc_adams(a, k)) == reference_loc_adams(a, k), (a, k)
        for b in u_classes:
            assert canonical(u_adams(b, k)) == reference_u_adams(b, k), (b, k)
        for _, b in basis_vectors(n, "u"):
            assert canonical(u_adams(b, k)) == reference_u_adams(b, k), (b, k)


def test_scatter_counts_on_the_oracle_preimages(monkeypatch):
    # The product-oracle pairs and adams-oracle preimages at n = 8.  Scattering
    # every power of x of every sector-pair product through its Euler row
    # made 30,023 calls, and every coordinate through its own Adams column
    # 8,464: 1,876 of the 2,145 products vanish once folded, and a twisted
    # sector has n / gcd(k, n) distinct images.
    n = 8
    pre = [gamma_inverse(e) for _, e in basis_vectors(n, "loc")]
    calls = record_calls(monkeypatch, vr, "_scatter")
    zero_products = sum(virtual_mul(a, b).is_zero() for i, a in enumerate(pre) for b in pre[i:])
    assert (len(calls), zero_products) == (2516, 1876)
    calls.clear()
    for a in pre:
        for k in range(1, 2 * n + 1):
            virtual_adams(a, k)
    assert len(calls) == 5398
