import weakref
from collections import Counter

import pytest

import virtualk.verify as verify
import virtualk.virtual_ring as vr
from conftest import perturbed_euler, record_calls
from virtualk.coords import Coords, basis_vectors
from virtualk.localization import from_u_basis, gamma, gamma_inverse, loc_adams
from virtualk.verify import SUITES, Report, run_verify


def test_all_suites_pass_small_range():
    report = run_verify(2, 3, ("all",))
    assert report.ok, [c.id for c in report.failures[:5]]
    assert set(report.suites) == set(SUITES)


def test_report_serialization_is_deterministic():
    a = run_verify(2, 2, ("span", "presentation"))
    b = run_verify(2, 2, ("span", "presentation"))
    assert a.to_json() == b.to_json()
    assert a.elapsed >= 0
    assert '"timing": null' in a.to_json()


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_verify(2, 2, ("no-such-suite",))
    with pytest.raises(ValueError):
        run_verify(3, 2)


def test_negative_control_perturbed_euler_case(monkeypatch):
    # Breaking the coincident Euler case must fail the product and Adams
    # oracles, and the diagnosis must name the offending basis pairs.
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    report = run_verify(2, 3, ("product-oracle", "adams-oracle"))
    assert not report.ok
    failed = report.failures
    suites_hit = {c.id.split("/", 1)[0] for c in failed}
    assert suites_hit == {"product-oracle", "adams-oracle"}
    # localized: most checks still pass
    assert len(failed) < len(report.checks) / 4
    product_ids = [c.id for c in failed if c.id.startswith("product-oracle")]
    assert any("e[1," in cid for cid in product_ids)
    adams_ids = [c.id for c in failed if c.id.startswith("adams-oracle")]
    assert any("psi-mult/x[1]*x[1]" in cid for cid in adams_ids)
    for c in failed:
        assert c.lhs != c.rhs


@pytest.mark.parametrize("n", [2, 3, 4])
def test_every_relation_is_a_triple_whose_passing_sides_render_alike(n):
    # A passing check stores one rendered text for both sides.
    for name, builder in SUITES.items():
        relations = builder.args[1]
        for relation in relations(n, 2 * n):
            assert type(relation) is tuple and len(relation) == 3, (name, relation[0])
            _, lhs, rhs = relation
            if lhs == rhs:
                assert str(lhs) == str(rhs), (name, relation[0])


def test_unperturbed_oracles_pass():
    report = run_verify(2, 3, ("product-oracle", "adams-oracle"))
    assert report.ok


def test_text_summary_mentions_suites():
    report = run_verify(2, 2, ("span",))
    text = report.text_summary()
    assert "span" in text and "PASS" in text


def test_a_report_without_passing_sides_has_no_json():
    report = run_verify(2, 2, ("span", "presentation"), render_passing=False)
    full = run_verify(2, 2, ("span", "presentation"))
    assert report.ok and [c.id for c in report.checks] == [c.id for c in full.checks]
    assert {(c.status, c.lhs, c.rhs) for c in report.checks} == {("pass", "", "")}
    assert report.text_summary(True).split("\n")[:-1] == full.text_summary(True).split("\n")[:-1]
    with pytest.raises(ValueError):
        report.to_json()


def test_a_report_collects_into_a_list_of_its_own_by_default():
    report, other = Report(2, 2, None, ("span",)), Report(2, 2, None, ("span",))
    assert report.checks == other.checks == [] and report.checks is not other.checks
    chunks = list(report.run())
    assert report.checks == chunks[0] and len(chunks[0]) == report.counts["span"] > 0
    assert other.checks == []


def test_a_report_that_keeps_no_passing_check_has_no_json():
    report = Report(2, 2, None, ("span",), checks=None)
    assert [len(checks) for checks in report.run()] == [report.counts["span"]]
    assert report.ok and report.checks is None
    with pytest.raises(ValueError):
        report.to_json()


def test_failing_checks_keep_their_sides_without_passing_sides(monkeypatch):
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    lean = run_verify(2, 3, ("product-oracle", "adams-oracle"), render_passing=False)
    full = run_verify(2, 3, ("product-oracle", "adams-oracle"))
    assert lean.failures == full.failures
    assert lean.failures == [c for c in full.checks if not c.passed]


def test_a_memo_keeps_each_value_while_it_lives_or_until_its_last_counted_call():
    class Value:
        pass

    made = []

    def make(key):
        made.append(key)
        return Value()

    once = verify._once(make)
    kept = weakref.ref(once(1))
    assert once(1) is kept() is not None and made == [1]
    del once
    assert kept() is None
    once = verify._once(make, Counter({("a",): 2, ("b",): 1}))
    a, b = weakref.ref(once("a")), weakref.ref(once("b"))
    assert a() is not None and b() is None
    assert once("a") is a() and made == [1, "a", "b"]
    assert a() is None


@pytest.mark.parametrize("n", [6, 7])
def test_adams_oracle_transports_each_distinct_image_once(monkeypatch, n):
    gammas = record_calls(monkeypatch, verify, "gamma")
    to_us = record_calls(monkeypatch, verify, "to_u_basis")
    assert all(c.passed for c in SUITES["adams-oracle"](n, 2 * n, render_passing=False))
    ks = range(1, 2 * n + 1)
    loc = {(vr.virtual_adams(gamma_inverse(e), k),) for _, e in basis_vectors(n, "loc") for k in ks}
    u = {(loc_adams(from_u_basis(b), k),) for _, b in basis_vectors(n, "u") for k in ks}
    assert len(gammas) == len(loc) and set(gammas) == loc
    assert len(to_us) == len(u) and set(to_us) == u
    assert len(u) < len(loc) < len(ks) * len(basis_vectors(n, "loc"))


@pytest.mark.parametrize("n", [6, 7])
def test_psi_ring_homomorphism_evaluates_each_distinct_side_once(monkeypatch, n):
    # The calls made since the last relation are the ones made for the next.
    adams = record_calls(monkeypatch, verify, "virtual_adams")
    muls = record_calls(monkeypatch, verify, "virtual_mul")
    lhs_calls, rhs_calls, done = [], [], (0, 0)
    for name, lhs, rhs in verify.relations_psi_ring(n, 2 * n):
        assert lhs == rhs, name
        if name.startswith("homomorphism/"):
            lhs_calls += adams[done[0]:]
            rhs_calls += muls[done[1]:]
        done = len(adams), len(muls)
    basis = [a for _, a in basis_vectors(n, "sector")]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i, len(basis))]
    ks = range(2, 5)
    products = {vr.virtual_mul(basis[i], basis[j]) for i, j in pairs}
    assert len(lhs_calls) == len(products) * len(ks)
    assert set(lhs_calls) == {(ab, k) for ab in products for k in ks}
    psi = {k: [vr.virtual_adams(a, k) for a in basis] for k in ks}
    keys = {(k, psi[k].index(psi[k][i]), psi[k].index(psi[k][j])) for i, j in pairs for k in ks}
    assert len(rhs_calls) == len(keys)
    assert set(rhs_calls) == {(psi[k][i], psi[k][j]) for k, i, j in keys}
    # psi^2..psi^4 are injective on the basis at n = 7, not at n = 6.
    assert (len(keys) == len(pairs) * len(ks)) == (n == 7)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_oracle_builds_each_preimage_once(monkeypatch, n):
    inverses = record_calls(monkeypatch, verify, "gamma_inverse")
    assert all(c.passed for c in SUITES["product-oracle"](n, 2 * n, render_passing=False))
    # One preimage per loc basis vector, then one per sector round trip.
    assert inverses == ([(e,) for _, e in basis_vectors(n, "loc")]
                        + [(gamma(a),) for _, a in basis_vectors(n, "sector")])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_oracle_transports_each_distinct_pair_product_once(monkeypatch, n):
    gammas = record_calls(monkeypatch, verify, "gamma")
    assert all(c.passed for c in SUITES["product-oracle"](n, 2 * n, render_passing=False))
    pre = [gamma_inverse(e) for _, e in basis_vectors(n, "loc")]
    sector = [a for _, a in basis_vectors(n, "sector")]
    products = {vr.virtual_mul(pre[i], pre[j]) for i in range(len(pre)) for j in range(i, len(pre))}
    # The round trips, then one transport per distinct pair product.
    assert len(gammas) == len(pre) + len(sector) + len(products)
    assert set(gammas) == {(x,) for x in [*pre, *sector, *products]}
    assert len(products) < len(pre) * (len(pre) + 1) // 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_product_oracle_multiplies_each_ordered_basis_pair_once(monkeypatch, n):
    # The calls made since the last relation are the ones made for the next.
    muls = record_calls(monkeypatch, verify, "loc_mul")
    table_calls, done = [], 0
    for name, lhs, rhs in verify.relations_product_oracle(n, 2 * n):
        assert lhs == rhs, name
        if name.startswith(("pair/", "symmetry/")):
            table_calls += muls[done:]
        done = len(muls)
    index = {e: i for i, (_, e) in enumerate(basis_vectors(n, "loc"))}
    size = len(index)
    assert sorted((index[a], index[b]) for a, b in table_calls) == [
        (i, j) for i in range(size) for j in range(size)]


class _Watched(Coords):
    __slots__ = ("__weakref__",)


def test_no_memoized_value_outlives_its_suite_and_n(monkeypatch):
    # Every value the memoized functions return is a watched copy; once a
    # suite has returned its checks, none of them may be alive.  The copy
    # takes every slot the value has set: its split only once it is built.
    live = Counter()

    def watched(name, original):
        def call(*args):
            value, copy = original(*args), object.__new__(_Watched)
            for slot in Coords.__slots__:
                if hasattr(value, slot):
                    getattr(Coords, slot).__set__(copy, getattr(value, slot))
            live[name] += 1
            weakref.finalize(copy, live.subtract, [name])
            return copy
        return call

    for name in ("gamma", "to_u_basis", "virtual_adams", "virtual_mul"):
        monkeypatch.setattr(verify, name, watched(name, getattr(verify, name)))
    for suite, n in (("product-oracle", 5), ("adams-oracle", 6), ("psi-ring", 6),
                     ("psi-ring", 7)):
        checks = SUITES[suite](n, 2 * n, render_passing=False)
        assert checks and all(c.passed for c in checks)
        assert +live == Counter(), (suite, n, +live)
    assert set(live) == {"gamma", "to_u_basis", "virtual_adams", "virtual_mul"}
