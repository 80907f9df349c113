import pytest

import virtualk.virtual_ring as vr
from conftest import perturbed_euler
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
