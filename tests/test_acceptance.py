"""Acceptance suite: one test per exit criterion, at the stated ranges.

Every check is an exact equality over Q(zeta_n); there are no tolerances.
Each test prints a single PASS/FAIL line (run pytest with -s to see them).
"""

import random

import virtualk.virtual_ring as vr
from conftest import perturbed_euler
from record_report_manifest import N_MAX, N_MIN, assert_unmoved, key, load
from virtualk.line_elements import (
    is_line_element,
    line_element,
    line_mul,
    line_realize,
)
from virtualk.localization import from_u_basis, gamma_inverse, u_mul
from virtualk.verify import run_verify
from virtualk.virtual_ring import lambda_from_adams


def _report(num: int, title: str, recording, suite: str) -> None:
    """Print the criterion's line from the entries of ``suite`` at n = 2..8,
    and hold them to the manifest."""
    entries = {key(suite, n): recording.entries[key(suite, n)] for n in range(N_MIN, N_MAX + 1)}
    bad = [c for c in recording.failures if c.id.startswith(suite + "/")]
    status = "FAIL" if bad else "PASS"
    checks = sum(e["checks"] for e in entries.values())
    print("criterion %2d [%s] %s (%d checks)" % (num, status, title, checks))
    for c in bad[:5]:
        print("   FAIL %s\n     lhs=%s\n     rhs=%s" % (c.id, c.lhs, c.rhs))
    assert not bad
    pinned = load()["entries"]
    assert_unmoved(entries, {k: pinned[k] for k in entries})


def test_criterion_1_localization_inverse(report_recording):
    _report(1, "gamma and gamma^(-1) are mutually inverse, n=2..8", report_recording,
            "product-oracle")


def test_criterion_2_product_table_oracle(report_recording):
    _report(2, "localized product table = transported virtual product, n=2..8",
            report_recording, "product-oracle")


def test_criterion_3_adams_oracle(report_recording):
    _report(3, "localized/semisimple Adams = transported virtual Adams, k<=2n, n=2..8",
            report_recording, "adams-oracle")


def test_criterion_4_psi_ring_axioms(report_recording):
    _report(4, "augmented psi-ring axioms on the monomial basis, n=2..8", report_recording,
            "psi-ring")


def test_criterion_5_line_element_classification(report_recording):
    rng = random.Random(1211)
    extra_ok = True
    for n in range(2, 9):
        for _ in range(5):
            a = line_element(n, [rng.randrange(n) for _ in range(n)],
                             [rng.randint(-2, 2) for _ in range(n)])
            b = line_element(n, [rng.randrange(n) for _ in range(n)],
                             [rng.randint(-2, 2) for _ in range(n)])
            prod = line_mul(a, b)
            extra_ok &= line_realize(prod) == u_mul(line_realize(a), line_realize(b))
            cert = is_line_element(line_realize(a))
            extra_ok &= cert.ok and cert.params == a
    assert extra_ok
    _report(5, "power law, recovery and group law for line elements, n=2..8", report_recording,
            "line-elements")


def test_criterion_6_span(report_recording):
    _report(6, "rank(A) = n(n-1) with reconstruction witnesses, n=2..8", report_recording,
            "span")


def test_criterion_7_presentation(report_recording):
    _report(7, "sigma/nu presentation and generation, n=2..8", report_recording,
            "presentation")


def test_criterion_8_resolution_isomorphism(report_recording):
    _report(8, "psi-ring isomorphism with the resolution K-theory, n=2..8", report_recording,
            "resolution")


def test_criterion_9_lambda_positivity():
    rng = random.Random(2024)
    failures = []
    total = 0
    for n in range(2, 6):
        for t in range(20):
            L = line_element(n, [rng.randrange(n) for _ in range(n)],
                             [rng.randint(-3, 3) for _ in range(n)])
            a = gamma_inverse(from_u_basis(line_realize(L)))
            for i in (2, 3):
                total += 1
                if not lambda_from_adams(a, i).is_zero():
                    failures.append((n, t, i))
    print("criterion  9 [%s] lambda^i vanishes on line elements for i=2,3, n=2..5 (%d checks)"
          % ("FAIL" if failures else "PASS", total))
    assert not failures


def test_criterion_10_negative_control(monkeypatch):
    monkeypatch.setattr(vr, "euler_factor", perturbed_euler)
    report = run_verify(2, 4, ("product-oracle", "adams-oracle"))
    failed = report.failures
    suites_hit = {c.id.split("/", 1)[0] for c in failed}
    ok = (
        not report.ok
        and suites_hit == {"product-oracle", "adams-oracle"}
        and len(failed) < len(report.checks) / 4
        and any("pair" in c.id and "e[" in c.id for c in failed)
        and any("psi-mult" in c.id for c in failed)
    )
    print("criterion 10 [%s] perturbed Euler case fails both oracles with localized diagnosis"
          " (%d of %d checks failed)" % ("PASS" if ok else "FAIL", len(failed), len(report.checks)))
    assert ok
