"""Acceptance suite: one test per exit criterion, at the stated ranges.

Every check is an exact equality over Q(zeta_n); there are no tolerances.
Each test prints a single PASS/FAIL line (run pytest with -s to see them).
"""

import hashlib
import json
import random

import virtualk.virtual_ring as vr
from conftest import perturbed_euler
from virtualk.cyclotomic import Cyc
from virtualk.line_elements import (
    is_line_element,
    line_element,
    line_mul,
    line_realize,
    nu,
    realize_combo,
    sigma,
    span_rank,
)
from virtualk.localization import (
    from_u_basis,
    gamma,
    gamma_inverse,
    u_adams,
    u_mul,
)
from virtualk.verify import (
    _checks,
    relations_adams_oracle,
    relations_gamma_roundtrip,
    relations_line_elements,
    relations_product_table,
    relations_psi_ring,
    relations_resolution,
    relations_span,
    run_verify,
)
from virtualk.virtual_ring import lambda_from_adams


#: SHA-256 of the (id, status, lhs, rhs) lists of criteria 2 and 3 over n=2..8,
#: recorded before the localization tables replaced the dense loops; they pin
#: the rendered sides at n = 6..8, which the report hashes do not reach.
PRODUCT_ORACLE_SHA256 = "7dfb81905bf22d17cc39f8bd88582065644b31fdaf3772a20795b422f31fac93"
ADAMS_ORACLE_SHA256 = "24c6884c0b4c69eed9954c00aa8f96e1f32e087f690e79ed348fca79c3b3095e"

#: The same digest for criteria 1 and 4-8, recorded before the suites shared
#: one check recorder; they pin the psi-ring, line-element, span, presentation
#: and resolution sides at n = 6..8.
ROUNDTRIP_SHA256 = "16a8499c7e54a4f704d6b0bc911b601a499d857823c0e684426e48f230beb8d6"
PSI_RING_SHA256 = "d7c911bb701878d031c5e5c759b8d1dcfc2ee6cf5144b7a833c204eb044b564a"
LINE_ELEMENTS_SHA256 = "85bebf3467dbdc4a9978eef50fc380692c1db50e58abe1da7aaade5a2f4de560"
SPAN_SHA256 = "b9e307f527042eb4f2456c3d193fb37173cce9fd1e5218cbd6f8a063c494225c"
PRESENTATION_SHA256 = "917da41f1ac69e4db08410343f04f7321f56dc8e82a54728847b9c6ba0aee426"
RESOLUTION_SHA256 = "930cb65493fa468db1f7e6889b31f064feb7b62eaa5c7093e3df0ba8ed702d6b"


def _digest(checks) -> str:
    rows = [[c.id, c.status, c.lhs, c.rhs] for c in checks]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


def _suite_checks(suite: str, relations, ns: range) -> list:
    """The checks of ``relations`` at each n in ``ns`` with k_max = 2n, as ``suite``."""
    return [c for n in ns for c in _checks(suite, n, relations(n, 2 * n))]


def _report(num: int, title: str, checks) -> None:
    bad = [c for c in checks if not c.passed]
    status = "FAIL" if bad else "PASS"
    print("criterion %2d [%s] %s (%d checks)" % (num, status, title, len(checks)))
    for c in bad[:5]:
        print("   FAIL %s\n     lhs=%s\n     rhs=%s" % (c.id, c.lhs, c.rhs))
    assert not bad


def test_criterion_1_localization_inverse():
    checks = _suite_checks("product-oracle", relations_gamma_roundtrip, range(2, 9))
    _report(1, "gamma and gamma^(-1) are mutually inverse, n=2..8", checks)
    assert _digest(checks) == ROUNDTRIP_SHA256


def test_criterion_2_product_table_oracle():
    checks = _suite_checks("product-oracle", relations_product_table, range(2, 9))
    _report(2, "localized product table = transported virtual product, n=2..8", checks)
    assert _digest(checks) == PRODUCT_ORACLE_SHA256


def test_criterion_3_adams_oracle():
    checks = _suite_checks("adams-oracle", relations_adams_oracle, range(2, 9))
    _report(3, "localized/semisimple Adams = transported virtual Adams, k<=2n, n=2..8", checks)
    assert _digest(checks) == ADAMS_ORACLE_SHA256


def test_criterion_4_psi_ring_axioms():
    checks = _suite_checks("psi-ring", relations_psi_ring, range(2, 6))
    _report(4, "augmented psi-ring axioms on the monomial basis, n=2..5", checks)
    assert _digest(checks) == PSI_RING_SHA256


def test_criterion_5_line_element_classification():
    checks = _suite_checks("line-elements", relations_line_elements, range(2, 9))
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
            cert = is_line_element(line_realize(a), 2 * n)
            extra_ok &= cert.ok and cert.params == a
    assert extra_ok
    _report(5, "power law, recovery and group law for line elements, n=2..8", checks)
    assert _digest(checks) == LINE_ELEMENTS_SHA256


def test_criterion_6_span():
    checks = _suite_checks("span", relations_span, range(2, 9))
    _report(6, "rank(A) = n(n-1) with reconstruction witnesses, n=2..8", checks)
    assert _digest(checks) == SPAN_SHA256


def test_criterion_7_presentation():
    checks = run_verify(2, 6, ("presentation",)).checks
    _report(7, "sigma/nu presentation and generation, n=2..6", checks)
    assert _digest(checks) == PRESENTATION_SHA256


def test_criterion_8_resolution_isomorphism():
    checks = _suite_checks("resolution", relations_resolution, range(2, 9))
    _report(8, "psi-ring isomorphism with the resolution K-theory, n=2..8", checks)
    assert _digest(checks) == RESOLUTION_SHA256


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
