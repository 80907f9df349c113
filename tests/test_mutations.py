"""Planted-defect controls: one wrong structure constant each, and the suite
that must catch it with a check id naming the damaged entry.

Each defect is planted by monkeypatching one cached table function, so the
correct cache behind it is never written with a wrong value.
"""

import virtualk.localization as loc
import virtualk.virtual_ring as vr
from virtualk.verify import run_verify


def _failed_ids(suites):
    report = run_verify(3, 3, suites)
    assert not report.ok
    return {c.id for c in report.failures}


def test_planted_loc_adams_weight_is_caught(monkeypatch):
    # At n = 3, psi^k sends e[m,1] to e[m,2] with weight w_1/w_2 for k = 2, 5.
    original = loc._adams_weight

    def planted(n, l, s):
        w = original(n, l, s)
        return w + 1 if (n, l, s) == (3, 1, 2) else w

    monkeypatch.setattr(loc, "_adams_weight", planted)
    failed = _failed_ids(("adams-oracle",))
    for m in (1, 2):
        for k in (2, 5):
            assert "adams-oracle/n=3/loc/e[%d,1]/k=%d" % (m, k) in failed
    # Only row l = 1 is touched: no other localized generator fails.
    assert all(cid.split("/")[3].endswith(",1]") for cid in failed if "/loc/" in cid)


def test_planted_bott_twist_column_entry_is_caught(monkeypatch):
    # psi~^2(x_1) at n = 3 is x_1 + x_1^2; plant 2*x_1 + x_1^2 instead.
    original = vr._adams_column
    assert original(3, 1, 1, 2) == ((1, 1), (2, 1))

    def planted(n, m, j, k):
        column = original(n, m, j, k)
        if (n, m, j, k) == (3, 1, 1, 2):
            (offset, r), rest = column[0], column[1:]
            return ((offset, r + 1),) + rest
        return column

    monkeypatch.setattr(vr, "_adams_column", planted)
    failed = _failed_ids(("psi-ring", "adams-oracle"))
    assert "psi-ring/n=3/composition/x[1]/k=2,l=2" in failed
    assert "adams-oracle/n=3/psi-mult/x[1]*x[1]/k=2" in failed
    assert "adams-oracle/n=3/loc/e[1,0]/k=2" in failed
    # Every failure involves psi^2 (directly, or inside psi^4 = psi^2 psi^2).
    assert all("k=2" in cid or "l=2" in cid for cid in failed)


def test_suites_pass_without_a_planted_defect():
    assert run_verify(3, 3, ("psi-ring", "adams-oracle")).ok
