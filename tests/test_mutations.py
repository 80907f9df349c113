"""Planted-defect controls: one wrong structure constant or table entry each,
and the suite that must catch it with a check id naming the damaged entry.

Each defect is planted by monkeypatching one cached table function, so the
correct cache behind it is never written with a wrong value, or one function
in every module that binds it.
"""

import sys
from fractions import Fraction

import virtualk.line_elements as le
import virtualk.localization as loc
import virtualk.presentation as pres
import virtualk.virtual_ring as vr
from virtualk.coords import Coords, from_terms, gen, grid, zero
from virtualk.cyclotomic import Cyc
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
        return w + Cyc.one(n) if (n, l, s) == (3, 1, 2) else w

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
    assert original(3, 1, 1, 2) == ((1, 2), (1, 1))

    def planted(n, m, j, k):
        offsets, entries = original(n, m, j, k)
        if (n, m, j, k) == (3, 1, 1, 2):
            return offsets, (entries[0] + 1,) + entries[1:]
        return offsets, entries

    monkeypatch.setattr(vr, "_adams_column", planted)
    failed = _failed_ids(("psi-ring", "adams-oracle"))
    assert "psi-ring/n=3/composition/x[1]/k=2,l=2" in failed
    assert "adams-oracle/n=3/psi-mult/x[1]*x[1]/k=2" in failed
    assert "adams-oracle/n=3/loc/e[1,0]/k=2" in failed
    # Every failure involves psi^2 (directly, or inside psi^4 = psi^2 psi^2).
    assert all("k=2" in cid or "l=2" in cid for cid in failed)


def test_planted_coincident_euler_row_entry_is_caught(monkeypatch):
    # At n = 3, row 1 of the pairs (1, 2) and (2, 1) is x (1 - 1/x)^2 =
    # -1 + x + x^2 - x^3 on sector 0; plant -1 + 2x + x^2 - x^3 instead.
    original = vr._euler_rows
    assert original(3, vr.euler_factor(3, 1, 2), True)[1] == ((0, 1, 2, 3), (-1, 1, 1, -1))

    def planted(n, e, untwisted):
        rows = original(n, e, untwisted)
        if n == 3 and e == (1, -2, 1) and untwisted:
            rows = (rows[0], (rows[1][0], (-1, 2, 1, -1))) + rows[2:]
        return rows

    monkeypatch.setattr(vr, "_euler_rows", planted)
    # The preimages of e[1,l] and e[2,l'] are sum_j zeta^(lj) x_m^j / 3, so
    # their product reaches x^1 with (zeta^l + zeta^l' + zeta^(2l+2l')) / 9:
    # 3 zeta^l / 9 when l = l', and 0 otherwise.
    assert _failed_ids(("product-oracle",)) == {
        "product-oracle/n=3/pair/e[1,%d]*e[2,%d]" % (l, l) for l in range(3)}


def test_planted_loc_mul_weight_is_caught(monkeypatch):
    # At n = 3, e[1,1] * e[1,1] = w_1 e[2,1]; plant (w_1 + 1) e[2,1] instead.
    original = loc._loc_mul_table
    e11 = grid(3, 1, 1)

    def planted(n):
        table = original(n)
        if n != 3:
            return table
        js, products = table[e11]
        one = Cyc.one(n)
        products = tuple((product[0], tuple(w + one for w in product[1])) if j == e11 else product
                         for j, product in zip(js, products))
        return table[:e11] + ((js, products),) + table[e11 + 1:]

    monkeypatch.setattr(loc, "_loc_mul_table", planted)
    failed = _failed_ids(("product-oracle",))
    assert "product-oracle/n=3/pair/e[1,1]*e[1,1]" in failed
    assert "product-oracle/n=3/u-loc-consistency/0" in failed
    # Only the damaged square fails among the basis pairs; dense classes hit it too.
    assert all(cid == "product-oracle/n=3/pair/e[1,1]*e[1,1]" or "/u-loc-consistency/" in cid
               for cid in failed)


def test_planted_gamma_inverse_column_is_caught(monkeypatch):
    # Double the leading coefficient of the preimage of e[1,1] at n = 3:
    # (1/3)[1, zeta^-1, zeta^-2] becomes (1/3)[2, zeta^-1, zeta^-2] on sector 1.
    original = loc.gamma_inverse

    def planted(b):
        out = original(b)
        c = b["e[1,1]"] if b.n == 3 else 0
        return out + gen(3, "sector", "one[1]", c * Cyc.rational(3, Fraction(1, 3))) if c else out

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("product-oracle",))
    assert "product-oracle/n=3/roundtrip-loc/e[1,1]" in failed
    assert "product-oracle/n=3/roundtrip-sector/x[1]" in failed
    assert "product-oracle/n=3/pair/e[1,1]*e[1,1]" in failed
    # Every failure names e[1,1] or a class on sector 1.
    assert all(any(s in cid for s in ("e[1,1]", "x[1]", "one[1]")) for cid in failed)


def test_planted_gamma_jet_convention_is_caught(monkeypatch):
    # Store the value f(1) in e[0,0] instead of f(1) - f'(1) on sector 0.
    original = loc.gamma

    def planted(a):
        out = original(a)
        return out + gen(3, "loc", "e[0,0]", out["xe[0,0]"]) if a.n == 3 else out

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("product-oracle",))
    assert "product-oracle/n=3/roundtrip-loc/xe[0,0]" in failed
    assert "product-oracle/n=3/roundtrip-sector/x[0]" in failed
    assert "product-oracle/n=3/pair/xe[0,0]*xe[0,0]" in failed
    # Only the families that pass through gamma fail.
    assert all(cid.split("/")[2] in ("roundtrip-loc", "roundtrip-sector", "pair")
               for cid in failed)


def _plant_everywhere(monkeypatch, original, planted):
    # The package binds names with ``from .x import y``: replace every binding.
    for name, module in list(sys.modules.items()):
        if name == "virtualk" or name.startswith("virtualk."):
            for key, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, key, planted)


def test_planted_resolution_adams_scale_is_caught(monkeypatch):
    # psi^2 scales the square-zero part of a resolution class by 3 instead of 2.
    original = pres.resolution_adams

    def planted(x, k):
        return original(x, k + 1 if k == 2 else k)

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("resolution",))
    # Only the square-zero generators u[0,q] reach the scaled part, only at k = 2.
    assert failed == {"resolution/n=3/Adams equivariance on u[0,%d], k=2" % q for q in range(3)}


def test_planted_line_realize_entry_is_caught(monkeypatch):
    # At n = 3, beta_0 leaks into u[1,0]: nu[0] realizes with u[1,0] = 2.
    original = le.line_realize

    def planted(L):
        b = original(L)
        if L.n != 3 or not L.beta[0]:
            return b
        coeffs = list(b.coeffs)
        coeffs[grid(3, 1, 0)] = coeffs[grid(3, 1, 0)] + L.beta[0]
        return Coords(3, "u", coeffs)

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("line-elements", "presentation"))
    assert "line-elements/n=3/power-law/nu[0]/k=2" in failed
    assert "line-elements/n=3/certificate/nu[0]" in failed
    assert "presentation/n=3/(nu[0]-1)*(nu[0]-1) = 0" in failed
    assert "presentation/n=3/sigma[0]*(nu[0]-1) = nu[0]-1" in failed
    # Generators with beta_0 = 0 are realized correctly.
    assert all("nu[0]" in cid for cid in failed if cid.startswith("presentation/"))
    assert not any(g in cid for cid in failed for g in ("sigma[1]", "sigma[2]", "nu[1]", "nu[2]"))


def test_planted_u_adams_unit_spread_is_caught(monkeypatch):
    # At n = 3 and 3 | k, every row s != 0 has k*s = 0 (mod 3) and reads the
    # unit coordinate e[0,0]; plant psi^k without that read.
    original = loc.u_adams
    rows = grid(3, 1, 0)

    def planted(a, k):
        b = original(a, k)
        if a.n != 3 or k % 3:
            return b
        return Coords(3, "u", b.coeffs[:rows] + zero(3, "u").coeffs[rows:])

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("adams-oracle", "line-elements"))
    # Only e[0,0] has a unit coordinate among the basis vectors.
    assert {cid for cid in failed if cid.startswith("adams-oracle/")} == {
        "adams-oracle/n=3/u/e[0,0]/k=%d" % k for k in (3, 6)}
    # Every line element has unit coordinate 1.
    for g in ("sigma[0]", "sigma[1]", "sigma[2]", "nu[0]", "nu[1]", "nu[2]", "random[0]"):
        for k in (3, 6):
            assert "line-elements/n=3/power-law/%s/k=%d" % (g, k) in failed
    assert all(cid.endswith(("/k=3", "/k=6")) for cid in failed if "/power-law/" in cid)


def test_planted_loc_adams_block_unit_read_is_caught(monkeypatch):
    # At n = 3 and 3 | k, e[0,1] and e[0,2] read 1_00 + x_00; plant psi^k
    # without that read.
    original = loc.loc_adams

    def planted(a, k):
        b = original(a, k)
        if a.n != 3 or k % 3:
            return b
        coeffs = list(b.coeffs)
        for s in (1, 2):
            coeffs[grid(3, 0, s)] = Cyc.zero(3)
        return Coords(3, "loc", coeffs)

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("adams-oracle",))
    # The generators with 1_00 + x_00 != 0: e[0,0], xe[0,0], and e[0,0] in u.
    assert failed == {"adams-oracle/n=3/%s/k=%d" % (g, k)
                      for g in ("loc/e[0,0]", "loc/xe[0,0]", "u/e[0,0]") for k in (3, 6)}


def test_planted_u_mul_cross_term_is_caught(monkeypatch):
    # The square-zero row of u_mul without the B[e[0,0]] * A[u[0,q]] cross
    # term: u[0,q] * e[0,0] comes out 0, while e[0,0] * u[0,q] is still right.
    original = loc.u_mul

    def planted(a, b):
        a.check_kind("u")
        a.check(b)
        n, A, B = a.n, a.terms, b.terms
        start = grid(n, 1, 0)
        a0, b0 = A.get(0), B.get(0)
        out = {0: a0 * b0} if a0 and b0 else {}
        if a0:
            out.update((i, a0 * c) for i, c in B.items() if 0 < i < start)
        out.update((i, A[i] * B[i]) for i in A.keys() & B.keys() if i >= start)
        return from_terms(n, "u", out)

    _plant_everywhere(monkeypatch, original, planted)
    failed = _failed_ids(("product-oracle",))
    assert {cid for cid in failed if "/u-product/" in cid} == {
        "product-oracle/n=3/u-product/u[0,%d]*e[0,0]" % q for q in range(3)}


def test_planted_span_block_entry_is_caught(monkeypatch):
    # At n = 3, B[1][2] = zeta^2 - 1; plant zeta^2.  The block keeps rank 2,
    # so only its square and the witnesses built from its inverse fail.
    original = le.span_block

    def planted(n):
        B = original(n)
        if n == 3:
            B[0][1] = B[0][1] + Cyc.one(3)
        return B

    _plant_everywhere(monkeypatch, original, planted)
    assert _failed_ids(("span",)) == {"span/n=3/block-square-pattern"} | {
        "span/n=3/witness/u[%d,%d]" % (l, q) for l in (1, 2) for q in range(3)}


def test_suites_pass_without_a_planted_defect():
    assert run_verify(3, 3, ("psi-ring", "adams-oracle", "product-oracle")).ok
    assert run_verify(3, 3, ("line-elements", "presentation", "resolution")).ok
