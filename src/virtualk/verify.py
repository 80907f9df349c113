"""Machine verification suites for every ring identity the engine exposes.

Each suite re-derives a family of identities from an independent route and
compares exactly.  The product and Adams oracles transport the polynomial
ground truth through the decomposition map and compare with the closed-form
tables; the psi-ring suite checks the operation axioms on the monomial
basis; the remaining suites certify line elements, their span, the ring
presentation and the resolution comparison.  A report is deterministic for
fixed inputs: wall-clock timing is kept out of the canonical serialization.

Every suite is a generator ``(n, k_max) -> Iterator[Relation]`` that yields
(name, lhs, rhs); ``_checks`` alone compares and renders relations into
``Check`` records.  ``SUITES`` maps each suite name to a builder
``(n, k_max, render_passing=True) -> list[Check]`` over its generator;
``run_verify`` resolves the default k_max = 2n before it calls one.
A report built with ``render_passing=False`` compares every relation but
renders the sides of failing checks only, which is all the text summary
prints; it cannot be serialized to JSON.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Iterable, Iterator

from .coords import Coords, basis_vectors, gen, unit, zero
from .cyclotomic import Cyc, phi_degree
from .line_elements import (
    LineElt,
    is_line_element,
    line_element,
    line_inverse,
    line_mul,
    line_realize,
    nu,
    realize_combo,
    sigma,
    span_block,
    span_rank,
)
from .localization import (
    from_u_basis,
    gamma,
    gamma_inverse,
    loc_adams,
    loc_augmentation,
    loc_mul,
    to_u_basis,
    u_adams,
    u_mul,
)
from .presentation import Relation, verify_presentation, verify_resolution_isomorphism
from .virtual_ring import (
    k_monomial,
    lambda_from_adams,
    virtual_adams,
    virtual_augmentation,
    virtual_mul,
)

_SEED = 0x5EC7


@dataclass(slots=True)
class Check:
    id: str
    status: str
    lhs: str
    rhs: str

    @property
    def passed(self) -> bool:
        return self.status == "pass"


@dataclass
class Report:
    """Checks in run order; ``failures`` is filled alongside ``checks``.

    ``render_passing`` is False when passing checks carry empty sides.
    """

    n_min: int
    n_max: int
    k_max: int | None
    suites: tuple[str, ...]
    render_passing: bool = True
    checks: list[Check] = field(default_factory=list)
    failures: list[Check] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self) -> dict:
        if not self.render_passing:
            raise ValueError("the report was built without the sides of passing checks")
        return {
            "n_min": self.n_min,
            "n_max": self.n_max,
            "k_max": self.k_max,
            "suites": list(self.suites),
            "summary": {"checks": len(self.checks), "failures": len(self.failures)},
            "checks": [
                {"id": c.id, "status": c.status, "lhs": c.lhs, "rhs": c.rhs}
                for c in self.checks
            ],
            "timing": None,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def text_summary(self, verbose: bool = False) -> str:
        lines = []
        bad = Counter(c.id.split("/", 1)[0] for c in self.failures)
        for name, count in Counter(c.id.split("/", 1)[0] for c in self.checks).items():
            mark = "FAIL" if bad[name] else "PASS"
            lines.append("[%s] %-14s %d checks, %d failures" % (mark, name, count, bad[name]))
        if verbose:
            for c in self.checks:
                lines.append("  [%s] %s" % ("PASS" if c.passed else "FAIL", c.id))
                if not c.passed:
                    lines.append("      lhs: %s" % c.lhs)
                    lines.append("      rhs: %s" % c.rhs)
        else:
            for c in self.failures[:50]:
                lines.append("  FAIL %s" % c.id)
                lines.append("      lhs: %s" % c.lhs)
                lines.append("      rhs: %s" % c.rhs)
            if len(self.failures) > 50:
                lines.append("  ... %d further failures" % (len(self.failures) - 50))
        lines.append(
            "total: %d checks, %d failures (%.2fs)"
            % (len(self.checks), len(self.failures), self.elapsed)
        )
        return "\n".join(lines)


def _checks(suite: str, n: int, relations: Iterable[Relation],
            render_passing: bool = True) -> list[Check]:
    """One check ``suite/n=N/name`` per relation (name, lhs, rhs).

    The sides are compared exactly and rendered by ``str``, which renders a
    Coords in the labelled form of its own basis.  Every side type renders
    equal values identically, so a passing pair renders once.  With
    ``render_passing`` False a passing check keeps empty sides.
    """
    out: list[Check] = []
    prefix = "%s/n=%d/" % (suite, n)
    for name, lhs, rhs in relations:
        if lhs == rhs:
            text = str(lhs) if render_passing else ""
            out.append(Check(prefix + name, "pass", text, text))
        else:
            out.append(Check(prefix + name, "fail", str(lhs), str(rhs)))
    return out


# ---------------------------------------------------------------------------
# product-oracle


def relations_gamma_roundtrip(n: int, k_max: int) -> Iterator[Relation]:
    for label, e in basis_vectors(n, "loc"):
        yield "roundtrip-loc/%s" % label, gamma(gamma_inverse(e)), e
    for label, a in basis_vectors(n, "sector"):
        yield "roundtrip-sector/%s" % label, gamma_inverse(gamma(a)), a


def relations_product_table(n: int, k_max: int) -> Iterator[Relation]:
    """Localized product table against the transported polynomial product."""
    basis = basis_vectors(n, "loc")
    pre = [(label, e, gamma_inverse(e)) for label, e in basis]
    for i, (la, ea, ka) in enumerate(pre):
        for lb, eb, kb in pre[i:]:
            yield "pair/%s*%s" % (la, lb), loc_mul(ea, eb), gamma(virtual_mul(ka, kb))
    for la, ea in basis:
        for lb, eb in basis:
            if la < lb:
                yield "symmetry/%s*%s" % (la, lb), loc_mul(ea, eb), loc_mul(eb, ea)
    # Semisimple structure constants: Kronecker products and square-zero row 0.
    ubasis = basis_vectors(n, "u")
    for la, ua in ubasis:
        for lb, ub in ubasis:
            prod = u_mul(ua, ub)
            if la == "e[0,0]" and lb == "e[0,0]":
                expected = gen(n, "u", "e[0,0]")
            elif la == "e[0,0]":
                expected = ub if lb.startswith("u[0,") else zero(n, "u")
            elif lb == "e[0,0]":
                expected = ua if la.startswith("u[0,") else zero(n, "u")
            else:
                expected = ua if la == lb and not la.startswith("u[0,") else zero(n, "u")
            yield "u-product/%s*%s" % (la, lb), prod, expected
    # The two coordinate systems agree on products of dense classes.
    rng = random.Random(_SEED + n)
    for trial in range(8):
        a = _random_u(rng, n)
        b = _random_u(rng, n)
        yield ("u-loc-consistency/%d" % trial,
               u_mul(a, b), to_u_basis(loc_mul(from_u_basis(a), from_u_basis(b))))
    # Remaining presentation-ideal families: the unit decomposes into the row
    # idempotents, rows sum to their idempotent, idempotents are orthogonal,
    # and each row idempotent fixes exactly its own semisimple generators.
    unit_decomp = gen(n, "loc", "e[0,0]")
    for l in range(1, n):
        unit_decomp = unit_decomp + gen(n, "loc", "e[0,%d]" % l)
    yield "ideal/unit-decomposition", unit_decomp, unit(n, "loc")
    for l in range(1, n):
        total = zero(n, "u")
        for q in range(n):
            total = total + gen(n, "u", "u[%d,%d]" % (l, q))
        yield "ideal/row-sum/l=%d" % l, from_u_basis(total), gen(n, "loc", "e[0,%d]" % l)
    ugens = [[from_u_basis(gen(n, "u", "u[%d,%d]" % (l2, q))) for q in range(n)]
             for l2 in range(n)]
    for l1 in range(n):
        e1 = gen(n, "loc", "e[0,%d]" % l1)
        for l2 in range(n):
            expected = e1 if l1 == l2 else zero(n, "loc")
            yield ("ideal/idempotents/l=%d,%d" % (l1, l2),
                   loc_mul(e1, gen(n, "loc", "e[0,%d]" % l2)), expected)
        for l2 in range(n):
            for q, ug in enumerate(ugens[l2]):
                expected = ug if l1 == l2 else zero(n, "loc")
                yield "ideal/row-unit/u[%d,%d]*e[0,%d]" % (l2, q, l1), loc_mul(ug, e1), expected
    # Powers of x_00 collapse linearly.
    x = gen(n, "loc", "xe[0,0]")
    e00 = gen(n, "loc", "e[0,0]")
    power = x
    for k in range(2, 11):
        power = loc_mul(power, x)
        yield "x00-power/k=%d" % k, power, x.scale(k) - e00.scale(k - 1)


def relations_product_oracle(n: int, k_max: int) -> Iterator[Relation]:
    yield from relations_gamma_roundtrip(n, k_max)
    yield from relations_product_table(n, k_max)


def _random_cyc(rng: random.Random, n: int) -> Cyc:
    return Cyc(n, [rng.randint(-3, 3) for _ in range(phi_degree(n))], rng.choice([1, 1, 2, 3]))


def _random_u(rng: random.Random, n: int) -> Coords:
    # Draw order (grid first, then e[0,0]) fixes the seeded values in the report.
    grid = [_random_cyc(rng, n) for _ in range(n * n)]
    return Coords(n, "u", [_random_cyc(rng, n)] + grid)


# ---------------------------------------------------------------------------
# adams-oracle


def relations_adams_oracle(n: int, k_max: int) -> Iterator[Relation]:
    pre = [(label, e, gamma_inverse(e)) for label, e in basis_vectors(n, "loc")]
    for k in range(1, k_max + 1):
        for label, e, ke in pre:
            yield "loc/%s/k=%d" % (label, k), loc_adams(e, k), gamma(virtual_adams(ke, k))
    upre = [(label, b, from_u_basis(b)) for label, b in basis_vectors(n, "u")]
    for k in range(1, k_max + 1):
        for label, b, lb in upre:
            yield "u/%s/k=%d" % (label, k), u_adams(b, k), to_u_basis(loc_adams(lb, k))
    # The Adams operations are multiplicative for the virtual product; this
    # family touches every Euler case, so it is sensitive to the case table.
    monomials = [k_monomial(n, m, 1) for m in range(n)]
    psi = {k: [virtual_adams(a, k) for a in monomials] for k in (2, 3)}
    for m1, a in enumerate(monomials):
        for m2, b in enumerate(monomials):
            ab = virtual_mul(a, b)
            for k in (2, 3):
                yield ("psi-mult/x[%d]*x[%d]/k=%d" % (m1, m2, k), virtual_adams(ab, k),
                       virtual_mul(psi[k][m1], psi[k][m2]))


# ---------------------------------------------------------------------------
# psi-ring


def relations_psi_ring(n: int, k_max: int) -> Iterator[Relation]:
    basis = basis_vectors(n, "sector")
    one = unit(n, "sector")
    # psi^k of every basis vector, once, for exactly the k the families below read.
    ks = {k * l for k in range(1, 5) for l in range(1, 5)} | set(range(1, 7))
    psi = {k: [virtual_adams(a, k) for _, a in basis] for k in sorted(ks)}
    for i, (label, a) in enumerate(basis):
        yield "identity-op/%s" % label, psi[1][i], a
        yield "unit-law/%s" % label, virtual_mul(one, a), a
    for k in range(1, 5):
        for l in range(1, 5):
            for i, (label, _) in enumerate(basis):
                yield ("composition/%s/k=%d,l=%d" % (label, k, l),
                       virtual_adams(psi[l][i], k), psi[k * l][i])
    for i, (la, a) in enumerate(basis):
        for j, (lb, b) in enumerate(basis[i:], i):
            ab = virtual_mul(a, b)
            yield "commutativity/%s*%s" % (la, lb), ab, virtual_mul(b, a)
            for k in range(2, 5):
                yield ("homomorphism/%s*%s/k=%d" % (la, lb, k), virtual_adams(ab, k),
                       virtual_mul(psi[k][i], psi[k][j]))
    for i, (label, a) in enumerate(basis):
        ea = virtual_augmentation(a)
        for k in range(1, 7):
            yield "augmentation/eps-psi/%s/k=%d" % (label, k), virtual_augmentation(psi[k][i]), ea
            yield "augmentation/psi-eps/%s/k=%d" % (label, k), virtual_adams(ea, k), ea
    if n <= 4:
        triples = itertools.product(basis, repeat=3)
    else:
        rng = random.Random(_SEED + 31 * n)
        triples = [[basis[rng.randrange(len(basis))] for _ in range(3)] for _ in range(40)]
    for (la, a), (lb, b), (lc, c) in triples:
        yield ("associativity/%s*%s*%s" % (la, lb, lc),
               virtual_mul(virtual_mul(a, b), c), virtual_mul(a, virtual_mul(b, c)))


# ---------------------------------------------------------------------------
# line-elements


def _random_line(rng: random.Random, n: int) -> LineElt:
    f = [rng.randrange(n) for _ in range(n)]
    beta = [_random_cyc(rng, n) for _ in range(n)]
    return line_element(n, f, beta)


def relations_line_elements(n: int, k_max: int) -> Iterator[Relation]:
    rng = random.Random(_SEED + 7 * n)
    gens = [("sigma[%d]" % i, sigma(n, i)) for i in range(n)]
    gens += [("nu[%d]" % j, nu(n, j)) for j in range(n)]
    gens += [("random[%d]" % t, _random_line(rng, n)) for t in range(4)]
    for label, L in gens:
        b = line_realize(L)
        power = b
        for k in range(2, k_max + 1):
            power = u_mul(power, b)
            yield "power-law/%s/k=%d" % (label, k), u_adams(b, k), power
        cert = is_line_element(b, k_max)
        yield ("certificate/%s" % label, "ok=%s params=%s" % (cert.ok, cert.params),
               "ok=True params=%s" % (L,))
        yield "inverse/%s" % label, u_mul(b, line_realize(line_inverse(L))), unit(n, "u")
    for la, La in gens[: n + 2]:
        for lb, Lb in gens[: n + 2]:
            yield ("group-law/%s*%s" % (la, lb), line_realize(line_mul(La, Lb)),
                   u_mul(line_realize(La), line_realize(Lb)))
    for i in range(n):
        torsion = sigma(n, i)
        power = torsion
        for _ in range(n - 1):
            power = line_mul(power, torsion)
        yield "torsion/sigma[%d]^%d" % (i, n), line_realize(power), unit(n, "u")
    # Failure modes: the zero-unit class and a scaled unit are not line elements.
    yield "reject-noninvertible", is_line_element(gen(n, "u", "u[1,0]"), k_max).ok, False
    yield "reject-scaled-unit", is_line_element(unit(n, "u").scale(2), k_max).ok, False
    if n <= 5:
        for t in range(20):
            L = _random_line(rng, n)
            a = gamma_inverse(from_u_basis(line_realize(L)))
            for i in (2, 3):
                yield "lambda-positivity/%d/i=%d" % (t, i), lambda_from_adams(a, i).is_zero(), True


# ---------------------------------------------------------------------------
# span


def relations_span(n: int, k_max: int) -> Iterator[Relation]:
    witnesses = span_rank(n)
    yield "rank", witnesses.rank, n * (n - 1)
    B = span_block(n)
    sq = [[sum((B[r][t] * B[t][c] for t in range(n - 1)), Cyc.zero(n))
           for c in range(n - 1)] for r in range(n - 1)]
    ok = all(
        sq[r][c] == (2 * n if (r + 1) + (c + 1) == n else n)
        for r in range(n - 1)
        for c in range(n - 1)
    )
    yield "block-square-pattern", ok, True
    expected = {"1": unit(n, "u")}
    for q in range(n):
        for l in range(n):
            expected["u[%d,%d]" % (l, q)] = gen(n, "u", "u[%d,%d]" % (l, q))
    for key, target in expected.items():
        yield "witness/%s" % key, realize_combo(n, witnesses.combos[key]), target


# ---------------------------------------------------------------------------
# presentation and resolution


def relations_presentation(n: int, k_max: int) -> Iterator[Relation]:
    yield from verify_presentation(n)



def relations_resolution(n: int, k_max: int) -> Iterator[Relation]:
    yield from verify_resolution_isomorphism(n, k_max)
    # Augmentation compatibility across the decomposition map.
    for label, a in basis_vectors(n, "sector"):
        yield ("augmentation-transport/%s" % label,
               gamma(virtual_augmentation(a)), loc_augmentation(gamma(a)))
        ea = virtual_augmentation(a)
        for k in range(1, k_max + 1):
            yield ("augmentation-stability/%s/k=%d" % (label, k),
                   virtual_augmentation(virtual_adams(a, k)), ea)


# ---------------------------------------------------------------------------
# Runner


def _run(suite: str, relations, n: int, k_max: int, render_passing: bool = True) -> list[Check]:
    return _checks(suite, n, relations(n, k_max), render_passing)


SUITES = {suite: partial(_run, suite, relations) for suite, relations in (
    ("product-oracle", relations_product_oracle),
    ("adams-oracle", relations_adams_oracle),
    ("psi-ring", relations_psi_ring),
    ("line-elements", relations_line_elements),
    ("span", relations_span),
    ("presentation", relations_presentation),
    ("resolution", relations_resolution),
)}


def select_suites(suites: tuple[str, ...]) -> tuple[str, ...]:
    """The suite names that ``suites`` selects, in order and each once; "all"
    stands for every suite.  Raises ValueError for an unknown name."""
    names = []
    for s in suites:
        if s == "all":
            names.extend(SUITES)
        elif s in SUITES:
            names.append(s)
        else:
            raise ValueError("unknown suite %r (choose from %s)" % (s, ", ".join(SUITES)))
    return tuple(dict.fromkeys(names))


def run_verify(n_min: int = 2, n_max: int = 5, suites: tuple[str, ...] = ("all",),
               k_max: int | None = None, render_passing: bool = True) -> Report:
    """Run the selected suites over n_min..n_max and collect a report.

    ``k_max`` of None means 2n per weight; any other value must be at least 2.
    With ``render_passing`` False the sides of passing checks stay empty, so
    the report has the text summary but no JSON form.
    """
    if not 2 <= n_min <= n_max:
        raise ValueError("need 2 <= n_min <= n_max")
    if k_max is not None and k_max < 2:
        raise ValueError("k_max must be at least 2")
    names = select_suites(suites)
    report = Report(n_min, n_max, k_max, names, render_passing)
    start = time.perf_counter()
    for n in range(n_min, n_max + 1):
        k = 2 * n if k_max is None else k_max
        for name in names:
            checks = SUITES[name](n, k, render_passing=render_passing)
            report.checks.extend(checks)
            report.failures.extend(c for c in checks if not c.passed)
    report.elapsed = time.perf_counter() - start
    return report
