"""Presentation of the ring by line elements and comparison with the resolution.

The line elements sigma_i (torsion) and nu_j (unipotent) generate the whole
localized ring subject to four relation families; projecting away the
semisimple rows (the map Gamma_0 onto the l = 0 block) kills every sigma_i
and leaves the ring presented by unipotent generators with square-zero
augmentation ideal.  That quotient is the ordinary K-theory of the crepant
resolution of the cotangent bundle, and the identification respects the
Adams operations on both sides.

A resolution class is a ``Coords`` of kind "res": a*1 + sum_q b_q*e[q], where
the e[q] = nuhat_q - 1 span a square-zero ideal.  The two verifiers yield
each relation as (name, lhs, rhs) with both sides unrendered; ``verify``
compares and renders them like the relations of its own suites, one at a
time, so the sides of all n^4 ring-map relations are never held at once.
"""

from __future__ import annotations

from typing import Iterator

from .coords import Coords, basis, basis_vectors, from_terms, gen, grid, power, unit, zero
from .linalg import SpanAccumulator
from .line_elements import line_element, line_realize, nu, sigma
from .localization import square_zero_terms, u_adams, u_mul


def resolution_mul(x: Coords, y: Coords) -> Coords:
    """(a, b).(a', b') = (a a', a b' + a' b): the square-zero product rule."""
    x.check_kind("res")
    x.check(y)
    return from_terms(x.n, "res", square_zero_terms(x.terms, y.terms, x.n + 1))


def resolution_adams(x: Coords, k: int) -> Coords:
    """psi^k fixes the unit and scales the square-zero part by k."""
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    x.check_kind("res")
    return from_terms(x.n, "res", {i: c.scale_int(k) if i else c for i, c in x.terms.items()})


def gamma0_project(b: Coords) -> Coords:
    """Projection onto the l = 0 block: keep 1_00 and the u_0^q coordinates."""
    b.check_kind("u")
    return from_terms(b.n, "res", {i: c for i, c in b.terms.items() if i < grid(b.n, 1, 0)})


#: A relation and its two sides, equal when it holds: (name, lhs, rhs).
Relation = tuple[str, object, object]


def verify_presentation(n: int) -> Iterator[Relation]:
    """The four relation families on realized generators, then the rank of
    the span of generator monomials of total degree <= n+1 against n^2+1.

    n is checked when called; the relations are yielded as iterated."""
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    return _presentation_relations(n)


def _presentation_relations(n: int) -> Iterator[Relation]:
    one = unit(n, "u")
    sigmas = [line_realize(sigma(n, i)) for i in range(n)]
    nus = [line_realize(nu(n, j)) for j in range(n)]
    for i in range(n):
        yield "sigma[%d]^%d = 1" % (i, n), power(sigmas[i], n, u_mul), one
    for i in range(n):
        for j in range(n):
            yield ("(nu[%d]-1)*(nu[%d]-1) = 0" % (i, j),
                   u_mul(nus[i] - one, nus[j] - one), zero(n, "u"))
    for i in range(n):
        for j in range(n):
            yield ("sigma[%d]*(nu[%d]-1) = nu[%d]-1" % (i, j, j),
                   u_mul(sigmas[i], nus[j] - one), nus[j] - one)
    for i in range(n):
        for j in range(n):
            if i != j:
                yield ("(sigma[%d]-1)*(sigma[%d]-1) = 0" % (i, j),
                       u_mul(sigmas[i] - one, sigmas[j] - one), zero(n, "u"))
    yield "generator monomials of degree <= %d span" % (n + 1), _generation_rank(n), n * n + 1


def _generation_rank(n: int) -> int:
    """Rank of the span of the powers sigma_i^(+-d), nu_j^(+-d) for d <= n+1.

    The powers are inserted in ascending degree after the unit, and the scan
    stops as soon as the span is full.  They are part of the monomials of
    degree <= n+1 in the generators, so a full span certifies that those
    monomials span.
    """
    full = n * n + 1
    acc = SpanAccumulator()
    acc.add(unit(n, "u").coeffs)
    for deg in range(1, n + 2):
        if acc.rank == full:
            break
        for torsion in (True, False):
            for i in range(n):
                for e in (deg, -deg):
                    slot = [0] * n
                    slot[i] = e
                    f, beta = (slot, [0] * n) if torsion else ([0] * n, slot)
                    acc.add(line_realize(line_element(n, f, beta)).coeffs)
    return acc.rank


def verify_resolution_isomorphism(n: int, k_max: int) -> Iterator[Relation]:
    """The relations making the l = 0 block with the localized product
    isomorphic, as a ring with Adams operations, to the resolution K-theory.

    The map Theta sends 1_00 to 1 and u_0^q to nuhat_q - 1.  The relations:
    dimensions agree; Theta is multiplicative on all block-0 basis pairs;
    the projection Gamma_0 is a ring map on all semisimple basis pairs;
    Gamma_0 intertwines the Adams operations for every basis element and
    k <= k_max; and the composite onto the resolution is surjective, with
    explicit preimages of the resolution basis.  n and k_max are checked
    when called.
    """
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    if k_max < 1:
        raise ValueError("k_max must be at least 1")
    return _resolution_relations(n, k_max)


def _resolution_relations(n: int, k_max: int) -> Iterator[Relation]:
    vectors = basis_vectors(n, "u")
    block0 = vectors[:grid(n, 1, 0)]
    yield "dimension of l=0 block vs resolution", len(block0), len(basis(n, "res").labels)
    for name, pairs in (("Theta multiplicative", block0), ("Gamma_0 ring map", vectors)):
        for la, ea in pairs:
            for lb, eb in pairs:
                yield ("%s on %s,%s" % (name, la, lb), gamma0_project(u_mul(ea, eb)),
                       resolution_mul(gamma0_project(ea), gamma0_project(eb)))
    for label, e in vectors:
        for k in range(1, k_max + 1):
            yield ("Adams equivariance on %s, k=%d" % (label, k), gamma0_project(u_adams(e, k)),
                   resolution_adams(gamma0_project(e), k))
    # Surjectivity: explicit preimages of the resolution basis.
    one = unit(n, "res")
    yield "preimage of 1", gamma0_project(unit(n, "u")), one
    for q in range(n):
        yield ("preimage of nuhat[%d]-1" % q, gamma0_project(gen(n, "u", "u[0,%d]" % q)),
               (one + gen(n, "res", "e[%d]" % q)) - one)
