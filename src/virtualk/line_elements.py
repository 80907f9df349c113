"""The group of virtual line elements and its span of the whole ring.

A virtual line element is an invertible class whose k-th Adams image equals
its k-th power for every k.  In semisimple coordinates these are exactly the
classes 1 + sum_{q, l!=0} (zeta^(l f_q) - 1) u_l^q + sum_q beta_q u_0^q with
f_q in Z/n and scalar beta_q, so the group is parameterized by the pair
(f; beta) and multiplies componentwise.  The parameterized family spans the
whole localized ring, certified by the exact rank of a block-diagonal root
matrix together with explicit reconstruction witnesses.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .coords import Coords, _entry, from_canonical, grid, zero
from .cyclotomic import Cyc, zeta_pow
from .localization import u_adams, u_is_invertible, u_mul
from .records import Record, set_field


class LineElt(Record):
    """Parameters (f; beta) of a virtual line element: n, then n entries of f,
    which live in Z/n, and n scalars beta."""

    __slots__ = ("n", "f", "beta")

    def __init__(self, n: int, f: tuple[int, ...], beta: tuple[Cyc, ...]):
        if len(f) != n or len(beta) != n:
            raise ValueError("expected n entries in f and in beta")
        if any(not 0 <= v < n for v in f):
            raise ValueError("f entries must be reduced mod n")
        for b in beta:
            _entry(n, b)  # beta_q is the u[0,q] coordinate: a Cyc of order n
        set_field(self, "n", n)
        set_field(self, "f", f)
        set_field(self, "beta", beta)


def line_element(n: int, f: Iterable[int], beta: Iterable[Cyc | int | Fraction]) -> LineElt:
    fs = tuple(v % n for v in f)
    bs = tuple(b if isinstance(b, Cyc) else Cyc.rational(n, b) for b in beta)
    return LineElt(n, fs, bs)


def line_identity(n: int) -> LineElt:
    return line_element(n, [0] * n, [0] * n)


def sigma(n: int, i: int) -> LineElt:
    """Torsion generator: 1 in the i-th f slot."""
    f = [0] * n
    f[i] = 1
    return line_element(n, f, [0] * n)


def nu(n: int, j: int) -> LineElt:
    """Unipotent generator: 1 in the j-th beta slot."""
    beta = [0] * n
    beta[j] = 1
    return line_element(n, [0] * n, beta)


def line_realize(L: LineElt) -> Coords:
    """The class of L in semisimple coordinates: u[l,q] = zeta^(l f_q), u[0,q] = beta_q."""
    n = L.n
    out = {0: Cyc.one(n)}
    out.update((grid(n, 0, q), b) for q, b in enumerate(L.beta) if b)
    out.update((grid(n, l, q), zeta_pow(n, l * f)) for l in range(1, n) for q, f in enumerate(L.f))
    return from_canonical(n, "u", out)


def line_mul(a: LineElt, b: LineElt) -> LineElt:
    if a.n != b.n:
        raise ValueError("mixed weights")
    return line_element(
        a.n,
        (x + y for x, y in zip(a.f, b.f)),
        (x + y for x, y in zip(a.beta, b.beta)),
    )


def line_inverse(a: LineElt) -> LineElt:
    return line_element(a.n, (-x for x in a.f), (-x for x in a.beta))


class LineCertificate(Record):
    """``ok``, the ``reason`` when not, and the recovered ``params`` (a
    ``LineElt``) when so."""

    __slots__ = ("ok", "reason", "params")


def is_line_element(b: Coords, k_max: int | None = None) -> LineCertificate:
    """Decide membership in the line-element group, with parameter recovery.

    Checks invertibility and psi^k(b) = b^k for 2 <= k <= k_max (default 2n),
    then recovers (f; beta): the unit coefficient must be 1 and each column
    of the semisimple block must consist of the powers of one n-th root of
    unity.  A positive answer re-realizes the recovered parameters and
    demands exact equality, so it is unconditional.
    """
    b.check_kind("u")
    n = b.n
    if k_max is None:
        k_max = 2 * n
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    if not u_is_invertible(b):
        return LineCertificate(False, "not invertible in the localized ring", None)
    power = b
    for k in range(2, k_max + 1):
        power = u_mul(power, b)
        if u_adams(b, k) != power:
            return LineCertificate(
                False, "psi^%d does not equal the %d-th power" % (k, k), None
            )
    if b.terms[0] != Cyc.one(n):
        return LineCertificate(False, "unit coefficient is not 1", None)
    roots = [zeta_pow(n, t) for t in range(n)]
    f = []
    for q in range(n):
        val = b.terms[grid(n, 1, q)]
        try:
            fq = roots.index(val)
        except ValueError:
            return LineCertificate(
                False, "column %d is not generated by a root of unity" % q, None
            )
        for l in range(2, n):
            if b.terms[grid(n, l, q)] != zeta_pow(n, l * fq):
                return LineCertificate(
                    False, "column %d does not follow the power law" % q, None
                )
        f.append(fq)
    params = line_element(n, f, [b.terms.get(grid(n, 0, q), Cyc.zero(n)) for q in range(n)])
    if line_realize(params) != b:
        return LineCertificate(False, "parameter recovery failed to re-realize", None)
    return LineCertificate(True, "", params)


# ---------------------------------------------------------------------------
# Span of the ring by line elements.


def span_block(n: int) -> list[list[Cyc]]:
    """The (n-1) x (n-1) block B with B[r][c] = zeta^(rc) - 1 (indices from 1)."""
    one = Cyc.one(n)
    return [
        [zeta_pow(n, r * c) - one for c in range(1, n)] for r in range(1, n)
    ]


Combo = tuple[tuple[LineElt, Cyc], ...]


class SpanWitnesses(Record):
    """Exact rank plus linear combinations of line elements hitting each basis
    vector: n, the rank, and a dict from basis label to ``Combo``."""

    __slots__ = ("n", "rank", "combos")


def _axis_line(n: int, q: int, alpha: int) -> LineElt:
    f = [0] * n
    f[q] = alpha % n
    return line_element(n, f, [0] * n)


def span_rank(n: int) -> SpanWitnesses:
    """Exact rank of the span matrix and reconstruction witnesses.

    The span matrix has rows (q, l) and columns (q', alpha), with entry
    zeta^(l alpha) - 1 when q = q' and 0 otherwise: n copies of the block B
    on its diagonal, so its rank is n * rank(B).  Witnesses express 1, every
    u_0^q (as nu_q minus the identity element) and every u_l^q (through the
    inverse of the block B) as combinations of realized line elements.
    """
    from . import linalg  # only the span suite needs elimination

    B = span_block(n)
    r = n * linalg.rank(B)
    Binv = linalg.inverse(B)
    identity = line_identity(n)
    combos: dict[str, Combo] = {"1": ((identity, Cyc.one(n)),)}
    for q in range(n):
        combos["u[0,%d]" % q] = ((nu(n, q), Cyc.one(n)), (identity, -Cyc.one(n)))
    for q in range(n):
        for l in range(1, n):
            terms = []
            total = Cyc.zero(n)
            for alpha in range(1, n):
                c = Binv[alpha - 1][l - 1]
                total = total + c
                if c:
                    terms.append((_axis_line(n, q, alpha), c))
            terms.append((identity, -total))
            combos["u[%d,%d]" % (l, q)] = tuple(terms)
    return SpanWitnesses(n, r, combos)


def realize_combo(n: int, combo: Combo) -> Coords:
    total = zero(n, "u")
    for L, c in combo:
        total = total + line_realize(L).scale(c)
    return total
