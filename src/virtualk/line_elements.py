"""The group of virtual line elements and its span of the whole ring.

A virtual line element is an invertible class whose k-th Adams image equals
its k-th power for every k.  In semisimple coordinates these are exactly the
classes 1 + sum_{q, l!=0} (zeta^(l f_q) - 1) u_l^q + sum_q beta_q u_0^q with
f_q in Z/n and scalar beta_q, so the group is parameterized by the pair
(f; beta) and multiplies componentwise.  The parameterized family spans the
whole localized ring, certified by the exact rank of a block-diagonal root
matrix together with explicit reconstruction witnesses.

Membership is decided by the parameters.  Every class of the family obeys
psi^k(b) = b^k for every k by arithmetic on exponents mod n: psi^k reads
u[s,q] from u[ks mod n, q], or from the unit coordinate when ks = 0 mod n,
so it sends zeta^(s f_q) to zeta^(ks f_q) = (zeta^(s f_q))^k; the unit
coordinate is 1 = 1^k; and row 0 is k beta_q on both sides, since the
beta_q u_0^q square to zero.  Conversely, psi^k(b) = b^k for k = 1..n forces
the unit coordinate to be 1, b[k,q] = b[1,q]^k and b[1,q]^n = 1, so a class
outside the family fails the power law at some k <= n.  Hence
``is_line_element`` accepts a class once its (f; beta) are recovered, and
computes powers, for k = 2..n only, to name why a class is rejected.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .coords import Coords, _entry, from_numerators, from_terms, grid
from .cyclotomic import Cyc, _rotation_sums, _times, phi_degree, zeta_pow
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
    return from_terms(n, "u", out)


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


def is_line_element(b: Coords) -> LineCertificate:
    """Decide membership in the line-element group, with parameter recovery.

    An invertible class is accepted when its (f; beta) can be recovered: the
    unit coefficient must be 1 and each column of the semisimple block must
    consist of the powers of one n-th root of unity.  Recovery has then
    matched all n^2 + 1 coordinates with the realization of (f; beta): the
    unit with 1, each u[l,q] with l >= 1 with zeta^(l f_q), and row 0 is
    read verbatim as beta, so line_realize(params) == b needs no check.
    No power is computed for it either: the recovered class obeys
    psi^k(b) = b^k for every k by arithmetic on exponents mod n, as
    u[s,q] = zeta^(s f_q) and psi^k reads zeta^(ks f_q) = (zeta^(s f_q))^k,
    the unit coordinate is 1 = 1^k, and row 0 is k beta_q on both sides.

    Any other invertible class is rejected with the first k in 2..n for
    which psi^k(b) != b^k.  The scan stops at n by the converse (module
    docstring): psi^k(b) = b^k for k = 1..n forces the unit coordinate to be
    1, b[k,q] = b[1,q]^k and b[1,q]^n = 1, which are exactly the conditions
    recovery reads.  A class that passes the scan unrecovered contradicts
    that argument, so it raises ArithmeticError.
    """
    b.check_kind("u")
    n = b.n
    if not u_is_invertible(b):
        return LineCertificate(False, "not invertible in the localized ring", None)
    params = _recover(b)
    if params is not None:
        return LineCertificate(True, "", params)
    power = b
    for k in range(2, n + 1):
        power = u_mul(power, b)
        if u_adams(b, k) != power:
            return LineCertificate(
                False, "psi^%d does not equal the %d-th power" % (k, k), None
            )
    raise ArithmeticError(
        "psi^k(b) = b^k for k = 2..%d, yet (f; beta) were not recovered" % n)


def _recover(b: Coords) -> LineElt | None:
    # (f; beta) read off an invertible b, or None when b is not of that form.
    n, nums = b.n, b.nums
    roots = [tuple(b.den * x for x in zeta_pow(n, t).num) for t in range(n)]  # as stored
    if nums[0] != roots[0]:
        return None
    f = []
    for q in range(n):
        try:
            fq = roots.index(nums[grid(n, 1, q)])
        except ValueError:
            return None
        if any(nums[grid(n, l, q)] != roots[l * fq % n] for l in range(2, n)):
            return None
        f.append(fq)
    return line_element(n, f, [b.coord(grid(n, 0, q)) for q in range(n)])


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
    """The sum of c * line_realize(L) over the (L, c) of ``combo``.

    The c and beta_q are ``Cyc``, brought once to one common denominator:
    the unit coordinate adds the c, row 0 the c * beta_q, and u[l,q] the
    c * zeta^(l f_q), which ``_rotation_sums`` gathers per column q with the
    c of equal f_q added first; the sum leaves through ``from_numerators``.
    """
    den = 1
    for L, c in combo:
        den = math.lcm(den, c.den, *(c.den * b.den for b in L.beta if b))
    pad = [0] * (n - phi_degree(n))
    sums, columns = {0: [0] * phi_degree(n)}, [{} for _ in range(n)]
    for L, c in combo:
        num = [x * (den // c.den) for x in c.num]
        sums[0] = list(map(operator.add, sums[0], num))
        for q, b in enumerate(L.beta):
            if b:
                p = [x * (den // (c.den * b.den)) for x in _times(n, c.num, b.num)]
                i = grid(n, 0, q)
                sums[i] = list(map(operator.add, sums[i], p)) if i in sums else p
        v = num + pad  # c in Z[x]/(x^n - 1), where zeta^t is a rotation
        for column, fq in zip(columns, L.f):
            s = column.get(fq)
            column[fq] = v if s is None else list(map(operator.add, s, v))
    for q, column in enumerate(columns):
        _rotation_sums(n, sums, column.items(), 1, range(grid(n, 1, q), grid(n, n, q), n),
                       range(1, n))
    return from_numerators(n, "u", sums, den)
