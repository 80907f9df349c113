"""Direct-sum decomposition of the inertial K-theory at the maximal ideals of R(C*).

The decomposition map Gamma evaluates each sector representative at every
n-th root of unity; the block over (m, l) = (0, 0) is two-dimensional because
the corresponding local ring is cut out by (x - 1)^2, so that block stores
the 2-jet (value and derivative) at 1.  ``gamma_inverse`` realizes the four
closed-form preimages of the block generators and extends linearly, with
(u^n - 1)/(u - zeta^l) always expanded by the inverse DFT;
no rational-function arithmetic exists anywhere.

Every map and product here but ``u_inverse`` reads a class's stored
numerators over its one denominator and leaves through one
``coords.from_numerators``.  Gamma, its inverse and the changes to and from
the semisimple basis are discrete Fourier transforms over Z[zeta_n]
(``cyclotomic._rotation_sums``), one per sector or row of ``_blocks``, plus
closed-form terms on the block (0,0).  1/w_l = 1/(1 - zeta^(-l)) exists
once, as the integer matrix of n/w_l (``_inverse_weights``), so no table
inverts a scalar.

``loc_mul`` is the localized product table: the products of the meeting
coordinates' numerators are scattered through its entries, integers and the
weights w_l and w_l^2 in Z[zeta_n] (``cyclotomic._scatter``).  ``loc_adams``
and ``u_adams`` are the Adams operations, the pullback along s -> k*s (mod n):
each output coordinate with character index s reads the input coordinate with
index k*s mod n.  They compute it from the input side: each stored coordinate
with index l is written to every s of its preimage set {s : k*s = l (mod n)}
(``_preimages``, one table per n and k mod n), so their cost follows the
stored terms, not the n^2 slots.  Beyond k mod n they depend on k only through
the linear factors on the untwisted column and on u_0^q.  Localized classes
are ``Coords`` of kind "loc"; kind "u" is the semisimple coordinate system:
idempotents u_l^q for l != 0 plus the square-zero elements u_0^q and the block
unit 1_00, in which the product is diagonal and line-element computations are
immediate.  Both index their n x n grid through ``coords.grid``.  The per-n
tables are built lazily on first use (``functools.cache``) from the closed
forms in their docstrings; nothing is built at import.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from functools import cache
from operator import add, mul, sub

from .coords import (Coords, Sparse, basis, from_numerators, from_terms, grid, sector_start,
                     sparse, unit)
from .cyclotomic import (Cyc, _canonical, _reduce, _rotation_sums, _scatter, _times, phi_degree,
                         zeta_pow)


def _w(n: int, l: int) -> Cyc:
    # w_l = 1 - zeta^(-l), the twisted-row structure constant.
    return Cyc.one(n) - zeta_pow(n, -l)


def _blocks(n: int, items: Iterable[tuple[int, int, Sequence[int]]]
            ) -> dict[int, tuple[list[int], list[list[int]]]]:
    # (block, index, numerators) triples, all over the class's denominator,
    # grouped by block in order of first appearance:
    # the indices and the numerators padded with zeros to length n, the input
    # form of ``cyclotomic._rotation_sums``.
    pad, out = [0] * (n - phi_degree(n)), {}
    for block, index, num in items:
        indices, vectors = out.setdefault(block, ([], []))
        indices.append(index)
        vectors.append([*num, *pad])
    return out


@cache
def _inverse_weights(n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """For each l = 1 .. n-1, multiplication by n/w_l as an integer matrix.

    n/w_l = n/(1 - zeta^(-l)) = -sum_k k zeta^(-lk) (k = 0 .. n-1) lies in
    Z[zeta_n]; column i holds coefficient i of zeta^p * n/w_l for
    p = 0 .. deg(Phi_n) - 1.
    """
    deg, out = phi_degree(n), []
    for l in range(1, n):
        rows = []
        for p in range(deg):
            coeffs = [0] * n
            for k in range(n):
                coeffs[(p - l * k) % n] -= k
            rows.append(_reduce(n, coeffs))
        out.append(tuple(zip(*rows)))
    return tuple(out)


def _weighted(num: list[int], columns: tuple[tuple[int, ...], ...]) -> list[int]:
    # The numerators of num times the weight whose matrix has these columns.
    return [sum(map(mul, num, col)) for col in columns]


@cache
def _adams_weight(n: int, l: int, s: int) -> Cyc:
    # (zeta^(-l) - 1)/(zeta^(-s) - 1) = w_l / w_s = w_l * (n/w_s) / n, the
    # factor 1_ml picks up on its way to 1_ms under psi^k when k*s = l (mod n).
    return _canonical(n, _weighted(_w(n, l).num, _inverse_weights(n)[s - 1]), n)


# ---------------------------------------------------------------------------
# The decomposition map and its closed-form inverse.  Both are discrete
# Fourier transforms over Z[zeta_n], one per sector, summed by
# ``cyclotomic._rotation_sums``; the block (0,0) adds closed-form terms.


def gamma(a: Coords) -> Coords:
    """Evaluate each sector representative at every root of unity.

    Sector m sends f = sum_j c_j x^j to e[m,l] = f(zeta^l) = sum_j c_j zeta^(lj).
    Block (0,0) stores the 2-jet at 1 instead: e[0,0] = f(1) - f'(1) and
    xe[0,0] = f'(1), so that f = e[0,0] * 1 + xe[0,0] * x modulo (x-1)^2.
    """
    a.check_kind("sector")
    n, json, sums = a.n, a.basis.json, {}
    den, nums = a.den, a.nums
    for m, (js, vectors) in _blocks(n, ((json[i][1], json[i][2], v)
                                        for i, v in nums.items())).items():
        if m == 0:
            columns = list(zip(*vectors))[:phi_degree(n)]
            slope = [sum(map(mul, js, col)) for col in columns]
            sums[0] = [sum(col) - d for col, d in zip(columns, slope)]
            sums[1] = slope
        ls = range(1 if m == 0 else 0, n)
        positions = range(grid(n, m, ls.start), grid(n, m, n))
        _rotation_sums(n, sums, zip(js, vectors), 1, positions, ls)
    return from_numerators(n, "loc", sums, den)


def gamma_inverse(b: Coords) -> Coords:
    """The sector class with image ``b``: an inverse DFT on each sector.

    Sector m gets f_m = (1/n) sum_j H_j x^j with H_j = sum_l b[m,l] zeta^(-lj),
    the linear extension of the preimages

    1_ml -> (zeta^l / n) (x^n-1)/(x-zeta^l) = (1/n) sum_j zeta^(-lj) x^j    (m != 0)

    On sector 0 the value at 1 is b[0,0] = e[0,0] + xe[0,0], x^0 and x^n
    share the slot j = 0, and the closed-form preimages

    1_00 -> (1/2n)((1-n)x + (1+n)) (x^n-1)/(x-1)
          = [(1+n)/2n, 1/n, ..., 1/n, (1-n)/2n]
    x_00 -> (1/2n)((3-n)x + (n-1)) (x^n-1)/(x-1)
          = [(n-1)/2n, 1/n, ..., 1/n, (3-n)/2n]
    1_0l -> zeta^l / (n(zeta^l - 1)) (x-1)(x^n-1)/(x-zeta^l)
          = (1/n)[-1/(zeta^l-1), zeta^(-l), ..., zeta^(-l(n-1)), zeta^l/(zeta^l-1)]   (l != 0)

    split it: f_0[0] is the linear extension of their first entries, with
    n/(zeta^l - 1) = -n/w_(n-l) read from ``_inverse_weights``, and
    f_0[n] = H_0/n - f_0[0].
    """
    b.check_kind("loc")
    n, json, sums = b.n, b.basis.json, {}
    den, nums = b.den, b.nums
    for m, (ls, vectors) in _blocks(n, ((json[i][1], json[i][2], v)
                                        for i, v in nums.items())).items():
        start = sector_start(n, m)
        scaled = [(l, [n * c for c in v]) for l, v in zip(ls, vectors)]  # from den*n to den*n*n
        if m:
            _rotation_sums(n, sums, scaled, -1, range(start, start + n), range(n))
            continue
        b0, b1 = (nums.get(i, (0,) * phi_degree(n)) for i in (0, 1))
        first = [n * (n + 1) // 2 * x + n * (n - 1) // 2 * y for x, y in zip(b0, b1)]
        weights = _inverse_weights(n)
        for l, v in zip(ls, vectors):
            if l:
                first = list(map(add, first, _weighted(v, weights[n - l - 1])))
        sums[0] = first
        _rotation_sums(n, sums, scaled, -1, range(1, n), range(1, n))
        sums[n] = [n * sum(col) - f for col, f in zip(zip(*vectors), first)]
    return from_numerators(n, "sector", sums, den * n * n)


# ---------------------------------------------------------------------------
# The localized product table.


@cache
def _loc_mul_table(n: int) -> tuple[tuple[tuple[int, ...], tuple[Sparse, ...]], ...]:
    """Entry i: every generator e_j with e_i * e_j != 0, with that product.

    Built from the rules in the ``loc_mul`` docstring: the row 0 block, the
    row units 1_0l, and the weight w_l (w_l^2 when m1 + m2 = n) on
    1_{m1,l} * 1_{m2,l}.
    """
    table: list[dict[int, Sparse]] = [{} for _ in basis(n, "loc").labels]
    shared: dict[Sparse, Sparse] = {}  # equal products are stored once

    def put(i: int, j: int, *product: tuple[int, Cyc | int]) -> None:
        column = sparse(product)
        table[i][j] = table[j][i] = shared.setdefault(column, column)

    put(0, 0, (0, 1))
    put(0, 1, (1, 1))
    put(1, 1, (0, -1), (1, 2))
    for m in range(1, n):
        i = grid(n, m, 0)
        put(0, i, (i, 1))
        put(1, i, (i, 1))
    for l in range(1, n):
        w = _w(n, l)
        row = grid(n, 0, l)
        put(row, row, (row, 1))
        for m1 in range(1, n):
            i = grid(n, m1, l)
            put(row, i, (i, 1))
            for m2 in range(m1, n):
                target = (row, w * w) if m1 + m2 == n else (grid(n, (m1 + m2) % n, l), w)
                put(i, grid(n, m2, l), target)
    return tuple(sparse(sorted(entries.items())) for entries in table)


def loc_mul(a: Coords, b: Coords) -> Coords:
    """Bilinear extension of the localized product table.

    Row 0: 1_00 is the unit, x_00 * x_00 = 2 x_00 - 1_00, x_00 fixes 1_m0,
    and twisted 1_m0 are square-zero against each other.  Row l != 0 is a
    twisted group ring: 1_0l is the row unit and twisted generators multiply
    with weight 1 - zeta^(-l), squared when the sector indices sum to n.
    Cross-row products vanish.  Each nonzero coordinate of ``a`` meets only
    the nonzero coordinates of ``b`` that its table entry lists.  The raw
    products that meet one table column (one shared ``Sparse``) are summed
    first, so each column's weights multiply once per product, not per pair.
    """
    a.check_kind("loc")
    a.check(b)
    n, table = a.n, _loc_mul_table(a.n)
    A, B, meets, sums = a.nums, b.nums, {}, {}
    for i, num in A.items():
        for j, column in zip(*table[i]):
            if j in B:
                p = _times(n, num, B[j])
                met = meets.setdefault(id(column), [column, p])
                if met[1] is not p:
                    met[1] = list(map(add, met[1], p))
    for column, p in meets.values():
        _scatter(n, sums, p, 0, *column)
    return from_numerators(n, "loc", sums, a.den * b.den)


def loc_augmentation(a: Coords) -> Coords:
    """Transport of the virtual augmentation: (e[0,0] + xe[0,0]) times the unit."""
    a.check_kind("loc")
    return unit(a.n, "loc").scale(a["e[0,0]"] + a["xe[0,0]"])


# ---------------------------------------------------------------------------
# Localized Adams operations.


@cache
def _preimages(n: int, k: int) -> tuple[tuple[int, ...], ...]:
    """Entry l: the s = 1 .. n-1 with k*s = l (mod n), ascending.  Callers
    pass k mod n, all the sets depend on, so at most n tables are kept per n."""
    out: list[list[int]] = [[] for _ in range(n)]
    for s in range(1, n):
        out[k * s % n].append(s)
    return tuple(map(tuple, out))


def loc_adams(a: Coords, k: int) -> Coords:
    """Localized virtual Adams operation: the pullback along s -> k*s (mod n).

    With l = k*s mod n, e[0,s] reads e[0,l], or e[0,0] + xe[0,0] when l = 0,
    and e[m,s] (m != 0) reads e[m,l] times (zeta^(-l) - 1)/(zeta^(-s) - 1),
    or 0 when l = 0.  Column 0 scales: 1_m0 -> k 1_m0 and
    x_00 -> k x_00 - (k-1) 1_00.  Each stored e[m,l] is written to e[m,s]
    for every s in the preimage set of l; each weight is then
    1 + zeta^(-s) + ... + zeta^(-s(k-1)), in Z[zeta_n], so den is kept.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    a.check_kind("loc")
    n, A, zeros = a.n, a.nums, (0,) * phi_degree(a.n)
    a0, a1 = A.get(0, zeros), A.get(1, zeros)
    out = {0: [x - (k - 1) * y for x, y in zip(a0, a1)], 1: [k * y for y in a1]}
    pre, row = _preimages(n, k % n), grid(n, 0, 0)  # e[m,l] sits at row + m*n + l
    out.update(dict.fromkeys((row + s for s in pre[0]), list(map(add, a0, a1))))
    for i, c in A.items():
        if i > 1:
            m, l = divmod(i - row, n)
            if not l:
                out[i] = [k * x for x in c]
            elif m:
                out.update((i + s - l, _times(n, c, _adams_weight(n, l, s).num)) for s in pre[l])
            else:
                out.update(dict.fromkeys((i + s - l for s in pre[l]), c))
    return from_numerators(n, "loc", out, a.den)


# ---------------------------------------------------------------------------
# Change of basis to the semisimple generators and operations there.


def from_u_basis(b: Coords) -> Coords:
    """Expand 1_00 and the u_l^q into the localized generators.

    u_0^0 = x_00 - 1_00, u_0^m = 1_m0, and for l != 0
    u_l^q = (1/n) sum_i zeta^(-iq) uhat_il with uhat_0l = 1_0l and
    uhat_il = 1_il/(1 - zeta^(-l)).  So row l is an inverse DFT: e[0,l] is
    (1/n) sum_q u[l,q], and e[i,l] = (1/n^2) sum_q (n/w_l) u[l,q] zeta^(-iq)
    for i != 0, the weight n/w_l applied once per stored u[l,q].
    """
    b.check_kind("u")
    n, json, nn = b.n, b.basis.json, b.n * b.n
    deg, weights = phi_degree(n), _inverse_weights(n)
    den, nums = b.den, b.nums
    b0, b1 = (nums.get(i, (0,) * deg) for i in (0, 1))
    sums = {0: [nn * (x - y) for x, y in zip(b0, b1)], 1: [nn * y for y in b1]}
    sums.update((grid(n, json[i][2], 0), [nn * c for c in v]) for i, v in nums.items()
                if 1 < i <= n)
    pad = [0] * (n - deg)
    for l, (qs, vectors) in _blocks(n, ((json[i][1], json[i][2], v)
                                        for i, v in nums.items() if i > n)).items():
        sums[grid(n, 0, l)] = [n * sum(col) for col in zip(*vectors)][:deg]
        weighted = [(q, _weighted(v, weights[l - 1]) + pad) for q, v in zip(qs, vectors)]
        _rotation_sums(n, sums, weighted, -1, range(grid(n, 1, l), grid(n, n, l), n),
                       range(1, n))
    return from_numerators(n, "loc", sums, den * nn)


def to_u_basis(a: Coords) -> Coords:
    """Inverse change of basis: 1_0l = sum_q u_l^q and
    1_il = (1 - zeta^(-l)) sum_q zeta^(iq) u_l^q for i != 0.

    So row l is a DFT, u[l,q] = sum_i v_i zeta^(iq), of v_0 = e[0,l] and
    v_i = w_l e[i,l], where w_l v = v - zeta^(-l) v costs one rotation.
    """
    a.check_kind("loc")
    n, json = a.n, a.basis.json
    den, nums = a.den, a.nums
    a0, a1 = (nums.get(i, (0,) * phi_degree(n)) for i in (0, 1))
    sums = {0: list(map(add, a0, a1)), 1: a1}
    sums.update((grid(n, 0, json[i][1]), v) for i, v in nums.items() if i > 1 and not json[i][2])
    for l, (ms, vectors) in _blocks(n, ((json[i][2], json[i][1], v)
                                        for i, v in nums.items() if json[i][2])).items():
        weighted = [(m, list(map(sub, v, (v + v)[l:l + n])) if m else v)
                    for m, v in zip(ms, vectors)]
        _rotation_sums(n, sums, weighted, 1, range(grid(n, l, 0), grid(n, l, n)), range(n))
    return from_numerators(n, "u", sums, den)


def square_zero_terms(n: int, A: dict, B: dict, stop: int) -> dict[int, list[int]]:
    """Raw numerators over den(A) * den(B) of the product on positions below ``stop``
    of a block with the unit at position 0 and square-zero elements after it."""
    a0, b0 = A.get(0), B.get(0)
    out = {0: _times(n, a0, b0)} if a0 and b0 else {}
    for c0, other in ((a0, B), (b0, A)):
        if c0:
            for i, c in other.items():
                if 0 < i < stop:
                    p = _times(n, c0, c)
                    out[i] = list(map(add, out[i], p)) if i in out else p
    return out


def u_mul(a: Coords, b: Coords) -> Coords:
    """Product in semisimple coordinates: diagonal on l != 0, square-zero on l = 0.

    Only positions stored in both factors meet on the semisimple rows."""
    a.check_kind("u")
    a.check(b)
    n, A, B = a.n, a.nums, b.nums
    start = grid(n, 1, 0)
    out = square_zero_terms(n, A, B, start)
    out.update((i, _times(n, A[i], B[i])) for i in A.keys() & B.keys() if i >= start)
    return from_numerators(n, "u", out, a.den * b.den)


def u_is_invertible(a: Coords) -> bool:
    a.check_kind("u")
    return 0 in a.nums and all(i in a.nums for i in range(grid(a.n, 1, 0), a.n * a.n + 1))


def u_inverse(a: Coords) -> Coords:
    """Inverse: entrywise on the semisimple rows, square-zero expansion on row 0."""
    if not u_is_invertible(a):
        raise ZeroDivisionError("class is not invertible in the localized ring")
    n, A = a.n, a.terms
    c1_inv = A[0].inv()
    neg_sq = -(c1_inv * c1_inv)
    start = grid(n, 1, 0)
    return from_terms(n, "u", {i: c1_inv if i == 0 else c * neg_sq if i < start else c.inv()
                               for i, c in A.items()})


def u_adams(a: Coords, k: int) -> Coords:
    """Adams operations on semisimple coordinates: the pullback along s -> k*s (mod n).

    u[s,q] reads u[k*s mod n, q], or the unit coordinate e[0,0] when k*s = 0
    (mod n), since the unit is fixed; e[0,0] is kept and u_0^q -> k u_0^q.
    Each stored u[l,q] (l != 0) is written to u[s,q] for every s in the
    preimage set of l, and e[0,0] for every s in that of 0.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    a.check_kind("u")
    n, A = a.n, a.nums
    pre, start = _preimages(n, k % n), grid(n, 1, 0)
    out = {}
    for i, c in A.items():
        if i >= start:
            l = (i - 1) // n
            out.update(dict.fromkeys((i + (s - l) * n for s in pre[l]), c))
        elif i:
            out[i] = [k * x for x in c]
        else:
            out.update(dict.fromkeys((grid(n, s, q) for s in pre[0] for q in range(n)), c))
            out[0] = c
    return from_numerators(n, "u", out, a.den)
