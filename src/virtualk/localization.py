"""Direct-sum decomposition of the inertial K-theory at the maximal ideals of R(C*).

The decomposition map Gamma evaluates each sector representative at every
n-th root of unity; the block over (m, l) = (0, 0) is two-dimensional because
the corresponding local ring is cut out by (x - 1)^2, so that block stores
the 2-jet (value and derivative) at 1.  ``gamma_inverse`` realizes the four
closed-form preimages of the block generators and extends linearly, with
(u^n - 1)/(u - zeta^l) always expanded by the inverse DFT;
no rational-function arithmetic exists anywhere.

``loc_mul`` is the localized product table.  ``loc_adams`` and ``u_adams``
are the Adams operations, the pullback along s -> k*s (mod n): each output
coordinate with character index s reads the input coordinate with index
k*s mod n.  Beyond k mod n they depend on k only through the linear factors
on the untwisted column and on u_0^q.
Localized classes are ``Coords`` of kind "loc"; kind "u" is the semisimple
coordinate system: idempotents u_l^q for l != 0 plus the square-zero elements
u_0^q and the block unit 1_00, in which the product is diagonal and
line-element computations are immediate.  Both index their n x n grid through
``coords.grid``.

The maps and the product read per-n tables, each built lazily on first use
(``functools.cache``) from the closed forms in its docstring and applied
through ``cyclotomic.Accumulator`` to the nonzero coordinates only, on raw
numerators, so each output coordinate is normalised once; nothing is built
at import:

- ``_gamma_columns``: the image of each monomial x_m^j, zeta^(lj) in e[m,l]
  and the 2-jet (1 - j, j) in (e[0,0], xe[0,0]);
- ``_gamma_inverse_columns``: the coefficients of the four preimages;
- ``_loc_mul_table``: e_i * e_j for every pair of generators with a nonzero
  product, from the rules of ``loc_mul``;
- ``_to_u_map`` and ``_from_u_map``: columns of zeta powers and integers, and
  the weights w_l = 1 - zeta^(-l) (to u, on each input coordinate) or
  1/(n w_l) and 1/n (from u, on each raw output sum), applied once per
  coordinate rather than folded into every entry;
- ``_adams_weight``: w_l / w_s for ``loc_adams``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .coords import (Coords, Sparse, apply_columns, basis, from_canonical, from_terms, grid,
                     sector_start, sparse, unit)
from .cyclotomic import Accumulator, Cyc, zeta_pow


@cache
def _w(n: int, l: int) -> Cyc:
    # w_l = 1 - zeta^(-l), the twisted-row structure constant.
    return Cyc.one(n) - zeta_pow(n, -l)


@cache
def _w_inv(n: int, l: int) -> Cyc:
    return _w(n, l).inv()


@cache
def _adams_weight(n: int, l: int, s: int) -> Cyc:
    # (zeta^(-l) - 1)/(zeta^(-s) - 1) = w_l / w_s, the factor 1_ml picks up
    # on its way to 1_ms under psi^k when k*s = l (mod n).
    return _w(n, l) * _w_inv(n, s)


def _apply(a: Coords, kind: str, columns: tuple[Sparse, ...]) -> Coords:
    # The linear map with one column per coordinate of ``a``.
    return apply_columns(a.n, kind, ((c, 0, columns[i]) for i, c in a.terms.items()))


# ---------------------------------------------------------------------------
# The decomposition map and its closed-form inverse.


@cache
def _gamma_columns(n: int) -> tuple[Sparse, ...]:
    """Image of each monomial x_m^j, in sector coordinate order.

    x^j takes the value zeta^(lj) at zeta^l, stored in e[m,l]; on sector 0
    the block (0,0) holds its 2-jet at 1 instead: value 1 and derivative j,
    stored as e[0,0] = 1 - j and xe[0,0] = j.
    """
    columns = []
    for _, m, j in basis(n, "sector").json:
        jet = [(0, 1 - j), (1, j)] if m == 0 else []
        columns.append(sparse(jet + [(grid(n, m, l), zeta_pow(n, l * j))
                                     for l in range(1 if m == 0 else 0, n)]))
    return tuple(columns)


def gamma(a: Coords) -> Coords:
    """Evaluate each sector representative at every root of unity.

    Block (0,0) stores the 2-jet at 1: coefficients e[0,0] = f(1) - f'(1) and
    xe[0,0] = f'(1), so that f = e[0,0] * 1 + xe[0,0] * x modulo (x-1)^2.
    """
    a.check_kind("sector")
    return _apply(a, "loc", _gamma_columns(a.n))


@cache
def _gamma_inverse_columns(n: int) -> tuple[Sparse, ...]:
    """Preimage of each localized generator, in loc coordinate order, as sector coordinates.

    The preimages are polynomials on one sector, built from the inverse DFT
    (x^n - 1)/(x - zeta^l) * zeta^l/n = (1/n) sum_i zeta^(-li) x^i:

    1_00 -> (1/2n)((1-n)x + (1+n)) (x^n-1)/(x-1)
          = [(1+n)/2n, 1/n, ..., 1/n, (1-n)/2n]                        (sector 0)
    x_00 -> (1/2n)((3-n)x + (n-1)) (x^n-1)/(x-1)
          = [(n-1)/2n, 1/n, ..., 1/n, (3-n)/2n]                        (sector 0)
    1_0l -> zeta^l / (n(zeta^l - 1)) (x-1)(x^n-1)/(x-zeta^l)
          = (1/n)[-1/(zeta^l-1), zeta^(-l), ..., zeta^(-l(n-1)), zeta^l/(zeta^l-1)]
                                                                       (l != 0, sector 0)
    1_ml -> (zeta^l / n) (x^n-1)/(x-zeta^l)
          = (1/n)[1, zeta^(-l), ..., zeta^(-l(n-1))]                   (m != 0, sector m)
    """
    inv_n = Fraction(1, n)

    def jet(first: int, last: int) -> list[Cyc]:
        # A sector-0 preimage of the block (0,0): numerators over 2n.
        return [Cyc.rational(n, Fraction(v, 2 * n)) for v in [first] + [2] * (n - 1) + [last]]

    columns = [(0, jet(1 + n, 1 - n)), (0, jet(n - 1, 3 - n))]
    dft = [[zeta_pow(n, -l * i) * inv_n for i in range(n)] for l in range(n)]
    for _, m, l in basis(n, "loc").json[2:]:
        if m:
            columns.append((m, dft[l]))
        else:
            d = (zeta_pow(n, l) - Cyc.one(n)).inv() * inv_n
            columns.append((0, [-d] + dft[l][1:] + [zeta_pow(n, l) * d]))
    return tuple(sparse((sector_start(n, m) + j, c) for j, c in enumerate(column))
                 for m, column in columns)


def gamma_inverse(b: Coords) -> Coords:
    """Linear extension of the four closed-form preimages."""
    b.check_kind("loc")
    return _apply(b, "sector", _gamma_inverse_columns(b.n))


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
    the nonzero coordinates of ``b`` that its table entry lists.
    """
    a.check_kind("loc")
    a.check(b)
    n, B, table = a.n, b.terms, _loc_mul_table(a.n)
    acc = Accumulator(n)
    for i, ca in a.terms.items():
        for j, product in zip(*table[i]):
            cb = B.get(j)
            if cb is not None:
                acc.add_product(ca, cb, 0, *product)
    return from_canonical(n, "loc", acc.result())


def loc_augmentation(a: Coords) -> Coords:
    """Transport of the virtual augmentation: (e[0,0] + xe[0,0]) times the unit."""
    a.check_kind("loc")
    return unit(a.n, "loc").scale(a["e[0,0]"] + a["xe[0,0]"])


# ---------------------------------------------------------------------------
# Localized Adams operations.


def loc_adams(a: Coords, k: int) -> Coords:
    """Localized virtual Adams operation: the pullback along s -> k*s (mod n).

    With l = k*s mod n, e[0,s] reads e[0,l], or e[0,0] + xe[0,0] when l = 0,
    and e[m,s] (m != 0) reads e[m,l] times (zeta^(-l) - 1)/(zeta^(-s) - 1),
    or 0 when l = 0.  Column 0 scales: 1_m0 -> k 1_m0 and
    x_00 -> k x_00 - (k-1) 1_00.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    a.check_kind("loc")
    n, A = a.n, a.terms
    a0, a1 = A.get(0, Cyc.zero(n)), A.get(1, Cyc.zero(n))
    out = {0: a0 - a1.scale_int(k - 1), 1: a1.scale_int(k)}
    out.update((i, A[i].scale_int(k)) for i in (grid(n, m, 0) for m in range(1, n)) if i in A)
    for s in range(1, n):
        l = k * s % n
        if not l:
            out[grid(n, 0, s)] = a0 + a1
            continue
        for m in range(n):
            c = A.get(grid(n, m, l))
            if c:
                out[grid(n, m, s)] = c * _adams_weight(n, l, s) if m else c
    return from_terms(n, "loc", out)


# ---------------------------------------------------------------------------
# Change of basis to the semisimple generators and operations there.


@cache
def _from_u_map(n: int) -> tuple[tuple[Sparse, ...], dict[int, Cyc]]:
    """Columns, in u coordinate order, and output weights of ``from_u_basis``.

    e[0,0] -> e[0,0]; u[0,0] -> xe[0,0] - e[0,0]; u[0,m] -> e[m,0]; and for
    l != 0, u[l,q] -> e[0,l] + sum_i zeta^(-iq) e[i,l], after which e[0,l] is
    weighted by 1/n and e[i,l] by 1/(n w_l).
    """
    inv_n = Cyc.rational(n, Fraction(1, n))
    columns = [sparse([(0, 1)]), sparse([(0, -1), (1, 1)])]
    columns += [sparse([(grid(n, m, 0), 1)]) for m in range(1, n)]
    weights = {}
    for l in range(1, n):
        for q in range(n):
            columns.append(sparse([(grid(n, 0, l), 1)] + [
                (grid(n, i, l), zeta_pow(n, -i * q)) for i in range(1, n)]))
        weights[grid(n, 0, l)] = inv_n
        winv = _w_inv(n, l) * inv_n
        weights.update((grid(n, i, l), winv) for i in range(1, n))
    return tuple(columns), weights


def from_u_basis(b: Coords) -> Coords:
    """Expand 1_00 and the u_l^q into the localized generators.

    u_0^0 = x_00 - 1_00, u_0^m = 1_m0, and for l != 0
    u_l^q = (1/n) sum_i zeta^(-iq) uhat_il with uhat_0l = 1_0l and
    uhat_il = 1_il/(1 - zeta^(-l)).
    """
    b.check_kind("u")
    n = b.n
    columns, weights = _from_u_map(n)
    acc = Accumulator(n)
    for i, c in b.terms.items():
        acc.add(c.num, c.den, 0, *columns[i])
    acc.scale(weights)
    return from_canonical(n, "loc", acc.result())


@cache
def _to_u_map(n: int) -> tuple[tuple[Sparse, ...], dict[int, Cyc]]:
    """Columns, in loc coordinate order, and input weights of ``to_u_basis``.

    e[0,0] -> e[0,0]; xe[0,0] -> e[0,0] + u[0,0]; e[m,0] -> u[0,m]; and for
    l != 0, e[i,l] -> sum_q zeta^(iq) u[l,q], where e[i,l] with i != 0 is
    first weighted by w_l.
    """
    columns = [sparse([(0, 1)]), sparse([(0, 1), (1, 1)])]
    for _, i, l in basis(n, "loc").json[2:]:
        if l == 0:
            columns.append(sparse([(grid(n, 0, i), 1)]))
        else:
            columns.append(sparse((grid(n, l, q), zeta_pow(n, i * q)) for q in range(n)))
    weights = {grid(n, i, l): _w(n, l) for i in range(1, n) for l in range(1, n)}
    return tuple(columns), weights


def to_u_basis(a: Coords) -> Coords:
    """Inverse change of basis: 1_0l = sum_q u_l^q and
    1_il = (1 - zeta^(-l)) sum_q zeta^(iq) u_l^q for i != 0."""
    a.check_kind("loc")
    n = a.n
    columns, weights = _to_u_map(n)
    acc = Accumulator(n)
    for i, c in a.terms.items():
        w = weights.get(i)
        if w is None:
            acc.add(c.num, c.den, 0, *columns[i])
        else:
            acc.add_product(c, w, 0, *columns[i])
    return from_canonical(n, "u", acc.result())


def square_zero_terms(A: dict[int, Cyc], B: dict[int, Cyc], stop: int) -> dict[int, Cyc]:
    """The product on positions below ``stop``, from the stored terms of both factors,
    of a block with the unit at position 0 and square-zero elements after it."""
    a0, b0 = A.get(0), B.get(0)
    out = {0: a0 * b0} if a0 and b0 else {}
    for c0, other in ((a0, B), (b0, A)):
        if c0:
            for i, c in other.items():
                if 0 < i < stop:
                    out[i] = out[i] + c0 * c if i in out else c0 * c
    return out


def u_mul(a: Coords, b: Coords) -> Coords:
    """Product in semisimple coordinates: diagonal on l != 0, square-zero on l = 0.

    Only positions stored in both factors meet on the semisimple rows."""
    a.check_kind("u")
    a.check(b)
    n, A, B = a.n, a.terms, b.terms
    start = grid(n, 1, 0)
    out = square_zero_terms(A, B, start)
    out.update((i, A[i] * B[i]) for i in A.keys() & B.keys() if i >= start)
    return from_terms(n, "u", out)


def u_is_invertible(a: Coords) -> bool:
    a.check_kind("u")
    return 0 in a.terms and all(i in a.terms for i in range(grid(a.n, 1, 0), a.n * a.n + 1))


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
    The output positions are written in ascending order and never hold a zero.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    a.check_kind("u")
    n, A = a.n, a.terms
    out = {i: c if i == 0 else c.scale_int(k) for i, c in A.items() if i < grid(n, 1, 0)}
    for s in range(1, n):
        l = k * s % n
        for q in range(n):
            c = A.get(grid(n, l, q) if l else 0)
            if c:
                out[grid(n, s, q)] = c
    return from_canonical(n, "u", out)
