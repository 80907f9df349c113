"""Direct-sum decomposition of the inertial K-theory at the maximal ideals of R(C*).

The decomposition map Gamma evaluates each sector representative at every
n-th root of unity; the block over (m, l) = (0, 0) is two-dimensional because
the corresponding local ring is cut out by (x - 1)^2, so that block stores
the 2-jet (value and derivative) at 1.  ``gamma_inverse`` realizes the four
closed-form preimages of the block generators and extends linearly, with
(u^n - 1)/(u - zeta^l) always expanded as the product over the other roots;
no rational-function arithmetic exists anywhere.

``loc_mul`` is the localized product table; ``loc_adams`` the localized
Adams operations, with solution sets of k*y = l (mod n) listed ascending.
Localized classes are ``Coords`` of kind "loc"; kind "u" is the semisimple
coordinate system: idempotents u_l^q for l != 0 plus the square-zero elements
u_0^q and the block unit 1_00, in which the product is diagonal and
line-element computations are immediate.  Both index their n x n grid through
``coords.grid``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cache

from .coords import Coords, grid, unit, zero
from .cyclotomic import Cyc, CycPoly, zeta_pow
from .virtual_ring import from_sectors, sector_part


@cache
def _zetas(n: int) -> tuple[Cyc, ...]:
    return tuple(zeta_pow(n, l) for l in range(n))


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


# ---------------------------------------------------------------------------
# The decomposition map and its closed-form inverse.


def gamma(a: Coords) -> Coords:
    """Evaluate each sector representative at every root of unity.

    Block (0,0) stores the 2-jet at 1: coefficients e[0,0] = f(1) - f'(1) and
    xe[0,0] = f'(1), so that f = e[0,0] * 1 + xe[0,0] * x modulo (x-1)^2.
    """
    n = a.n
    zs = _zetas(n)
    out = list(zero(n, "loc").coeffs)
    for m in range(n):
        s = sector_part(a, m)
        if s.is_zero():
            continue
        for l in range(n):
            if m == 0 and l == 0:
                continue
            out[grid(n, m, l)] = s(zs[l])
    f = sector_part(a, 0)
    f1 = f(Cyc.one(n))
    d1 = f.derivative()(Cyc.one(n))
    out[0], out[1] = f1 - d1, d1
    return Coords(n, "loc", out)


@cache
def _geom_div(n: int, l: int) -> CycPoly:
    # (x^n - 1)/(x - zeta^l) expanded as prod_{i != l} (x - zeta^i).
    prod = CycPoly.one_poly(n)
    for i in range(n):
        if i == l:
            continue
        prod = prod * CycPoly.from_cycs(n, (-zeta_pow(n, i), Cyc.one(n)))
    return prod


@cache
def _gamma_inverse_images(n: int) -> dict:
    """Preimages of every localized generator, as polynomials on their sector.

    1_00  -> (1/2n)((1-n)x + (1+n)) (x^n-1)/(x-1)                  (sector 0)
    x_00  -> (1/2n)((3-n)x + (n-1)) (x^n-1)/(x-1)                  (sector 0)
    1_0l  -> zeta^l / (n(zeta^l - 1)) (x-1)(x^n-1)/(x-zeta^l)      (l != 0, sector 0)
    1_ml  -> (zeta^l / n) (x^n-1)/(x-zeta^l)                       (m != 0, sector m)
    """
    images: dict[tuple[int, int] | str, CycPoly] = {}
    geom0 = _geom_div(n, 0)
    half = Fraction(1, 2 * n)
    lin_100 = CycPoly.from_ints(n, [1 + n, 1 - n])
    lin_x00 = CycPoly.from_ints(n, [n - 1, 3 - n])
    images["1_00"] = (lin_100 * geom0).scale(half)
    images["x_00"] = (lin_x00 * geom0).scale(half)
    x_minus_one = CycPoly.from_ints(n, [-1, 1])
    for l in range(1, n):
        zl = zeta_pow(n, l)
        scalar = zl / ((zl - Cyc.one(n)) * n)
        images[(0, l)] = (x_minus_one * _geom_div(n, l)).scale(scalar)
    for l in range(n):
        zl = zeta_pow(n, l)
        scalar = zl * Fraction(1, n)
        poly = _geom_div(n, l).scale(scalar)
        for m in range(1, n):
            images[(m, l)] = poly
    return images


def gamma_inverse(b: Coords) -> Coords:
    """Linear extension of the four closed-form preimages."""
    n = b.n
    images = _gamma_inverse_images(n)
    acc = [CycPoly.zero(n)] * n
    if b.coeffs[0]:
        acc[0] = acc[0] + images["1_00"].scale(b.coeffs[0])
    if b.coeffs[1]:
        acc[0] = acc[0] + images["x_00"].scale(b.coeffs[1])
    for m in range(n):
        for l in range(n):
            c = b.coeffs[grid(n, m, l)]
            if c and (m, l) != (0, 0):
                acc[m] = acc[m] + images[(m, l)].scale(c)
    return from_sectors(n, dict(enumerate(acc)))


# ---------------------------------------------------------------------------
# The localized product table.


def loc_mul(a: Coords, b: Coords) -> Coords:
    """Bilinear extension of the localized product table.

    Row 0: 1_00 is the unit, x_00 * x_00 = 2 x_00 - 1_00, x_00 fixes 1_m0,
    and twisted 1_m0 are square-zero against each other.  Row l != 0 is a
    twisted group ring: 1_0l is the row unit and twisted generators multiply
    with weight 1 - zeta^(-l), squared when the sector indices sum to n.
    Cross-row products vanish.
    """
    a.check(b)
    n = a.n
    A, B = a.coeffs, b.coeffs
    out = list(zero(n, "loc").coeffs)
    out[0] = A[0] * B[0] - A[1] * B[1]
    out[1] = A[0] * B[1] + A[1] * B[0] + (A[1] * B[1]).scale_int(2)
    ra = A[0] + A[1]
    rb = B[0] + B[1]
    for m in range(1, n):
        i = grid(n, m, 0)
        out[i] = ra * B[i] + rb * A[i]
    for l in range(1, n):
        w = _w(n, l)
        row = grid(n, 0, l)
        au, bu = A[row], B[row]
        if au and bu:
            out[row] = out[row] + au * bu
        for m in range(1, n):
            i = grid(n, m, l)
            t = au * B[i] + bu * A[i]
            if t:
                out[i] = out[i] + t
        for m1 in range(1, n):
            c1 = A[grid(n, m1, l)]
            if not c1:
                continue
            for m2 in range(1, n):
                c2 = B[grid(n, m2, l)]
                if not c2:
                    continue
                c = c1 * c2
                if m1 + m2 == n:
                    out[row] = out[row] + c * w * w
                else:
                    i = grid(n, (m1 + m2) % n, l)
                    out[i] = out[i] + c * w
    return Coords(n, "loc", out)


def loc_augmentation(a: Coords) -> Coords:
    """Transport of the virtual augmentation: (e[0,0] + xe[0,0]) times the unit."""
    return unit(a.n, "loc").scale(a.coeffs[0] + a.coeffs[1])


# ---------------------------------------------------------------------------
# Localized Adams operations.


def adams_solutions(n: int, k: int, l: int) -> tuple[int, ...]:
    """Ascending solutions of k*y = l (mod n); empty when gcd(k,n) does not divide l."""
    d = math.gcd(k, n)
    if l % d:
        return ()
    nd = n // d
    y0 = (pow(k // d, -1, nd) * ((l // d) % nd)) % nd if nd > 1 else 0
    return tuple(y0 + i * nd for i in range(d))


def loc_adams(a: Coords, k: int) -> Coords:
    """Localized virtual Adams operation, extended linearly over the basis.

    With d = gcd(k, n) and s_1 < ... < s_d the solutions of k*y = l (mod n):
    1_0l -> sum of 1_0s_i when d | l, else 0; 1_ml picks up the factor
    (zeta^(-l) - 1)/(zeta^(-s_i) - 1); 1_m0 -> k 1_m0; 1_00 -> sum of 1_0s_i;
    x_00 -> k x_00 - (k-1) 1_00 + the nonzero-solution idempotents.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    n = a.n
    A = a.coeffs
    out = list(zero(n, "loc").coeffs)
    sols0 = adams_solutions(n, k, 0)
    if A[0]:
        out[0] = out[0] + A[0]
        for s in sols0[1:]:
            out[grid(n, 0, s)] = out[grid(n, 0, s)] + A[0]
    if A[1]:
        out[1] = out[1] + A[1].scale_int(k)
        out[0] = out[0] - A[1].scale_int(k - 1)
        for s in sols0[1:]:
            out[grid(n, 0, s)] = out[grid(n, 0, s)] + A[1]
    for m in range(1, n):
        i = grid(n, m, 0)
        if A[i]:
            out[i] = out[i] + A[i].scale_int(k)
    for l in range(1, n):
        sols = adams_solutions(n, k, l)
        if not sols:
            continue
        cu = A[grid(n, 0, l)]
        if cu:
            for s in sols:
                assert s != 0, "k*0 = l (mod n) is impossible for l != 0"
                out[grid(n, 0, s)] = out[grid(n, 0, s)] + cu
        for m in range(1, n):
            c = A[grid(n, m, l)]
            if not c:
                continue
            for s in sols:
                assert s != 0
                i = grid(n, m, s)
                out[i] = out[i] + c * _adams_weight(n, l, s)
    return Coords(n, "loc", out)


# ---------------------------------------------------------------------------
# Change of basis to the semisimple generators and operations there.


def from_u_basis(b: Coords) -> Coords:
    """Expand 1_00 and the u_l^q into the localized generators.

    u_0^0 = x_00 - 1_00, u_0^m = 1_m0, and for l != 0
    u_l^q = (1/n) sum_i zeta^(-iq) uhat_il with uhat_0l = 1_0l and
    uhat_il = 1_il/(1 - zeta^(-l)).
    """
    n = b.n
    U = b.coeffs
    out = list(zero(n, "loc").coeffs)
    out[0] = U[0] - U[1]
    out[1] = U[1]
    for m in range(1, n):
        out[grid(n, m, 0)] = U[grid(n, 0, m)]
    inv_n = Fraction(1, n)
    for l in range(1, n):
        winv = _w_inv(n, l)
        row = U[grid(n, l, 0):grid(n, l + 1, 0)]
        if not any(row):
            continue
        total = Cyc.zero(n)
        for q in range(n):
            total = total + row[q]
        out[grid(n, 0, l)] = total * inv_n
        for i in range(1, n):
            acc = Cyc.zero(n)
            for q in range(n):
                c = row[q]
                if c:
                    acc = acc + c * zeta_pow(n, -i * q)
            out[grid(n, i, l)] = acc * winv * inv_n
    return Coords(n, "loc", out)


def to_u_basis(a: Coords) -> Coords:
    """Inverse change of basis: 1_0l = sum_q u_l^q and
    1_il = (1 - zeta^(-l)) sum_q zeta^(iq) u_l^q for i != 0."""
    n = a.n
    L = a.coeffs
    out = list(zero(n, "u").coeffs)
    out[0] = L[0] + L[1]
    out[1] = L[1]
    for m in range(1, n):
        out[grid(n, 0, m)] = L[grid(n, m, 0)]
    for l in range(1, n):
        w = _w(n, l)
        base = L[grid(n, 0, l)]
        for q in range(n):
            acc = base
            for i in range(1, n):
                c = L[grid(n, i, l)]
                if c:
                    acc = acc + c * w * zeta_pow(n, i * q)
            out[grid(n, l, q)] = acc
    return Coords(n, "u", out)


def u_mul(a: Coords, b: Coords) -> Coords:
    """Product in semisimple coordinates: diagonal on l != 0, square-zero on l = 0."""
    a.check(b)
    n = a.n
    A, B = a.coeffs, b.coeffs
    out = [A[0] * B[0]]
    out += [A[0] * B[i] + B[0] * A[i] for i in range(grid(n, 0, 0), grid(n, 1, 0))]
    out += [A[i] * B[i] for i in range(grid(n, 1, 0), len(A))]
    return Coords(n, "u", out)


def u_is_invertible(a: Coords) -> bool:
    return bool(a.coeffs[0]) and all(a.coeffs[grid(a.n, 1, 0):])


def u_inverse(a: Coords) -> Coords:
    """Inverse: entrywise on the semisimple rows, square-zero expansion on row 0."""
    if not u_is_invertible(a):
        raise ZeroDivisionError("class is not invertible in the localized ring")
    n = a.n
    A = a.coeffs
    c1_inv = A[0].inv()
    neg_sq = -(c1_inv * c1_inv)
    out = [c1_inv]
    out += [A[i] * neg_sq for i in range(grid(n, 0, 0), grid(n, 1, 0))]
    out += [A[i].inv() for i in range(grid(n, 1, 0), len(A))]
    return Coords(n, "u", out)


def u_adams(a: Coords, k: int) -> Coords:
    """Adams operations on semisimple coordinates.

    u_0^q -> k u_0^q; u_l^q -> sum over solutions s of k*y = l (mod n) of
    u_s^q when gcd(k,n) | l (else 0); the unit is fixed, which on the block
    generator reads 1_00 -> 1_00 + the nonzero-solution rows of l = 0.
    """
    if k < 1:
        raise ValueError("Adams operations are defined for k >= 1")
    n = a.n
    A = a.coeffs
    out = list(zero(n, "u").coeffs)
    out[0] = A[0]
    if A[0]:
        for s in adams_solutions(n, k, 0)[1:]:
            for q in range(n):
                out[grid(n, s, q)] = out[grid(n, s, q)] + A[0]
    for q in range(n):
        c = A[grid(n, 0, q)]
        if c:
            out[grid(n, 0, q)] = out[grid(n, 0, q)] + c.scale_int(k)
    for l in range(1, n):
        sols = adams_solutions(n, k, l)
        if not sols:
            continue
        for q in range(n):
            c = A[grid(n, l, q)]
            if c:
                for s in sols:
                    assert s != 0
                    out[grid(n, s, q)] = out[grid(n, s, q)] + c
    return Coords(n, "u", out)
