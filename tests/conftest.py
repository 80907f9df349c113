"""Shared helpers for the test suite: random inputs and the references.

The sector layer has one reference here, written apart from the code it
checks: it calls nothing of ``sector_ring``, no ``CycPoly`` arithmetic and no
``virtual_ring`` table.  A class of sector m is a tuple of ``Cyc``
coefficients of 1, x, x^2, ...; it is reduced by long division by the monic
modulus of its sector, x^n - 1 on a twisted sector and
(x - 1)(x^n - 1) = x^(n+1) - x^n - x + 1 on sector 0; products are
schoolbook products and powers go by square-and-multiply.
``test_references.py`` runs it with those routes patched to raise.

The renderer has one reference here too: the text and JSON forms written
through ``Cyc`` and ``Fraction``, one scalar per coordinate in its own lowest
terms, which the code renders from the stored integers instead.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from record_report_manifest import record

from virtualk.coords import Coords, basis, from_terms, grid, sector_start, zero
from virtualk.cyclotomic import Cyc, phi_degree, zeta_pow

# Property tests draw a fixed sequence of examples, so every run checks the
# same cases, and are not timed, so a slow host cannot fail them.
settings.register_profile("virtualk", derandomize=True, deadline=None, max_examples=200)
settings.load_profile("virtualk")


@pytest.fixture(scope="session")
def report_recording():
    """The canonical n = 2..8 report as manifest entries, built once per session."""
    return record()


def ints(coeffs) -> list:
    """The rational values of a sequence of rational scalars."""
    return [c.rational_value() for c in coeffs]


def evaluate(coeffs, x: Cyc) -> Cyc:
    """sum c_j x^j by Horner's rule."""
    total = Cyc.zero(x.n)
    for c in reversed(coeffs):
        total = total * x + c
    return total


def canonical(v: Coords) -> Coords:
    """``v``, after asserting its canonical form: den > 0 and the gcd of den
    and every numerator is 1, positions ascend and lie in the basis, no row
    is all zero, and each row is a tuple of deg(Phi_n) ints."""
    assert type(v.den) is int and v.den > 0, v
    assert math.gcd(v.den, *itertools.chain(*v.nums.values())) == 1, v
    assert list(v.nums) == sorted(v.nums), v
    assert all(0 <= i < len(v.basis.labels) for i in v.nums), v
    for row in v.nums.values():
        assert any(row), v
        assert type(row) is tuple and len(row) == phi_degree(v.n), v
        assert all(type(x) is int for x in row), v
    return v


def record_calls(monkeypatch, owner, name: str) -> list:
    """The argument tuples of the calls of ``owner.name`` from now on; the
    calls still run, and ``monkeypatch`` takes the recorder out again."""
    calls, original = [], getattr(owner, name)

    def recorded(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, recorded)
    return calls


# ---------------------------------------------------------------------------
# Random inputs.


@st.composite
def scalars(draw, n, numerators=st.integers(-4, 4), denominators=st.integers(1, 3),
            zeros=True, rationals=False):
    """A scalar of Q(zeta_n): zero half the time when ``zeros``, otherwise
    deg(Phi_n) numerators over one denominator, all but the first of them
    zero half the time when ``rationals``."""
    if zeros and draw(st.booleans()):
        return Cyc.zero(n)
    deg = phi_degree(n)
    top = 1 if rationals and draw(st.booleans()) else deg
    num = draw(st.lists(numerators, min_size=top, max_size=top)) + [0] * (deg - top)
    return Cyc(n, num, draw(denominators))


@st.composite
def classes(draw, kinds, n_max=8, sparse=False, scalar=scalars):
    """One class per basis kind in ``kinds``, all of one weight n = 2..n_max,
    each coordinate drawn from ``scalar(n)``.  When ``sparse``, half the
    classes have nonzero scalars on at most four random positions only."""
    n = draw(st.integers(2, n_max))
    any_scalar, nonzero = scalar(n), scalar(n, zeros=False)
    out = []
    for kind in kinds:
        size = len(basis(n, kind).labels)
        if sparse and draw(st.booleans()):
            support = draw(st.sets(st.integers(0, size - 1), max_size=4))
            coeffs = [draw(nonzero) if i in support else Cyc.zero(n) for i in range(size)]
        else:
            coeffs = [draw(any_scalar) for _ in range(size)]
        out.append(Coords(n, kind, coeffs))
    return out


# ---------------------------------------------------------------------------
# The sector layer.


def cycs(n: int, values) -> tuple[Cyc, ...]:
    """Integers or fractions as rational scalars of Q(zeta_n)."""
    return tuple(Cyc.rational(n, v) for v in values)


def _strip(coeffs) -> tuple[Cyc, ...]:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def modulus(n: int, m: int) -> tuple[int, ...]:
    """The monic modulus of sector m, ascending: t = x^n - 1 when m != 0, else
    (x - 1) t = x t - t = x^(n+1) - x^n - x + 1."""
    t = (-1,) + (0,) * (n - 1) + (1,)
    return tuple(a - b for a, b in zip((0,) + t, t + (0,))) if m == 0 else t


def poly_reduce(n: int, m: int, coeffs) -> tuple[Cyc, ...]:
    """sum c_j x^j modulo the modulus of sector m, by long division."""
    mod, rem = modulus(n, m), list(coeffs)
    while len(rem) >= len(mod):
        lead = rem.pop()
        if lead:
            shift = len(rem) + 1 - len(mod)
            for i, c in enumerate(mod[:-1]):
                if c:
                    rem[shift + i] = rem[shift + i] - lead.scale_int(c)
    return _strip(rem)


def poly_add(n: int, *parts) -> tuple[Cyc, ...]:
    """The sum of coefficient tuples; a sum of reduced classes is reduced."""
    out = [Cyc.zero(n)] * max(map(len, parts), default=0)
    for p in parts:
        for i, c in enumerate(p):
            out[i] = out[i] + c
    return _strip(out)


def poly_scale(n: int, p, c) -> tuple[Cyc, ...]:
    """c * p for a scalar, an integer or a fraction c."""
    c = c if isinstance(c, Cyc) else Cyc.rational(n, c)
    return _strip(a * c for a in p)


def poly_mul(n: int, m: int, a, b) -> tuple[Cyc, ...]:
    """a * b in sector m: the schoolbook product, reduced."""
    out = [Cyc.zero(n)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = out[i + j] + x * y
    return poly_reduce(n, m, out)


def poly_pow(n: int, m: int, base, e: int) -> tuple[Cyc, ...]:
    """base^e in sector m for e >= 0, by square-and-multiply."""
    result = (Cyc.one(n),)
    while e:
        if e & 1:
            result = poly_mul(n, m, result, base)
        e >>= 1
        if e:
            base = poly_mul(n, m, base, base)
    return result


def x_inverse(n: int, m: int) -> tuple[Cyc, ...]:
    """x^(-1) in sector m, read off the modulus M = M(0) + x Q(x): M(0) is
    1 or -1, so x * (-M(0) Q(x)) = 1."""
    mod = modulus(n, m)
    return _strip(cycs(n, (-mod[0] * c for c in mod[1:])))


@cache
def reference_bott_class(n: int, m: int, j: int) -> tuple[Cyc, ...]:
    """S(j) = 1 + y + ... + y^(j-1) for y = x_m^(-1), along the binary digits
    of j: S(2i) = S(i)(1 + y^i) and S(2i + 1) = 1 + y S(2i)."""
    one, y = (Cyc.one(n),), x_inverse(n, m)
    total, power = (), one  # S(i) and y^i, from i = 0
    for bit in bin(j)[2:]:
        total = poly_mul(n, m, total, poly_add(n, one, power))
        power = poly_mul(n, m, power, power)
        if bit == "1":
            total = poly_add(n, one, poly_mul(n, m, y, total))
            power = poly_mul(n, m, power, y)
    return total


def euler_table(n: int, m1: int, m2: int, squared: bool = True) -> tuple[Cyc, ...]:
    """The paper's Euler factor of the sector pair (m1, m2), in sector
    m1 + m2 mod n: 1 when either index is 0; (1 - 1/x)^2 = 1 - 2/x + 1/x^2
    when both are nonzero and sum to n, where ``squared=False`` leaves out
    the square; 1 - 1/x otherwise."""
    if m1 == 0 or m2 == 0:
        return (Cyc.one(n),)
    t = (m1 + m2) % n
    e = poly_add(n, (Cyc.one(n),), poly_scale(n, x_inverse(n, t), -1))
    return poly_mul(n, t, e, e) if squared and m1 + m2 == n else e


def perturbed_euler(n: int, m1: int, m2: int) -> tuple[int, ...]:
    """An Euler table for ``virtual_ring.euler_factor``, as its coefficients
    of 1, x^(-1), ..., with the coincident case (m1 + m2 = n) deliberately
    wrong: 1 - 1/x, not its square, as ``euler_table(..., squared=False)``."""
    return (1,) if m1 == 0 or m2 == 0 else (1, -1)


def sector_part(a: Coords, m: int) -> tuple[Cyc, ...]:
    """The coefficients of 1, x_m, x_m^2, ... of ``a`` on sector m."""
    a.check_kind("sector")
    start, get = sector_start(a.n, m), a.terms.get
    width = a.n + 1 if m == 0 else a.n
    return _strip(get(start + j, Cyc.zero(a.n)) for j in range(width))


def from_sectors(n: int, parts: dict) -> Coords:
    """The class with the reduced coefficients ``parts[m]`` on sector m, zero elsewhere."""
    terms = {}
    for m, p in parts.items():
        assert len(p) <= (n + 1 if m == 0 else n), "representative is not reduced"
        terms.update(enumerate(p, sector_start(n, m)))
    return from_terms(n, "sector", terms)


def reference_mul(a: Coords, b: Coords, squared: bool = True) -> Coords:
    """The virtual product on whole sector polynomials: each pair of sector
    parts times its Euler factor ``euler_table(..., squared)``, reduced in the
    target sector; ``squared=False`` is the product ``perturbed_euler`` plants."""
    n = a.n
    parts_a, parts_b = ({m: p for m in range(n) if (p := sector_part(c, m))} for c in (a, b))
    out = {}
    for (m1, p1), (m2, p2) in itertools.product(parts_a.items(), parts_b.items()):
        t = (m1 + m2) % n
        term = poly_mul(n, t, poly_mul(n, t, p1, p2), euler_table(n, m1, m2, squared))
        out[t] = poly_add(n, out.get(t, ()), term)
    return from_sectors(n, out)


def reference_adams(a: Coords, k: int) -> Coords:
    """The virtual Adams operation on whole sector polynomials: x_m^j maps to
    x_m^(jk), by square-and-multiply, times the k-th Bott class when m != 0."""
    n, x, parts = a.n, (Cyc.zero(a.n), Cyc.one(a.n)), {}
    for m in range(n):
        image = poly_add(n, *(poly_scale(n, poly_pow(n, m, x, j * k), c)
                              for j, c in enumerate(sector_part(a, m)) if c))
        parts[m] = poly_mul(n, m, image, reference_bott_class(n, m, k)) if m else image
    return from_sectors(n, parts)


# ---------------------------------------------------------------------------
# The localized rings: the product rules and the Adams push-forwards as dense loops.


def reference_loc_mul(a: Coords, b: Coords) -> Coords:
    """The localized product rules as one dense loop."""
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
        w = Cyc.one(n) - zeta_pow(n, -l)
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


def solutions(n: int, k: int, l: int) -> tuple[int, ...]:
    """Ascending solutions of k*y = l (mod n); empty when gcd(k,n) does not divide l."""
    d = math.gcd(k, n)
    if l % d:
        return ()
    nd = n // d
    y0 = (pow(k // d, -1, nd) * ((l // d) % nd)) % nd if nd > 1 else 0
    return tuple(y0 + i * nd for i in range(d))


def reference_loc_adams(a: Coords, k: int) -> Coords:
    """psi^k pushed forward: each generator is sent to its images over the
    solution set of k*y = l (mod n), with the row weight recomputed here."""
    n = a.n
    A = a.coeffs
    out = list(zero(n, "loc").coeffs)
    sols0 = solutions(n, k, 0)
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
    one = Cyc.one(n)
    for l in range(1, n):
        sols = solutions(n, k, l)
        cu = A[grid(n, 0, l)]
        if cu:
            for s in sols:
                out[grid(n, 0, s)] = out[grid(n, 0, s)] + cu
        for m in range(1, n):
            c = A[grid(n, m, l)]
            if c:
                for s in sols:
                    weight = (zeta_pow(n, -l) - one) * (zeta_pow(n, -s) - one).inv()
                    out[grid(n, m, s)] = out[grid(n, m, s)] + c * weight
    return Coords(n, "loc", out)


def reference_u_adams(a: Coords, k: int) -> Coords:
    """psi^k pushed forward on semisimple coordinates over the same solution sets."""
    n = a.n
    A = a.coeffs
    out = list(zero(n, "u").coeffs)
    out[0] = A[0]
    if A[0]:
        for s in solutions(n, k, 0)[1:]:
            for q in range(n):
                out[grid(n, s, q)] = out[grid(n, s, q)] + A[0]
    for q in range(n):
        c = A[grid(n, 0, q)]
        if c:
            out[grid(n, 0, q)] = out[grid(n, 0, q)] + c.scale_int(k)
    for l in range(1, n):
        for q in range(n):
            c = A[grid(n, l, q)]
            if c:
                for s in solutions(n, k, l):
                    out[grid(n, s, q)] = out[grid(n, s, q)] + c
    return Coords(n, "u", out)


# ---------------------------------------------------------------------------
# The renderer: every coordinate as a Cyc, every coefficient as a Fraction.


def reference_format_cyc(value: Cyc) -> str:
    """Descending powers of zeta, each coefficient a ``Fraction``."""
    terms = []
    for e in reversed(range(len(value.num))):
        c = value.num[e]
        if not c:
            continue
        mag = Fraction(abs(c), value.den)
        if e == 0:
            body = str(mag)
        else:
            sym = "zeta" if e == 1 else "zeta^%d" % e
            body = sym if mag == 1 else "%s*%s" % (mag, sym)
        if not terms:
            terms.append(body if c > 0 else "-" + body)
        else:
            terms.append((" + " if c > 0 else " - ") + body)
    return "".join(terms) if terms else "0"


def _reference_term(c: Cyc, label: str) -> str:
    # " + c*label", or " - |c|*label" for a negative rational c; a coefficient
    # 1 and the label "1" are left out.
    if c.is_rational():
        r = c.rational_value()
        sign, coeff = " - " if r < 0 else " + ", "" if abs(r) == 1 else str(abs(r))
    else:
        sign, coeff = " + ", "(%s)" % reference_format_cyc(c)
    if label == "1":
        return sign + (coeff or "1")
    return sign + ("%s*%s" % (coeff, label) if coeff else label)


def reference_text(v: Coords) -> str:
    """The text form of a class, one ``Cyc`` per nonzero coordinate."""
    labels = v.basis.labels
    text = "".join(_reference_term(c, labels[i]) for i, c in v.terms.items())
    return ("-" if text[1] == "-" else "") + text[3:] if text else "0"


def _reference_rat_vector(c: Cyc) -> list[str]:
    return [str(f) for f in c.coeffs]


def reference_json(v: Cyc | Coords) -> str:
    """The JSON form of a scalar or a class, one ``Fraction`` per coefficient."""
    if isinstance(v, Cyc):
        doc = {"n": v.n, "basis": "scalar", "value": _reference_rat_vector(v)}
    else:
        index = v.basis.json
        doc = {"n": v.n, "basis": v.kind, "coeffs": [
            {"index": list(index[i]), "value": _reference_rat_vector(c)}
            for i, c in v.terms.items()]}
    return json.dumps(doc, sort_keys=True)
