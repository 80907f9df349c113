"""Exact arithmetic in the cyclotomic fields Q(zeta_n).

A scalar is a residue modulo the n-th cyclotomic polynomial Phi_n.  It is
stored as a vector of deg(Phi_n) integer numerators over a single positive
denominator, kept in lowest terms, so two scalars are equal exactly when
their stored data agree and no tolerance appears anywhere.  Phi_n is
irreducible over Q, hence every nonzero residue is invertible; reducing
modulo x^n - 1 instead would introduce zero divisors and leave constants
like 1/(zeta - 1) undefined.

One scalar contract: a ``Cyc`` computes with and equals only a ``Cyc`` of
its own order.  Arithmetic across two orders raises ``ValueError`` and
equality across them is ``False``; an ``int`` or ``Fraction`` operand is a
``TypeError`` and never equals a ``Cyc``, so equal values hash equally and
equality is transitive.  Integers and fractions enter only where they are
converted: ``Cyc.rational``, the ``Cyc`` constructor, ``Cyc.scale_int``,
``coords.gen``, ``Coords.scale``, ``line_elements.line_element`` and
``CycPoly.from_ints``.  ``Cyc`` has no ``**``: a power of a scalar runs
through ``coords.power``, the one square-and-multiply.

One integer division, ``_int_divmod``, gives Phi_n (x^n - 1 divided exactly
by Phi_d for each proper divisor d of n) and the rows of x^e mod Phi_n for
e = 0 .. 2n-2 (``_xpow``), the first n of them the powers of zeta.
``_reduce``, the one reduction modulo Phi_n, brings raw numerators of any
length to deg(Phi_n) entries through rows deg .. 2n-2, after folding a
longer vector by zeta^n = 1.

The integer kernels build no ``Cyc``: they add integer products to raw
sums keyed by output position over one denominator that the caller keeps
(``coords.numerators`` and ``coords.from_numerators``), so they merge no
denominators and normalise nothing.  ``_times`` multiplies two numerator
vectors: a rational factor scales the other vector, and only two irrational
factors are convolved.  ``_scatter`` is the multiply-accumulate step of the
products and the virtual Adams operations: it adds num * r to the sums for
table entries r in Z[zeta_n].  ``_poly_times`` multiplies two polynomials
in x and zeta modulo a sector's modulus, each given as the flat integer
terms that ``_poly_terms`` writes and ``coords.sector_split`` keeps per
sector of a class: one loop over the pairs of terms, adding each product at
the sum of their offsets, one fold of the powers past the modulus, and one
reduction per power of x left; ``virtual_ring.virtual_mul`` calls it once
per pair of sectors.  ``_rotation_sums`` is the discrete Fourier
transform behind Gamma, its inverse and the changes to and from the
semisimple basis: sums of c_j * zeta^(+-lj) for integer vectors c_j, summed
in Z[x]/(x^n - 1), where zeta^t is a rotation by t, and reduced once.  That
is exact because Phi_n divides x^n - 1, so the reduction is a ring map; a
``Cyc`` itself must stay modulo Phi_n, where every nonzero value is invertible.

``CycPoly`` is a dense univariate polynomial with ``Cyc`` coefficients: a
class of one sector ring of ``sector_ring``.  It carries the ``x[m]^a``
atoms and the sector-0 Adams columns, and its product and long division
serve the powers of x_0 past x^n in ``sector_monomial``.  The Euler rows
and the twisted Adams columns are integer closed forms that use none of
it, and the products themselves run on integer numerators.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache

from .records import Record, set_field


def _int_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int]]:
    """Quotient and remainder of integer polynomials, ascending coefficients;
    ``b`` must be monic.  The remainder has deg(b) entries."""
    d = len(b) - 1
    r = [*a, *[0] * (d - len(a))]
    q = [0] * (len(r) - d)
    for i in reversed(range(len(q))):
        c = q[i] = r[i + d]
        if c:
            for j, bj in enumerate(b):
                r[i + j] -= c * bj
    return q, r[:d]


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, ascending degree (integer, monic).

    Computed by iterated exact division of x^n - 1 by Phi_d over the proper
    divisors d of n.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num, rem = _int_divmod(num, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("division was not exact")
    return tuple(num)


def phi_degree(n: int) -> int:
    """deg(Phi_n), the dimension of Q(zeta_n) over Q."""
    return len(cyclotomic_polynomial(n)) - 1


def _xpow(n: int) -> tuple[tuple[int, ...], ...]:
    # x^e mod Phi_n for e = 0 .. 2n-2, as integer coefficient rows.
    phi = cyclotomic_polynomial(n)
    return tuple(tuple(_int_divmod([0] * e + [1], phi)[1]) for e in range(2 * n - 1))


@cache
def _reduction(n: int) -> tuple[int, tuple[tuple[int, tuple[tuple[int, int], ...]], ...]]:
    # deg(Phi_n), and for each e = deg .. 2n-2 the nonzero entries (i, r) of
    # the row of x^e mod Phi_n.
    deg, table = phi_degree(n), _xpow(n)
    return deg, tuple((e, tuple((i, r) for i, r in enumerate(table[e]) if r))
                      for e in range(deg, 2 * n - 1))


def _reduce(n: int, raw: list[int]) -> list[int]:
    # The integers raw[e], coefficients of x^e, modulo Phi_n: deg(Phi_n)
    # numerators, unnormalised.  A vector longer than 2n-1 is first folded to
    # length n, as x^n = 1 modulo Phi_n, a divisor of x^n - 1.
    deg, rows = _reduction(n)
    size = len(raw)
    if size <= deg:
        return raw + [0] * (deg - size)
    if size >= 2 * n:
        folded = raw[:n]
        for e in range(n, size):
            folded[e % n] += raw[e]
        raw, size = folded, n
    out = raw[:deg]
    for e, row in rows[:size - deg]:
        c = raw[e]
        if c:
            for i, r in row:
                out[i] += c * r
    return out


def _normalized(num: list[int], den: int) -> tuple[tuple[int, ...], int]:
    if den == 0:
        raise ZeroDivisionError("zero denominator")
    if den < 0:
        den = -den
        num = [-c for c in num]
    if den != 1:
        g = math.gcd(den, *num)
        if g > 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


_MIXED = "mixed cyclotomic orders: %d vs %d"


class Cyc:
    """An element of Q(zeta_n): integer numerator vector over one denominator.

    A closed type: ``+``, ``-``, ``*`` and ``==`` take only a ``Cyc`` of the
    same order.  Another order raises ``ValueError`` or compares unequal; an
    ``int`` or ``Fraction`` operand raises ``TypeError`` or compares unequal.
    A zero operand returns at once; two others meet through ``_times``, which
    convolves modulo Phi_n only when neither is rational.
    """

    __slots__ = ("n", "num", "den")

    def __init__(self, n: int, coeffs: Iterable[int] = (), den: int = 1):
        if n < 1:
            raise ValueError("n must be a positive integer")
        # operator.index rejects floats and Fractions instead of truncating
        # them; a rational value is an integer vector over a common den.
        num = _reduce(n, [operator.index(c) for c in coeffs])
        num_t, den = _normalized(num, operator.index(den))
        _set_n(self, n)
        _set_num(self, num_t)
        _set_den(self, den)

    def __setattr__(self, name, value):
        raise AttributeError("Cyc values are immutable")

    def __delattr__(self, name):
        raise AttributeError("Cyc values are immutable")

    @staticmethod
    @cache
    def zero(n: int) -> "Cyc":
        """The zero of Q(zeta_n); one shared object per n."""
        return _raw(n, (0,) * phi_degree(n), 1)

    @staticmethod
    @cache
    def one(n: int) -> "Cyc":
        """The unit of Q(zeta_n); one shared object per n."""
        return _raw(n, (1,) + (0,) * (phi_degree(n) - 1), 1)

    @classmethod
    def rational(cls, n: int, value: int | Fraction) -> "Cyc":
        if not isinstance(value, (int, Fraction)):
            raise TypeError("a rational value must be an int or a Fraction, got %s"
                            % type(value).__name__)
        return _raw(n, (value.numerator,) + (0,) * (phi_degree(n) - 1), value.denominator)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """Rational coordinates with respect to 1, zeta, ..., zeta^(deg-1)."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational scalar: %s" % self)
        return Fraction(self.num[0], self.den)

    def __bool__(self) -> bool:
        return any(self.num)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Cyc):
            return NotImplemented
        return self.n == other.n and self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.n, self.num, self.den))

    def __neg__(self) -> "Cyc":
        return _raw(self.n, tuple(-c for c in self.num), self.den)

    def __add__(self, other: "Cyc") -> "Cyc":
        return self._combine(other, operator.add)

    def __sub__(self, other: "Cyc") -> "Cyc":
        return self._combine(other, operator.sub)

    def _combine(self, other: "Cyc", op) -> "Cyc":
        # self + other or self - other, as op is operator.add or operator.sub.
        if not isinstance(other, Cyc):
            return NotImplemented
        n, a, da = self.n, self.num, self.den
        if other.n != n:
            raise ValueError(_MIXED % (n, other.n))
        b, db = other.num, other.den
        if not any(b):
            return self
        if op is operator.add and not any(a):
            return other
        if da == db:
            return _canonical(n, list(map(op, a, b)), da)
        return _canonical(n, [op(x * db, y * da) for x, y in zip(a, b)], da * db)

    def __mul__(self, other: "Cyc") -> "Cyc":
        if not isinstance(other, Cyc):
            return NotImplemented
        n, a, b = self.n, self.num, other.num
        if other.n != n:
            raise ValueError(_MIXED % (n, other.n))
        if not (any(a) and any(b)):
            return Cyc.zero(n)
        return _canonical(n, _times(n, a, b), self.den * other.den)

    def scale_int(self, k: int) -> "Cyc":
        """k * self for an integer k."""
        k = operator.index(k)
        if not k or not any(self.num):
            return Cyc.zero(self.n)
        return _canonical(self.n, [c * k for c in self.num], self.den)

    def inv(self) -> "Cyc":
        """Multiplicative inverse by the Galois norm.

        sigma_j (j in (Z/n)*) sends zeta to zeta^j.  With P the product of
        the conjugates sigma_j(num) for j != 1, num * P is the norm N(num), a
        nonzero integer, so (num/den)^-1 = den * P / N(num).
        """
        n, num = self.n, self.num
        if not self:
            raise ZeroDivisionError("0 has no inverse in Q(zeta_%d)" % n)
        if self.is_rational():
            return Cyc.rational(n, 1 / Fraction(num[0], self.den))
        p = Cyc.one(n).num
        for j in range(2, n):
            if math.gcd(j, n) == 1:
                conjugate = [0] * n
                for e, c in enumerate(num):
                    conjugate[e * j % n] += c
                p = _times(n, p, _reduce(n, conjugate))
        norm = _times(n, num, p)[0]
        return _canonical(n, [self.den * c for c in p], norm)

    def __repr__(self) -> str:
        return format_cyc(self)

    __str__ = __repr__

    def __reduce__(self):
        return _raw, (self.n, self.num, self.den)


# Slot setters that bypass the immutability guard in Cyc.__setattr__.
_set_n, _set_num, _set_den = Cyc.n.__set__, Cyc.num.__set__, Cyc.den.__set__


def _raw(n: int, num: tuple[int, ...], den: int) -> Cyc:
    # (num, den) must already be canonical: lowest terms, den > 0.
    obj = object.__new__(Cyc)
    _set_n(obj, n)
    _set_num(obj, num)
    _set_den(obj, den)
    return obj


def _convolve(n: int, a: Sequence[int], b: Sequence[int]) -> list[int]:
    # a * b modulo Phi_n, unnormalised: schoolbook convolution over the nonzero
    # entries of both vectors, then one reduction.
    conv = [0] * (2 * len(a) - 1)
    b_nz = [(j, y) for j, y in enumerate(b) if y]
    for i, x in enumerate(a):
        if x:
            for j, y in b_nz:
                conv[i + j] += x * y
    return _reduce(n, conv)


def _times(n: int, a: Sequence[int], b: Sequence[int],
           a_rational: bool | None = None) -> list[int]:
    # a * b modulo Phi_n, unnormalised: the one product rule for numerator
    # vectors.  A rational factor (zero past the constant term) only scales
    # the other; two irrational factors are convolved.  A caller that
    # multiplies one a by many b passes a_rational, tested once for all.
    if a_rational is None:
        a_rational = not any(a[1:])
    if a_rational:
        a0 = a[0]
        return [a0 * y for y in b]
    if not any(b[1:]):
        b0 = b[0]
        return [x * b0 for x in a]
    return _convolve(n, a, b)


def _rotation_sums(n: int, sums: dict[int, list[int]], pairs: Iterable[tuple[int, list[int]]],
                   sign: int, positions: Iterable[int], ls: Iterable[int]) -> None:
    # For each l in ls, write to sums at the matching position the raw
    # numerators of the sum of v * zeta^(sign*l*j) over the pairs (j, v),
    # reduced once and not normalised.  Each v is a length-n integer list, the
    # coefficients of x^0 .. x^(n-1) of an element of Z[x]/(x^n - 1), where
    # multiplying by x^t rotates the list by t: each pair costs one slice of
    # v + v per l, and the first pair's slice is the sum when no other pair
    # follows.
    n2 = 2 * n
    (j0, d0), *rest = [(j, v + v) for j, v in pairs]
    for i, l in zip(positions, ls):
        t = sign * l
        s = n - t * j0 % n
        total = d0[s:s + n]
        if rest:
            total = list(map(sum, zip(total, *[d[n - t * j % n:n2 - t * j % n] for j, d in rest])))
        sums[i] = _reduce(n, total)


def _canonical(n: int, num: list[int], den: int) -> Cyc:
    """num/den from raw numerators of length deg(Phi_n), normalised once."""
    return _raw(n, *_normalized(num, den))


#: A polynomial in x over Z[zeta_n] as ``_poly_terms`` writes it: (lo, hi, terms).
PolyTerms = tuple[int, int, tuple[tuple[int, int], ...]]


def _poly_terms(n: int, rows: Sequence[tuple[int, Sequence[int]]]) -> PolyTerms:
    # The input form of ``_poly_times`` for the polynomial with numerators
    # num, the coefficients of zeta^i, at each x^j of ``rows``, ascending in j:
    # (lo, hi, terms), lo and hi the lowest and highest j, and terms the
    # nonzero pairs (k, v) at the flat offset k = (j - lo) * w + i, in rows
    # w = 2*deg - 1 wide so that sums never carry into the next row; so the
    # product of two terms sits at the sum of their offsets.
    w, lo = 2 * phi_degree(n) - 1, rows[0][0]
    return lo, rows[-1][0], tuple(((j - lo) * w + i, v) for j, num in rows
                                  for i, v in enumerate(num) if v)


def _poly_times(n: int, a: PolyTerms, b: PolyTerms,
                untwisted: bool) -> list[tuple[int, list[int]]]:
    # The product of two polynomials in x over Z[zeta_n], modulo x^n - 1, or
    # modulo (x - 1)(x^n - 1) when ``untwisted``, unnormalised.  Each factor
    # is in the flat form of ``_poly_terms``, as ``coords.sector_split`` keeps
    # one per sector of a class, so a factor met again is not rebuilt.
    # Returns (s, numerators of x^s) for each s whose reduced row is nonzero,
    # ascending in s, with s < n, or s <= n when ``untwisted``.  The rows past
    # the modulus fold before any reduction by the closed form of
    # ``sector_ring``: x^(cn+r) is x^r modulo x^n - 1, and
    # x^(cn+d) = x^d + c(x^n - 1) for 1 <= d <= n modulo (x - 1)(x^n - 1).
    # A row is then reduced modulo Phi_n only when it reaches deg(Phi_n),
    # never for two rational factors.
    deg = phi_degree(n)
    w = 2 * deg - 1
    (ja, ha, ta), (jb, hb, tb) = a, b
    flat = [0] * ((ha - ja + hb - jb + 1) * w)
    for k, v in ta:
        for kb, vb in tb:
            flat[k + kb] += v * vb
    low, e0 = (n + untwisted) * w, ja + jb
    if e0 * w + len(flat) > low:
        flat, e0, shift = [0] * (e0 * w) + flat, 0, untwisted * w
        for c, start in enumerate(range(low, len(flat), n * w), 1):
            chunk = flat[start:start + n * w]
            flat[shift:shift + len(chunk)] = map(operator.add, flat[shift:], chunk)
            if untwisted:
                t = [c * sum(chunk[i::w]) for i in range(w)]
                flat[:w] = map(operator.sub, flat, t)
                flat[low - w:low] = map(operator.add, flat[low - w:], t)
        del flat[low:]
    out = []
    for s in range(0, len(flat), w):
        row = flat[s:s + w]
        num = _reduce(n, row) if any(row[deg:]) else row[:deg]
        if any(num):
            out.append((e0 + s // w, num))
    return out


def _scatter(n: int, sums: dict[int, list[int]], num: Sequence[int], start: int,
             positions: Iterable[int], entries: Iterable[Cyc | int]) -> None:
    # Add num * entries[k] to the raw numerators sums[start + positions[k]]
    # for every k.  The entries are ints or Cyc in Z[zeta_n] (``coords.sparse``
    # refuses others), so every sum keeps the one denominator of num.
    rational = not any(num[1:])
    for offset, r in zip(positions, entries):
        if r.__class__ is int:
            p = num if r == 1 else [x * r for x in num]
        else:
            p = _times(n, num, r.num, rational)
        i = start + offset
        s = sums.get(i)
        sums[i] = p if s is None else list(map(operator.add, s, p))


@cache
def _zeta_powers(n: int) -> tuple[Cyc, ...]:
    return tuple(_raw(n, row, 1) for row in _xpow(n)[:n])


def zeta_pow(n: int, k: int) -> Cyc:
    """zeta_n^k as an exact scalar (exponent reduced mod n).

    One shared object per power, so cached tables store each power once.
    """
    return _zeta_powers(n)[k % n]


def format_cyc(value: Cyc) -> str:
    """Deterministic human-readable form, descending powers of zeta."""
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


class CycPoly(Record):
    """Dense polynomial over Q(zeta_n); ascending coefficients, no trailing zeros."""

    __slots__ = ("n", "coeffs")

    def __init__(self, n: int, coeffs: tuple[Cyc, ...]):
        set_field(self, "n", n)
        set_field(self, "coeffs", coeffs)

    @classmethod
    def from_cycs(cls, n: int, coeffs: Iterable[Cyc]) -> "CycPoly":
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        return cls(n, tuple(cs))

    @classmethod
    def from_ints(cls, n: int, coeffs: Iterable[int | Fraction]) -> "CycPoly":
        return cls.from_cycs(n, (Cyc.rational(n, c) for c in coeffs))

    @classmethod
    def zero(cls, n: int) -> "CycPoly":
        return cls(n, ())

    @classmethod
    def one_poly(cls, n: int) -> "CycPoly":
        return cls(n, (Cyc.one(n),))

    @classmethod
    def monomial(cls, n: int, k: int) -> "CycPoly":
        return cls(n, (Cyc.zero(n),) * k + (Cyc.one(n),))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def __mul__(self, other: "CycPoly") -> "CycPoly":
        if self.is_zero() or other.is_zero():
            return CycPoly.zero(self.n)
        out = [Cyc.zero(self.n)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        out[i + j] = out[i + j] + a * b
        return CycPoly.from_cycs(self.n, out)

    def divmod_by(self, d: "CycPoly") -> tuple["CycPoly", "CycPoly"]:
        if d.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        lead_inv = d.coeffs[-1].inv()
        rem = list(self.coeffs)
        qlen = max(len(rem) - len(d.coeffs) + 1, 0)
        quo = [Cyc.zero(self.n)] * qlen
        for i in reversed(range(qlen)):
            c = rem[i + len(d.coeffs) - 1] * lead_inv
            quo[i] = c
            if c:
                for j, dj in enumerate(d.coeffs):
                    rem[i + j] = rem[i + j] - c * dj
        return CycPoly.from_cycs(self.n, quo), CycPoly.from_cycs(
            self.n, rem[: len(d.coeffs) - 1]
        )

