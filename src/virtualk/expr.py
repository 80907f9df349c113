"""Expression language for ring elements, with parsing and evaluation.

Grammar (EBNF):

    expr     := term (("+" | "-") term)*
    term     := unary ("*" unary)*
    unary    := "-" unary | power
    power    := primary ["^" ["-"] INT]
    primary  := INT ["/" INT]
              | "zeta"
              | "x" "[" INT "]" | "one" "[" INT "]"
              | "e" "[" INT "," INT "]" | "xe" "[" INT "," INT "]"
              | "u" "[" INT "," INT "]"
              | "sigma" "[" INT "]" | "nu" "[" INT "]"
              | "L" "(" int_list ";" expr_list ")"
              | "psi" "[" INT "]" "(" expr ")"
              | "eps" "(" expr ")" | "gamma" "(" expr ")" | "gammainv" "(" expr ")"
              | "(" expr ")"

"^" binds tighter than "*", which binds tighter than "+"/"-"; "*" and "+"
associate left.  Rational literals are INT or INT/INT; exponents are integer
literals, negative allowed on invertible operands.

Atoms fix the ambient basis: x/one live on the sector side, e/xe/u and the
line-element constructors on the localized side (``ATOMS``).  Mixing the two
sides in one expression is rejected at parse time; ``gamma``/``gammainv`` are
the only bridges.  One walk over the tree, ``preferred_display``, finds the
side to display and with it the ambient basis.  "*" means the virtual product
on the sector side and the localized product on the localized side;
``psi[0]`` is the augmentation.

Exponents are bounded by ``MAX_EXPONENT`` in absolute value and Adams
indices by ``MAX_ADAMS_INDEX``; larger values are parse errors.  A power of
the untwisted sector variable takes time linear in the exponent, so the
|e| of all ``x[0]^e`` atoms in one expression must also sum to at most
``MAX_EXPONENT``; the atom that crosses the bound is a parse error.  Every
other power of a class has one rule (``ring_power``): the class goes to
semisimple coordinates, through ``gamma`` first on the sector side, where the
product is diagonal except for one square-zero block; it is inverted there
for a negative exponent, raised by square-and-multiply and mapped back once.
An Adams operation builds its columns in closed form, at a cost that does not
grow with the index; only the size of its integer coefficients does.  A power
whose coefficients outgrow Python's integer-to-text limit is an evaluation
error, raised as soon as a step of the power meets such a coefficient.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

from . import localization as loc
from . import virtual_ring as vr
from .coords import Coords, gen, power, unit
from .cyclotomic import Cyc, format_cyc, zeta_pow
from .line_elements import line_element, line_realize, nu, sigma


#: Largest accepted |exponent| in ``^``, and largest accepted sum of |e| over
#: the ``x[0]^e`` atoms of one expression.
MAX_EXPONENT = 2000
#: Largest accepted Adams index k in ``psi[k]``.
MAX_ADAMS_INDEX = 3000


class ParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


class BasisMixError(ParseError):
    pass


class EvalError(ValueError):
    pass


SCALAR, SECTOR, LOC = "scalar", "sector", "loc"

#: Atom name -> (number of indices, display side).  The ring side is the
#: display side, except that the "u" atoms live in the localized ring.  Except
#: for zeta, sigma and nu, an atom's text is its label in the basis of its
#: display side: ``x[1]`` and ``one[1]`` in sector, ``e[1,0]`` and
#: ``xe[0,0]`` in loc, ``u[1,0]`` in u.
ATOMS = {
    "zeta": (0, SCALAR),
    "x": (1, SECTOR),
    "one": (1, SECTOR),
    "e": (2, LOC),
    "xe": (2, LOC),
    "u": (2, "u"),
    "sigma": (1, "u"),
    "nu": (1, "u"),
}


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Atom:
    """A generator named in ``ATOMS`` with its indices."""

    name: str
    idx: tuple[int, ...] = ()

    @property
    def label(self) -> str:
        return "%s[%s]" % (self.name, ",".join(map(str, self.idx))) if self.idx else self.name


@dataclass(frozen=True)
class LineAtom:
    f: tuple[int, ...]
    beta: tuple["Expr", ...]


@dataclass(frozen=True)
class Unary:
    """``op`` is "-", "psi" (with Adams index ``k``), "eps", "gamma" or "gammainv"."""

    op: str
    x: "Expr"
    k: int = 0


@dataclass(frozen=True)
class Binary:
    """``op`` is "+", "-" or "*"."""

    op: str
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exp: int


Expr = Num | Atom | LineAtom | Unary | Binary | Pow


# ---------------------------------------------------------------------------
# Tokenizer


_TOKEN = re.compile(r"(?P<ws>\s+)|(?P<num>\d+)|(?P<name>[A-Za-z_]\w*)|(?P<sym>[-+*^()\[\],;/])")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ParseError("unexpected character %r" % text[pos], pos)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    out.append(("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, n: int):
        self.tokens = _tokenize(text)
        self.i = 0
        self.n = n
        self.x0_exponents = 0  # sum of |e| over the x[0]^e atoms parsed so far

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def accept(self, sym: str) -> bool:
        """Consume the next token if it is the symbol ``sym``."""
        if self.peek()[:2] == ("sym", sym):
            self.i += 1
            return True
        return False

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError("expected %s" % (value or kind), tok[2])
        return tok

    def expect_sym(self, sym: str):
        return self.expect("sym", sym)

    def parse(self) -> Expr:
        e = self.parse_expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("unexpected trailing input %r" % tok[1], tok[2])
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            e = Binary(self.next()[1], e, self.parse_term())
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.accept("*"):
            e = Binary("*", e, self.parse_unary())
        return e

    def parse_unary(self) -> Expr:
        if self.accept("-"):
            inner = self.parse_unary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Unary("-", inner)
        return self.parse_power()

    def parse_power(self) -> Expr:
        at = self.peek()[2]
        base = self.parse_primary()
        if self.accept("^"):
            pos = self.peek()[2]
            exp = self.parse_int()
            if abs(exp) > MAX_EXPONENT:
                raise ParseError("exponent %d exceeds the bound %d" % (exp, MAX_EXPONENT), pos)
            if base == Atom("x", (0,)):
                self.x0_exponents += abs(exp)
                if self.x0_exponents > MAX_EXPONENT:
                    raise ParseError("the exponents of x[0] sum to %d, over the bound %d"
                                     % (self.x0_exponents, MAX_EXPONENT), at)
            return Pow(base, exp)
        return base

    def parse_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        return sign * int(self.expect("num")[1])

    def parse_list(self, item) -> list:
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def parse_argument(self) -> Expr:
        self.expect_sym("(")
        e = self.parse_expr()
        self.expect_sym(")")
        return e

    def parse_atom(self, name: str) -> Atom:
        arity = ATOMS[name][0]
        idx, at = [], []
        if arity:
            self.expect_sym("[")
        for i in range(arity):
            if i:
                self.expect_sym(",")
            at.append(self.peek()[2])
            idx.append(self.parse_int())
        # A one-index atom is range-checked before its "]", a two-index atom after it.
        if arity == 2:
            self.expect_sym("]")
        if name == "xe" and idx != [0, 0]:
            raise ParseError("xe exists only at block [0,0]", at[0])
        for value, pos in zip(idx, at):
            if not 0 <= value < self.n:
                raise ParseError(
                    "%s index %d out of range for n=%d" % (name, value, self.n), pos
                )
        if arity == 1:
            self.expect_sym("]")
        return Atom(name, tuple(idx))

    def parse_primary(self) -> Expr:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            value = Fraction(int(text))
            slash = self.peek()[2]
            if self.accept("/"):
                den = int(self.expect("num")[1])
                if den == 0:
                    raise ParseError("zero denominator", slash)
                value = Fraction(int(text), den)
            return Num(value)
        if kind == "sym" and text == "(":
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if kind != "name":
            raise ParseError("unexpected token %r" % text, pos)
        if text in ATOMS:
            return self.parse_atom(text)
        if text == "L":
            self.expect_sym("(")
            f = self.parse_list(self.parse_int)
            self.expect_sym(";")
            beta = self.parse_list(self.parse_expr)
            self.expect_sym(")")
            if len(f) != self.n or len(beta) != self.n:
                raise ParseError(
                    "L needs %d torsion and %d scalar entries" % (self.n, self.n), pos
                )
            return LineAtom(tuple(v % self.n for v in f), tuple(beta))
        if text == "psi":
            self.expect_sym("[")
            k_tok = self.expect("num")
            k = int(k_tok[1])
            if k > MAX_ADAMS_INDEX:
                raise ParseError(
                    "Adams index %d exceeds the bound %d" % (k, MAX_ADAMS_INDEX), k_tok[2]
                )
            self.expect_sym("]")
            return Unary("psi", self.parse_argument(), k)
        if text in ("eps", "gamma", "gammainv"):
            return Unary(text, self.parse_argument())
        raise ParseError("unknown symbol %r" % text, pos)


def _left_spine(e: Binary) -> list[Expr]:
    """The Binary chain down the left operands of ``e``, then its leftmost operand.

    The parser builds a flat sum or product as a left-deep tree, so walks over
    the spine run in a loop rather than recursing once per term.
    """
    spine: list[Expr] = []
    while isinstance(e, Binary):
        spine.append(e)
        e = e.a
    spine.append(e)
    return spine


def _ring(side: str) -> str:
    """The ring of a display side: u coordinates display the localized ring."""
    return LOC if side == "u" else side


def preferred_display(e: Expr) -> str:
    """Display basis of an expression, from which ``_ring`` reads its ambient basis.

    A localized expression displays in "u" when only semisimple-side atoms
    occur in it, and in "loc" once a loc atom or a ``gamma`` does.  Raises
    BasisMixError on a sector/loc mix.
    """
    if isinstance(e, Num):
        return SCALAR
    if isinstance(e, Atom):
        return ATOMS[e.name][1]
    if isinstance(e, LineAtom):
        if any(preferred_display(b) != SCALAR for b in e.beta):
            raise BasisMixError("L(...) scalar slots must be scalar expressions", 0)
        return "u"
    if isinstance(e, Pow):
        return preferred_display(e.base)
    if isinstance(e, Binary):
        spine = _left_spine(e)
        side = preferred_display(spine.pop())
        for node in reversed(spine):
            b = preferred_display(node.b)
            if _ring(side) != _ring(b) and SCALAR not in (side, b):
                raise BasisMixError(
                    "cannot mix sector-basis and localized-basis atoms; use gamma/gammainv", 0
                )
            side = side if b in (SCALAR, side) else b if side == SCALAR else LOC
        return side
    inner = preferred_display(e.x)
    if e.op in ("psi", "eps") and inner == SCALAR:
        raise BasisMixError("psi/eps apply to ring elements, not scalars", 0)
    if e.op == "gamma":
        if inner != SECTOR:
            raise BasisMixError("gamma expects a sector-basis expression", 0)
        return LOC
    if e.op == "gammainv":
        if _ring(inner) != LOC:
            raise BasisMixError("gammainv expects a localized-basis expression", 0)
        return SECTOR
    return inner


def parse(text: str, n: int) -> Expr:
    """Parse and basis-check an expression for weight n."""
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    e = _Parser(text, n).parse()
    preferred_display(e)  # raises BasisMixError on a sector/loc mix
    return e


# ---------------------------------------------------------------------------
# Evaluation


Value = Cyc | Coords


def evaluate(e: Expr, n: int) -> tuple[str, Value]:
    """Evaluate a parsed expression; returns (basis, value), the basis read off the value."""
    v = _eval(e, n)
    return SCALAR if isinstance(v, Cyc) else v.kind, v


def _coerce_pair(a: Value, b: Value):
    # scalar op class: lift the scalar to a multiple of the unit.
    if isinstance(a, Cyc) and not isinstance(b, Cyc):
        return unit(b.n, b.kind).scale(a), b
    if isinstance(b, Cyc) and not isinstance(a, Cyc):
        return a, unit(a.n, a.kind).scale(b)
    return a, b


def _printable(v: Coords) -> Coords:
    """``v``, or EvalError if it holds an integer too long to print.

    Python converts no integer of more than ``sys.get_int_max_str_digits()``
    digits to text (0, or an interpreter without the call, means no limit).
    Bit lengths are compared, so the check converts nothing.
    """
    limit = getattr(sys, "get_int_max_str_digits", int)()
    # An integer of more bits than this is at least 10**limit.
    max_bits = int(limit * math.log2(10)) + 1
    if limit and any(i.bit_length() > max_bits for c in v.terms.values() for i in (c.den, *c.num)):
        raise EvalError("the power has coefficients of more than %d digits, "
                        "over the limit for integer string conversion" % limit)
    return v


def ring_power(v: Coords, k: int) -> Coords:
    """v^k for a sector or loc class v and any integer k, in the diagonal u-ring.

    Powering there and mapping back once keeps the rational coefficients from
    growing through every ring product.  The power fails fast: every product
    of the loop goes through ``_printable``, and so does the loc value that a
    sector power hands to ``gamma_inverse``, which takes seconds on over-long
    coefficients and, on the classes tried, never shortens them.
    """
    sector = v.kind == SECTOR
    u = loc.to_u_basis(loc.gamma(v) if sector else v)
    if k < 0:
        if not loc.u_is_invertible(u):
            raise EvalError("class is not invertible in the %s ring"
                            % ("virtual" if sector else "localized"))
        u, k = loc.u_inverse(u), -k
    w = loc.from_u_basis(power(u, k, lambda a, b: _printable(loc.u_mul(a, b))))
    return loc.gamma_inverse(_printable(w)) if sector else w


def _binary(op: str, a: Value, b: Value) -> Value:
    if op != "*":
        a, b = _coerce_pair(a, b)
        return a + b if op == "+" else a - b
    if isinstance(a, Cyc) and isinstance(b, Cyc):
        return a * b
    if isinstance(a, Cyc):
        return b.scale(a)
    if isinstance(b, Cyc):
        return a.scale(b)
    if a.kind == SECTOR:
        return vr.virtual_mul(a, b)
    return loc.loc_mul(a, b)


def _eval(e: Expr, n: int) -> Value:
    if isinstance(e, Num):
        return Cyc.rational(n, e.value)
    if isinstance(e, Atom):
        if e.name == "zeta":
            return zeta_pow(n, 1)
        if e.name in ("sigma", "nu"):
            generator = sigma if e.name == "sigma" else nu
            return loc.from_u_basis(line_realize(generator(n, e.idx[0])))
        display = ATOMS[e.name][1]
        v = gen(n, display, e.label)
        return loc.from_u_basis(v) if display == "u" else v
    if isinstance(e, LineAtom):
        betas = []
        for b in e.beta:
            v = _eval(b, n)
            if not isinstance(v, Cyc):
                raise EvalError("L(...) scalar slot did not evaluate to a scalar")
            betas.append(v)
        return loc.from_u_basis(line_realize(line_element(n, e.f, betas)))
    if isinstance(e, Binary):
        spine = _left_spine(e)
        v = _eval(spine.pop(), n)
        for node in reversed(spine):
            v = _binary(node.op, v, _eval(node.b, n))
        return v
    if isinstance(e, Pow):
        if isinstance(e.base, Atom) and e.base.name == "x":
            return vr.k_monomial(n, e.base.idx[0], e.exp)
        v = _eval(e.base, n)
        if isinstance(v, Cyc):
            try:
                return v**e.exp
            except ZeroDivisionError as exc:
                raise EvalError(str(exc)) from exc
        return ring_power(v, e.exp)
    v = _eval(e.x, n)
    if e.op == "-":
        return -v
    if e.op == "gamma":
        return loc.gamma(v)
    if e.op == "gammainv":
        return loc.gamma_inverse(v)
    if e.op == "psi" and e.k:
        return vr.virtual_adams(v, e.k) if v.kind == SECTOR else loc.loc_adams(v, e.k)
    return vr.virtual_augmentation(v) if v.kind == SECTOR else loc.loc_augmentation(v)


# ---------------------------------------------------------------------------
# Output formatting


def format_value(basis: str, v: Value) -> str:
    """Deterministic text form; coefficients in fixed basis order."""
    return format_cyc(v) if basis == SCALAR else str(v)


def _rat_vector(c: Cyc) -> list[str]:
    return [str(f) for f in c.coeffs]


def value_to_json(n: int, basis: str, v: Value) -> str:
    """Structured serialization; exact rational coefficient vectors throughout."""
    if basis == SCALAR:
        doc = {"n": n, "basis": "scalar", "value": _rat_vector(v)}
        return json.dumps(doc, sort_keys=True)
    index = v.basis.json
    coeffs = [{"index": list(index[i]), "value": _rat_vector(c)} for i, c in v.terms.items()]
    doc = {"n": n, "basis": v.kind, "coeffs": coeffs}
    return json.dumps(doc, sort_keys=True)
