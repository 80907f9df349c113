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
line-element constructors on the localized side.  Mixing the two sides in
one expression is rejected at parse time; ``gamma``/``gammainv`` are the
only bridges.  "*" means the virtual product on the sector side and the
localized product on the localized side; ``psi[0]`` is the augmentation.

Exponents are bounded by ``MAX_EXPONENT`` in absolute value and Adams
indices by ``MAX_ADAMS_INDEX``; larger values are parse errors, because
sector powers and Adams operations take time linear in the index.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction

from . import localization as loc
from . import virtual_ring as vr
from .coords import Coords, gen, power, unit
from .cyclotomic import Cyc, format_cyc, zeta_pow
from .line_elements import line_element, line_realize


#: Largest accepted |exponent| in ``^``.
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


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: Fraction


@dataclass(frozen=True)
class Zeta:
    pass


@dataclass(frozen=True)
class XAtom:
    m: int


@dataclass(frozen=True)
class OneAtom:
    m: int


@dataclass(frozen=True)
class EAtom:
    m: int
    l: int


@dataclass(frozen=True)
class XEAtom:
    pass


@dataclass(frozen=True)
class UAtom:
    l: int
    q: int


@dataclass(frozen=True)
class SigmaAtom:
    i: int


@dataclass(frozen=True)
class NuAtom:
    j: int


@dataclass(frozen=True)
class LineAtom:
    f: tuple[int, ...]
    beta: tuple["Expr", ...]


@dataclass(frozen=True)
class Neg:
    x: "Expr"


@dataclass(frozen=True)
class Add:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Sub:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Mul:
    a: "Expr"
    b: "Expr"


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exp: int


@dataclass(frozen=True)
class Psi:
    k: int
    x: "Expr"


@dataclass(frozen=True)
class Eps:
    x: "Expr"


@dataclass(frozen=True)
class GammaOp:
    x: "Expr"


@dataclass(frozen=True)
class GammaInvOp:
    x: "Expr"


Expr = (
    Num | Zeta | XAtom | OneAtom | EAtom | XEAtom | UAtom | SigmaAtom | NuAtom
    | LineAtom | Neg | Add | Sub | Mul | Pow | Psi | Eps | GammaOp | GammaInvOp
)


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

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            raise ParseError(
                "expected %s" % (value or kind), tok[2]
            )
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
        while True:
            tok = self.peek()
            if tok[0] == "sym" and tok[1] in "+-":
                self.next()
                rhs = self.parse_term()
                e = Add(e, rhs) if tok[1] == "+" else Sub(e, rhs)
            else:
                return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while True:
            tok = self.peek()
            if tok[0] == "sym" and tok[1] == "*":
                self.next()
                e = Mul(e, self.parse_unary())
            else:
                return e

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok[0] == "sym" and tok[1] == "-":
            self.next()
            inner = self.parse_unary()
            if isinstance(inner, Num):
                return Num(-inner.value)
            return Neg(inner)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_primary()
        tok = self.peek()
        if tok[0] == "sym" and tok[1] == "^":
            self.next()
            pos = self.peek()[2]
            exp = self.parse_signed_int()
            if abs(exp) > MAX_EXPONENT:
                raise ParseError("exponent %d exceeds the bound %d" % (exp, MAX_EXPONENT), pos)
            return Pow(base, exp)
        return base

    def parse_signed_int(self) -> int:
        tok = self.peek()
        sign = 1
        if tok[0] == "sym" and tok[1] == "-":
            self.next()
            sign = -1
        tok = self.expect("num")
        return sign * int(tok[1])

    def parse_int(self) -> int:
        tok = self.peek()
        if tok[0] == "sym" and tok[1] == "-":
            return self.parse_signed_int()
        return int(self.expect("num")[1])

    def _index(self, what: str, value: int, pos: int) -> int:
        if not 0 <= value < self.n:
            raise ParseError(
                "%s index %d out of range for n=%d" % (what, value, self.n), pos
            )
        return value

    def parse_primary(self) -> Expr:
        tok = self.next()
        kind, text, pos = tok
        if kind == "num":
            value = Fraction(int(text))
            nxt = self.peek()
            if nxt[0] == "sym" and nxt[1] == "/":
                self.next()
                den = int(self.expect("num")[1])
                if den == 0:
                    raise ParseError("zero denominator", nxt[2])
                value = Fraction(int(text), den)
            return Num(value)
        if kind == "sym" and text == "(":
            e = self.parse_expr()
            self.expect_sym(")")
            return e
        if kind != "name":
            raise ParseError("unexpected token %r" % text, pos)
        if text == "zeta":
            return Zeta()
        if text in ("x", "one", "sigma", "nu"):
            self.expect_sym("[")
            idx_tok = self.peek()
            idx = self._index(text, self.parse_int(), idx_tok[2])
            self.expect_sym("]")
            return {"x": XAtom, "one": OneAtom, "sigma": SigmaAtom, "nu": NuAtom}[text](idx)
        if text in ("e", "xe", "u"):
            self.expect_sym("[")
            first_tok = self.peek()
            first = self.parse_int()
            self.expect_sym(",")
            second_tok = self.peek()
            second = self.parse_int()
            self.expect_sym("]")
            if text == "xe":
                if (first, second) != (0, 0):
                    raise ParseError("xe exists only at block [0,0]", first_tok[2])
                return XEAtom()
            self._index(text, first, first_tok[2])
            self._index(text, second, second_tok[2])
            return EAtom(first, second) if text == "e" else UAtom(first, second)
        if text == "L":
            self.expect_sym("(")
            f = [self.parse_int()]
            while self.peek()[:2] == ("sym", ","):
                self.next()
                f.append(self.parse_int())
            self.expect_sym(";")
            beta = [self.parse_expr()]
            while self.peek()[:2] == ("sym", ","):
                self.next()
                beta.append(self.parse_expr())
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
            self.expect_sym("(")
            e = self.parse_expr()
            self.expect_sym(")")
            return Psi(k, e)
        if text in ("eps", "gamma", "gammainv"):
            self.expect_sym("(")
            e = self.parse_expr()
            self.expect_sym(")")
            return {"eps": Eps, "gamma": GammaOp, "gammainv": GammaInvOp}[text](e)
        raise ParseError("unknown symbol %r" % text, pos)


SCALAR, SECTOR, LOC = "scalar", "sector", "loc"


def infer_basis(e: Expr) -> str:
    """Ambient basis of an expression; raises BasisMixError on a sector/loc mix."""

    def join(a: str, b: str) -> str:
        if a == SCALAR:
            return b
        if b == SCALAR or a == b:
            return a
        raise BasisMixError(
            "cannot mix sector-basis and localized-basis atoms; use gamma/gammainv", 0
        )

    if isinstance(e, (Num, Zeta)):
        return SCALAR
    if isinstance(e, (XAtom, OneAtom)):
        return SECTOR
    if isinstance(e, (EAtom, XEAtom, UAtom, SigmaAtom, NuAtom)):
        return LOC
    if isinstance(e, LineAtom):
        for b in e.beta:
            if infer_basis(b) != SCALAR:
                raise BasisMixError("L(...) scalar slots must be scalar expressions", 0)
        return LOC
    if isinstance(e, (Neg, Pow)):
        return infer_basis(e.x if isinstance(e, Neg) else e.base)
    if isinstance(e, (Add, Sub, Mul)):
        return join(infer_basis(e.a), infer_basis(e.b))
    if isinstance(e, (Psi, Eps)):
        inner = infer_basis(e.x)
        if inner == SCALAR:
            raise BasisMixError("psi/eps apply to ring elements, not scalars", 0)
        return inner
    if isinstance(e, GammaOp):
        if infer_basis(e.x) != SECTOR:
            raise BasisMixError("gamma expects a sector-basis expression", 0)
        return LOC
    if isinstance(e, GammaInvOp):
        if infer_basis(e.x) != LOC:
            raise BasisMixError("gammainv expects a localized-basis expression", 0)
        return SECTOR
    raise TypeError("unknown AST node %r" % (e,))


def preferred_display(e: Expr) -> str:
    """Display basis: "u" when only semisimple-side atoms occur, else as inferred."""
    basis = infer_basis(e)
    if basis != LOC:
        return basis

    saw_loc = False
    saw_u = False

    def walk(node: Expr) -> None:
        nonlocal saw_loc, saw_u
        if isinstance(node, (EAtom, XEAtom)) or isinstance(node, GammaOp):
            saw_loc = True
        if isinstance(node, (UAtom, SigmaAtom, NuAtom, LineAtom)):
            saw_u = True
        for attr in ("a", "b", "x", "base"):
            child = getattr(node, attr, None)
            if child is not None and not isinstance(child, int):
                walk(child)
        if isinstance(node, LineAtom):
            for b in node.beta:
                walk(b)

    walk(e)
    if saw_u and not saw_loc:
        return "u"
    return LOC


def parse(text: str, n: int) -> Expr:
    """Parse and basis-check an expression for weight n."""
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    e = _Parser(text, n).parse()
    infer_basis(e)
    return e


# ---------------------------------------------------------------------------
# Formatting (round-trips through parse)


def format_expr(e: Expr) -> str:
    def fmt(node: Expr, parent: int) -> str:
        # precedence levels: add 1, mul 2, unary 3, pow 4, atom 5
        if isinstance(node, Num):
            s = str(node.value)
            level = 3 if node.value < 0 else 5
        elif isinstance(node, Zeta):
            s, level = "zeta", 5
        elif isinstance(node, XAtom):
            s, level = "x[%d]" % node.m, 5
        elif isinstance(node, OneAtom):
            s, level = "one[%d]" % node.m, 5
        elif isinstance(node, EAtom):
            s, level = "e[%d,%d]" % (node.m, node.l), 5
        elif isinstance(node, XEAtom):
            s, level = "xe[0,0]", 5
        elif isinstance(node, UAtom):
            s, level = "u[%d,%d]" % (node.l, node.q), 5
        elif isinstance(node, SigmaAtom):
            s, level = "sigma[%d]" % node.i, 5
        elif isinstance(node, NuAtom):
            s, level = "nu[%d]" % node.j, 5
        elif isinstance(node, LineAtom):
            s = "L(%s; %s)" % (
                ",".join(str(v) for v in node.f),
                ",".join(fmt(b, 1) for b in node.beta),
            )
            level = 5
        elif isinstance(node, Neg):
            s, level = "-" + fmt(node.x, 3), 3
        elif isinstance(node, Add):
            s, level = "%s + %s" % (fmt(node.a, 1), fmt(node.b, 2)), 1
        elif isinstance(node, Sub):
            s, level = "%s - %s" % (fmt(node.a, 1), fmt(node.b, 2)), 1
        elif isinstance(node, Mul):
            s, level = "%s*%s" % (fmt(node.a, 2), fmt(node.b, 3)), 2
        elif isinstance(node, Pow):
            s, level = "%s^%d" % (fmt(node.base, 5), node.exp), 4
        elif isinstance(node, Psi):
            s, level = "psi[%d](%s)" % (node.k, fmt(node.x, 1)), 5
        elif isinstance(node, Eps):
            s, level = "eps(%s)" % fmt(node.x, 1), 5
        elif isinstance(node, GammaOp):
            s, level = "gamma(%s)" % fmt(node.x, 1), 5
        elif isinstance(node, GammaInvOp):
            s, level = "gammainv(%s)" % fmt(node.x, 1), 5
        else:
            raise TypeError("unknown AST node %r" % (node,))
        if level < parent:
            return "(%s)" % s
        return s

    return fmt(e, 1)


# ---------------------------------------------------------------------------
# Evaluation


Value = Cyc | Coords


def evaluate(e: Expr, n: int) -> tuple[str, Value]:
    """Evaluate a parsed expression; returns (basis, value)."""
    basis = infer_basis(e)
    return basis, _eval(e, n)


def _coerce_pair(a: Value, b: Value, n: int):
    # scalar op class: lift the scalar to a multiple of the unit.
    if isinstance(a, Cyc) and not isinstance(b, Cyc):
        return unit(b.n, b.kind).scale(a), b
    if isinstance(b, Cyc) and not isinstance(a, Cyc):
        return a, unit(a.n, a.kind).scale(b)
    return a, b


def _eval(e: Expr, n: int) -> Value:
    if isinstance(e, Num):
        return Cyc.rational(n, e.value)
    if isinstance(e, Zeta):
        return zeta_pow(n, 1)
    if isinstance(e, XAtom):
        return vr.k_monomial(n, e.m, 1)
    if isinstance(e, OneAtom):
        return vr.k_monomial(n, e.m, 0)
    if isinstance(e, EAtom):
        return gen(n, "loc", "e[%d,%d]" % (e.m, e.l))
    if isinstance(e, XEAtom):
        return gen(n, "loc", "xe[0,0]")
    if isinstance(e, UAtom):
        return loc.from_u_basis(gen(n, "u", "u[%d,%d]" % (e.l, e.q)))
    if isinstance(e, SigmaAtom):
        from .line_elements import sigma

        return loc.from_u_basis(line_realize(sigma(n, e.i)))
    if isinstance(e, NuAtom):
        from .line_elements import nu

        return loc.from_u_basis(line_realize(nu(n, e.j)))
    if isinstance(e, LineAtom):
        betas = []
        for b in e.beta:
            v = _eval(b, n)
            if not isinstance(v, Cyc):
                raise EvalError("L(...) scalar slot did not evaluate to a scalar")
            betas.append(v)
        return loc.from_u_basis(line_realize(line_element(n, e.f, betas)))
    if isinstance(e, Neg):
        v = _eval(e.x, n)
        return -v if not isinstance(v, Cyc) else v.scale_int(-1)
    if isinstance(e, (Add, Sub)):
        a, b = _coerce_pair(_eval(e.a, n), _eval(e.b, n), n)
        if isinstance(e, Add):
            return a + b
        return a - b
    if isinstance(e, Mul):
        a, b = _eval(e.a, n), _eval(e.b, n)
        if isinstance(a, Cyc) and isinstance(b, Cyc):
            return a * b
        if isinstance(a, Cyc):
            return b.scale(a)
        if isinstance(b, Cyc):
            return a.scale(b)
        if a.kind == SECTOR:
            return vr.virtual_mul(a, b)
        return loc.loc_mul(a, b)
    if isinstance(e, Pow):
        if isinstance(e.base, XAtom):
            return vr.k_monomial(n, e.base.m, e.exp)
        v = _eval(e.base, n)
        if isinstance(v, Cyc):
            try:
                return v**e.exp
            except ZeroDivisionError as exc:
                raise EvalError(str(exc)) from exc
        if v.kind == LOC:
            if e.exp >= 0:
                return power(v, e.exp, loc.loc_mul)
            try:
                u = loc.u_inverse(loc.to_u_basis(v))
            except ZeroDivisionError as exc:
                raise EvalError(str(exc)) from exc
            return loc.from_u_basis(power(u, -e.exp, loc.u_mul))
        if e.exp < 0:
            u = loc.to_u_basis(loc.gamma(v))
            if not loc.u_is_invertible(u):
                raise EvalError("class is not invertible in the virtual ring")
            # Powering in the diagonal u-ring and mapping back once keeps the
            # rational coefficients from growing through every virtual product.
            inv_pow = power(loc.u_inverse(u), -e.exp, loc.u_mul)
            return loc.gamma_inverse(loc.from_u_basis(inv_pow))
        return power(v, e.exp, vr.virtual_mul)
    if isinstance(e, Psi):
        if e.k == 0:
            return _eval(Eps(e.x), n)
        v = _eval(e.x, n)
        if v.kind == SECTOR:
            return vr.virtual_adams(v, e.k)
        return loc.loc_adams(v, e.k)
    if isinstance(e, Eps):
        v = _eval(e.x, n)
        if v.kind == SECTOR:
            return vr.virtual_augmentation(v)
        return loc.loc_augmentation(v)
    if isinstance(e, GammaOp):
        return loc.gamma(_eval(e.x, n))
    if isinstance(e, GammaInvOp):
        return loc.gamma_inverse(_eval(e.x, n))
    raise TypeError("unknown AST node %r" % (e,))


# ---------------------------------------------------------------------------
# Output formatting


def format_value(basis: str, v: Value, display: str | None = None) -> str:
    """Deterministic text form; coefficients in fixed basis order."""
    if basis == SCALAR:
        return format_cyc(v)
    if display == "u":
        v = loc.to_u_basis(v)
    return str(v)


def _rat_vector(c: Cyc) -> list[str]:
    return [str(f) for f in c.coeffs]


def value_to_json(n: int, basis: str, v: Value, display: str | None = None) -> str:
    """Structured serialization; exact rational coefficient vectors throughout."""
    if basis == SCALAR:
        doc = {"n": n, "basis": "scalar", "value": _rat_vector(v)}
        return json.dumps(doc, sort_keys=True)
    if display == "u":
        v = loc.to_u_basis(v)
    coeffs = [{"index": list(index), "value": _rat_vector(c)}
              for index, c in zip(v.basis.json, v.coeffs) if c]
    doc = {"n": n, "basis": v.kind, "coeffs": coeffs}
    return json.dumps(doc, sort_keys=True)
