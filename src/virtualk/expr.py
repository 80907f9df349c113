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
side to display and with it the ambient basis, and places a basis error at
the node that does not fit.  "*" means the virtual product on the sector
side and the localized product on the localized side; ``psi[0]`` is the
augmentation.

Exponents are bounded by ``MAX_EXPONENT`` in absolute value and Adams
indices lie in 0..``MAX_ADAMS_INDEX``; other values are parse errors, and
so is an integer literal of more digits than Python converts from text.
``parse_adams_index`` reads an index written on its own, as the CLI's
``adams k`` gives it, by the same rule as the k of ``psi[k]``.  A
power of the untwisted sector variable takes time linear in the exponent, so
the |e| of all ``x[0]^e`` atoms in one tree must also sum to at most
``MAX_EXPONENT``; the atom that crosses the bound is a parse error.  ``check``
walks a tree for this budget, then for the basis, both in a parsed text and
in the node a CLI verb builds around its arguments.  Every other power of a
class has one rule (``ring_power``): the class goes to semisimple
coordinates, through ``gamma`` first on the sector side, where the product
is diagonal except for one square-zero block; it is inverted there for a
negative exponent, raised by ``coords.power`` and mapped back once.  A
power of a scalar is inverted first for a negative exponent and runs
through the same ``power``.  An Adams operation builds its columns in
closed form, at a cost that does not grow with the index; only the size of
its integer coefficients does.  A power of a class or a scalar whose
coefficients outgrow Python's integer-to-text limit is an evaluation error:
every product of either power passes the same digit guard (``_printable``),
so the error is raised as soon as a step of the power meets such a
coefficient.  ``evaluate`` passes its answer through the guard once more, so
a sum or product too long to print is the same error, about "the result".
"""

from __future__ import annotations

import json
import re
import sys
from fractions import Fraction
from itertools import chain

from . import localization as loc
from . import virtual_ring as vr
from .coords import Coords, gen, power, unit
from .cyclotomic import Cyc, format_cyc, format_ratio, zeta_pow
from .line_elements import line_element, line_realize, nu, sigma
from .records import Record, set_field


#: Largest accepted |exponent| in ``^``, and largest accepted sum of |e| over
#: the ``x[0]^e`` atoms of one expression.
MAX_EXPONENT = 2000
#: Largest accepted Adams index k in ``psi[k]``.
MAX_ADAMS_INDEX = 3000


class ParseError(ValueError):
    """A parse error at ``position`` of the text, or of the CLI argument ``argument``."""

    def __init__(self, message: str, position: int, argument: str | None = None):
        where = "at" if argument is None else "in %s at" % argument
        super().__init__("%s (%s position %d)" % (message, where, position))
        self.message, self.position, self.argument = message, position, argument


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
#
# Every node records ``pos``, the position in the text where it starts, for
# error messages.  ``pos`` is a field of the shared base, so it takes no part
# in equality, hashing or repr: equal trees compare equal wherever their
# nodes stand.


class _Node(Record):
    __slots__ = ("pos",)

    def __init__(self, pos: int, *values):
        set_field(self, "pos", pos)
        Record.__init__(self, *values)

    def __reduce__(self):
        return type(self), self._values() + (self.pos,)


class Num(_Node):
    __slots__ = ("value",)

    def __init__(self, value: Fraction, pos: int = 0):
        _Node.__init__(self, pos, value)


class Atom(_Node):
    """A generator named in ``ATOMS`` with its indices."""

    __slots__ = ("name", "idx")

    def __init__(self, name: str, idx: tuple[int, ...] = (), pos: int = 0):
        _Node.__init__(self, pos, name, idx)

    @property
    def label(self) -> str:
        return "%s[%s]" % (self.name, ",".join(map(str, self.idx))) if self.idx else self.name


class LineAtom(_Node):
    __slots__ = ("f", "beta")

    def __init__(self, f: tuple[int, ...], beta: tuple[Expr, ...], pos: int = 0):
        _Node.__init__(self, pos, f, beta)


class Unary(_Node):
    """``op`` is "-", "psi" (with Adams index ``k``), "eps", "gamma" or "gammainv"."""

    __slots__ = ("op", "x", "k")

    def __init__(self, op: str, x: Expr, k: int = 0, pos: int = 0):
        _Node.__init__(self, pos, op, x, k)


class Binary(_Node):
    """``op`` is "+", "-" or "*"."""

    __slots__ = ("op", "a", "b")

    def __init__(self, op: str, a: Expr, b: Expr, pos: int = 0):
        _Node.__init__(self, pos, op, a, b)


class Pow(_Node):
    __slots__ = ("base", "exp")

    def __init__(self, base: Expr, exp: int, pos: int = 0):
        _Node.__init__(self, pos, base, exp)


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


def adams_index(k: int, pos: int = 0) -> int:
    """``k``, or a ParseError at ``pos`` if it is no Adams index of ``psi[k]``."""
    if not 0 <= k <= MAX_ADAMS_INDEX:
        raise ParseError("Adams index %d is not in 0..%d; psi[0] is the augmentation"
                         % (k, MAX_ADAMS_INDEX), pos)
    return k


def _digit_limit() -> int:
    # Python's limit on the digits of an integer converted from or to text;
    # 0, or an interpreter without the call, means no limit.
    return getattr(sys, "get_int_max_str_digits", int)()


def _literal(text: str, pos: int) -> int:
    """The integer literal ``text`` at ``pos``, or a ParseError if it has more
    digits than Python converts from text."""
    limit = _digit_limit()
    if limit and len(text) > limit:
        raise ParseError("integer literal of %d digits, over the limit %d for integer string "
                         "conversion" % (len(text), limit), pos)
    return int(text)


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

    def parse(self, rule=None):
        """What ``rule``, by default an expression, reads from the whole text;
        trailing input is an error."""
        e = rule() if rule else self.parse_expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("unexpected trailing input %r" % tok[1], tok[2])
        return e

    def parse_expr(self) -> Expr:
        e = self.parse_term()
        while self.peek()[:2] in (("sym", "+"), ("sym", "-")):
            e = Binary(self.next()[1], e, self.parse_term(), e.pos)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.accept("*"):
            e = Binary("*", e, self.parse_unary(), e.pos)
        return e

    def parse_unary(self) -> Expr:
        at = self.peek()[2]
        if self.accept("-"):
            inner = self.parse_unary()
            if isinstance(inner, Num):
                return Num(-inner.value, at)
            return Unary("-", inner, pos=at)
        return self.parse_power()

    def parse_power(self) -> Expr:
        at = self.peek()[2]
        base = self.parse_primary()
        if self.accept("^"):
            pos = self.peek()[2]
            exp = self.parse_int()
            if abs(exp) > MAX_EXPONENT:
                raise ParseError("exponent %d exceeds the bound %d" % (exp, MAX_EXPONENT), pos)
            return Pow(base, exp, at)
        return base

    def parse_int(self) -> int:
        sign = -1 if self.accept("-") else 1
        _, text, pos = self.expect("num")
        return sign * _literal(text, pos)

    def parse_index(self) -> int:
        """The k of ``psi[k]``: an integer checked by ``adams_index``."""
        at = self.peek()[2]
        return adams_index(self.parse_int(), at)

    def parse_list(self, item) -> list:
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def parse_argument(self) -> Expr:
        self.expect("sym", "(")
        e = self.parse_expr()
        self.expect("sym", ")")
        return e

    def parse_atom(self, name: str, start: int) -> Atom:
        arity = ATOMS[name][0]
        idx, at = [], []
        if arity:
            self.expect("sym", "[")
        for i in range(arity):
            if i:
                self.expect("sym", ",")
            at.append(self.peek()[2])
            idx.append(self.parse_int())
        # A one-index atom is range-checked before its "]", a two-index atom after it.
        if arity == 2:
            self.expect("sym", "]")
        if name == "xe" and idx != [0, 0]:
            raise ParseError("xe exists only at block [0,0]", at[0])
        for value, pos in zip(idx, at):
            if not 0 <= value < self.n:
                raise ParseError("%s index %d out of range for n=%d" % (name, value, self.n), pos)
        if arity == 1:
            self.expect("sym", "]")
        return Atom(name, tuple(idx), start)

    def parse_primary(self) -> Expr:
        if self.peek()[:2] == ("sym", "("):
            return self.parse_argument()
        kind, text, pos = self.next()
        if kind == "num":
            value = Fraction(_literal(text, pos))
            slash = self.peek()[2]
            if self.accept("/"):
                _, den_text, den_pos = self.expect("num")
                den = _literal(den_text, den_pos)
                if den == 0:
                    raise ParseError("zero denominator", slash)
                value /= den
            return Num(value, pos)
        if kind == "eof":
            raise ParseError("unexpected end of input", pos)
        if kind != "name":
            raise ParseError("unexpected token %r" % text, pos)
        if text in ATOMS:
            return self.parse_atom(text, pos)
        if text == "L":
            self.expect("sym", "(")
            f = self.parse_list(self.parse_int)
            self.expect("sym", ";")
            beta = self.parse_list(self.parse_expr)
            self.expect("sym", ")")
            if len(f) != self.n or len(beta) != self.n:
                raise ParseError("L needs %d torsion and %d scalar entries"
                                 % (self.n, self.n), pos)
            return LineAtom(tuple(v % self.n for v in f), tuple(beta), pos)
        if text == "psi":
            self.expect("sym", "[")
            k = self.parse_index()
            self.expect("sym", "]")
            return Unary("psi", self.parse_argument(), k, pos)
        if text in ("eps", "gamma", "gammainv"):
            return Unary(text, self.parse_argument(), pos=pos)
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
    return _display(e)[0]


def _display(e: Expr) -> tuple[str, int]:
    """``preferred_display`` of ``e`` and the position of the node that fixes
    it: the atom or ``gamma``/``gammainv`` that brings the side in, or the
    start of a scalar.  A BasisMixError is raised at the node that does not fit."""
    if isinstance(e, Num):
        return SCALAR, e.pos
    if isinstance(e, Atom):
        return ATOMS[e.name][1], e.pos
    if isinstance(e, LineAtom):
        for b in e.beta:
            side, at = _display(b)
            if side != SCALAR:
                raise BasisMixError("L(...) scalar slots must be scalar expressions", at)
        return "u", e.pos
    if isinstance(e, Pow):
        return _display(e.base)
    if isinstance(e, Binary):
        spine = _left_spine(e)
        side, at = _display(spine.pop())
        for node in reversed(spine):
            b, b_at = _display(node.b)
            if _ring(side) != _ring(b) and SCALAR not in (side, b):
                raise BasisMixError(
                    "cannot mix sector-basis and localized-basis atoms; use gamma/gammainv", b_at
                )
            if b not in (SCALAR, side) and (side == SCALAR or b == LOC):
                side, at = b if side == SCALAR else LOC, b_at
        return side, at
    inner, at = _display(e.x)
    if e.op in ("psi", "eps") and inner == SCALAR:
        raise BasisMixError("psi/eps apply to ring elements, not scalars", at)
    if e.op == "gamma":
        if inner != SECTOR:
            raise BasisMixError("gamma expects a sector-basis expression", at)
        return LOC, e.pos
    if e.op == "gammainv":
        if _ring(inner) != LOC:
            raise BasisMixError("gammainv expects a localized-basis expression", at)
        return SECTOR, e.pos
    return inner, at


def check(e: Expr) -> Expr:
    """``e``, once it passes the checks over a whole tree: the x[0] budget, then the basis."""
    total, stack = 0, [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Pow) and node.base == Atom("x", (0,)):
            total += abs(node.exp)
            if total > MAX_EXPONENT:
                raise ParseError("the exponents of x[0] sum to %d, over the bound %d"
                                 % (total, MAX_EXPONENT), node.pos)
        elif isinstance(node, Binary):
            stack += node.b, node.a
        elif isinstance(node, LineAtom):
            stack += reversed(node.beta)
        elif isinstance(node, (Unary, Pow)):
            stack.append(node.x if isinstance(node, Unary) else node.base)
    preferred_display(e)  # raises BasisMixError on a sector/loc mix
    return e


def parse(text: str, n: int) -> Expr:
    """Parse and check an expression for weight n."""
    if n < 2:
        raise ValueError("the weight n must be at least 2")
    return check(_Parser(text, n).parse())


def parse_adams_index(text: str) -> int:
    """An Adams index written on its own, read by the rule of the k in ``psi[k]``."""
    parser = _Parser(text, 0)
    return parser.parse(parser.parse_index)


# ---------------------------------------------------------------------------
# Evaluation


Value = Cyc | Coords


def evaluate(e: Expr, n: int) -> Value:
    """Evaluate a parsed expression; the value carries its basis (``value_basis``)
    and has passed the digit guard (``_printable``)."""
    return _printable(_eval(e, n), "the power" if isinstance(e, Pow) else "the result")


def value_basis(v: Value) -> str:
    """The basis a value is written in: "scalar" for a ``Cyc``, else its kind."""
    return SCALAR if isinstance(v, Cyc) else v.kind


def _coerce_pair(a: Value, b: Value):
    # scalar op class: lift the scalar to a multiple of the unit.
    if isinstance(a, Cyc) and not isinstance(b, Cyc):
        return unit(b.n, b.kind).scale(a), b
    if isinstance(b, Cyc) and not isinstance(a, Cyc):
        return a, unit(a.n, a.kind).scale(b)
    return a, b


#: 10**limit for each digit limit met: the least magnitude too long to print.
_TOO_LONG: dict[int, int] = {}


def _printable(v: Value, what: str = "the power") -> Value:
    """``v``, or EvalError naming ``what`` if it holds an integer too long to print.

    Python converts no integer of more than ``sys.get_int_max_str_digits()``
    digits to text (``_digit_limit``), that is none of magnitude 10**limit or
    more.  The check compares with that bound exactly and converts nothing.
    """
    limit = _digit_limit()
    if not limit:
        return v
    bound = _TOO_LONG.get(limit) or _TOO_LONG.setdefault(limit, 10 ** limit)
    # A class's stored integers bound each coordinate, judged as it prints if they fail.
    coeffs = ((v,) if isinstance(v, Cyc) else () if all(
        -bound < i < bound for i in (v.den, *chain(*v.nums.values()))) else v.terms.values())
    if not all(-bound < i < bound for c in coeffs for i in (c.den, *c.num)):
        raise EvalError("%s has coefficients of more than %d digits, "
                        "over the limit for integer string conversion" % (what, limit))
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
        if not isinstance(v, Cyc):
            return ring_power(v, e.exp)
        try:
            v = v.inv() if e.exp < 0 else v
        except ZeroDivisionError as exc:
            raise EvalError(str(exc)) from exc
        return power(v, abs(e.exp), lambda a, b: _printable(a * b))
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


def format_value(v: Value) -> str:
    """Deterministic text form; coefficients in fixed basis order."""
    return format_cyc(v) if isinstance(v, Cyc) else str(v)


def value_to_json(v: Value) -> str:
    """Structured serialization; exact rational coefficient vectors throughout,
    each coefficient written as ``str(Fraction)`` writes it."""
    if isinstance(v, Cyc):
        doc = {"n": v.n, "basis": SCALAR, "value": [format_ratio(c, v.den) for c in v.num]}
        return json.dumps(doc, sort_keys=True)
    index, den = v.basis.json, v.den
    coeffs = [{"index": list(index[i]), "value": [format_ratio(c, den) for c in num]}
              for i, num in v.nums.items()]
    doc = {"n": v.n, "basis": v.kind, "coeffs": coeffs}
    return json.dumps(doc, sort_keys=True)
