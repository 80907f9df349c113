from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from virtualk.cyclotomic import Cyc, phi_degree, zeta_pow
from virtualk.expr import (
    ATOMS,
    MAX_ADAMS_INDEX,
    MAX_EXPONENT,
    Atom,
    BasisMixError,
    Binary,
    EvalError,
    LineAtom,
    Num,
    ParseError,
    Pow,
    Unary,
    _left_spine,
    _Parser,
    _printable,
    evaluate,
    format_value,
    parse,
    preferred_display,
    ring_power,
    value_to_json,
)
from virtualk.coords import Coords, gen, power, unit, zero
from virtualk.line_elements import line_realize, sigma
from virtualk.localization import (
    from_u_basis,
    gamma,
    gamma_inverse,
    loc_mul,
    to_u_basis,
    u_inverse,
    u_is_invertible,
    u_mul,
)
from virtualk.virtual_ring import k_monomial, virtual_mul


def _eval(text, n):
    return evaluate(parse(text, n), n)


def test_sector_expression_with_negative_power():
    basis, v = _eval("one[0] + 2*x[1]^-1", 3)
    assert basis == "sector"
    assert v == unit(3, "sector") + k_monomial(3, 1, -1).scale(2)
    assert v["x[1]^2"] == Cyc.rational(3, 2)


def test_dense_sector_negative_power_matches_virtual_products():
    # Negative sector powers are taken in the u-ring; the product route agrees.
    base = "x[0] + 2*x[1] - 1/3*one[2] + x[2]^2"
    _, v = _eval("(%s)^-3" % base, 3)
    _, w = _eval("((%s)^-1)^3" % base, 3)
    _, b3 = _eval("(%s)^3" % base, 3)
    assert v == w
    assert virtual_mul(v, b3) == unit(3, "sector")


def test_u_idempotent_square():
    basis, v = _eval("u[1,0]*u[1,0]", 3)
    assert basis == "loc"
    assert v == from_u_basis(gen(3, "u", "u[1,0]"))


def test_line_constructor_is_sigma():
    basis, v = _eval("L(1,0;0,0)", 2)
    assert v == from_u_basis(line_realize(sigma(2, 0)))
    _, w = _eval("sigma[0]", 2)
    assert v == w


def test_adams_on_jet_block():
    basis, v = _eval("psi[2](xe[0,0])", 2)
    expected = gen(2, "loc", "xe[0,0]", 2) - gen(2, "loc", "e[0,0]") + gen(2, "loc", "e[0,1]")
    assert v == expected
    assert format_value(basis, v) == "-e[0,0] + 2*xe[0,0] + e[0,1]"


def test_gamma_of_unit():
    basis, v = _eval("gamma(one[0])", 3)
    assert basis == "loc"
    assert v == unit(3, "loc")


def test_eps_examples():
    _, v = _eval("eps(x[0]^3)", 3)
    assert v == unit(3, "sector")
    _, v = _eval("eps(x[2]^5)", 3)
    assert v.is_zero()
    _, v = _eval("psi[0](x[0]^2)", 3)
    assert v == unit(3, "sector")


def test_scalar_arithmetic():
    basis, v = _eval("zeta^2 - 1/2", 4)
    assert basis == "scalar"
    assert v == zeta_pow(4, 2) - Cyc.rational(4, Fraction(1, 2))


def test_scalar_lifts_to_unit_multiple():
    _, v = _eval("one[0] + 2", 2)
    assert v == unit(2, "sector").scale(3)
    _, w = _eval("e[0,1] - 1", 2)
    assert w == gen(2, "loc", "e[0,1]") - unit(2, "loc")


def test_precedence_and_unary_minus():
    _, v = _eval("-2*x[1]^2 + x[1]", 3)
    assert v == k_monomial(3, 1, 2).scale(-2) + k_monomial(3, 1, 1)
    _, w = _eval("2*zeta^2", 5)
    assert w == zeta_pow(5, 2).scale_int(2)


def test_gammainv_round_trip():
    _, v = _eval("gammainv(gamma(x[0]^2 + x[1]))", 3)
    assert v == k_monomial(3, 0, 2) + k_monomial(3, 1, 1)


def test_loc_negative_power():
    _, v = _eval("(2*e[0,0] + e[0,1] + e[1,1])^-1", 2)
    _, a = _eval("2*e[0,0] + e[0,1] + e[1,1]", 2)
    assert loc_mul(v, a) == unit(2, "loc")


def test_noninvertible_power_raises():
    with pytest.raises(EvalError):
        _eval("u[1,0]^-1", 2)
    with pytest.raises(EvalError):
        _eval("e[0,1]^-1", 2)


def test_basis_mixing_rejected_at_parse():
    with pytest.raises(BasisMixError):
        parse("x[1] + e[0,1]", 3)
    with pytest.raises(BasisMixError):
        parse("gamma(u[1,0])", 3)
    with pytest.raises(BasisMixError):
        parse("gammainv(x[0])", 3)
    with pytest.raises(BasisMixError):
        parse("eps(2)", 3)


def test_syntax_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse("one[0] + ", 3)
    assert "position" in str(exc.value)
    with pytest.raises(ParseError):
        parse("x[0] $ 2", 3)
    with pytest.raises(ParseError):
        parse("frob[1]", 3)


def test_the_x0_exponent_budget_stops_at_the_atom_that_crosses_it():
    parse("x[0]^1500 * x[0]^-500 * x[1]^2000", 8)
    with pytest.raises(ParseError) as exc:
        parse("x[0]^1500 * x[0]^600", 8)
    assert exc.value.position == 12 and "sum to 2100" in str(exc.value)
    # Flat chains and powers of sums are not x[0]^e atoms.
    parse("x[0]^2000 * " + " * ".join(["x[0]"] * 50) + " * (x[0] + 1)^3", 8)


def test_index_range_checked():
    with pytest.raises(ParseError):
        parse("x[3]", 3)
    with pytest.raises(ParseError):
        parse("u[1,5]", 3)
    with pytest.raises(ParseError):
        parse("xe[1,0]", 3)
    with pytest.raises(ParseError):
        parse("L(1,0;0)", 2)


def format_expr(e):
    """Expression text that ``parse`` reads back as the same tree ``e``."""

    def fmt(node, parent):
        # precedence levels: add 1, mul 2, unary 3, pow 4, atom 5
        level = 5
        if isinstance(node, Num):
            s = str(node.value)
            level = 3 if node.value < 0 else 5
        elif isinstance(node, Atom):
            s = node.label
        elif isinstance(node, LineAtom):
            s = "L(%s; %s)" % (
                ",".join(str(v) for v in node.f),
                ",".join(fmt(b, 1) for b in node.beta),
            )
        elif isinstance(node, Unary):
            if node.op == "-":
                s, level = "-" + fmt(node.x, 3), 3
            else:
                op = "psi[%d]" % node.k if node.op == "psi" else node.op
                s = "%s(%s)" % (op, fmt(node.x, 1))
        elif isinstance(node, Binary):
            if node.op == "*":
                s, level = "%s*%s" % (fmt(node.a, 2), fmt(node.b, 3)), 2
            else:
                s, level = "%s %s %s" % (fmt(node.a, 1), node.op, fmt(node.b, 2)), 1
        else:
            s, level = "%s^%d" % (fmt(node.base, 5), node.exp), 4
        if level < parent:
            return "(%s)" % s
        return s

    return fmt(e, 1)


def test_format_parse_round_trip():
    corpus = [
        (3, "one[0] + 2*x[1]^-1"),
        (3, "u[1,0]*u[1,0]"),
        (2, "L(1,0; 0,0)"),
        (3, "psi[2](xe[0,0])"),
        (3, "gamma(one[0])"),
        (3, "eps(x[0]^3)"),
        (3, "-1/2*x[1] + zeta^2*x[0]"),
        (3, "(x[0] + x[1])*x[2]^2"),
        (3, "gammainv(gamma(x[0]))"),
        (3, "sigma[1]*nu[0] - 3/4"),
        (3, "L(1,2,0; zeta,0,1/2)"),
        (3, "psi[3](u[2,1] + e[0,0])"),
    ]
    for n, text in corpus:
        ast = parse(text, n)
        assert parse(format_expr(ast), n) == ast, text


def _atoms(n, side):
    def indices(name):
        if name == "xe":
            return st.just((0, 0))
        return st.tuples(*[st.integers(0, n - 1)] * ATOMS[name][0])

    # The "u" atoms display in u and live in the localized ring.
    return st.one_of([indices(name).map(lambda idx, name=name: Atom(name, idx))
                      for name, (_, display) in ATOMS.items()
                      if {"u": "loc"}.get(display, display) == side])


@st.composite
def _asts(draw, n, side, depth=3):
    """An expression on ``side`` in the form the parser builds: basis-correct,
    with a negated number folded into its literal."""

    def sub(s=side):
        return draw(_asts(n, s, depth - 1))

    kinds = ["leaf"]
    if depth:
        kinds += ["neg", "binary", "pow"] + {
            "scalar": [], "sector": ["psi", "eps", "gammainv"], "loc": ["psi", "eps", "gamma"],
        }[side]
    kind = draw(st.sampled_from(kinds))
    if kind == "leaf":
        if side == "scalar" and draw(st.booleans()):
            return Num(draw(st.fractions(max_denominator=40)))
        if side == "loc" and draw(st.booleans()):
            f = draw(st.tuples(*[st.integers(0, n - 1)] * n))
            beta = draw(st.tuples(*[_asts(n, "scalar", max(depth - 1, 0))] * n))
            return LineAtom(f, beta)
        return draw(_atoms(n, side))
    if kind == "neg":
        x = sub()
        return Num(-x.value) if isinstance(x, Num) else Unary("-", x)
    if kind == "binary":
        sides = draw(st.sampled_from([(side, side), ("scalar", side), (side, "scalar")]))
        return Binary(draw(st.sampled_from("+-*")), sub(sides[0]), sub(sides[1]))
    if kind == "pow":
        return Pow(sub(), draw(st.integers(-MAX_EXPONENT, MAX_EXPONENT)))
    if kind == "psi":
        return Unary("psi", sub(), draw(st.integers(0, MAX_ADAMS_INDEX)))
    if kind == "gamma":
        return Unary("gamma", sub("sector"))
    if kind == "gammainv":
        return Unary("gammainv", sub("loc"))
    return Unary(kind, sub())


_cases = st.integers(2, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.sampled_from(["scalar", "sector", "loc"]).flatmap(lambda s: _asts(n, s))))


@settings(max_examples=150)
@given(_cases)
def test_format_parse_round_trip_on_random_asts(case):
    n, e = case
    assert parse(format_expr(e), n) == e


def test_preferred_display():
    assert preferred_display(parse("u[1,0]", 2)) == "u"
    assert preferred_display(parse("sigma[0]", 2)) == "u"
    assert preferred_display(parse("e[0,1]", 2)) == "loc"
    assert preferred_display(parse("u[1,0] + e[0,1]", 2)) == "loc"
    assert preferred_display(parse("x[0]", 2)) == "sector"


def test_json_serialization():
    basis, v = _eval("psi[2](xe[0,0])", 2)
    doc = value_to_json(2, basis, v)
    assert '"basis": "loc"' in doc
    assert '["e", 0, 0]' in doc and '["xe", 0, 0]' in doc
    basis, v = _eval("x[1] + one[0]", 2)
    doc = value_to_json(2, basis, v)
    assert '"basis": "sector"' in doc
    basis, v = _eval("zeta", 4)
    doc = value_to_json(4, basis, v)
    assert '"basis": "scalar"' in doc


def test_format_value_zero():
    assert format_value("loc", zero(2, "loc")) == "0"


# ---------------------------------------------------------------------------
# One power rule: every ring power goes through the u-ring.  The four routes
# the evaluator took before are the reference.


def _reference_steps(v, k, mul):
    return power(v, k, lambda a, b: _printable(mul(a, b)))


def reference_power(v, k):
    """v^k by the old routes: ``loc_mul`` for k >= 0 on loc, the u-ring for
    k < 0 on loc, ``gamma`` then the u-ring for k < 0 on sector, and
    ``virtual_mul`` for k >= 0 on sector."""
    if v.kind == "loc":
        if k >= 0:
            return _reference_steps(v, k, loc_mul)
        try:
            u = u_inverse(to_u_basis(v))
        except ZeroDivisionError as exc:
            raise EvalError(str(exc)) from exc
        return from_u_basis(_reference_steps(u, -k, u_mul))
    if k < 0:
        u = to_u_basis(gamma(v))
        if not u_is_invertible(u):
            raise EvalError("class is not invertible in the virtual ring")
        inv_pow = _reference_steps(u_inverse(u), -k, u_mul)
        return gamma_inverse(_printable(from_u_basis(inv_pow)))
    return _reference_steps(v, k, virtual_mul)


@st.composite
def _power_cases(draw):
    """A dense sector or loc class for n = 2..6 and an exponent in -4..6.

    Half the classes are drawn in their own basis; the others in u
    coordinates, where a zero on the unit or a semisimple row (often drawn)
    makes the class not invertible."""
    n = draw(st.integers(2, 6))
    kind = draw(st.sampled_from(["sector", "loc"]))
    from_u = draw(st.booleans())

    def scalar():
        if draw(st.integers(0, 4 if from_u else 19)) == 0:
            return Cyc.zero(n)
        return Cyc(n, draw(st.lists(st.integers(-3, 3), min_size=phi_degree(n),
                                    max_size=phi_degree(n))), draw(st.integers(1, 3)))

    coeffs = [scalar() for _ in range(n * n + 1)]
    if not from_u:
        v = Coords(n, kind, coeffs)
    else:
        v = from_u_basis(Coords(n, "u", coeffs))
        v = gamma_inverse(v) if kind == "sector" else v
    return v, draw(st.sampled_from(range(-4, 7)))


def _power_outcome(power_of, v, k):
    try:
        return power_of(v, k)
    except EvalError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(_power_cases())
@example((gen(3, "sector", "one[1]"), -2))
@example((gen(3, "loc", "e[0,1]"), -1))
@example((gen(4, "sector", "x[0]"), 0))
def test_the_power_rule_matches_the_old_routes_on_dense_classes(case):
    v, k = case
    got = _power_outcome(ring_power, v, k)
    assert got == _power_outcome(reference_power, v, k)
    if isinstance(got, str):
        assert k < 0 and got == "class is not invertible in the %s ring" % (
            "virtual" if v.kind == "sector" else "localized")


# ---------------------------------------------------------------------------
# One basis walk: ``preferred_display`` finds the display side and with it the
# ambient basis.  The two walks it replaced are the reference.


def _children(e):
    if isinstance(e, LineAtom):
        return e.beta
    if isinstance(e, Unary):
        return (e.x,)
    if isinstance(e, Binary):
        return (e.a, e.b)
    if isinstance(e, Pow):
        return (e.base,)
    return ()


_RING_SIDE = {"zeta": "scalar", "x": "sector", "one": "sector", "e": "loc", "xe": "loc",
              "u": "loc", "sigma": "loc", "nu": "loc"}


def reference_infer_basis(e):
    """Ambient basis of an expression; raises BasisMixError on a sector/loc mix."""
    if isinstance(e, Num):
        return "scalar"
    if isinstance(e, Atom):
        return _RING_SIDE[e.name]
    if isinstance(e, LineAtom):
        for b in e.beta:
            if reference_infer_basis(b) != "scalar":
                raise BasisMixError("L(...) scalar slots must be scalar expressions", 0)
        return "loc"
    if isinstance(e, Pow):
        return reference_infer_basis(e.base)
    if isinstance(e, Binary):
        spine = _left_spine(e)
        basis = reference_infer_basis(spine.pop())
        for node in reversed(spine):
            b = reference_infer_basis(node.b)
            if basis != b and "scalar" not in (basis, b):
                raise BasisMixError(
                    "cannot mix sector-basis and localized-basis atoms; use gamma/gammainv", 0
                )
            if basis == "scalar":
                basis = b
        return basis
    inner = reference_infer_basis(e.x)
    if e.op in ("psi", "eps") and inner == "scalar":
        raise BasisMixError("psi/eps apply to ring elements, not scalars", 0)
    if e.op == "gamma":
        if inner != "sector":
            raise BasisMixError("gamma expects a sector-basis expression", 0)
        return "loc"
    if e.op == "gammainv":
        if inner != "loc":
            raise BasisMixError("gammainv expects a localized-basis expression", 0)
        return "sector"
    return inner


def reference_preferred_display(e):
    """Display basis: "u" when only semisimple-side atoms occur, else as inferred."""
    basis = reference_infer_basis(e)
    if basis != "loc":
        return basis
    seen = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Atom):
            seen.add(ATOMS[node.name][1])
        elif isinstance(node, LineAtom):
            seen.add("u")
        elif isinstance(node, Unary) and node.op == "gamma":
            seen.add("loc")
        stack.extend(_children(node))
    return "u" if "u" in seen and "loc" not in seen else "loc"


def _walks(walk, e):
    """(basis, display) by ``walk``, or the text of its BasisMixError."""
    try:
        basis, display = walk(e)
    except BasisMixError as exc:
        return str(exc)
    return basis, display


def _old_walks(e):
    return reference_infer_basis(e), reference_preferred_display(e)


def _new_walk(e):
    display = preferred_display(e)
    return ("loc" if display == "u" else display), display


WALK_TABLE = [
    # every node kind and atom
    (3, "3"), (3, "-1/2"), (4, "zeta"), (4, "zeta^2 - 1/2"), (3, "(zeta + 1)^-1"),
    (3, "x[1]"), (3, "one[2]"), (3, "x[0]^3"), (3, "one[1]*x[0]^-2 + 2"),
    (3, "psi[0](x[1])"), (3, "-x[2]"), (3, "e[1,2]"), (3, "xe[0,0]"), (3, "u[1,0]"),
    (3, "sigma[1]"), (3, "nu[2]"), (2, "L(1,0; zeta, 1/2)"), (3, "psi[3](u[1,0])"),
    (3, "eps(sigma[1])"), (3, "-(u[1,1])"), (3, "2*nu[1]^3"),
    # display sides joined over a sum or product
    (3, "u[1,0] + e[0,1]"), (3, "e[0,1] + u[1,0]"), (3, "u[1,0]*sigma[1] - 2"),
    (2, "L(1,0; zeta, 1/2) + u[0,0]"), (3, "psi[3](u[1,0] + xe[0,0])"),
    (3, "2 - sigma[1]*e[0,0]*u[2,2]"), (3, "x[0] + 2*one[1] - x[2]^2"),
    # gamma and gammainv, nested both ways
    (3, "gamma(x[0])"), (3, "gammainv(u[1,0])"), (3, "gamma(gammainv(u[1,0]))"),
    (3, "gammainv(gamma(x[0]))"), (3, "gamma(gammainv(e[0,1] + u[1,1]))*u[1,0]"),
    (3, "gammainv(gamma(x[0])*sigma[1])"), (3, "gammainv(u[1,0]) + x[0]"),
    (3, "gamma(gammainv(gamma(x[1])))"), (3, "gammainv(gamma(gammainv(sigma[0])))"),
    (3, "u[2,0]*gamma(one[1])^2"),
    # the five basis-mix errors, and which comes first
    (2, "L(1,0; x[0], 0)"), (2, "L(1,0; eps(2), e[0,0])"), (2, "L(1,0; 0, gamma(x[0]))"),
    (3, "x[1] + e[0,1]"), (3, "u[1,0]*x[0]"), (3, "2*sigma[0] - one[1]"),
    (3, "x[0] + e[0,0] + eps(2)"), (3, "eps(2) + x[0] + e[0,0]"),
    (3, "eps(2)"), (3, "psi[2](zeta)"), (3, "psi[0](1/2)"),
    (3, "gamma(u[1,0])"), (3, "gamma(e[0,0] + 1)"), (3, "gamma(2)"),
    (3, "gamma(gamma(x[0]))"), (3, "gamma(u[1,0]) + x[0] + e[0,0]"),
    (3, "gammainv(x[0])"), (3, "gammainv(3)"), (3, "gammainv(gammainv(u[1,0]))"),
    (3, "gammainv(gamma(x[0]) + x[0])"),
]


@pytest.mark.parametrize("n, text", WALK_TABLE)
def test_the_one_walk_matches_the_two_old_walks(n, text):
    e = _Parser(text, n).parse()
    expected = _walks(_old_walks, e)
    assert _walks(_new_walk, e) == expected
    if isinstance(expected, str):
        with pytest.raises(BasisMixError) as exc:
            parse(text, n)
        assert str(exc.value) == expected
    else:
        assert parse(text, n) == e
        assert evaluate(e, n)[0] == expected[0]


def test_the_walk_table_covers_every_node_kind_and_basis_mix_error():
    trees = [_Parser(text, n).parse() for n, text in WALK_TABLE]
    kinds, atoms, ops, errors = set(), set(), set(), set()
    stack = list(trees)
    while stack:
        node = stack.pop()
        kinds.add(type(node).__name__)
        atoms.add(getattr(node, "name", None))
        ops.add(getattr(node, "op", None))
        stack.extend(_children(node))
    for e in trees:
        outcome = _walks(_old_walks, e)
        if isinstance(outcome, str):
            errors.add(outcome)
    assert kinds == {"Num", "Atom", "LineAtom", "Unary", "Binary", "Pow"}
    assert set(ATOMS) <= atoms
    assert {"+", "-", "*", "psi", "eps", "gamma", "gammainv"} <= ops
    assert len(errors) == 5


@settings(max_examples=150)
@given(_cases)
def test_the_one_walk_matches_the_two_old_walks_on_random_asts(case):
    _, e = case
    assert _walks(_new_walk, e) == _walks(_old_walks, e)
