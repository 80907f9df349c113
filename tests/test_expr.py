from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from virtualk.cyclotomic import Cyc, zeta_pow
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
    evaluate,
    format_value,
    parse,
    preferred_display,
    value_to_json,
)
from virtualk.coords import gen, unit, zero
from virtualk.line_elements import line_realize, sigma
from virtualk.localization import from_u_basis
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
    from virtualk.localization import loc_mul
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

    return st.one_of([indices(name).map(lambda idx, name=name: Atom(name, idx))
                      for name, (_, atom_side, _) in ATOMS.items() if atom_side == side])


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
