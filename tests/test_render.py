"""The renderer writes text and JSON from a class's stored integers.

Each form is compared with the reference in ``conftest.py``, which renders
through one ``Cyc`` per coordinate and one ``Fraction`` per coefficient, on
classes of every kind and n = 2..8; the report's check template is compared
with ``json.dumps``.
"""

import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import virtualk.cyclotomic as cyclotomic
from conftest import (classes, record_calls, reference_format_cyc, reference_json, reference_text,
                      scalars)
from virtualk.coords import KINDS, Coords, basis, gen, unit
from virtualk.cyclotomic import Cyc, format_cyc, format_num, format_ratio, phi_degree
from virtualk.expr import format_value, value_to_json
from virtualk.verify import Check, Report


def _draw_scalar(rng: random.Random, n: int) -> Cyc:
    # Zero, +-1, a rational or a full row, over denominators 1..6.
    deg, shape = phi_degree(n), rng.randrange(4)
    if shape == 0:
        return Cyc.zero(n)
    if shape == 1:
        return Cyc.rational(n, rng.choice([1, -1]))
    top = 1 if shape == 2 else deg
    num = [rng.choice([-3, -2, -1, 1, 2, 3, 0]) for _ in range(top)] + [0] * (deg - top)
    return Cyc(n, num, rng.randint(1, 6))


def _drawn_classes():
    for n in range(2, 9):
        rng = random.Random(9000 + n)
        for kind in KINDS:
            size = len(basis(n, kind).labels)
            for _ in range(4):
                yield Coords(n, kind, [_draw_scalar(rng, n) for _ in range(size)])


def _assert_renders_as_reference(v: Coords) -> None:
    assert str(v) == reference_text(v)
    assert format_value(v) == str(v)
    assert value_to_json(v) == reference_json(v)
    for c in v.terms.values():
        assert format_cyc(c) == reference_format_cyc(c)
        assert value_to_json(c) == reference_json(c)


def test_every_kind_renders_as_the_reference_for_n_2_to_8():
    drawn = list(_drawn_classes())
    assert {(v.n, v.kind) for v in drawn} == {(n, k) for n in range(2, 9) for k in KINDS}
    # The draws mix denominators within a class and hold +-1 coordinates.
    assert any(len({c.den for c in v.terms.values()}) > 2 for v in drawn)
    assert any(c in (Cyc.one(v.n), -Cyc.one(v.n)) for v in drawn for c in v.terms.values())
    for v in drawn:
        _assert_renders_as_reference(v)


def _coordinates(n: int, zeros: bool = True):
    # +-1 and -1/2 often, else a scalar over denominators 1..12, rational half the time.
    return st.one_of(
        st.sampled_from([Cyc.one(n), -Cyc.one(n), Cyc.rational(n, Fraction(-1, 2))]),
        scalars(n, denominators=st.integers(1, 12), zeros=zeros, rationals=True))


@settings(max_examples=25)
@given(classes(KINDS, scalar=_coordinates))
def test_drawn_classes_render_as_the_reference(drawn):
    for v in drawn:
        _assert_renders_as_reference(v)


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_the_res_label_1_keeps_its_coefficient(n):
    cases = [(1, "1"), (-1, "-1"), (Fraction(3, 2), "3/2"), (Fraction(-4, 6), "-2/3")]
    if phi_degree(n) > 1:  # zeta = -1 when n = 2
        zeta = Cyc(n, [0, 1] + [0] * (phi_degree(n) - 2))
        cases += [(zeta, "(zeta)"), (-zeta, "(-zeta)"), (zeta.scale_int(2) - Cyc.one(n),
                                                         "(2*zeta - 1)")]
    for coeff, text in cases:
        v = gen(n, "res", "1", coeff)
        assert str(v) == text == reference_text(v)
        assert value_to_json(v) == reference_json(v)
    v = unit(n, "res") - gen(n, "res", "e[0]", Fraction(1, 2))
    assert str(v) == "1 - 1/2*e[0]" == reference_text(v)


def test_format_num_reduces_each_coefficient_over_any_denominator():
    # The class's denominator need not be the coordinate's own.
    assert format_num((6, -3, 2, 0), 6) == "1/3*zeta^2 - 1/2*zeta + 1"
    assert format_num((0, 4, 0, -1), 4) == "-1/4*zeta^3 + zeta"
    assert format_num((0, 0), 7) == "0"
    assert format_num((-2,), 1) == "-2"
    assert [format_ratio(c, d) for c, d in ((0, 5), (-6, 4), (6, 3), (7, 1), (-7, 7))] == [
        str(Fraction(c, d)) for c, d in ((0, 5), (-6, 4), (6, 3), (7, 1), (-7, 7))]


def test_rendering_builds_no_scalar_and_no_fraction(monkeypatch):
    drawn = [v for v in _drawn_classes() if v.n in (7, 8)]
    coordinates = [c for v in drawn for c in v.terms.values()]
    normalized = record_calls(monkeypatch, cyclotomic, "_normalized")
    fractions, new = [], Fraction.__new__

    def counted(cls, *args, **kwargs):
        fractions.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    Fraction(1, 2)
    assert fractions == [(1, 2)]  # the counter sees the constructor
    fractions.clear()
    for v in drawn:
        str(v), value_to_json(v)
    for c in coordinates:
        format_cyc(c), value_to_json(c)
    assert normalized == [] and fractions == []


_AWKWARD = ['a"b', "back\\slash", "new\nline\ttab\x00\x1f", "café", "€ \U0001f600",
            "\ud800 lone surrogate", "", "plain/n=3/x[1]*x[2]"]


def _template_matches_dumps(checks: list[Check]) -> None:
    report = Report(2, 3, None, ("span",))
    report.counts["span"] = len(checks)
    report.failures = [c for c in checks if not c.passed]
    doc = {"checks": [{"id": c.id, "status": c.status, "lhs": c.lhs, "rhs": c.rhs}
                      for c in checks],
           "n_min": 2, "n_max": 3, "k_max": None, "suites": ["span"],
           "summary": {"checks": len(checks), "failures": len(report.failures)}, "timing": None}
    assert "".join(report.json_pieces([checks[:1], [], checks[1:]])) == json.dumps(
        doc, sort_keys=True)


def test_the_check_template_writes_the_bytes_of_json_dumps():
    checks = [Check(i, "fail" if k % 2 else "pass", lhs, rhs) for k, (i, lhs, rhs) in enumerate(
        zip(_AWKWARD, reversed(_AWKWARD), _AWKWARD[3:] + _AWKWARD[:3]))]
    _template_matches_dumps(checks)


@given(st.lists(st.tuples(st.text(), st.text(), st.text(), st.sampled_from(["pass", "fail"])),
                min_size=1, max_size=5))
def test_the_check_template_writes_the_bytes_of_json_dumps_on_drawn_text(fields):
    _template_matches_dumps([Check(i, status, lhs, rhs) for i, lhs, rhs, status in fields])
