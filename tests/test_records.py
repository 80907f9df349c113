"""The plain record classes: immutable, and equal, hashed, shown and copied
by their fields."""

import copy
import pickle
from fractions import Fraction

import pytest

from virtualk.coords import basis, gen
from virtualk.cyclotomic import Cyc, CycPoly
from virtualk.expr import Atom, Binary, LineAtom, Num, Pow, Unary
from virtualk.line_elements import is_line_element, line_realize, sigma, span_rank
from virtualk.verify import Check

ONE = Num(Fraction(1), 4)
X1 = Atom("x", (1,), 7)
NODES = [ONE, X1, LineAtom((0, 1), (ONE, Num(Fraction(0))), 2), Unary("psi", X1, 2, 3),
         Binary("+", X1, ONE, 5), Pow(X1, -3, 1)]
RECORDS = [basis(3, "u"), CycPoly.monomial(3, 2), sigma(3, 1),
           is_line_element(line_realize(sigma(3, 1))), span_rank(3)] + NODES
#: Scalars are immutable without being records; they copy as records do.
CYCS = [Cyc.one(3), Cyc(5, [1, -2, 0, 3], 6)]
#: Coordinate vectors, immutable the same way.
COORDS = [gen(3, "u", "u[1,0]")]


@pytest.mark.parametrize("record", RECORDS + CYCS + COORDS, ids=lambda r: type(r).__name__)
def test_a_record_refuses_every_assignment(record):
    # Cyc.zero(n) and Cyc.one(n) are shared, so a deleted field would corrupt
    # every later use of them.
    text = repr(record)
    for name in type(record).__slots__ + ("pos", "other"):
        with pytest.raises(AttributeError):
            setattr(record, name, 0)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert repr(record) == text


def _hash(value):
    """``hash(value)``, or None for a record with a dict field."""
    try:
        return hash(value)
    except TypeError:
        return None


@pytest.mark.parametrize("record", RECORDS + CYCS, ids=lambda r: type(r).__name__)
def test_a_record_copies_to_an_equal_value(record):
    twins = [copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))]
    for twin in twins:
        assert twin == record and _hash(twin) == _hash(record) and repr(twin) == repr(record)
        assert getattr(twin, "pos", None) == getattr(record, "pos", None)


def test_nodes_compare_by_their_fields_and_kind_but_not_their_position():
    assert Num(Fraction(1)) == ONE and hash(Num(Fraction(1))) == hash(ONE)
    assert repr(ONE) == "Num(value=Fraction(1, 1))"
    assert Unary("psi", X1, 3, 3) != NODES[3] and Unary("-", X1) != Binary("-", X1, X1)
    assert Atom("x", (1,)) != ("x", (1,))


def test_a_check_compares_by_value_and_is_mutable_and_unhashable():
    check = Check("span/n=2/rank", "pass", "2", "2")
    assert check == Check("span/n=2/rank", "pass", "2", "2") != Check("x", "pass", "2", "2")
    assert repr(check) == "Check(id='span/n=2/rank', status='pass', lhs='2', rhs='2')"
    with pytest.raises(TypeError):
        hash(check)
    check.status = "fail"
    assert not check.passed
