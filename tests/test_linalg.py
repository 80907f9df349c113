import pytest

from conftest import record_calls
from virtualk.cyclotomic import Cyc, zeta_pow
from virtualk.linalg import SpanAccumulator, inverse, rank


def _c(v):
    return Cyc.rational(3, v)


def test_rank_of_singular_and_regular():
    z = zeta_pow(3, 1)
    regular = [[_c(1), _c(0)], [z, _c(1)]]
    assert rank(regular) == 2
    singular = [[z, z + z], [_c(1), _c(2)]]
    assert rank(singular) == 1
    assert rank([[_c(0), _c(0)]]) == 0


def test_inverse_multiplies_to_identity():
    z = zeta_pow(3, 1)
    m = [[_c(2), z], [z * z, _c(1)]]
    mi = inverse(m)
    prod = [
        [sum((m[r][t] * mi[t][c] for t in range(2)), Cyc.zero(3)) for c in range(2)]
        for r in range(2)
    ]
    assert prod == [[_c(1), _c(0)], [_c(0), _c(1)]]


def test_inverse_of_singular_raises():
    with pytest.raises(ArithmeticError):
        inverse([[_c(1), _c(2)], [_c(2), _c(4)]])


def test_span_accumulator_reports_novelty():
    acc = SpanAccumulator()
    assert acc.add([_c(1), _c(0), _c(1)])
    assert acc.add([_c(0), _c(1), _c(0)])
    assert not acc.add([_c(2), _c(3), _c(2)])
    assert acc.rank == 2
    assert acc.add([_c(0), _c(0), _c(1)])
    assert acc.rank == 3


def test_elimination_multiplies_no_zero_entry(monkeypatch):
    # Rows are reduced only where the basis row is nonzero.
    z = zeta_pow(3, 1)
    rows = [[_c(1), _c(0), z, _c(0)], [_c(0), z, _c(0), _c(0)], [_c(2), z, z + z, _c(0)],
            [_c(0), _c(0), _c(0), z * z]]
    products = record_calls(monkeypatch, Cyc, "__mul__")
    assert rank(rows) == 3
    inverse([[_c(1), _c(0)], [z, _c(1)]])
    assert products and all(a and b for a, b in products)
