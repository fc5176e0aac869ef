"""Lane arithmetic: the bit-sliced counter primitives of ``chains`` and its
planes-to-entries transpose against per-lane integer arithmetic, and a guard
that keeps negative operands out of the package's bit operations (see the
note at the primitives in chains.py)."""

import ast
from array import array
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball.chains import (
    _decrement, _equal, _increment, _lowest_lane, _nonzero, _set_planes, _subtract,
)

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubeball"


def _planes(values, width):
    """The bit-sliced counter of ``width`` planes holding ``values``, lane r = values[r]."""
    return [sum((v >> j & 1) << r for r, v in enumerate(values)) for j in range(width)]


def _values(planes, lanes):
    return [sum((p >> r & 1) << j for j, p in enumerate(planes)) for r in range(lanes)]


@st.composite
def counters(draw, lanes=None):
    """``(values, width)``: per-lane counts below 2^width on up to 70 lanes."""
    if lanes is None:
        lanes = draw(st.integers(1, 70))
    width = draw(st.integers(0, 6))
    return draw(st.lists(st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes)), width


@given(counters(), st.data())
def test_increment_adds_one_in_the_masked_lanes(counter, data):
    values, width = counter
    mask = data.draw(st.integers(0, (1 << len(values)) - 1))
    planes = _planes(values, width)
    _increment(planes, mask)
    assert _values(planes, len(values)) == [v + (mask >> r & 1) for r, v in enumerate(values)]


@given(counters(), st.data())
def test_decrement_subtracts_one_in_the_masked_lanes(counter, data):
    values, width = counter
    positive = sum(1 << r for r, v in enumerate(values) if v)
    mask = data.draw(st.integers(0, (1 << len(values)) - 1)) & positive
    planes = _planes(values, width)
    _decrement(planes, mask)
    assert len(planes) == width
    assert _values(planes, len(values)) == [v - (mask >> r & 1) for r, v in enumerate(values)]


@given(st.data())
def test_subtract_gives_the_difference_and_borrows_where_b_is_larger(data):
    a, wa = data.draw(counters())
    b, wb = data.draw(counters(lanes=len(a)))
    diff, borrow = _subtract(_planes(a, wa), _planes(b, wb))
    assert len(diff) == max(wa, wb)
    got = _values(diff, len(a))
    for r, (x, y) in enumerate(zip(a, b)):
        assert borrow >> r & 1 == (x < y)
        if x >= y:
            assert got[r] == x - y
    assert borrow >> len(a) == 0


@given(counters(), st.data())
def test_equal_marks_the_lanes_holding_the_value(counter, data):
    values, width = counter
    value = data.draw(st.integers(0, 1 << (width + 1)))
    full = (1 << len(values)) - 1
    want = sum(1 << r for r, v in enumerate(values) if v == value)
    assert _equal(_planes(values, width), value, full) == want


@given(counters())
def test_nonzero_marks_the_lanes_above_zero(counter):
    values, width = counter
    assert _nonzero(_planes(values, width)) == sum(1 << r for r, v in enumerate(values) if v)


@given(st.integers(1, (1 << 70) - 1))
def test_lowest_lane_is_the_lowest_set_bit(lanes):
    r = _lowest_lane(lanes)
    assert lanes >> r & 1 and not lanes & ((1 << r) - 1)


@given(st.lists(st.integers(0, 255), min_size=256, max_size=256))
def test_set_planes_writes_eight_planes_as_bytes(values):
    table = array("B", [0xFF]) * 256  # every bit is written over
    _set_planes(table, 0, _planes(values, 8), 256)
    assert table.tolist() == values


@given(st.data())
def test_set_planes_writes_only_its_lanes_from_start(data):
    width = data.draw(st.integers(9, 30))
    lanes = data.draw(st.integers(1, 70))
    values = data.draw(st.lists(st.integers(0, (1 << width) - 1), min_size=lanes, max_size=lanes))
    before = data.draw(st.lists(st.integers(-(1 << 31), (1 << 31) - 1), min_size=1, max_size=9))
    after = data.draw(st.lists(st.integers(-(1 << 31), (1 << 31) - 1), max_size=9))
    table = array("i", before + [-1] * lanes + after)  # 0 must be written above the planes
    _set_planes(table, len(before), _planes(values, width), lanes)
    assert table.tolist() == before + values + after


def _negative_operands(tree):
    """Lines with a ``~``, or an ``&`` of an expression with its own negation."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert):
            found.append(node.lineno)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.BitAnd):
            sides = (node.left, node.right) if isinstance(node, ast.BinOp) else (node.target, node.value)
            for side, other in (sides, sides[::-1]):
                if (isinstance(side, ast.UnaryOp) and isinstance(side.op, ast.USub)
                        and ast.unparse(side.operand) == ast.unparse(other)):
                    found.append(node.lineno)
    return found


@pytest.mark.parametrize("source,flagged", [
    ("y = x & ~m", True),
    ("y = (a | b) & -(a | b)", True),
    ("y = -x & x", True),
    ("x &= -x", True),
    ("pad = -n & 7", False),
    ("y = x ^ (x & m)", False),
])
def test_guard_flags_negative_lane_operands(source, flagged):
    assert bool(_negative_operands(ast.parse(source))) == flagged


def test_no_negative_lane_operands_in_the_package():
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _negative_operands(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert not found, found
