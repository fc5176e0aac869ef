import ast
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball.analysis import flip_probability_exact, flip_probability_exhaustive
from cubeball.bits import BitVector, EdgeId, distance
from cubeball.errors import CoordinateRangeError, LengthMismatchError

from strategies import bit_vectors

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "cubeball"


@pytest.mark.parametrize(
    "text,expected", [("0000", 0), ("1111", 4), ("01100110", 4)]
)
def test_weight_examples(text, expected):
    assert BitVector.parse(text).weight() == expected


@pytest.mark.parametrize(
    "a,b,expected",
    [("0000", "0000", 0), ("0011", "0111", 1), ("01100", "10011", 5)],
)
def test_distance_examples(a, b, expected):
    assert distance(BitVector.parse(a), BitVector.parse(b)) == expected


def test_distance_length_mismatch():
    # the check and message of BitVector.__xor__, which distance goes through
    for m, n in [(2, 3), (1, 2), (4, 5), (5, 4), (64, 65), (200, 7)]:
        with pytest.raises(LengthMismatchError) as info:
            distance(BitVector(m, 0), BitVector(n, 0))
        assert type(info.value) is LengthMismatchError and str(info.value) == f"length {m} vs {n}"


@pytest.mark.parametrize(
    "text,i,expected", [("0000", 1, "1000"), ("1111", 4, "1110")]
)
def test_flip_at_examples(text, i, expected):
    assert BitVector.parse(text).flip_at(i).render() == expected


@given(st.data())
def test_flip_at_involution_and_unit_distance(data):
    v = data.draw(bit_vectors())
    i = data.draw(st.integers(1, v.n))
    flipped = v.flip_at(i)
    assert distance(v, flipped) == 1
    assert flipped.flip_at(i) == v


@pytest.mark.parametrize("i", [0, 5, -1])
def test_flip_at_out_of_range(i):
    with pytest.raises(CoordinateRangeError):
        BitVector.parse("0101").flip_at(i)


@given(st.data())
def test_distance_is_weight_of_xor(data):
    a = data.draw(bit_vectors())
    b = BitVector(a.n, data.draw(st.integers(0, (1 << a.n) - 1)))
    assert distance(a, b) == (a ^ b).weight()
    assert distance(a, b) == distance(b, a)


@given(bit_vectors())
def test_parse_render_roundtrip(v):
    assert BitVector.parse(v.render()) == v
    assert v.bits() == tuple(int(c) for c in v.render())
    assert [v.bit(i) for i in range(1, v.n + 1)] == list(v.bits())


@pytest.mark.parametrize("junk", ["", "012", "ab", "1 0"])
def test_parse_rejects_junk(junk):
    with pytest.raises(ValueError):
        BitVector.parse(junk)


def test_edge_id():
    e = EdgeId(BitVector.parse("0101"), 2)
    assert e.other_endpoint().render() == "0001"
    with pytest.raises(CoordinateRangeError):
        EdgeId(BitVector.parse("0101"), 5)


@pytest.mark.parametrize(
    "check",
    [lambda i: BitVector(4, 0).bit(i), lambda i: BitVector(4, 0).flip_at(i),
     lambda i: EdgeId(BitVector(4, 0), i), lambda i: flip_probability_exact(4, i),
     lambda i: flip_probability_exhaustive(4, i)],
    ids=["bit", "flip_at", "EdgeId", "flip_probability_exact", "flip_probability_exhaustive"],
)
@pytest.mark.parametrize("i", [0, 5])
def test_coordinate_out_of_range_message(check, i):
    with pytest.raises(CoordinateRangeError, match=rf"^coordinate {i} out of \[1, 4\]$"):
        check(i)


def _names_coordinate_error(node):
    return getattr(node, "id", getattr(node, "attr", None)) == "CoordinateRangeError"


def test_coordinate_range_error_is_constructed_in_one_place():
    """``bits._require_coordinate`` is the one place in src/cubeball that
    calls or raises ``CoordinateRangeError``; every coordinate check calls it."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for scope in [tree, *(f for f in ast.walk(tree) if isinstance(f, ast.FunctionDef))]:
            # each node counts once, for the innermost function that holds it
            inner = {id(node) for f in ast.walk(scope)
                     if f is not scope and isinstance(f, ast.FunctionDef) for node in ast.walk(f)}
            found += [
                f"{path.stem}.{getattr(scope, 'name', '<module>')}"
                for node in ast.walk(scope)
                if id(node) not in inner and (
                    isinstance(node, ast.Call) and _names_coordinate_error(node.func)
                    or isinstance(node, ast.Raise) and _names_coordinate_error(node.exc))
            ]
    assert found == ["bits._require_coordinate"]
