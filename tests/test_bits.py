import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball.bits import BitVector, EdgeId, distance
from cubeball.errors import CoordinateRangeError, LengthMismatchError

from strategies import bit_vectors


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
    with pytest.raises(LengthMismatchError):
        distance(BitVector.parse("01"), BitVector.parse("011"))


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
