from itertools import product

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball import chains
from cubeball.bits import BitVector, distance
from cubeball.chains import (
    ChainCode,
    MarkedString,
    _COUNTS,
    _cube_blocks,
    _lowest,
    _profile,
    _reference_planes,
    _ROWS,
    _split_planes,
    _unmatched_ones,
    _unmatched_planes,
    _unmatched_zeros,
    chain_code,
    chain_member,
    chain_members,
    mark,
    position,
)
from cubeball.errors import LevelRangeError

from marking_oracle import chunk_table, mark_reference, mark_via_split, unmatched_shifts
from strategies import bit_vectors, lengths_with_residue


def test_mark_worked_example():
    ms = mark(BitVector.parse("01100110"))
    assert ms.marked_coordinates() == (2, 3, 4, 5, 7, 8)
    assert ms.mask == 0b01111011
    assert ms.vertex.bits() == (0, 1, 1, 0, 0, 1, 1, 0)


def test_mark_nothing_to_mark():
    assert mark(BitVector.parse("0011")).marked_coordinates() == ()


def test_mark_everything_marked():
    # the inner pair goes first, then the outer bits become adjacent
    assert mark(BitVector.parse("1100")).marked_coordinates() == (1, 2, 3, 4)


@pytest.mark.parametrize(
    "text,code",
    [("01100110", "_1100_10"), ("0011", "____"), ("10", "10")],
)
def test_chain_code_examples(text, code):
    assert str(chain_code(BitVector.parse(text))) == code


@pytest.mark.parametrize(
    "text,k,j,ell",
    [("01100110", 3, 4, 1), ("1111", 0, 4, 0), ("0000", 0, 0, 4)],
)
def test_position_examples(text, k, j, ell):
    pos = position(BitVector.parse(text))
    assert (pos.k, pos.j, pos.ell) == (k, j, ell)


@pytest.mark.parametrize(
    "code,j,expected",
    [("_1100_10", 3, "01100010"), ("_1100_10", 5, "11100110"), ("____", 2, "0011")],
)
def test_chain_member_examples(code, j, expected):
    assert chain_member(ChainCode(code), j).render() == expected


def test_chain_member_level_out_of_range():
    with pytest.raises(LevelRangeError):
        chain_member(ChainCode("_1100_10"), 2)
    with pytest.raises(LevelRangeError):
        chain_member(ChainCode("_1100_10"), 6)


def test_chain_members_examples():
    code = ChainCode("_1100_10")
    members = chain_members(code)
    assert [m.render() for m in members] == ["01100010", "01100110", "11100110"]
    assert code.length() == len(members)
    assert [m.render() for m in chain_members(ChainCode("1010"))] == ["1010"]
    assert [m.render() for m in chain_members(ChainCode("____"))] == [
        "0000",
        "0001",
        "0011",
        "0111",
        "1111",
    ]


@pytest.mark.parametrize("bad", ["", "01x", "_0", "1___", "0110", "1_10"])
def test_chain_code_rejects_invalid(bad):
    # wrong alphabet, blank-count parity, or unbalanced fixed symbols
    with pytest.raises(ValueError):
        ChainCode(bad)


@pytest.mark.parametrize("bad", ["11__", "1_1_", "_0_0", "1000__", "_0_1", "10_01_"])
def test_chain_code_rejects_unbalanced_fixed_symbols(bad):
    # the blank count has the right parity, but the fixed symbols leave
    # unmatched 1s only, unmatched 0s only, or both
    with pytest.raises(ValueError, match=f"unbalanced fixed symbols in {bad!r}"):
        ChainCode(bad)


@pytest.mark.parametrize("n", range(1, 8))
def test_chain_code_accepts_exactly_the_balanced_codes(n):
    for symbols in map("".join, product("01_", repeat=n)):
        fixed = symbols.replace("_", "")
        balanced = unmatched_shifts(len(fixed), int(fixed or "0", 2)) == ([], [])
        try:
            ChainCode(symbols)
        except ValueError:
            assert not balanced, symbols
        else:
            assert balanced, symbols


@given(bit_vectors(max_n=48))
def test_unmarked_bits_read_zeros_then_ones(v):
    ms = mark(v)
    pattern = [b for b, m in zip(ms.vertex.bits(), ms.marked) if not m]
    assert pattern == sorted(pattern)
    marked_bits = [b for b, m in zip(ms.vertex.bits(), ms.marked) if m]
    assert marked_bits.count(0) == marked_bits.count(1)


@given(bit_vectors(max_n=2050))
def test_mark_matches_both_reference_orders(v):
    base = mark(v)
    assert mark_reference(v) == base
    assert mark_reference(v, rightmost_first=True) == base


@pytest.mark.parametrize("n", range(1, 11))
def test_mark_matches_reference_exhaustive(n):
    for value in range(1 << n):
        v = BitVector(n, value)
        base = mark(v)
        assert mark_reference(v) == base
        assert mark_reference(v, rightmost_first=True) == base


@given(st.data())
def test_three_step_marking_matches_direct(data):
    v = data.draw(bit_vectors(max_n=40))
    i = data.draw(st.integers(1, v.n))
    assert mark_via_split(v, i) == mark(v)


@given(bit_vectors(max_n=48))
def test_position_chain_member_roundtrip(v):
    pos = position(v)
    assert pos.k == pos.code.k
    assert pos.ell == (v.n - pos.k) - pos.j
    assert chain_member(pos.code, v.weight()) == v


@given(bit_vectors(max_n=32))
def test_chains_are_monotone_symmetric(v):
    code = chain_code(v)
    members = chain_members(code)
    k = code.k
    assert [m.weight() for m in members] == list(range(k, v.n - k + 1))
    flipped = []
    for lower, upper in zip(members, members[1:]):
        assert distance(lower, upper) == 1
        flipped.append(v.n - (lower.value ^ upper.value).bit_length() + 1)
    # blanks fill left to right with 0, so climbing flips strictly
    # right-to-left: coordinate indices strictly decrease going up
    assert all(a > b for a, b in zip(flipped, flipped[1:]))


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12, 14])
def test_chains_partition_the_cube(n):
    by_code: dict[str, set[int]] = {}
    for value in range(1 << n):
        v = BitVector(n, value)
        by_code.setdefault(str(chain_code(v)), set()).add(value)
    total = 0
    for code_str, values in by_code.items():
        members = {m.value for m in chain_members(ChainCode(code_str))}
        assert members == values
        total += len(values)
    assert total == 1 << n


def _mask(shifts):
    return sum(1 << s for s in shifts)


def _assert_scans_agree(n, v):
    zeros, ones = unmatched_shifts(n, v)
    assert _profile(n, v) == (len(zeros), len(ones))
    assert _unmatched_zeros(n, v) == (_mask(zeros), len(ones))
    assert _unmatched_ones(n, v) == (_mask(ones), len(zeros))


@pytest.mark.parametrize("n", range(15))
def test_unmatched_zeros_matches_stack_scan_exhaustive(n):
    # n = 0 is the empty prefix or suffix of an edge at coordinate 1 or n
    for v in range(1 << n):
        _assert_scans_agree(n, v)


@pytest.mark.parametrize("residue", range(8))
@given(st.data())
def test_unmatched_zeros_matches_stack_scan_large_n(residue, data):
    # every residue of n mod 8 pads the byte stream with a different number
    # of trailing 1s, which the right-to-left pass reads first
    n = data.draw(lengths_with_residue(residue))
    _assert_scans_agree(n, data.draw(st.integers(0, (1 << n) - 1)))


def test_chunk_table_matches_stack_scan():
    assert _COUNTS == chunk_table()


def test_byte_rows_match_stack_scan():
    for byte, (a, b, zeros, ones) in enumerate(_ROWS):
        assert (a, b) == chunk_table()[byte]
        # d open 1s ahead of the byte, or d open 0s after it
        assert zeros == tuple(
            _mask(s for s in unmatched_shifts(8 + d, ((1 << d) - 1) << 8 | byte)[0] if s < 8)
            for d in range(a)
        )
        assert ones == tuple(
            _mask(s - d for s in unmatched_shifts(8 + d, byte << d)[1] if s >= d)
            for d in range(b)
        )


@given(st.sets(st.integers(0, 2099)))
def test_lowest_takes_the_lowest_set_bits(shifts):
    # every k costs k steps, so the masks are sparse to keep every k
    mask = _mask(shifts)
    want = 0
    for k, s in enumerate(sorted(shifts)):
        assert _lowest(mask, k) == want
        want |= 1 << s
    assert _lowest(mask, len(shifts)) == mask


def test_mark_and_position_make_one_pass(monkeypatch):
    passes = []
    for name in ("_unmatched_zeros", "_unmatched_ones"):
        kernel = getattr(chains, name)
        monkeypatch.setattr(
            chains, name, lambda *args, name=name, kernel=kernel: passes.append(name) or kernel(*args)
        )
    # every vertex at n <= 10, most of which leave 1s unmatched; the 1s pass
    # runs only for those
    for n in range(1, 11):
        for v in range(1 << n):
            ones = unmatched_shifts(n, v)[1]
            for f in (mark, position):
                passes.clear()
                f(BitVector(n, v))
                assert passes == ["_unmatched_zeros"] + ["_unmatched_ones"] * bool(ones)


@pytest.mark.parametrize("n", [*range(1, 11), 1030, 2050])
def test_marked_string_element_types(n):
    # True == 1, so equality alone cannot tell a bool from an int
    values = range(1 << n) if n <= 10 else [(1 << n) // 3, (1 << n) // 7, (1 << n) - 1, 0]
    for v in values:
        ms = mark(BitVector(n, v))
        assert {type(m) for m in ms.marked} == {bool}
        assert ms.marked == tuple(bool(ms.mask >> (n - i) & 1) for i in range(1, n + 1))
        assert ms.marked_coordinates() == tuple(
            i for i in range(1, n + 1) if ms.mask >> (n - i) & 1)


@pytest.mark.parametrize("mask", [-1, 1 << 4, 1 << 9])
def test_marked_string_rejects_a_mask_outside_its_length(mask):
    with pytest.raises(ValueError):
        MarkedString(BitVector.parse("1100"), mask)


def test_marked_string_equality_and_hash_go_by_vertex_and_mask():
    x = BitVector.parse("1100")
    ms = mark(x)
    assert ms == MarkedString(x, 0b1111) and hash(ms) == hash(MarkedString(x, 0b1111))
    assert ms != MarkedString(x, 0b0110)
    assert ms != MarkedString(BitVector.parse("1010"), 0b1111)
    assert len({ms, MarkedString(x, 0b1111), MarkedString(x, 0b0110)}) == 2


def _oracle_code(n, v):
    zeros, ones = unmatched_shifts(n, v)
    symbols = list(format(v, f"0{n}b"))
    for s in zeros + ones:
        symbols[n - 1 - s] = "_"
    return "".join(symbols), len(zeros)


@pytest.mark.parametrize("residue", range(8))
@given(st.data())
def test_position_and_chain_code_match_stack_scan_large_n(residue, data):
    n = data.draw(lengths_with_residue(residue))
    x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    code, ell = _oracle_code(n, x.value)
    assert str(chain_code(x)) == code
    pos = position(x)
    assert (str(pos.code), pos.ell, pos.j) == (code, ell, x.weight())
    assert mark(x).marked == tuple(c != "_" for c in code)


def _lane_count(counter, r):
    return sum((c >> r & 1) << j for j, c in enumerate(counter))


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_unmatched_planes_match_stack_scan_exhaustive(monkeypatch, n, block_bits):
    # 3 block bits split every n > 3 into several blocks with constant high planes
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    v = 0
    for xs, full in _cube_blocks(n):
        zeros, a, b = _unmatched_planes(xs, full)
        for r in range(full.bit_length()):
            want_zeros, want_ones = unmatched_shifts(n, v)
            assert [s for s in range(n) if xs[s] >> r & 1] == [s for s in range(n) if v >> s & 1]
            assert [s for s in range(n - 1, -1, -1) if zeros[s] >> r & 1] == want_zeros
            assert (_lane_count(a, r), _lane_count(b, r)) == (len(want_zeros), len(want_ones))
            v += 1
    assert v == 1 << n


def _lane_marks(planes, n, r):
    """Lane r of per-shift planes, as marked flags from coordinate 1 on."""
    return tuple(bool(planes[n - i] >> r & 1) for i in range(1, n + 1))


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_reference_planes_match_mark_reference_exhaustive(monkeypatch, n, block_bits):
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    v = 0
    for xs, full in _cube_blocks(n):
        leftmost = _reference_planes(xs, full)
        rightmost = _reference_planes(xs, full, rightmost_first=True)
        for r in range(full.bit_length()):
            x = BitVector(n, v)
            assert _lane_marks(leftmost, n, r) == mark_reference(x).marked
            assert _lane_marks(rightmost, n, r) == mark_reference(x, rightmost_first=True).marked
            v += 1
    assert v == 1 << n


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_split_planes_match_mark_via_split_exhaustive(monkeypatch, n, block_bits):
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    start = 0
    for xs, full in _cube_blocks(n):
        lanes = full.bit_length()
        for i in range(1, n + 1):
            planes = _split_planes(xs, full, i)
            for r in range(lanes):
                want = mark_via_split(BitVector(n, start + r), i).marked
                assert _lane_marks(planes, n, r) == want
        start += lanes
    assert start == 1 << n
