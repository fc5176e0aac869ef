import io
from fractions import Fraction
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball.bits import BitVector
from cubeball.bijections import BijectionKind, forward_map, psi
from cubeball.chains import mark
from cubeball.cli import run
from cubeball.errors import (
    CoordinateRangeError,
    EnumerationCapError,
    OddLengthError,
    ParityError,
)
from cubeball import analysis, chains, metrics

from marking_oracle import dyck_is_marked, dyck_marked_coordinates, unmatched_shifts
from strategies import bit_vectors

PSI = BijectionKind.PSI


@pytest.mark.parametrize("n,t,expected", [(4, 5, 1), (4, 3, 3), (4, 2, 0), (4, 1, 2)])
def test_chain_count_formula_examples(n, t, expected):
    assert analysis.chain_count_formula(n, t) == expected


def test_chain_count_enumerated_small():
    assert analysis.chain_count_enumerated(4).nonzero() == {1: 2, 3: 3, 5: 1}
    assert analysis.chain_count_enumerated(2).nonzero() == {1: 1, 3: 1}


@pytest.mark.parametrize("n", range(1, 13))
def test_chain_count_formula_matches_enumeration(n):
    table = analysis.chain_count_enumerated(n)
    for t in range(1, n + 2):
        assert table.entries[t] == analysis.chain_count_formula(n, t)
    assert table.total_vertices() == 1 << n


def _enumerated_profiles(n):
    """Oracle: chain counts and profile histogram, one marking scan per vertex."""
    counts = {t: 0 for t in range(1, n + 2)}
    hist = {}
    for v in range(1 << n):
        zeros, ones = unmatched_shifts(n, v)
        if not zeros:
            counts[len(ones) + 1] += 1
        key = (len(zeros), len(ones))
        hist[key] = hist.get(key, 0) + 1
    return counts, hist


@pytest.mark.parametrize("n", range(1, 17))
def test_counts_match_per_vertex_enumeration(n):
    counts, hist = _enumerated_profiles(n)
    assert analysis.chain_count_enumerated(n).entries == counts
    assert analysis.unmarked_profile_histogram(n) == hist


def test_counts_match_per_vertex_enumeration_across_blocks(monkeypatch):
    # blocks of 8 vertices: the counts add up over several blocks from n = 4 on
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    for n in range(1, 11):
        counts, hist = _enumerated_profiles(n)
        assert analysis.chain_count_enumerated(n).entries == counts
        assert analysis.unmarked_profile_histogram(n) == hist


@pytest.mark.parametrize(
    "n,a,b,expected", [(4, 0, 0, 2), (4, 4, 0, 1), (4, 1, 1, 3)]
)
def test_unmarked_profile_count_examples(n, a, b, expected):
    assert analysis.unmarked_profile_count(n, a, b) == expected


def test_unmarked_profile_count_parity_error():
    with pytest.raises(ParityError):
        analysis.unmarked_profile_count(4, 1, 0)


def test_profile_count_bits_bound_every_small_profile():
    for n in range(1, 80):
        for a in range(n + 1):
            for b in range(n - a + 1):
                if (a + b - n) % 2 == 0:
                    count = analysis.unmarked_profile_count(n, a, b)
                    assert count >= 2 ** analysis.unmarked_profile_count_bits(n, a, b)


@given(st.integers(2, 6000), st.data())
def test_profile_count_bits_bound_large_profiles(n, data):
    a = data.draw(st.integers(0, n))
    b = data.draw(st.integers(0, n - a).filter(lambda b: (a + b - n) % 2 == 0))
    count = analysis.unmarked_profile_count(n, a, b)
    bits = analysis.unmarked_profile_count_bits(n, a, b)
    assert count >= 2 ** bits
    if a + b <= 2:  # near the middle level the bound is within a factor 2 + log2(n+1)
        assert 2 * bits + 2 * n.bit_length() + 4 >= count.bit_length()


def test_profile_count_bits_validates_like_the_count():
    with pytest.raises(ParityError):
        analysis.unmarked_profile_count_bits(4, 1, 0)
    with pytest.raises(ValueError):
        analysis.unmarked_profile_count_bits(4, 5, 0)


@pytest.mark.parametrize("n", range(1, 13))
def test_profile_counts_match_enumeration_and_sum(n):
    hist = analysis.unmarked_profile_histogram(n)
    assert sum(hist.values()) == 1 << n
    for a in range(n + 1):
        row = 0
        for b in range(n + 1 - a):
            got = hist.get((a, b), 0)
            row += got
            if (a + b - n) % 2 == 0:
                assert got == analysis.unmarked_profile_count(n, a, b)
            else:
                assert got == 0
        assert row == analysis.unmarked_zeros_count(n, a)


def test_flip_probability_hand_computed_value():
    # the three weight patterns with a single unmarked zero at coordinate 1
    assert analysis.flip_probability_exact(4, 1) == Fraction(3, 16)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_flip_probability_exact_matches_enumeration(n):
    for i in range(1, n + 1):
        exact = analysis.flip_probability_exact(n, i)
        stat = analysis.flip_probability_exhaustive(n, i)
        assert exact == stat.probability
        assert stat.disagree_count == exact * (1 << n)
        assert exact <= Fraction(1, 2)


def _binom(n, k):
    return comb(n, k) if 0 <= k <= n else 0


def _flip_probability_double_sum(n, i):
    # suffixes with exactly c unmarked zeros times prefixes with no unmarked
    # ones and a >= c unmarked zeros, the latter summed profile by profile
    pre, suf = i - 1, n - i
    total = 0
    for c in range(suf + 1):
        prefixes = sum(
            _binom(pre, (pre - a) // 2) - _binom(pre, (pre - a - 2) // 2)
            for a in range(c, pre + 1)
            if (a - pre) % 2 == 0
        )
        total += _binom(suf, (suf - c) // 2) * prefixes
    return Fraction(total, 1 << n)


@pytest.mark.parametrize("n", range(2, 61, 2))
def test_flip_probability_single_sum_equals_double_sum(n):
    for i in range(1, n + 1):
        assert analysis.flip_probability_exact(n, i) == _flip_probability_double_sum(n, i)


def _flip_probability_comb_per_term(n, i):
    # the single sum with both binomials of each term computed afresh
    pre, suf = i - 1, n - i
    total = sum(
        comb(pre, (pre - c) // 2) * comb(suf, (suf - c) // 2) for c in range(min(pre, suf) + 1)
    )
    return Fraction(total, 1 << n)


@pytest.mark.parametrize("n", [2, 4, 62, 100, 256, 258])
def test_flip_probability_stepped_binomials_equal_comb_per_term(n):
    for i in range(1, n + 1):
        assert analysis.flip_probability_exact(n, i) == _flip_probability_comb_per_term(n, i)


@pytest.mark.parametrize("n", range(2, 41, 2))
def test_flip_probability_symmetric_under_reversal(n):
    for i in range(1, n + 1):
        mirrored = analysis.flip_probability_exact(n, n + 1 - i)
        assert analysis.flip_probability_exact(n, i) == mirrored


def test_exhaustive_flipprob_transposes_the_table_once(monkeypatch):
    calls = []

    def counting(table, bits):
        calls.append(bits)
        return metrics._bit_planes(table, bits)

    monkeypatch.setattr(analysis, "_bit_planes", counting)
    analysis._flip_counts.cache_clear()
    out = io.StringIO()
    assert run(["stats", "flipprob", "--n", "10", "--mode", "exhaustive"], stdout=out) == 0
    assert len(out.getvalue().splitlines()) == 10
    assert len(calls) == 1


def test_exact_flipprob_computes_the_binomial_once(monkeypatch):
    calls = []

    def counting(n, k):
        calls.append((n, k))
        return comb(n, k)

    monkeypatch.setattr(analysis, "comb", counting)
    analysis._flip_probability.cache_clear()
    out = io.StringIO()
    assert run(["stats", "flipprob", "--n", "10"], stdout=out) == 0
    assert len(out.getvalue().splitlines()) == 10
    assert calls == [(9, 4)]


def test_flip_probability_argument_checks():
    with pytest.raises(OddLengthError):
        analysis.flip_probability_exact(5, 1)
    with pytest.raises(CoordinateRangeError):
        analysis.flip_probability_exact(4, 5)
    with pytest.raises(EnumerationCapError):
        analysis.flip_probability_exhaustive(10, 1, cap=100)


def test_marked_bits_never_flip():
    for n in (4, 6, 8):
        table = metrics.image_table(PSI, n)
        for value in range(1 << n):
            x = BitVector(n, value)
            img = table[value]
            for i in mark(x).marked_coordinates():
                assert (img >> (n + 1 - i)) & 1 == x.bit(i)


@pytest.mark.parametrize(
    "text,i,expected",
    [("01100110", 2, True), ("01100110", 1, False), ("0011", 1, False),
     ("0011", 3, False), ("10", 1, True)],
)
def test_dyck_is_marked_examples(text, i, expected):
    assert dyck_is_marked(BitVector.parse(text), i) is expected


def test_dyck_is_marked_coordinate_check():
    for i in (0, 5):
        with pytest.raises(CoordinateRangeError):
            dyck_is_marked(BitVector.parse("1010"), i)


@pytest.mark.parametrize("n", range(1, 11))
def test_dyck_criterion_matches_marking_exhaustive(n):
    for value in range(1 << n):
        x = BitVector(n, value)
        marked = mark(x).marked
        covered = dyck_marked_coordinates(x)
        for i in range(1, n + 1):
            assert dyck_is_marked(x, i) == marked[i - 1]
            assert (i in covered) == marked[i - 1]


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize("n", range(1, 11))
def test_dyck_planes_match_dyck_marked_coordinates_exhaustive(monkeypatch, n, block_bits):
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    v = 0
    for xs, full in chains._cube_blocks(n):
        covered = analysis._dyck_planes(xs, full)
        for r in range(full.bit_length()):
            want = dyck_marked_coordinates(BitVector(n, v))
            assert {i for i in range(1, n + 1) if covered[n - i] >> r & 1} == want
            v += 1
    assert v == 1 << n


@given(bit_vectors(max_n=40), st.data())
def test_dyck_criterion_matches_marking_random(v, data):
    i = data.draw(st.integers(1, v.n))
    assert dyck_is_marked(v, i) == mark(v).marked[i - 1]


def test_majority_reduction_shape():
    x = BitVector.parse("01101")
    r = analysis.majority_reduction(x)
    assert r.n == 16
    # leading 0, n ones, then one two-bit block per input bit
    assert r.render() == "0" + "1" * 5 + "00" + "10" + "10" + "00" + "10"


def test_majority_reduction_rejects_even_length():
    with pytest.raises(ParityError):
        analysis.majority_reduction(BitVector.parse("0110"))


def test_majority_of_all_ones():
    x = BitVector.parse("11111")
    assert analysis.majority(x) == 1
    assert analysis.first_output_bit_of_reduction(x) == 1


@pytest.mark.parametrize("n", [1, 3, 5, 7, 9])
def test_majority_equals_first_output_bit_exhaustive(n):
    for value in range(1 << n):
        x = BitVector(n, value)
        assert analysis.first_output_bit_of_reduction(x) == analysis.majority(x)


def test_reduction_output_bits_depend_on_single_input_bits():
    # flipping one input bit changes at most one two-bit block
    x = BitVector.parse("0101010")
    r = analysis.majority_reduction(x)
    for i in range(1, x.n + 1):
        r2 = analysis.majority_reduction(x.flip_at(i))
        changed = {p for p in range(1, r.n + 1) if r.bit(p) != r2.bit(p)}
        block_start = 1 + x.n + 2 * (i - 1) + 1
        assert changed <= {block_start, block_start + 1}


@pytest.mark.parametrize(
    "src,i,expected", [("0000", 5, 1), ("1111", 1, 1), ("0001", 2, 1)]
)
def test_output_bit_examples(src, i, expected):
    assert psi(BitVector.parse(src)).vector.bit(i) == expected


@pytest.mark.parametrize("kind", list(BijectionKind))
@pytest.mark.parametrize("n", [1, 3, 7])
def test_output_bit_rejects_odd_length(kind, n):
    with pytest.raises(OddLengthError, match=f"^{kind.value} requires even input length, got {n}$"):
        forward_map(kind)(BitVector(n, 0))


def test_output_bit_equals_input_on_marked_coordinates():
    x = BitVector.parse("011010")
    for i in mark(x).marked_coordinates():
        assert psi(x).vector.bit(i) == x.bit(i)


@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_influence_identity(n):
    profile = analysis.influence_profile(PSI, n)
    assert len(profile) == n + 1
    assert all(inf >= 0 for inf in profile)
    total = sum(profile, Fraction(0))
    avg = metrics.forward_stretch_exhaustive(PSI, n).avg_stretch
    assert total == n * avg


@pytest.mark.parametrize("kind", list(BijectionKind))
@pytest.mark.parametrize("n", [2, 4, 6, 8])
def test_influence_profile_matches_public_map_oracle(kind, n):
    fwd = forward_map(kind)
    counts = [0] * (n + 1)  # indexed by output coordinate - 1
    for value in range(1 << n):
        x = BitVector(n, value)
        fx = fwd(x).vector
        for j in range(1, n + 1):
            fy = fwd(x.flip_at(j)).vector
            for i in range(1, n + 2):
                counts[i - 1] += fx.bit(i) != fy.bit(i)
    expected = tuple(Fraction(c, 1 << n) for c in counts)
    assert analysis.influence_profile(kind, n) == expected


@pytest.mark.parametrize("n", range(2, 17, 2))
def test_influence_symmetries(n):
    """Three symmetries of the influence profiles, observed here at every
    even n <= 16 and not proven: output bits 1..n have equal influence, bit
    n + 1 has influence n C(n, n/2) / 2^n, and psi's profile is phi's.  The
    CLI computes every influence and must not rely on them."""
    profiles = {kind: analysis.influence_profile(kind, n) for kind in BijectionKind}
    for kind, profile in profiles.items():
        assert len(set(profile[:n])) == 1, kind
        assert profile[n] == Fraction(n * comb(n, n // 2), 1 << n), kind
    assert profiles[PSI] == profiles[BijectionKind.PHI]
