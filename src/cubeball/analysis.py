"""Exact counting, per-bit statistics, the balanced-substring marking
criterion, and the majority reduction.

Chain counts.  The number of chains of length t in the decomposition of
{0,1}^n is ``C(n, (n-t+1)/2) - C(n, (n-t-1)/2)`` when t and n have opposite
parity, and 0 otherwise.  Summing t * M_t over all lengths recovers 2^n.

Unmarked profiles.  Exactly ``C(n, (n-a-b)/2) - C(n, (n-a-b-2)/2)`` vertices
leave a unmarked zeros and b unmarked ones after marking (a+b must have the
parity of n), and ``C(n, floor((n-a)/2))`` leave exactly a unmarked zeros.

Per-bit flip probability.  Output bit i of the chain-climbing map differs
from input bit i exactly when x_i = 0, the length-(i-1) prefix leaves no
unmarked ones, and its unmarked-zero count is at least the suffix's, c.
Prefix and suffix mark independently; each factor of the sum over c is
C(m, floor((m-c)/2)), m = i-1 or n-i, and at every i the sum is one binomial:

1. Read 0 as +1 and 1 as -1.  A 0 is unmatched exactly when the walk
   reaches a new maximum, so c unmatched 0s means maximum c, and by
   reflection C(m, floor((m-c)/2)) = N(m, c) + N(m, c+1), where
   N(m, h) = C(m, (m+h)/2) counts the walks ending at h (parity makes one
   of the two terms 0).
2. With a = i-1 and b = n-i, expand the sum over c >= 0 of
   (N(a,c) + N(a,c+1)) (N(b,c) + N(b,c+1)).  N(m, h) = N(m, -h) turns it
   into the sums over all h of N(a,h) N(b,h) and of N(a,h) N(b,h+1), which
   Vandermonde's identity makes N(a+b, 0) + N(a+b, 1).
3. a + b = n - 1, so the count is C(n-1, n/2-1) = C(n, n/2)/2.

So p = C(n, n/2)/2^(n+1), and C(2m, m) <= 4^m/sqrt(pi m) gives
p <= 1/sqrt(2 pi n) for every even n: every output bit but the appended
one is essentially a copy of its input bit.

Counting over the whole cube.  ``chain_count_enumerated`` and
``unmarked_profile_histogram`` check the closed forms above against counts
taken over every vertex, but with no Python step per vertex: the bit-sliced
marking kernel (see ``chains``) leaves a and b as bit-sliced counters, and
each count is the popcount of the lanes where both take the given values.
``flip_probability_exhaustive`` likewise counts the vertices whose bit i
flips, a block of vertices at a time: the popcount of the block's plane of
input bit i XOR its images' plane of output bit i, which psi's plane rule
gives (see ``metrics``).

All counts are arbitrary-precision integers and all probabilities exact
``Fraction`` values; the verification suite compares them by equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .bijections import BijectionKind, _psi_value, _require_dimension
from .bits import DEFAULT_ENUMERATION_CAP, BitVector, _record, _require_cap, _require_coordinate
from .chains import _cube_blocks, _equal, _unmatched_planes
from .errors import (
    DimensionError,
    EnumerationCapError,
    OddLengthError,
    ParityError,
)
from .metrics import _block_edges, _image_blocks


@_record
class ChainCountTable:
    """Chain counts by length for the decomposition of {0,1}^n."""

    n: int
    entries: dict[int, int]  # chain length t in [1, n+1] -> count

    def nonzero(self) -> dict[int, int]:
        return {t: m for t, m in sorted(self.entries.items()) if m}

    def total_vertices(self) -> int:
        return sum(t * m for t, m in self.entries.items())


@_record
class BitAgreementStat:
    """How often an output bit disagrees with its input bit."""

    n: int
    i: int
    disagree_count: int
    probability: Fraction


def _binom(n: int, k: int) -> int:
    return comb(n, k) if 0 <= k <= n else 0


def _require_cube(n: int, who: str) -> None:
    """Reject a cube dimension below 1."""
    if n < 1:
        raise DimensionError(f"{who} requires n >= 1, got {n}")


def _require_flip_domain(n: int) -> None:
    """Reject n outside the flip probabilities' domain, even n >= 2."""
    if n < 2:
        raise DimensionError(f"flip probability requires n >= 2, got {n}")
    if n % 2:
        raise OddLengthError(f"flip probability requires even n, got {n}")


def chain_count_formula(n: int, t: int) -> int:
    """Closed form for the number of chains of length t."""
    if not 1 <= t <= n + 1:
        raise ValueError(f"chain length {t} out of [1, {n + 1}]")
    if (t - n) % 2 == 0:
        return 0
    return _binom(n, (n - t + 1) // 2) - _binom(n, (n - t - 1) // 2)


def _profile_counts(n: int, cap: int, a_values: range) -> dict[tuple[int, int], int]:
    """Vertices of {0,1}^n by (a unmatched 0s, b unmatched 1s), for a in ``a_values``.

    Counted over the whole cube, a block at a time: the marking kernel
    leaves a and b as bit-sliced counters, and each count is the popcount of
    the lanes where both equal the pair.  Pairs that no vertex has are left
    out.
    """
    _require_cap(n, cap, "vertices")
    counts: dict[tuple[int, int], int] = {}
    for xs, full in _cube_blocks(n):
        _, a, b = _unmatched_planes(xs, full)
        by_b = [_equal(b, bv, full) for bv in range(n + 1)]
        for av in a_values:
            lanes = _equal(a, av, full)
            if not lanes:
                continue
            for bv in range((n - av) % 2, n - av + 1, 2):  # a + b has n's parity
                c = (lanes & by_b[bv]).bit_count()
                if c:
                    counts[av, bv] = counts.get((av, bv), 0) + c
    return dict(sorted(counts.items()))


def chain_count_enumerated(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> ChainCountTable:
    """Count chains by length over the whole cube.

    Each chain has exactly one top vertex, the member with no unmatched 0s,
    and a top vertex with b unmatched 1s heads a chain of length b + 1.
    """
    _require_cube(n, "chain count")
    tops = _profile_counts(n, cap, range(1))
    counts = {t: 0 for t in range(1, n + 2)}
    for (_, b), c in tops.items():
        counts[b + 1] = c
    return ChainCountTable(n=n, entries=counts)


def _profile_level(n: int, a: int, b: int) -> int:
    """m = (n-a-b)/2 of a valid profile: its count is C(n, m) - C(n, m-1)."""
    _require_cube(n, "profile count")
    if a < 0 or b < 0 or a + b > n:
        raise ValueError(f"profile ({a}, {b}) out of range for n={n}")
    if (a + b - n) % 2:
        raise ParityError(f"a+b={a + b} must have the parity of n={n}")
    return (n - a - b) // 2


def unmarked_profile_count(n: int, a: int, b: int) -> int:
    """Vertices whose marking leaves exactly a unmarked zeros and b ones."""
    m = _profile_level(n, a, b)
    return _binom(n, m) - _binom(n, m - 1)


def unmarked_profile_count_bits(n: int, a: int, b: int) -> int:
    """An e with ``unmarked_profile_count(n, a, b) >= 2^e``, found without the count.

    The count is C(n, m) (a+b+1)/(n-m+1) >= C(n, m)/(n+1), and with
    j = min(m, n-m), C(n, m) >= (n/j)^j >= 2^j.  Integer arithmetic only, so
    it stays cheap and exact for any n.
    """
    m = _profile_level(n, a, b)
    j = min(m, n - m)
    return max(j, j * (n.bit_length() - 1 - j.bit_length())) - (n + 1).bit_length()


def unmarked_zeros_count(n: int, a: int) -> int:
    """Vertices whose marking leaves exactly a unmarked zeros."""
    _require_cube(n, "unmarked zero count")
    if not 0 <= a <= n:
        raise ValueError(f"unmarked zero count {a} out of [0, {n}]")
    return _binom(n, (n - a) // 2)


def unmarked_profile_histogram(
    n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> dict[tuple[int, int], int]:
    """Counted profiles of the whole cube, the check on the closed forms."""
    _require_cube(n, "profile histogram")
    return _profile_counts(n, cap, range(n + 1))


def flip_probability_exact(n: int, i: int) -> Fraction:
    """Exact Pr over uniform x of output bit i differing from input bit i:
    C(n-1, n/2-1)/2^n at every i (see the module docstring).  An n above the
    library ceiling, 2^28 bits, is refused.
    """
    _require_flip_exact(n, i)
    return Fraction(comb(n - 1, n // 2 - 1), 1 << n)


def _require_flip_exact(n: int, i: int) -> None:
    _require_flip_domain(n)
    _require_coordinate(i, n)
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(n, DEFAULT_ENUMERATION_CAP, "bits per binomial")


def flip_probability_exhaustive(
    n: int, i: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> BitAgreementStat:
    """Counted over psi's images: the check on :func:`flip_probability_exact`.

    The vertices whose bit i flips are the lanes where the plane of input
    bit i and the images' plane of output bit i differ.
    """
    _require_flip_domain(n)
    _require_coordinate(i, n)
    _require_cap(n, cap, "vertices")
    count = _flip_counts(n)[i - 1]
    return BitAgreementStat(
        n=n, i=i, disagree_count=count, probability=Fraction(count, 1 << n)
    )


@lru_cache(maxsize=8)
def _flip_counts(n: int) -> tuple[int, ...]:
    """The disagree counts of coordinates 1..n, from one build of psi's image planes."""
    counts = [0] * n
    for (xs, _), (images, _) in zip(_cube_blocks(n), _image_blocks(BijectionKind.PSI, n)):
        # input coordinate i is plane n - i, output coordinate i is plane n + 1 - i
        for i in range(1, n + 1):
            counts[i - 1] += (xs[n - i] ^ images[n + 1 - i]).bit_count()
    return tuple(counts)


def _dyck_planes(xs: list[int], full: int) -> list[int]:
    """The coordinates that the balanced-substring criterion marks, on every
    lane of a block at once.

    Coordinate i is marked iff some window [s, e] containing i has equally
    many ones and zeros and no prefix with more zeros than ones (1 = open,
    0 = close).  ``xs`` and ``full`` are a block of ``chains._cube_blocks``;
    the result holds the covered lanes per coordinate, indexed by shift like
    ``xs``.  For each start s the balance is one-hot: ``level[k]`` holds the
    lanes whose window from s has balance k so far.  A 0 at balance 0 ends a
    lane's windows from s, and the lanes back at balance 0 after coordinate
    e have the balanced window [s, e].  Coordinate p is covered in the lanes
    with such a window ending at some e >= p, for some s <= p.  It shares no
    code with the marking kernels.  Its per-vertex form,
    ``dyck_marked_coordinates`` in ``tests/marking_oracle.py``, is the tests'
    reference for it.
    """
    n = len(xs)
    covered = [0] * n
    for s in range(1, n + 1):
        level = [full]
        ends = []  # ends[e - s]: the lanes where [s, e] is balanced
        for e in range(s, n + 1):
            one = xs[n - e]
            zero = full ^ one
            down = [lanes & zero for lanes in level[1:]]  # a 0 lowers every balance above 0
            level = [0] + [lanes & one for lanes in level]  # a 1 raises every balance
            for k, lanes in enumerate(down):
                level[k] |= lanes
            ends.append(level[0])
        reach = 0
        for e in range(n, s - 1, -1):
            reach |= ends[e - s]
            covered[n - e] |= reach
    return covered


def majority(x: BitVector) -> int:
    """1 iff strictly more ones than zeros (length must be odd)."""
    if x.n % 2 == 0:
        raise ParityError(f"majority needs odd length, got {x.n}")
    return 1 if 2 * x.weight() > x.n else 0


def majority_reduction(x: BitVector) -> BitVector:
    """Blow x up to 3n+1 bits so that the first output bit of the
    chain-climbing map computes majority(x).

    Layout: a leading 0, then n ones, then two bits per input bit, 10 for an
    input 1 and 00 for an input 0.  Each output bit depends on at most one
    input bit.  An input 1 contributes a self-matching pair while an input 0
    contributes two closers that consume the leading ones, so the final
    string has a single unmarked zero exactly when ones are in the majority,
    and that is precisely when the first bit survives the climb unchanged.
    """
    n = x.n
    if n % 2 == 0:
        raise ParityError(f"the reduction needs odd input length, got {n}")
    # x's binary digits read in base 4 put input bit s at bit 2s; shifted
    # once, each input bit becomes its block.  Above them go the n ones; the
    # leading 0 is implicit.
    return BitVector(3 * n + 1, ((1 << n) - 1) << 2 * n | int(format(x.value, "b"), 4) << 1)


def _majority_reduction_planes(xs: list[int], full: int) -> list[int]:
    """``majority_reduction`` of a block's lanes (see ``chains._cube_blocks``),
    as 3n + 1 planes: input bit s at shift 2s + 1 over a 0 plane, then the n
    ones and the leading 0."""
    return [p for x in xs for p in (0, x)] + [full] * len(xs) + [0]


def influence_profile(
    kind: BijectionKind, n: int, cap: int = DEFAULT_ENUMERATION_CAP
) -> tuple[Fraction, ...]:
    """Exact total influence of every output bit, index 0 = coordinate 1.

    Counts, per output bit, the (x, j) pairs whose input flip changes that
    bit.  Each cube edge gives two such pairs.  The edges come a block at a
    time from the forward sweep's pairing, ``metrics._block_edges``: the
    edges whose images differ in bit t are marked by XOR-ing plane t of the
    images with its partner, and the count is the mark's popcount.  One
    mark is held at a time.
    """
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    _require_cap(n, cap, "(x, j) pairs", n)
    counts = [0] * (n + 1)  # by output shift
    for _, _, planes, partner, e, _ in _block_edges(list(_image_blocks(kind, n)), n):
        for t, (p, q) in enumerate(zip(planes, partner)):
            counts[t] += ((p ^ q) & e).bit_count()
    size = 1 << n
    # output coordinate i sits at shift n+1-i
    return tuple(Fraction(2 * counts[n + 1 - i], size) for i in range(1, n + 2))


def first_output_bit_of_reduction(x: BitVector) -> int:
    """Majority via the reduction: bit 1 of the image of the blown-up input."""
    r = majority_reduction(x)
    m = r.n
    return (_psi_value(m, r.value) >> m) & 1
