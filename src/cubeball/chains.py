"""Adjacent-pair marking and the monotone symmetric chain coordinate system.

The marking stage repeatedly picks a consecutive pair ``10`` in the current
string, marks both bits, and deletes them until the remaining (unmarked)
bits read ``0...01...1``.  The result does not depend on which eligible pair
is picked first, so a single left-to-right pass computes it: scan the string
keeping a stack of not-yet-matched 1s; each 0 marks (pops) the nearest open
1 to its left, or stays unmarked if none is open.  This is exactly balanced
parenthesis matching with 1 = open and 0 = close.

Replacing every unmarked bit with a blank yields the chain code: a string
over {0, 1, _} whose blank positions are the coordinates that move along the
chain.  A code with m blanks describes the chain ``c_k, ..., c_{n-k}`` with
``k = (n - m) / 2``, where ``c_j`` fills the leftmost ``m - (j - k)`` blanks
with 0 and the rest with 1.  Member ``c_j`` has weight ``j``, and walking up
the chain flips blanks from 0 to 1 right to left, one strictly monotone
sweep of coordinates, which is what makes the chain monotone.

A vertex ``x`` sits on its own chain at distance ``ell`` from the top, where
``ell`` is the number of blank coordinates holding 0 in ``x``.

Marking is reduction in the bicyclic monoid: any segment leaves a pair
``(a, b)`` of ``a`` unmatched 0s followed by ``b`` unmatched 1s, and two
adjacent segments combine as
``(a1, b1) . (a2, b2) = (a1 + max(0, a2 - b1), b2 + max(0, b1 - a2))``:
the first ``min(a2, b1)`` unmatched 0s of the right segment close open 1s
of the left one.  The byte kernels apply this combine a byte at a time to
the input padded on the right with 1s up to a whole number of bytes, which
changes nothing because trailing 1s never match.  One 256-entry table, built
once at import from the bit-sliced kernel below (:func:`_byte_rows`), holds
per byte ``(a, b, zeros by incoming depth, ones by incoming depth)``.
:func:`_unmatched_zeros` reads the stream left to right, 1s opening and 0s
closing: a byte's unmatched 0s less those the open 1s close are unmatched.
It gives their mask and the number of unmatched 1s, which is all psi or phi
needs.  Marking is symmetric: the unmatched 1s of x are the unmatched 0s of
x reversed and complemented.  So :func:`_unmatched_ones` is the same pass
read right to left, 0s opening and 1s closing, from the table's fourth
field; it gives the mask of unmatched 1s and the number of unmatched 0s,
which is all an inverse map needs.  ``mark`` and ``position`` OR the two
masks and run the 1s pass only when a 1 is unmatched; ``mark`` keeps their
complement, laid out like x's value, as the mask of its :class:`MarkedString`.
:func:`_profile` folds the stream through the counts alone and gives just
(a, b), which is all the edge-distance rules in ``bijections`` need.

Whole-cube work marks every vertex at once, bit-sliced.
:func:`_cube_blocks` cuts {0,1}^n into blocks of 2^16 consecutive vertices
and gives, per block, one big int per coordinate with one bit (a lane) per
vertex.  :func:`_unmatched_planes` runs the stack scan on all lanes
together: the depth is a bit-sliced counter, one int per counter bit, that
a 1 increments and a 0 decrements where it is not 0, and a 0 meeting depth
0 is unmatched.  A coordinate costs O(log n) big-int operations per block
and no Python step per vertex.  The result, a mask of unmatched 0s per
coordinate and the counts a and b as bit-sliced counters, is the fixed
counting circuit that puts psi in TC0; psi's and phi's plane rules in
``bijections`` and the counting routines in ``analysis`` read it.  naive's
rule and the ball read only the weight (:func:`_majority_lanes`).  Lists of
planes are mirrored by :func:`_mirror` and compared lane by lane by
:func:`_differing_lanes`; the byte table and ``metrics.image_table`` fill
their entries with :func:`_set_planes`.
"""

from __future__ import annotations

import sys
from array import array
from itertools import zip_longest
from typing import Iterator, Sequence

from .bits import BitVector, _low_mask, _record
from .errors import LevelRangeError

BLANK = "_"
_CODE_ALPHABET = frozenset("01" + BLANK)

# The ASCII digits of the unmarked mask, to what position() adds to a "0" to make it a blank
_BLANK_OFFSETS = bytes.maketrans(b"01", bytes((0, ord(BLANK) - ord("0"))))

# Whole-cube scans take the cube in blocks of 2^_BLOCK_BITS vertices.
_BLOCK_BITS = 16

_SPREAD = tuple(bytes.maketrans(b"01", bytes((0, 1 << b))) for b in range(8))

# Lane arithmetic keeps every operand non-negative: ``&`` with ``~y`` or ``-x``
# works on a two's complement copy of a sign-and-magnitude int.  On 2^16-lane
# ints (Python 3.11.7) ``x & ~y`` took 6.8 us, ``x ^ (x & y)`` 1.3 us and
# ``x & y`` 0.6 us; tests/test_lanes.py keeps ``~`` and ``x & -x`` out.


def _increment(counter: list[int], mask: int) -> None:
    """Add 1 to a bit-sliced counter in the lanes of ``mask``.

    ``counter[j]`` holds bit j of every lane's count; a carry out of the top
    plane appends a plane.
    """
    for j, c in enumerate(counter):
        if not mask:
            return
        counter[j] = c ^ mask
        mask &= c
    if mask:
        counter.append(mask)


def _decrement(counter: list[int], mask: int) -> None:
    """Subtract 1 in the lanes of ``mask``, each of which holds a count above 0."""
    for j, c in enumerate(counter):
        if not mask:
            return
        counter[j] = c = c ^ mask
        mask &= c  # the lanes where bit j was 0 borrow on


def _nonzero(counter: list[int]) -> int:
    """The lanes whose count is not 0."""
    lanes = 0
    for c in counter:
        lanes |= c
    return lanes


def _equal(counter: list[int], value: int, full: int) -> int:
    """The lanes whose count is ``value``; ``full`` has every lane set."""
    if value >> len(counter):
        return 0
    lanes = full
    for j, c in enumerate(counter):
        lanes &= c if value >> j & 1 else full ^ c
    return lanes


def _subtract(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Lane-wise a - b: the difference's planes, and the lanes where b > a.

    In the lanes where b > a the difference wraps and its planes mean nothing.
    """
    diff = []
    borrow = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        t = y ^ borrow
        diff.append(d := x ^ t)
        borrow = (t & d) | (y & borrow)  # y + borrow > x: both set, or one (t) and not x (d)
    return diff, borrow


def _majority_lanes(planes: list[int], full: int) -> int:
    """The lanes where more than half of ``planes`` are set: the ball on
    {0,1}^(n+1), 2|x| > n on the cube."""
    weight: list[int] = []
    for p in planes:
        _increment(weight, p)
    least = len(planes) // 2 + 1
    bound = [full if least >> j & 1 else 0 for j in range(least.bit_length())]
    return full ^ _subtract(weight, bound)[1]  # the borrow marks weight < least


def _lowest_lane(lanes: int) -> int:
    """The index of the lowest set lane of a non-zero ``lanes``."""
    return (lanes ^ (lanes - 1)).bit_length() - 1


def _differing_lanes(got: Sequence[int], want: Sequence[int]) -> int:
    """The lanes in which two equally long lists of planes differ in some plane."""
    lanes = 0
    for g, w in zip(got, want, strict=True):
        lanes |= g ^ w
    return lanes


def _mirror(xs: list[int], full: int) -> list[int]:
    """``xs`` reversed and complemented, in place: the unmatched 1s of x are
    the unmatched 0s of its mirror, and the mirror of the mirror is x."""
    xs.reverse()
    for t, x in enumerate(xs):
        xs[t] = full ^ x
    return xs


def _cube_blocks(n: int) -> Iterator[tuple[list[int], int]]:
    """The cube {0,1}^n in blocks of consecutive vertices, as bit planes.

    Yields ``(xs, full)`` per block, in vertex order.  Lane r of block h is
    the vertex ``h * 2^low + r``; ``xs[s]`` has lane r set where bit s of
    that vertex is, and ``full`` has all 2^low lanes set.  The planes of the
    high bits are constant across a block.
    """
    low = min(n, _BLOCK_BITS)
    full = (1 << (1 << low)) - 1
    cycle = [full ^ _low_mask(low, s) for s in range(low)]
    for high in range(1 << (n - low)):
        yield cycle + [full if high >> t & 1 else 0 for t in range(n - low)], full


def _set_planes(table: array, start: int, planes: list[int], lanes: int) -> None:
    """Write entries ``start`` on: bit t of ``table[start + r]`` is bit r of ``planes[t]``.

    The ``lanes`` entries are written whole, with 0 above the planes.  Each
    plane goes out as a base-2 string, lane 0 last; ``_SPREAD[b]`` turns the
    string of the b-th plane of eight into one byte per lane with its bit at
    bit b, and the eight OR into a byte column written into the table's bytes.
    """
    size = table.itemsize
    out = bytearray(lanes * size)
    for k in range(0, len(planes), 8):
        col = 0
        for b, p in enumerate(planes[k : k + 8]):
            col |= int.from_bytes(format(p, f"0{lanes}b").encode().translate(_SPREAD[b]), "big")
        off = k >> 3 if sys.byteorder == "little" else size - 1 - (k >> 3)
        out[off::size] = col.to_bytes(lanes, "little")
    with memoryview(table) as view, view.cast("B") as raw:
        raw[start * size : (start + lanes) * size] = out


def _unmatched_planes(xs: list[int], full: int) -> tuple[list[int], list[int], list[int]]:
    """Marking of every lane at once, bit-sliced.

    Scans coordinates 1..n, that is planes ``xs[n-1]`` down to ``xs[0]``,
    keeping the depth (the 1s still open) as a bit-sliced counter: a 1
    increments it, a 0 decrements it where it is not 0, and where it is 0
    that 0 is unmatched.  Returns ``(zeros, a, b)``: ``zeros[s]`` holds the
    lanes whose bit s is an unmatched 0, and ``a`` and ``b`` are bit-sliced
    counts of the unmatched 0s and of the unmatched 1s (the final depth).
    """
    zeros = [0] * len(xs)
    a: list[int] = []
    depth: list[int] = []
    for s in range(len(xs) - 1, -1, -1):
        x = xs[s]
        open_ = _nonzero(depth)
        zeros[s] = z = full ^ (x | open_)
        _increment(a, z)
        _decrement(depth, open_ ^ (open_ & x))
        _increment(depth, x)
    return zeros, a, depth


def _byte_rows() -> tuple[tuple[int, int, tuple[int, ...], tuple[int, ...]], ...]:
    """The byte table, from two plane runs over {0,1}^8.

    ``rows[byte]`` is ``(a, b, zeros, ones)``: ``zeros[d]`` masks the
    byte's unmatched 0s that stay unmatched after d open 1s come in from the
    left (d < a), and ``ones[d]`` its unmatched 1s that stay unmatched after
    d open 0s come in from the right (d < b).
    """
    ((xs, full),) = _cube_blocks(8)
    zeros, ones = array("B", bytes(256)), array("B", bytes(256))
    _set_planes(zeros, 0, _unmatched_planes(xs, full)[0], 256)
    # the unmatched 1s of a byte are the unmatched 0s of its mirror, mirrored
    _set_planes(ones, 0, _unmatched_planes(_mirror(xs, full), full)[0][::-1], 256)
    # per mask: the mask less its d highest (less its d lowest) set bits, for d from 0
    highs: list[tuple[int, ...]] = [()]
    lows: list[tuple[int, ...]] = [()]
    for m in range(1, 256):
        highs.append((m, *highs[m ^ 1 << (m.bit_length() - 1)]))
        lows.append((m, *lows[m & (m - 1)]))
    return tuple((z.bit_count(), o.bit_count(), highs[z], lows[o]) for z, o in zip(zeros, ones))


_ROWS = _byte_rows()
# _profile's view of the rows: unpacking all four fields cost it 2-11% more
# per call at n = 16 to 1024 (Python 3.11.7)
_COUNTS = tuple(row[:2] for row in _ROWS)


def _profile(n: int, v: int) -> tuple[int, int]:
    """The marking profile (a, b): the numbers of unmatched 0s and 1s.

    The count-only form of :func:`_unmatched_zeros`: the same stream, folded
    through the (a, b) fields of the byte table alone.
    """
    pad = -n & 7
    zeros = 0
    depth = 0
    for byte in (((v + 1) << pad) - 1).to_bytes((n + pad) >> 3, "big"):
        a, b = _COUNTS[byte]
        if a > depth:
            zeros += a - depth
            depth = b
        else:
            depth += b - a
    return zeros, depth - pad


def _unmatched_zeros(n: int, v: int) -> tuple[int, int]:
    """The mask, by shift like v, of the unmatched 0s, and the number of
    unmatched 1s: v's bits padded on the right with 1s up to a whole number
    of bytes (trailing 1s match nothing), read left to right, 1s opening and
    0s closing."""
    pad = -n & 7
    mask = 0
    depth = 0  # open 1s
    shift = n + pad
    for byte in (((v + 1) << pad) - 1).to_bytes((n + pad) >> 3, "big"):
        shift -= 8
        a, b, zeros, _ = _ROWS[byte]
        if a > depth:
            mask |= zeros[depth] << shift
            depth = b
        else:
            depth += b - a
    return mask >> pad, depth - pad


def _unmatched_ones(n: int, v: int) -> tuple[int, int]:
    """The mask of the unmatched 1s and the number of unmatched 0s: the
    stream of :func:`_unmatched_zeros` read right to left (its bytes little
    end first), 0s opening and 1s closing.  The padding's 1s come first and
    close nothing; they shift out."""
    pad = -n & 7
    mask = 0
    depth = 0  # open 0s
    shift = 0
    for byte in (((v + 1) << pad) - 1).to_bytes((n + pad) >> 3, "little"):
        a, b, _, ones = _ROWS[byte]
        if b > depth:
            mask |= ones[depth] << shift
            depth = a
        else:
            depth += a - b
        shift += 8
    return mask >> pad, depth


def _lowest(mask: int, k: int) -> int:
    """The k lowest set bits of ``mask``, which has at least k."""
    rest = mask
    for _ in range(k):
        rest &= rest - 1
    return mask ^ rest


@_record
class MarkedString:
    """A vertex and its marks: bit n - i of ``mask`` is set iff coordinate i is marked."""

    vertex: BitVector
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < 1 << self.vertex.n:
            raise ValueError(f"mask {self.mask} out of range for length {self.vertex.n}")

    @property
    def marked(self) -> tuple[bool, ...]:
        """Per coordinate, from coordinate 1 on, whether it is marked."""
        return tuple(c == "1" for c in format(self.mask, f"0{self.vertex.n}b"))

    def marked_coordinates(self) -> tuple[int, ...]:
        return tuple(i for i, m in enumerate(self.marked, 1) if m)


@_record
class ChainCode:
    """A chain's moving coordinates, as a string over '0', '1' and '_'."""

    symbols: str

    def __post_init__(self):
        if not self.symbols or not _CODE_ALPHABET.issuperset(self.symbols):
            raise ValueError(f"not a chain code: {self.symbols!r}")
        m = self.symbols.count(BLANK)
        if (self.n - m) % 2:
            raise ValueError(
                f"blank count {m} must have the parity of the length {self.n}"
            )
        # the fixed symbols must mark completely: no unmatched 0 or 1
        fixed = self.symbols.replace(BLANK, "")
        if fixed and _profile(len(fixed), int(fixed, 2)) != (0, 0):
            raise ValueError(f"unbalanced fixed symbols in {self.symbols!r}")

    @property
    def n(self) -> int:
        return len(self.symbols)

    @property
    def k(self) -> int:
        """Bottom level of the chain: the number of fixed 1s."""
        return (self.n - self.symbols.count(BLANK)) // 2

    def length(self) -> int:
        """Number of vertices on the chain."""
        return self.symbols.count(BLANK) + 1

    def __str__(self) -> str:
        return self.symbols


@_record
class ChainPosition:
    """Where a vertex sits: its chain code, bottom level k, level j, and the
    distance ell from the chain top."""

    code: ChainCode
    k: int
    j: int
    ell: int


def mark(x: BitVector) -> MarkedString:
    """Run the marking stage (one byte-table pass, two when a 1 is unmatched)."""
    n = x.n
    zeros, b = _unmatched_zeros(n, x.value)
    ones = _unmatched_ones(n, x.value)[0] if b else 0
    return MarkedString(x, ((1 << n) - 1) ^ (zeros | ones))


def _reference_planes(xs: list[int], full: int, rightmost_first: bool = False) -> list[int]:
    """Repeated deletion of the leftmost (rightmost when ``rightmost_first``)
    adjacent ``10`` pair, on every lane of a block at once.

    ``xs`` and ``full`` are a block of :func:`_cube_blocks`; the result holds
    the marked lanes per coordinate, indexed by shift like ``xs``.
    ``active[s]`` holds the lanes in which the coordinate at shift s is not
    yet deleted.  Each round scans the coordinates in pair-choice order, left
    to right (right to left when ``rightmost_first``), keeping ``last[q]``,
    the lanes whose previous active coordinate in that order is q, and
    deletes in each lane the first adjacent active ``10`` pair it meets.
    Rounds go on until no lane finds a pair; the deleted coordinates are the
    marked ones.  It shares no code with the marking kernels.  Its
    per-vertex form, ``mark_reference`` in ``tests/marking_oracle.py``, is
    the tests' reference for it.
    """
    n = len(xs)
    zeros = [full ^ x for x in xs]
    # the bit the pair needs at the coordinate met first and at the one met second
    first, second = (zeros, xs) if rightmost_first else (xs, zeros)
    order = range(n) if rightmost_first else range(n - 1, -1, -1)
    active = [full] * n
    while True:
        found = 0  # lanes that have deleted their pair this round
        last: dict[int, int] = {}
        for s in order:
            here = active[s] ^ (active[s] & found)
            if not here:
                continue
            ends = here & second[s]
            for q, lanes in last.items():
                pair = lanes & ends & first[q]
                if pair:
                    active[q] ^= pair
                    active[s] ^= pair
                    found |= pair
            last = {q: rest for q, lanes in last.items() if (rest := lanes ^ (lanes & here))}
            last[s] = here ^ (here & found)
        if not found:
            return [full ^ lanes for lanes in active]


def _split_planes(xs: list[int], full: int, i: int) -> list[int]:
    """Marking in three steps on every lane of a block at once: the prefix
    before coordinate i, the suffix after it, then the partly marked whole.

    ``xs``, ``full`` and the result are indexed by shift as in
    :func:`_reference_planes`.  The three stack scans run on all lanes
    together: the stack is a set of masks, ``open_[q]`` holding the lanes in
    which coordinate q is an open 1, and a 0 pops, lane by lane, the nearest
    open 1 to its left.  A coordinate takes part in a scan only in the lanes
    where it is still unmarked, which in the first two scans is every lane.
    Its per-vertex form, ``mark_via_split`` in ``tests/marking_oracle.py``,
    is the tests' reference for it.
    """
    n = len(xs)
    marked = [0] * (n + 1)  # by coordinate, 1-based

    def stage(coords: range) -> None:
        open_ = [0] * (n + 1)
        for p in coords:
            lanes = full ^ marked[p]
            one = xs[n - p]
            close = lanes ^ (lanes & one)
            for q in range(p - 1, coords.start - 1, -1):
                if not close:
                    break
                take = close & open_[q]
                if take:
                    open_[q] ^= take
                    marked[q] |= take
                    marked[p] |= take
                    close ^= take
            open_[p] = lanes & one

    stage(range(1, i))
    stage(range(i + 1, n + 1))
    stage(range(1, n + 1))
    return [marked[n - s] for s in range(n)]


def chain_code(x: BitVector) -> ChainCode:
    """The code of the chain containing x: marked bits kept, blanks elsewhere."""
    return position(x).code


def position(x: BitVector) -> ChainPosition:
    """Locate x on its chain: code, bottom level k, level j, distance ell."""
    n = x.n
    zeros, b = _unmatched_zeros(n, x.value)
    ones = _unmatched_ones(n, x.value)[0] if b else 0
    unmarked = zeros | ones
    spec = f"0{n}b"
    # x's ASCII digits less its unmatched 1s, so "0" at the unmarked coordinates,
    # plus "_" - "0" at each of those, one byte per coordinate; no byte carries over
    digits = int.from_bytes(format(x.value ^ ones, spec).encode(), "big")
    blanks = int.from_bytes(format(unmarked, spec).encode().translate(_BLANK_OFFSETS), "big")
    code = ChainCode((digits + blanks).to_bytes(n, "big").decode())
    return ChainPosition(code=code, k=code.k, j=x.weight(), ell=zeros.bit_count())


def chain_member(code: ChainCode, j: int) -> BitVector:
    """The unique member of weight j: leftmost blanks become 0, the rest 1."""
    k, n = code.k, code.n
    if not k <= j <= n - k:
        raise LevelRangeError(f"level {j} out of [{k}, {n - k}] for code {code}")
    fill = iter("0" * (n - k - j) + "1" * (j - k))  # the n - 2k blanks, left to right
    return BitVector(n, int("".join(next(fill) if c == BLANK else c for c in code.symbols), 2))


def chain_members(code: ChainCode) -> list[BitVector]:
    """The full chain, bottom to top (weights k, k+1, ..., n-k)."""
    k = code.k
    return [chain_member(code, j) for j in range(k, code.n - k + 1)]
