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
of the left one.  :func:`_scan` applies this combine a byte at a time to a
byte stream.  A 256-entry table, built once at import from the bit-sliced
kernel below (:func:`_byte_tables`), holds ``(a, b, shifts of the unmatched
0s)`` for every byte.
:func:`_unmatched_zeros` scans the input padded on the right with 1s up to
a whole number of bytes, which changes nothing because trailing 1s never
match; it gives the unmatched 0s and the number of unmatched 1s, which is
all a single evaluation of psi or phi needs.  :func:`_profile` folds the
same stream through the counts alone and gives just (a, b), which is all
the edge-distance rules in ``bijections`` need.  Marking is also symmetric:
the unmatched 1s of x are the unmatched 0s of x reversed and complemented.
So :func:`_unmatched_ones` runs the same scan over the mirrored bytes of x,
whose high zero padding mirrors to trailing 1s; it gives the unmatched 1s,
and its final depth less that padding is the number of unmatched 0s, which
is all an inverse map needs.  :func:`_unmatched_masks` gives both sets, as
masks, in one left-to-right pass; ``mark`` and ``position`` read it.  A
byte's unmatched 0s close the most recent open 1s, so the pass keeps a stack
of the bytes that still hold open 1s, and a second table row per byte holds
its unmatched 0s for each incoming depth and its own unmatched 1s for each
number of them closed later.

Whole-cube work marks every vertex at once, bit-sliced.
:func:`_cube_blocks` cuts {0,1}^n into blocks of 2^16 consecutive vertices
and gives, per block, one big int per coordinate with one bit (a lane) per
vertex.  :func:`_unmatched_planes` runs the stack scan on all lanes
together: the depth is a bit-sliced counter, one int per counter bit, that
a 1 increments and a 0 decrements where it is not 0, and a 0 meeting depth
0 is unmatched.  A coordinate costs O(log n) big-int operations per block
and no Python step per vertex.  The result, a mask of unmatched 0s per
coordinate and the counts a and b as bit-sliced counters, is the fixed
counting circuit that puts psi in TC0; the maps' plane rules in
``bijections`` and the counting routines in ``analysis`` read it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterator

from .bits import _BIT_VALUES, BitVector, _low_mask
from .errors import LevelRangeError

BLANK = "_"
_CODE_ALPHABET = frozenset("01" + BLANK)

# The ASCII digits of a mask of unmarked coordinates, to mark()'s flags, and
# to what position() adds to a "0" to make it a blank.
_MARKED_FLAGS = bytes.maketrans(b"01", b"\1\0")
_BLANK_OFFSETS = bytes.maketrans(b"01", bytes((0, ord(BLANK) - ord("0"))))

# Whole-cube scans take the cube in blocks of 2^_BLOCK_BITS vertices.
_BLOCK_BITS = 16

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


def _lowest_lane(lanes: int) -> int:
    """The index of the lowest set lane of a non-zero ``lanes``."""
    return (lanes ^ (lanes - 1)).bit_length() - 1


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


def _lane_bytes(planes: list[int]) -> bytes:
    """The 256 lanes of 8 planes over {0,1}^8 as bytes: byte r holds lane r
    of ``planes[s]`` at bit s."""
    lanes = 0
    for s, plane in enumerate(planes):
        lanes |= int.from_bytes(format(plane, "0256b").encode().translate(_BIT_VALUES), "big") << s
    return lanes.to_bytes(256, "little")


def _byte_tables() -> tuple[tuple, tuple, bytes]:
    """The byte kernels' tables, from two plane runs over {0,1}^8.

    Returns ``(chunks, rows, mirror)``, each indexed by byte:
    - ``chunks[byte]`` is ``(a, b, shifts of the unmatched 0s)``, for :func:`_scan`;
    - ``rows[byte]`` is ``(a, b, zeros, ones)``, for :func:`_unmatched_masks`:
      ``zeros[d]`` masks the unmatched 0s that stay unmatched after d open
      1s come in (d < a), and ``ones[k]`` the byte's own unmatched 1s that
      stay open after k later 0s close the most recent of them (k < b);
    - ``mirror[byte]`` is the byte reversed and complemented.
    """
    ((xs, full),) = _cube_blocks(8)
    mirrored = [full ^ x for x in reversed(xs)]
    zeros = _lane_bytes(_unmatched_planes(xs, full)[0])
    # the unmatched 1s of a byte are the unmatched 0s of its mirror, mirrored
    ones = _lane_bytes(_unmatched_planes(mirrored, full)[0][::-1])
    # per mask: its set shifts from the highest, and the mask less its d
    # highest (less its k lowest) set bits for d (k) from 0
    shifts: list[tuple[int, ...]] = [()]
    highs: list[tuple[int, ...]] = [()]
    lows: list[tuple[int, ...]] = [()]
    for m in range(1, 256):
        top = m.bit_length() - 1
        shifts.append((top, *shifts[m ^ 1 << top]))
        highs.append((m, *highs[m ^ 1 << top]))
        lows.append((m, *lows[m & (m - 1)]))
    chunks = tuple((len(shifts[z]), o.bit_count(), shifts[z]) for z, o in zip(zeros, ones))
    rows = tuple((len(shifts[z]), o.bit_count(), highs[z], lows[o]) for z, o in zip(zeros, ones))
    return chunks, rows, _lane_bytes(mirrored)


_CHUNKS, _ROWS, _MIRROR = _byte_tables()


def _scan(stream: bytes, n: int) -> tuple[list[int], int]:
    """Unmatched 0s of a byte stream read left to right, and the final depth.

    A 0 at coordinate t of the stream gets the shift n - t.
    """
    zeros: list[int] = []
    depth = 0  # unmatched 1s so far
    base = n - 8  # shift of the byte's lowest bit
    for byte in stream:
        a, b, chunk_zeros = _CHUNKS[byte]
        if a > depth:
            for z in chunk_zeros[depth:]:
                zeros.append(base + z)
            depth = b
        else:
            depth += b - a
        base -= 8
    return zeros, depth


def _profile(n: int, v: int) -> tuple[int, int]:
    """The marking profile (a, b): the numbers of unmatched 0s and 1s.

    The count-only form of :func:`_unmatched_zeros`: the same padded byte
    stream, folded through the (a, b) fields of the byte table alone.
    """
    pad = -n & 7
    zeros = 0
    depth = 0
    for byte in (((v + 1) << pad) - 1).to_bytes((n + pad) >> 3, "big"):
        a, b, _ = _CHUNKS[byte]
        if a > depth:
            zeros += a - depth
            depth = b
        else:
            depth += b - a
    return zeros, depth - pad


def _unmatched_zeros(n: int, v: int) -> tuple[list[int], int]:
    """Shifts (n - coordinate) of the unmatched 0s, leftmost first, and the
    number of unmatched 1s.
    """
    pad = -n & 7
    zeros, depth = _scan((((v + 1) << pad) - 1).to_bytes((n + pad) >> 3, "big"), n)
    return zeros, depth - pad


def _unmatched_ones(n: int, v: int) -> tuple[list[int], int]:
    """Shifts of the unmatched 1s, leftmost first, and the number of
    unmatched 0s.
    """
    # The unmatched 0s of the mirrored stream, from coordinate n back to 1,
    # are the unmatched 1s of v; v's high zero bits mirror to trailing 1s.
    mirrored, depth = _scan(v.to_bytes((n + 7) >> 3, "little").translate(_MIRROR), n)
    return [n - 1 - s for s in reversed(mirrored)], depth - (-n & 7)


def _unmatched_masks(n: int, v: int) -> tuple[int, int]:
    """Masks, by shift like v, of the unmatched 0s and of the unmatched 1s.

    One left-to-right pass over the padded byte stream of
    :func:`_unmatched_zeros`.  The open 1s stack up by byte: ``stack`` holds
    an entry for each byte that still has open 1s, oldest first, and the
    byte holds the depths from the entry's bottom up to the next entry's
    bottom (the depth, for the last entry).  A byte's unmatched 0s close the
    most recent open 1s, which pops the entries they empty; when they
    outnumber the open 1s, they close all of them and the rest stay
    unmatched.  The entries left at the end hold the unmatched 1s, each
    byte's leftmost ones; the padding's 1s are among them and shift out.
    """
    pad = -n & 7
    size = (n + pad) >> 3
    zeros = 0
    stack: list[tuple[int, int, tuple[int, ...]]] = []  # (bottom, shift, one_masks)
    depth = 0  # open 1s
    shift = 8 * size
    for byte in (((v + 1) << pad) - 1).to_bytes(size, "big"):
        shift -= 8
        a, b, zero_masks, one_masks = _ROWS[byte]
        if a > depth:
            zeros |= zero_masks[depth] << shift
            stack = []
            depth = 0
        elif a:
            depth -= a
            while stack and stack[-1][0] >= depth:
                stack.pop()
        if b:
            stack.append((depth, shift, one_masks))
            depth += b
    ones = 0
    top = depth
    for bottom, shift, one_masks in reversed(stack):
        # the byte's b own 1s less the top - bottom still open are closed
        ones |= one_masks[len(one_masks) - top + bottom] << shift
        top = bottom
    return zeros >> pad, ones >> pad


@dataclass(frozen=True, slots=True)
class MarkedString:
    """Per-coordinate (bit, marked) pairs produced by the marking stage."""

    bits: tuple[int, ...]
    marked: tuple[bool, ...]

    def __post_init__(self):
        if len(self.bits) != len(self.marked) or not self.bits:
            raise ValueError("bits and marks must be non-empty and equally long")

    @property
    def n(self) -> int:
        return len(self.bits)

    def marked_coordinates(self) -> tuple[int, ...]:
        return tuple(i + 1 for i, m in enumerate(self.marked) if m)


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class ChainPosition:
    """Where a vertex sits: its chain code, bottom level k, level j, and the
    distance ell from the chain top."""

    code: ChainCode
    k: int
    j: int
    ell: int


def mark(x: BitVector) -> MarkedString:
    """Run the marking stage (one byte-table pass)."""
    zeros, ones = _unmatched_masks(x.n, x.value)
    marked = format(zeros | ones, f"0{x.n}b").encode().translate(_MARKED_FLAGS)
    return MarkedString(x.bits(), tuple(memoryview(marked).cast("?")))


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
    zeros, ones = _unmatched_masks(n, x.value)
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
