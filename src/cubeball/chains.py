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
kernel below, holds ``(a, b, shifts of the unmatched 0s)`` for every byte.
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
is all an inverse map needs.  :func:`_unmatched` runs both scans, the second
only when the first counts unmatched 1s, to list every unmarked coordinate.

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

from .bits import BitVector, _low_mask
from .errors import LevelRangeError

BLANK = "_"

# Whole-cube scans take the cube in blocks of 2^_BLOCK_BITS vertices.
_BLOCK_BITS = 16


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
        counter[j] = c ^ mask
        mask &= ~c


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
        lanes &= c if value >> j & 1 else ~c
    return lanes


def _subtract(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """Lane-wise a - b: the difference's planes, and the lanes where b > a.

    In the lanes where b > a the difference wraps and its planes mean nothing.
    """
    diff = []
    borrow = 0
    for x, y in zip_longest(a, b, fillvalue=0):
        diff.append(x ^ y ^ borrow)
        borrow = (~x & (y | borrow)) | (y & borrow)
    return diff, borrow


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
        _decrement(depth, open_ & ~x)
        _increment(depth, x)
    return zeros, a, depth


def _chunk_table() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """``(a, b, shifts of the unmatched 0s)`` for every byte, from the planes."""
    ((xs, full),) = _cube_blocks(8)
    zeros = _unmatched_planes(xs, full)[0]
    chunks = [tuple(s for s in range(7, -1, -1) if zeros[s] >> byte & 1) for byte in range(256)]
    # a + b + 2 * (matched pairs) = 8, and the byte has b + (matched pairs) 1s
    return tuple((len(c), 2 * byte.bit_count() - 8 + len(c), c) for byte, c in enumerate(chunks))


_CHUNKS = _chunk_table()
# each byte reversed and complemented
_MIRROR = bytes(int(f"{byte:08b}"[::-1], 2) ^ 0xFF for byte in range(256))


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


def _unmatched(n: int, v: int) -> tuple[list[int], list[int]]:
    """Shifts of the unmatched 0s and of the unmatched 1s, leftmost first;
    zeros + ones lists every unmarked coordinate from left to right."""
    zeros, ones_count = _unmatched_zeros(n, v)
    return zeros, _unmatched_ones(n, v)[0] if ones_count else []


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
        if not self.symbols or any(c not in "01_" for c in self.symbols):
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
    """Run the marking stage (one byte-table scan, two when 1s stay unmatched)."""
    n = x.n
    zeros, ones = _unmatched(n, x.value)
    marked = [True] * n
    for s in zeros + ones:
        marked[n - 1 - s] = False
    return MarkedString(x.bits(), tuple(marked))


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
            here = active[s] & ~found
            if not here:
                continue
            ends = here & second[s]
            for q, lanes in last.items():
                pair = lanes & ends & first[q]
                if pair:
                    active[q] ^= pair
                    active[s] ^= pair
                    found |= pair
            last = {q: rest for q, lanes in last.items() if (rest := lanes & ~here)}
            last[s] = here & ~found
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
            close = lanes & ~one
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
    zeros, ones = _unmatched(n, x.value)
    symbols = list(x.render())
    for s in zeros + ones:
        symbols[n - 1 - s] = BLANK
    code = ChainCode("".join(symbols))
    return ChainPosition(code=code, k=code.k, j=x.weight(), ell=len(zeros))


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
