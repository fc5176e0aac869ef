"""Edge-stretch functionals: exhaustive and seeded-sample sweeps.

Forward stretch of a map f on the cube is ``distance(f(x), f(x+e_i))``.
The exhaustive average is taken over all n * 2^n ordered (x, i) pairs, which
equals the average over unordered edges, so sweeps visit each unordered edge
once, from its endpoint with the 0 bit.

Inverse stretch is measured on the subgraph of {0,1}^(n+1) induced by the
ball (both endpoints inside).  The average is over ordered induced (z, i)
pairs; this convention is recorded in the report's ``averaging`` field.

Averages are exact rationals: integer distance sums with a single final
division, so exhaustive reports carry no floating-point drift.

Sampled estimates draw (x, i) uniformly from Python's ``random.Random(seed)``
(Mersenne twister; one ``getrandbits(n)`` then one ``randrange(n)`` per
sample) and are byte-reproducible for a fixed seed.  When the image table
has at most 2^20 entries and at most 16 per draw, a draw's distance is read
off the table: a table draw costs 0.3 to 0.5 of a rule draw, and building
the table costs about as much as one rule draw per 9 to 31 entries.
Otherwise no table is built and the map is not evaluated: the distance
depends only on the marking profiles (a1, b1) of x_1..x_{i-1} and (a2, b2)
of x_{i+1}..x_n, so a draw folds the prefix and the suffix through the
marking byte table's counts (``chains._profile``) and hands the four counts
to the map's edge-distance rule, ``bijections._MAPS[kind].edge_distance``, a
case form of a few integer comparisons.

Whole-cube work runs on bit planes, one big int per bit with one bit (a
lane) per point, and takes no Python step per vertex or edge, but for
``preimage_table``'s scatter.  The planes stay in blocks of points (see
``chains._cube_blocks``) and are never joined over the whole cube.  For
each block of vertices the map's plane rule,
``_MAPS[kind].planes``, gives the images' planes.

The inverse side runs on the ball alone.  n + 1 is odd, so exactly one of
a point of {0,1}^(n+1) and its complement lies in the ball (the lanes of
weight above n/2, ``chains._majority_lanes``).  ``_preimage_blocks`` takes
the blocks of {0,1}^n, the points with bit n clear, and complements every
lane whose point is outside the ball: every lane then holds a ball point,
and each ball point appears once.  It runs the map's inverse plane rule,
``_MAPS[kind].inverse_planes``, on those lanes, then the forward plane
rule on the inverse rule's planes, and checks lane by lane that it gives
back every ball point: the inverse rule is then injective on the ball, a
set as large as the cube, so the map is a bijection onto the ball and the
inverse rule is its inverse there.  The sweep reads only planes that this
proof checked.

Both exhaustive sweeps and the swap audit share one sweep, ``_edge_sweep``,
over the blocks' planes and kept lanes.  A coordinate whose stride lies
within a block pairs each lane with the lane one stride above; a higher one
pairs two blocks lane for lane (``_block_edges``).  On the packed ball two
complemented lanes pair as well, the upper one holding the edge's 0-bit
endpoint, and the top coordinate pairs each block with another one
mirrored lane for lane.  A plane XOR its partner
marks the edges whose values differ in that bit, and a bit-sliced counter
over the marks gives each edge's distance.  The distance total is read off
the counter's planes, one popcount per counter bit, so no mark is
popcounted; ``analysis.influence_profile``, which needs the per-bit counts,
loops over the same pairing and popcounts the marks.  The pair and swap
ratio audits read their extremes off edge sweeps, because the cube and the
ball are geodesic (see :class:`RatioAudit`).

The swap audit takes psi's proven inverse planes from ``_preimage_blocks``,
flips the planes of the swap's bits, and runs the forward plane rule on the
result, so its sweep reads the swap map's planes, in the same packed
layout, with no table in between.

``image_table`` and ``preimage_table`` are ``array('i')`` tables at 4 bytes
per entry, for small sampled runs, the worked examples and the acceptance
criteria; past the default enumeration cap they are refused before they
allocate.  ``image_table`` transposes the same block planes into the table
(``chains._set_planes``).  ``preimage_table`` scatters the images into their
entries and proves, apart from the lane proof and without a plane, that the
map is a bijection onto the ball, with two counts: 2^n entries must be left
at -1, so no two vertices share an image, and the images' weights must sum
to the ball's, which 2^n distinct points do only when they are the ball.
"""

from __future__ import annotations

import random
import sys
from array import array
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Iterator, Optional

from .bijections import _MAPS, BijectionKind, _require_dimension
from .bits import DEFAULT_ENUMERATION_CAP, BitVector, EdgeId, _low_mask, _record, _require_cap
from .chains import (_cube_blocks, _differing_lanes, _increment, _lowest_lane, _majority_lanes,
                     _profile, _set_planes)
from .errors import BijectivityError, EnumerationCapError, LengthMismatchError, NotInBallError

# Above this domain size, or above 16 vertices per draw, sampled sweeps find
# each draw's distance from its marking profiles instead of building a full
# image table: with the case-form rules the table pays off only up to about
# 16 vertices per draw.  The sampled runs that matter sit far from either
# limit (acceptance criterion 13 at 0.2 per draw, the verify-sampled
# benchmark at n = 1024).
_TABLE_LIMIT = 1 << 20

# preimage_table's checks read its two tables in slices of this many entries
# (64 KiB of array("i"))
_SLICE = 1 << 14

# (planes, kept lanes) per block of chains._cube_blocks, blocks in point order.
# In the ball's packed blocks (see _preimage_blocks) the kept lanes are those
# that hold their own point.
_Blocks = list[tuple[list[int], int]]

# Bit r of _REVERSE[v] is bit 7 - r of v: the multiply spreads five copies of
# v, the mask keeps each bit once in mirrored order, and mod 1023 sums the
# 10-bit groups (Bit Twiddling Hacks, "reverse the bits in a byte").
_REVERSE = bytes((v * 0x0202020202 & 0x010884422010) % 1023 for v in range(256))


class Direction(Enum):
    FORWARD = "fwd"
    INVERSE = "inv"


class SweepMode(Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sample"


@_record
class StretchReport:
    kind: BijectionKind
    direction: Direction
    n: int
    mode: SweepMode
    max_stretch: int
    max_witness: EdgeId
    avg_stretch: Fraction
    edges_considered: int
    averaging: str
    samples: Optional[int] = None
    seed: Optional[int] = None
    sample_variance: Optional[Fraction] = None

    def to_record(self) -> dict[str, str]:
        """Flat, deterministic key/value view used by the CLI."""
        frac = self.avg_stretch
        rec = {
            "bijection": self.kind.value,
            "direction": self.direction.value,
            "n": str(self.n),
            "mode": self.mode.value,
            "max_stretch": str(self.max_stretch),
            "witness_vertex": self.max_witness.vertex.render(),
            "witness_coordinate": str(self.max_witness.coordinate),
            "avg_stretch": f"{frac.numerator}/{frac.denominator}",
            "avg_stretch_dec": f"{float(frac):.6f}",
            "edges_considered": str(self.edges_considered),
            "averaging": self.averaging,
            "samples": "-" if self.samples is None else str(self.samples),
            "seed": "-" if self.seed is None else str(self.seed),
            "sample_variance": "-"
            if self.sample_variance is None
            else f"{self.sample_variance.numerator}/{self.sample_variance.denominator}",
        }
        return rec


@_record
class RatioAudit:
    """Extremes of distance(f(x), f(y)) / distance(x, y) over unordered pairs.

    Both come from edge sweeps.  The cube is geodesic: a pair at distance d
    is joined by a path of d edges, so no pair ratio exceeds the largest
    forward edge stretch, and ``max_witness``, the edge that attains it,
    reaches it.  The ball {|z| > n/2} is an up-set, so a shortest path
    between two ball points can flip 0s to 1s first and 1s to 0s after
    without leaving it, and the ball's induced subgraph measures Hamming
    distance.  So no pair ratio falls below 1 / (largest inverse edge
    stretch), and ``min_witness``, the preimages of the ball edge that
    attains it, reaches it.
    """

    kind: BijectionKind
    n: int
    pairs: int
    min_ratio: Fraction
    max_ratio: Fraction
    min_witness: tuple[BitVector, BitVector]
    max_witness: tuple[BitVector, BitVector]


@_record
class TransitivityAudit:
    """Distortion of the swap map built from two ball points.

    ``swaps_ok`` says whether the map exchanges the two points.  The
    extremes range over every unordered pair of ball points and, as in
    :class:`RatioAudit`, come from a sweep of the ball's induced edges of
    the map's planes.
    """

    n: int
    pairs: int
    swaps_ok: bool
    min_ratio: Fraction
    max_ratio: Fraction


def _image_blocks(kind: BijectionKind, n: int) -> Iterator[tuple[list[int], int]]:
    """``(images, full)`` per block of ``chains._cube_blocks(n)``, the
    :data:`_Blocks` element shape, one block at a time.

    ``images`` holds the n + 1 planes of the block's images, from the map's
    plane rule.
    """
    rule = _MAPS[kind].planes
    for xs, full in _cube_blocks(n):
        yield rule(xs, full), full


def _preimage_blocks(kind: BijectionKind, n: int) -> _Blocks:
    """The inverse plane rule's planes per block of the ball, complement-packed,
    proven to be the map's inverse on the ball.

    The blocks are those of ``chains._cube_blocks(n)``, the points of
    {0,1}^(n+1) with bit n clear.  n + 1 is odd, so exactly one of z and its
    complement lies in the ball: a lane whose point is outside the ball takes
    its complement instead, every plane XOR-ed with the lanes outside the
    ball.  So every lane holds a ball point and each ball point appears
    once: a point with bit n clear at its own lane (the block's kept lanes),
    and a point with bit n set at its complement's lane.

    For every ball point z the forward rule F must give back z from the
    inverse rule's G(z).  A right inverse makes G injective on the ball,
    which has 2^n points, as many as the cube, so G is onto the cube, F is a
    bijection onto the ball and G is F^-1 there.  The least ball point that
    fails raises :class:`BijectivityError`.
    """
    rules = _MAPS[kind]
    blocks: _Blocks = []
    bad = []
    for k, (xs, full) in enumerate(_cube_blocks(n)):
        ball = _majority_lanes(xs, full)
        out = full ^ ball
        zs = [p ^ out for p in xs] + [out]
        back = rules.inverse_planes(zs, full)
        if wrong := _differing_lanes(zs, rules.planes(back, full)):
            start = k * full.bit_length()
            bad.append(_least_point(wrong, ball, start, start, n + 1))
        blocks.append((back, ball))
    if bad:
        raise BijectivityError(f"{kind.value} does not give back ball point {min(bad):0{n + 1}b}")
    return blocks


@lru_cache(maxsize=16)
def image_table(kind: BijectionKind, n: int) -> array:
    """Integer image values for every cube vertex, indexed by vertex value.

    An ``array('i')``, 4 bytes per entry; the maps' images fit in n + 1 bits.
    Built a block of vertices at a time from the images' planes, which are
    transposed into the table.
    """
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    _require_cap(n, DEFAULT_ENUMERATION_CAP, "table entries")
    table = array("i", [0]) * (1 << n)
    for k, (images, full) in enumerate(_image_blocks(kind, n)):
        lanes = full.bit_length()
        _set_planes(table, k * lanes, images, lanes)
    return table


def preimage_table(kind: BijectionKind, n: int) -> array:
    """Preimage values indexed by length-(n+1) value; -1 outside the ball.

    Building this table proves bijectivity onto the ball from the image
    table alone, apart from the lane proof: a collision or a ball point
    with no preimage raises :class:`BijectivityError`.
    """
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    _require_cap(n + 1, DEFAULT_ENUMERATION_CAP, "table entries")
    fwd = image_table(kind, n)
    # Both checks read the tables a _SLICE at a time, so that no temporary
    # reaches glibc's default 128 KiB mmap threshold: glibc raises the
    # threshold to the largest mapped block freed, and one whole-table
    # temporary left the sweeps that follow with 0.1 MiB more peak RSS for psi
    # at n = 18 (CPython 3.11, x86-64 Linux).  Images are non-negative, so
    # the bits set in the bytes of ``fwd`` are the images' total weight.
    weight = sum(int.from_bytes(fwd[k : k + _SLICE], "little").bit_count()
                 for k in range(0, len(fwd), _SLICE))
    inv = array("i", [-1]) * (1 << (n + 1))
    with memoryview(inv) as view:  # stores through a view take about 15% less time
        for v, z in enumerate(fwd):
            view[z] = v
    # Preimages lie below 2^26 at the cap, so -1 is the only entry with a
    # top byte of 0xFF.  If 2^n entries still hold it, the 2^n vertices
    # have distinct images.  The ball has 2^n points, and each outweighs
    # every point outside it, so 2^n distinct points are the ball exactly
    # when their weights sum to the ball's: over w > n/2, w C(n+1, w) =
    # (n+1) C(n, w-1), and the C(n, j) for j >= n/2 sum to (2^n + C(n, n/2))/2.
    top = inv.itemsize - 1 if sys.byteorder == "little" else 0
    unwritten = sum(inv[k : k + _SLICE].tobytes()[top :: inv.itemsize].count(0xFF)
                    for k in range(0, len(inv), _SLICE))
    if unwritten != 1 << n or weight != (n + 1) * ((1 << n) + comb(n, n // 2)) // 2:
        # Name the fault as a checked scatter would: the first collision in
        # vertex order, else the smallest point where images and ball differ.
        seen = set()
        for z in fwd:
            if z in seen:
                raise BijectivityError(f"{kind.value} collides at image {z:0{n + 1}b}")
            seen.add(z)
        z = next(z for z, v in enumerate(inv) if (2 * z.bit_count() > n) != (v >= 0))
        raise BijectivityError(f"{kind.value} image does not match the ball at {z:0{n + 1}b}")
    return inv


def _least_point(lanes: int, kept: int, start: int, upper: int, m: int) -> int:
    """The least point of {0,1}^m among the non-zero ``lanes`` of a packed
    block: lane r holds start + r where ``kept``, and else the complement of
    upper + r.

    Every kept lane's point has bit m - 1 clear and every other one's has it
    set, so the least is the lowest kept lane's, and failing one the highest
    lane's.
    """
    low = lanes & kept
    return start + _lowest_lane(low) if low else ((1 << m) - 1) ^ (upper + lanes.bit_length() - 1)


def _block_edges(
    blocks: _Blocks, m: int, n: Optional[int] = None
) -> Iterator[tuple[int, int, list[int], list[int], int, int]]:
    """The edges of the kept points' induced subgraph of {0,1}^m, a block at a time.

    ``blocks`` are :data:`_Blocks` over {0,1}^n, with n = m unless given:
    bit r of ``planes[t]`` is bit t of the value at lane r.  Every kept set
    here is an up-set (the whole cube, or the ball), so the edges along
    coordinate m - s are the kept z with bit s clear, named by that
    endpoint.  With n = m - 1 the blocks hold the ball of {0,1}^m
    complement-packed, as :func:`_preimage_blocks` makes them: a lane
    outside ``kept`` holds the complement of its own point, and the lanes of
    two such points pair the other way round.

    Yields ``(i, start, planes, partner, e, kept)`` for coordinates i = 1..m
    and, within each, blocks in order: lane r of ``e`` marks an edge and
    ``partner`` holds its other endpoint's value in the same lane.  The
    edge's 0-bit endpoint is start + r where r is kept, and else the
    complement of the point at the partner lane, start + 2^(m - i) + r.  A
    stride 2^s within a block pairs each lane with the lane 2^s above it; a
    higher one pairs block b with block b | 2^(s - width), for the b with
    that bit clear.  The packed blocks' top coordinate, s = n, takes the
    point z at kept lane r of block b to z + 2^n, the complement of the
    point at lane 2^width - 1 - r of block B - 1 - b, where B is the number
    of blocks: it pairs each block with that one, mirrored lane for lane.
    """
    n = m if n is None else n
    width = n + 1 - len(blocks).bit_length()  # 2^width lanes per block
    lanes = 1 << width
    full = (1 << lanes) - 1
    outs = [full ^ kept if m > n else 0 for _, kept in blocks]  # the complemented lanes
    for s in range(m - 1, -1, -1):
        if s < width:
            inner = _low_mask(width, s)
            for b, (planes, kept) in enumerate(blocks):
                e = inner & (kept | outs[b] >> (1 << s))
                if e:
                    yield m - s, b << width, planes, [p >> (1 << s) for p in planes], e, kept
        elif s < n:
            bit = 1 << (s - width)
            for b, (planes, kept) in enumerate(blocks):
                e = kept | outs[b | bit]
                if e and not b & bit:
                    yield m - s, b << width, planes, blocks[b | bit][0], e, kept
        else:
            size = (lanes + 7) >> 3
            for b, ((planes, kept), (other, _)) in enumerate(zip(blocks, reversed(blocks))):
                if kept:
                    rev = [p.to_bytes(size, "little").translate(_REVERSE) for p in other]
                    mirror = [int.from_bytes(r, "big") >> (8 * size - lanes) for r in rev]
                    yield 1, b << width, planes, mirror, kept, kept


def _edge_sweep(
    blocks: _Blocks, m: int, n: Optional[int] = None
) -> tuple[int, tuple[int, int], int, int]:
    """Max, keep-first witness, total and count of the distances of
    :func:`_block_edges`.

    A plane XOR its partner marks the edges whose values differ in bit t.  A
    ripple counter over those marks holds every edge's distance, one bit
    plane per counter bit, so the distance total is the sum over counter
    bits j of 2^j times the popcount of plane j.  The witness is the least
    (0-bit endpoint, coordinate) among the edges of maximal distance: the
    edges come by coordinate and then block, so a later one replaces it only
    at a larger distance or a smaller endpoint.
    """
    total = 0
    edges = 0
    best = -1
    bz, bi = 0, 1
    for i, start, planes, partner, e, kept in _block_edges(blocks, m, n):
        edges += e.bit_count()
        counter: list[int] = []
        for p, q in zip(planes, partner):
            d = (p ^ q) & e
            if d:
                _increment(counter, d)
        total += sum(c.bit_count() << j for j, c in enumerate(counter))
        # Walk the counter from its top bit down, keeping the edges that can
        # still reach the largest distance.
        top = 0
        at = e
        for j in range(len(counter) - 1, -1, -1):
            hit = at & counter[j]
            if hit:
                at = hit
                top |= 1 << j
        if top >= best:  # only then can this block move the witness
            z = _least_point(at, kept, start, start + (1 << (m - i)), m)
            if top > best or z < bz:
                best, bz, bi = top, z, i
    return best, (bz, bi), total, edges


def _exhaustive_report(
    kind: BijectionKind,
    direction: Direction,
    n: int,
    blocks: _Blocks,
    m: int,
    averaging: str,
) -> StretchReport:
    best, (z, i), total, edges = _edge_sweep(blocks, m, n)
    return StretchReport(
        kind=kind,
        direction=direction,
        n=n,
        mode=SweepMode.EXHAUSTIVE,
        max_stretch=best,
        max_witness=EdgeId(BitVector(m, z), i),
        avg_stretch=Fraction(total, edges),
        edges_considered=edges,
        averaging=averaging,
    )


def forward_stretch_exhaustive(
    kind: BijectionKind, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> StretchReport:
    """Exact max and average stretch over every cube edge."""
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    _require_cap(n, cap, "(x, i) pairs", n)
    return _exhaustive_report(
        kind, Direction.FORWARD, n, list(_image_blocks(kind, n)), n,
        "ordered (x,i) pairs, i uniform in [n]",
    )


def inverse_stretch_exhaustive(
    kind: BijectionKind, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> StretchReport:
    """Exact max and average inverse stretch over ball-induced edges.

    Sweeps the inverse plane rule's planes over the ball, complement-packed
    into 2^n lanes, after the pass that proves the map a bijection onto the
    ball with that rule as its inverse (:func:`_preimage_blocks`).
    """
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    _require_cap(n + 1, cap, "(z, i) pairs", n + 1)
    return _exhaustive_report(
        kind, Direction.INVERSE, n, _preimage_blocks(kind, n), n + 1,
        "ordered induced (z,i) pairs on the ball subgraph",
    )


def forward_stretch_sampled(
    kind: BijectionKind, n: int, samples: int, seed: int
) -> StretchReport:
    """Unbiased Monte Carlo estimate of the forward average stretch.

    ``max_stretch`` reports the sample maximum only.  The report carries the
    seed and the exact sample variance so callers can form standard errors.
    An n above the library ceiling, 2^28 bits per draw, is refused.
    """
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed is None or seed < 0:  # random.Random(-s) would draw the stream of s
        raise ValueError(f"sampled mode requires an explicit seed >= 0, got {seed}")
    if n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationCapError(n, DEFAULT_ENUMERATION_CAP, "bits per draw")
    rng = random.Random(seed)
    # n first, so that no 2^n is built past the table's 2^20 entries
    small = n < _TABLE_LIMIT.bit_length() and 1 << n <= samples << 4
    table = image_table(kind, n) if small else None
    rule = _MAPS[kind].edge_distance
    best = -1
    bw = (0, 1)
    total = 0
    total_sq = 0
    for _ in range(samples):
        v = rng.getrandbits(n)
        i = rng.randrange(n) + 1
        if table is not None:
            d = (table[v] ^ table[v ^ (1 << (n - i))]).bit_count()
        else:
            low = n - i  # the suffix's length
            d = rule(n, *_profile(i - 1, v >> (low + 1)), *_profile(low, v & ((1 << low) - 1)))
        total += d
        total_sq += d * d
        if d > best:
            best = d
            bw = (v, i)
    avg = Fraction(total, samples)
    return StretchReport(
        kind=kind,
        direction=Direction.FORWARD,
        n=n,
        mode=SweepMode.SAMPLED,
        max_stretch=best,
        max_witness=EdgeId(BitVector(n, bw[0]), bw[1]),
        avg_stretch=avg,
        edges_considered=samples,
        averaging="uniform (x,i) draws",
        samples=samples,
        seed=seed,
        sample_variance=Fraction(total_sq, samples) - avg * avg,
    )


def pairwise_ratio_audit(
    kind: BijectionKind, n: int, *, cap: int = DEFAULT_ENUMERATION_CAP
) -> RatioAudit:
    """Extreme image/source distance ratios over all unordered vertex pairs.

    Read off the forward and inverse edge sweeps (see :class:`RatioAudit`);
    ``cap`` bounds the edges each sweep visits.
    """
    kind = BijectionKind(kind)
    fwd = forward_stretch_exhaustive(kind, n, cap=cap)
    inv = inverse_stretch_exhaustive(kind, n, cap=cap)
    inverse = _MAPS[kind].inverse
    e = inv.max_witness
    lo_x, lo_y = sorted((inverse(e.vertex).value, inverse(e.other_endpoint()).value))
    size = 1 << n
    return RatioAudit(
        kind=kind,
        n=n,
        pairs=size * (size - 1) // 2,
        min_ratio=Fraction(1, inv.max_stretch),
        max_ratio=Fraction(fwd.max_stretch),
        min_witness=(BitVector(n, lo_x), BitVector(n, lo_y)),
        max_witness=(fwd.max_witness.vertex, fwd.max_witness.other_endpoint()),
    )


def _audit_endpoint(p: "BitVector | int", m: int) -> int:
    """The value of a point of {0,1}^m, checked before the audit reads it."""
    if isinstance(p, BitVector):
        if p.n != m:
            raise LengthMismatchError(f"audit endpoint {p} has length {p.n}, want {m}")
        return p.value
    v = int(p)
    if v < 0 or v.bit_length() > m:
        raise NotInBallError(f"audit endpoint {v} is not a point of {{0,1}}^{m}")
    return v


def transitivity_ratio_audit(
    x: "BitVector | int",
    y: "BitVector | int",
    n: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> TransitivityAudit:
    """Distortion audit of the swap map g(z) built from ball points x and y.

    g(z) = psi(psi^-1(z) ^ delta) with delta = psi^-1(x) ^ psi^-1(y).  Its
    planes over the ball, in the packed blocks of :func:`_preimage_blocks`,
    come from psi's plane rules: the inverse rule,
    with the planes of delta's set bits complemented, then the forward
    rule, on the inverse rule's planes that :func:`_preimage_blocks` proves
    to be psi^-1 on the ball.  The audit checks g(x) = y and g(y) = x on the
    planes and sweeps g's ball edges for the extreme distance ratios over
    all unordered ball pairs; ``cap`` bounds the (z, i) pairs swept.  No
    table is built.
    """
    _require_dimension(n, "transitivity audit")
    m = n + 1
    xv = _audit_endpoint(x, m)
    yv = _audit_endpoint(y, m)
    _require_cap(m, cap, "(z, i) pairs", m)
    if 2 * xv.bit_count() <= n or 2 * yv.bit_count() <= n:
        raise NotInBallError("audit endpoints must lie inside the ball")
    size = 1 << n
    psi = _MAPS[BijectionKind.PSI]
    delta = psi.inverse(BitVector(m, xv)).value ^ psi.inverse(BitVector(m, yv)).value
    blocks = _preimage_blocks(BijectionKind.PSI, n)
    for k, ((back, ball), (_, full)) in enumerate(zip(blocks, _cube_blocks(n), strict=True)):
        xs = [p ^ full if delta >> t & 1 else p for t, p in enumerate(back)]
        blocks[k] = psi.planes(xs, full), ball
    # The ball is geodesic, so no pair ratio of g exceeds its largest
    # ball-edge stretch s.  g is an involution, so d(a, b) =
    # d(g(g(a)), g(g(b))) <= s * d(g(a), g(b)): no ratio falls below 1/s,
    # and (g(a), g(b)) attains it for an edge (a, b) stretched by s.  The
    # ratios span exactly [1/s, s].
    s = _edge_sweep(blocks, m, n)[0]

    def g(z: int) -> int:
        # a ball point with bit n set sits at its complement's lane
        b, r = divmod(z if z < size else z ^ (2 * size - 1), full.bit_length())
        return sum((p >> r & 1) << t for t, p in enumerate(blocks[b][0]))

    return TransitivityAudit(
        n=n,
        pairs=size * (size - 1) // 2,
        swaps_ok=g(xv) == yv and g(yv) == xv,
        min_ratio=Fraction(1, s),
        max_ratio=Fraction(s),
    )
