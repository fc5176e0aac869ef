"""Edge-stretch functionals: exhaustive and seeded-sample sweeps.

Forward stretch of a map f on the cube is ``distance(f(x), f(x+e_i))``.
The exhaustive average is taken over all n * 2^n ordered (x, i) pairs, which
equals the average over unordered edges; sweeps visit each unordered edge
once, from its endpoint with the 0 bit, and the accumulated sum is doubled.

Inverse stretch is measured on the subgraph of {0,1}^(n+1) induced by the
ball (both endpoints inside).  The average is over ordered induced (z, i)
pairs; this convention is recorded in the report's ``averaging`` field.

Averages are exact rationals: integer distance sums with a single final
division, so exhaustive reports carry no floating-point drift.  Sampled
estimates draw (x, i) uniformly from Python's ``random.Random(seed)``
(Mersenne twister; one ``getrandbits(n)`` then one ``randrange(n)`` per
sample) and are byte-reproducible for a fixed seed.

Sweeps are data-parallel across contiguous value ranges.  Shard results
merge with (max-with-first-witness, sum, count), an associative,
order-canonical combine, so a report is identical for any worker count.
"""

from __future__ import annotations

import os
import random
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import Optional

from .bijections import _FORWARD_VALUE, BijectionKind, _require_dimension
from .bits import DEFAULT_ENUMERATION_CAP, BitVector, EdgeId
from .errors import BijectivityError, EnumerationCapError

# Above this domain size, sampled sweeps evaluate the map per draw instead of
# building a full image table.
_TABLE_LIMIT = 1 << 20


class Direction(Enum):
    FORWARD = "fwd"
    INVERSE = "inv"


class SweepMode(Enum):
    EXHAUSTIVE = "exhaustive"
    SAMPLED = "sample"


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
class RatioAudit:
    """Extremes of distance(f(x), f(y)) / distance(x, y) over unordered pairs."""

    kind: BijectionKind
    n: int
    pairs: int
    min_ratio: Fraction
    max_ratio: Fraction
    min_witness: tuple[BitVector, BitVector]
    max_witness: tuple[BitVector, BitVector]


@dataclass(frozen=True, slots=True)
class TransitivityAudit:
    """Distortion of the swap map built from two ball points."""

    n: int
    pairs: int
    swaps_ok: bool
    min_ratio: Fraction
    max_ratio: Fraction


@lru_cache(maxsize=16)
def image_table(kind: BijectionKind, n: int) -> list[int]:
    """Integer image values for every cube vertex, indexed by vertex value."""
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    f = _FORWARD_VALUE[kind]
    return [f(n, v) for v in range(1 << n)]


@lru_cache(maxsize=16)
def preimage_table(kind: BijectionKind, n: int) -> list[int]:
    """Preimage values indexed by length-(n+1) value; -1 outside the ball.

    Building this table proves bijectivity onto the ball: a collision or a
    ball point with no preimage raises :class:`BijectivityError`.
    """
    fwd = image_table(kind, n)
    inv = [-1] * (1 << (n + 1))
    for v, z in enumerate(fwd):
        if inv[z] != -1:
            raise BijectivityError(f"{kind.value} collides at image {z:0{n + 1}b}")
        inv[z] = v
    for z in range(1 << (n + 1)):
        if (2 * z.bit_count() > n) != (inv[z] >= 0):
            raise BijectivityError(
                f"{kind.value} image does not match the ball at {z:0{n + 1}b}"
            )
    return inv


def _shard_ranges(size: int, workers: int) -> list[tuple[int, int]]:
    w = max(1, min(workers, size))
    step = -(-size // w)
    return [(lo, min(lo + step, size)) for lo in range(0, size, step)]


def _run_shards(fn, shards, workers: int) -> list:
    workers = min(workers, len(shards), os.cpu_count() or 1)
    if workers <= 1:
        return [fn(lo, hi) for lo, hi in shards]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda r: fn(*r), shards))


def forward_stretch_exhaustive(
    kind: BijectionKind,
    n: int,
    *,
    workers: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> StretchReport:
    """Exact max and average stretch over every cube edge."""
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    if n * (1 << n) > cap:
        raise EnumerationCapError(n * (1 << n), cap, "(x, i) pairs")
    table = image_table(kind, n)

    def shard(lo: int, hi: int):
        best = -1
        bw = (0, 1)
        total = 0
        for v in range(lo, hi):
            fv = table[v]
            for s in range(n - 1, -1, -1):
                bit = 1 << s
                if not v & bit:
                    d = (fv ^ table[v | bit]).bit_count()
                    total += d
                    if d > best:
                        best = d
                        bw = (v, n - s)
        return best, bw, total

    best, bw, total = _merge_shards(_run_shards(shard, _shard_ranges(1 << n, workers), workers))
    return StretchReport(
        kind=kind,
        direction=Direction.FORWARD,
        n=n,
        mode=SweepMode.EXHAUSTIVE,
        max_stretch=best,
        max_witness=EdgeId(BitVector(n, bw[0]), bw[1]),
        avg_stretch=Fraction(2 * total, n << n),
        edges_considered=n << (n - 1),
        averaging="ordered (x,i) pairs, i uniform in [n]",
    )


def inverse_stretch_exhaustive(
    kind: BijectionKind,
    n: int,
    *,
    workers: int = 1,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> StretchReport:
    """Exact max and average inverse stretch over ball-induced edges."""
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    m = n + 1
    if m * (1 << m) > cap:
        raise EnumerationCapError(m * (1 << m), cap, "(z, i) pairs")
    inv = preimage_table(kind, n)

    def shard(lo: int, hi: int):
        best = -1
        bw = (0, 1)
        total = 0
        edges = 0
        for z in range(lo, hi):
            xv = inv[z]
            if xv < 0:
                continue
            for s in range(m - 1, -1, -1):
                bit = 1 << s
                if not z & bit:
                    # z | bit has one more 1, so it stays inside the ball
                    d = (xv ^ inv[z | bit]).bit_count()
                    total += d
                    edges += 1
                    if d > best:
                        best = d
                        bw = (z, m - s)
        return best, bw, total, edges

    parts = _run_shards(shard, _shard_ranges(1 << m, workers), workers)
    best, bw, total = _merge_shards([p[:3] for p in parts])
    edges = sum(p[3] for p in parts)
    return StretchReport(
        kind=kind,
        direction=Direction.INVERSE,
        n=n,
        mode=SweepMode.EXHAUSTIVE,
        max_stretch=best,
        max_witness=EdgeId(BitVector(m, bw[0]), bw[1]),
        avg_stretch=Fraction(total, edges),
        edges_considered=edges,
        averaging="ordered induced (z,i) pairs on the ball subgraph",
    )


def _merge_shards(parts):
    best = -1
    bw = (0, 1)
    total = 0
    for pbest, pbw, ptotal in parts:
        total += ptotal
        if pbest > best:  # keep-left on ties: canonical first witness
            best = pbest
            bw = pbw
    return best, bw, total


def forward_stretch_sampled(
    kind: BijectionKind, n: int, samples: int, seed: int
) -> StretchReport:
    """Unbiased Monte Carlo estimate of the forward average stretch.

    ``max_stretch`` reports the sample maximum only.  The report carries the
    seed and the exact sample variance so callers can form standard errors.
    """
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if seed is None:
        raise ValueError("sampled mode requires an explicit seed")
    rng = random.Random(seed)
    table = image_table(kind, n) if (1 << n) <= _TABLE_LIMIT else None
    f = _FORWARD_VALUE[kind]
    best = -1
    bw = (0, 1)
    total = 0
    total_sq = 0
    for _ in range(samples):
        v = rng.getrandbits(n)
        i = rng.randrange(n) + 1
        w = v ^ (1 << (n - i))
        if table is not None:
            d = (table[v] ^ table[w]).bit_count()
        else:
            d = (f(n, v) ^ f(n, w)).bit_count()
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
    """Extreme image/source distance ratios over all unordered vertex pairs."""
    kind = BijectionKind(kind)
    _require_dimension(n, kind.value)
    size = 1 << n
    pairs = size * (size - 1) // 2
    if pairs > cap:
        raise EnumerationCapError(pairs, cap, "vertex pairs")
    table = image_table(kind, n)
    # ratios tracked as cross-multiplied integers to avoid Fraction overhead
    min_num, min_den, min_w = 1, 0, (0, 1)  # +infinity
    max_num, max_den, max_w = 0, 1, (0, 1)  # zero
    for x in range(size):
        fx = table[x]
        for y in range(x + 1, size):
            ds = (x ^ y).bit_count()
            di = (fx ^ table[y]).bit_count()
            if di * min_den < min_num * ds:
                min_num, min_den, min_w = di, ds, (x, y)
            if di * max_den > max_num * ds:
                max_num, max_den, max_w = di, ds, (x, y)
    return RatioAudit(
        kind=kind,
        n=n,
        pairs=pairs,
        min_ratio=Fraction(min_num, min_den),
        max_ratio=Fraction(max_num, max_den),
        min_witness=(BitVector(n, min_w[0]), BitVector(n, min_w[1])),
        max_witness=(BitVector(n, max_w[0]), BitVector(n, max_w[1])),
    )


def transitivity_ratio_audit(
    x: "BitVector | int",
    y: "BitVector | int",
    n: int,
    *,
    cap: int = DEFAULT_ENUMERATION_CAP,
) -> TransitivityAudit:
    """Distortion audit of the swap map f(z) built from ball points x and y.

    Checks f(x) = y and f(y) = x and scans every unordered ball pair for the
    extreme distance ratios.
    """
    _require_dimension(n, "transitivity audit")
    xv = x.value if isinstance(x, BitVector) else int(x)
    yv = y.value if isinstance(y, BitVector) else int(y)
    size = 1 << n
    pairs = size * (size - 1) // 2
    if pairs > cap:
        raise EnumerationCapError(pairs, cap, "ball pairs")
    fwd = image_table(BijectionKind.PSI, n)
    inv = preimage_table(BijectionKind.PSI, n)
    if inv[xv] < 0 or inv[yv] < 0:
        raise BijectivityError("audit endpoints must lie inside the ball")
    delta = inv[xv] ^ inv[yv]
    members = [z for z in range(1 << (n + 1)) if inv[z] >= 0]
    f = {z: fwd[inv[z] ^ delta] for z in members}
    swaps_ok = f[xv] == yv and f[yv] == xv
    min_num, min_den = 1, 0
    max_num, max_den = 0, 1
    for a_idx in range(len(members)):
        za = members[a_idx]
        fa = f[za]
        for b_idx in range(a_idx + 1, len(members)):
            zb = members[b_idx]
            ds = (za ^ zb).bit_count()
            di = (fa ^ f[zb]).bit_count()
            if di * min_den < min_num * ds:
                min_num, min_den = di, ds
            if di * max_den > max_num * ds:
                max_num, max_den = di, ds
    return TransitivityAudit(
        n=n,
        pairs=pairs,
        swaps_ok=swaps_ok,
        min_ratio=Fraction(min_num, min_den),
        max_ratio=Fraction(max_num, max_den),
    )
