"""The acceptance checklist: every quantitative claim at desk scale.

Each criterion is a self-contained function returning (passed, detail).
Exact quantities are compared as integers or ``Fraction`` values with no
tolerance.  Regression constants pinned from the first exhaustive sweeps
are collected at the top of the module.

Criteria 11 and 12 check the public ``mark`` on every vertex against three
oracles that share no code with the marking kernels: the balanced-window
criterion, repeated deletion of the leftmost or rightmost ``10`` pair, and
the three-scan split marking.  Each oracle runs lane-parallel, one lane per
vertex, on the bit planes of the whole cube (``analysis._dyck_planes``,
``chains._reference_planes``, ``chains._split_planes``).  ``mark`` itself
runs once per vertex; the digits of its mask are transposed into planes
that both criteria share, and the criteria compare plane against plane.  A
disagreement is reported at the first (x, i) that a per-vertex loop would
meet.  The per-vertex forms of the oracles (``dyck_marked_coordinates``,
``mark_reference``, ``mark_via_split``) live in ``tests/marking_oracle.py``,
and the tests check the lane forms against them on every vertex of n <= 10.

Criterion 10 runs lane-parallel too: psi's plane rule maps the blown-up
planes of the whole cube (``analysis._majority_reduction_planes``), and its
coordinate-1 plane is compared with the majority lanes.  The tests tie the
planes to the per-vertex ``majority_reduction`` and
``first_output_bit_of_reduction``.
"""

from __future__ import annotations

import io
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from . import analysis, metrics
from .bijections import _MAPS, BijectionKind
from .bits import BitVector, _record
from .chains import (
    _cube_blocks,
    _lowest_lane,
    _majority_lanes,
    _reference_planes,
    _split_planes,
    chain_code,
    chain_members,
    mark,
    position,
)

PSI = BijectionKind.PSI
PHI = BijectionKind.PHI
NAIVE = BijectionKind.NAIVE

# Pinned by the first exhaustive sweeps; asserted exactly ever after.
PHI_INVERSE_AVG = {
    8: Fraction(16, 9),
    12: Fraction(24, 13),
    16: Fraction(32, 17),
}

# Window for (naive average stretch) / sqrt(n) across even n in 4..16;
# the exact values range over [0.9864, 1.0625].
NAIVE_RATIO_LO = Fraction(95, 100)
NAIVE_RATIO_HI = Fraction(107, 100)

# max_i Pr[output bit i differs from input bit i] * sqrt(n) grows from
# 0.3750 (n=4) to 0.3919 (n=14); 2/5 holds at every even n, because
# p = C(n, n/2)/2^(n+1) gives p * sqrt(n) < 1/sqrt(2 pi) ~ 0.3989.
FLIP_SCALING_BOUND = Fraction(2, 5)

@_record
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def _c01_bijection_and_stretch() -> tuple[bool, str]:
    for n in range(2, 17, 2):
        metrics.preimage_table(PSI, n)  # raises on any bijectivity violation
        fwd = metrics.forward_stretch_exhaustive(PSI, n)
        inv = metrics.inverse_stretch_exhaustive(PSI, n)
        if fwd.max_stretch > 4:
            return False, f"forward max {fwd.max_stretch} at n={n}"
        if inv.max_stretch > 5:
            return False, f"inverse max {inv.max_stretch} at n={n}"
    return True, "bijection onto the ball, forward max <= 4, inverse max <= 5, even n in 2..16"


def _c02_worked_examples() -> tuple[bool, str]:
    x = BitVector.parse("01100110")
    if mark(x).marked_coordinates() != (2, 3, 4, 5, 7, 8):
        return False, f"marking of {x} got {mark(x).marked_coordinates()}"
    code = chain_code(x)
    if str(code) != "_1100_10":
        return False, f"chain code of {x} got {code}"
    members = [str(m) for m in chain_members(code)]
    if members != ["01100010", "01100110", "11100110"]:
        return False, f"chain members got {members}"
    pos = position(x)
    if (pos.k, pos.j, pos.ell) != (3, 4, 1):
        return False, f"position got {(pos.k, pos.j, pos.ell)}"
    table = metrics.image_table(PSI, 4)
    expected = {
        "1111": "11111",
        "0111": "11110",
        "0011": "01111",
        "0001": "01110",
        "0000": "00111",
    }
    for src, img in expected.items():
        got = format(table[int(src, 2)], "05b")
        if got != img:
            return False, f"image of {src} got {got}, want {img}"
    return True, "marking, chain code, chain members and the five full-chain images match"


def _c03_phi_bounds() -> tuple[bool, str]:
    for n in range(4, 17, 2):
        fwd = metrics.forward_stretch_exhaustive(PHI, n)
        if fwd.max_stretch != 3:
            return False, f"forward max {fwd.max_stretch} != 3 at n={n}"
    avgs = {}
    for n, expected in PHI_INVERSE_AVG.items():
        inv = metrics.inverse_stretch_exhaustive(PHI, n)
        avgs[n] = inv.avg_stretch
        if inv.avg_stretch != expected:
            return False, f"inverse avg {inv.avg_stretch} != pinned {expected} at n={n}"
    devs = [abs(avgs[n] - 2) for n in (8, 12, 16)]
    if not (devs[0] >= devs[1] >= devs[2]):
        return False, f"|avg - 2| not non-increasing: {devs}"
    return True, "forward max = 3 for even n in 4..16; inverse avg matches pins and drifts toward 2"


def _c04_naive_bounds() -> tuple[bool, str]:
    for n in range(4, 17, 2):
        fwd = metrics.forward_stretch_exhaustive(NAIVE, n)
        if fwd.max_stretch != n:
            return False, f"max {fwd.max_stretch} != n at n={n}"
        ratio_sq = fwd.avg_stretch * fwd.avg_stretch / n
        if not NAIVE_RATIO_LO**2 <= ratio_sq <= NAIVE_RATIO_HI**2:
            return False, f"avg/sqrt(n) outside window at n={n}: avg={fwd.avg_stretch}"
    return True, "max = n and avg/sqrt(n) inside the pinned window for even n in 4..16"


def _c05_pairwise_ratios() -> tuple[bool, str]:
    aud = metrics.pairwise_ratio_audit(PSI, 8)
    if aud.pairs != 256 * 255 // 2:
        return False, f"pair count {aud.pairs}"
    if aud.min_ratio < Fraction(1, 5) or aud.max_ratio > 4:
        return False, f"ratios [{aud.min_ratio}, {aud.max_ratio}] escape [1/5, 4]"
    return True, f"all {aud.pairs} pairs inside [1/5, 4]; extremes [{aud.min_ratio}, {aud.max_ratio}]"


def _c06_transitivity() -> tuple[bool, str]:
    n = 8
    fwd = metrics.image_table(PSI, n)
    rng = random.Random(20)
    for trial in range(20):
        xv = fwd[rng.getrandbits(n)]
        yv = fwd[rng.getrandbits(n)]
        while yv == xv:
            yv = fwd[rng.getrandbits(n)]
        aud = metrics.transitivity_ratio_audit(xv, yv, n)
        if not aud.swaps_ok:
            return False, f"trial {trial}: swap property failed"
        if aud.min_ratio < Fraction(1, 20) or aud.max_ratio > 20:
            return False, (
                f"trial {trial}: ratios [{aud.min_ratio}, {aud.max_ratio}] escape [1/20, 20]"
            )
    return True, "20 seeded swaps exchange their endpoints with all pair ratios in [1/20, 20]"


def _c07_counting() -> tuple[bool, str]:
    for n in range(1, 15):
        table = analysis.chain_count_enumerated(n)
        for t in range(1, n + 2):
            if table.entries[t] != analysis.chain_count_formula(n, t):
                return False, f"length {t} count mismatch at n={n}"
        if table.total_vertices() != 1 << n:
            return False, f"sum of t*M_t != 2^n at n={n}"
        hist = analysis.unmarked_profile_histogram(n)
        for a in range(n + 1):
            row = 0
            for b in range(n + 1 - a):
                got = hist.get((a, b), 0)
                row += got
                if (a + b - n) % 2 == 0:
                    if got != analysis.unmarked_profile_count(n, a, b):
                        return False, f"profile ({a},{b}) mismatch at n={n}"
                elif got:
                    return False, f"parity-violating profile ({a},{b}) seen at n={n}"
            if row != analysis.unmarked_zeros_count(n, a):
                return False, f"unmarked-zeros count mismatch at n={n}, a={a}"
    if analysis.chain_count_enumerated(4).nonzero() != {1: 2, 3: 3, 5: 1}:
        return False, "n=4 chain table is not {1:2, 3:3, 5:1}"
    return True, "formulas equal enumeration for all n <= 14; n=4 table is {1:2, 3:3, 5:1}"


def _c08_flip_probabilities() -> tuple[bool, str]:
    for n in range(2, 15, 2):
        for i in range(1, n + 1):
            exact = analysis.flip_probability_exact(n, i)
            stat = analysis.flip_probability_exhaustive(n, i)
            if exact != stat.probability:
                return False, f"exact {exact} != counted {stat.probability} at n={n}, i={i}"
    worst = max(analysis.flip_probability_exact(16, i) for i in range(1, 17))
    if worst > Fraction(1, 2):
        return False, f"probability {worst} above 1/2 at n=16"
    if worst * worst * 16 > FLIP_SCALING_BOUND**2:
        return False, f"max probability * sqrt(16) = {float(worst) * 4:.6f} above pinned bound"
    return True, "closed form equals enumeration for even n <= 14; n=16 scaling under the pinned bound"


def _c09_influence_identity() -> tuple[bool, str]:
    for n in range(2, 13, 2):
        profile = analysis.influence_profile(PSI, n)
        lhs = sum(profile, Fraction(0))
        rhs = n * metrics.forward_stretch_exhaustive(PSI, n).avg_stretch
        if lhs != rhs:
            return False, f"sum of influences {lhs} != n * avg {rhs} at n={n}"
    return True, "per-bit influences sum to n * average stretch, exactly, for even n <= 12"


def _c10_majority_reduction() -> tuple[bool, str]:
    for n in range(1, 14, 2):
        ((xs, full),) = _cube_blocks(n)
        images = _MAPS[PSI].planes(analysis._majority_reduction_planes(xs, full), full)
        lanes = images[3 * n + 1] ^ _majority_lanes(xs, full)  # coordinate 1 against majority
        if lanes:
            return False, f"mismatch at x={BitVector(n, _lowest_lane(lanes))}"
    return True, "majority equals the first output bit of the blown-up input for odd n <= 13"


@lru_cache(maxsize=16)
def _marked_planes(n: int) -> tuple[int, ...]:
    """The public ``mark`` run on every vertex of {0,1}^n, as planes indexed
    by shift like ``chains._cube_blocks``.

    Each vertex's mask, n ASCII digits, is appended to one buffer as it is
    marked, so no ``MarkedString`` outlives its row.  In the reversed buffer,
    plane s is every n-th digit from digit s, lane 0 last.
    """
    spec = f"0{n}b"
    rows = bytearray()
    for v in range(1 << n):
        rows += format(mark(BitVector(n, v)).mask, spec).encode()
    rows.reverse()
    return tuple(int(rows[s::n], 2) for s in range(n))


def _differing_lanes(got: list[int], want: tuple[int, ...]) -> int:
    """The lanes in which two sets of planes differ in some coordinate."""
    lanes = 0
    for g, w in zip(got, want, strict=True):
        lanes |= g ^ w
    return lanes


def _c11_dyck_equivalence() -> tuple[bool, str]:
    for n in range(1, 15):
        ((xs, full),) = _cube_blocks(n)
        covered = analysis._dyck_planes(xs, full)
        marked = _marked_planes(n)
        lanes = _differing_lanes(covered, marked)
        if lanes:
            v = _lowest_lane(lanes)  # the first vertex in enumeration order
            i = next(i for i in range(1, n + 1) if (covered[n - i] ^ marked[n - i]) >> v & 1)
            return False, f"disagreement at x={BitVector(n, v)}, i={i}"
    return True, "balanced-substring criterion equals the marking on every (x, i), n <= 14"


def _c12_marking_order_independence() -> tuple[bool, str]:
    for n in range(1, 15):
        ((xs, full),) = _cube_blocks(n)
        base = _marked_planes(n)
        lanes = _differing_lanes(_reference_planes(xs, full), base)
        lanes |= _differing_lanes(_reference_planes(xs, full, rightmost_first=True), base)
        if lanes:
            x = BitVector(n, _lowest_lane(lanes))
            return False, f"pair-choice order changes the marking of {x}"
    for n in range(1, 13):
        ((xs, full),) = _cube_blocks(n)
        base = _marked_planes(n)
        misses = [  # (first vertex, i) per disagreeing i; a loop over x, then i, meets the least
            (_lowest_lane(lanes), i) for i in range(1, n + 1)
            if (lanes := _differing_lanes(_split_planes(xs, full, i), base))
        ]
        if misses:
            v, i = min(misses)
            return False, f"three-step marking differs at x={BitVector(n, v)}, i={i}"
    return True, "leftmost, rightmost and split marking all agree (n <= 14, split n <= 12)"


def _c13_determinism() -> tuple[bool, str]:
    from . import cli

    verify = ["verify", "--bijection", "psi", "--direction", "fwd", "--n", "10"]
    for mode, extra in (("sample", ["--samples", "5000", "--seed", "7"]), ("exhaustive", [])):
        texts = []
        for _ in range(2):
            buf = io.StringIO()
            code = cli.run([*verify, "--mode", mode, *extra], stdout=buf)
            if code != 0:
                return False, f"{mode} verify exited {code}"
            texts.append(buf.getvalue())
        if texts[0] != texts[1]:
            return False, f"repeated {mode} runs differ"
    return True, "sampled and exhaustive reruns byte-identical"


CRITERIA: tuple[tuple[int, str, Callable[[], tuple[bool, str]]], ...] = (
    (1, "cube-to-ball bijection with bounded stretch", _c01_bijection_and_stretch),
    (2, "worked example regression", _c02_worked_examples),
    (3, "reflection-map stretch bounds", _c03_phi_bounds),
    (4, "baseline-map stretch bounds", _c04_naive_bounds),
    (5, "pairwise distance ratios", _c05_pairwise_ratios),
    (6, "transitive swap distortion", _c06_transitivity),
    (7, "chain and profile counting", _c07_counting),
    (8, "per-bit flip probabilities", _c08_flip_probabilities),
    (9, "influence identity", _c09_influence_identity),
    (10, "majority reduction", _c10_majority_reduction),
    (11, "balanced-substring marking criterion", _c11_dyck_equivalence),
    (12, "marking order independence", _c12_marking_order_independence),
    (13, "determinism", _c13_determinism),
)


def run_criterion(number: int) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            try:
                passed, detail = fn()
            except Exception as exc:  # a crashed check is a failed check
                passed, detail = False, f"{type(exc).__name__}: {exc}"
            return CriterionResult(number=num, name=name, passed=passed, detail=detail)
    raise ValueError(f"no criterion {number}")


def run_all() -> list[CriterionResult]:
    return [run_criterion(num) for num, _, _ in CRITERIA]
