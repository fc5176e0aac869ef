import math
import random
import tracemalloc
from array import array
from collections import Counter
from fractions import Fraction
from itertools import combinations, repeat
from math import comb

import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball.bits import DEFAULT_ENUMERATION_CAP, BitVector, EdgeId, distance
from cubeball.bijections import (
    _MAPS,
    BijectionKind,
    _naive_value,
    _phi_value,
    _psi_value,
    forward_map,
    inverse_map,
)
from cubeball.errors import (
    BijectivityError,
    DimensionError,
    EnumerationCapError,
    LengthMismatchError,
    NotInBallError,
    OddLengthError,
)
from cubeball import analysis, chains, metrics

PSI = BijectionKind.PSI
PHI = BijectionKind.PHI
NAIVE = BijectionKind.NAIVE

# each map's integer form, read by name: _MAPS holds no field for it
VALUE = {PSI: _psi_value, PHI: _phi_value, NAIVE: _naive_value}


def _forward_oracle(kind, n):
    """Independent brute-force max/average over the public vector API."""
    fwd = forward_map(kind)
    total = 0
    best = 0
    for value in range(1 << n):
        x = BitVector(n, value)
        fx = fwd(x).vector
        for i in range(1, n + 1):
            d = distance(fx, fwd(x.flip_at(i)).vector)
            total += d
            best = max(best, d)
    return best, Fraction(total, n << n)


def _inverse_oracle(kind, n):
    inv = inverse_map(kind)
    ball = [z for z in range(1 << (n + 1)) if 2 * z.bit_count() > n]
    total = 0
    best = 0
    edges = 0
    members = set(ball)
    for zv in ball:
        z = BitVector(n + 1, zv)
        iz = inv(z)
        for i in range(1, n + 2):
            other = zv ^ (1 << (n + 1 - i))
            if other not in members:
                continue
            d = distance(iz, inv(BitVector(n + 1, other)))
            total += d
            edges += 1
            best = max(best, d)
    return best, Fraction(total, edges)


def _scalar_edge_sweep(table, m, width):
    """Reference for metrics._edge_sweep: the same sweep, one edge at a time.

    Visits each edge of the kept points' induced subgraph from its endpoint
    with the 0 bit, in order of that endpoint and then coordinate 1..m, and
    keeps the first edge of maximal distance.
    """
    best = -1
    bw = (0, 1)
    total = 0
    edges = 0
    xors = Counter()
    for z in range(1 << m):
        tz = table[z]
        if tz < 0:
            continue
        edges += m - z.bit_count()
        for s in range(m - 1, -1, -1):
            bit = 1 << s
            if not z & bit:
                x = tz ^ table[z | bit]
                xors[x] += 1
                d = x.bit_count()
                total += d
                if d > best:
                    best = d
                    bw = (z, m - s)
    counts = [sum(c for x, c in xors.items() if x >> t & 1) for t in range(width)]
    return best, bw, total, counts, edges


def _table_blocks(table, m, width, low):
    """The blocks that ``metrics._edge_sweep`` reads, from a table over
    {0,1}^m whose points outside the kept set hold -1: ``(planes, kept)``
    per 2^low points, cut from the table's planes."""
    # each entry as width + 1 binary digits, last entry first; the -1s are all 1s
    rows = [format(v & ((2 << width) - 1), f"0{width + 1}b") for v in reversed(table)]
    planes = [int("".join(col), 2) for col in reversed(list(zip(*rows)))]
    # kept entries are below 2^width, so bit ``width`` is set only in the -1s
    planes.append(((1 << (1 << m)) - 1) ^ planes.pop())
    full = (1 << (1 << low)) - 1
    blocks = []
    for start in range(0, 1 << m, 1 << low):
        *cut, kept = [p >> start & full for p in planes]
        blocks.append((cut, kept))
    return blocks


def _assert_sweeps_agree(table, m, width, low):
    best, bw, total, _, edges = _scalar_edge_sweep(table, m, width)
    assert metrics._edge_sweep(_table_blocks(table, m, width, low), m) == (best, bw, total, edges)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", range(2, 15, 2))
def test_edge_sweep_matches_scalar_sweep_on_map_tables(kind, n):
    _assert_sweeps_agree(metrics.image_table(kind, n), n, n + 1, n)
    _assert_sweeps_agree(metrics.preimage_table(kind, n), n + 1, n, n + 1)


def _swap_table(n, delta):
    """The swap map z -> psi(psi^-1(z) ^ delta) as a table over {0,1}^(n+1),
    -1 outside the ball, one entry at a time."""
    fwd = metrics.image_table(PSI, n)
    return array("i", [-1 if p < 0 else fwd[p ^ delta] for p in metrics.preimage_table(PSI, n)])


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_edge_sweep_matches_scalar_sweep_on_swap_tables(n):
    rng = random.Random(100 + n)
    for _ in range(6):
        _assert_sweeps_agree(_swap_table(n, rng.randrange(1, 1 << n)), n + 1, n + 1, n + 1)


@st.composite
def _sweep_tables(draw):
    """A table over {0,1}^m for m <= 8 that keeps an up-set of points, and
    a block width 2^low with 0 <= low <= m.

    The kept points hold values from a palette of at most four, so many
    edges tie at the largest distance; -1 marks the points left out.
    """
    m = draw(st.integers(1, 8))
    low = draw(st.integers(0, m))
    width = draw(st.integers(1, 30))
    palette = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=4))
    gens = draw(st.lists(st.integers(0, (1 << m) - 1), max_size=3))
    if draw(st.booleans()):
        gens.append(0)  # keep every point
    values = draw(st.lists(st.sampled_from(palette), min_size=1 << m, max_size=1 << m))
    table = array("i", [
        v if any(z & g == g for g in gens) else -1 for z, v in enumerate(values)
    ])
    return table, m, width, low


@given(_sweep_tables())
def test_edge_sweep_matches_scalar_sweep_on_arbitrary_tables(case):
    _assert_sweeps_agree(*case)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", range(2, 17, 2))
def test_image_table_matches_scalar_map(kind, n):
    want = array("i", map(VALUE[kind], repeat(n), range(1 << n)))
    assert metrics.image_table(kind, n) == want


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_image_table_matches_scalar_map_across_blocks(monkeypatch, fresh_tables, kind):
    # blocks of 8 vertices: every table from n = 4 on is built in several
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    for n in range(2, 11, 2):
        want = array("i", map(VALUE[kind], repeat(n), range(1 << n)))
        assert metrics.image_table(kind, n) == want


@pytest.fixture
def fresh_tables():
    metrics.image_table.cache_clear()
    yield
    metrics.image_table.cache_clear()


@pytest.mark.parametrize(
    "image_of_5,message",
    [
        # psi(0000) = 00111, so vertex 5 collides with vertex 0
        (0b00111, "psi collides at image 00111"),
        # 00011 has weight n/2 = 2, just outside the ball
        (0b00011, "psi image does not match the ball at 00011"),
    ],
    ids=["collision", "outside-ball"],
)
def test_preimage_table_rejects_a_map_that_is_not_a_bijection(
    fresh_tables, monkeypatch, image_of_5, message
):
    faulty = array("i", metrics.image_table(PSI, 4))
    faulty[5] = image_of_5
    monkeypatch.setattr(metrics, "image_table", lambda kind, n: faulty)
    with pytest.raises(BijectivityError, match=f"^{message}$"):
        metrics.preimage_table(PSI, 4)


def _checked_preimage_table(kind, n, fwd):
    """Reference for ``preimage_table``: the scatter with a check on every
    entry, then a scan of {0,1}^(n+1) against the ball, point by point."""
    inv = array("i", [-1]) * (1 << (n + 1))
    for v, z in enumerate(fwd):
        if inv[z] != -1:
            raise BijectivityError(f"{kind.value} collides at image {z:0{n + 1}b}")
        inv[z] = v
    for z in range(1 << (n + 1)):
        if (2 * z.bit_count() > n) != (inv[z] >= 0):
            raise BijectivityError(f"{kind.value} image does not match the ball at {z:0{n + 1}b}")
    return inv


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", range(2, 17, 2))
def test_preimage_table_matches_checked_scatter(kind, n):
    want = _checked_preimage_table(kind, n, metrics.image_table(kind, n))
    assert metrics.preimage_table(kind, n).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_preimage_table_matches_checked_scatter_across_blocks(monkeypatch, fresh_tables, kind):
    # blocks of 8 vertices: the image table is transposed from several
    # blocks of planes; preimage_table then reads only that table
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    for n in range(2, 11, 2):
        want = _checked_preimage_table(kind, n, metrics.image_table(kind, n))
        assert metrics.preimage_table(kind, n).tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "faults,message",
    [
        # vertex 3 leaves the ball before vertex 5 collides with vertex 0
        ({3: 0b00011, 5: 0b00111}, "psi collides at image 00111"),
        # the collision comes first in vertex order, the smaller point later
        ({2: 0b01111, 9: 0b00011}, "psi collides at image 01111"),
        # two vertices collide outside the ball
        ({5: 0b00011, 6: 0b00011}, "psi collides at image 00011"),
        # two images leave the ball: the smaller point is named
        ({5: 0b01010, 6: 0b00011}, "psi image does not match the ball at 00011"),
        # 01100 gains a preimage and 11010 loses one: the smaller point is named
        ({5: 0b01100}, "psi image does not match the ball at 01100"),
    ],
    ids=["outside-then-collision", "collision-then-outside", "collision-outside",
         "two-outside", "outside-second-block"],
)
def test_preimage_table_names_the_fault_as_the_checked_scatter_does(
    fresh_tables, monkeypatch, faults, message
):
    faulty = array("i", metrics.image_table(PSI, 4))
    for v, z in faults.items():
        faulty[v] = z
    with pytest.raises(BijectivityError, match=f"^{message}$"):
        _checked_preimage_table(PSI, 4, faulty)
    monkeypatch.setattr(metrics, "image_table", lambda kind, n: faulty)
    with pytest.raises(BijectivityError, match=f"^{message}$"):
        metrics.preimage_table(PSI, 4)


def test_preimage_table_counts_a_collision_that_keeps_the_ball_weight(fresh_tables, monkeypatch):
    # vertex 3's image 01111 becomes vertex 7's 11110, of the same weight: the
    # images still weigh as much as the ball, so only the count of entries
    # left at -1 sees the collision
    fwd = metrics.image_table(PSI, 4)
    faulty = array("i", fwd)
    faulty[3] = faulty[7]
    assert sum(z.bit_count() for z in faulty) == sum(z.bit_count() for z in fwd)
    monkeypatch.setattr(metrics, "image_table", lambda kind, n: faulty)
    with pytest.raises(BijectivityError, match="^psi collides at image 11110$"):
        metrics.preimage_table(PSI, 4)


def test_preimage_table_accepts_two_vertices_that_exchange_images(fresh_tables, monkeypatch):
    faulty = array("i", metrics.image_table(PSI, 4))
    faulty[3], faulty[12] = faulty[12], faulty[3]
    want = _checked_preimage_table(PSI, 4, faulty)
    assert want != metrics.preimage_table(PSI, 4)
    monkeypatch.setattr(metrics, "image_table", lambda kind, n: faulty)
    assert metrics.preimage_table(PSI, 4).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_preimage_table_reads_no_planes(fresh_tables, monkeypatch, kind):
    fwd = metrics.image_table(kind, 8)  # built and cached while the planes still work

    def planes(*args):
        raise AssertionError("preimage_table read bit planes")

    for module in (chains, metrics):
        monkeypatch.setattr(module, "_cube_blocks", planes)
        monkeypatch.setattr(module, "_majority_lanes", planes)
    want = _checked_preimage_table(kind, 8, fwd)
    assert metrics.preimage_table(kind, 8).tobytes() == want.tobytes()


def test_preimage_table_names_the_fault_for_a_kind_given_by_name(fresh_tables, monkeypatch):
    faulty = array("i", metrics.image_table(PSI, 4))
    faulty[5] = 0b00011
    monkeypatch.setattr(metrics, "image_table", lambda kind, n: faulty)
    with pytest.raises(BijectivityError, match="^psi image does not match the ball at 00011$"):
        metrics.preimage_table("psi", 4)


@pytest.mark.parametrize("n", range(2, 21, 2))
def test_preimage_table_takes_the_ball_weight_in_closed_form(fresh_tables, monkeypatch, n):
    # an image table that lists the ball point by point, in order, so the
    # images weigh what the ball does exactly when the closed form is right
    ball = array("i", (z for z in range(2 << n) if 2 * z.bit_count() > n))
    monkeypatch.setattr(metrics, "image_table", lambda kind, m: ball)
    inv = metrics.preimage_table(PSI, n)
    assert all(inv[z] == v for v, z in enumerate(ball))


def _assert_inverse_planes_match_scalar_inverse(kind, n):
    """The inverse plane rule, block by block over {0,1}^(n+1), against the
    public inverse at every ball point."""
    inverse = _MAPS[kind].inverse
    rule = _MAPS[kind].inverse_planes
    z = 0
    for zs, full in chains._cube_blocks(n + 1):
        back = rule(zs, full)
        assert len(back) == n
        for r in range(full.bit_length()):
            if 2 * z.bit_count() > n:
                got = sum((p >> r & 1) << t for t, p in enumerate(back))
                assert got == inverse(BitVector(n + 1, z)).value, (n, z)
            z += 1
    assert z == 1 << (n + 1)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", range(2, 15, 2))
def test_inverse_planes_match_scalar_inverse_on_the_ball(kind, n):
    _assert_inverse_planes_match_scalar_inverse(kind, n)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_inverse_planes_match_scalar_inverse_across_blocks(monkeypatch, kind):
    # blocks of 8 points: every ball from n = 2 on spans several
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    for n in range(2, 11, 2):
        _assert_inverse_planes_match_scalar_inverse(kind, n)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", range(2, 15, 2))
def test_exhaustive_sweeps_equal_scalar_sweeps_over_the_tables(monkeypatch, kind, n):
    """The planes-first sweeps give what the one-edge-at-a-time sweep gives
    over the image and preimage tables: max, witness, distance total, edges.
    The influence profile gives twice the scalar sweep's per-bit counts."""
    seen = []
    real = metrics._edge_sweep
    monkeypatch.setattr(metrics, "_edge_sweep", lambda *args: seen.append(real(*args)) or seen[-1])
    fwd = metrics.forward_stretch_exhaustive(kind, n)
    inv = metrics.inverse_stretch_exhaustive(kind, n)
    cases = [(fwd, metrics.image_table(kind, n), n, n + 1),
             (inv, metrics.preimage_table(kind, n), n + 1, n)]
    assert len(seen) == 2
    want = [_scalar_edge_sweep(table, m, width) for _, table, m, width in cases]
    for (report, _, m, _), got, (best, witness, total, _, edges) in zip(cases, seen, want):
        assert got == (best, witness, total, edges)
        z, i = witness
        assert report.max_witness == EdgeId(BitVector(m, z), i)
        assert (report.max_stretch, report.avg_stretch, report.edges_considered) == (
            best, Fraction(total, edges), edges)
    counts = want[0][3]  # the forward sweep's per-bit counts, by output shift
    assert analysis.influence_profile(kind, n) == tuple(
        Fraction(2 * counts[n + 1 - i], 1 << n) for i in range(1, n + 2))


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_exhaustive_sweeps_match_across_blocks(monkeypatch, kind):
    # blocks of 8 points, so the planes join from many blocks in both directions
    def reports():
        return [(metrics.forward_stretch_exhaustive(kind, n).to_record(),
                 metrics.inverse_stretch_exhaustive(kind, n).to_record(),
                 analysis.influence_profile(kind, n)) for n in range(2, 11, 2)]

    want = reports()
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    assert reports() == want


def test_swap_audit_and_flip_counts_match_across_blocks(monkeypatch):
    # blocks of 8 points: the swap map's ball edges and the flip counts span many blocks
    rng = random.Random(21)
    cases = []
    for n in range(4, 11, 2):
        ball = sorted(metrics.image_table(PSI, n))
        cases += [(n, *rng.sample(ball, 2)) for _ in range(3)]

    def reports():
        analysis._flip_counts.cache_clear()
        return ([metrics.transitivity_ratio_audit(x, y, n) for n, x, y in cases],
                [analysis.flip_probability_exhaustive(n, i)
                 for n in range(4, 11, 2) for i in range(1, n + 1)])

    monkeypatch.setattr(chains, "_BLOCK_BITS", 16)
    want = reports()
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    assert reports() == want
    analysis._flip_counts.cache_clear()


def _send_vertex(rule, v, image):
    """A forward plane rule that gives vertex ``v`` the image ``image``."""

    def faulty(xs, full):
        lane = chains._equal(xs, v, full)
        return [p & ~lane | (lane if image >> t & 1 else 0)
                for t, p in enumerate(rule(xs, full))]

    return faulty


def _miss_point(rule, z):
    """An inverse plane rule that is wrong in the lanes of point ``z`` only."""

    def faulty(zs, full):
        back = rule(zs, full)
        back[0] ^= chains._equal(zs, z, full)
        return back

    return faulty


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize(
    "fault",
    [
        # vertex 100101 collides with vertex 0
        "collision",
        # 0000111 has weight n/2 = 3, just outside the ball
        "outside-ball",
        "inverse",
    ],
)
def test_inverse_sweep_proof_rejects_a_faulty_rule(monkeypatch, block_bits, fault):
    # Each fault breaks psi(100101) = 1011010 only: the forward rule sends
    # the inverse rule's 100101 elsewhere, or the inverse rule misses it.
    # With blocks of 8 points, 1011010 = 90 sits in the twelfth block.
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    n, v = 6, 0b100101
    rules = _MAPS[PSI]
    if fault == "inverse":
        faulty = rules._replace(
            inverse_planes=_miss_point(rules.inverse_planes, _psi_value(n, v)))
    else:
        image = _psi_value(n, 0) if fault == "collision" else 0b0000111
        faulty = rules._replace(planes=_send_vertex(rules.planes, v, image))
    monkeypatch.setitem(_MAPS, PSI, faulty)
    with pytest.raises(BijectivityError, match="^psi does not give back ball point 1011010$"):
        metrics.inverse_stretch_exhaustive(PSI, n)


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize("fault", ["collision", "inverse"])
def test_inverse_sweep_proof_pads_the_ball_point_it_names(monkeypatch, block_bits, fault):
    # psi(000101) = 0111010 starts with 0, so the message shows all n + 1 digits
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    n, v = 6, 0b000101
    rules = _MAPS[PSI]
    if fault == "inverse":
        faulty = rules._replace(
            inverse_planes=_miss_point(rules.inverse_planes, _psi_value(n, v)))
    else:
        faulty = rules._replace(planes=_send_vertex(rules.planes, v, _psi_value(n, 0)))
    monkeypatch.setitem(_MAPS, PSI, faulty)
    with pytest.raises(BijectivityError, match="^psi does not give back ball point 0111010$"):
        metrics.inverse_stretch_exhaustive(PSI, n)


@pytest.mark.parametrize("block_bits", [3, 16])
@pytest.mark.parametrize(
    "points,message",
    [
        # with blocks of 8 points, 1011010 is held complemented in the fifth
        # block and 0111010 as itself in the eighth
        ((0b1011010, 0b0111010), "0111010"),
        # 1110010 is held complemented in the second block, 1011010 in the fifth
        ((0b1110010, 0b1011010), "1011010"),
    ],
    ids=["complemented-then-native", "two-complemented"],
)
def test_inverse_sweep_proof_names_the_least_of_two_failing_ball_points(
    monkeypatch, block_bits, points, message
):
    # the least failing point in z order, as a scan of the ball in z order names it
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    rules = _MAPS[PSI]
    rule = rules.inverse_planes
    for z in points:
        rule = _miss_point(rule, z)
    monkeypatch.setitem(_MAPS, PSI, rules._replace(inverse_planes=rule))
    with pytest.raises(BijectivityError, match=f"^psi does not give back ball point {message}$"):
        metrics.inverse_stretch_exhaustive(PSI, 6)


def test_transitivity_audit_proves_the_inverse_rule_first(monkeypatch):
    # the swap map reads the inverse plane rule, so a rule wrong in one lane must stop it
    n, v = 6, 0b100101
    rules = _MAPS[PSI]
    faulty = rules._replace(
        inverse_planes=_miss_point(rules.inverse_planes, _psi_value(n, v)))
    monkeypatch.setitem(_MAPS, PSI, faulty)
    message = "^psi does not give back ball point 1011010$"
    with pytest.raises(BijectivityError, match=message):
        metrics.transitivity_ratio_audit(0b1111111, 0b0111111, n)


def test_inverse_sweep_and_swap_audit_run_the_inverse_rule_once_per_block(monkeypatch):
    # blocks of 8 points: 8 cover {0,1}^6, and 8 hold the ball of {0,1}^7
    monkeypatch.setattr(chains, "_BLOCK_BITS", 3)
    rules = _MAPS[PSI]
    forward_inputs, inverse_outputs = [], []

    def planes(xs, full):
        forward_inputs.append(list(xs))
        return rules.planes(xs, full)

    def inverse_planes(zs, full):
        inverse_outputs.append(rules.inverse_planes(zs, full))
        return list(inverse_outputs[-1])

    monkeypatch.setitem(
        _MAPS, PSI, rules._replace(planes=planes, inverse_planes=inverse_planes))
    metrics.inverse_stretch_exhaustive(PSI, 6)
    # the forward rule reads the inverse rule's planes only, never a block of {0,1}^6
    assert (len(forward_inputs), len(inverse_outputs)) == (8, 8)
    assert forward_inputs == inverse_outputs
    forward_inputs.clear()
    inverse_outputs.clear()
    metrics.transitivity_ratio_audit(0b1111111, 0b0111111, 6)
    # 8 to prove the inverse planes, then 8 for the swap map's planes
    assert (len(forward_inputs), len(inverse_outputs)) == (16, 8)
    assert forward_inputs[:8] == inverse_outputs


def test_reversal_table_mirrors_every_byte():
    assert list(metrics._REVERSE) == [int(f"{v:08b}"[::-1], 2) for v in range(256)]


def _lane_values(planes, lanes):
    """Lane r of ``planes`` as an integer, for r below ``lanes``."""
    table = array("i", [0]) * lanes
    chains._set_planes(table, 0, planes, lanes)
    return table


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", range(2, 17, 2))
def test_packed_blocks_hold_each_ball_point_once_with_its_preimage(monkeypatch, kind, n):
    # Packing leaves no lane outside the ball, so a rule's values there can
    # change nothing: this is the check that the inverse rule is run on the
    # ball and nothing else.  Lane r of block k holds point v = k 2^width + r
    # where v is in the ball, and the complement of v in {0,1}^(n+1) where not.
    inv = metrics.preimage_table(kind, n)
    rules = _MAPS[kind]
    for block_bits in (3, 16):
        monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
        inputs = []

        def inverse_planes(zs, full):
            inputs.append((zs, full.bit_length()))
            return rules.inverse_planes(zs, full)

        monkeypatch.setitem(_MAPS, kind, rules._replace(inverse_planes=inverse_planes))
        seen = []
        for (zs, lanes), (back, kept) in zip(inputs, metrics._preimage_blocks(kind, n), strict=True):
            points = _lane_values(zs, lanes)
            for r, x in enumerate(_lane_values(back, lanes)):
                v = len(seen)
                assert points[r] == (v if kept >> r & 1 else v ^ ((2 << n) - 1)), (n, v)
                assert x == inv[points[r]], (n, v)
                seen.append(points[r])
        assert sorted(seen) == [z for z, x in enumerate(inv) if x >= 0]


def _checked_rule(rule, name, calls):
    """``rule``, recording ``(name, full)`` per call and checking that every
    plane it returns lies in [0, full]."""

    def checked(planes, full):
        calls.add((name, full))
        out = rule(planes, full)
        assert all(0 <= p <= full for p in out), (name, full)
        return out

    return checked


@pytest.mark.parametrize("block_bits", [3, 16])
def test_plane_rules_get_their_blocks_full_and_return_planes_within_it(monkeypatch, block_bits):
    monkeypatch.setattr(chains, "_BLOCK_BITS", block_bits)
    calls = set()
    for kind in (PSI, PHI, NAIVE):
        rules = _MAPS[kind]
        monkeypatch.setitem(_MAPS, kind, rules._replace(
            planes=_checked_rule(rules.planes, "forward", calls),
            inverse_planes=_checked_rule(rules.inverse_planes, "inverse", calls)))

    def full(m):  # every lane of a block of {0,1}^m
        return (1 << (1 << min(m, block_bits))) - 1

    for n in (2, 4, 6, 8):
        for kind in (PSI, PHI, NAIVE):
            calls.clear()
            metrics.forward_stretch_exhaustive(kind, n)
            assert calls == {("forward", full(n))}
            calls.clear()
            metrics.inverse_stretch_exhaustive(kind, n)
            assert calls == {("forward", full(n)), ("inverse", full(n))}
        calls.clear()
        top = (1 << (n + 1)) - 1
        metrics.transitivity_ratio_audit(top, top ^ 1, n)
        assert calls == {("forward", full(n)), ("inverse", full(n))}


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_forward_sweep_matches_bruteforce_oracle(kind, n):
    report = metrics.forward_stretch_exhaustive(kind, n)
    best, avg = _forward_oracle(kind, n)
    assert report.max_stretch == best
    assert report.avg_stretch == avg
    assert report.edges_considered == n << (n - 1)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", [2, 4, 6])
def test_inverse_sweep_matches_bruteforce_oracle(kind, n):
    report = metrics.inverse_stretch_exhaustive(kind, n)
    best, avg = _inverse_oracle(kind, n)
    assert report.max_stretch == best
    assert report.avg_stretch == avg


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_psi_stretch_bounds(n):
    assert metrics.forward_stretch_exhaustive(PSI, n).max_stretch <= 4
    inv = metrics.inverse_stretch_exhaustive(PSI, n)
    assert inv.max_stretch <= 5
    assert inv.avg_stretch >= 1  # distinct preimages of distinct points


def test_phi_max_stretch_is_three_at_n8():
    assert metrics.forward_stretch_exhaustive(PHI, 8).max_stretch == 3


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_naive_max_is_n_and_avg_closed_form(n):
    report = metrics.forward_stretch_exhaustive(NAIVE, n)
    assert report.max_stretch == n
    # only equator-crossing edges stretch (to n); all others keep distance 1
    assert report.avg_stretch == 1 + Fraction((n - 1) * comb(n, n // 2), 1 << n)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_every_bijection_stretches_some_edge_by_two(kind, n):
    assert metrics.forward_stretch_exhaustive(kind, n).max_stretch >= 2


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_witness_realizes_max_stretch(kind):
    n = 8
    report = metrics.forward_stretch_exhaustive(kind, n)
    e = report.max_witness
    fwd = forward_map(kind)
    assert (
        distance(fwd(e.vertex).vector, fwd(e.other_endpoint()).vector)
        == report.max_stretch
    )
    inv_report = metrics.inverse_stretch_exhaustive(kind, n)
    w = inv_report.max_witness
    inv = inverse_map(kind)
    assert (
        distance(inv(w.vertex), inv(w.other_endpoint())) == inv_report.max_stretch
    )


@pytest.mark.parametrize("n", [0, -2])
@pytest.mark.parametrize(
    "entry",
    [
        lambda n: metrics.forward_stretch_exhaustive(PSI, n),
        lambda n: metrics.inverse_stretch_exhaustive(PSI, n),
        lambda n: metrics.forward_stretch_sampled(PSI, n, 10, 1),
        lambda n: metrics.pairwise_ratio_audit(PSI, n),
        lambda n: analysis.influence_profile(PSI, n),
        lambda n: analysis.chain_count_enumerated(n),
        lambda n: analysis.unmarked_profile_histogram(n),
        lambda n: analysis.unmarked_profile_count(n, 0, 0),
        lambda n: analysis.unmarked_zeros_count(n, 0),
        lambda n: analysis.flip_probability_exact(n, 1),
        lambda n: analysis.flip_probability_exhaustive(n, 1),
    ],
    ids=["forward", "inverse", "sampled", "pairwise", "influence", "chains", "histogram",
         "profile", "zeros", "flip-exact", "flip-exhaustive"],
)
def test_entry_points_reject_dimension_below_two(entry, n):
    with pytest.raises(DimensionError):
        entry(n)


def test_sampled_is_deterministic_per_seed():
    a = metrics.forward_stretch_sampled(PSI, 10, 2000, 7)
    b = metrics.forward_stretch_sampled(PSI, 10, 2000, 7)
    assert a == b
    c = metrics.forward_stretch_sampled(PSI, 10, 2000, 8)
    assert c != a


def test_sampled_refuses_no_samples():
    with pytest.raises(ValueError, match="^samples must be >= 1, got 0$"):
        metrics.forward_stretch_sampled(PSI, 64, 0, 5)


def test_sampled_refuses_a_negative_seed():
    # random.Random(-5) draws the stream of random.Random(5)
    with pytest.raises(ValueError, match="explicit seed >= 0"):
        metrics.forward_stretch_sampled(PSI, 64, 50, -5)


def _sampled_by_map_evaluation(kind, n, samples, seed):
    """The per-draw loop that evaluates the map on both endpoints of each
    draw: the oracle for the sampled sweep's profile rule."""
    rng = random.Random(seed)
    f = VALUE[kind]
    best, witness, total, total_sq = -1, (0, 1), 0, 0
    for _ in range(samples):
        v = rng.getrandbits(n)
        i = rng.randrange(n) + 1
        d = (f(n, v) ^ f(n, v ^ (1 << (n - i)))).bit_count()
        total += d
        total_sq += d * d
        if d > best:
            best, witness = d, (v, i)
    avg = Fraction(total, samples)
    return metrics.StretchReport(
        kind=kind,
        direction=metrics.Direction.FORWARD,
        n=n,
        mode=metrics.SweepMode.SAMPLED,
        max_stretch=best,
        max_witness=EdgeId(BitVector(n, witness[0]), witness[1]),
        avg_stretch=avg,
        edges_considered=samples,
        averaging="uniform (x,i) draws",
        samples=samples,
        seed=seed,
        sample_variance=Fraction(total_sq, samples) - avg * avg,
    )


@pytest.mark.parametrize("seed", [0, 1, 5])
@pytest.mark.parametrize("n", [22, 64, 1024, 1026])
@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_sampled_report_equals_map_evaluation(kind, n, seed):
    # n > 20 takes the per-draw branch: profiles and the edge-distance rule
    want = _sampled_by_map_evaluation(kind, n, 300, seed).to_record()
    assert metrics.forward_stretch_sampled(kind, n, 300, seed).to_record() == want


@pytest.mark.parametrize(
    "n,samples,builds",
    [(20, 10, 0), (16, 500, 0), (16, 1023, 0), (10, 15, 0),
     # 64 entries per draw: past the line, so no table
     (16, 1024, 0), (10, 16, 0),
     # the line: at most 16 entries per draw
     (16, 4095, 0), (16, 4096, 1), (10, 63, 0), (10, 64, 1),
     (10, 5000, 1)],  # criterion 13 draws 5000 at n = 10
)
@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
def test_sampled_builds_the_table_only_at_64_vertices_per_draw_or_fewer(
    monkeypatch, kind, n, samples, builds
):
    """The table is built only at 16 entries per draw or fewer, within the name's 64."""
    calls = []
    real = metrics.image_table
    monkeypatch.setattr(metrics, "image_table", lambda *args: calls.append(args) or real(*args))
    got = metrics.forward_stretch_sampled(kind, n, samples, 3).to_record()
    assert len(calls) == builds
    assert got == _sampled_by_map_evaluation(kind, n, samples, 3).to_record()


def test_sampled_estimate_converges_to_exhaustive():
    n = 12
    exact = metrics.forward_stretch_exhaustive(PSI, n).avg_stretch
    report = metrics.forward_stretch_sampled(PSI, n, 1_000_000, 7)
    stderr = math.sqrt(float(report.sample_variance) / report.samples)
    assert abs(float(report.avg_stretch - exact)) <= 3 * stderr


def test_sampled_respects_termwise_bound_at_large_n():
    report = metrics.forward_stretch_sampled(PSI, 1000, 300, 7)
    assert report.max_stretch <= 4
    assert report.avg_stretch <= 4


@pytest.mark.parametrize("n", [64, 256, 1024])
def test_naive_sampled_average_scales_like_sqrt_n(n):
    report = metrics.forward_stretch_sampled(NAIVE, n, 100_000, 11)
    ratio = float(report.avg_stretch) / math.sqrt(n)
    assert 0.3 <= ratio <= 3


def _pair_ratio_oracle(images):
    """(pairs, min, max) of image/source distance ratios, pair by pair.

    ``images`` maps each source point to its image, both as integers.
    """
    points = sorted(images)
    seen = {
        ((images[a] ^ images[b]).bit_count(), (a ^ b).bit_count())
        for i, a in enumerate(points)
        for b in points[i + 1 :]
    }
    ratios = [Fraction(di, ds) for di, ds in seen]
    return len(points) * (len(points) - 1) // 2, min(ratios), max(ratios)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_pairwise_audit_matches_bruteforce_oracle(kind, n):
    fwd = forward_map(kind)
    images = {v: fwd(BitVector(n, v)).vector.value for v in range(1 << n)}
    aud = metrics.pairwise_ratio_audit(kind, n)
    assert (aud.pairs, aud.min_ratio, aud.max_ratio) == _pair_ratio_oracle(images)


@pytest.mark.parametrize("n", [4, 6, 8])
def test_transitivity_audit_matches_bruteforce_oracle(n):
    from cubeball.bijections import BallVector, transitivity_map

    ball = [BallVector(BitVector(n + 1, z)) for z in range(1 << (n + 1))
            if 2 * z.bit_count() > n]
    rng = random.Random(n)
    for _ in range(7):
        x, y = rng.sample(ball, 2)
        images = {z.vector.value: transitivity_map(x, y, z).vector.value for z in ball}
        aud = metrics.transitivity_ratio_audit(x.vector, y.vector, n)
        assert aud.swaps_ok
        assert (aud.pairs, aud.min_ratio, aud.max_ratio) == _pair_ratio_oracle(images)


def test_pairwise_audit_n4_regression():
    aud = metrics.pairwise_ratio_audit(PSI, 4)
    assert aud.pairs == 16 * 15 // 2
    assert aud.min_ratio == Fraction(1, 3)
    assert aud.max_ratio == Fraction(4)


@pytest.mark.parametrize("kind", [PSI, PHI, NAIVE])
@pytest.mark.parametrize("n", [4, 8])
def test_pairwise_witnesses_attain_their_ratios(kind, n):
    aud = metrics.pairwise_ratio_audit(kind, n)
    fwd = forward_map(kind)
    for pair, ratio in ((aud.min_witness, aud.min_ratio), (aud.max_witness, aud.max_ratio)):
        x, y = pair
        assert Fraction(
            distance(fwd(x).vector, fwd(y).vector), distance(x, y)
        ) == ratio
    # the max witness is a cube edge; the min witness maps onto a ball edge
    assert distance(*aud.max_witness) == 1
    assert distance(*(fwd(x).vector for x in aud.min_witness)) == 1


def test_pairwise_audit_n8_bounds():
    aud = metrics.pairwise_ratio_audit(PSI, 8)
    assert aud.min_ratio >= Fraction(1, 5)
    assert aud.max_ratio <= 4


def test_transitivity_audit_swaps():
    fwd = metrics.image_table(PSI, 6)
    aud = metrics.transitivity_ratio_audit(fwd[5], fwd[40], 6)
    assert aud.swaps_ok
    assert aud.min_ratio > 0
    assert aud.max_ratio >= aud.min_ratio
    # endpoints that are not points of {0,1}^7 never index a table
    for bad, error in ((-1, NotInBallError), (1 << 7, NotInBallError),
                       (BitVector(5, 0b11111), LengthMismatchError)):
        with pytest.raises(error):
            metrics.transitivity_ratio_audit(bad, fwd[40], 6)
        with pytest.raises(error):
            metrics.transitivity_ratio_audit(fwd[5], bad, 6)


@pytest.mark.parametrize("n,extreme", [(4, 4), (6, 6)])
def test_every_swap_at_small_n(n, extreme):
    points = sorted(metrics.image_table(PSI, n))  # the 2^n points of the ball
    audits = [metrics.transitivity_ratio_audit(x, y, n) for x, y in combinations(points, 2)]
    assert len(audits) == comb(1 << n, 2)  # 120 and 2016 pairs
    assert all(aud.swaps_ok for aud in audits)
    assert min(aud.min_ratio for aud in audits) == Fraction(1, extreme)
    assert max(aud.max_ratio for aud in audits) == extreme


def test_transitivity_audit_agrees_with_public_map():
    from cubeball.bijections import BallVector, transitivity_map

    n = 6
    fwd = metrics.image_table(PSI, n)
    inv = metrics.preimage_table(PSI, n)
    x = BallVector(BitVector(n + 1, fwd[5]))
    y = BallVector(BitVector(n + 1, fwd[40]))
    delta = inv[fwd[5]] ^ inv[fwd[40]]
    for zv in (fwd[0], fwd[17], fwd[63]):
        z = BallVector(BitVector(n + 1, zv))
        assert transitivity_map(x, y, z).vector.value == fwd[inv[zv] ^ delta]


def _table_swap_audit(x, y, n):
    """Reference for ``transitivity_ratio_audit``: the swap map as a table,
    transposed into planes and swept."""
    m = n + 1
    inv = metrics.preimage_table(PSI, n)
    swap = _swap_table(n, inv[x] ^ inv[y])
    s = metrics._edge_sweep(_table_blocks(swap, m, m, m), m)[0]
    size = 1 << n
    return (size * (size - 1) // 2, swap[x] == y and swap[y] == x, Fraction(1, s), Fraction(s))


@pytest.mark.parametrize("n", range(2, 11, 2))
def test_transitivity_audit_matches_the_table_audit(n):
    ball = sorted(metrics.image_table(PSI, n))
    rng = random.Random(300 + n)
    pairs = [tuple(rng.sample(ball, 2)) for _ in range(5)]
    pairs += [(x, x) for x in rng.sample(ball, 2)]
    # pairs at distance 1: the ball is an up-set, so setting a 0 bit stays in it
    near = [(x, x | 1 << s) for x in rng.sample(ball, 3) for s in range(n + 1) if not x >> s & 1]
    rng.shuffle(near)
    pairs += [(x, y) if i % 2 else (y, x) for i, (x, y) in enumerate(near[:4])]
    for x, y in pairs:
        aud = metrics.transitivity_ratio_audit(x, y, n)
        assert (aud.pairs, aud.swaps_ok, aud.min_ratio, aud.max_ratio) == _table_swap_audit(x, y, n)


def test_transitivity_audit_builds_no_table(monkeypatch):
    calls = []
    for name in ("image_table", "preimage_table"):
        monkeypatch.setattr(metrics, name, lambda *args, name=name: calls.append(name))
    aud = metrics.transitivity_ratio_audit(0b1110011, 0b0111110, 6)
    assert aud.swaps_ok
    assert calls == []


@pytest.mark.parametrize(
    "x,y,cap,error,message",
    [
        (BitVector(5, 0b11111), 0b1111111, None, LengthMismatchError,
         "audit endpoint 11111 has length 5, want 7"),
        (0b1111111, -1, None, NotInBallError, r"audit endpoint -1 is not a point of \{0,1\}\^7"),
        (0b1111111, 1 << 7, None, NotInBallError,
         r"audit endpoint 128 is not a point of \{0,1\}\^7"),
        (0b1111111, 0b0000111, None, NotInBallError, "audit endpoints must lie inside the ball"),
        # the cap is checked before the ball
        (0b0000111, 0b1111111, 100, EnumerationCapError,
         r"enumeration of 896 \(z, i\) pairs exceeds cap 100"),
    ],
    ids=["length", "negative", "too-long", "outside-ball", "cap"],
)
def test_transitivity_audit_endpoint_errors(x, y, cap, error, message):
    kwargs = {} if cap is None else {"cap": cap}
    with pytest.raises(error, match=f"^{message}$"):
        metrics.transitivity_ratio_audit(x, y, 6, **kwargs)


@pytest.mark.parametrize("n", [4, 6])
def test_transitivity_audit_endpoints_at_the_ball_boundary(n):
    # weight n/2 is just outside the ball, weight n/2 + 1 just inside
    top = (1 << (n + 1)) - 1
    outside = (1 << (n // 2)) - 1
    inside = (1 << (n // 2 + 1)) - 1
    for x, y in ((outside, top), (top, outside)):
        with pytest.raises(NotInBallError, match="^audit endpoints must lie inside the ball$"):
            metrics.transitivity_ratio_audit(x, y, n)
    for x, y in ((inside, top), (top, inside)):
        assert metrics.transitivity_ratio_audit(x, y, n).swaps_ok


def test_enumeration_caps():
    with pytest.raises(EnumerationCapError):
        metrics.forward_stretch_exhaustive(PSI, 8, cap=100)
    with pytest.raises(EnumerationCapError):
        metrics.inverse_stretch_exhaustive(PSI, 8, cap=100)
    with pytest.raises(EnumerationCapError):
        metrics.pairwise_ratio_audit(PSI, 8, cap=100)
    fwd = metrics.image_table(PSI, 6)
    with pytest.raises(EnumerationCapError):
        metrics.transitivity_ratio_audit(fwd[5], fwd[40], 6, cap=100)


@pytest.mark.parametrize(
    "entry",
    [
        lambda n: metrics.forward_stretch_exhaustive(PSI, n),
        lambda n: metrics.inverse_stretch_exhaustive(PSI, n),
        lambda n: metrics.pairwise_ratio_audit(PSI, n),
        lambda n: metrics.transitivity_ratio_audit(0, 1, n),
        lambda n: analysis.influence_profile(PSI, n),
        lambda n: analysis.chain_count_enumerated(n),
        lambda n: analysis.unmarked_profile_histogram(n),
        lambda n: analysis.flip_probability_exhaustive(n, 1),
        lambda n: metrics.image_table(PSI, n),
        lambda n: metrics.preimage_table(PSI, n),
    ],
    ids=["forward", "inverse", "pairwise", "transitivity", "influence", "chains",
         "histogram", "flip-exhaustive", "image-table", "preimage-table"],
)
def test_cap_rejects_huge_n_before_building_two_to_the_n(entry):
    # 2^(10^8) alone would take 12 MiB
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match=r"\b2\^10000000[01] "):
            entry(10**8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "entry",
    [
        lambda n: metrics.forward_stretch_sampled(PSI, n, 1, 1),
        lambda n: analysis.flip_probability_exact(n, 1),
    ],
    ids=["sampled", "flip-exact"],
)
def test_n_past_the_library_ceiling_is_refused_without_building_it(entry):
    n = DEFAULT_ENUMERATION_CAP + 2
    tracemalloc.start()
    try:
        with pytest.raises(EnumerationCapError, match=f"^enumeration of {n} bits per "):
            entry(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the domain checks come first: odd and small n keep their errors
    with pytest.raises(OddLengthError):
        entry(n + 1)
    with pytest.raises(DimensionError):
        entry(0)


def test_table_builders_refuse_just_past_the_cap(monkeypatch, fresh_tables):
    # a cap of 2^8 entries admits the image table at n = 8 but not its
    # preimage table, which has 2^9 entries
    monkeypatch.setattr(metrics, "DEFAULT_ENUMERATION_CAP", 1 << 8)
    assert len(metrics.image_table(PSI, 8)) == 1 << 8
    with pytest.raises(EnumerationCapError, match="^enumeration of 512 table entries exceeds"):
        metrics.preimage_table(PSI, 8)
    with pytest.raises(EnumerationCapError, match="^enumeration of 1024 table entries exceeds"):
        metrics.image_table(PSI, 10)


def test_sampled_draws_at_the_library_ceiling_and_refuses_past_it(monkeypatch):
    # the ceiling lowered to 64 bits per draw: n = 64 draws, n = 66 is refused
    monkeypatch.setattr(metrics, "DEFAULT_ENUMERATION_CAP", 64)
    want = _sampled_by_map_evaluation(PSI, 64, 50, 1).to_record()
    assert metrics.forward_stretch_sampled(PSI, 64, 50, 1).to_record() == want
    message = "^enumeration of 66 bits per draw exceeds cap 64$"
    with pytest.raises(EnumerationCapError, match=message):
        metrics.forward_stretch_sampled(PSI, 66, 50, 1)


def test_preimage_table_inverts_image_table():
    fwd = metrics.image_table(PSI, 6)
    inv = metrics.preimage_table(PSI, 6)
    for v, z in enumerate(fwd):
        assert inv[z] == v
    assert sum(1 for v in inv if v >= 0) == 1 << 6
