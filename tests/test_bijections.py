import hypothesis.strategies as st
import pytest
from hypothesis import given

from cubeball.bits import BitVector, distance
from cubeball.bijections import (
    _MAPS,
    _psi_inverse_value,
    BallVector,
    BijectionKind,
    forward_map,
    inverse_map,
    naive,
    naive_inverse,
    phi,
    phi_inverse,
    psi,
    psi_inverse,
    transitivity_map,
)
from cubeball.chains import chain_member, mark, position
from cubeball.errors import DimensionError, NotInBallError, NotInImageError, OddLengthError

from edge_oracle import RANK_EDGE_RULES
from marking_oracle import unmatched_shifts
from strategies import bit_vectors, lengths_with_residue

KINDS = list(BijectionKind)


@pytest.mark.parametrize(
    "src,img",
    [
        ("1111", "11111"),
        ("0111", "11110"),
        ("0011", "01111"),
        ("0001", "01110"),
        ("0000", "00111"),
    ],
)
def test_psi_full_chain_values(src, img):
    assert psi(BitVector.parse(src)).render() == img
    assert psi_inverse(BitVector.parse(img)).render() == src


@pytest.mark.parametrize(
    "src,img",
    [("0000", "11111"), ("0111", "01110"), ("0011", "00111")],
)
def test_phi_examples(src, img):
    assert phi(BitVector.parse(src)).render() == img
    assert phi_inverse(BitVector.parse(img)).render() == src


@pytest.mark.parametrize(
    "src,img",
    [("0000", "11111"), ("1110", "11100"), ("0011", "11001")],
)
def test_naive_examples(src, img):
    assert naive(BitVector.parse(src)).render() == img
    assert naive_inverse(BitVector.parse(img)).render() == src


@given(st.data())
def test_psi_climbs_half_way_up_the_chain_at_large_n(data):
    n = 2 * data.draw(st.integers(1, 1025))
    x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    pos = position(x)
    climbed = chain_member(pos.code, pos.j + pos.ell - pos.ell // 2)
    assert psi(x).vector == BitVector(n + 1, (climbed.value << 1) | int(pos.ell % 2 == 0))


@pytest.mark.parametrize("kind", KINDS)
def test_forward_rejects_odd_length(kind):
    with pytest.raises(OddLengthError):
        forward_map(kind)(BitVector.parse("010"))


@pytest.mark.parametrize("kind", KINDS)
def test_inverse_rejects_odd_cube_dimension(kind):
    # length 4 input would invert to a 3-bit cube
    with pytest.raises(OddLengthError):
        inverse_map(kind)(BitVector.parse("1111"))


@pytest.mark.parametrize(
    "inverse,who",
    [(psi_inverse, "psi_inverse"), (phi_inverse, "phi_inverse"),
     (naive_inverse, "naive_inverse"), (lambda z: transitivity_map(z, z, z), "transitivity_map"),
     (BallVector, "BallVector")],
    ids=["psi", "phi", "naive", "transitivity", "ball_vector"],
)
@pytest.mark.parametrize(
    "bits,error,rule",
    [("1111", OddLengthError, "odd input length, got 4"),
     ("11", OddLengthError, "odd input length, got 2"),
     ("1", DimensionError, "input length >= 3, got 1")],
)
def test_inverse_names_the_input_length_it_was_given(inverse, who, bits, error, rule):
    with pytest.raises(error, match=f"^{who} requires {rule}$"):
        inverse(BitVector.parse(bits))


def test_psi_inverse_rejects_points_outside_ball():
    with pytest.raises(NotInBallError):
        psi_inverse(BitVector.parse("00011"))
    # the integer form's own check, which psi_inverse never reaches because
    # it tests ball membership first
    with pytest.raises(NotInBallError, match="value 1 is not reached from the cube"):
        _psi_inverse_value(4, 0b00001)


def test_phi_inverse_not_in_image_is_distinct():
    # trailing 0 with level <= n/2 is outside the image (and the ball);
    # the image check fires first
    with pytest.raises(NotInImageError):
        phi_inverse(BitVector.parse("00110"))


def test_phi_inverse_names_why_a_point_is_outside_the_image():
    # trailing 1 with level < n/2 is outside the image too
    with pytest.raises(NotInImageError, match="^00110 ends in 0 but has level 2 <= 4/2$"):
        phi_inverse(BitVector.parse("00110"))
    with pytest.raises(NotInImageError, match="^00011 ends in 1 but has level 1 < 4/2$"):
        phi_inverse(BitVector.parse("00011"))


def test_transitivity_map_refuses_points_of_different_lengths():
    x, y = BallVector(BitVector.parse("11100")), BallVector(BitVector.parse("01110"))
    with pytest.raises(NotInBallError, match="^transitivity_map needs three points of equal length$"):
        transitivity_map(x, y, BallVector(BitVector.parse("011")))


def test_ball_vector_validates_membership():
    with pytest.raises(NotInBallError):
        BallVector(BitVector.parse("00011"))
    assert BallVector(BitVector.parse("00111")).render() == "00111"


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_bijectivity_onto_ball_exhaustive(kind, n):
    fwd = forward_map(kind)
    inv = inverse_map(kind)
    images = set()
    for value in range(1 << n):
        x = BitVector(n, value)
        z = fwd(x)
        assert 2 * z.vector.weight() > n
        assert inv(z) == x
        images.add(z.vector.value)
    ball = {z for z in range(1 << (n + 1)) if 2 * z.bit_count() > n}
    assert images == ball
    for zv in ball:
        z = BitVector(n + 1, zv)
        assert fwd(inv(z)).vector == z


@pytest.mark.parametrize("kind", KINDS)
@given(v=bit_vectors(min_n=2, max_n=32, even_only=True))
def test_roundtrip_pointwise(kind, v):
    fwd = forward_map(kind)
    inv = inverse_map(kind)
    z = fwd(v)
    assert 2 * z.vector.weight() > v.n
    assert inv(z) == v


@pytest.mark.parametrize("residue", [0, 2, 4, 6])
@pytest.mark.parametrize("kind", KINDS)
@given(st.data())
def test_roundtrip_both_ways_large_n(kind, residue, data):
    # n % 8 sets the padding of both byte streams the marking kernel reads
    n = data.draw(lengths_with_residue(residue))
    fwd = forward_map(kind)
    inv = inverse_map(kind)
    x = BitVector(n, data.draw(st.integers(0, (1 << n) - 1)))
    assert inv(fwd(x)) == x
    zv = data.draw(st.integers(0, (1 << (n + 1)) - 1))
    if 2 * zv.bit_count() <= n:
        zv ^= (1 << (n + 1)) - 1  # the complement of a point outside the ball is inside
    z = BitVector(n + 1, zv)
    assert fwd(inv(z)).vector == z


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
def test_marked_coordinates_pass_through(n):
    for value in range(1 << n):
        x = BitVector(n, value)
        img = psi(x).vector
        for i in mark(x).marked_coordinates():
            assert img.bit(i) == x.bit(i)


@pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
def test_unmarked_skeleton_determines_moved_bits(n):
    # the image restricted to unmarked coordinates (plus the appended bit)
    # only depends on the unmarked 0^a 1^b skeleton
    for value in range(1 << n):
        x = BitVector(n, value)
        marked = mark(x).marked_coordinates()
        unmarked = [p for p in range(1, n + 1) if p not in marked]
        img = psi(x).vector
        if not unmarked:
            assert img.render() == x.render() + "1"
            continue
        skeleton = BitVector.parse("".join(str(x.bit(p)) for p in unmarked))
        skel_img = psi(skeleton).vector
        got = [img.bit(p) for p in unmarked] + [img.bit(n + 1)]
        want = [skel_img.bit(r) for r in range(1, len(unmarked) + 2)]
        assert got == want


def _oracle_profile(n, v):
    zeros, ones = unmatched_shifts(n, v)
    return len(zeros), len(ones)


@given(st.data())
def test_edge_images_depend_only_on_unmarked_profiles(data):
    n = 2 * data.draw(st.integers(1, 8))
    v = data.draw(st.integers(0, (1 << n) - 1))
    x = BitVector(n, v)
    i = data.draw(st.integers(1, n))
    y = x.flip_at(i)
    low = n - i
    a, b = _oracle_profile(i - 1, v >> (low + 1))
    c, d = _oracle_profile(low, v & ((1 << low) - 1))
    w0 = BitVector.parse("0" * a + "1" * b + "0" + "0" * c + "1" * d)
    w1 = BitVector.parse("0" * a + "1" * b + "1" + "0" * c + "1" * d)
    assert distance(psi(x).vector, psi(y).vector) == distance(
        psi(w0).vector, psi(w1).vector
    )


@pytest.mark.parametrize("n", range(2, 15, 2))
@pytest.mark.parametrize("kind", KINDS)
def test_edge_distance_rule_matches_map_exhaustive(kind, n):
    f = _MAPS[kind].value
    rule = _MAPS[kind].edge_distance
    images = [f(n, v) for v in range(1 << n)]
    # profiles[m][u]: the oracle's profile of the m-bit string u
    profiles = [[_oracle_profile(m, u) for u in range(1 << m)] for m in range(n)]
    for v in range(1 << n):
        for i in range(1, n + 1):
            low = n - i
            if v >> low & 1:
                continue  # each edge once, from its endpoint with x_i = 0
            want = (images[v] ^ images[v | 1 << low]).bit_count()
            prefix = profiles[i - 1][v >> (low + 1)]
            suffix = profiles[low][v & ((1 << low) - 1)]
            assert rule(n, *prefix, *suffix) == want, (v, i)


@pytest.mark.parametrize("residue", [0, 2, 4, 6])
@pytest.mark.parametrize("kind", KINDS)
@given(st.data())
def test_edge_distance_rule_matches_map_large_n(kind, residue, data):
    n = data.draw(lengths_with_residue(residue))
    v = data.draw(st.integers(0, (1 << n) - 1))
    # coordinates 1 and n leave an empty prefix or suffix
    i = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    f = _MAPS[kind].value
    want = (f(n, v) ^ f(n, v ^ (1 << (n - i)))).bit_count()
    low = n - i
    prefix = _oracle_profile(i - 1, v >> (low + 1))
    suffix = _oracle_profile(low, v & ((1 << low) - 1))
    assert _MAPS[kind].edge_distance(n, *prefix, *suffix) == want


# The case forms in ``_MAPS[kind].edge_distance`` against the rank rules they
# were read from (``RANK_EDGE_RULES``), on boxes that hold every breakpoint.


def test_psi_edge_cases_certify_forward_bound():
    """psi's case form equals its rank rule at every profile, so psi's
    forward stretch is at most 4 at every even n, and 4 is reached.

    Neither rule reads n or b2.  The rank rule tests b1 against 0 and 1, and
    for b1 >= 1 it reads b1 and a2 only through t = a2 - b1: its zero counts
    are a1 + max(t + 1, 0) and a1 + max(t - 1, 0), and ``_rank_distance``
    reads b1 only as ``b1 == 0``.  Its min, max, abs and if terms then
    compare linear forms in (a1, t), equal on the lines t in {-2, ..., 1},
    t - a1 in {-1, ..., 4}, a1 + t in {-2, ..., 1} and a1 in {-1, 0}; its
    floors halve a1 and a1 + t +- 1, so they are affine once the parities of
    a1 and t are fixed.  For b1 = 0 the same holds in (a1, a2), with the
    lines a2 in {-2, 0, 1}, a2 - a1 in {-1, ..., 4}, a1 + a2 in {-2, ..., 1}
    and a1 in {-1, 0}.  The case form's tests (b1 = 0, the sign of t,
    t <= a1, a2 = 0, the parity of a1) lie on the same lines.  The essential
    breakpoints are b1 in {0, 1}, t in {-1, 0, 1}, t - a1 in {-1, 0, 1} and
    the parity of a1.

    So on each cell of lattice points where every such form has a fixed
    sign, within one parity class of (a1, t), both rules are affine.  Any
    two of the lines that cross do so within 6 of the origin, so each cell,
    bounded or not, meets the box in three non-collinear points of its class
    (two if the cell is a ray along a line, itself if it is a point).  An affine function that
    vanishes at three non-collinear points vanishes on the whole plane, so
    agreement on the box is agreement at every profile.
    """
    rule = _MAPS[BijectionKind.PSI].edge_distance
    oracle = RANK_EDGE_RULES[BijectionKind.PSI]
    box = range(64)
    seen = set()
    for a1 in box:
        for b1 in box:
            for a2 in box:
                d = rule(0, a1, b1, a2, 0)
                assert d == oracle(0, a1, b1, a2, 0), (a1, b1, a2)
                seen.add(d)
    assert seen == {1, 2, 3, 4}


def _four_profile_box(kind, size):
    """Each (a1, b1, a2, b2) in [0, size)^4 with the smallest n that holds
    it, n = a1 + b1 + a2 + b2 + 1, after checking the case form against the
    rank rule there."""
    rule = _MAPS[kind].edge_distance
    oracle = RANK_EDGE_RULES[kind]
    box = range(size)
    for a1 in box:
        for b1 in box:
            for a2 in box:
                for b2 in box:
                    n = a1 + b1 + a2 + b2 + 1
                    d = rule(n, a1, b1, a2, b2)
                    assert d == oracle(n, a1, b1, a2, b2), (n, a1, b1, a2, b2)
                    yield n, a1 + a2 - b1 - b2, d


def test_phi_edge_cases_certify_forward_bound():
    """phi's case form equals its rank rule at every profile, so phi's
    forward stretch is at most 3 at every even n, and 3 is reached.

    Neither rule reads n.  The rank rule tests b1 against 0 and 1; past
    that, as for psi, it reads b1 and a2 only through t = a2 - b1 (or a2
    itself when b1 = 0), and a1 and b2 only through e = a1 - b2.  It takes
    no floor.  Its terms compare linear forms in (e, t), equal on the lines
    t in {-1, 0, 1}, e in {-2, 0}, e + t in {-1, 1} and e + 2t in {-2, 2};
    u = e + t is the weight balance of the case form, whose tests
    (b1 = 0, e >= 0, u + 3 against 1 and 3) lie on the same lines.  Any two
    of the lines that cross do so within 4 of the origin of (e, t), and the
    box holds e and t in [-15, 15] and shifts (a1, b2) along (1, 1), so the
    argument of the psi certificate carries over.
    """
    seen = {d for _, _, d in _four_profile_box(BijectionKind.PHI, 16)}
    assert seen == {1, 2, 3}


def test_naive_edge_cases_certify_forward_bound():
    """naive's case form equals its rank rule at every profile: the
    distance is n where u = a1 + a2 - b1 - b2 = -1 and 1 elsewhere.

    With n = a1 + b1 + a2 + b2 + 1 (mod 2), the rank rule's floor is exact
    and twice its weight minus n is -1 - u, so its only breakpoint is
    u = -1, and both rules are constant off it and equal n on it.
    """
    for n, u, d in _four_profile_box(BijectionKind.NAIVE, 16):
        assert d == (n if u == -1 else 1), (n, u)


def test_transitivity_map_swaps_and_cancels():
    x = psi(BitVector.parse("01100110"))
    y = psi(BitVector.parse("00000000"))
    z = psi(BitVector.parse("10100101"))
    assert transitivity_map(x, y, x) == y
    assert transitivity_map(x, y, y) == x
    assert transitivity_map(x, x, z) == z


@given(st.data())
def test_transitivity_map_is_an_exchanging_bijection(data):
    n = 2 * data.draw(st.integers(1, 6))
    xs = psi(BitVector(n, data.draw(st.integers(0, (1 << n) - 1))))
    ys = psi(BitVector(n, data.draw(st.integers(0, (1 << n) - 1))))
    zs = psi(BitVector(n, data.draw(st.integers(0, (1 << n) - 1))))
    assert transitivity_map(xs, ys, xs) == ys
    assert transitivity_map(xs, ys, ys) == xs
    moved = transitivity_map(xs, ys, zs)
    assert transitivity_map(xs, ys, moved) == zs  # involution
