"""Bijections from the Boolean cube onto the Hamming ball.

All three maps send {0,1}^n (n even) onto the ball
``B = { z in {0,1}^(n+1) : |z| > n/2 }`` and are inverted exactly.

``psi`` climbs each vertex half of its distance to the top of its chain and
uses the extra coordinate to separate the two vertices that land together:
a vertex at distance ell from the top of its chain moves to distance
floor(ell/2), and the appended bit is 1 when ell is even, 0 when odd.
Equivalently, with ell unmarked zeros at unmarked ranks 1..ell, it turns the
zeros at ranks floor(ell/2)+1..ell into ones.

``phi`` reflects the bottom half of each chain onto the top half: level j
goes to level n-j (appending 1) when j <= n/2 and stays put (appending 0)
otherwise.  Its forward stretch is 3, but its inverse stretch is unbounded.

``naive`` is the obvious baseline: complement-and-append-1 on the lower half
of the cube, append-0 on the upper half.  Its maximum stretch is n.

``_MAPS[kind].edge_distance`` gives each edge's distance as a case form in
the marking profiles of the edge's prefix and suffix, checked against their
rank derivation on a box that holds every breakpoint.  Read off the forms,
for every even n, psi's forward stretch is at most 4, phi's at most 3, and
naive's is n on the edges from level n/2 to n/2 + 1 and 1 on every other
edge.  The inverse figures (psi's bound of 5, phi's growth and naive's
average) are checked only as far as the exhaustive sweeps reach.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple, Union

from .bits import BitVector, _record
from .chains import (
    _decrement,
    _increment,
    _lowest,
    _majority_lanes,
    _mirror,
    _nonzero,
    _subtract,
    _unmatched_ones,
    _unmatched_planes,
    _unmatched_zeros,
)
from .errors import DimensionError, NotInBallError, NotInImageError, OddLengthError


class BijectionKind(str, Enum):
    PSI = "psi"
    PHI = "phi"
    NAIVE = "naive"


@_record
class BallVector:
    """A vector of length n+1 with weight strictly above n/2."""

    vector: BitVector

    def __post_init__(self):
        _as_ball_value(self.vector, "BallVector")

    def render(self) -> str:
        return self.vector.render()

    __str__ = render


BallLike = Union[BallVector, BitVector]


def _require_dimension(n: int, who: str) -> None:
    """Reject a cube dimension outside the maps' domain, even n >= 2."""
    if n % 2:
        raise OddLengthError(f"{who} requires even input length, got {n}")
    if n < 2:
        raise DimensionError(f"{who} requires n >= 2, got {n}")


def _inverse_input(z: BallLike, who: str) -> tuple[int, BitVector]:
    """n and the vector of an inverse map's input, a point of {0,1}^(n+1)
    whose length must be odd and at least 3, so that n is in the maps' domain."""
    vec = z.vector if isinstance(z, BallVector) else z
    if vec.n % 2 == 0:
        raise OddLengthError(f"{who} requires odd input length, got {vec.n}")
    if vec.n < 3:
        raise DimensionError(f"{who} requires input length >= 3, got {vec.n}")
    return vec.n - 1, vec


def _as_ball_value(z: BallLike, who: str) -> tuple[int, int]:
    """Return (n, integer value) for a length-(n+1) ball point, validating."""
    n, vec = _inverse_input(z, who)
    if 2 * vec.weight() <= n:
        raise NotInBallError(f"{vec} has weight {vec.weight()}, not above {n}/2")
    return n, vec.value


# integer-valued fast paths; coordinate i of an n-bit value sits at bit n-i
#
# Each map also has two plane rules, ``_*_planes(xs, full)`` and
# ``_*_inverse_planes(zs, full)``, that map a block of points at once (see
# chains._cube_blocks) from its bit planes, entry t holding bit t of every
# lane, to the planes of the lanes' images: n to n + 1 forward, n + 1 to n
# inverse.  psi's and phi's move a vertex along its chain, so they run the
# marking kernel on the block; naive's reads only the weight.  The inverse
# rules run on the ball lanes that metrics._preimage_blocks packs.


def _psi_value(n: int, v: int) -> int:
    zeros, _ = _unmatched_zeros(n, v)
    ell = zeros.bit_count()
    # the last ceil(ell / 2) unmatched 0s turn into 1s
    return ((v | _lowest(zeros, ell - (ell >> 1))) << 1) | ((ell & 1) ^ 1)


def _flip_last(xs: list[int], zeros: list[int], r: list[int]) -> list[int]:
    """``xs``, in place, with the last r unmatched 0s of each lane turned into 1s.

    A right-to-left pass over the coordinates that decrements the bit-sliced
    counter ``r`` wherever it is not 0 and the coordinate is an unmatched 0.
    """
    for s, z in enumerate(zeros):  # s = 0 is coordinate n
        live = _nonzero(r)
        if not live:
            break
        hit = z & live
        if hit:
            xs[s] |= hit
            _decrement(r, hit)
    return xs


def _psi_planes(xs: list[int], full: int) -> list[int]:
    zeros, a, _ = _unmatched_planes(xs, full)
    _increment(a, full)
    # bit 0 of a + 1 marks the lanes where a is even; the rest is ceil(a / 2)
    return [a[0]] + _flip_last(list(xs), zeros, a[1:])


def _psi_inverse_value(n: int, z: int) -> int:
    tail = z & 1
    x = z >> 1
    ones, ell = _unmatched_ones(n, x)
    # x is ell below its chain top and the preimage 2 ell + (tail ^ 1):
    # the leftmost ell + (tail ^ 1) unmatched 1s go back to 0
    keep = ones.bit_count() - ell - (tail ^ 1)
    if keep < 0:
        raise NotInBallError(f"value {z:b} is not reached from the cube")
    return (x ^ ones) | _lowest(ones, keep)


def _psi_inverse_planes(zs: list[int], full: int) -> list[int]:
    # In the mirror of x the unmatched 1s of x are unmatched 0s, leftmost
    # last, and its unmatched 1s count x's ell unmatched 0s.
    ms = _mirror(zs[1:], full)
    ones, _, drop = _unmatched_planes(ms, full)
    _increment(drop, full ^ zs[0])  # ell + (tail ^ 1)
    return _mirror(_flip_last(ms, ones, drop), full)


def _phi_value(n: int, v: int) -> int:
    j = v.bit_count()
    if 2 * j > n:
        return v << 1
    zeros, b = _unmatched_zeros(n, v)
    # level j = k + b goes up to n - j = k + a: the last a - b unmatched 0s
    # turn into 1s
    return ((v | _lowest(zeros, zeros.bit_count() - b)) << 1) | 1


def _phi_planes(xs: list[int], full: int) -> list[int]:
    zeros, a, b = _unmatched_planes(xs, full)
    # level j = k + b, so 2j <= n exactly where b <= a; there the last
    # a - (j - k) = a - b unmatched 0s flip
    diff, above = _subtract(a, b)
    low = full ^ above
    return [low] + _flip_last(list(xs), zeros, [d & low for d in diff])


def _phi_inverse_value(n: int, z: int) -> int:
    tail = z & 1
    x = z >> 1
    j = x.bit_count()
    if tail == 0:
        if 2 * j <= n:
            raise NotInImageError(
                f"{z:0{n + 1}b} ends in 0 but has level {j} <= {n}/2"
            )
        return x
    if 2 * j < n:
        raise NotInImageError(f"{z:0{n + 1}b} ends in 1 but has level {j} < {n}/2")
    ones, a = _unmatched_ones(n, x)
    # level j = k + b goes back to n - j = k + a: the leftmost b - a
    # unmatched 1s turn into 0s
    return (x ^ ones) | _lowest(ones, a)


def _phi_inverse_planes(zs: list[int], full: int) -> list[int]:
    # mirrored as in _psi_inverse_planes; where the tail is 1 the leftmost
    # b - a unmatched 1s turn into 0s
    ms = _mirror(zs[1:], full)
    ones, b, a = _unmatched_planes(ms, full)
    tail = zs[0]
    return _mirror(_flip_last(ms, ones, [d & tail for d in _subtract(b, a)[0]]), full)


def _naive_value(n: int, v: int) -> int:
    if 2 * v.bit_count() <= n:
        return ((v ^ ((1 << n) - 1)) << 1) | 1
    return v << 1


def _naive_planes(xs: list[int], full: int) -> list[int]:
    low = full ^ _majority_lanes(xs, full)  # 2|x| <= n
    return [low] + [x ^ low for x in xs]


def _naive_inverse_value(n: int, z: int) -> int:
    w = z >> 1
    if z & 1:
        return w ^ ((1 << n) - 1)
    return w


def _naive_inverse_planes(zs: list[int], full: int) -> list[int]:
    tail = zs[0]
    return [x ^ tail for x in zs[1:]]


# Edge-distance rules, ``_*_edge_distance(n, a1, b1, a2, b2)``: the distance
# between the images of the two endpoints of an edge (x, i), from the
# marking profiles (a1, b1) of the prefix x_1..x_{i-1} and (a2, b2) of the
# suffix x_{i+1}..x_n alone.  Call v the endpoint with x_i = 0 and w the one
# with x_i = 1.  Each rule is a case form of a derivation through unmatched-0
# ranks, kept in tests/edge_oracle.py as the oracle the tests check it
# against at every breakpoint.


def _psi_edge_distance(n: int, a1: int, b1: int, a2: int, b2: int) -> int:
    if b1 == 0:
        # v has a1 + 1 + a2 unmatched 0s and w has a1 + max(a2 - 1, 0)
        return 1 if a2 == 0 and not a1 & 1 else 2
    # v has a1 + max(t + 1, 0) unmatched 0s and w has a1 + max(t - 1, 0)
    t = a2 - b1
    if t < 0:
        return 1
    if t == 0:
        return 3 + (a1 & 1)
    return 4 if t <= a1 else 2


def _phi_edge_distance(n: int, a1: int, b1: int, a2: int, b2: int) -> int:
    if b1 == 0 and a1 >= b2:
        return 1
    u = a1 + a2 - b1 - b2  # 0s minus 1s off coordinate i
    return min(3, max(1, u + 3))


def _naive_edge_distance(n: int, a1: int, b1: int, a2: int, b2: int) -> int:
    # 0s minus 1s off coordinate i is -1 exactly on the edges from weight
    # n/2 to n/2 + 1, the ones that cross the equator
    return n if a1 + a2 - b1 - b2 == -1 else 1


def psi(x: BitVector) -> BallVector:
    """Map a cube vertex into the ball by climbing half way up its chain."""
    _require_dimension(x.n, "psi")
    return BallVector(BitVector(x.n + 1, _psi_value(x.n, x.value)))


def psi_inverse(z: BallLike) -> BitVector:
    """Inverse of :func:`psi`: descend twice the distance from the chain top."""
    n, value = _as_ball_value(z, "psi_inverse")
    return BitVector(n, _psi_inverse_value(n, value))


def phi(x: BitVector) -> BallVector:
    """Map a cube vertex into the ball by reflecting the lower chain half."""
    _require_dimension(x.n, "phi")
    return BallVector(BitVector(x.n + 1, _phi_value(x.n, x.value)))


def phi_inverse(z: BallLike) -> BitVector:
    """Inverse of :func:`phi`.

    Points with final bit 0 and level <= n/2 are outside the image; they get
    a distinct :class:`NotInImageError` even though such points are also
    outside the ball (the image check runs first, so direct misuse with a raw
    BitVector is reported precisely).
    """
    n, vec = _inverse_input(z, "phi_inverse")
    return BitVector(n, _phi_inverse_value(n, vec.value))


def naive(x: BitVector) -> BallVector:
    """Complement-and-append-1 below the equator, append-0 above it."""
    _require_dimension(x.n, "naive")
    return BallVector(BitVector(x.n + 1, _naive_value(x.n, x.value)))


def naive_inverse(z: BallLike) -> BitVector:
    n, value = _as_ball_value(z, "naive_inverse")
    return BitVector(n, _naive_inverse_value(n, value))


def forward_map(kind: BijectionKind) -> Callable[[BitVector], BallVector]:
    return _MAPS[BijectionKind(kind)].forward


def inverse_map(kind: BijectionKind) -> Callable[[BallLike], BitVector]:
    return _MAPS[BijectionKind(kind)].inverse


def transitivity_map(x: BallVector, y: BallVector, z: BallVector) -> BallVector:
    """The ball self-map sending x to y and y to x with bounded distortion.

    Pulls z back to the cube, translates by the xor of the pullbacks of x
    and y, and pushes forward again.
    """
    n, zv = _as_ball_value(z, "transitivity_map")
    nx, xv = _as_ball_value(x, "transitivity_map")
    ny, yv = _as_ball_value(y, "transitivity_map")
    if not n == nx == ny:
        raise NotInBallError("transitivity_map needs three points of equal length")
    delta = _psi_inverse_value(n, xv) ^ _psi_inverse_value(n, yv)
    moved = _psi_inverse_value(n, zv) ^ delta
    return BallVector(BitVector(n + 1, _psi_value(n, moved)))


class _Map(NamedTuple):
    """One map's plane rules, edge-distance rule and public pair."""

    planes: Callable[[list[int], int], list[int]]
    inverse_planes: Callable[[list[int], int], list[int]]
    edge_distance: Callable[[int, int, int, int, int], int]
    forward: Callable[[BitVector], BallVector]
    inverse: Callable[[BallLike], BitVector]


_MAPS: dict[BijectionKind, _Map] = {
    BijectionKind.PSI: _Map(_psi_planes, _psi_inverse_planes, _psi_edge_distance, psi, psi_inverse),
    BijectionKind.PHI: _Map(_phi_planes, _phi_inverse_planes, _phi_edge_distance, phi, phi_inverse),
    BijectionKind.NAIVE: _Map(
        _naive_planes, _naive_inverse_planes, _naive_edge_distance, naive, naive_inverse),
}
