"""Edge-distance rules derived through unmatched-0 ranks, the oracle for the
case forms in ``bijections._MAPS[kind].edge_distance``.

Each rule ``_*_edge_distance(n, a1, b1, a2, b2)`` gives the distance
between the images of the two endpoints of an edge (x, i), from the marking
profiles (a1, b1) of the prefix x_1..x_{i-1} and (a2, b2) of the suffix
x_{i+1}..x_n alone.  Call v the endpoint with x_i = 0 and w the one with
x_i = 1.  Both begin with the prefix's a1 unmatched 0s.  In v the 0 at i
closes one of the prefix's b1 open 1s, or stays unmatched when b1 = 0, and
in w the 1 at i opens one more; the suffix's first a2 unmatched 0s then
close what is open.  So v's unmatched 0s are w's with a block of
d = ell_v - ell_w <= 2 inserted after the prefix's: the 0 at i when
b1 = 0, then the suffix's 0s that w closes and v does not.
"""

from cubeball.bijections import BijectionKind


def _unmatched_zero_counts(a1: int, b1: int, a2: int) -> tuple[int, int]:
    """The numbers of unmatched 0s of v and of w."""
    return a1 + (b1 == 0) + max(a2 - max(b1 - 1, 0), 0), a1 + max(a2 - b1 - 1, 0)


def _rank_distance(a1: int, b1: int, ell_v: int, ell_w: int, g_v: int, g_w: int) -> int:
    """Distance over coordinates 1..n when v and w turn their unmatched 0s of
    rank above g_v and g_w into 1s.

    Ranks 1..a1 are the prefix's 0s in both; v's block takes its ranks
    a1+1..a1+d, and the c = ell_w - a1 unmatched 0s that follow it are
    shared, their ranks in w d less than in v.  Coordinate i differs unless it heads the
    block and turns into a 1 in v.
    """
    d = ell_v - ell_w
    c = ell_w - a1
    dist = abs(min(g_v, a1) - min(g_w, a1))
    dist += abs(min(max(g_v - a1 - d, 0), c) - min(max(g_w - a1, 0), c))
    dist += min(max(a1 + d - g_v, 0), d)  # the block's 0s that turn into 1s
    if b1 == 0 and g_v <= a1:
        return dist - 1
    return dist + 1


def _psi_edge_distance(n: int, a1: int, b1: int, a2: int, b2: int) -> int:
    # psi reads b1 only up to a2 + 1: past that both endpoints close all
    # of the suffix's unmatched 0s
    ell_v, ell_w = _unmatched_zero_counts(a1, b1, a2)
    # psi keeps the lower floor(ell / 2) ranks; its last bit is ell's parity
    dist = _rank_distance(a1, b1, ell_v, ell_w, ell_v >> 1, ell_w >> 1)
    return dist + ((ell_v ^ ell_w) & 1)


def _phi_edge_distance(n: int, a1: int, b1: int, a2: int, b2: int) -> int:
    ell_v, ell_w = _unmatched_zero_counts(a1, b1, a2)
    ones_v = max(b1 - 1 - a2, 0) + b2
    ones_w = max(b1 + 1 - a2, 0) + b2
    # phi keeps the lower min(a, b) ranks; its last bit is 1 where b <= a,
    # so it differs where the edge crosses the middle level
    dist = _rank_distance(a1, b1, ell_v, ell_w, min(ell_v, ones_v), min(ell_w, ones_w))
    return dist + ((ones_v <= ell_v) != (ones_w <= ell_w))


def _naive_edge_distance(n: int, a1: int, b1: int, a2: int, b2: int) -> int:
    # only the edge from weight n/2 to n/2 + 1 crosses the equator
    weight = (n - 1 - a1 - b1 - a2 - b2) // 2 + b1 + b2
    return n if 2 * weight == n else 1


RANK_EDGE_RULES = {
    BijectionKind.PSI: _psi_edge_distance,
    BijectionKind.PHI: _phi_edge_distance,
    BijectionKind.NAIVE: _naive_edge_distance,
}
