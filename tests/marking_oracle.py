"""Per-vertex marking oracles, which share no code with the package.

``chains`` marks with a byte kernel one vertex at a time and with a
bit-sliced kernel a block of vertices at a time; both are checked against
the bit-at-a-time stack scan :func:`unmatched_shifts`.  Acceptance criteria
11 and 12 check ``chains.mark`` on every vertex against three more oracles,
run lane-parallel over whole-cube bit planes; their per-vertex forms here,
:func:`dyck_marked_coordinates`, :func:`mark_reference` and
:func:`mark_via_split`, are the tests' references for those lane forms.
"""

from cubeball.bits import BitVector
from cubeball.chains import MarkedString
from cubeball.errors import CoordinateRangeError


def unmatched_shifts(n: int, v: int) -> tuple[list[int], list[int]]:
    """Shift amounts (n - coordinate) of unmatched 0s and 1s, leftmost first."""
    zeros: list[int] = []
    ones: list[int] = []  # doubles as the matching stack; leftovers are unmarked
    for s in range(n - 1, -1, -1):
        if (v >> s) & 1:
            ones.append(s)
        elif ones:
            ones.pop()
        else:
            zeros.append(s)
    return zeros, ones


def chunk_table() -> tuple[tuple[int, int], ...]:
    """``(a, b)``, the numbers of unmatched 0s and 1s, for every byte, by the scan."""
    table = []
    for byte in range(256):
        zeros, ones = unmatched_shifts(8, byte)
        table.append((len(zeros), len(ones)))
    return tuple(table)


def mark_reference(x: BitVector, rightmost_first: bool = False) -> MarkedString:
    """Quadratic repeated-scan marking, one vertex at a time.

    Each round finds one consecutive ``10`` pair in the current string
    (leftmost by default, rightmost when requested), marks it and deletes it.
    It is the per-vertex oracle of ``chains._reference_planes``, which
    criterion 12 of the acceptance checklist runs in its place.
    """
    bits = x.bits()
    active = list(range(x.n))  # indices into bits, still unmarked
    marked = [False] * x.n
    while True:
        pairs = range(len(active) - 2, -1, -1) if rightmost_first else range(len(active) - 1)
        hit = -1
        for t in pairs:
            if bits[active[t]] == 1 and bits[active[t + 1]] == 0:
                hit = t
                break
        if hit < 0:
            break
        marked[active[hit]] = marked[active[hit + 1]] = True
        del active[hit : hit + 2]
    return MarkedString(x, sum(m << (x.n - 1 - t) for t, m in enumerate(marked)))


def mark_via_split(x: BitVector, i: int) -> MarkedString:
    """Mark in three steps: first the prefix of length i-1, then the suffix of
    length n-i, then finish on the combined partially marked string.

    Agrees with ``chains.mark`` for every (x, i) because the marking result
    is order-independent.  It is the per-vertex oracle of
    ``chains._split_planes``, which criterion 12 of the acceptance checklist
    runs in its place.
    """
    n, v = x.n, x.value
    if not 1 <= i <= n:
        raise CoordinateRangeError(f"coordinate {i} out of [1, {n}]")
    marked = [False] * (n + 1)  # 1-based

    def stage(coords) -> None:
        stack: list[int] = []
        for p in coords:
            if (v >> (n - p)) & 1:
                stack.append(p)
            elif stack:
                q = stack.pop()
                marked[q] = True
                marked[p] = True

    stage(range(1, i))
    stage(range(i + 1, n + 1))
    stage(p for p in range(1, n + 1) if not marked[p])
    return MarkedString(x, sum(marked[p] << (n - p) for p in range(1, n + 1)))


def dyck_is_marked(x: BitVector, i: int) -> bool:
    """Whether coordinate i meets the balanced-substring criterion, that is,
    lies in :func:`dyck_marked_coordinates`."""
    if not 1 <= i <= x.n:
        raise CoordinateRangeError(f"coordinate {i} out of [1, {x.n}]")
    return i in dyck_marked_coordinates(x)


def dyck_marked_coordinates(x: BitVector) -> frozenset[int]:
    """The coordinates that the balanced-substring criterion marks.

    Coordinate i is marked iff some window [s, e] containing i has equally
    many ones and zeros and no prefix with more zeros than ones (1 = open,
    0 = close).  For each start s the union of its balanced windows is
    [s, e_max(s)], so one O(n^2) pass unions those intervals.  It shares no
    code with the marking kernel, because it serves as a cross-check of it.
    It is the per-vertex oracle of ``analysis._dyck_planes``, which
    criterion 11 of the acceptance checklist runs in its place.
    """
    bits = x.bits()
    covered: set[int] = set()
    for s in range(1, x.n + 1):
        if not bits[s - 1]:
            continue  # a window starting with 0 dips negative immediately
        bal = 0
        e_max = s - 1
        for e, bit in enumerate(bits[s - 1 :], s):
            bal += 1 if bit else -1
            if bal < 0:
                break
            if bal == 0:
                e_max = e
        covered.update(range(s, e_max + 1))
    return frozenset(covered)
