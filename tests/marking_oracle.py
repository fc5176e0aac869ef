"""The bit-at-a-time stack scan, the oracle for the marking kernels.

``chains`` marks with a byte kernel one vertex at a time and with a
bit-sliced kernel a block of vertices at a time; both are checked against
this scan, which shares no code with either.
"""


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


def chunk_table() -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """``(a, b, shifts of the unmatched 0s)`` for every byte, by the scan."""
    table = []
    for byte in range(256):
        zeros, ones = unmatched_shifts(8, byte)
        table.append((len(zeros), len(ones), tuple(zeros)))
    return tuple(table)
