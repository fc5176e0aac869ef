"""Shared hypothesis strategies."""

import hypothesis.strategies as st

from cubeball.bits import BitVector


@st.composite
def bit_vectors(draw, min_n: int = 1, max_n: int = 32, even_only: bool = False):
    n = draw(st.integers(min_n, max_n))
    if even_only and n % 2:
        n = n + 1 if n + 1 <= max_n else n - 1
    return BitVector(n, draw(st.integers(0, (1 << n) - 1)))


def lengths_with_residue(residue: int, top: int = 2050):
    """Lengths n in [1, top] with n % 8 == residue."""
    low = 1 if residue == 0 else 0
    return st.integers(low, (top - residue) // 8).map(lambda q: 8 * q + residue)
