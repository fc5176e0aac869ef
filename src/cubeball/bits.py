"""Fixed-length bit vectors with 1-based, left-to-right coordinates.

Coordinate 1 is the leftmost character of the textual form.  Internally a
vector is an ``(n, value)`` pair where coordinate ``i`` sits at bit ``n - i``
of ``value``, so numeric order on values equals lexicographic order on the
rendered strings.  Lengths are arbitrary (not capped at machine-word width).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import (
    CoordinateRangeError,
    EnumerationCapError,
    LengthMismatchError,
)

# Hard ceiling for full-domain enumerations; CLI applies a lower default.
DEFAULT_ENUMERATION_CAP = 1 << 28


@dataclass(frozen=True, slots=True)
class BitVector:
    """An immutable word in {0,1}^n."""

    n: int
    value: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"length must be >= 1, got {self.n}")
        if not 0 <= self.value < (1 << self.n):
            raise ValueError(f"value {self.value} out of range for length {self.n}")

    @classmethod
    def parse(cls, text: str) -> "BitVector":
        """Parse an ASCII '0'/'1' string, leftmost character = coordinate 1."""
        if not text or any(c not in "01" for c in text):
            raise ValueError(f"not a bit string: {text!r}")
        return cls(len(text), int(text, 2))

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        seq = list(bits)
        value = 0
        for b in seq:
            if b not in (0, 1):
                raise ValueError(f"bit values must be 0 or 1, got {b!r}")
            value = (value << 1) | b
        return cls(len(seq), value)

    def render(self) -> str:
        return format(self.value, f"0{self.n}b")

    def __str__(self) -> str:
        return self.render()

    def __len__(self) -> int:
        return self.n

    def bit(self, i: int) -> int:
        self._check_coordinate(i)
        return (self.value >> (self.n - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple((self.value >> s) & 1 for s in range(self.n - 1, -1, -1))

    def weight(self) -> int:
        return self.value.bit_count()

    def flip_at(self, i: int) -> "BitVector":
        self._check_coordinate(i)
        return BitVector(self.n, self.value ^ (1 << (self.n - i)))

    def flip_all(self) -> "BitVector":
        return BitVector(self.n, self.value ^ ((1 << self.n) - 1))

    def concat(self, other: "BitVector") -> "BitVector":
        return BitVector(self.n + other.n, (self.value << other.n) | other.value)

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise LengthMismatchError(f"length {self.n} vs {other.n}")
        return BitVector(self.n, self.value ^ other.value)

    def _check_coordinate(self, i: int) -> None:
        if not 1 <= i <= self.n:
            raise CoordinateRangeError(f"coordinate {i} out of [1, {self.n}]")


@dataclass(frozen=True, slots=True)
class EdgeId:
    """A cube edge named by one endpoint and the coordinate that flips."""

    vertex: BitVector
    coordinate: int

    def __post_init__(self):
        if not 1 <= self.coordinate <= self.vertex.n:
            raise CoordinateRangeError(
                f"coordinate {self.coordinate} out of [1, {self.vertex.n}]"
            )

    def other_endpoint(self) -> BitVector:
        return self.vertex.flip_at(self.coordinate)


def weight(v: BitVector) -> int:
    """Number of 1-bits."""
    return v.weight()


def distance(a: BitVector, b: BitVector) -> int:
    """Hamming distance between two vectors of equal length."""
    if a.n != b.n:
        raise LengthMismatchError(f"length {a.n} vs {b.n}")
    return (a.value ^ b.value).bit_count()


def flip_all(v: BitVector) -> BitVector:
    """Bit-wise complement."""
    return v.flip_all()


def flip_at(v: BitVector, i: int) -> BitVector:
    """Complement coordinate ``i``, leaving the others unchanged."""
    return v.flip_at(i)


def enumerate_cube(n: int, cap: int = DEFAULT_ENUMERATION_CAP) -> Iterator[BitVector]:
    """All 2^n vectors of length n, in lexicographic order.

    Raises :class:`EnumerationCapError` (eagerly, before yielding anything)
    if 2^n exceeds ``cap``.
    """
    if n < 1:
        raise ValueError(f"length must be >= 1, got {n}")
    _require_cap(n, cap, "vertices")
    return (BitVector(n, v) for v in range(1 << n))


def _require_cap(n: int, cap: int, what: str, per: int = 1) -> None:
    """Reject an enumeration of ``per * 2^n`` items that exceeds ``cap``.

    Decides on n first, so a huge n is rejected without building 2^n: above
    64 bits and above the cap's own width the count is named as a product.
    """
    if n > max(64, cap.bit_length()):
        raise EnumerationCapError(f"2^{n}" if per == 1 else f"{per} * 2^{n}", cap, what)
    if per << n > cap:
        raise EnumerationCapError(per << n, cap, what)


def _low_mask(m: int, s: int) -> int:
    """The points z of {0,1}^m with bit s clear, as a mask over 2^m bits."""
    h = 1 << s
    mask = (1 << h) - 1
    span = 2 * h
    while span < 1 << m:
        mask |= mask << span
        span *= 2
    return mask
