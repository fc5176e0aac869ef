"""Fixed-length bit vectors with 1-based, left-to-right coordinates.

Coordinate 1 is the leftmost character of the textual form.  Internally a
vector is an ``(n, value)`` pair where coordinate ``i`` sits at bit ``n - i``
of ``value``, so numeric order on values equals lexicographic order on the
rendered strings.  Lengths are arbitrary (not capped at machine-word width).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    CoordinateRangeError,
    EnumerationCapError,
    LengthMismatchError,
)

# Hard ceiling for full-domain enumerations; CLI applies a lower default.
DEFAULT_ENUMERATION_CAP = 1 << 28

# ASCII digits to bit values: b"0" to 0 and b"1" to 1
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


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
        return tuple(self.render().encode().translate(_BIT_VALUES))

    def weight(self) -> int:
        return self.value.bit_count()

    def flip_at(self, i: int) -> "BitVector":
        self._check_coordinate(i)
        return BitVector(self.n, self.value ^ (1 << (self.n - i)))

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


def distance(a: BitVector, b: BitVector) -> int:
    """Hamming distance between two vectors of equal length."""
    if a.n != b.n:
        raise LengthMismatchError(f"length {a.n} vs {b.n}")
    return (a.value ^ b.value).bit_count()


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
