"""Fixed-length bit vectors with 1-based, left-to-right coordinates.

Coordinate 1 is the leftmost character of the textual form.  Internally a
vector is an ``(n, value)`` pair where coordinate ``i`` sits at bit ``n - i``
of ``value``, so numeric order on values equals lexicographic order on the
rendered strings.  Lengths are arbitrary (not capped at machine-word width).
"""

from __future__ import annotations

from .errors import (
    CoordinateRangeError,
    EnumerationCapError,
    LengthMismatchError,
)

# Hard ceiling for full-domain enumerations; CLI applies a lower default.
DEFAULT_ENUMERATION_CAP = 1 << 28

# ASCII digits to bit values: b"0" to 0 and b"1" to 1
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _record(cls):
    """Rebuild ``cls`` as a frozen, slotted record of its annotated fields.

    It gives what ``dataclasses.dataclass(frozen=True, slots=True)`` gives,
    without importing ``dataclasses`` and the modules it loads.  Each class
    gets one generated ``__init__``: the fields in order, class-level values
    as defaults, then ``__post_init__`` if the class has one.  ``==`` holds
    only within the class, ``hash`` and ``repr`` read the fields in order,
    and ``copy`` and ``pickle`` rebuild through the constructor.
    """
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    defaults = {f: body.pop(f) for f in names if f in body}
    params = ", ".join(f"{f}={f}" if f in defaults else f for f in names)
    sets = "".join(f" _set(self, {f!r}, {f})\n" for f in names)
    post = " self.__post_init__()\n" if "__post_init__" in body else ""
    shown = ", ".join(f"{f}={{self.{f}!r}}" for f in names)
    row = "".join(f"self.{f}, " for f in names)  # a tuple even for one field
    exec(
        f"def __init__(self, {params}):\n{sets}{post}"
        f"def __repr__(self):\n return f'{{self.__class__.__qualname__}}({shown})'\n"
        f"def __eq__(self, other):\n return ({row}) == ({row.replace('self.', 'other.')})"
        " if other.__class__ is self.__class__ else NotImplemented\n"
        f"def __hash__(self):\n return hash(({row}))\n"
        f"def __reduce__(self):\n return self.__class__, ({row})\n",
        {"_set": object.__setattr__, **defaults}, body)
    body.update(__slots__=names, __setattr__=_frozen, __delattr__=_frozen)
    return type(cls)(cls.__name__, cls.__bases__, body)


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


@_record
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
        _require_coordinate(i, self.n)
        return (self.value >> (self.n - i)) & 1

    def bits(self) -> tuple[int, ...]:
        return tuple(self.render().encode().translate(_BIT_VALUES))

    def weight(self) -> int:
        return self.value.bit_count()

    def flip_at(self, i: int) -> "BitVector":
        _require_coordinate(i, self.n)
        return BitVector(self.n, self.value ^ (1 << (self.n - i)))

    def __xor__(self, other: "BitVector") -> "BitVector":
        if self.n != other.n:
            raise LengthMismatchError(f"length {self.n} vs {other.n}")
        return BitVector(self.n, self.value ^ other.value)


@_record
class EdgeId:
    """A cube edge named by one endpoint and the coordinate that flips."""

    vertex: BitVector
    coordinate: int

    def __post_init__(self):
        _require_coordinate(self.coordinate, self.vertex.n)

    def other_endpoint(self) -> BitVector:
        return self.vertex.flip_at(self.coordinate)


def _require_coordinate(i: int, n: int) -> None:
    """Reject a coordinate outside [1, n]."""
    if not 1 <= i <= n:
        raise CoordinateRangeError(f"coordinate {i} out of [1, {n}]")


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
