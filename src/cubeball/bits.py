"""Fixed-length bit vectors with 1-based, left-to-right coordinates.

Coordinate 1 is the leftmost character of the textual form.  Internally a
vector is an ``(n, value)`` pair where coordinate ``i`` sits at bit ``n - i``
of ``value``, so numeric order on values equals lexicographic order on the
rendered strings.  Lengths are arbitrary (not capped at machine-word width).
"""

from __future__ import annotations

from operator import attrgetter

from .errors import CoordinateRangeError, EnumerationCapError, LengthMismatchError

# Hard ceiling for full-domain enumerations; CLI applies a lower default.
DEFAULT_ENUMERATION_CAP = 1 << 28

# ASCII digits to bit values: b"0" to 0 and b"1" to 1
_BIT_VALUES = bytes.maketrans(b"01", b"\0\1")


def _record(cls):
    """Rebuild ``cls`` as a frozen, slotted record of its annotated fields.

    It gives what ``dataclasses.dataclass(frozen=True, slots=True)`` gives,
    without importing ``dataclasses``.  Only ``__init__``, the one record
    method on a hot path, is compiled per class, under the file name
    ``<record module.qualname>`` for tracebacks and profiles: the fields in
    order, class-level values as defaults, then ``__post_init__`` if the
    class has one, each field set through its slot descriptor's ``__set__``
    (bound once the class exists), cheaper than ``object.__setattr__``.
    ``repr``, ``==``, ``hash`` and ``__reduce__`` (for ``copy`` and
    ``pickle``) share one code object each across the records, which cuts
    the import's compile time to under a third: they read the field tuple
    through one ``operator.attrgetter``, ``==`` holds only within the class,
    and ``repr`` fills a format string made once per class.
    """
    names = tuple(cls.__annotations__)
    body = {k: v for k, v in cls.__dict__.items() if k not in ("__dict__", "__weakref__")}
    scope = {f: body.pop(f) for f in names if f in body}  # the defaults, then the setters
    params = ", ".join(f"{f}={f}" if f in scope else f for f in names)
    sets = "".join(f" _set{i}(self, {f})\n" for i, f in enumerate(names))
    post = " self.__post_init__()\n" if "__post_init__" in body else ""
    exec(compile(f"def __init__(self, {params}):\n{sets}{post}",
                 f"<record {cls.__module__}.{cls.__qualname__}>", "exec"), scope, body)
    get = attrgetter(*names)
    row = get if len(names) > 1 else lambda self: (get(self),)
    shown = f"%s({', '.join(f'{f}=%r' for f in names)})"

    def __repr__(self):
        return shown % (self.__class__.__qualname__, *row(self))

    def __eq__(self, other):
        return row(self) == row(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(row(self))

    def __reduce__(self):
        return self.__class__, row(self)

    body.update(__slots__=names, __setattr__=_frozen, __delattr__=_frozen, __repr__=__repr__,
                __eq__=__eq__, __hash__=__hash__, __reduce__=__reduce__)
    made = type(cls)(cls.__name__, cls.__bases__, body)
    scope.update((f"_set{i}", made.__dict__[f].__set__) for i, f in enumerate(names))
    return made


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

    __str__ = render

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
    return (a ^ b).weight()


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
