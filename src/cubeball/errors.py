"""Exception types shared across the package."""


class CubeballError(Exception):
    """Base class for all errors raised by this package."""


class LengthMismatchError(CubeballError, ValueError):
    """Two vectors that must have equal length do not."""


class CoordinateRangeError(CubeballError, ValueError):
    """A 1-based coordinate lies outside [1, n]."""


class LevelRangeError(CubeballError, ValueError):
    """A requested chain level lies outside [k, n-k]."""


class OddLengthError(CubeballError, ValueError):
    """An operation defined only for even input length got an odd one."""


class DimensionError(CubeballError, ValueError):
    """A cube dimension lies below an operation's domain.

    The maps and their inverses need even n >= 2 (ball vectors of length at
    least 3), flip probabilities even n >= 2, counting n >= 1.
    """


class ParityError(CubeballError, ValueError):
    """Integer arguments violate a required parity constraint."""


class NotInBallError(CubeballError, ValueError):
    """A vector of length n+1 does not have weight > n/2."""


class NotInImageError(CubeballError, ValueError):
    """An inverse map was applied to a point outside the forward image."""


class BijectivityError(CubeballError, RuntimeError):
    """An exhaustive sweep found a collision or a missed ball point."""


class EnumerationCapError(CubeballError, RuntimeError):
    """An enumeration would exceed the configured cap.

    ``needed`` is the item count, or a product such as ``"n * 2^n"`` when the
    count is too large to write out.
    """

    def __init__(self, needed: "int | str", cap: int, what: str = "items"):
        self.needed = needed
        self.cap = cap
        super().__init__(f"enumeration of {needed} {what} exceeds cap {cap}")


class DigitLimitError(CubeballError, RuntimeError):
    """An exact answer has more decimal digits than the interpreter prints.

    The limit is ``sys.get_int_max_str_digits()``, 4300 by default.
    """
