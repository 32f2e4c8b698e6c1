"""Exception types shared across the package, and the argument checks
that raise `ParameterError`.

The CLI maps these onto exit codes: parameter and domain problems are
usage errors (exit 2), numeric and parse failures are runtime errors
(exit 1).
"""

import math
import numbers

REAL_RANGE = (1e-100, 1e100)  # of a finite real parameter (`check_real`)


class ParameterError(ValueError):
    """An argument is outside its documented domain (wrong type, range, or combination)."""


class DomainError(ValueError):
    """Input data violates a filter's value precondition (e.g. negative pixels)."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class PgmParseError(ValueError):
    """A PGM stream could not be decoded.

    Carries the byte offset where decoding failed; the offset is also
    embedded in the message.
    """

    def __init__(self, message: str, byte_offset: int):
        super().__init__(f"{message} (byte offset {byte_offset})")
        self.byte_offset = byte_offset


def check_real(value, name: str, *, nonnegative: bool = False, at_most: float = math.inf,
               allow_inf: bool = False) -> float:
    """``value`` as a float if it is a real number (not a bool) in `REAL_RANGE`,
    where its square and reciprocal square are normal floats, and at most
    ``at_most``; or 0 where ``nonnegative``, or +inf where ``allow_inf``."""
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if real and (REAL_RANGE[0] <= value <= min(at_most, REAL_RANGE[1])
                 or (nonnegative and value == 0) or (allow_inf and value == math.inf)):
        return float(value)
    sign = "non-negative" if nonnegative else "positive"
    bound = f" <= {at_most:g}" if at_most < math.inf else ""
    kind = "real" if allow_inf else "finite real"
    span = f" (finite values lie in {list(REAL_RANGE)})" if real and 0 < value < at_most else ""
    raise ParameterError(f"{name} must be a {sign} {kind}{bound}, got {value!r}{span}")


def nearest_real(value: float, *, nonnegative: bool = False) -> float:
    """The value nearest to ``value`` >= 0 that `check_real` accepts with
    ``allow_inf`` (and ``nonnegative``): ``value`` itself if in `REAL_RANGE`
    or +inf, else the nearer end of the range (or 0, where ``nonnegative``)."""
    low, high = REAL_RANGE
    if low <= value <= high or value == math.inf:
        return value
    if value > high:
        return high
    return 0.0 if nonnegative and value < low / 2 else low


def check_int(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int if it is an integer (not a bool) in [low, high]."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low and (high is None or value <= high)):
        return int(value)
    bound = f" in [{low}, {high}]" if high is not None else f" >= {low}"
    raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")


def check_choice(value, name: str, choices: tuple[str, ...]) -> str:
    """``value`` if it is a str in ``choices``."""
    if isinstance(value, str) and value in choices:
        return value
    raise ParameterError(f"{name} must be one of {choices}, got {value!r}")
