"""Exception types shared across the package, and the argument checks
that raise `ParameterError`.

The CLI maps these onto exit codes: parameter and domain problems are
usage errors (exit 2), numeric and parse failures are runtime errors
(exit 1).
"""

import math
import numbers


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
    """``value`` as a float if it is a real number (not a bool) that is
    positive, or non-negative, at most ``at_most``, and finite unless
    ``allow_inf`` admits +inf."""
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (math.isfinite(value) or (allow_inf and value == math.inf))
            and (value >= 0 if nonnegative else value > 0) and value <= at_most):
        return float(value)
    sign = "non-negative" if nonnegative else "positive"
    bound = f" <= {at_most:g}" if at_most < math.inf else ""
    kind = "real" if allow_inf else "finite real"
    raise ParameterError(f"{name} must be a {sign} {kind}{bound}, got {value!r}")


def check_int(value, name: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as an int if it is an integer (not a bool) in [low, high]."""
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= low and (high is None or value <= high)):
        return int(value)
    bound = f" in [{low}, {high}]" if high is not None else f" >= {low}"
    raise ParameterError(f"{name} must be an integer{bound}, got {value!r}")
