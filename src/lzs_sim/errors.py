"""Exception types shared across the package, and what the API accepts as a number or a count."""

import contextlib
import math
import numbers

__all__ = [
    "SimulationError",
    "NonConvergent",
    "ValidationError",
    "ParseError",
]


class SimulationError(Exception):
    """Base class for runtime failures of the simulation engine."""


class NonConvergent(SimulationError):
    """The stationary solve of a point failed its acceptance check, or
    the point has several closed classes of states and no right-well
    ground state to start from.

    Carries the (eps, amp) grid coordinates when raised from a sweep.
    """

    def __init__(self, message, eps=None, amp=None):
        if eps is not None or amp is not None:
            message = f"{message} (eps={eps} GHz, amp={amp} GHz)"
        super().__init__(message)
        self.eps = eps
        self.amp = amp


class ValidationError(ValueError):
    """A constructed object or parsed configuration violates an invariant."""


def _number(value, message: str, at_least=-math.inf, above=-math.inf) -> float:
    """value as a float if it is a number: a finite real that is not a
    bool (numpy scalars count), at least at_least and above above.
    Anything else raises ValidationError(message)."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond float's range
            number = float(value)
            if math.isfinite(number) and number >= at_least and number > above:
                return number
    raise ValidationError(message)


def _count(value, message: str, at_least: int) -> int:
    """value as an int if it is a count: an integer that is not a bool
    (numpy integers count), at least at_least.  Anything else raises
    ValidationError(message)."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= at_least:
        return int(value)
    raise ValidationError(message)


class ParseError(ValueError):
    """Malformed configuration text.  Reports 1-based line and column."""

    def __init__(self, message, line, column=1):
        # args are the constructor's, so the error pickles.
        super().__init__(message, line, column)
        self.line = line
        self.column = column

    def __str__(self):
        message, line, column = self.args
        return f"line {line}, column {column}: {message}"
