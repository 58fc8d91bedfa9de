"""Exception types shared across the package."""


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


class StepRejected(SimulationError):
    """The linear solve inside an implicit integration step failed."""


class DegenerateSystem(SimulationError):
    """A closed-form stationary solution was requested for an all-zero
    rate system, which has no distinguished stationary state."""


class InsufficientLevels(SimulationError):
    """An analysis needs more ladder levels than the model provides."""


class ValidationError(ValueError):
    """A constructed object or parsed configuration violates an invariant."""


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
