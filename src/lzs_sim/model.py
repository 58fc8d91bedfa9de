"""Multilevel double-well system definition and crossing geometry.

A device is described by two ladders of diabatic levels (one per well),
the avoided-crossing sizes between left and right states, downhill
relaxation rates, and an optional above-barrier leak state.  Energies
follow the linear diabatic convention

    E(i, left)(eps)  = +eps/2 + left_offsets[i]
    E(j, right)(eps) = -eps/2 + right_offsets[j]

so a single global detuning eps (GHz, hbar = 1) parameterizes every
level crossing.  The pair (i, left)/(j, right) is degenerate at
eps = right_offsets[j] - left_offsets[i].

Every scalar a constructor takes is a number (``errors._number``) or a
count (``errors._count``), stored as float or int.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields

import numpy as np

from .errors import ValidationError, _count, _number

__all__ = [
    "Well",
    "StateIndex",
    "LeakConfig",
    "QubitModel",
    "DriveParams",
    "crossing_position",
]


class Well(enum.Enum):
    LEFT = "L"
    RIGHT = "R"
    LEAK = "leak"


@dataclass(frozen=True)
class StateIndex:
    """Flat label for one diabatic state: a well plus a ladder level.

    The leak state carries no level (``level is None``).
    """

    well: Well
    level: int | None

    def __post_init__(self):
        if not isinstance(self.well, Well):
            raise ValidationError(f"well must be a Well, got {self.well!r}")
        if self.well is Well.LEAK:
            if self.level is not None:
                raise ValidationError("leak state has no level index")
        else:
            level = _count(self.level, "level must be a nonnegative integer", 0)
            object.__setattr__(self, "level", level)

    @property
    def label(self) -> str:
        if self.well is Well.LEAK:
            return "leak"
        return f"{self.level}{self.well.value}"


@dataclass(frozen=True)
class LeakConfig:
    """Above-barrier leak: crossings whose partner level index is at or
    above ``threshold`` pump into a single non-local state, which returns
    with equal probability (rate ``return_rate/2`` each) to the two
    ground states."""

    threshold: int
    return_rate: float

    def __post_init__(self):
        threshold = _count(self.threshold, "leak threshold must be a nonnegative integer", 0)
        rate = _number(self.return_rate, "leak return rate must be positive and finite", above=0)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "return_rate", rate)


def _frozen(values, shape, what) -> np.ndarray:
    """values as a float array of the given shape whose memory is an
    immutable ``bytes`` object, so neither it nor any view of it can be
    made writeable.  Its entries are numbers (``errors._number``): an
    ndarray of an integer or float dtype converts directly, anything
    else entry by entry.  Another shape, a ragged sequence or an entry
    that is not a finite number raises ValidationError, led by what.
    Every array that QubitModel, RateMatrix, PopulationVector and
    PopulationMap store comes from here."""
    numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
    arr = values if numeric else np.asarray(values, dtype=object)
    if arr.shape != shape:
        raise ValidationError(f"{what} must have shape {shape}, got {arr.shape}")
    message = f"{what} entries must be finite"
    if not numeric:
        values = [_number(v, message) for v in arr.flat]
    arr = np.asarray(values, dtype=float).reshape(shape)
    if not np.isfinite(arr).all():
        raise ValidationError(message)
    return np.frombuffer(arr.tobytes()).reshape(shape)


def _rebuilt(self):
    """``__reduce__`` of the classes whose arrays come from ``_frozen``:
    ``pickle``, ``copy.copy`` and ``copy.deepcopy`` rebuild through the
    constructor, so a copy is checked and frozen as the original was."""
    return type(self), tuple(getattr(self, f.name) for f in fields(self))


def _ladder(offsets, name) -> tuple[float, ...]:
    vals = tuple(_number(v, f"{name} entries must be finite") for v in offsets)
    if not vals:
        raise ValidationError(f"{name} must contain at least one level")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ValidationError(f"{name} must be strictly increasing")
    return vals


@dataclass(frozen=True, eq=False)
class QubitModel:
    """Immutable device description.

    Parameters
    ----------
    left_offsets, right_offsets:
        Level offsets (GHz) of each well's ladder, strictly increasing.
    crossings:
        Matrix (n_left x n_right) of avoided-crossing sizes (GHz) between
        |i,L> and |j,R>; zero entries mean no coupling.
    left_relax, right_relax:
        Intrawell relaxation rates (GHz); entry [i, k] is the downward
        rate from level i to level k and must vanish unless k < i.
    left_to_right, right_to_left:
        Interwell relaxation rates (GHz); [i, j] is the rate from
        |i, source> to |j, destination>.
    leak:
        Optional :class:`LeakConfig`.

    The five arrays are stored as float copies that cannot be made
    writeable: a write, or ``setflags(write=True)`` on them or on any
    view of them, raises ``ValueError``.  ``np.array(model.crossings)``
    gives a writeable copy.  A ``pickle`` round trip, ``copy.copy`` or
    ``copy.deepcopy`` rebuilds the model through its constructor, so the
    copy is checked and frozen as the original was.  Models compare and
    hash by identity.
    """

    left_offsets: tuple[float, ...]
    right_offsets: tuple[float, ...]
    crossings: np.ndarray
    left_relax: np.ndarray = None
    right_relax: np.ndarray = None
    left_to_right: np.ndarray = None
    right_to_left: np.ndarray = None
    leak: LeakConfig | None = None

    def __post_init__(self):
        if self.leak is not None and not isinstance(self.leak, LeakConfig):
            raise ValidationError(f"leak must be None or a LeakConfig, got {self.leak!r}")
        left = _ladder(self.left_offsets, "left_offsets")
        right = _ladder(self.right_offsets, "right_offsets")
        object.__setattr__(self, "left_offsets", left)
        object.__setattr__(self, "right_offsets", right)
        # Every level spacing and crossing position lies within these extremes.
        extremes = (
            left[-1] - left[0],
            right[-1] - right[0],
            right[-1] - left[0],
            right[0] - left[-1],
        )
        for extreme in extremes:
            _number(extreme, "level offsets must differ by finite amounts")
        nl, nr = len(left), len(right)

        for attr, shape in (
            ("crossings", (nl, nr)),
            ("left_relax", (nl, nl)),
            ("right_relax", (nr, nr)),
            ("left_to_right", (nl, nr)),
            ("right_to_left", (nr, nl)),
        ):
            value = getattr(self, attr)
            if value is None and attr != "crossings":
                value = np.zeros(shape)
            arr = _frozen(value, shape, attr)
            if np.any(arr < 0):
                raise ValidationError(f"{attr} entries must be >= 0")
            if attr.endswith("_relax") and np.any(np.triu(arr) != 0):
                raise ValidationError(
                    f"{attr} must be strictly lower triangular (downward rates only)"
                )
            object.__setattr__(self, attr, arr)

    __reduce__ = _rebuilt

    @property
    def n_left(self) -> int:
        return len(self.left_offsets)

    @property
    def n_right(self) -> int:
        return len(self.right_offsets)

    def states(self) -> tuple[StateIndex, ...]:
        """Flat state ordering: left ladder, right ladder, then leak."""
        out = [StateIndex(Well.LEFT, i) for i in range(self.n_left)]
        out += [StateIndex(Well.RIGHT, j) for j in range(self.n_right)]
        if self.leak is not None:
            out.append(StateIndex(Well.LEAK, None))
        return tuple(out)

    def coupled_pairs(self):
        """Yield (i, j, delta) for every nonzero avoided crossing, in
        row-major order."""
        for i, j in np.argwhere(self.crossings > 0.0).tolist():
            yield i, j, float(self.crossings[i, j])


@dataclass(frozen=True)
class DriveParams:
    """Sinusoidal drive: amplitude and frequency in GHz, plus the
    dephasing rate (GHz) that sets the Lorentzian resonance width."""

    amplitude: float
    frequency: float
    dephasing: float

    def __post_init__(self):
        for name in ("amplitude", "frequency", "dephasing"):
            value = _number(getattr(self, name), f"drive {name} must be a number")
            object.__setattr__(self, name, value)
        _number(self.amplitude, "drive amplitude must be >= 0 and finite", at_least=0)
        _number(self.frequency, "drive frequency must be positive and finite", above=0)
        _number(self.dephasing, "dephasing must be positive and finite", above=0)


def crossing_position(model: QubitModel, i: int, j: int) -> float:
    """Global detuning (GHz) at which |i,L> and |j,R> are degenerate."""
    i = _count(i, "left level must be a nonnegative integer", 0)
    j = _count(j, "right level must be a nonnegative integer", 0)
    if i >= model.n_left:
        raise IndexError(f"left level {i} out of range [0, {model.n_left})")
    if j >= model.n_right:
        raise IndexError(f"right level {j} out of range [0, {model.n_right})")
    return model.right_offsets[j] - model.left_offsets[i]
