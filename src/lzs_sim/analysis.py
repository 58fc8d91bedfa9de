"""Analytic geometry of the interference maps.

The drive reaches the crossing at D_ij once its amplitude exceeds the
distance |eps - D_ij|, so each crossing owns a V-shaped boundary in the
(detuning, amplitude) plane with apex (D_ij, 0).  Successive V's are
separated by the ladder spacing; comparing that spacing with the
resonance-peak span (one drive quantum) splits parameter space into a
low-frequency regime of well-separated diamonds and a high-frequency
regime where they merge.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import _number
from .model import DriveParams, QubitModel, crossing_position

__all__ = [
    "DiamondBoundary",
    "Regime",
    "RegimeReport",
    "diamond_boundaries",
    "regime_classify",
]


@dataclass(frozen=True)
class DiamondBoundary:
    """Reachability boundary A = |eps - position| of one avoided crossing."""

    left_level: int
    right_level: int
    position: float


class Regime(enum.Enum):
    LOW_FREQUENCY = "LowFrequency"
    HIGH_FREQUENCY = "HighFrequency"


@dataclass(frozen=True)
class RegimeReport:
    """Comparison of the resonance-peak span delta_a = omega with the
    smallest consecutive diamond spacing delta_d; the ratio and the regime
    follow from the two."""

    delta_a: float
    delta_d: float
    spacing_pair: tuple[int, int]

    def __post_init__(self):
        for name in ("delta_a", "delta_d"):
            value = _number(getattr(self, name), f"{name} must be positive and finite", above=0)
            object.__setattr__(self, name, value)

    @property
    def ratio(self) -> float:
        """delta_a / delta_d; infinite when the quotient overflows."""
        return self.delta_a / self.delta_d

    @property
    def regime(self) -> Regime:
        """HighFrequency from a ratio of 1 up, else LowFrequency."""
        return Regime.HIGH_FREQUENCY if self.ratio >= 1.0 else Regime.LOW_FREQUENCY


def diamond_boundaries(model: QubitModel) -> tuple[DiamondBoundary, ...]:
    """One V-shaped boundary per nonzero crossing, apex at its position."""
    return tuple(
        DiamondBoundary(
            left_level=i,
            right_level=j,
            position=crossing_position(model, i, j),
        )
        for i, j, _ in model.coupled_pairs()
    )


def regime_classify(model: QubitModel, drive: DriveParams) -> RegimeReport | None:
    """Classify the drive as LowFrequency or HighFrequency.

    Diamonds merge once one drive quantum spans the smallest gap between
    consecutive left-ladder crossings with the right-well ground state;
    the boundary case is labeled HighFrequency.  A model with one
    left-well level has no such gap, and gets None.
    """
    if model.n_left < 2:
        return None
    spacings = np.diff(model.left_offsets)
    idx = int(np.argmin(spacings))
    delta_d = float(spacings[idx])
    return RegimeReport(delta_a=drive.frequency, delta_d=delta_d, spacing_pair=(idx, idx + 1))
