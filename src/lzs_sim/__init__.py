"""Interference maps of a periodically driven multilevel double-well qubit.

The package computes driven interwell transition rates (a comb of
photon-assisted resonances weighted by squared Bessel functions), feeds
them into a classical population rate equation, and sweeps the
stationary well population over detuning and drive amplitude to produce
the characteristic diamond-shaped interference maps.
"""

from .analysis import (
    DiamondBoundary,
    Regime,
    RegimeReport,
    diamond_boundaries,
    regime_classify,
)
from .errors import (
    DegenerateSystem,
    InsufficientLevels,
    NonConvergent,
    ParseError,
    SimulationError,
    ValidationError,
)
from .master import (
    PopulationVector,
    RateMatrix,
    build_rate_matrix,
    stationary_four_state,
    stationary_solve,
    stationary_three_state,
)
from .model import (
    DriveParams,
    LeakConfig,
    QubitModel,
    StateIndex,
    Well,
    crossing_position,
)
from .rates import RateKernelParams, bessel_jn, lzs_rate
from .sweep import PopulationMap, SweepGrid, run_frequency_batch, run_sweep

__version__ = "1.0.0"

__all__ = [
    "DegenerateSystem",
    "DiamondBoundary",
    "DriveParams",
    "InsufficientLevels",
    "LeakConfig",
    "NonConvergent",
    "ParseError",
    "PopulationMap",
    "PopulationVector",
    "QubitModel",
    "RateKernelParams",
    "RateMatrix",
    "Regime",
    "RegimeReport",
    "SimulationError",
    "StateIndex",
    "SweepGrid",
    "ValidationError",
    "Well",
    "bessel_jn",
    "build_rate_matrix",
    "crossing_position",
    "diamond_boundaries",
    "lzs_rate",
    "regime_classify",
    "run_frequency_batch",
    "run_sweep",
    "stationary_four_state",
    "stationary_solve",
    "stationary_three_state",
]
