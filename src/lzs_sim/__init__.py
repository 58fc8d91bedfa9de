"""Interference maps of a periodically driven multilevel double-well qubit.

The package computes driven interwell transition rates (a comb of
photon-assisted resonances weighted by squared Bessel functions), feeds
them into a classical population rate equation, and sweeps the
stationary well population over detuning and drive amplitude to produce
the characteristic diamond-shaped interference maps.

The public names are those of the modules' ``__all__``, republished here.
"""

from .analysis import *
from .errors import *
from .master import *
from .model import *
from .rates import *
from .sweep import *

__version__ = "1.0.0"

__all__ = [
    *analysis.__all__,
    *errors.__all__,
    *master.__all__,
    *model.__all__,
    *rates.__all__,
    *sweep.__all__,
]
