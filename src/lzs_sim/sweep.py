"""Stationary well populations over a rectangular (detuning, amplitude) grid.

The rate is separable: the Bessel weights depend only on a row's
amplitude, the Lorentzian denominators only on a column's detuning.  So
each map is computed from one plan, built once from the model, drive
frequency and dephasing, kernel, detuning axis and largest amplitude.
It holds the static part of the generator, the pumped crossings'
targets, and a ``rates.PhotonTable`` with every Lorentzian denominator
of the map.  A row (one amplitude) then does only amplitude-dependent
work: its Bessel weights divided by its slice of the table give the
pumped rates of every crossing at every detuning, the generators are
stacked on the static part, and one batched LU solve gives every
point's populations.  A point whose solution fails the acceptance
check, or every point of a row whose stack holds a singular generator,
is solved again from its own generator in the stack by
``stationary_solve``, which falls back to relaxation in time.  The
photon window and the acceptance check are those of the single-point
functions, so wherever the direct solve is accepted the map agrees with
``probe`` to roundoff.  Where it is not, the two relax generators that
differ in the last bits of a rate; the relaxation runs until the
populations stop moving, so on a reducible model whose closed classes
are kept apart by exact zeros they still agree within 1e-12.

With more than one worker, rows are farmed out to worker processes and
reassembled by index: each worker receives the plan once, and each row
only its amplitude.  The process pool is imported only then, so a
one-worker run never loads it.  Each row is computed by the same pure
function regardless of worker count, and no step depends on BLAS
threading, which makes the result bit-identical for any parallel
layout.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, ValidationError
from .master import (
    RateMatrix,
    _generator_layout,
    left_population,
    stationary_solve,
    stationary_stack,
)
from .model import DriveParams, QubitModel, crossing_position
from .rates import PhotonTable, RateKernelParams

__all__ = ["SweepGrid", "PopulationMap", "run_sweep", "run_frequency_batch"]


@dataclass(frozen=True)
class SweepGrid:
    """Inclusive, uniformly spaced axes: detuning (columns) and
    amplitude (rows), both in GHz."""

    eps_min: float
    eps_max: float
    n_eps: int
    amp_min: float
    amp_max: float
    n_amp: int

    def __post_init__(self):
        for name in ("eps_min", "eps_max", "amp_min", "amp_max"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value)):
                raise ValidationError(f"{name} must be a finite number")
            object.__setattr__(self, name, float(value))
        for name in ("n_eps", "n_amp"):
            count = getattr(self, name)
            if not isinstance(count, int) or isinstance(count, bool) or count < 2:
                raise ValidationError(f"{name} must be an integer >= 2")
        if not self.eps_max > self.eps_min:
            raise ValidationError("eps_max must exceed eps_min")
        if not self.amp_max > self.amp_min:
            raise ValidationError("amp_max must exceed amp_min")
        if self.amp_min < 0:
            raise ValidationError("drive amplitudes must be >= 0")

    @property
    def eps_values(self) -> np.ndarray:
        return np.linspace(self.eps_min, self.eps_max, self.n_eps)

    @property
    def amp_values(self) -> np.ndarray:
        return np.linspace(self.amp_min, self.amp_max, self.n_amp)

    @property
    def shape(self) -> tuple[int, int]:
        """(n_amp, n_eps): row index selects amplitude, column detuning."""
        return (self.n_amp, self.n_eps)


@dataclass(frozen=True)
class PopulationMap:
    """Left-well population P_L over a sweep grid.

    values[k, m] is P_L at amplitude amp_values[k], detuning
    eps_values[m].  fingerprint hashes the physical configuration
    (model, frequency, dephasing, kernel) so maps can be traced back to
    the inputs that produced them.
    """

    grid: SweepGrid
    values: np.ndarray
    frequency: float
    fingerprint: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.shape:
            raise ValidationError(
                f"map shape {vals.shape} does not match grid {self.grid.shape}"
            )
        if not np.all(np.isfinite(vals)):
            raise ValidationError("map values must be finite")
        if np.any(vals < -1e-12) or np.any(vals > 1.0 + 1e-9):
            raise ValidationError("map values must lie in [0, 1]")
        if not (math.isfinite(self.frequency) and self.frequency > 0):
            raise ValidationError("frequency must be positive and finite")
        vals = np.clip(vals, 0.0, 1.0)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def model_fingerprint(
    model: QubitModel, drive: DriveParams, kernel: RateKernelParams
) -> str:
    """Hex digest of the physical configuration behind a map.

    Amplitude is excluded: it is the sweep's row variable, not part of
    the fixed configuration.
    """
    digest = hashlib.sha256(b"lzs-map-v1")
    for part in (
        model.left_offsets,
        model.right_offsets,
        model.crossings,
        model.left_relax,
        model.right_relax,
        model.left_to_right,
        model.right_to_left,
    ):
        digest.update(np.ascontiguousarray(part, dtype=float).tobytes())
    if model.leak is None:
        digest.update(b"\x00")
    else:
        digest.update(struct.pack("<qd", model.leak.threshold, model.leak.return_rate))
    cutoff = -1.0 if kernel.lorentz_cutoff is None else kernel.lorentz_cutoff
    digest.update(
        struct.pack("<ddqd", drive.frequency, drive.dephasing, kernel.n_margin, cutoff)
    )
    return digest.hexdigest()


class SweepPlan:
    """The amplitude-independent work of one map: the static generator,
    the pumped crossings' targets and the Lorentzian denominator table,
    for drive.frequency and drive.dephasing at amplitudes up to
    drive.amplitude."""

    def __init__(
        self,
        model: QubitModel,
        drive: DriveParams,
        kernel: RateKernelParams,
        eps_values: np.ndarray,
    ):
        self.static, pumps = _generator_layout(model)
        self.targets = [targets for _, _, _, targets in pumps]
        self.photons = PhotonTable(
            [delta for _, _, delta, _ in pumps],
            [crossing_position(model, i, j) for i, j, _, _ in pumps],
            eps_values,
            drive,
            kernel,
        )
        self.eps_values = eps_values
        self.states = model.states()
        self.n_left = model.n_left

    def generators(self, amp: float) -> np.ndarray:
        """Generators at every detuning, stacked as (M, n, n), with the
        entries ``build_rate_matrix`` gives from the same rates."""
        rates = self.photons.rates(amp)
        mats = np.repeat(self.static[None], self.eps_values.size, axis=0)
        # One crossing at a time: a buffered fancy += would drop the second
        # of two rates pumping into the same leak entry.
        for targets, w in zip(self.targets, rates):
            for to, frm in targets:
                mats[:, to, frm] += w
        diag = np.arange(self.static.shape[0])
        mats[:, diag, diag] = -mats.sum(axis=1)
        return mats

    def row(self, amp: float) -> np.ndarray:
        """P_L at every detuning of amplitude amp."""
        mats = self.generators(amp)
        p, ok = stationary_stack(mats)
        row = np.empty(self.eps_values.size)
        row[ok] = left_population(p[ok], self.n_left)
        for m in np.flatnonzero(~ok):
            try:
                pv = stationary_solve(RateMatrix(mats[m], self.states))
            except NonConvergent as exc:
                raise NonConvergent(
                    str(exc), eps=float(self.eps_values[m]), amp=amp
                ) from exc
            row[m] = pv.p_left
        return row


# The plan of the map a pool worker computes rows of, set once per
# worker by its initializer.
_worker_plan = None


def _init_worker(plan: SweepPlan):
    global _worker_plan
    _worker_plan = plan


def _worker_row(amp: float) -> np.ndarray:
    return _worker_plan.row(amp)


def run_sweep(
    model: QubitModel,
    drive_base: DriveParams,
    grid: SweepGrid,
    kernel: RateKernelParams = RateKernelParams(),
    workers: int = 1,
) -> PopulationMap:
    """P_L map over the grid; drive_base supplies frequency and
    dephasing while its amplitude is overridden row by row.

    A NonConvergent grid point aborts the whole sweep, with the
    offending (eps, amp) coordinates attached to the exception.
    """
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError("workers must be a positive integer")
    amps = grid.amp_values.tolist()
    top = DriveParams(amps[-1], drive_base.frequency, drive_base.dephasing)
    plan = SweepPlan(model, top, kernel, grid.eps_values)
    values = np.empty(grid.shape)
    # The pool starts every worker at once, so never ask for more than rows.
    workers = min(workers, grid.n_amp)
    if workers == 1:
        for k, amp in enumerate(amps):
            values[k] = plan.row(amp)
    else:
        import concurrent.futures

        with concurrent.futures.ProcessPoolExecutor(
            max_workers=workers, initializer=_init_worker, initargs=(plan,)
        ) as pool:
            for k, row in enumerate(pool.map(_worker_row, amps)):
                values[k] = row
    return PopulationMap(
        grid=grid,
        values=values,
        frequency=drive_base.frequency,
        fingerprint=model_fingerprint(model, drive_base, kernel),
    )


def run_frequency_batch(
    model: QubitModel,
    drive_list,
    grid: SweepGrid,
    kernel: RateKernelParams = RateKernelParams(),
    workers: int = 1,
) -> list[PopulationMap]:
    """One map per drive, sharing model and grid across the batch."""
    drive_list = list(drive_list)
    if not drive_list:
        raise ValidationError("drive_list must not be empty")
    return [run_sweep(model, drive, grid, kernel, workers) for drive in drive_list]
