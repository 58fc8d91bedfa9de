"""Stationary well populations over a rectangular (detuning, amplitude) grid.

A row of the map (one amplitude) is computed as arrays: the pumped rates
of every crossing at every detuning of the row come from one photon sum
(``rates.row_rates``), the generators are stacked on one static part,
and one batched LU solve gives every point's populations.  A point whose
solution fails the acceptance check, or every point of a row whose stack
holds a singular generator, is solved again from its own generator in
the stack by ``stationary_solve``, which falls back to relaxation in
time.  The photon window and the acceptance check are those of the
single-point functions, so wherever the direct solve is accepted the map
agrees with ``probe`` to roundoff.  Where it is not, the two relax
generators that differ in the last bits of a rate; the relaxation runs
until the populations stop moving, so on a reducible model whose closed
classes are kept apart by exact zeros they still agree within 1e-12.

Rows are farmed out to worker processes and reassembled by index.  Each
row is computed by the same pure function regardless of worker count,
and no step depends on BLAS threading, which makes the result
bit-identical for any parallel layout.
"""

from __future__ import annotations

import hashlib
import math
import struct
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, ValidationError
from .master import (
    RateMatrix,
    left_population,
    rate_matrix_stack,
    stationary_solve,
    stationary_stack,
)
from .model import DriveParams, QubitModel
from .rates import RateKernelParams

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


def _row_worker(payload) -> np.ndarray:
    model, drive_base, kernel, eps_values, amp = payload
    drive = DriveParams(
        amplitude=float(amp),
        frequency=drive_base.frequency,
        dephasing=drive_base.dephasing,
    )
    mats = rate_matrix_stack(model, eps_values, drive, kernel)
    p, ok = stationary_stack(mats)
    row = np.empty(eps_values.size)
    row[ok] = left_population(p[ok], model.n_left)
    for m in np.flatnonzero(~ok):
        eps = float(eps_values[m])
        try:
            pv = stationary_solve(RateMatrix(mats[m], model.states()))
        except NonConvergent as exc:
            raise NonConvergent(str(exc), eps=eps, amp=float(amp)) from exc
        row[m] = pv.p_left
    return row


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
    eps_values = grid.eps_values
    payloads = [
        (model, drive_base, kernel, eps_values, amp) for amp in grid.amp_values
    ]
    values = np.empty(grid.shape)
    # The pool starts every worker at once, so never ask for more than rows.
    workers = min(workers, grid.n_amp)
    if workers == 1:
        for k, payload in enumerate(payloads):
            values[k] = _row_worker(payload)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for k, row in enumerate(pool.map(_row_worker, payloads)):
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
