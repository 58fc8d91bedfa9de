"""Stationary well populations over a rectangular (detuning, amplitude) grid.

The rate is separable: the Bessel weights depend only on a row's
amplitude, the Lorentzian denominators only on a column's detuning.  So
each map is computed from one plan, built from the model, drive
frequency and dephasing, kernel, detuning axis and largest amplitude.
It holds the generator's pattern (every entry that is nonzero at some
point) with its static values, the entries each pumped crossing adds to,
and a ``rates.PhotonTable`` with every Lorentzian denominator of the map.

Rows are solved in blocks of whole rows, up to about 2048 points.  The
table gives every rate of the block, with ``lzs_rate``'s bits; the
pattern values are written as (entries, points), the static value first
and then each crossing's rate in pump order, so each entry has
``build_rate_matrix``'s bits.  ``master.solve_points`` then solves each
point on the GTH plan of its own nonzero entries (a ``lorentz_cutoff``
zero drops an entry), all points of one pattern in one call; with
several closed classes it gives the populations reached from 0R.
``probe`` (``stationary_solve`` of ``build_rate_matrix``) takes the same
path on a block of one, so a map value equals what it gives, bit for
bit.  A point that fails the acceptance check aborts the run.

One scheduler runs every map of a run; ``run_sweep`` is a batch of one.
Each map is cut into tasks (map, first row, amplitudes), one block each,
capped at ceil(rows / workers) rows with more than one worker, and
W = min(workers, tasks) processes share them: this process forks W - 1
children once per run, and process w writes tasks w, w + W, ... into
one shared anonymous mapping, building a map's plan at the first of
that map's tasks it reaches.  With W = 1 (or without ``os.fork``) the
same loop writes every task, in order, into an ordinary array.  A child
reports only its exit status.  If any share fails, every child is
reaped and this process computes all tasks again, in order: a failure
that recurs raises exactly the exception a one-worker run raises, and
one that was a child's alone leaves a complete run.  A point's bits
depend neither on its block nor on its process nor on BLAS threading
(no step uses BLAS), which makes the result bit-identical for any
worker count.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, ValidationError
from .master import _chain, _generator_layout, solve_points
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
            if isinstance(value, bool) or not (
                isinstance(value, (int, float)) and math.isfinite(value)
            ):
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


# Rows are solved in blocks of about this many points: enough to spread
# the engine's per-call cost, few enough to keep its buffers small.
_BLOCK_POINTS = 2048


class SweepPlan:
    """The amplitude-independent work of one map, for drive.frequency and
    drive.dephasing at amplitudes up to drive.amplitude: the generator's
    pattern (rows, cols) with its static values, each pumped crossing's
    entries and the Lorentzian denominator table."""

    def __init__(
        self,
        model: QubitModel,
        drive: DriveParams,
        kernel: RateKernelParams,
        eps_values: np.ndarray,
    ):
        static, pumps = _generator_layout(model)
        pattern = static != 0.0
        for _, _, _, targets in pumps:
            for to, frm in targets:
                pattern[to, frm] = True
        rows, cols = np.nonzero(pattern)
        entry = {(to, frm): e for e, (to, frm) in enumerate(zip(rows.tolist(), cols.tolist()))}
        self.static = static[rows, cols]
        self.pumped = [[entry[t] for t in targets] for _, _, _, targets in pumps]
        self.photons = PhotonTable(
            [delta for _, _, delta, _ in pumps],
            [crossing_position(model, i, j) for i, j, _, _ in pumps],
            eps_values,
            drive,
            kernel,
        )
        self.rows, self.cols, self.n = rows, cols, static.shape[0]
        self.eps_values = eps_values
        self.n_left = model.n_left

    def values(self, amps) -> np.ndarray:
        """Pattern values (entries, len(amps) * n_eps) at every detuning of
        each amplitude in amps, row after row, with the bits
        ``build_rate_matrix`` gives: the static value, then each
        crossing's rate in pump order."""
        n_points = len(amps) * self.eps_values.size
        rates = self.photons.rates(amps).reshape(len(self.pumped), n_points)
        values = np.repeat(self.static[:, None], n_points, axis=1)
        # One crossing at a time: a buffered fancy += would drop the second
        # of two rates pumping into the same leak entry.
        for entries, w in zip(self.pumped, rates):
            values[entries] += w
        return values

    def block(self, amps) -> np.ndarray:
        """P_L at every detuning of each amplitude in amps, as
        (len(amps), n_eps).  Raises NonConvergent naming the block's first
        point that fails the acceptance check."""
        q, ok = solve_points(self.rows, self.cols, self.n, self.n_left, self.values(amps))
        n_eps = self.eps_values.size
        if not ok.all():
            point = int(np.argmin(ok))
            raise NonConvergent(
                "stationary solve failed the acceptance check",
                eps=float(self.eps_values[point % n_eps]),
                amp=amps[point // n_eps],
            )
        return _chain(q[: self.n_left]).reshape(len(amps), n_eps)


def _compute(tasks, plan_of, out, first: int, step: int):
    """Write tasks first, first + step, ... into out: task (m, k, amps)
    gives rows k, k + 1, ... of map m.  A map's plan is built at the
    first of its tasks that this process reaches."""
    planned = None
    for m, k, amps in tasks[first::step]:
        if m != planned:
            plan, planned = plan_of(m), m
        out[m, k : k + len(amps)] = plan.block(amps)


def _forked(tasks, plan_of, out, workers: int) -> bool:
    """Compute the tasks in this process and workers - 1 forked children,
    process w taking tasks w, w + workers, ... of out, a shared mapping.
    True when every share is written; a child reports only its exit
    status.  Every child is reaped before this returns."""
    children, ok = [], True
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _compute(tasks, plan_of, out, w, workers)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        _compute(tasks, plan_of, out, 0, workers)
    except Exception:
        ok = False
    finally:
        for pid in children:
            ok &= os.waitpid(pid, 0)[1] == 0
    return ok


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
    return run_frequency_batch(model, [drive_base], grid, kernel, workers)[0]


def run_frequency_batch(
    model: QubitModel,
    drive_list,
    grid: SweepGrid,
    kernel: RateKernelParams = RateKernelParams(),
    workers: int = 1,
) -> list[PopulationMap]:
    """One map per drive, sharing model and grid across the batch; each
    drive supplies frequency and dephasing for its map."""
    if not isinstance(workers, int) or isinstance(workers, bool) or workers < 1:
        raise ValidationError("workers must be a positive integer")
    drive_list = list(drive_list)
    if not drive_list:
        raise ValidationError("drive_list must not be empty")
    amps, shape = grid.amp_values.tolist(), (len(drive_list),) + grid.shape

    def plan_of(m: int) -> SweepPlan:
        top = DriveParams(amps[-1], drive_list[m].frequency, drive_list[m].dephasing)
        return SweepPlan(model, top, kernel, grid.eps_values)

    rows = max(1, _BLOCK_POINTS // grid.n_eps)
    if workers > 1:
        rows = min(rows, -(-grid.n_amp // workers))
    tasks = [
        (m, k, amps[k : k + rows]) for m in range(shape[0]) for k in range(0, grid.n_amp, rows)
    ]
    # Every process gets a task, so never start more than there are tasks.
    workers = min(workers, len(tasks)) if hasattr(os, "fork") else 1
    if workers == 1:
        out = np.empty(shape)
    else:
        import mmap  # here, so that a one-worker run never loads it

        out = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)
    if workers == 1 or not _forked(tasks, plan_of, out, workers):
        _compute(tasks, plan_of, out, 0, 1)
    return [
        PopulationMap(
            grid=grid,
            values=out[m],
            frequency=drive.frequency,
            fingerprint=model_fingerprint(model, drive, kernel),
        )
        for m, drive in enumerate(drive_list)
    ]
