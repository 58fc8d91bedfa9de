"""Stationary well populations over a rectangular (detuning, amplitude) grid.

The rate is separable: the Bessel weights depend only on a row's
amplitude, the Lorentzian denominators only on a column's detuning.  So
each map is computed from one plan, built from the model, drive
frequency and dephasing, kernel, detuning axis and largest amplitude.
It holds the generator's pattern (every entry that is nonzero at some
point) with its static values, the entries each pumped crossing adds to,
and a ``rates.PhotonTable`` with the Lorentzian denominator of every
crossing, detuning and photon of the largest amplitude's Bessel support.
The photons depend on the amplitude alone, so the table does not grow
with the detuning axis's distance from the crossings.  The plan takes
the pattern and three columns, one item per pumped crossing in pump
order, from ``master._generator_layout``, the layout
``build_rate_matrix`` reads: the crossings' sizes and positions go to
the table as they come, and their pumped entries stay with the plan.

Rows are solved in blocks of whole rows, up to about 2048 points.  The
table gives every rate of the block, each summing its own amplitude's
photons, with ``lzs_rate``'s bits; the pattern values are written as
(entries, points), the static value first and then each crossing's rate
in pump order, so each entry has ``build_rate_matrix``'s bits.
``master.solve_points`` then solves each point on the GTH plan of its
own nonzero entries (a rate that underflows to zero drops an entry),
all points of one pattern in one call; with several closed classes it
gives the populations reached from 0R.
``probe`` (``stationary_solve`` of ``build_rate_matrix``) takes the same
path on a block of one, so a map value equals what it gives, bit for
bit.  A block solves all its points.  The acceptance check is
normwise: it fails a point whose residual ||M q||_inf passes 1e-10
||M||_inf, or whose q leaves the simplex, and also one whose generator
``RateMatrix`` rejects: an entry or a column's outflow that is not
finite.  It does not see a small population that a back-substitution
rescale took to 0 (``master.GTHPlan``).  A detuning from a crossing
that overflows makes the table's rates nan there, so it too fails at
its point, where ``lzs_rate`` rejects it.  A map's plan rejects the
whole map only where A/w + n_margin at its top amplitude passes the
Bessel kernel's range, 1e4.  A run stops at its first failing point in
(map, amplitude row, detuning) order, with the error ``probe`` gives
there: the block builds that point's generator with
``build_rate_matrix`` and re-raises its ValidationError, naming the
point, or else raises NonConvergent.  Blocks hold whole rows and run in
order, so the point and error named depend on the grid alone, not on
the block layout or the worker count.

One scheduler runs every map of ``run_frequency_batch``, in drive order.
It cuts each map into tasks (map, first row, amplitudes), one block
each, from the grid alone, and lists them map after map.  The number of
processes then follows from the run's work, counted as points times
pattern entries over all maps: W = min(workers, tasks, max(1, work //
_WORK_PER_PROCESS)), so a process is forked only for a share of the
work that pays for it (README has the ``--workers 2`` timings).  This
process forks W - 1 children once per run, and process w writes tasks
w, w + W, ... of that one list into one shared anonymous mapping,
building a map's plan at the first of that map's tasks it reaches.
With W = 1 (any run below 2 * _WORK_PER_PROCESS, or without
``os.fork``) it writes every task, in order, into that same mapping.  A
child reports only its exit status.  If any share fails, every child is
reaped and this process computes all tasks again, in order: a failure
that recurs raises exactly the exception a one-worker run raises, and
one that was a child's alone leaves a complete run.  The worker count
changes neither the tasks nor a point's bits, which depend neither on
its process nor on BLAS threading (no step uses BLAS), so the result is
bit-identical for any worker count.
"""

from __future__ import annotations

import hashlib
import math
import mmap
import os
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, ValidationError, _count, _number
from .master import _generator_layout, _simplex, _well_population, build_rate_matrix, solve_points
from .model import DriveParams, QubitModel, _rebuilt
from .rates import PhotonTable, RateKernelParams

__all__ = ["SweepGrid", "PopulationMap", "run_frequency_batch"]


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
            value = _number(getattr(self, name), f"{name} must be a finite number")
            object.__setattr__(self, name, value)
        for name in ("n_eps", "n_amp"):
            count = _count(getattr(self, name), f"{name} must be an integer >= 2", 2)
            object.__setattr__(self, name, count)
        for axis in ("eps", "amp"):
            lo, hi = getattr(self, f"{axis}_min"), getattr(self, f"{axis}_max")
            _number(hi, f"{axis}_max must exceed {axis}_min", above=lo)
            _number(hi - lo, f"{axis}_max - {axis}_min must be finite")
        _number(self.amp_min, "drive amplitudes must be >= 0", at_least=0)

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


@dataclass(frozen=True, eq=False)
class PopulationMap:
    """Left-well population P_L over a sweep grid.

    values[k, m] is P_L at amplitude amp_values[k], detuning
    eps_values[m].  fingerprint hashes the physical configuration
    (model, frequency, dephasing, kernel) so maps can be traced back to
    the inputs that produced them.

    ``values`` is a float copy, clipped to [0, 1], that cannot be made
    writeable: a write, or ``setflags(write=True)`` on it or on any view
    of it, raises ``ValueError``.  ``np.array(pmap.values)`` gives a
    writeable copy.  A ``pickle`` round trip, ``copy.copy`` or
    ``copy.deepcopy`` rebuilds the map through its constructor, so the
    copy is checked and frozen as the original was.  Maps compare and
    hash by identity.
    """

    grid: SweepGrid
    values: np.ndarray
    fingerprint: str

    def __post_init__(self):
        if not isinstance(self.grid, SweepGrid):
            raise ValidationError(f"grid must be a SweepGrid, got {self.grid!r}")
        if not isinstance(self.fingerprint, str):
            raise ValidationError(f"fingerprint must be a str, got {self.fingerprint!r}")
        vals = _simplex(self.values, self.grid.shape, "map", "map values must lie in [0, 1]")
        object.__setattr__(self, "values", vals)

    __reduce__ = _rebuilt


def model_fingerprint(
    model: QubitModel, drive: DriveParams, kernel: RateKernelParams
) -> str:
    """Hex digest of the physical configuration behind a map: sha256 of
    the tag ``lzs-map-v2`` and the ASCII ``repr`` of one tuple, holding
    the two level ladders, the five model arrays as lists, the leak
    (None, or its threshold clamped to max(n_left, n_right) and its
    return rate), the drive's frequency and dephasing and the kernel's
    n_margin.  A float's ``repr`` is exact, so the digest does not depend
    on byte order.  Every threshold at or past the ladders pumps alike,
    so all of them share one digest.

    Amplitude is excluded: it is the sweep's row variable, not part of
    the fixed configuration.
    """
    leak = model.leak
    if leak is not None:
        leak = (min(leak.threshold, max(model.n_left, model.n_right)), leak.return_rate)
    arrays = (model.crossings, model.left_relax, model.right_relax)
    arrays += (model.left_to_right, model.right_to_left)
    inputs = (model.left_offsets, model.right_offsets, *(a.tolist() for a in arrays), leak)
    inputs += (drive.frequency, drive.dephasing, kernel.n_margin)
    return hashlib.sha256(b"lzs-map-v2" + repr(inputs).encode("ascii")).hexdigest()


# Rows are solved in blocks of about this many points: enough to spread
# the engine's per-call cost, few enough to keep its buffers small.  A
# run's tasks are these blocks, whatever its worker count.
_BLOCK_POINTS = 2048
# The work, in points times pattern entries, that each process of a run
# must have: a second process starts at 2M (README has the timings).
_WORK_PER_PROCESS = 1_000_000


class SweepPlan:
    """The amplitude-independent work of one map, for drive.frequency and
    drive.dephasing at amplitudes up to drive.amplitude, from the layout
    ``master._generator_layout`` gives ``build_rate_matrix`` too: the
    generator's pattern (rows, cols) with its static values, the pumped
    column (each crossing's entries, in pump order), and the Lorentzian
    denominator table of the deltas and positions columns.  It keeps the
    model, drive and kernel to build a failing point's generator as
    ``probe`` does."""

    def __init__(
        self,
        model: QubitModel,
        drive: DriveParams,
        kernel: RateKernelParams,
        eps_values: np.ndarray,
    ):
        self.rows, self.cols, self.static, deltas, positions, self.pumped = _generator_layout(model)
        self.photons = PhotonTable(deltas, positions, eps_values, drive, kernel)
        self.model, self.drive, self.kernel = model, drive, kernel
        self.n = len(model.states())
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
        with np.errstate(over="ignore"):
            for entries, w in zip(self.pumped, rates):
                values[entries] += w
        return values

    def block(self, amps) -> np.ndarray:
        """P_L at every detuning of each amplitude in amps, as
        (len(amps), n_eps).  Every point is solved; at the first one in
        row order that is not accepted, the block raises the error
        ``probe`` gives there: ``build_rate_matrix``'s ValidationError
        where RateMatrix rejects the generator, else NonConvergent."""
        n_eps = self.eps_values.size
        q, ok = solve_points(self.rows, self.cols, self.n, self.n_left, self.values(amps))
        if not ok.all():
            point = int(np.argmin(ok))
            eps, amp = float(self.eps_values[point % n_eps]), amps[point // n_eps]
            drive = DriveParams(amp, self.drive.frequency, self.drive.dephasing)
            try:
                build_rate_matrix(self.model, eps, drive, self.kernel)
            except ValidationError as exc:
                raise ValidationError(f"{exc} (eps={eps} GHz, amp={amp} GHz)") from None
            raise NonConvergent("stationary solve failed the acceptance check", eps=eps, amp=amp)
        return _well_population(q[: self.n_left]).reshape(len(amps), n_eps)


def _schedule(model: QubitModel, n_maps: int, grid: SweepGrid, workers: int):
    """The run's tasks (map, first row, amplitudes), map after map: blocks
    of whole rows, up to _BLOCK_POINTS points, cut from the grid alone.
    And the number of processes W that share them: each process must
    have _WORK_PER_PROCESS of the run's work, counted in points times
    pattern entries, and a task, so W = min(workers, tasks, max(1, work
    // _WORK_PER_PROCESS)), or 1 without ``os.fork``."""
    work = n_maps * grid.n_eps * grid.n_amp * len(_generator_layout(model)[0])
    processes = min(workers, max(1, work // _WORK_PER_PROCESS)) if hasattr(os, "fork") else 1
    rows = max(1, _BLOCK_POINTS // grid.n_eps)
    amps = grid.amp_values.tolist()
    tasks = [(m, k, amps[k : k + rows]) for m in range(n_maps) for k in range(0, grid.n_amp, rows)]
    return tasks, min(processes, len(tasks))


def _compute(tasks, plan_of, out):
    """Write the tasks into out: task (m, k, amps) gives rows k, k + 1,
    ... of map m.  A map's plan is built at the first of its tasks in
    the list."""
    planned = None
    for m, k, amps in tasks:
        if m != planned:
            plan, planned = plan_of(m), m
        out[m, k : k + len(amps)] = plan.block(amps)


def _forked(tasks, plan_of, out, workers: int) -> bool:
    """Compute the tasks in this process and workers - 1 forked children,
    process w writing tasks w, w + workers, ... into out, a shared
    mapping.
    True when every share is written; a child reports only its exit
    status.  Every child is reaped before this returns."""
    children, ok = [], True
    try:
        for w in range(1, workers):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    _compute(tasks[w::workers], plan_of, out)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        _compute(tasks[::workers], plan_of, out)
    except Exception:
        ok = False
    finally:
        for pid in children:
            ok &= os.waitpid(pid, 0)[1] == 0
    return ok


def run_frequency_batch(
    model: QubitModel,
    drive_list,
    grid: SweepGrid,
    kernel: RateKernelParams = RateKernelParams(),
    workers: int = 1,
) -> list[PopulationMap]:
    """P_L maps over the grid, one per drive and in drive order, sharing
    the model and grid: each drive supplies its map's frequency and
    dephasing, while the amplitude is the grid's, row by row.

    The run stops at its first failing point in (map, row, detuning)
    order, with the error ``probe`` gives there (ValidationError or
    NonConvergent), naming the point's (eps, amp).
    """
    workers = _count(workers, "workers must be a positive integer", 1)
    drive_list = list(drive_list)
    if not drive_list:
        raise ValidationError("drive_list must not be empty")
    shape = (len(drive_list),) + grid.shape
    if math.prod(shape) * 8 > sys.maxsize:
        raise ValidationError(f"the batch's maps would take more than {sys.maxsize} bytes")

    def plan_of(m: int) -> SweepPlan:
        top = DriveParams(grid.amp_max, drive_list[m].frequency, drive_list[m].dephasing)
        return SweepPlan(model, top, kernel, grid.eps_values)

    tasks, processes = _schedule(model, len(drive_list), grid, workers)
    out = np.frombuffer(mmap.mmap(-1, math.prod(shape) * 8)).reshape(shape)
    if processes == 1 or not _forked(tasks, plan_of, out, processes):
        _compute(tasks, plan_of, out)
    return [
        PopulationMap(grid, out[m], model_fingerprint(model, drive, kernel))
        for m, drive in enumerate(drive_list)
    ]
