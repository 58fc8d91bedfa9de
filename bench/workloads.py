"""Benchmark workloads and the seeded inputs they hand to ``lzs-sim run``.

A workload is a frozen model (``bench/models/*.cfg``), a reduced grid
and a worker count.  The seed only shifts the grid bounds by a fraction
of one grid step and picks the oracle sample points, so every seed does
nearly the same work on slightly different points.  The program sees
nothing but the generated config text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

MODELS = Path(__file__).resolve().parent / "models"

ORACLE_SAMPLES_PER_MAP = 6


@dataclass(frozen=True)
class Workload:
    name: str
    model_file: str
    workers: int
    eps: tuple[float, float, int]  # min, max, points
    amp: tuple[float, float, int]


_TEN_LEVEL_EPS = (-10.0, 10.0, 27)
_TEN_LEVEL_AMP = (0.0, 15.0, 27)

WORKLOADS = {
    w.name: w
    for w in (
        # 21 states, 19 crossings, A/w up to 15: rates, assembly and the
        # stationary solve do nearly all the work; pool and output idle.
        Workload("ten_level", "ten_level.cfg", 1, _TEN_LEVEL_EPS, _TEN_LEVEL_AMP),
        # 3 states at six frequencies: per-point overhead plus six map
        # writes, so output has its largest share and rates barely matter.
        Workload("batch_small", "frequency_batch.cfg", 1, (-20.0, 7.0, 31), (0.0, 18.0, 13)),
        # The ten_level input with --workers 2: the only workload that puts
        # the sweep process pool (pickling, start-up, row hand-out) on the path.
        Workload("ten_level_pool", "ten_level.cfg", 2, _TEN_LEVEL_EPS, _TEN_LEVEL_AMP),
    )
}


def _axis(bounds, shift_fraction: float) -> tuple[float, float, int]:
    lo, hi, n = bounds
    shift = shift_fraction * (hi - lo) / (n - 1)
    return lo + shift, hi + shift, n


def generate_config(workload: Workload, seed: int, points=None) -> str:
    """Config text for one run: the frozen model plus a seeded grid.

    ``points`` = (n_eps, n_amp) overrides the grid size (self-tests use
    a tiny grid).  The amplitude axis only shifts upward, because drive
    amplitudes must stay >= 0.  The text depends on the model and grid,
    not on the workload name, so ``ten_level`` and ``ten_level_pool``
    get identical input for the same seed.
    """
    eps, amp = workload.eps, workload.amp
    if points is not None:
        eps = (eps[0], eps[1], points[0])
        amp = (amp[0], amp[1], points[1])
    rng = random.Random(seed)
    eps = _axis(eps, rng.uniform(-0.5, 0.5))
    amp = _axis(amp, rng.uniform(0.0, 0.5))
    model_text = (MODELS / workload.model_file).read_text(encoding="utf-8")
    return (
        model_text.rstrip("\n")
        + "\n\n[grid]\n"
        + f"eps = {eps[0]!r} {eps[1]!r} {eps[2]}\n"
        + f"amp = {amp[0]!r} {amp[1]!r} {amp[2]}\n"
    )


def oracle_points(seed: int, n_amp: int, n_eps: int) -> list[tuple[int, int]]:
    """Seeded (row, column) grid indices recomputed by the oracle.

    The two top corners are always included: the largest amplitude has
    the widest photon window.
    """
    rng = random.Random(f"oracle-{seed}")
    picks = {(n_amp - 1, 0), (n_amp - 1, n_eps - 1)}
    while len(picks) < min(ORACLE_SAMPLES_PER_MAP, n_amp * n_eps):
        picks.add((rng.randrange(n_amp), rng.randrange(n_eps)))
    return sorted(picks)
