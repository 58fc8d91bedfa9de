"""Correctness gate for one ``lzs-sim run`` output directory.

Every check counts once towards ``attempted``; a failing one also counts
towards ``failed``.  A run is checked for:

- a zero exit code and a manifest that parses;
- manifest sha256 values that match the file bytes;
- per map, a seeded sample of grid points recomputed with the public
  single-point oracle (``build_rate_matrix`` + ``stationary_solve``)
  that agrees with the CSV within ``ORACLE_TOL``;
- per map, PGM pixels equal to ``floor(P_L * 255 + 0.5)`` of the CSV;
- output bytes identical to a reference run of the same input (another
  worker count, or an earlier run).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lzs_sim import cli
from lzs_sim.errors import SimulationError, ValidationError
from lzs_sim.master import build_rate_matrix, stationary_solve
from lzs_sim.model import DriveParams

from workloads import oracle_points

# Engine-vs-oracle tolerance stated in ROADMAP.md.
ORACLE_TOL = 1e-10

_CHECK_ERRORS = (OSError, ValueError, KeyError, TypeError, SimulationError)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    # Worst ||M p||_inf / ||M||_inf over the oracle sample.
    residual_max: float = 0.0

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)
        self.residual_max = max(self.residual_max, other.residual_max)


def output_bytes(out_dir: Path) -> dict:
    """Every regular file of an output directory, name -> bytes."""
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _guarded(tally: Tally, what: str, check) -> None:
    try:
        ok = check()
    except _CHECK_ERRORS as exc:
        tally.record(False, f"{what}: {type(exc).__name__}: {exc}")
        return
    tally.record(ok, what)


def _oracle_agrees(tally, config, drive, csv_path, seed) -> bool:
    eps, amps, values = cli.read_csv(csv_path)
    if not (
        np.array_equal(eps, config.grid.eps_values)
        and np.array_equal(amps, config.grid.amp_values)
    ):
        return False
    worst = 0.0
    for k, m in oracle_points(seed, amps.size, eps.size):
        point = DriveParams(
            amplitude=float(amps[k]), frequency=drive.frequency, dephasing=drive.dephasing
        )
        rm = build_rate_matrix(config.model, float(eps[m]), point, config.kernel)
        pv = stationary_solve(rm)
        worst = max(worst, abs(pv.p_left - values[k, m]))
        scale = np.linalg.norm(rm.matrix, np.inf)
        residual = np.max(np.abs(rm.matrix @ pv.probabilities)) / scale
        tally.residual_max = max(tally.residual_max, float(residual))
    return worst <= ORACLE_TOL


def _pgm_matches(csv_path, pgm_path) -> bool:
    _, _, values = cli.read_csv(csv_path)
    raster = cli.read_pgm(pgm_path)[::-1]
    expected = np.floor(values * 255.0 + 0.5).astype(np.uint8)
    return raster.shape == expected.shape and np.array_equal(raster, expected)


def check_run(out_dir, config_text: str, seed: int, exit_code: int, reference=None) -> Tally:
    """Check one run's output directory; ``reference`` is the
    ``output_bytes`` of a run the output must equal byte for byte."""
    out_dir = Path(out_dir)
    tally = Tally()
    tally.record(exit_code == 0, f"exit code {exit_code}")
    manifest_path = out_dir / "manifest.json"
    try:
        manifest = json.loads(manifest_path.read_text(encoding="ascii"))
        maps = manifest["maps"]
    except (*_CHECK_ERRORS, json.JSONDecodeError) as exc:
        tally.record(False, f"manifest: {type(exc).__name__}: {exc}")
        return tally
    try:
        config = cli.parse_config(config_text)
    except (ValidationError, SimulationError) as exc:
        tally.record(False, f"config: {exc}")
        return tally
    tally.record(len(maps) == len(config.drives), f"{len(maps)} maps in the manifest")

    for drive, entry in zip(config.drives, maps):
        files = entry.get("files", {})
        for kind, meta in sorted(files.items()):
            path = out_dir / meta["name"]
            _guarded(
                tally,
                f"sha256 of {meta['name']}",
                lambda: hashlib.sha256(path.read_bytes()).hexdigest() == meta["sha256"],
            )
        if "csv" not in files:
            tally.record(False, f"no CSV for {drive.frequency} GHz")
            continue
        csv_path = out_dir / files["csv"]["name"]
        _guarded(
            tally,
            f"oracle sample of {csv_path.name}",
            lambda: _oracle_agrees(tally, config, drive, csv_path, seed),
        )
        if "pgm" in files:
            _guarded(
                tally,
                f"PGM pixels of {files['pgm']['name']}",
                lambda: _pgm_matches(csv_path, out_dir / files["pgm"]["name"]),
            )

    if reference is not None:
        _guarded(tally, "bytes equal to the reference run", lambda: output_bytes(out_dir) == reference)
    return tally
