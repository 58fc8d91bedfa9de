"""Map-generation benchmark for lzs-sim.

Run it from a source checkout; the package need not be installed,
because ``src`` is put on ``PYTHONPATH``::

    python3 bench/bench.py --workload ten_level --seed 1 --seconds 30 --trace 0

``--trace 0`` times the whole job as a user runs it: a closed loop with
one client that spawns ``python -m lzs_sim.cli run <generated cfg> --out
<fresh dir>`` and starts the next run only after the previous one has
exited.  It reports the median wall time, throughput, set-up time and
peak memory.  ``--trace 1`` instead runs ``cli.run`` in this process
with one worker, alternating untraced and traced runs, and reports the
per-layer split (see ``tracer.py``).  Every run's output goes through
the correctness gate in ``checks.py``.

Human-readable lines go to stdout first; the last line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

# One BLAS thread, here and in every child, so that ten_level_pool never
# runs more threads than cores.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent  # the checkout holding bench/
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Measure the checkout's sources, never an installed copy.
if not (SRC / "lzs_sim" / "cli.py").is_file():
    sys.exit(f"error: no lzs-sim sources under {SRC}")
sys.path.insert(0, str(SRC))

import lzs_sim.cli  # noqa: E402
import numpy as np  # noqa: E402
from checks import Tally, check_run, output_bytes  # noqa: E402
from tracer import Tracer, jn_cache, layer_metrics  # noqa: E402
from workloads import WORKLOADS, generate_config  # noqa: E402

SETUP_REPEATS = 11
MIN_TIMED_RUNS = 3
POOL_SPEEDUP_PAIRS = 2
RUN_TIMEOUT_S = 150.0

# One ten-level row of 401 points in ROADMAP.md's baseline: 0.44 s, of
# which generator build 0.30 s and stationary solve 0.14 s.
ROADMAP_BUILD_MS_PER_POINT = 300.0 / 401
ROADMAP_SOLVE_MS_PER_POINT = 140.0 / 401

_SETUP_SNIPPET = (
    "import sys\n"
    "from lzs_sim.cli import parse_config\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    parse_config(fh.read())\n"
)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def spawn(argv, stderr_path: Path, timeout: float = RUN_TIMEOUT_S):
    """Run argv to completion; (exit code, wall seconds, peak RSS in MB).

    ``os.wait4`` gives this child's own resource usage, including the
    workers it waited for, where the cumulative RUSAGE_CHILDREN maximum
    could not tell consecutive runs apart.
    """
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "lzs_sim").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Session:
    """One benchmark invocation: a work directory and a check tally."""

    def __init__(self, workload, seed: int, points=None):
        self.workload = workload
        self.seed = seed
        self.config_text = generate_config(workload, seed, points)
        self.work = WORK / f"{workload.name}-s{seed}"
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.config_path = self.work / "input.cfg"
        self.config_path.write_text(self.config_text, encoding="utf-8")
        self.tally = Tally()
        self.reference = None  # output bytes every later run must repeat
        self._runs = 0

    def fresh_dir(self) -> Path:
        self._runs += 1
        return self.work / f"out{self._runs:04d}"

    def finish(self, out_dir: Path, exit_code: int):
        """Check a run's output, then delete it.  The first run's bytes
        become the reference that every later run must repeat."""
        result = check_run(out_dir, self.config_text, self.seed, exit_code, self.reference)
        for problem in result.problems:
            print(f"check failed in {out_dir.name}: {problem}", file=sys.stderr)
        self.tally.add(result)
        if self.reference is None:
            self.reference = output_bytes(out_dir) if out_dir.exists() else {}
        shutil.rmtree(out_dir, ignore_errors=True)

    def run_cli(self, workers: int):
        """Spawn one ``run``; returns (out dir, exit code, wall, rss)."""
        out = self.fresh_dir()
        argv = [
            sys.executable, "-m", "lzs_sim.cli", "run", str(self.config_path),
            "--out", str(out), "--workers", str(workers),
        ]
        code, wall, rss = spawn(argv, self.work / "stderr.txt")
        if code != 0:
            sys.stderr.write((self.work / "stderr.txt").read_text(errors="replace"))
        return out, code, wall, rss

    def setup_times(self):
        argv = [sys.executable, "-c", _SETUP_SNIPPET, str(self.config_path)]
        times = []
        for i in range(SETUP_REPEATS + 1):  # the first one warms bytecode caches
            code, wall, _ = spawn(argv, self.work / "stderr.txt")
            self.tally.record(code == 0, f"set-up exit code {code}")
            if i:
                times.append(wall)
        return times


def measure_end_to_end(session, seconds: float) -> dict:
    wl = session.workload
    setup = session.setup_times()
    if wl.workers > 1:  # the pool's output must equal the one-worker bytes
        out, code, _, _ = session.run_cli(1)
        session.finish(out, code)
    walls, rss = [], []
    start = time.perf_counter()
    while len(walls) < MIN_TIMED_RUNS or time.perf_counter() - start < seconds:
        out, code, wall, peak = session.run_cli(wl.workers)
        walls.append(wall)
        rss.append(peak)
        session.finish(out, code)

    config = lzs_sim.cli.parse_config(session.config_text)
    points = config.grid.n_eps * config.grid.n_amp * len(config.drives)
    wall = statistics.median(walls)
    lo, hi = _quartiles(walls)
    print(f"grid {config.grid.n_eps}x{config.grid.n_amp} maps {len(config.drives)} "
          f"workers {wl.workers} timed runs {len(walls)}")
    print(f"wall_s quartiles {lo:.4f} {hi:.4f} min {min(walls):.4f} max {max(walls):.4f}")
    return {
        "wall_s": (wall, "s"),
        "points_per_s": (points / wall, "1/s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }


def _in_process_run(session, traced: bool):
    """Parse and run the config in this process with one worker; returns
    (out dir, exit code, wall seconds, tracer or None, jn cache hit ratio)."""
    cache = jn_cache()
    if cache is not None:  # start cold, as a fresh process would
        cache.cache_clear()
    out = session.fresh_dir()
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    with tracer or contextlib.nullcontext():
        code = lzs_sim.cli.run(lzs_sim.cli.parse_config(session.config_text), 1, out)
    wall = time.perf_counter() - start
    hit_ratio = 0.0
    if cache is not None:
        info = cache.cache_info()
        hit_ratio = info.hits / max(1, info.hits + info.misses)
    return out, code, wall, tracer, hit_ratio


def measure_layers(session, seconds: float) -> dict:
    # Pool speed-up on this workload's input: one worker against two,
    # alternating, in subprocesses like a user's run.
    one, two = [], []
    for _ in range(POOL_SPEEDUP_PAIRS):
        for workers, walls in ((1, one), (2, two)):
            out, code, wall, _ = session.run_cli(workers)
            walls.append(wall)
            session.finish(out, code)

    untraced, traced, layers, ratios = [], [], [], []
    last = None
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        for is_traced in (False, True):
            out, code, wall, tracer, hit_ratio = _in_process_run(session, is_traced)
            session.finish(out, code)
            if is_traced:
                traced.append(wall)
                layers.append(layer_metrics(tracer.spans))
                ratios.append(hit_ratio)
                last = tracer
            else:
                untraced.append(wall)
    last.write(session.work / "spans.csv")

    metrics = {}
    for name, (value, unit) in layers[0].items():
        if unit not in ("count", "bytes"):  # counts repeat exactly; times vary
            value = statistics.median(m[name][0] for m in layers)
        metrics[name] = (value, unit)
    # Every run's bytes equal the reference, or a check has failed.
    metrics["cli.bytes_written"] = (sum(map(len, session.reference.values())), "bytes")
    metrics["rates.jn_cache_hit_ratio"] = (statistics.median(ratios), "ratio")
    metrics["master.residual_max"] = (session.tally.residual_max, "ratio")
    metrics["sweep.pool_speedup"] = (statistics.median(one) / statistics.median(two), "x")
    metrics["trace.overhead_frac"] = (
        statistics.median(traced) / statistics.median(untraced) - 1.0, "ratio")

    print(f"traced runs {len(traced)} untraced runs {len(untraced)} "
          f"pool runs {len(one)}+{len(two)}; spans of the last traced run in "
          f"{(session.work / 'spans.csv').relative_to(ROOT)}")
    if session.workload.model_file == "ten_level.cfg":
        build = metrics["master.build_ms_per_point"][0]
        solve = metrics["master.solve_ms_per_point"][0]
        print(f"roadmap baseline: build {build:.4f} ms/point against "
              f"{ROADMAP_BUILD_MS_PER_POINT:.4f} ({build / ROADMAP_BUILD_MS_PER_POINT - 1:+.1%}), "
              f"solve {solve:.4f} ms/point against "
              f"{ROADMAP_SOLVE_MS_PER_POINT:.4f} ({solve / ROADMAP_SOLVE_MS_PER_POINT - 1:+.1%}); "
              "traced, so the wrappers' cost is included")
    return metrics


def measure(workload_name: str, seed: int, seconds: float, trace: bool, points=None) -> dict:
    """Run one workload and return the result object that ``main``
    prints; ``points`` = (n_eps, n_amp) shrinks the grid for self-tests."""
    session = Session(WORKLOADS[workload_name], seed, points)
    env = environment()
    (session.work / "env.json").write_text(json.dumps(env, indent=2) + "\n")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"workload {workload_name} seed {seed} trace {int(trace)}")
    if trace:
        metrics = measure_layers(session, seconds)
    else:
        metrics = measure_end_to_end(session, seconds)
    tally = session.tally
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(f"failed_frac {tally.failed / max(1, tally.attempted)!r} "
          f"({tally.failed} of {tally.attempted} checks failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    (session.work / "result.json").write_text(json.dumps(result, indent=2) + "\n")
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
