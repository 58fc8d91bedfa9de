"""In-process tracing of one ``cli.run`` from outside the package.

Each layer's public functions are wrapped where they are *looked up*,
not where they are defined: ``sweep`` imports ``build_rate_matrix`` and
``stationary_solve`` by name, ``master`` imports ``lzs_rate`` and so on,
so patching the defining module would miss every call.  Spans (id,
parent id, name, start, end) stay in memory and are written out once, at
the end.  A name that a later version no longer has, or no longer calls,
simply yields zero calls.
"""

from __future__ import annotations

import csv
import math
import time
from collections import defaultdict

import lzs_sim.cli
import lzs_sim.master
import lzs_sim.rates
import lzs_sim.sweep

# (module whose global is patched, attribute, span name, keep call args)
WRAPPED = (
    (lzs_sim.master, "lzs_rate", "lzs_rate", True),
    (lzs_sim.sweep, "build_rate_matrix", "build_rate_matrix", False),
    (lzs_sim.sweep, "stationary_solve", "stationary_solve", False),
    (lzs_sim.sweep, "run_sweep", "run_sweep", True),
    (lzs_sim.cli, "parse_config", "parse_config", False),
    (lzs_sim.cli, "run", "run", False),
    (lzs_sim.cli, "write_csv", "write_csv", False),
    (lzs_sim.cli, "write_pgm", "write_pgm", False),
    (lzs_sim.cli, "csv_bytes", "csv_bytes", False),
    (lzs_sim.cli, "pgm_bytes", "pgm_bytes", False),
)


class Tracer:
    """Context manager that patches the wrapped names and records spans."""

    def __init__(self):
        self.spans = []  # [span_id, parent_id, name, start, end, args]
        self._stack = []
        self._patched = []

    def _wrap(self, fn, name, keep_args):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1] if stack else -1, name, 0.0, 0.0,
                    args if keep_args else None]
            spans.append(span)
            stack.append(span[0])
            span[3] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[4] = clock()
                stack.pop()

        return traced

    def __enter__(self):
        for module, attr, name, keep_args in WRAPPED:
            original = getattr(module, attr, None)
            if original is not None:
                setattr(module, attr, self._wrap(original, name, keep_args))
                self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, path):
        """Spans as CSV, times in seconds from the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="", encoding="ascii") as fh:
            out = csv.writer(fh)
            out.writerow(["span_id", "parent_id", "name", "start_s", "end_s"])
            for sid, parent, name, start, end, _ in self.spans:
                out.writerow([sid, parent, name, repr(start - t0), repr(end - t0)])


def photon_terms(delta, eps_local, drive, kernel=lzs_sim.rates.RateKernelParams()) -> int:
    """Photon numbers one ``lzs_rate`` call sums over, by the window rule
    of the ``rates`` docstring: the union of |n - eps/w| <= A/w + n_margin
    and |n| <= n_margin, less any n beyond ``lorentz_cutoff``."""
    if delta == 0.0:
        return 0
    w, margin = drive.frequency, kernel.n_margin
    center, half = eps_local / w, drive.amplitude / w + margin
    lo, hi = math.ceil(center - half), math.floor(center + half)
    cutoff = kernel.lorentz_cutoff
    if cutoff is None:
        resonant = max(0, hi - lo + 1)
        overlap = max(0, min(hi, margin) - max(lo, -margin) + 1)
        return resonant + 2 * margin + 1 - overlap
    ns = set(range(lo, hi + 1)) | set(range(-margin, margin + 1))
    return sum(1 for n in ns if abs(eps_local - n * w) <= cutoff * drive.dephasing)


def layer_totals(spans):
    """(calls, total seconds, self seconds), each a name -> value map
    that reads 0 for a name never called.  Self time is a span's
    duration minus the time covered by its direct children."""
    child_time = defaultdict(float)
    for _, parent, _, start, end, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for sid, _, name, start, end, _ in spans:
        calls[name] += 1
        total[name] += end - start
        self_s[name] += end - start - child_time[sid]
    return calls, total, self_s


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced run, name -> (value, unit)."""
    calls, total, self_s = layer_totals(spans)
    terms = points = 0
    for _, _, name, _, _, args in spans:
        if name == "lzs_rate":
            terms += photon_terms(*args)
        elif name == "run_sweep":
            points += args[2].n_eps * args[2].n_amp
    per_point_ms = 1e3 / points if points else 0.0
    return {
        "rates.lzs_rate_calls": (calls["lzs_rate"], "count"),
        "rates.lzs_rate_s": (total["lzs_rate"], "s"),
        "rates.photon_terms": (terms, "count"),
        "master.build_rate_matrix_calls": (calls["build_rate_matrix"], "count"),
        "master.build_rate_matrix_self_s": (self_s["build_rate_matrix"], "s"),
        "master.build_ms_per_point": (total["build_rate_matrix"] * per_point_ms, "ms"),
        "master.stationary_solve_calls": (calls["stationary_solve"], "count"),
        "master.stationary_solve_s": (total["stationary_solve"], "s"),
        "master.solve_ms_per_point": (total["stationary_solve"] * per_point_ms, "ms"),
        "sweep.run_sweep_s": (total["run_sweep"], "s"),
        "sweep.points": (points, "count"),
        "cli.parse_config_s": (total["parse_config"], "s"),
        "cli.csv_bytes_s": (total["csv_bytes"], "s"),
        "cli.pgm_bytes_s": (total["pgm_bytes"], "s"),
        "cli.write_s": (self_s["write_csv"] + self_s["write_pgm"], "s"),
        "cli.run_self_s": (self_s["run"], "s"),
    }


def jn_cache():
    """The Bessel-row cache of ``rates`` while it exists, else None."""
    cached = getattr(lzs_sim.rates, "_jn_array", None)
    return cached if hasattr(cached, "cache_info") else None
