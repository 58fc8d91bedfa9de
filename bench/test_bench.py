"""Self-tests of the benchmark; outside the package's test suite.

Run from the repository root::

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import hashlib
import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import bench  # noqa: E402
import lzs_sim.rates  # noqa: E402
from checks import check_run, oracle_points  # noqa: E402
from lzs_sim.model import DriveParams  # noqa: E402
from tracer import photon_terms  # noqa: E402
from workloads import WORKLOADS, generate_config  # noqa: E402

TINY = (6, 5)
SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke_results():
    return {
        (name, trace): bench.measure(name, seed=3, seconds=0.1, trace=trace, points=TINY)
        for name in WORKLOADS
        for trace in (False, True)
    }


def test_workloads_match_the_spec():
    assert sorted(WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run_is_correct(smoke_results, name, trace):
    result = smoke_results[(name, trace)]
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_named_metric_is_reported(smoke_results, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        metrics = smoke_results[(name, trace)]["metrics"]
        assert set(metrics) == {m["name"] for m in SPEC[key]}
        for spec in SPEC[key]:
            assert metrics[spec["name"]]["unit"] == spec["unit"]


def test_pool_workload_gets_the_ten_level_input():
    assert generate_config(WORKLOADS["ten_level"], 7) == generate_config(
        WORKLOADS["ten_level_pool"], 7
    )
    assert generate_config(WORKLOADS["ten_level"], 7) != generate_config(
        WORKLOADS["ten_level"], 8
    )


def _tiny_run(seed):
    session = bench.Session(WORKLOADS["ten_level"], seed, TINY)
    out, code, _, _ = session.run_cli(1)
    assert check_run(out, session.config_text, seed, code).failed == 0
    return session, out


def test_corrupted_csv_is_counted_as_failed():
    session, out = _tiny_run(4)
    csv_path = out / "map_00.csv"
    lines = csv_path.read_text().splitlines()
    eps, amp, p = lines[1].split(",")
    lines[1] = f"{eps},{amp},{float(p) + 0.5:.17g}"
    csv_path.write_text("\n".join(lines) + "\n")
    tally = check_run(out, session.config_text, 4, 0)
    assert tally.failed / tally.attempted > 0
    assert any("sha256 of map_00.csv" in p for p in tally.problems)


def test_oracle_catches_a_value_the_manifest_vouches_for():
    seed = 5
    session, out = _tiny_run(seed)
    row, col = oracle_points(seed, TINY[1], TINY[0])[0]
    csv_path = out / "map_00.csv"
    lines = csv_path.read_text().splitlines()
    eps, amp, p = lines[1 + row * TINY[0] + col].split(",")
    lines[1 + row * TINY[0] + col] = f"{eps},{amp},{float(p) + 1e-9:.17g}"
    data = ("\n".join(lines) + "\n").encode()
    csv_path.write_bytes(data)
    manifest_path = out / "manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["maps"][0]["files"]["csv"]["sha256"] = hashlib.sha256(data).hexdigest()
    manifest_path.write_text(json.dumps(manifest))
    tally = check_run(out, session.config_text, seed, 0)
    assert [p for p in tally.problems if p.startswith("oracle sample")]


def test_photon_terms_follow_the_rates_window():
    window = getattr(lzs_sim.rates, "_photon_window", None)
    if window is None:
        pytest.skip("rates no longer has a per-call photon window")
    kernel = lzs_sim.rates.RateKernelParams()
    rng = random.Random(0)
    for _ in range(500):
        drive = DriveParams(
            amplitude=rng.uniform(0, 20), frequency=rng.uniform(0.3, 17), dephasing=0.1
        )
        eps_local = rng.uniform(-40, 40)
        x = drive.amplitude / drive.frequency
        expected = window(eps_local / drive.frequency, x + kernel.n_margin, kernel.n_margin)
        assert photon_terms(0.1, eps_local, drive, kernel) == expected.size


def test_fails_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [*SPEC["command"], "--workload", "ten_level", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert not re.search(r"\{.*\"metrics\"", done.stdout)
