"""End-to-end acceptance gate, one test per advertised guarantee.

Each test prints a single verdict line on the real stdout so a captured
pytest run still shows the gate at a glance.  Tolerances and runtime
budgets are fixed contracts; loosening them is a behavior change, not a
test fix.
"""

import contextlib
import math
import subprocess
import sys
import time

import numpy as np
import pytest
from numpy.random import default_rng
from scipy.integrate import quad

from lzs_sim import (
    DriveParams,
    LeakConfig,
    QubitModel,
    Regime,
    SweepGrid,
    bessel_jn,
    build_rate_matrix,
    diamond_boundaries,
    lzs_rate,
    regime_classify,
    run_frequency_batch,
    stationary_solve,
)
from lzs_sim.cli import parse_config, read_csv

from conftest import (
    L0,
    L1,
    R0,
    R1,
    four_state_matrix,
    stationary_four_state,
    stationary_three_state,
    three_state_matrix,
)


@pytest.fixture
def verdict(capsys):
    """Context manager printing one PASS/FAIL line per criterion on the
    real stdout, outside pytest's capture."""

    @contextlib.contextmanager
    def gate(number, name, budget=None):
        def announce(status):
            with capsys.disabled():
                print(f"acceptance {number} {name}: {status}", flush=True)

        start = time.monotonic()
        try:
            yield
            if budget is not None:
                elapsed = time.monotonic() - start
                assert elapsed < budget, (
                    f"runtime {elapsed:.1f} s exceeds the {budget} s budget"
                )
        except BaseException:
            announce("FAIL")
            raise
        announce("PASS")

    return gate


def test_criterion_1_bessel_kernel(verdict):
    with verdict(1, "bessel kernel", budget=1.0):
        assert abs(bessel_jn(0, 2.4048)) < 1e-4
        # The textbook two-decimal zeros must bracket actual sign changes.
        for zero in (2.40, 5.52):
            assert bessel_jn(0, zero - 0.01) * bessel_jn(0, zero + 0.01) < 0
        for x in (0.5, 5.0, 50.0, 500.0):
            nmax = int(x) + 40
            total = math.fsum(
                bessel_jn(n, x) ** 2 for n in range(-nmax, nmax + 1)
            )
            assert abs(total - 1.0) < 1e-10, f"sum rule off by {total - 1.0:.2e} at x={x}"


def test_criterion_2_rate_formula_limits(verdict):
    with verdict(2, "rate formula limits", budget=10.0):
        rng = default_rng(20260823)

        # Undriven limit: a single Lorentzian line.
        for _ in range(1000):
            delta = 10.0 ** rng.uniform(-3, 0)
            eps = rng.uniform(-50.0, 50.0)
            gamma = 10.0 ** rng.uniform(-3, 1)
            drive = DriveParams(amplitude=0.0, frequency=1.0, dephasing=gamma)
            w = lzs_rate(delta, eps, drive)
            ref = 0.5 * delta * delta * gamma / (eps * eps + gamma * gamma)
            assert abs(w - ref) <= 1e-12 * ref

        # Sum rule: the comb integrates to half pi times the squared gap.
        delta, gamma = 0.01, 0.05
        drive = DriveParams(amplitude=2.0, frequency=1.0, dephasing=gamma)
        total = math.fsum(
            quad(lambda e: lzs_rate(delta, e, drive), n - 0.5, n + 0.5)[0]
            for n in range(-60, 61)
        )
        target = 0.5 * math.pi * delta * delta
        assert abs(total - target) < 0.01 * target

        # Rate scale is exactly quadratic in the gap: doubling the gap
        # multiplies by a power of two, which commutes with rounding.
        for _ in range(300):
            delta = 10.0 ** rng.uniform(-3, 0)
            eps = rng.uniform(-30.0, 30.0)
            gamma = 10.0 ** rng.uniform(-2, 1)
            drive = DriveParams(
                amplitude=rng.uniform(0.0, 20.0), frequency=1.0, dephasing=gamma
            )
            assert lzs_rate(2.0 * delta, eps, drive) == 4.0 * lzs_rate(
                delta, eps, drive
            )


def test_criterion_3_oracle_equivalence(verdict):
    with verdict(3, "oracle equivalence", budget=30.0):
        rng = default_rng(1905)
        for _ in range(5000):
            a, b, g, h = 10.0 ** rng.uniform(-6, 0, size=4)
            p = stationary_solve(three_state_matrix(a, b, g, h))
            p0r, p0l, p1r = stationary_three_state(a, b, g, h)
            err = max(
                abs(p.probabilities[p.states.index(R0)] - p0r),
                abs(p.probabilities[p.states.index(L0)] - p0l),
                abs(p.probabilities[p.states.index(R1)] - p1r),
            )
            assert err <= 1e-9, f"three-state mismatch {err:.2e} at {(a, b, g, h)}"
        for _ in range(5000):
            v, b, g, h, k = 10.0 ** rng.uniform(-6, 0, size=5)
            p = stationary_solve(four_state_matrix(v, b, g, h, k))
            p0r, p0l, p1r, p1l = stationary_four_state(v, b, g, h, k)
            err = max(
                abs(p.probabilities[p.states.index(R0)] - p0r),
                abs(p.probabilities[p.states.index(L0)] - p0l),
                abs(p.probabilities[p.states.index(R1)] - p1r),
                abs(p.probabilities[p.states.index(L1)] - p1l),
            )
            assert err <= 1e-9, f"four-state mismatch {err:.2e} at {(v, b, g, h, k)}"


def test_criterion_4_first_diamond_structure(verdict):
    with verdict(4, "first diamond structure", budget=120.0):
        # Weak ground-ground coupling, strong coupling to the excited
        # right level whose crossing sits at 12 GHz.
        model = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0, 12.0),
            crossings=np.array([[0.04, 0.4]]),
            right_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
            left_to_right=np.array([[0.002, 0.0]]),
        )
        drive = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
        grid = SweepGrid(-6.0, 6.0, 201, 0.0, 12.5, 201)
        pmap = run_frequency_batch(model, [drive], grid)[0]
        eps = grid.eps_values
        amps = grid.amp_values
        assert amps[32] == 2.0 and amps[176] == 11.0
        row_i = pmap.values[32]
        row_ii = pmap.values[176]

        # (a) stripes of the first diamond: each n-photon peak sits
        # within one dephasing width of n times the drive frequency.
        peaks = {}
        for n in (-2, -1, 0, 1, 2):
            window = np.where(np.abs(eps - n) <= 0.5)[0]
            col = window[np.argmax(row_i[window])]
            assert abs(eps[col] - n) <= drive.dephasing
            peaks[n] = row_i[col]
        for n in (-2, -1, 0, 1):
            trough = row_i[np.argmin(np.abs(eps - (n + 0.5)))]
            assert min(peaks[n], peaks[n + 1]) > 2.0 * trough

        # (b) population diminution beyond the second boundary: matched
        # resonances lose population once the excited channel is reachable.
        cols = [int(np.argmin(np.abs(eps - n))) for n in (1, 2)]
        for col in cols:
            assert amps[176] >= abs(eps[col] - 12.0)  # inside region II
            assert amps[32] < abs(eps[col] - 12.0)  # region I at the same eps
            assert row_ii[col] < row_i[col]
        assert row_i[cols].mean() - row_ii[cols].mean() > 0.1


def second_diamond_model(breaker_delta):
    """Strong 0R-1L pumping at -6 GHz, weak 0R-0L coupling, slowest
    escape through the 0L->0R interwell decay; breaker_delta switches
    the 0L-1R channel whose crossing sits at +12 GHz."""
    return QubitModel(
        left_offsets=(0.0, 6.0),
        right_offsets=(0.0, 12.0),
        crossings=np.array([[0.01, breaker_delta], [0.45, 0.0]]),
        left_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
        right_relax=np.array([[0.0, 0.0], [0.5, 0.0]]),
        left_to_right=np.array([[0.001, 0.0], [0.0, 0.0]]),
    )


def test_criterion_5_second_diamond_inversion(verdict):
    with verdict(5, "second diamond inversion", budget=120.0):
        plain = second_diamond_model(0.0)
        drive = DriveParams(amplitude=3.0, frequency=1.0, dephasing=0.1)
        g, h, k = 0.5, 0.001, 1.0
        for eps in (-8.0, -7.0, -6.0, -5.0):
            p = stationary_solve(build_rate_matrix(plain, eps, drive))
            assert p.p_left > 0.5, f"no inversion at eps={eps}"

            # The generic solver agrees with the closed form up to the
            # negligible ground-ground channel.
            v = lzs_rate(0.45, eps + 6.0, drive)
            quiet = stationary_four_state(v, 0.0, g, h, k)
            assert abs(p.p_left - (quiet[1] + quiet[3])) < 1e-3

            # Activating the 0L-1R channel breaks the inversion.
            broken = stationary_four_state(v, v, g, h, k)
            assert (quiet[1] + quiet[3]) - (broken[1] + broken[3]) > 0.1

        # Where both resonance combs are geometrically reachable the
        # same breakdown appears in the full sweep model.
        overlap = DriveParams(amplitude=11.0, frequency=1.0, dephasing=0.1)
        p_quiet = stationary_solve(build_rate_matrix(plain, 2.0, overlap))
        p_broken = stationary_solve(
            build_rate_matrix(second_diamond_model(0.45), 2.0, overlap)
        )
        assert p_quiet.p_left > 0.5
        assert p_quiet.p_left - p_broken.p_left > 0.1


def test_criterion_6_regime_classifier(verdict):
    with verdict(6, "regime classifier", budget=1.0):
        model = QubitModel(
            left_offsets=(0.0, 5.0),
            right_offsets=(0.0,),
            crossings=np.array([[0.1], [0.1]]),
        )
        positions = sorted(b.position for b in diamond_boundaries(model))
        assert positions == [-5.0, 0.0]
        gap = positions[1] - positions[0]

        def classify(omega):
            drive = DriveParams(amplitude=0.0, frequency=omega, dephasing=0.1)
            return regime_classify(model, drive)

        for omega in (2.5, 4.9, 4.999, 5.0, 5.001, 7.0):
            report = classify(omega)
            assert report.delta_d == gap
            # Resonance bands of width omega centered on consecutive
            # apexes overlap exactly when the gap is within one band.
            merged = gap <= omega
            assert (report.regime is Regime.HIGH_FREQUENCY) == merged

        below = classify(math.nextafter(gap, 0.0))
        at = classify(gap)
        assert below.regime is Regime.LOW_FREQUENCY
        assert at.regime is Regime.HIGH_FREQUENCY


DETERMINISM_CONFIG = """\
[model]
left_levels = 0.0
right_levels = 0.0 12.0
crossing 0 0 = 0.04
crossing 0 1 = 0.4
relax R 1 0 = 1.0
interwell L0 R0 = 0.002

[drive]
frequency = 1.0
dephasing = 0.1

[grid]
eps = -3 3 21
amp = 0 6 17
"""


def test_criterion_7_determinism_and_io(verdict, tmp_path):
    with verdict(7, "determinism and io"):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(DETERMINISM_CONFIG)
        outs = {}
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "lzs_sim.cli",
                    "run",
                    str(cfg_path),
                    "--workers",
                    str(workers),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            outs[workers] = out
        for name in ("map_00.csv", "map_00.pgm", "manifest.json"):
            reference = (outs[1] / name).read_bytes()
            assert (outs[2] / name).read_bytes() == reference
            assert (outs[8] / name).read_bytes() == reference

        # The CSV read back equals the in-process sweep bit for bit.
        config = parse_config(DETERMINISM_CONFIG)
        eps, amps, values = read_csv(outs[1] / "map_00.csv")
        pmap = run_frequency_batch(config.model, [config.drives[0]], config.grid, config.kernel)[0]
        assert np.array_equal(eps, config.grid.eps_values)
        assert np.array_equal(amps, config.grid.amp_values)
        assert np.array_equal(values, pmap.values)


def test_criterion_8_ten_level_smoke(verdict):
    with verdict(8, "ten level smoke", budget=600.0):
        model = QubitModel(
            left_offsets=tuple(2.0 * i + 0.1 * i * i for i in range(10)),
            right_offsets=tuple(2.3 * i + 0.15 * i * i for i in range(10)),
            crossings=0.08 * np.eye(10) + np.diag(np.full(9, 0.2), -1),
            left_relax=np.diag(np.full(9, 1.0), -1),
            right_relax=np.diag(np.full(9, 0.8), -1),
            left_to_right=_corner(0.01),
            leak=LeakConfig(threshold=8, return_rate=1.0),
        )
        drive = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
        grid = SweepGrid(-10.0, 10.0, 401, 0.0, 15.0, 401)
        pmap = run_frequency_batch(model, [drive], grid)[0]  # raises on any bad point
        assert np.all(np.isfinite(pmap.values))
        assert pmap.values.min() >= 0.0
        assert pmap.values.max() <= 1.0


def _corner(rate):
    out = np.zeros((10, 10))
    out[0, 0] = rate
    return out
