"""Grid sweeps: determinism, closed-form rows, and parallel equality."""

import dataclasses
import os
import re
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lzs_sim.cli as cli
import lzs_sim.sweep as sweep_mod
from lzs_sim.master import GTHPlan
from lzs_sim import (
    DriveParams,
    LeakConfig,
    NonConvergent,
    PopulationMap,
    QubitModel,
    RateKernelParams,
    SweepGrid,
    ValidationError,
    build_rate_matrix,
    lzs_rate,
    run_frequency_batch,
    stationary_solve,
)

TWO_STATE = QubitModel(
    left_offsets=(0.0,),
    right_offsets=(0.0,),
    crossings=np.array([[0.05]]),
    left_to_right=np.array([[0.01]]),
)
ZERO_COUPLING = QubitModel(
    left_offsets=(0.0,),
    right_offsets=(0.0,),
    crossings=np.zeros((1, 1)),
)
DRIVE = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
# Ladders of 2 and 3 levels, every array nonzero and a leak from level 1 up.
LEAKY = QubitModel(
    left_offsets=(0.0, 1.0),
    right_offsets=(0.0, 1.5, 3.0),
    crossings=np.array([[0.05, 0.1, 0.0], [0.1, 0.05, 0.1]]),
    left_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
    right_relax=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    left_to_right=np.array([[0.01, 0.0, 0.0], [0.0, 0.0, 0.0]]),
    right_to_left=np.array([[0.02, 0.0], [0.0, 0.0], [0.0, 0.0]]),
    leak=LeakConfig(threshold=1, return_rate=1.0),
)


def leaky_fingerprint(drive=DRIVE, kernel=RateKernelParams(), **model_changes):
    """model_fingerprint of LEAKY with model_changes, under drive and kernel."""
    model = dataclasses.replace(LEAKY, **model_changes)
    return sweep_mod.model_fingerprint(model, drive, kernel)


# input -> the fingerprint with that one input of LEAKY, DRIVE and the
# default kernel changed
ONE_INPUT_CHANGED = {
    "left_offsets": lambda: leaky_fingerprint(left_offsets=(0.0, 1.25)),
    "right_offsets": lambda: leaky_fingerprint(right_offsets=(0.0, 1.5, 3.5)),
    **{
        name: lambda name=name: leaky_fingerprint(**{name: 2.0 * getattr(LEAKY, name)})
        for name in ("crossings", "left_relax", "right_relax", "left_to_right", "right_to_left")
    },
    "leak_absent": lambda: leaky_fingerprint(leak=None),
    "leak_threshold": lambda: leaky_fingerprint(leak=LeakConfig(threshold=2, return_rate=1.0)),
    "leak_return_rate": lambda: leaky_fingerprint(leak=LeakConfig(threshold=1, return_rate=2.0)),
    "frequency": lambda: leaky_fingerprint(drive=DriveParams(0.0, 2.0, 0.1)),
    "dephasing": lambda: leaky_fingerprint(drive=DriveParams(0.0, 1.0, 0.2)),
    "n_margin": lambda: leaky_fingerprint(kernel=RateKernelParams(n_margin=21)),
}
CONFIGS = Path(__file__).resolve().parents[1] / "configs"
FIRST_DIAMOND_CFG = (CONFIGS / "first_diamond.cfg").read_text()
TEN_LEVEL_CFG = (CONFIGS / "ten_level.cfg").read_text()


class TestSweepGrid:
    def test_axes_are_inclusive_linspaces(self):
        g = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        assert list(g.eps_values) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert list(g.amp_values) == [0.0, 1.0, 2.0]
        assert g.shape == (3, 5)

    def test_axes_follow_numpys_linspace_formula(self):
        # The map bits rest on the axes' bits, which are np.linspace's
        # choice.  For a step that is a normal float, numpy 2.4.6 gives
        # lo + k * ((hi - lo) / (n - 1)), then sets the last point to hi.
        # A numpy that computes them otherwise fails here, naming the
        # cause, before the shipped map digests fail.
        grids = [cli.parse_config(path.read_text()).grid for path in sorted(CONFIGS.glob("*.cfg"))]
        rng = np.random.default_rng(7)
        for _ in range(50):
            eps_lo, amp_lo = rng.uniform((-50.0, 0.0), (50.0, 20.0)).tolist()
            eps_span, amp_span = np.exp(rng.uniform(np.log(0.01), np.log(100.0), 2)).tolist()
            n_eps, n_amp = rng.integers(2, 1000, 2).tolist()
            grids.append(SweepGrid(eps_lo, eps_lo + eps_span, n_eps, amp_lo, amp_lo + amp_span, n_amp))
        for grid in grids:
            for axis in ("eps", "amp"):
                lo, hi = getattr(grid, f"{axis}_min"), getattr(grid, f"{axis}_max")
                n = getattr(grid, f"n_{axis}")
                want = np.arange(n) * ((hi - lo) / (n - 1)) + lo
                want[-1] = hi
                got = getattr(grid, f"{axis}_values")
                assert got.tobytes() == want.tobytes(), f"{axis} of {grid}, numpy {np.__version__}"

    def test_validation(self):
        with pytest.raises(ValidationError):
            SweepGrid(0.0, 1.0, 1, 0.0, 1.0, 3)
        with pytest.raises(ValidationError):
            SweepGrid(1.0, 1.0, 3, 0.0, 1.0, 3)
        with pytest.raises(ValidationError):
            SweepGrid(0.0, 1.0, 3, 1.0, 0.5, 3)
        with pytest.raises(ValidationError):
            SweepGrid(0.0, 1.0, 3, -1.0, 1.0, 3)
        with pytest.raises(ValidationError):
            SweepGrid(0.0, np.nan, 3, 0.0, 1.0, 3)
        with pytest.raises(ValidationError):
            SweepGrid(False, True, 3, 0, 1, 3)
        with pytest.raises(ValidationError):
            SweepGrid(0, 1, 3, False, True, 3)
        with pytest.raises(ValidationError, match="eps_max - eps_min must be finite"):
            SweepGrid(-1e308, 1e308, 3, 0.0, 1.0, 3)
        with pytest.raises(ValidationError, match="amp_max - amp_min must be finite"):
            SweepGrid(0.0, 1.0, 3, -1e308, 1e308, 3)


class TestPopulationMap:
    GRID = SweepGrid(0.0, 1.0, 2, 0.0, 1.0, 2)

    @pytest.mark.parametrize(
        "grid, values, fingerprint, message",
        [
            (GRID, np.full((2, 3), 0.5), "x", r"map must have shape \(2, 2\), got \(2, 3\)"),
            (GRID, [[0.5, np.inf], [0.5, 0.5]], "x", "map entries must be finite"),
            (GRID, [[0.5, 1.0 + 2e-9], [0.5, 0.5]], "x", r"must lie in \[0, 1\]"),
            (GRID, [[0.5, -2e-12], [0.5, 0.5]], "x", r"must lie in \[0, 1\]"),
            ("x", [[0.5]], "f", "grid must be a SweepGrid"),
            (GRID, [[0.5, 0.5], [0.5, 0.5]], 7, "fingerprint must be a str"),
        ],
        ids=["wrong_shape", "not_finite", "above_one", "below_zero", "grid", "fingerprint"],
    )
    def test_rejects(self, grid, values, fingerprint, message):
        with pytest.raises(ValidationError, match=message):
            PopulationMap(grid, np.array(values), fingerprint)

    def test_clips_within_the_simplex_tolerances(self):
        pmap = PopulationMap(self.GRID, np.array([[1.0 + 1e-9, -1e-12], [0.5, 0.5]]), "x")
        assert pmap.values.tolist() == [[1.0, 0.0], [0.5, 0.5]]


class TestRunSweep:
    def test_matches_pointwise_solves(self):
        grid = SweepGrid(-1.5, 1.5, 7, 0.0, 2.0, 4)
        pmap = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        for k, amp in enumerate(grid.amp_values):
            drive = DriveParams(
                amplitude=float(amp), frequency=1.0, dephasing=0.1
            )
            for m, eps in enumerate(grid.eps_values):
                p = stationary_solve(
                    build_rate_matrix(TWO_STATE, float(eps), drive)
                )
                assert pmap.values[k, m] == p.p_left

    def test_zero_coupling_keeps_initial_state(self):
        pmap = run_frequency_batch(ZERO_COUPLING, [DRIVE], SweepGrid(-1.0, 1.0, 2, 0.0, 1.0, 2))[0]
        assert np.all(pmap.values == 0.0)  # everything stays in 0R

    def test_static_row_is_single_lorentzian_balance(self):
        grid = SweepGrid(-2.0, 2.0, 9, 0.0, 1.0, 2)
        pmap = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        for m, eps in enumerate(grid.eps_values):
            w = lzs_rate(0.05, float(eps), DRIVE)
            expected = w / (2 * w + 0.01)
            assert pmap.values[0, m] == pytest.approx(expected, rel=1e-10)

    def test_values_within_unit_interval(self):
        pmap = run_frequency_batch(TWO_STATE, [DRIVE], SweepGrid(-3.0, 3.0, 11, 0.0, 4.0, 5))[0]
        assert np.all(pmap.values >= 0.0)
        assert np.all(pmap.values <= 1.0)

    def test_repeated_runs_bit_identical(self):
        grid = SweepGrid(-2.0, 2.0, 9, 0.0, 3.0, 5)
        a = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        b = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_bits(self, always_fork, forks, workers):
        # One block of four rows, against blocks of 4 / workers rows shared
        # by as many processes.
        grid = SweepGrid(-1.0, 1.0, 7, 0.0, 2.0, 4)
        serial = run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=1)[0]
        always_fork(4 // workers * grid.n_eps)
        parallel = run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=workers)[0]
        assert np.array_equal(serial.values, parallel.values)
        assert len(forks) == workers - 1

    def test_pool_never_exceeds_rows(self, always_fork, forks):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        alone = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        always_fork(1)
        pooled = run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=8)[0]
        # Three one-row blocks: two forked workers, and this process.
        assert len(forks) == 2
        assert np.array_equal(pooled.values, alone.values)

    def test_without_fork_workers_run_in_process(self, always_fork, monkeypatch):
        monkeypatch.delattr(os, "fork")
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 4)
        forkless = run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=2)[0]
        monkeypatch.undo()
        alone = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        assert np.array_equal(forkless.values, alone.values)

    def test_workers_validation(self):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2)
        with pytest.raises(ValidationError):
            run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=0)

    def test_nonconvergent_carries_coordinates(self, monkeypatch):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 2.0, 3)

        def reject(self, values, q):
            return np.zeros(values.shape[1], dtype=bool)

        # Every point fails the check; the first block names its first
        # point.
        monkeypatch.setattr(GTHPlan, "accepts", reject)
        with pytest.raises(NonConvergent) as err:
            run_frequency_batch(TWO_STATE, [DRIVE], grid)
        assert err.value.eps == -1.0
        assert err.value.amp == 0.0
        assert "eps=-1.0" in str(err.value)

    @pytest.mark.parametrize(
        "workers, n_amp, failing_rows",
        [
            (2, 4, [2, 3]),  # only the child's block fails
            (2, 4, [0, 1, 2, 3]),  # both fail: this process's block comes first
            (3, 6, [2, 3, 4, 5]),  # two children fail: the lower block comes first
        ],
    )
    def test_nonconvergent_from_a_worker(
        self, always_fork, forks, monkeypatch, workers, n_amp, failing_rows
    ):
        # One block at one worker, then blocks of two rows each.  Points of
        # the failing rows are told apart by their generator values,
        # whichever process solves them.
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 3.0, n_amp)
        amps = grid.amp_values.tolist()
        top = DriveParams(amps[-1], DRIVE.frequency, DRIVE.dephasing)
        plan = sweep_mod.SweepPlan(TWO_STATE, top, RateKernelParams(), grid.eps_values)
        failing = {col.tobytes() for col in plan.values([amps[k] for k in failing_rows]).T}
        accepts = GTHPlan.accepts

        def reject_failing_rows(self, values, q):
            ok = accepts(self, values, q)
            return ok & np.array([col.tobytes() not in failing for col in values.T])

        monkeypatch.setattr(GTHPlan, "accepts", reject_failing_rows)
        errors = []
        for w, rows in ((1, n_amp), (workers, 2)):
            always_fork(rows * grid.n_eps)
            with pytest.raises(NonConvergent) as err:
                run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=w)
            errors.append((err.value.eps, err.value.amp, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (-1.0, amps[failing_rows[0]])
        assert len(forks) == workers - 1

    @pytest.mark.parametrize("kind", ["raises", "exits"])
    def test_failure_only_a_child_hits_is_redone_in_process(
        self, always_fork, forks, monkeypatch, tmp_path, kind
    ):
        class Local(Exception):
            pass

        parent = os.getpid()
        block = sweep_mod.SweepPlan.block

        def failing_in_child(self, amps):
            if os.getpid() != parent:
                if kind == "exits":
                    os._exit(3)
                raise Local("lost")
            return block(self, amps)

        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 3.0, 4)
        alone = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        config = tmp_path / "ten_level.cfg"
        config.write_text(re.sub(r"amp = .*", "amp = 0 15 4", TEN_LEVEL_CFG))
        assert cli.main(["run", str(config), "--workers", "1", "--out", str(tmp_path / "w1")]) == 0
        monkeypatch.setattr(sweep_mod.SweepPlan, "block", failing_in_child)
        # Each two-worker run cuts its 4 rows into two blocks of two.
        always_fork(2 * grid.n_eps)
        pooled = run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=2)[0]
        assert np.array_equal(pooled.values, alone.values)
        always_fork(2 * 401)  # ten-level's 401 detunings
        assert cli.main(["run", str(config), "--workers", "2", "--out", str(tmp_path / "w2")]) == 0
        for path in sorted((tmp_path / "w1").iterdir()):
            assert (tmp_path / "w2" / path.name).read_bytes() == path.read_bytes()
        # One child in each two-worker run, and no second fork for the redo.
        assert len(forks) == 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_that_recurs_in_process_is_raised_itself(
        self, always_fork, forks, monkeypatch
    ):
        class Local(Exception):
            pass

        block = sweep_mod.SweepPlan.block

        def failing_from_amp_two(self, amps):
            failing = [amp for amp in amps if amp >= 2.0]
            if failing:
                raise Local(f"lost at {failing[0]}")
            return block(self, amps)

        monkeypatch.setattr(sweep_mod.SweepPlan, "block", failing_from_amp_two)
        # Rows 0-3 in one block at workers 1, in blocks of two rows at
        # workers 2 and of one row at workers 4: only children fail, and
        # the rerun in this process raises the one-worker error.
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 3.0, 4)
        for workers, rows in ((1, 4), (2, 2), (4, 1)):
            always_fork(rows * grid.n_eps)
            with pytest.raises(Local, match=r"^lost at 2\.0$"):
                run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=workers)
        assert len(forks) == 0 + 1 + 3
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fingerprint_tracks_physics_not_grid(self):
        a = run_frequency_batch(TWO_STATE, [DRIVE], SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2))[0]
        b = run_frequency_batch(TWO_STATE, [DRIVE], SweepGrid(-2.0, 2.0, 5, 0.0, 2.0, 3))[0]
        assert a.fingerprint == b.fingerprint
        other_drive = DriveParams(amplitude=0.0, frequency=2.0, dephasing=0.1)
        c = run_frequency_batch(TWO_STATE, [other_drive], SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2))[0]
        assert a.fingerprint != c.fingerprint
        louder = DriveParams(amplitude=5.0, frequency=1.0, dephasing=0.1)
        assert leaky_fingerprint(drive=louder) == leaky_fingerprint()

    @pytest.mark.parametrize("changed", ONE_INPUT_CHANGED.values(), ids=ONE_INPUT_CHANGED.keys())
    def test_fingerprint_covers_every_input(self, changed):
        assert changed() != leaky_fingerprint()

    def test_leak_thresholds_past_the_ladders_share_one_fingerprint(self):
        # Levels at or above the threshold pump: from max(n_left, n_right)
        # = 3 on, none does.
        past = {
            leaky_fingerprint(leak=LeakConfig(threshold=t, return_rate=1.0))
            for t in (3, 4, 2**63, 2**70)
        }
        assert len(past) == 1
        assert past != {leaky_fingerprint(leak=LeakConfig(threshold=2, return_rate=1.0))}

    def test_shipped_fingerprints_are_pinned(self):
        # Every manifest records these digests, so a change to what
        # model_fingerprint packs changes the bytes of every manifest.
        pinned = {
            "first_diamond": ["a5f0ada0b03339fb7c1a5171ba9291fe7fb99a5b79c50a101418e18c60063049"],
            "frequency_batch": [
                "70fc0ae272878589b8310a510ab0fe36a55f9df0445d3359e43c416b7d81b8a0",
                "840ae477d0e6b2ecb94fe5f9d3e305b959e7c4d823330754e3187db5697ef95c",
                "7163befb85b81d13911070a0d866008ca68d3a96a90c714243d5123d16fc5a85",
                "3f380db4952bb36d97a6054a3902fcddd0390334482bf5a4063b163bf6288c69",
                "0e153abf397ab11f06c411c5bd4a10cf7485d02c3cad7b41c94b4038074c6143",
                "d876c42ceddc93397e44feb912d284a51cb83824f921064c3cc0252c721f1885",
            ],
            "second_diamond": ["5f1f81a7fe885f26d339241bf8c0ce70d14bbee3716d528dcb6c3e9bc168c902"],
            "ten_level": ["9a4aed5d0c14660c95ce582749c1aaf96fac95133b12a5d55ba25c04c5cf56b5"],
        }
        configs = sorted(CONFIGS.glob("*.cfg"))
        assert [path.stem for path in configs] == sorted(pinned)
        for path in configs:
            config = cli.parse_config(path.read_text())
            got = [
                sweep_mod.model_fingerprint(config.model, drive, config.kernel)
                for drive in config.drives
            ]
            assert got == pinned[path.stem], path.stem

    def test_kernel_params_respected(self):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 1.0, 2)
        base = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        kernel = RateKernelParams(n_margin=0)
        narrow = run_frequency_batch(TWO_STATE, [DRIVE], grid, kernel=kernel)[0]
        assert not np.array_equal(base.values, narrow.values)


sparse_rates = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))
huge_rates = st.one_of(sparse_rates, st.floats(1e300, 1e308))


@st.composite
def engine_cases(draw):
    """A random model (2-4 levels per well, sparse rates, optional leak),
    drive, small grid and kernel.

    The decays of excited levels to their well's ground state and
    between the two ground states are each drawn as forced or not, so
    some models have several closed classes of states.  The engine and
    the oracle then both give the state reached from 0R.

    A/w reaches 40, twice the default n_margin of 20.  The engine and
    the oracle truncate the photon sum by the same rule, the support of
    the point's amplitude, so their rates agree bit for bit and any gap
    is the solve's.

    Each of three extremes is drawn or not: gamma2 down to 1e-200, whose
    square underflows, n_margin down to 0, and static rates up to 1e308,
    whose outflows may overflow.  Some points then have rates or
    outflows that are not finite, or fail the acceptance check.
    """
    nl, nr = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    static_rates = draw(st.sampled_from([sparse_rates, huge_rates]))

    def block(rows, cols, to_ground=(), strategy=static_rates):
        flat = draw(st.lists(strategy, min_size=rows * cols, max_size=rows * cols))
        rates = np.array(flat).reshape(rows, cols)
        if draw(st.booleans()):
            for i, j in to_ground:
                rates[i, j] = draw(st.floats(1e-4, 2.0))
        return rates

    def ladder(n):
        steps = draw(st.lists(st.floats(0.5, 6.0), min_size=n - 1, max_size=n - 1))
        return tuple(np.concatenate(([0.0], np.cumsum(steps))))

    leaks = st.builds(LeakConfig, threshold=st.integers(0, 4), return_rate=st.floats(0.1, 2.0))
    model = QubitModel(
        left_offsets=ladder(nl),
        right_offsets=ladder(nr),
        crossings=block(nl, nr, strategy=sparse_rates),
        left_relax=np.tril(block(nl, nl, [(i, 0) for i in range(1, nl)]), -1),
        right_relax=np.tril(block(nr, nr, [(j, 0) for j in range(1, nr)]), -1),
        left_to_right=block(nl, nr, [(0, 0)]),
        right_to_left=block(nr, nl, [(0, 0)]),
        leak=draw(st.one_of(st.none(), leaks)),
    )
    drive = DriveParams(
        amplitude=0.0,
        frequency=draw(st.floats(0.5, 3.0)),
        dephasing=draw(
            st.one_of(st.floats(0.05, 0.5), st.floats(-200.0, -1.3).map(lambda e: 10.0**e))
        ),
    )
    eps_min, amp_min = draw(st.floats(-12.0, 8.0)), draw(st.floats(0.0, 16.0))
    grid = SweepGrid(
        eps_min,
        eps_min + draw(st.floats(0.1, 8.0)),
        draw(st.integers(2, 6)),
        amp_min,
        amp_min + draw(st.floats(0.1, 4.0)),
        draw(st.integers(2, 3)),
    )
    kernel = RateKernelParams(draw(st.one_of(st.just(20), st.integers(0, 20))))
    return model, drive, grid, kernel


def first_diamond_case(*edits):
    """configs/first_diamond.cfg on the grid eps = -1 1 3, amp = 0 1 2,
    with the (pattern, replacement) line edits, as an engine case.  Each
    pattern must match exactly once: an edit that matches nothing would
    leave the case silently unedited."""
    edits = (r"eps = .*", "eps = -1 1 3", r"amp = .*", "amp = 0 1 2", *edits)
    text = FIRST_DIAMOND_CFG
    for pattern, replacement in zip(edits[::2], edits[1::2]):
        text, count = re.subn(pattern, replacement, text)
        assert count == 1, pattern
    config = cli.parse_config(text)
    return config.model, config.drives[0], config.grid, config.kernel


def underflow_pair(delta):
    """0L and 0R pumped through a crossing of size delta, with decay
    0R -> 0L at 1 GHz.  A tiny delta makes the pumped rate subnormal, or
    0 where it underflows."""
    return QubitModel(
        left_offsets=(0.0,),
        right_offsets=(0.0,),
        crossings=np.array([[delta]]),
        right_to_left=np.array([[1.0]]),
    )


def pointwise_map(model, drive_base, grid, kernel=RateKernelParams()):
    """The map from one scalar oracle solve per point.  Where the oracle
    rejects a point, raises its error, naming the first such point in
    row order."""
    values = np.empty(grid.shape)
    for k, amp in enumerate(grid.amp_values.tolist()):
        drive = DriveParams(amp, drive_base.frequency, drive_base.dephasing)
        for m, eps in enumerate(grid.eps_values.tolist()):
            try:
                rm = build_rate_matrix(model, eps, drive, kernel)
                values[k, m] = stationary_solve(rm).p_left
            except (ValidationError, NonConvergent) as exc:
                raise type(exc)(f"{exc} (eps={eps} GHz, amp={amp} GHz)") from None
    return values


class TestRowEngine:
    @given(engine_cases())
    @example(  # A/w up to 14; the row lies 6-14 photons from the crossing
        (
            QubitModel(
                left_offsets=(0.0, 3.0),
                right_offsets=(0.0, 1.0),
                crossings=np.array([[0.0, 0.0], [1.0, 0.0]]),
                left_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
                right_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
                left_to_right=np.eye(2),
                right_to_left=np.eye(2),
            ),
            DriveParams(amplitude=0.0, frequency=0.5, dephasing=0.5),
            SweepGrid(0.0, 4.0, 2, 3.0, 7.0, 2),
            RateKernelParams(),
        )
    )
    @example(  # 0L<->1R run at a subnormal rate, and 0R, the start,
        # is transient: 1 / outflow(0L) overflows, but no step forms it
        (
            QubitModel(
                left_offsets=(0.0, 1.0),
                right_offsets=(0.0, 1.0),
                crossings=np.array([[0.0, 1e-158], [0.0, 0.0]]),
                left_relax=np.zeros((2, 2)),
                right_relax=np.zeros((2, 2)),
                left_to_right=np.zeros((2, 2)),
                right_to_left=np.array([[1.0, 0.0], [0.0, 0.0]]),
            ),
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.5),
            SweepGrid(0.0, 1.0, 2, 0.0, 1.0, 2),
            RateKernelParams(),
        )
    )
    @example(  # R1 leaves only through a fill of two rates near 1e-198,
        # which underflows unless the rates are scaled
        (
            QubitModel(
                left_offsets=(0.0, 1.0, 2.0, 3.0),
                right_offsets=(0.0, 1.0, 2.0, 5.0),
                crossings=np.array(
                    [[0.0, 0.0, 0.0, 0.0], [0.0, 1e-99, 0.0, 1e-99], [0.0] * 4, [0.0] * 4]
                ),
                left_relax=np.zeros((4, 4)),
                right_relax=np.zeros((4, 4)),
                left_to_right=np.array(
                    [[0.0] * 4, [0.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0, 1.0, 0.0, 0.0]]
                ),
                right_to_left=np.array(
                    [[0.0, 0.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4, [0.0, 0.0, 0.0, 1.0]]
                ),
                leak=LeakConfig(threshold=2, return_rate=1.0),
            ),
            DriveParams(amplitude=0.0, frequency=2.0, dephasing=0.5),
            SweepGrid(-3.0, 3.0, 13, 0.0, 1.0, 2),
            RateKernelParams(),
        )
    )
    @example(  # n_margin = 0: photon -1 lies outside amplitude 0's support,
        # so its 0/0 on resonance at eps = -1 is not summed; eps = 0 is inf
        first_diamond_case(
            r"dephasing = .*", "dephasing = 1e-200",
            r"amp = .*", "amp = 0 1 2\n\n[kernel]\nn_margin = 0",
        )
    )
    @example(  # J_20(A)**2 is 0 at both amplitudes, but photon 20 lies in
        # both supports: its 0/0 on resonance at eps = 20 is summed
        (
            QubitModel(
                left_offsets=(0.0,),
                right_offsets=(0.0,),
                crossings=np.array([[0.04]]),
                left_to_right=np.array([[0.002]]),
            ),
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=1e-200),
            SweepGrid(20.0, 21.0, 2, 0.0, 1e-10, 2),
            RateKernelParams(),
        )
    )
    @example(  # every rate is finite, but R1's outflow overflows
        first_diamond_case(r"relax R 1 0 = .*", "relax R 1 0 = 1e308\ninterwell R1 L0 = 1e308")
    )
    @example(  # 1e300 GHz into the left well: P_L sums to 1 + 2**-52, and
        # both clip it to 1
        (
            QubitModel(
                left_offsets=(0.0, 1.0, 2.0),
                right_offsets=(0.0, 1.0),
                crossings=np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0]]),
                left_relax=np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [1.0, 1.0, 0.0]]),
                right_relax=np.array([[0.0, 0.0], [1e300, 0.0]]),
                left_to_right=np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
                right_to_left=np.array([[0.0, 0.0, 1e300], [0.0, 0.0, 0.0]]),
            ),
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.5),
            SweepGrid(0.0, 1.0, 2, 0.0, 1.0, 2),
            RateKernelParams(),
        )
    )
    @example(  # a fill of two rates near 1e-24 underflows, and the largest
        # rate, 1e300 GHz, lies above 2**300, so the solve keeps the
        # point at its own scale: NonConvergent, quietly
        (
            QubitModel(
                left_offsets=(0.0, 1.0),
                right_offsets=(0.0, 1.0),
                crossings=np.array([[0.0, 0.0], [0.5, 0.0]]),
                left_relax=np.array([[0.0, 0.0], [0.5, 0.0]]),
                right_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
                left_to_right=np.array([[0.0, 1.0], [1e300, 0.0]]),
                right_to_left=np.zeros((2, 2)),
            ),
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=1e-22),
            SweepGrid(0.0, 1.0, 2, 0.0, 1.0, 2),
            RateKernelParams(),
        )
    )
    @example(  # L0 -> R0 overflows on the n = 0 resonance at (0, 0), after
        # (-1, 0) fails the acceptance check: NonConvergent at (-1, 0)
        first_diamond_case(
            r"crossing 0 0 = .*", "crossing 0 0 = 3e153",
            r"interwell L0 R0 = .*", "interwell L0 R0 = 1.5e308",
        )
    )
    @settings(max_examples=200, deadline=None)
    @pytest.mark.parametrize("row_blocks", [False, True], ids=["default_blocks", "row_blocks"])
    def test_matches_scalar_oracle(self, row_blocks, case):
        # Bit for bit at every point, also where a zero rate changes the
        # point's pattern: both solve it on the plan of its own entries.
        # Where the oracle rejects a point, the run raises the oracle's
        # error naming the first one in row order, whether the grid is
        # one block or one block per row.
        model, drive, grid, kernel = case
        with pytest.MonkeyPatch.context() as patch:
            if row_blocks:
                patch.setattr(sweep_mod, "_BLOCK_POINTS", grid.n_eps)
            try:
                expected = pointwise_map(model, drive, grid, kernel)
            except (ValidationError, NonConvergent) as exc:
                with pytest.raises(type(exc)) as raised:
                    run_frequency_batch(model, [drive], grid, kernel)
                assert str(raised.value) == str(exc)
            else:
                pmap = run_frequency_batch(model, [drive], grid, kernel)[0]
                assert np.array_equal(pmap.values, expected)

    def test_reducible_model_keeps_the_pair_holding_0r(self, monkeypatch):
        # Two non-interacting pairs, 0L<->0R and 1L<->1R: two closed
        # classes at every point.  One plan solves every point, with all
        # population in the pair holding 0R.
        model = QubitModel(
            left_offsets=(0.0, 5.0),
            right_offsets=(0.0, 5.0),
            crossings=np.array([[0.2, 0.0], [0.0, 0.5]]),
        )
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        calls = count_solves(monkeypatch)
        pmap = run_frequency_batch(model, [DRIVE], grid)[0]
        assert calls == [1]
        assert np.all(pmap.values == 0.5)
        assert np.array_equal(pmap.values, pointwise_map(model, DRIVE, grid))

    def test_underflowed_points_solve_on_their_own_pattern(self, monkeypatch):
        # At delta = 1e-160 the pumped rate underflows to 0 at 96 of the 183
        # points.  There 0R only drains, and on the model's pattern 0L's
        # outflow would be exactly 0.  Those points are solved together on
        # their own pattern, the rest on the model's, with all population
        # in 0L at the zero-rate points.
        grid = SweepGrid(-30.0, 30.0, 61, 0.0, 2.0, 3)
        calls = count_solves(monkeypatch)
        pmap = run_frequency_batch(underflow_pair(1e-160), [DRIVE], grid)[0]
        zero = np.array([
            [
                lzs_rate(1e-160, float(eps), DriveParams(float(amp), 1.0, 0.1)) == 0.0
                for eps in grid.eps_values
            ]
            for amp in grid.amp_values
        ])
        assert zero.sum() == 96
        assert calls == [2]
        assert np.all(pmap.values[zero] == 1.0)
        assert np.array_equal(pmap.values, pointwise_map(underflow_pair(1e-160), DRIVE, grid))

    def test_one_solve_per_pattern_in_each_block(self, monkeypatch):
        # 0L pumped into 0R and 1R through two crossings of 1e-160: each
        # pumped rate underflows to 0 at some points, so a block holds four
        # patterns.  Each block solves each of its patterns in one call,
        # and the map is the oracle's bit for bit.
        model = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0, 12.0),
            crossings=np.array([[1e-160, 1e-160]]),
            right_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
            right_to_left=np.array([[1.0], [0.0]]),
        )
        grid = SweepGrid(-30.0, 30.0, 61, 0.0, 2.0, 5)
        monkeypatch.setattr(sweep_mod, "_BLOCK_POINTS", 2 * grid.n_eps)
        calls = count_solves(monkeypatch)
        pmap = run_frequency_batch(model, [DRIVE], grid)[0]
        amps = grid.amp_values.tolist()
        top = DriveParams(amps[-1], DRIVE.frequency, DRIVE.dephasing)
        plan = sweep_mod.SweepPlan(model, top, RateKernelParams(), grid.eps_values)
        patterns = [
            np.unique(plan.values(amps[k : k + 2]) != 0.0, axis=1).shape[1]
            for k in range(0, grid.n_amp, 2)
        ]
        assert calls == patterns == [4, 4, 4]
        assert np.array_equal(pmap.values, pointwise_map(model, DRIVE, grid))

    def test_large_unnormalized_vector_stays_finite(self):
        # At delta = 1e-154 the pumped rate W stays below 1e-307, so the
        # vector built back from 0R holds 0L at (1 + W) / W: past 2**600 at
        # every point, and past the float range at most, unless it is
        # rescaled.  P_L = (1 + W) / (1 + 2 W) rounds to 1, and the map
        # matches probe bit for bit.
        grid = SweepGrid(-30.0, 30.0, 61, 0.0, 2.0, 3)
        pmap = run_frequency_batch(underflow_pair(1e-154), [DRIVE], grid)[0]
        assert np.all(pmap.values == 1.0)
        assert np.array_equal(pmap.values, pointwise_map(underflow_pair(1e-154), DRIVE, grid))

    def test_two_closed_classes_give_one_answer(self):
        # L0, L1 and R0-R2: the pumped pair L0<->R0 and L0<->R1 form one
        # closed class, and R2, fed only by L1, another.  From 0R the
        # first class holds everything, in equal shares at any pumped
        # rate.  Relaxing in time, the answer once turned on the last bit
        # of a rate: P_L = 1/3 at eps = 0, but 0 at eps = 1.
        l_to_r = np.zeros((2, 3))
        l_to_r[0, 1] = l_to_r[1, 2] = 1.0
        r_to_l = np.zeros((3, 2))
        r_to_l[1, 0] = 1.0
        crossings = np.zeros((2, 3))
        crossings[0, 0] = 1.0
        model = QubitModel(
            left_offsets=(0.0, 2.0),
            right_offsets=(0.0, 1.5, 3.0),
            crossings=crossings,
            left_to_right=l_to_r,
            right_to_left=r_to_l,
        )
        drive = DriveParams(amplitude=3.5, frequency=1.0, dephasing=0.5)
        probed = [
            stationary_solve(build_rate_matrix(model, eps, drive)).p_left for eps in (0.0, 1.0)
        ]
        row = run_frequency_batch(model, [drive], SweepGrid(0.0, 1.0, 2, 3.5, 4.5, 2))[0].values[0]
        assert probed == row.tolist() == [probed[0]] * 2
        assert probed[0] == pytest.approx(1.0 / 3.0, abs=1e-15)


def count_solves(monkeypatch):
    """A list that gets one entry per SweepPlan.block call: the number of
    GTHPlan.solve calls the block makes."""
    calls = []
    block, solve = sweep_mod.SweepPlan.block, GTHPlan.solve

    def block_counted(self, amps):
        calls.append(0)
        return block(self, amps)

    def solve_counted(self, values):
        calls[-1] += 1
        return solve(self, values)

    monkeypatch.setattr(sweep_mod.SweepPlan, "block", block_counted)
    monkeypatch.setattr(GTHPlan, "solve", solve_counted)
    return calls




def ten_level_config(n_eps, n_amp):
    """configs/ten_level.cfg on an n_eps x n_amp grid."""
    text = re.sub(r"eps = .*", f"eps = -10 10 {n_eps}", TEN_LEVEL_CFG)
    return cli.parse_config(re.sub(r"amp = .*", f"amp = 0 15 {n_amp}", text))


class TestBlocks:
    def test_point_bits_do_not_depend_on_its_block(self):
        # A point's P_L has the same bits solved alone, as probe solves it
        # (stationary_solve of build_rate_matrix), in its row, and in a
        # block of the whole map.
        config = ten_level_config(9, 5)
        grid, drive = config.grid, config.drives[0]
        amps = grid.amp_values.tolist()
        top = DriveParams(amps[-1], drive.frequency, drive.dephasing)
        plan = sweep_mod.SweepPlan(config.model, top, config.kernel, grid.eps_values)
        whole = plan.block(amps)
        for k, amp in enumerate(amps):
            row = plan.block([amp])[0]
            assert np.array_equal(row, whole[k])
            point_drive = DriveParams(amp, drive.frequency, drive.dephasing)
            for m, eps in enumerate(grid.eps_values.tolist()):
                alone = build_rate_matrix(config.model, eps, point_drive, config.kernel)
                assert stationary_solve(alone).p_left == row[m]
        pmap = run_frequency_batch(config.model, [drive], grid, config.kernel)[0]
        assert np.array_equal(whole, pmap.values)

    def test_worker_counts_give_identical_bytes(self, always_fork, forks, tmp_path):
        # 27 rows are split into blocks of 27, 14 and 4 rows: one child at
        # two workers, six (seven blocks) at eight.
        config = ten_level_config(27, 27)
        outputs = []
        for workers, rows in ((1, 27), (2, 14), (8, 4)):
            always_fork(rows * config.grid.n_eps)
            out = tmp_path / f"w{workers}"
            assert cli.run(config, workers, out) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["manifest.json", "map_00.csv", "map_00.pgm"]
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(forks) == 1 + 6


class TestFrequencyBatch:
    def test_six_frequencies_give_six_maps(self):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2)
        drives = [
            DriveParams(amplitude=0.0, frequency=f, dephasing=0.1)
            for f in (5.0, 8.0, 11.0, 13.0, 15.0, 17.0)
        ]
        maps = run_frequency_batch(TWO_STATE, drives, grid)
        assert len(maps) == 6
        assert len({pmap.values.tobytes() for pmap in maps}) == 6
        # Map m is drive m's, bit for bit: the batch keeps the drive order.
        for pmap, drive in zip(maps, drives):
            alone = run_frequency_batch(TWO_STATE, [drive], grid)[0]
            assert pmap.values.tobytes() == alone.values.tobytes()
            assert pmap.fingerprint == alone.fingerprint

    def test_duplicate_frequencies_identical(self):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        one, two = run_frequency_batch(TWO_STATE, [DRIVE, DRIVE], grid)
        assert np.array_equal(one.values, two.values)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            run_frequency_batch(TWO_STATE, [], SweepGrid(-1, 1, 3, 0, 1, 2))

    @pytest.mark.parametrize(
        "n_eps, n_amp",
        [(10**400, 2), (2, 10**400), (sys.maxsize // 16 + 1, 2)],
        ids=["eps_points", "amp_points", "one_point_past"],
    )
    def test_batch_past_the_address_space_rejected(self, n_eps, n_amp):
        # Rejected before anything is allocated, not an OverflowError.
        grid = SweepGrid(-1, 1, n_eps, 0, 1, n_amp)
        with pytest.raises(ValidationError, match="would take more than"):
            run_frequency_batch(TWO_STATE, [DRIVE], grid)

    def test_batch_forks_once(self, always_fork, forks):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 4)
        drives = [DriveParams(0.0, f, 0.1) for f in (1.0, 2.0, 3.0)]
        alone = run_frequency_batch(TWO_STATE, drives, grid)
        always_fork(2 * grid.n_eps)
        pooled = run_frequency_batch(TWO_STATE, drives, grid, workers=2)
        # Six two-row blocks over three maps, shared by one child and this
        # process: one fork for the run, not one for each map.
        assert len(forks) == 1
        for a, b in zip(alone, pooled):
            assert np.array_equal(a.values, b.values)

    def test_one_worker_run_of_identical_drives(self):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 4)
        one, two = run_frequency_batch(TWO_STATE, [DRIVE, DRIVE], grid, workers=1)
        assert np.array_equal(one.values, two.values)

    def test_nonconvergent_in_the_second_map(self, always_fork, forks, monkeypatch):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 3.0, 4)
        amps = grid.amp_values.tolist()
        drives = [DriveParams(0.0, f, 0.1) for f in (1.0, 2.0, 3.0)]
        top = DriveParams(amps[-1], 2.0, 0.1)
        plan = sweep_mod.SweepPlan(TWO_STATE, top, RateKernelParams(), grid.eps_values)
        # Rows 1 and 3 of the second map; row 0 (A = 0) has the same rates
        # at every frequency, so it would fail in every map.
        failing = {col.tobytes() for col in plan.values([amps[1], amps[3]]).T}
        accepts = GTHPlan.accepts

        def reject_failing_points(self, values, q):
            ok = accepts(self, values, q)
            return ok & np.array([col.tobytes() not in failing for col in values.T])

        monkeypatch.setattr(GTHPlan, "accepts", reject_failing_points)
        # One four-row block per map at one worker, two-row blocks at 2
        # and 3.
        errors = []
        for workers, rows in ((1, 4), (2, 2), (3, 2)):
            always_fork(rows * grid.n_eps)
            with pytest.raises(NonConvergent) as err:
                run_frequency_batch(TWO_STATE, drives, grid, workers=workers)
            errors.append((err.value.eps, err.value.amp, str(err.value)))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][:2] == (-1.0, amps[1])
        assert len(forks) == 0 + 1 + 2
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


class TestForkRule:
    def test_below_the_threshold_nothing_forks(self, forks, tmp_path):
        # The bench's 27 x 27 ten-level input: 37k entry-points.
        config = ten_level_config(27, 27)
        outputs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            assert cli.run(config, workers, out) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1] == outputs[2]
        assert forks == []

    @pytest.mark.parametrize(
        "workers, shares, children",
        [(8, 1, 0), (8, 2, 1), (8, 3, 2), (2, 3, 1)],
    )
    def test_each_process_gets_its_share_of_the_work(
        self, forks, monkeypatch, workers, shares, children
    ):
        # Two maps of 6 rows, pooled in a task per row; the threshold is a
        # 1 / shares part of both maps' work, so with shares = 2 only the
        # second map's work makes the second process pay.
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.5, 6)
        drives = [DriveParams(0.0, f, 0.1) for f in (1.0, 2.0)]
        entries = len(sweep_mod._generator_layout(TWO_STATE)[0])
        work = len(drives) * grid.n_eps * grid.n_amp * entries
        alone = run_frequency_batch(TWO_STATE, drives, grid)
        monkeypatch.setattr(sweep_mod, "_BLOCK_POINTS", 1)
        monkeypatch.setattr(sweep_mod, "_WORK_PER_PROCESS", work // shares)
        pooled = run_frequency_batch(TWO_STATE, drives, grid, workers=workers)
        assert len(forks) == children
        for a, b in zip(alone, pooled):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize(
        "name, processes",
        [
            ("ten_level", (1, 2, 8, 8)),
            ("first_diamond", (1, 1, 1, 1)),
            ("second_diamond", (1, 1, 1, 1)),
            ("frequency_batch", (1, 1, 1, 1)),
        ],
    )
    def test_shipped_configs_fork_only_where_it_pays(self, name, processes):
        # The decision alone, on each shipped config's full grid at
        # --workers 1, 2, 8 and 64: ten-level has 8.2M entry-points, so 8
        # processes at most, the 3-state configs at most 0.66M.
        path = CONFIGS / f"{name}.cfg"
        config = cli.parse_config(path.read_text())
        n_maps = len(config.drives)
        assert processes == tuple(
            sweep_mod._schedule(config.model, n_maps, config.grid, workers)[1]
            for workers in (1, 2, 8, 64)
        )

    @pytest.mark.parametrize(
        "name, tasks",
        [
            ("two_state", 1),
            ("ten_level", 81),
            ("first_diamond", 21),
            ("second_diamond", 21),
            ("frequency_batch", 66),
        ],
    )
    def test_tasks_depend_on_the_grid_alone(self, monkeypatch, name, tasks):
        # The same blocks of up to _BLOCK_POINTS points at any worker
        # count, even where every process would pay: TWO_STATE on 5 x 4 is
        # one task of four rows, a shipped map 5, 10 or 11 rows a task.
        monkeypatch.setattr(sweep_mod, "_WORK_PER_PROCESS", 1)
        if name == "two_state":
            model, n_maps, grid = TWO_STATE, 1, SweepGrid(-1.0, 1.0, 5, 0.0, 3.0, 4)
        else:
            config = cli.parse_config((CONFIGS / f"{name}.cfg").read_text())
            model, n_maps, grid = config.model, len(config.drives), config.grid
        lists = [sweep_mod._schedule(model, n_maps, grid, workers)[0] for workers in (1, 2, 8, 64)]
        assert lists[1:] == lists[:1] * 3
        assert len(lists[0]) == tasks

    def test_one_task_map_forks_no_child(self, always_fork, forks):
        # Eight processes would pay, but the 5 x 4 map is one task, so the
        # run stays in this process.
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 3.0, 4)
        alone = run_frequency_batch(TWO_STATE, [DRIVE], grid)[0]
        pooled = run_frequency_batch(TWO_STATE, [DRIVE], grid, workers=8)[0]
        assert np.array_equal(pooled.values, alone.values)
        assert forks == []
