"""Grid sweeps: determinism, closed-form rows, and parallel equality."""

import os
import re
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
    QubitModel,
    RateKernelParams,
    SweepGrid,
    ValidationError,
    build_rate_matrix,
    lzs_rate,
    run_frequency_batch,
    run_sweep,
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


class TestSweepGrid:
    def test_axes_are_inclusive_linspaces(self):
        g = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        assert list(g.eps_values) == [-1.0, -0.5, 0.0, 0.5, 1.0]
        assert list(g.amp_values) == [0.0, 1.0, 2.0]
        assert g.shape == (3, 5)

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


class TestRunSweep:
    def test_matches_pointwise_solves(self):
        grid = SweepGrid(-1.5, 1.5, 7, 0.0, 2.0, 4)
        pmap = run_sweep(TWO_STATE, DRIVE, grid)
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
        pmap = run_sweep(ZERO_COUPLING, DRIVE, SweepGrid(-1.0, 1.0, 2, 0.0, 1.0, 2))
        assert np.all(pmap.values == 0.0)  # everything stays in 0R

    def test_static_row_is_single_lorentzian_balance(self):
        grid = SweepGrid(-2.0, 2.0, 9, 0.0, 1.0, 2)
        pmap = run_sweep(TWO_STATE, DRIVE, grid)
        for m, eps in enumerate(grid.eps_values):
            w = lzs_rate(0.05, float(eps), DRIVE)
            expected = w / (2 * w + 0.01)
            assert pmap.values[0, m] == pytest.approx(expected, rel=1e-10)

    def test_values_within_unit_interval(self):
        pmap = run_sweep(TWO_STATE, DRIVE, SweepGrid(-3.0, 3.0, 11, 0.0, 4.0, 5))
        assert np.all(pmap.values >= 0.0)
        assert np.all(pmap.values <= 1.0)

    def test_repeated_runs_bit_identical(self):
        grid = SweepGrid(-2.0, 2.0, 9, 0.0, 3.0, 5)
        a = run_sweep(TWO_STATE, DRIVE, grid)
        b = run_sweep(TWO_STATE, DRIVE, grid)
        assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("workers", [2, 4])
    def test_worker_count_does_not_change_bits(self, workers):
        grid = SweepGrid(-1.0, 1.0, 7, 0.0, 2.0, 4)
        serial = run_sweep(TWO_STATE, DRIVE, grid, workers=1)
        parallel = run_sweep(TWO_STATE, DRIVE, grid, workers=workers)
        assert np.array_equal(serial.values, parallel.values)

    def test_pool_never_exceeds_rows(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        pooled = run_sweep(TWO_STATE, DRIVE, grid, workers=8)
        # Three one-row blocks: two forked workers, and this process.
        assert len(forks) == 2
        assert np.array_equal(pooled.values, run_sweep(TWO_STATE, DRIVE, grid).values)

    def test_without_fork_workers_run_in_process(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 4)
        alone = run_sweep(TWO_STATE, DRIVE, grid, workers=2)
        monkeypatch.undo()
        assert np.array_equal(alone.values, run_sweep(TWO_STATE, DRIVE, grid).values)

    def test_workers_validation(self):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2)
        with pytest.raises(ValidationError):
            run_sweep(TWO_STATE, DRIVE, grid, workers=0)

    def test_nonconvergent_carries_coordinates(self, monkeypatch):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 2.0, 3)

        def reject(self, values, q):
            return np.zeros(values.shape[1], dtype=bool)

        # Every point fails the check; the first block names its first
        # point.
        monkeypatch.setattr(GTHPlan, "accepts", reject)
        with pytest.raises(NonConvergent) as err:
            run_sweep(TWO_STATE, DRIVE, grid)
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
    def test_nonconvergent_from_a_worker(self, monkeypatch, workers, n_amp, failing_rows):
        # Blocks hold two rows each.  Points of the failing rows are told
        # apart by their generator values, whichever process solves them.
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
        for w in (1, workers):
            with pytest.raises(NonConvergent) as err:
                run_sweep(TWO_STATE, DRIVE, grid, workers=w)
            errors.append((err.value.eps, err.value.amp, str(err.value)))
        assert errors[0] == errors[1]
        assert errors[0][:2] == (-1.0, amps[failing_rows[0]])

    @pytest.mark.parametrize("kind", ["raises", "exits"])
    def test_failure_only_a_child_hits_is_redone_in_process(self, monkeypatch, tmp_path, kind):
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
        alone = run_sweep(TWO_STATE, DRIVE, grid)
        config = tmp_path / "ten_level.cfg"
        config.write_text(re.sub(r"amp = .*", "amp = 0 15 4", TEN_LEVEL_CFG))
        assert cli.main(["run", str(config), "--out", str(tmp_path / "w1")]) == 0
        monkeypatch.setattr(sweep_mod.SweepPlan, "block", failing_in_child)
        assert np.array_equal(run_sweep(TWO_STATE, DRIVE, grid, workers=2).values, alone.values)
        assert cli.main(["run", str(config), "--workers", "2", "--out", str(tmp_path / "w2")]) == 0
        for path in sorted((tmp_path / "w1").iterdir()):
            assert (tmp_path / "w2" / path.name).read_bytes() == path.read_bytes()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failure_that_recurs_in_process_is_raised_itself(self, monkeypatch):
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
        for workers in (1, 2, 4):
            with pytest.raises(Local, match=r"^lost at 2\.0$"):
                run_sweep(TWO_STATE, DRIVE, grid, workers=workers)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_fingerprint_tracks_physics_not_grid(self):
        a = run_sweep(TWO_STATE, DRIVE, SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2))
        b = run_sweep(TWO_STATE, DRIVE, SweepGrid(-2.0, 2.0, 5, 0.0, 2.0, 3))
        assert a.fingerprint == b.fingerprint
        other_drive = DriveParams(amplitude=0.0, frequency=2.0, dephasing=0.1)
        c = run_sweep(TWO_STATE, other_drive, SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2))
        assert a.fingerprint != c.fingerprint

    def test_kernel_params_respected(self):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 1.0, 2)
        base = run_sweep(TWO_STATE, DRIVE, grid)
        tight = run_sweep(
            TWO_STATE, DRIVE, grid, kernel=RateKernelParams(lorentz_cutoff=0.5)
        )
        assert not np.array_equal(base.values, tight.values)


sparse_rates = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))


@st.composite
def engine_cases(draw):
    """A random model (2-4 levels per well, sparse rates, optional leak),
    kernel (optional lorentz_cutoff), drive and small grid.

    The decays of excited levels to their well's ground state and
    between the two ground states are each drawn as forced or not, so
    some models have several closed classes of states.  The engine and
    the oracle then both give the state reached from 0R.

    A/w reaches 40, twice the default n_margin of 20.  The engine and
    the oracle truncate the photon sum by the same rule, and each point
    of the engine sums only its own window, so their rates agree bit for
    bit and any gap is the solve's.
    """
    nl, nr = draw(st.integers(2, 4)), draw(st.integers(2, 4))

    def block(rows, cols, to_ground=()):
        flat = draw(st.lists(sparse_rates, min_size=rows * cols, max_size=rows * cols))
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
        crossings=block(nl, nr),
        left_relax=np.tril(block(nl, nl, [(i, 0) for i in range(1, nl)]), -1),
        right_relax=np.tril(block(nr, nr, [(j, 0) for j in range(1, nr)]), -1),
        left_to_right=block(nl, nr, [(0, 0)]),
        right_to_left=block(nr, nl, [(0, 0)]),
        leak=draw(st.one_of(st.none(), leaks)),
    )
    cutoff = draw(st.one_of(st.none(), st.floats(0.5, 50.0)))
    drive = DriveParams(
        amplitude=0.0,
        frequency=draw(st.floats(0.5, 3.0)),
        dephasing=draw(st.floats(0.05, 0.5)),
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
    return model, RateKernelParams(lorentz_cutoff=cutoff), drive, grid


def pointwise_map(model, drive_base, grid, kernel=RateKernelParams()):
    """The map from one scalar oracle solve per point."""
    values = np.empty(grid.shape)
    for k, amp in enumerate(grid.amp_values):
        drive = DriveParams(float(amp), drive_base.frequency, drive_base.dephasing)
        for m, eps in enumerate(grid.eps_values):
            rm = build_rate_matrix(model, float(eps), drive, kernel)
            values[k, m] = stationary_solve(rm).p_left
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
            RateKernelParams(),
            DriveParams(amplitude=0.0, frequency=0.5, dephasing=0.5),
            SweepGrid(0.0, 4.0, 2, 3.0, 7.0, 2),
        )
    )
    @example(  # at the least amplitude 0L<->1R run at a subnormal rate
        (
            QubitModel(
                left_offsets=(0.0, 1.0),
                right_offsets=(0.0, 1.0),
                crossings=np.array([[0.0, 1.0], [0.0, 0.0]]),
                left_relax=np.zeros((2, 2)),
                right_relax=np.zeros((2, 2)),
                left_to_right=np.zeros((2, 2)),
                right_to_left=np.array([[1.0, 0.0], [0.0, 0.0]]),
            ),
            RateKernelParams(n_margin=20, lorentz_cutoff=1.0),
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.5),
            SweepGrid(0.0, 1.0, 2, 1.1912276104925003e-158, 1.0, 2),
        )
    )
    @example(  # at the least amplitude R1 leaves only through a fill of
        # two 2e-198 rates, which underflows unless the rates are scaled
        (
            QubitModel(
                left_offsets=(0.0, 1.0, 2.0, 3.0),
                right_offsets=(0.0, 1.0, 2.0, 5.0),
                crossings=np.array(
                    [[0.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 1.0], [0.0] * 4, [0.0] * 4]
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
            RateKernelParams(n_margin=20, lorentz_cutoff=1.0),
            DriveParams(amplitude=0.0, frequency=2.0, dephasing=0.5),
            SweepGrid(0.0, 2.0, 2, 5.780685181640569e-99, 1.0, 2),
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, case):
        # Bit for bit at every point, also where a zero rate changes the
        # point's pattern: both solve it on the plan of its own entries.
        model, kernel, drive, grid = case
        pmap = run_sweep(model, drive, grid, kernel)
        assert np.array_equal(pmap.values, pointwise_map(model, drive, grid, kernel))

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
        pmap = run_sweep(model, DRIVE, grid)
        assert calls == [1]
        assert np.all(pmap.values == 0.5)
        assert np.array_equal(pmap.values, pointwise_map(model, DRIVE, grid))

    def test_cutoff_zeroed_points_solve_on_their_own_pattern(self, monkeypatch):
        # One pumped pair with decay R0 -> L0.  Where lorentz_cutoff zeroes
        # the pumped rate, 0R only drains, and on the model's pattern 0L's
        # outflow would be exactly 0.  Those points are solved together on
        # their own pattern, the rest on the model's, with all population
        # in 0L at the cut points.
        model = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0,),
            crossings=np.array([[0.05]]),
            right_to_left=np.array([[0.01]]),
        )
        kernel = RateKernelParams(lorentz_cutoff=2.0)
        grid = SweepGrid(-3.0, 3.0, 13, 0.0, 1.0, 2)
        calls = count_solves(monkeypatch)
        pmap = run_sweep(model, DRIVE, grid, kernel)
        cut = np.array([
            [
                lzs_rate(0.05, float(eps), DriveParams(float(amp), 1.0, 0.1), kernel) == 0.0
                for eps in grid.eps_values
            ]
            for amp in grid.amp_values
        ])
        assert 0 < cut.sum() < cut.size
        assert calls == [2]
        assert np.all(pmap.values[cut] == 1.0)
        assert np.array_equal(pmap.values, pointwise_map(model, DRIVE, grid, kernel))

    def test_one_solve_per_pattern_in_each_block(self, monkeypatch):
        # Ten levels with lorentz_cutoff = 4: most points have zero rates,
        # in a few dozen patterns.  Each block solves each of its patterns
        # in one call, and the map is the oracle's bit for bit.
        config = ten_level_config(26, 9, "lorentz_cutoff = 4")
        grid, drive = config.grid, config.drives[0]
        monkeypatch.setattr(sweep_mod, "_BLOCK_POINTS", 2 * grid.n_eps)
        calls = count_solves(monkeypatch)
        pmap = run_sweep(config.model, drive, grid, config.kernel)
        amps = grid.amp_values.tolist()
        top = DriveParams(amps[-1], drive.frequency, drive.dephasing)
        plan = sweep_mod.SweepPlan(config.model, top, config.kernel, grid.eps_values)
        patterns = [
            np.unique(plan.values(amps[k : k + 2]) != 0.0, axis=1).shape[1]
            for k in range(0, grid.n_amp, 2)
        ]
        assert calls == patterns
        assert len(patterns) == 5 and min(patterns) > 1
        assert np.array_equal(
            pmap.values, pointwise_map(config.model, drive, grid, config.kernel)
        )

    def test_large_unnormalized_vector_stays_finite(self):
        # Ten levels with lorentz_cutoff = 40 at eps = -10: every outflow is
        # positive, but the unnormalized vector built back from the leak
        # state passes 1e297 at A = 0.375 and overflows unless it is
        # rescaled.  The map matches probe bit for bit there.
        config = ten_level_config(3, 41, "lorentz_cutoff = 40")
        drive = config.drives[0]
        assert config.grid.amp_values[1] == 0.375 and config.grid.eps_values[0] == -10.0
        pmap = run_sweep(config.model, drive, config.grid, config.kernel)
        oracle = pointwise_map(config.model, drive, config.grid, config.kernel)
        assert np.array_equal(pmap.values, oracle)
        assert pmap.values[1, 0] == pytest.approx(3.47953578213718826e-11, rel=0, abs=1e-15)

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
        row = run_sweep(model, drive, SweepGrid(0.0, 1.0, 2, 3.5, 4.5, 2)).values[0]
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


TEN_LEVEL_CFG = (Path(__file__).resolve().parents[1] / "configs" / "ten_level.cfg").read_text()


def ten_level_config(n_eps, n_amp, kernel=None):
    """configs/ten_level.cfg on an n_eps x n_amp grid, with the [kernel]
    line kernel if given."""
    text = re.sub(r"eps = .*", f"eps = -10 10 {n_eps}", TEN_LEVEL_CFG)
    if kernel is not None:
        text = text.replace("[output]", f"[kernel]\n{kernel}\n\n[output]")
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
        assert np.array_equal(whole, run_sweep(config.model, drive, grid, config.kernel).values)

    def test_worker_counts_give_identical_bytes(self, tmp_path):
        # 27 rows are split into blocks of 27, 14 and 4 rows.
        config = ten_level_config(27, 27)
        outputs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"w{workers}"
            assert cli.run(config, workers, out) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outputs[0]) == ["manifest.json", "map_00.csv", "map_00.pgm"]
        assert outputs[0] == outputs[1] == outputs[2]


class TestFrequencyBatch:
    def test_single_entry_equals_run_sweep(self):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        (only,) = run_frequency_batch(TWO_STATE, [DRIVE], grid)
        direct = run_sweep(TWO_STATE, DRIVE, grid)
        assert np.array_equal(only.values, direct.values)

    def test_six_frequencies_give_six_maps(self):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2)
        drives = [
            DriveParams(amplitude=0.0, frequency=f, dephasing=0.1)
            for f in (5.0, 8.0, 11.0, 13.0, 15.0, 17.0)
        ]
        maps = run_frequency_batch(TWO_STATE, drives, grid)
        assert [m.frequency for m in maps] == [5.0, 8.0, 11.0, 13.0, 15.0, 17.0]

    def test_duplicate_frequencies_identical(self):
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        one, two = run_frequency_batch(TWO_STATE, [DRIVE, DRIVE], grid)
        assert np.array_equal(one.values, two.values)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            run_frequency_batch(TWO_STATE, [], SweepGrid(-1, 1, 3, 0, 1, 2))

    def test_batch_forks_once(self, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            if pid:
                forks.append(pid)
            return pid

        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 4)
        drives = [DriveParams(0.0, f, 0.1) for f in (1.0, 2.0, 3.0)]
        alone = run_frequency_batch(TWO_STATE, drives, grid)
        monkeypatch.setattr(os, "fork", counting_fork)
        pooled = run_frequency_batch(TWO_STATE, drives, grid, workers=2)
        # Six two-row blocks over three maps, shared by one child and this
        # process: one fork for the run, not one for each map.
        assert len(forks) == 1
        for a, b in zip(alone, pooled):
            assert np.array_equal(a.values, b.values)

    def test_one_worker_output_stays_on_the_heap(self, monkeypatch):
        import mmap

        def no_mapping(*args):
            raise AssertionError("shared mapping for a one-worker run")

        monkeypatch.setattr(mmap, "mmap", no_mapping)
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 4)
        one, two = run_frequency_batch(TWO_STATE, [DRIVE, DRIVE], grid, workers=1)
        assert np.array_equal(one.values, two.values)
        with pytest.raises(AssertionError, match="shared mapping"):
            run_frequency_batch(TWO_STATE, [DRIVE, DRIVE], grid, workers=2)

    def test_nonconvergent_in_the_second_map(self, monkeypatch):
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
        errors = []
        for workers in (1, 2, 3):
            with pytest.raises(NonConvergent) as err:
                run_frequency_batch(TWO_STATE, drives, grid, workers=workers)
            errors.append((err.value.eps, err.value.amp, str(err.value)))
        assert errors[0] == errors[1] == errors[2]
        assert errors[0][:2] == (-1.0, amps[1])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
