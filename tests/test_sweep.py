"""Grid sweeps: determinism, closed-form rows, and parallel equality."""

import concurrent.futures
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lzs_sim.cli as cli
import lzs_sim.sweep as sweep_mod
from lzs_sim import (
    DriveParams,
    LeakConfig,
    NonConvergent,
    QubitModel,
    RateKernelParams,
    RateMatrix,
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
        sizes = []

        class FakePool:
            """Records its size, runs the worker initializer and maps in
            this process."""

            def __init__(self, max_workers, initializer, initargs):
                sizes.append(max_workers)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(sweep_mod, "_worker_plan", None)
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        pooled = run_sweep(TWO_STATE, DRIVE, grid, workers=8)
        assert sizes == [3]
        assert np.array_equal(pooled.values, run_sweep(TWO_STATE, DRIVE, grid).values)

    def test_workers_validation(self):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2)
        with pytest.raises(ValidationError):
            run_sweep(TWO_STATE, DRIVE, grid, workers=0)

    def test_nonconvergent_carries_coordinates(self, monkeypatch):
        grid = SweepGrid(-1.0, 1.0, 3, 0.0, 2.0, 3)

        def explode(matrix, states):
            raise NonConvergent("forced failure")

        # Zero coupling leaves 0L with no outflow, so every point reaches
        # the relaxation fallback.
        monkeypatch.setattr(sweep_mod, "_relaxed", explode)
        with pytest.raises(NonConvergent) as err:
            run_sweep(ZERO_COUPLING, DRIVE, grid)
        assert err.value.eps == -1.0
        assert err.value.amp == 0.0
        assert "eps=-1.0" in str(err.value)

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

    Every excited level decays to its well's ground state and the two
    ground states decay into each other, so each model has exactly one
    stationary state.  With two closed classes of states the stationary
    state is not unique, and the oracle itself returns whichever one
    its relaxation fallback reaches.

    A/w reaches 40, twice the default n_margin of 20.  The engine and
    the oracle truncate the photon sum by the same rule, and each point
    of the engine sums only its own window, so their rates agree bit for
    bit and any gap is the solve's.
    """
    nl, nr = draw(st.integers(2, 4)), draw(st.integers(2, 4))

    def block(rows, cols, to_ground=()):
        flat = draw(st.lists(sparse_rates, min_size=rows * cols, max_size=rows * cols))
        rates = np.array(flat).reshape(rows, cols)
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
    @settings(max_examples=150, deadline=None)
    def test_matches_scalar_oracle(self, case):
        # Bit for bit wherever a point's generator has the model's pattern,
        # within 1e-10 where a zero rate changes it.
        model, kernel, drive, grid = case
        pmap = run_sweep(model, drive, grid, kernel)
        oracle = pointwise_map(model, drive, grid, kernel)
        assert np.max(np.abs(pmap.values - oracle)) <= 1e-10
        solver = sweep_mod.SweepPlan(model, drive, kernel, grid.eps_values).solver
        pattern = np.zeros((solver.n, solver.n), dtype=bool)
        pattern[solver.rows, solver.cols] = True
        for k, amp in enumerate(grid.amp_values):
            point_drive = DriveParams(float(amp), drive.frequency, drive.dephasing)
            for m, eps in enumerate(grid.eps_values):
                own = build_rate_matrix(model, float(eps), point_drive, kernel).matrix != 0.0
                np.fill_diagonal(own, False)
                if np.array_equal(own, pattern):
                    assert pmap.values[k, m] == oracle[k, m]

    def test_reducible_model_takes_scalar_path(self, monkeypatch):
        # Two non-interacting pairs, 0L<->0R and 1L<->1R: two closed
        # classes leave a state with no outflow at every point, so each
        # point goes to the relaxation fallback.
        model = QubitModel(
            left_offsets=(0.0, 5.0),
            right_offsets=(0.0, 5.0),
            crossings=np.array([[0.2, 0.0], [0.0, 0.5]]),
        )
        grid = SweepGrid(-1.0, 1.0, 5, 0.0, 2.0, 3)
        calls = []

        def counting(matrix, states):
            calls.append(matrix)
            return relaxed(matrix, states)

        relaxed = sweep_mod._relaxed
        monkeypatch.setattr(sweep_mod, "_relaxed", counting)
        pmap = run_sweep(model, DRIVE, grid)
        assert len(calls) == grid.n_eps * grid.n_amp
        # Each point relaxes the generator rebuilt from its block's values,
        # as stationary_solve does on that generator.
        top = DriveParams(grid.amp_max, DRIVE.frequency, DRIVE.dephasing)
        plan = sweep_mod.SweepPlan(model, top, RateKernelParams(), grid.eps_values)
        routed = np.array([
            [
                stationary_solve(RateMatrix(plan.solver.generator(v), model.states())).p_left
                for v in plan.values([float(amp)]).T
            ]
            for amp in grid.amp_values
        ])
        assert np.array_equal(pmap.values, routed)
        # That generator may differ from build_rate_matrix's in the last
        # bits; both relaxations settle to the same populations.
        oracle = pointwise_map(model, DRIVE, grid)
        assert pmap.values == pytest.approx(oracle, abs=1e-12)
        assert pmap.values == pytest.approx(np.full(grid.shape, 0.5), abs=1e-9)

    def test_cutoff_zeroed_points_take_the_fallback(self, monkeypatch):
        # One pumped pair with decay R0 -> L0.  Where lorentz_cutoff zeroes
        # the pumped rate, 0R only drains, the pattern's last state is
        # transient at that point, and 0L's outflow is exactly 0: those
        # points, and only those, relax from 0R into 0L.
        model = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0,),
            crossings=np.array([[0.05]]),
            right_to_left=np.array([[0.01]]),
        )
        kernel = RateKernelParams(lorentz_cutoff=2.0)
        grid = SweepGrid(-3.0, 3.0, 13, 0.0, 1.0, 2)
        calls = []

        def counting(matrix, states):
            calls.append(matrix)
            return relaxed(matrix, states)

        relaxed = sweep_mod._relaxed
        monkeypatch.setattr(sweep_mod, "_relaxed", counting)
        pmap = run_sweep(model, DRIVE, grid, kernel)
        cut = np.array([
            [
                lzs_rate(0.05, float(eps), DriveParams(float(amp), 1.0, 0.1), kernel) == 0.0
                for eps in grid.eps_values
            ]
            for amp in grid.amp_values
        ])
        assert 0 < cut.sum() < cut.size
        assert len(calls) == cut.sum()
        assert pmap.values[cut] == pytest.approx(1.0, abs=1e-12)
        oracle = pointwise_map(model, DRIVE, grid, kernel)
        assert pmap.values == pytest.approx(oracle, abs=1e-12)


TEN_LEVEL_CFG = (Path(__file__).resolve().parents[1] / "configs" / "ten_level.cfg").read_text()


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
