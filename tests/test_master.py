"""Rate-matrix assembly, stationary solvers, and the closed forms."""

import itertools
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lzs_sim.master as master_mod
from lzs_sim import (
    DriveParams,
    LeakConfig,
    PopulationVector,
    QubitModel,
    RateKernelParams,
    RateMatrix,
    StateIndex,
    ValidationError,
    Well,
    build_rate_matrix,
    crossing_position,
    lzs_rate,
    stationary_solve,
)
from lzs_sim.rates import PhotonTable
from lzs_sim.sweep import SweepPlan

from conftest import (
    L0,
    L1,
    R0,
    R1,
    four_state_matrix,
    from_channels,
    stationary_four_state,
    stationary_three_state,
    three_state_matrix,
)

rates_01 = st.floats(1e-6, 1.0)


def channel_rate_matrix(model, eps, drive):
    """Reference generator: every rate as a (from, to, rate) channel,
    summed by ``from_channels`` in channel order."""
    leak = StateIndex(Well.LEAK, None)
    threshold = model.leak.threshold if model.leak is not None else None
    channels = []
    for i, j, delta in model.coupled_pairs():
        left, right = StateIndex(Well.LEFT, i), StateIndex(Well.RIGHT, j)
        left_above = threshold is not None and i >= threshold
        right_above = threshold is not None and j >= threshold
        if left_above and right_above:
            continue
        w = lzs_rate(delta, eps - crossing_position(model, i, j), drive)
        if right_above:
            channels.append((left, leak, w))
        elif left_above:
            channels.append((right, leak, w))
        else:
            channels += [(left, right, w), (right, left, w)]
    blocks = (
        (Well.LEFT, Well.LEFT, model.left_relax),
        (Well.RIGHT, Well.RIGHT, model.right_relax),
        (Well.LEFT, Well.RIGHT, model.left_to_right),
        (Well.RIGHT, Well.LEFT, model.right_to_left),
    )
    for frm, to, rates in blocks:
        for a, b in zip(*np.nonzero(rates)):
            channels.append((StateIndex(frm, int(a)), StateIndex(to, int(b)), rates[a, b]))
    if model.leak is not None:
        half = 0.5 * model.leak.return_rate
        channels += [(leak, L0, half), (leak, R0, half)]
    return from_channels(model.states(), channels)


sparse_rates = st.one_of(st.just(0.0), st.floats(1e-4, 2.0))


@st.composite
def random_models(draw):
    """1-4 levels per well, sparse couplings and rates, optional leak."""
    nl, nr = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def block(rows, cols):
        flat = draw(st.lists(sparse_rates, min_size=rows * cols, max_size=rows * cols))
        return np.array(flat).reshape(rows, cols)

    def ladder(n):
        steps = draw(st.lists(st.floats(0.5, 6.0), min_size=n - 1, max_size=n - 1))
        return tuple(np.concatenate(([0.0], np.cumsum(steps))))

    leaks = st.builds(LeakConfig, threshold=st.integers(0, 4), return_rate=st.floats(0.1, 2.0))
    leak = draw(st.one_of(st.none(), leaks))
    return QubitModel(
        left_offsets=ladder(nl),
        right_offsets=ladder(nr),
        crossings=block(nl, nr),
        left_relax=np.tril(block(nl, nl), -1),
        right_relax=np.tril(block(nr, nr), -1),
        left_to_right=block(nl, nr),
        right_to_left=block(nr, nl),
        leak=leak,
    )


random_drives = st.builds(
    DriveParams,
    amplitude=st.floats(0.0, 8.0),
    frequency=st.floats(0.5, 3.0),
    dephasing=st.floats(0.05, 0.5),
)


class TestRateMatrix:
    def test_from_channels_layout(self):
        m = from_channels((L0, R0), [(L0, R0, 0.25), (R0, L0, 0.1)])
        # column = source, row = destination
        assert m.matrix[1, 0] == 0.25
        assert m.matrix[0, 1] == 0.1
        assert m.matrix[0, 0] == -0.25
        assert m.matrix[1, 1] == -0.1

    def test_duplicate_channels_accumulate(self):
        m = from_channels((L0, R0), [(L0, R0, 0.1), (L0, R0, 0.2)])
        assert m.matrix[1, 0] == pytest.approx(0.3)

    def test_rejects_negative_rate(self):
        with pytest.raises(ValidationError):
            from_channels((L0, R0), [(L0, R0, -0.1)])

    def test_rejects_self_channel(self):
        with pytest.raises(ValidationError):
            from_channels((L0, R0), [(L0, L0, 0.1)])

    def test_rejects_nonconserving_matrix(self):
        bad = np.array([[-1.0, 0.0], [0.5, 0.0]])
        with pytest.raises(ValidationError):
            RateMatrix(matrix=bad, states=(L0, R0))

    @pytest.mark.parametrize(
        "matrix, states, message",
        [
            ([[0.0]], (L0, R0), "does not match 2 states"),
            ([[0.1, 0.0], [-0.1, 0.0]], (L0, R0), "off-diagonal rates must be >= 0"),
            (np.zeros((0, 0)), (), "at least one state"),
        ],
        ids=["shape_mismatch", "negative_off_diagonal", "no_states"],
    )
    def test_rejects_invalid_matrix(self, matrix, states, message):
        with pytest.raises(ValidationError, match=message):
            RateMatrix(matrix=np.array(matrix), states=states)

    def test_rejects_duplicate_states(self):
        with pytest.raises(ValidationError, match="duplicate states"):
            from_channels((L0, L0), [])

    @given(st.lists(rates_01, min_size=6, max_size=6))
    @settings(max_examples=80, deadline=None)
    def test_columns_sum_to_zero(self, rs):
        m = three_state_matrix(rs[0], rs[1], rs[2], rs[3]).matrix
        scale = np.max(np.abs(m))
        assert np.max(np.abs(m.sum(axis=0))) <= 16 * np.finfo(float).eps * scale


class TestBuildRateMatrix:
    DRIVE = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)

    def test_all_zero_model_gives_zero_matrix(self):
        m = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0,),
            crossings=np.zeros((1, 1)),
        )
        rm = build_rate_matrix(m, 0.0, self.DRIVE)
        assert np.all(rm.matrix == 0.0)

    def test_two_state_symmetric_pumping_at_resonance(self):
        delta = 0.02
        m = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0,),
            crossings=np.array([[delta]]),
        )
        rm = build_rate_matrix(m, 0.0, self.DRIVE)
        w = delta**2 / (2 * 0.1)
        assert rm.states == (L0, R0)
        assert np.allclose(
            rm.matrix, [[-w, w], [w, -w]], rtol=1e-12, atol=0.0
        )

    def test_channels_follow_lzs_rate(self):
        m = QubitModel(
            left_offsets=(0.0, 4.0),
            right_offsets=(0.0, 5.0),
            crossings=np.array([[0.1, 0.2], [0.0, 0.3]]),
        )
        drive = DriveParams(amplitude=3.0, frequency=1.0, dephasing=0.1)
        rm = build_rate_matrix(m, 1.3, drive)
        idx = {s: n for n, s in enumerate(rm.states)}
        for i, j, delta in m.coupled_pairs():
            d_ij = m.right_offsets[j] - m.left_offsets[i]
            w = lzs_rate(delta, 1.3 - d_ij, drive)
            a = idx[StateIndex(Well.LEFT, i)]
            b = idx[StateIndex(Well.RIGHT, j)]
            assert rm.matrix[b, a] == w
            assert rm.matrix[a, b] == w

    def test_relaxation_channels_one_way(self):
        relax = np.zeros((2, 2))
        relax[1, 0] = 0.7
        m = QubitModel(
            left_offsets=(0.0, 4.0),
            right_offsets=(0.0,),
            crossings=np.zeros((2, 1)),
            left_relax=relax,
            left_to_right=np.array([[0.2], [0.0]]),
        )
        rm = build_rate_matrix(m, 0.0, self.DRIVE)
        idx = {s: n for n, s in enumerate(rm.states)}
        assert rm.matrix[idx[L0], idx[L1]] == 0.7
        assert rm.matrix[idx[L1], idx[L0]] == 0.0
        assert rm.matrix[idx[R0], idx[L0]] == 0.2

    def test_leak_redirects_above_threshold(self):
        # crossing (0, 1) has its right partner at the threshold, so the
        # left state pumps into the leak instead of into 1R
        m = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0, 5.0),
            crossings=np.array([[0.1, 0.2]]),
            leak=LeakConfig(threshold=1, return_rate=0.8),
        )
        drive = DriveParams(amplitude=6.0, frequency=1.0, dephasing=0.1)
        rm = build_rate_matrix(m, 2.0, drive)
        leak = StateIndex(Well.LEAK, None)
        idx = {s: n for n, s in enumerate(rm.states)}
        w_leak = lzs_rate(0.2, 2.0 - 5.0, drive)
        assert rm.matrix[idx[leak], idx[L0]] == w_leak
        # no direct channel into 1R, and nothing pumps back from the leak
        assert rm.matrix[idx[R1], idx[L0]] == 0.0
        assert rm.matrix[idx[L0], idx[R1]] == 0.0
        # the leak returns to both ground states at half rate each
        assert rm.matrix[idx[L0], idx[leak]] == 0.4
        assert rm.matrix[idx[R0], idx[leak]] == 0.4

    def test_leak_skips_fully_nonlocal_pairs(self):
        m = QubitModel(
            left_offsets=(0.0, 3.0),
            right_offsets=(0.0, 5.0),
            crossings=np.array([[0.0, 0.0], [0.0, 0.2]]),
            leak=LeakConfig(threshold=1, return_rate=0.8),
        )
        rm = build_rate_matrix(m, 0.0, self.DRIVE)
        leak = StateIndex(Well.LEAK, None)
        idx = {s: n for n, s in enumerate(rm.states)}
        col = rm.matrix[:, idx[L1]].copy()
        col[idx[L1]] = 0.0
        assert np.all(col == 0.0)  # both partners above threshold: no channel
        assert rm.matrix[idx[leak], idx[L1]] == 0.0

    @given(model=random_models(), eps=st.floats(-12.0, 12.0), drive=random_drives)
    @example(  # leak-free, pumped pair on the last right level with interwell decay
        model=QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0, 5.0),
            crossings=np.array([[0.1, 0.2]]),
            right_relax=np.array([[0.0, 0.0], [0.6, 0.0]]),
            left_to_right=np.array([[0.0, 0.03]]),
            right_to_left=np.array([[0.0], [0.01]]),
        ),
        eps=4.7,
        drive=DriveParams(amplitude=3.0, frequency=1.0, dephasing=0.1),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_channel_assembly(self, model, eps, drive):
        ref = channel_rate_matrix(model, eps, drive)
        rm = build_rate_matrix(model, eps, drive)
        assert rm.states == ref.states
        assert np.array_equal(rm.matrix, ref.matrix)


def pointwise_rates(table, amps):
    """PhotonTable.rates computed by one lzs_rate call per entry."""
    drives = [DriveParams(amp, table.drive.frequency, table.drive.dephasing) for amp in amps]
    return np.array(
        [
            [[lzs_rate(d, float(e), drive, table.kernel) for e in row] for drive in drives]
            for d, row in zip(table.deltas, table.eps_local)
        ]
    ).reshape(len(table.deltas), len(drives), table.eps_local.shape[1])


class TestRowEngineParts:
    @given(
        model=random_models(),
        eps=st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=5),
        drive=random_drives,
    )
    @example(  # P_L sums to 1 + 2**-52; the block and p_left both give 1
        model=QubitModel(
            left_offsets=(0.0, 1.0, 7.0, 8.0),
            right_offsets=(0.0,),
            crossings=np.array([[0.0], [0.0], [1.0], [0.0]]),
            right_to_left=np.array([[0.0, 0.0, 0.0, 2.0]]),
            leak=LeakConfig(threshold=1, return_rate=1.0),
        ),
        eps=[0.0],
        drive=DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.125),
    )
    @settings(max_examples=150, deadline=None)
    def test_stack_matches_build_rate_matrix(self, model, eps, drive):
        # Given the same rates, the plan's pattern values are
        # build_rate_matrix's entries bit for bit, and the generator has
        # no other off-diagonal entry; each point the engine accepts has
        # the bits of solving it alone, and every point of the block
        # gives stationary_solve's P_L.
        kernel = RateKernelParams()
        plan = SweepPlan(model, drive, kernel, np.array(eps))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PhotonTable, "rates", pointwise_rates)
            values = plan.values([drive.amplitude])
            row = plan.block([drive.amplitude])[0]
        args = plan.rows, plan.cols, plan.n, plan.n_left
        q, ok = master_mod.solve_points(*args, values)
        for m, e in enumerate(eps):
            rm = build_rate_matrix(model, e, drive, kernel)
            assert np.array_equal(values[:, m], rm.matrix[plan.rows, plan.cols])
            off_pattern = rm.matrix.copy()
            off_pattern[plan.rows, plan.cols] = 0.0
            np.fill_diagonal(off_pattern, 0.0)
            assert not off_pattern.any()
            if ok[m]:
                alone, ok_alone = master_mod.solve_points(*args, values[:, m : m + 1])
                assert ok_alone[0]
                assert np.array_equal(alone[:, 0], q[:, m])
            assert row[m] == stationary_solve(rm).p_left

    def test_check_rejects_a_large_residual(self):
        # Finite, nonnegative and normalized, but M q is far from zero at
        # the first point: only the residual test can reject it.
        plan = master_mod.GTHPlan([0, 1], [1, 0], 2)
        values = np.array([[2.0, 1.0], [1.0, 1.0]])
        q = np.full((2, 2), 0.5)
        assert list(plan.accepts(values, q)) == [False, True]
        solved, ok = plan.solve(values)
        assert solved[:, 0] == pytest.approx([2.0 / 3.0, 1.0 / 3.0])
        assert list(ok) == [True, True]

    @pytest.mark.parametrize(
        "rows, cols, bad",
        [
            ([0, 1], [1, 0], [1.0, math.inf]),
            ([0, 1], [1, 0], [1.0, math.nan]),
            # Both rates leave state 0: its outflow overflows.
            ([0, 0, 1, 2], [1, 2, 0, 0], [1.0, 1.0, 1e308, 1e308]),
        ],
        ids=["inf_entry", "nan_entry", "outflow_overflows"],
    )
    def test_check_rejects_a_generator_that_is_not_finite(self, rows, cols, bad):
        # RateMatrix's rule, whatever q: the first point has an entry or a
        # column's outflow that is not finite.  The second, every rate 1,
        # is accepted beside it, and nothing warns.
        n = max(rows) + 1
        plan = master_mod.GTHPlan(rows, cols, n)
        values = np.column_stack([bad, np.ones(len(rows))])
        q = np.full((n, 2), 1.0 / n)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert list(plan.accepts(values, q)) == [False, True]

    def test_singular_stack_is_left_to_the_caller(self):
        # Zero rates on a connected pattern, or no pattern at all: some
        # state's outflow is exactly 0 at every point.
        for rows, cols in (([0, 1], [1, 0]), ([], [])):
            plan = master_mod.GTHPlan(rows, cols, 2)
            q, ok = plan.solve(np.zeros((len(rows), 3)))
            assert q.shape == (2, 3)
            assert not ok.any()


class TestStationarySolve:
    def test_symmetric_two_state(self):
        m = from_channels((L0, R0), [(L0, R0, 0.3), (R0, L0, 0.3)])
        p = stationary_solve(m)
        assert p.probabilities == pytest.approx([0.5, 0.5], abs=1e-14)

    def test_zero_matrix_falls_back_to_ground_right(self):
        m = RateMatrix(matrix=np.zeros((2, 2)), states=(L0, R0))
        p = stationary_solve(m)
        assert [p.probabilities[p.states.index(s)] for s in (R0, L0)] == [1.0, 0.0]

    def test_reduced_two_state_balance(self):
        # three-state system with the upper pump off: 1R empties, and the
        # remaining pair balances to w/(2w + g)
        a, h = 0.013, 0.004
        p = stationary_solve(three_state_matrix(a, 0.0, 0.9, h))
        p1r, p0l = (p.probabilities[p.states.index(s)] for s in (R1, L0))
        assert p1r == pytest.approx(0.0, abs=1e-15)
        assert p0l == pytest.approx(a / (2 * a + h), rel=1e-12)

    def test_disconnected_graph_resolved_from_ground_right(self):
        # two non-interacting pairs, two closed classes: all population
        # stays in the one holding 0R
        channels = [(L0, R0, 0.0), (L1, R1, 0.5), (R1, L1, 0.5), (R0, L0, 0.2), (L0, R0, 0.2)]
        m = from_channels((L0, L1, R0, R1), channels)
        p = stationary_solve(m)
        got = [p.probabilities[p.states.index(s)] for s in (L1, R1, L0, R0)]
        assert got == [0.0, 0.0, 0.5, 0.5]

    @pytest.mark.parametrize(
        "w_ground, w_upper",
        [(2.0**-9, 2.0**-8), (2.0**-16, 2.0**-15), (2.0**-22, 0.5)],
    )
    def test_slow_disconnected_graph_settles(self, w_ground, w_upper):
        # The same two pairs with slow rates, and one pair 2e6 times slower
        # than the other: the answer must not depend on how fast the
        # rates are.
        channels = [
            (L1, R1, w_upper), (R1, L1, w_upper), (R0, L0, w_ground), (L0, R0, w_ground)
        ]
        m = from_channels((L0, L1, R0, R1), channels)
        p = stationary_solve(m)
        assert [p.probabilities[p.states.index(s)] for s in (L0, R0)] == [0.5, 0.5]

    def test_classes_fed_by_transient_states_match_absorption(self):
        # Two closed classes, {3} and {0, 4}, both fed by the transient
        # states 1, 2 and 5.  Relaxing in time from state 5, roundoff
        # kept moving about 1e-8 of population between the classes; the
        # absorption weights from the reduction need no time steps.
        mat = np.array([
            [0.0, 1.335, 5.845e-3, 0.0, 6.352e-3, 0.0],
            [0.0, 0.0, 0.1582, 0.0, 0.0, 0.0],
            [0.0, 0.1026, 0.0, 0.0, 0.0, 2.339e-2],
            [0.0, 0.0, 2.697e-2, 0.0, 0.0, 0.0],
            [3.112, 0.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 6.471, 2.168e-3, 0.0, 0.0, 0.0],
        ])
        np.fill_diagonal(mat, -mat.sum(axis=0))
        p, ok = solve_alone(mat, 5)
        assert ok
        assert np.all(p[[1, 2, 5]] == 0.0)
        assert np.max(np.abs(p - mp_absorbed(mat, 5))) <= 1e-15

    @given(st.lists(rates_01, min_size=4, max_size=4))
    @settings(max_examples=150, deadline=None)
    def test_residual_and_simplex_invariants(self, rs):
        m = three_state_matrix(*rs)
        p = stationary_solve(m)
        assert math.fsum(p.probabilities) == pytest.approx(1.0, abs=1e-12)
        assert np.min(p.probabilities) >= 0.0
        scale = np.linalg.norm(m.matrix, np.inf)
        assert np.max(np.abs(m.matrix @ p.probabilities)) <= 1e-10 * scale


class TestThreeStateClosedForm:
    def test_matches_generic_solver(self):
        # Every zero pattern of the rates, all-zero included; the nonzero
        # rates are drawn log-uniformly from [1e-6, 1].
        rng = np.random.default_rng(7)
        for zero in itertools.product((False, True), repeat=4):
            for _ in range(20):
                a, b, g, h = np.where(zero, 0.0, np.exp(rng.uniform(np.log(1e-6), 0.0, size=4)))
                ref = stationary_three_state(a, b, g, h)
                p = stationary_solve(three_state_matrix(a, b, g, h))
                got = [p.probabilities[p.states.index(s)] for s in (R0, L0, R1)]
                assert np.max(np.abs(np.array(got) - np.array(ref))) <= 1e-9

    def test_upper_pump_off_reduces_to_two_state(self):
        a, g, h = 0.4, 0.9, 0.03
        p0r, p0l, p1r = stationary_three_state(a, 0.0, g, h)
        assert p1r == 0.0
        assert p0l == pytest.approx(a / (2 * a + h), rel=1e-14)
        assert p0r == pytest.approx((a + h) / (2 * a + h), rel=1e-14)

    def test_all_rates_equal_against_linear_algebra(self):
        r = 0.37
        mat = np.array(
            [
                [-(2 * r + r), r, r],  # 0L row: out a+b+h, in from 0R, 1R
                [r + r, -r, r],  # 0R: in a+h from 0L, g from 1R
                [r, 0.0, -(r + r)],  # 1R: in b from 0L, out b+g
            ]
        )
        mat[0, 0] = -(r + r + r)
        a = mat.copy()
        a[-1, :] = 1.0
        rhs = np.array([0.0, 0.0, 1.0])
        p = np.linalg.solve(a, rhs)  # (P_0L, P_0R, P_1R)
        got = stationary_three_state(r, r, r, r)
        assert got[0] == pytest.approx(p[1], rel=1e-12)
        assert got[1] == pytest.approx(p[0], rel=1e-12)
        assert got[2] == pytest.approx(p[2], rel=1e-12)

    def test_ground_never_pumped(self):
        assert stationary_three_state(0.0, 0.5, 0.2, 0.1) == (1.0, 0.0, 0.0)

    def test_all_zero_is_degenerate(self):
        # Nothing leaves 0R, so 0R keeps all of it, as stationary_solve says.
        assert stationary_three_state(0.0, 0.0, 0.0, 0.0) == (1.0, 0.0, 0.0)
        p = stationary_solve(three_state_matrix(0.0, 0.0, 0.0, 0.0))
        assert [p.probabilities[p.states.index(s)] for s in (R0, L0, R1)] == [1.0, 0.0, 0.0]

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            stationary_three_state(-0.1, 0.0, 0.0, 0.0)

    @given(st.lists(rates_01, min_size=4, max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_probabilities_form_simplex(self, rs):
        p = stationary_three_state(*rs)
        assert all(v >= 0 for v in p)
        assert math.fsum(p) == pytest.approx(1.0, abs=1e-12)


class TestFourStateClosedForm:
    def test_matches_generic_solver(self):
        # Every zero pattern of the rates, all-zero included; the nonzero
        # rates are drawn log-uniformly from [1e-6, 1].
        rng = np.random.default_rng(11)
        for zero in itertools.product((False, True), repeat=5):
            for _ in range(10):
                v, b, g, h, k = np.where(zero, 0.0, np.exp(rng.uniform(np.log(1e-6), 0.0, size=5)))
                ref = stationary_four_state(v, b, g, h, k)
                p = stationary_solve(four_state_matrix(v, b, g, h, k))
                got = [p.probabilities[p.states.index(s)] for s in (R0, L0, R1, L1)]
                assert np.max(np.abs(np.array(got) - np.array(ref))) <= 1e-9

    def test_inversion_concentrates_left_ground(self):
        # fast 1L->0L feeding, slow 0L->0R draining: population piles up
        # in 0L and the left well inverts
        p0r, p0l, p1r, p1l = stationary_four_state(0.01, 0.0, 0.5, 1e-4, 1.0)
        assert p1r == 0.0
        assert p0l > 0.9

    def test_ground_never_pumped(self):
        assert stationary_four_state(0.0, 0.3, 0.2, 0.1, 0.4) == (1.0, 0.0, 0.0, 0.0)

    def test_all_zero_is_degenerate(self):
        # Nothing leaves 0R, so 0R keeps all of it, as stationary_solve says.
        assert stationary_four_state(0.0, 0.0, 0.0, 0.0, 0.0) == (1.0, 0.0, 0.0, 0.0)
        p = stationary_solve(four_state_matrix(0.0, 0.0, 0.0, 0.0, 0.0))
        got = [p.probabilities[p.states.index(s)] for s in (R0, L0, R1, L1)]
        assert got == [1.0, 0.0, 0.0, 0.0]

    def test_rejects_negative(self):
        with pytest.raises(ValidationError, match="rates must be >= 0 and finite"):
            stationary_four_state(0.1, 0.2, -0.1, 0.0, 0.0)

    def test_generic_against_linear_algebra(self):
        v, b, g, h, k = 0.21, 0.13, 0.55, 0.08, 0.34
        m = four_state_matrix(v, b, g, h, k)
        a = m.matrix.copy()
        a[-1, :] = 1.0
        rhs = np.zeros(4)
        rhs[-1] = 1.0
        p = np.linalg.solve(a, rhs)
        ref = stationary_four_state(v, b, g, h, k)
        # states ordered (0L, 1L, 0R, 1R)
        assert ref[0] == pytest.approx(p[2], rel=1e-12)
        assert ref[1] == pytest.approx(p[0], rel=1e-12)
        assert ref[2] == pytest.approx(p[3], rel=1e-12)
        assert ref[3] == pytest.approx(p[1], rel=1e-12)

    @given(
        v=rates_01,
        g=rates_01,
        h=rates_01,
        k=rates_01,
    )
    @settings(max_examples=150, deadline=None)
    def test_breakdown_channel_strictly_lowers_inversion(self, v, g, h, k):
        bs = [0.0, 1e-4, 1e-2, 0.3]
        p0l = [stationary_four_state(v, b, g, h, k)[1] for b in bs]
        for lo, hi in zip(p0l, p0l[1:]):
            assert hi < lo


CLOSED_FORMS = {
    "three": (stationary_three_state, three_state_matrix, (R0, L0, R1)),
    "four": (stationary_four_state, four_state_matrix, (R0, L0, R1, L1)),
}


@pytest.mark.parametrize(
    "form, rates",
    [
        (form, rates)
        for form, n_rates in (("three", 4), ("four", 5))
        for rates in itertools.product((0.0, 0.3, 0.7), repeat=n_rates)
        if any(rates)
    ],
)
def test_closed_form_corners_match_stationary_solve(form, rates):
    # Every zero-rate corner of the closed forms, where some give the
    # state reached from 0R among several closed classes.
    closed_form, matrix, order = CLOSED_FORMS[form]
    p = stationary_solve(matrix(*rates))
    got = [p.probabilities[p.states.index(s)] for s in order]
    assert np.max(np.abs(np.subtract(got, closed_form(*rates)))) <= 1e-15


class TestWellPopulation:
    def test_all_in_right_ground(self):
        p = PopulationVector(probabilities=np.array([0.0, 1.0]), states=(L0, R0))
        assert (p.p_left, p.p_right) == (0.0, 1.0)

    def test_uniform_four_state(self):
        p = PopulationVector(
            probabilities=np.full(4, 0.25), states=(L0, L1, R0, R1)
        )
        assert (p.p_left, p.p_right) == (0.5, 0.5)

    def test_leak_excluded_from_both_wells(self):
        leak = StateIndex(Well.LEAK, None)
        p = PopulationVector(
            probabilities=np.array([0.2, 0.3, 0.5]), states=(L0, R0, leak)
        )
        assert (p.p_left, p.p_right) == (0.2, 0.3)
        assert p.p_leak == 0.5

    def test_inversion_case_reports_left_majority(self):
        p0r, p0l, p1r, p1l = stationary_four_state(0.01, 0.0, 0.5, 1e-4, 1.0)
        assert p0l + p1l > 0.9


class TestPopulationVector:
    def test_rejects_bad_sum(self):
        with pytest.raises(ValidationError):
            PopulationVector(probabilities=np.array([0.6, 0.6]), states=(L0, R0))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            PopulationVector(probabilities=np.array([-0.1, 1.1]), states=(L0, R0))

    @pytest.mark.parametrize(
        "probabilities, message",
        [
            ([1.0], "length does not match states"),
            ([np.nan, 1.0], "probabilities must be finite"),
            ([1.0 + 2e-9, -2e-9], r"probabilities must lie in \[0, 1\]"),
        ],
        ids=["wrong_length", "not_finite", "above_one"],
    )
    def test_rejects_invalid_vector(self, probabilities, message):
        with pytest.raises(ValidationError, match=message):
            PopulationVector(probabilities=np.array(probabilities), states=(L0, R0))

    def test_clamps_roundoff_negatives(self):
        p = PopulationVector(
            probabilities=np.array([1.0 + 1e-13, -1e-13]), states=(L0, R0)
        )
        assert p.probabilities[1] == 0.0


def solve_alone(mat, start=None):
    """q (n,) and ok of ``solve_points`` on one dense generator, over
    every off-diagonal entry, as stationary_solve calls it."""
    n = len(mat)
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    q, ok = master_mod.solve_points(rows, cols, n, start, mat[rows, cols][:, None])
    return q[:, 0], bool(ok[0])


def random_generator(rng, n, *classes):
    """A stiff random generator on n states, rates log-uniform over
    1e-9 to 1e3 GHz, whose closed classes are the given lists of states
    (each an irreducible cycle); every other state is transient.  Edges
    never leave a closed class, and each transient state has an edge
    towards a closed class or an earlier transient one."""
    closed = [s for c in classes for s in c]
    transient = [s for s in rng.permutation(n).tolist() if s not in closed]
    mat = np.zeros((n, n))

    def rate():
        return 10.0 ** rng.uniform(-9.0, 3.0)

    for c in classes:
        for a, b in zip(c, c[1:] + c[:1]):
            if a != b:
                mat[b, a] = rate()
    for t, s in enumerate(transient):
        mat[rng.choice(closed + transient[:t]), s] = rate()
    for frm in range(n):
        targets = next((c for c in classes if frm in c), range(n))
        for to in targets:
            if to != frm and rng.random() < 0.4:
                mat[to, frm] = rate()
    np.fill_diagonal(mat, -mat.sum(axis=0))
    return mat


def mp_stationary(mat):
    """Stationary vector of a generator with one closed class, by a
    40-digit solve of M p = 0 with the last row replaced by sum(p) = 1."""
    n = len(mat)
    with mpmath.workdps(40):
        a = mpmath.matrix(n, n)
        for to in range(n):
            for frm in range(n):
                if to != frm:
                    a[to, frm] = mpmath.mpf(float(mat[to, frm]))
        for k in range(n):
            a[k, k] = -mpmath.fsum(a[to, k] for to in range(n) if to != k)
        b = mpmath.matrix(n, 1)
        for k in range(n):
            a[n - 1, k] = 1
        b[n - 1] = 1
        return np.array([float(x) for x in mpmath.lu_solve(a, b)])


def mp_absorbed(mat, start):
    """The stationary state reached from start of a generator with any
    number of closed classes, by 50-digit solves: each closed class's
    stationary vector, weighted by the probability of absorption into
    the class from start (Kemeny and Snell, ch. III)."""
    n = len(mat)
    reach = np.eye(n, dtype=bool) | (mat.T > 0.0)  # reach[frm, to]
    for k in range(n):
        reach |= reach[:, k : k + 1] & reach[k : k + 1, :]
    classes = {
        tuple(np.flatnonzero(reach[s])) for s in range(n) if reach[reach[s], s].all()
    }
    transient = [s for s in range(n) if not any(s in c for c in classes)]
    with mpmath.workdps(50):
        rate = [[mpmath.mpf(float(mat[to, frm])) if to != frm else 0 for frm in range(n)]
                for to in range(n)]
        out = [mpmath.fsum(rate[to][frm] for to in range(n)) for frm in range(n)]
        q = [mpmath.mpf(0)] * n
        for c in classes:
            # Stationary vector of the class: balance with its last row
            # replaced by sum(p) = 1.
            a = mpmath.matrix(len(c), len(c))
            for x, to in enumerate(c):
                for y, frm in enumerate(c):
                    a[x, y] = -out[frm] if to == frm else rate[to][frm]
            b = mpmath.matrix(len(c), 1)
            for y in range(len(c)):
                a[len(c) - 1, y] = 1
            b[len(c) - 1] = 1
            pi = mpmath.lu_solve(a, b)
            if start in c:
                weight = mpmath.mpf(1)
            elif start in transient:
                # h[i], the absorption probability from transient i:
                # out[i] h[i] = sum over j of rate(i -> j) h[j], with h = 1
                # on the class and 0 on the others.
                a = mpmath.matrix(len(transient), len(transient))
                b = mpmath.matrix(len(transient), 1)
                for x, i in enumerate(transient):
                    a[x, x] = out[i]
                    for y, j in enumerate(transient):
                        if j != i:
                            a[x, y] = -rate[j][i]
                    b[x] = mpmath.fsum(rate[j][i] for j in c)
                weight = mpmath.lu_solve(a, b)[transient.index(start)]
            else:
                weight = 0
            for x, s in enumerate(c):
                q[s] = weight * pi[x]
        return np.array([float(x) for x in q])


class TestGTHAccuracy:
    def test_subnormal_outflow_from_a_transient_start(self):
        # Start 2 feeds 0 at rate 1; 0 and 3 trade a subnormal rate, and 1
        # is a closed class of its own.  1 / outflow(0) overflows, but no
        # step of the reduction forms it.
        mat = np.zeros((4, 4))
        mat[0, 2] = 1.0
        mat[3, 0] = mat[0, 3] = 3.547558e-317
        np.fill_diagonal(mat, -mat.sum(axis=0))
        q, ok = solve_alone(mat, start=2)
        assert ok
        assert np.array_equal(q, [0.5, 0.0, 0.0, 0.5])

    def test_population_ratio_past_the_float_range(self):
        # pi[0] / pi[2] = 1e600: the vector is rescaled before each divide
        # that would pass 2**600, so pi[0] stays finite.
        mat = np.zeros((3, 3))
        mat[1, 2] = mat[0, 1] = 1e150
        mat[2, 1] = mat[1, 0] = 1e-150
        np.fill_diagonal(mat, -mat.sum(axis=0))
        q, ok = solve_alone(mat)
        assert ok
        assert q[0] == 1.0 and q[2] == 0.0
        assert q[1] == pytest.approx(1e-300, rel=1e-12)

    def test_stiff_irreducible_generators(self):
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for _ in range(250):
            n = int(rng.integers(3, 8))
            mat = random_generator(rng, n, rng.permutation(n).tolist())
            q, ok = solve_alone(mat)
            assert ok
            worst = max(worst, np.max(np.abs(q - mp_stationary(mat))))
        assert worst <= 1e-10

    def test_one_closed_class_with_transient_states(self):
        # The state kept last must lie in the closed class; draws where
        # the highest state is transient check that it is not simply the
        # last one.  Transient states come out as exactly 0.
        rng = np.random.default_rng(1985)
        last_transient = 0
        worst = 0.0
        for _ in range(270):
            n = int(rng.integers(3, 8))
            closed = rng.permutation(n)[: rng.integers(1, n)].tolist()
            last_transient += n - 1 not in closed
            mat = random_generator(rng, n, closed)
            q, ok = solve_alone(mat)
            assert ok
            transient = [s for s in range(n) if s not in closed]
            assert np.all(q[transient] == 0.0)
            worst = max(worst, np.max(np.abs(q - mp_stationary(mat))))
        assert last_transient >= 50
        assert worst <= 1e-10

    def test_two_closed_classes_give_the_state_reached_from_0r(self):
        # Two closed classes: stationary_solve returns the state reached
        # from 0R, state 2.
        rng = np.random.default_rng(1107)
        states = (L0, L1, R0, R1, StateIndex(Well.RIGHT, 2))
        worst = 0.0
        for _ in range(60):
            mat = random_generator(rng, 5, [0, 1])
            # A transient state made absorbing is a second closed class.
            mat[:, int(rng.choice([2, 3, 4]))] = 0.0
            np.fill_diagonal(mat, 0.0)
            np.fill_diagonal(mat, -mat.sum(axis=0))
            got = stationary_solve(RateMatrix(mat, states)).probabilities
            worst = max(worst, np.max(np.abs(got - mp_absorbed(mat, 2))))
        assert worst <= 1e-10

    def test_several_closed_classes_against_absorption(self):
        # Two or three closed classes, the start transient or inside a
        # class, rates from 1e-9 to 1e3 GHz.
        rng = np.random.default_rng(33)
        starts = {"transient": 0, "closed": 0}
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(4, 9))
            order = rng.permutation(n).tolist()
            cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(2, 4)), replace=False))
            classes = [order[a:b] for a, b in zip([0] + cuts[:-1], cuts)]
            mat = random_generator(rng, n, *classes)
            start = int(rng.integers(n))
            starts["closed" if start in order[: cuts[-1]] else "transient"] += 1
            q, ok = solve_alone(mat, start)
            assert ok
            worst = max(worst, np.max(np.abs(q - mp_absorbed(mat, start))))
        assert min(starts.values()) >= 50
        assert worst <= 1e-10
