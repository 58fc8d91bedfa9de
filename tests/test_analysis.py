"""Diamond geometry, regime classification, resonance peak positions."""

import math

import numpy as np
import pytest

from lzs_sim import (
    DriveParams,
    QubitModel,
    Regime,
    RegimeReport,
    SweepGrid,
    ValidationError,
    crossing_position,
    diamond_boundaries,
    regime_classify,
    run_frequency_batch,
)


def ladder_model(left, right, crossings):
    return QubitModel(
        left_offsets=left, right_offsets=right, crossings=np.asarray(crossings)
    )


class TestDiamondBoundaries:
    def test_no_couplings_no_boundaries(self):
        m = ladder_model((0.0, 1.0), (0.0,), np.zeros((2, 1)))
        assert len(diamond_boundaries(m)) == 0

    def test_apexes_coincide_with_crossing_positions(self):
        m = ladder_model(
            (0.0, 6.0), (0.0, 5.0), [[0.1, 0.2], [0.3, 0.0]]
        )
        bset = diamond_boundaries(m)
        assert len(bset) == 3  # the zero entry contributes nothing
        for b in bset:
            assert b.position == crossing_position(
                m, b.left_level, b.right_level
            )


class TestRegimeClassify:
    def make(self, spacing):
        return ladder_model((0.0, spacing), (0.0,), [[0.1], [0.1]])

    def drive(self, freq):
        return DriveParams(amplitude=0.0, frequency=freq, dephasing=0.1)

    def test_low_frequency(self):
        report = regime_classify(self.make(10.0), self.drive(0.1))
        assert report.regime is Regime.LOW_FREQUENCY
        assert report.ratio == pytest.approx(0.01)
        assert report.delta_a == 0.1
        assert report.delta_d == 10.0

    def test_high_frequency(self):
        report = regime_classify(self.make(10.0), self.drive(13.0))
        assert report.regime is Regime.HIGH_FREQUENCY
        assert report.ratio == pytest.approx(1.3)

    def test_boundary_case_is_high(self):
        report = regime_classify(self.make(10.0), self.drive(10.0))
        assert report.regime is Regime.HIGH_FREQUENCY
        assert report.ratio == 1.0

    def test_smallest_consecutive_spacing_wins(self):
        m = ladder_model(
            (0.0, 7.0, 9.0, 15.0), (0.0,), np.full((4, 1), 0.1)
        )
        report = regime_classify(m, self.drive(1.0))
        assert report.delta_d == 2.0
        assert report.spacing_pair == (1, 2)

    def test_single_left_level_insufficient(self):
        m = ladder_model((0.0,), (0.0, 1.0), [[0.1, 0.1]])
        assert regime_classify(m, self.drive(1.0)) is None

    def test_invariant_under_uniform_shifts(self):
        for shift in (-3.0, 2.5, 40.0):
            base = regime_classify(self.make(4.0), self.drive(2.0))
            shifted_model = ladder_model(
                (shift, 4.0 + shift), (0.0,), [[0.1], [0.1]]
            )
            shifted = regime_classify(shifted_model, self.drive(2.0))
            assert shifted.delta_d == base.delta_d
            assert shifted.regime is base.regime


class TestRegimeReport:
    @pytest.mark.parametrize(
        "args, message",
        [
            ((0.0, 2.0, (0, 1)), "delta_a must be positive and finite"),
            ((1.0, -2.0, (0, 1)), "delta_d must be positive and finite"),
            *(
                ((1.0, 2.0, pair), "spacing_pair must be two nonnegative integers")
                for pair in ("x", 5, None, (0,), (0, 1, 2))
            ),
        ],
        ids=[
            "delta_a_zero", "delta_d_negative",
            "pair_text", "pair_int", "pair_none", "pair_of_one", "pair_of_three",
        ],
    )
    def test_invariants(self, args, message):
        with pytest.raises(ValidationError, match=message):
            RegimeReport(*args)

    def test_spacing_pair_is_stored_as_a_tuple_of_ints(self):
        pair = RegimeReport(1.0, 2.0, [np.int64(0), 1]).spacing_pair
        assert pair == (0, 1) and type(pair) is tuple and type(pair[0]) is int

    @pytest.mark.parametrize(
        "delta_a, delta_d, ratio, regime",
        [
            (1.0, 2.0, 0.5, Regime.LOW_FREQUENCY),
            (2.0, 2.0, 1.0, Regime.HIGH_FREQUENCY),
            (3, 2, 1.5, Regime.HIGH_FREQUENCY),
            (1.7e308, 1e-10, math.inf, Regime.HIGH_FREQUENCY),
        ],
        ids=["low", "boundary", "high", "overflowing_ratio"],
    )
    def test_ratio_and_regime_follow_the_deltas(self, delta_a, delta_d, ratio, regime):
        report = RegimeReport(delta_a, delta_d, (0, 1))
        assert report.ratio == ratio and type(report.ratio) is float
        assert report.regime is regime

    @pytest.mark.parametrize("ratio", [math.nan, False, 0.5])
    def test_ratio_is_not_an_input(self, ratio):
        with pytest.raises(TypeError):
            RegimeReport(1.0, 2.0, ratio, Regime.LOW_FREQUENCY, (0, 1))
        with pytest.raises(TypeError):
            RegimeReport(1.0, 2.0, (0, 1), ratio=ratio)


class TestResonancePositions:
    def test_peak_alignment_on_sweep_row(self):
        # stationary P_L peaks of a single-crossing model stay within
        # Gamma2 of the comb positions when sampled finer than Gamma2
        model = QubitModel(
            left_offsets=(0.0,),
            right_offsets=(0.0,),
            crossings=np.array([[0.02]]),
            left_to_right=np.array([[0.005]]),
        )
        gamma2 = 0.1
        drive = DriveParams(amplitude=2.0, frequency=1.0, dephasing=gamma2)
        grid = SweepGrid(-2.5, 2.5, 251, 1.99, 2.0, 2)
        row = run_frequency_batch(model, [drive], grid)[0].values[1]
        eps = grid.eps_values
        for n in (k * drive.frequency for k in range(-2, 3)):
            sel = np.abs(eps - n) <= 0.5
            peak_eps = eps[sel][np.argmax(row[sel])]
            assert abs(peak_eps - n) <= gamma2
