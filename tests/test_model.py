"""Model construction, validation, and crossing geometry."""

import numpy as np
import pytest

from lzs_sim import (
    DriveParams,
    LeakConfig,
    QubitModel,
    StateIndex,
    ValidationError,
    Well,
    crossing_position,
)


def make_model(left, right, crossings=None, **kw):
    left = np.asarray(left, dtype=float)
    right = np.asarray(right, dtype=float)
    if crossings is None:
        crossings = np.zeros((left.size, right.size))
        crossings[0, 0] = 0.1
    return QubitModel(
        left_offsets=left, right_offsets=right, crossings=np.asarray(crossings), **kw
    )


class TestQubitModel:
    def test_minimal_construction(self):
        m = make_model([0.0], [0.0])
        assert m.n_left == 1 and m.n_right == 1
        assert [s.label for s in m.states()] == ["0L", "0R"]

    def test_states_order_and_leak(self):
        m = make_model(
            [0.0, 5.0], [0.0], leak=LeakConfig(threshold=1, return_rate=1.0)
        )
        assert [s.label for s in m.states()] == ["0L", "1L", "0R", "leak"]

    def test_defaults_are_zero_matrices(self):
        m = make_model([0.0, 1.0], [0.0])
        assert np.all(m.left_relax == 0) and m.left_relax.shape == (2, 2)
        assert np.all(m.left_to_right == 0) and m.left_to_right.shape == (2, 1)
        assert np.all(m.right_to_left == 0) and m.right_to_left.shape == (1, 2)

    def test_ladder_must_increase(self):
        with pytest.raises(ValidationError):
            make_model([0.0, 0.0], [0.0])
        with pytest.raises(ValidationError):
            make_model([1.0, 0.5], [0.0])

    def test_ladders_need_a_level(self):
        with pytest.raises(ValidationError, match="left_offsets must contain at least one level"):
            make_model([], [0.0], crossings=np.zeros((0, 1)))
        with pytest.raises(ValidationError, match="right_offsets must contain at least one level"):
            make_model([0.0], [], crossings=np.zeros((1, 0)))

    def test_crossings_shape_checked(self):
        with pytest.raises(ValidationError):
            make_model([0.0, 1.0], [0.0], crossings=np.zeros((1, 1)))

    def test_negative_crossing_rejected(self):
        with pytest.raises(ValidationError):
            make_model([0.0], [0.0], crossings=[[-0.1]])

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            make_model([0.0, np.inf], [0.0])
        with pytest.raises(ValidationError):
            make_model([0.0], [0.0], crossings=[[np.nan]])
        # Finite offsets whose differences overflow.
        with pytest.raises(ValidationError, match="differ by finite amounts"):
            make_model([-1e308], [0.0, 1e308], crossings=[[0.1, 0.1]])
        with pytest.raises(ValidationError, match="differ by finite amounts"):
            make_model([-1e308, 1e308], [0.0], crossings=[[0.1], [0.1]])

    def test_relaxation_must_be_downhill(self):
        up = np.zeros((2, 2))
        up[0, 1] = 1.0  # from level 0 up to level 1
        with pytest.raises(ValidationError):
            make_model([0.0, 1.0], [0.0], left_relax=up)
        diag = np.zeros((2, 2))
        diag[1, 1] = 1.0
        with pytest.raises(ValidationError):
            make_model([0.0, 1.0], [0.0], left_relax=diag)
        down = np.zeros((2, 2))
        down[1, 0] = 1.0
        make_model([0.0, 1.0], [0.0], left_relax=down)

    def test_arrays_read_only(self):
        m = make_model([0.0], [0.0])
        with pytest.raises(ValueError):
            m.crossings[0, 0] = 1.0
        with pytest.raises(TypeError):
            m.left_offsets[0] = 1.0  # ladders are plain tuples

    def test_coupled_pairs_skips_zero_entries(self):
        cross = np.zeros((2, 2))
        cross[0, 1] = 0.3
        cross[1, 0] = 0.05
        m = make_model([0.0, 1.0], [0.0, 2.0], crossings=cross)
        pairs = list(m.coupled_pairs())
        assert pairs == [(0, 1, 0.3), (1, 0, 0.05)]

    def test_leak_validation(self):
        with pytest.raises(ValidationError):
            LeakConfig(threshold=-1, return_rate=1.0)
        with pytest.raises(ValidationError):
            LeakConfig(threshold=True, return_rate=1.0)
        with pytest.raises(ValidationError):
            LeakConfig(threshold=0, return_rate=0.0)
        with pytest.raises(ValidationError):
            LeakConfig(threshold=0, return_rate=-2.0)


class TestStateIndex:
    def test_labels(self):
        assert StateIndex(Well.LEFT, 3).label == "3L"
        assert StateIndex(Well.RIGHT, 0).label == "0R"
        assert StateIndex(Well.LEAK, None).label == "leak"

    def test_leak_has_no_level(self):
        with pytest.raises(ValidationError):
            StateIndex(Well.LEAK, 0)
        with pytest.raises(ValidationError):
            StateIndex(Well.LEFT, None)
        with pytest.raises(ValidationError):
            StateIndex(Well.LEFT, -1)
        with pytest.raises(ValidationError):
            StateIndex(Well.LEFT, True)

    @pytest.mark.parametrize("well", ["L", None, 0], ids=["text", "none", "int"])
    def test_well_must_be_a_well(self, well):
        with pytest.raises(ValidationError, match="well must be a Well"):
            StateIndex(well, 0)


class TestDriveParams:
    def test_valid(self):
        d = DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.1)
        assert d.amplitude == 0.0

    def test_negative_amplitude(self):
        with pytest.raises(ValidationError):
            DriveParams(amplitude=-1.0, frequency=1.0, dephasing=0.1)

    def test_zero_frequency(self):
        with pytest.raises(ValidationError):
            DriveParams(amplitude=0.0, frequency=0.0, dephasing=0.1)

    def test_non_numbers_rejected(self):
        for args in ((True, 1.0, 0.1), (0.0, True, 0.1), (0.0, 1.0, True), ("1", 1.0, 0.1)):
            with pytest.raises(ValidationError, match="must be a number"):
                DriveParams(*args)

    def test_dephasing_message(self):
        with pytest.raises(ValidationError, match="dephasing must be positive"):
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=-0.1)
        with pytest.raises(ValidationError, match="dephasing must be positive"):
            DriveParams(amplitude=0.0, frequency=1.0, dephasing=0.0)


class TestCrossingGeometry:
    def test_symmetric_wells_cross_at_zero(self):
        m = make_model([0.0], [0.0])
        assert crossing_position(m, 0, 0) == 0.0

    def test_positions_from_offsets(self):
        m = make_model([0.0, 6.0], [0.0, 5.0])
        assert crossing_position(m, 1, 0) == -6.0
        assert crossing_position(m, 0, 1) == 5.0

    def test_index_out_of_range(self):
        m = make_model([0.0], [0.0])
        with pytest.raises(IndexError):
            crossing_position(m, 1, 0)
        with pytest.raises(IndexError):
            crossing_position(m, 0, 2)

    def test_antisymmetry_under_ladder_exchange(self):
        m = make_model([0.0, 6.0], [0.5, 5.0], crossings=np.full((2, 2), 0.1))
        swapped = make_model([0.5, 5.0], [0.0, 6.0], crossings=np.full((2, 2), 0.1))
        for i in range(2):
            for j in range(2):
                assert crossing_position(m, i, j) == -crossing_position(swapped, j, i)

    def test_consecutive_spacing_matches_ladder(self):
        m = make_model([0.0, 6.0, 13.0], [0.0])
        for n in range(2):
            gap = abs(
                crossing_position(m, n, 0) - crossing_position(m, n + 1, 0)
            )
            assert gap == m.left_offsets[n + 1] - m.left_offsets[n]
