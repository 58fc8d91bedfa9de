"""One rule for what the public API accepts as a number or a count.

A number is a finite real that is not a bool (numpy scalars count) and
is stored as float; a count is an integer that is not a bool (numpy
integers count) and is stored as int.  Anything else is a
ValidationError, never a TypeError.
"""

import math

import numpy as np
import pytest

from lzs_sim import (
    DriveParams,
    LeakConfig,
    PopulationMap,
    QubitModel,
    RateKernelParams,
    RateMatrix,
    Regime,
    RegimeReport,
    StateIndex,
    SweepGrid,
    ValidationError,
    Well,
    bessel_jn,
    build_rate_matrix,
    lzs_rate,
    run_frequency_batch,
    stationary_four_state,
    stationary_three_state,
)

MODEL = QubitModel(
    left_offsets=(0.0,), right_offsets=(0.0,), crossings=[[0.1]], left_to_right=[[0.01]]
)
DRIVE = DriveParams(1.0, 1.0, 0.1)
GRID = SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2)
L0, R0 = StateIndex(Well.LEFT, 0), StateIndex(Well.RIGHT, 0)


def _closed_form(form, n_rates, slot):
    return lambda v: form(*(v if k == slot else 0.5 for k in range(n_rates)))


# name -> (call of one value, whether the call returns the stored value)
NUMBERS = {
    "DriveParams.amplitude": (lambda v: DriveParams(v, 1.0, 0.1).amplitude, True),
    "DriveParams.frequency": (lambda v: DriveParams(0.0, v, 0.1).frequency, True),
    "DriveParams.dephasing": (lambda v: DriveParams(0.0, 1.0, v).dephasing, True),
    "LeakConfig.return_rate": (lambda v: LeakConfig(1, v).return_rate, True),
    "SweepGrid.eps_min": (lambda v: SweepGrid(v, 2.0, 3, 0.0, 1.0, 2).eps_min, True),
    "SweepGrid.eps_max": (lambda v: SweepGrid(0.0, v, 3, 0.0, 1.0, 2).eps_max, True),
    "SweepGrid.amp_min": (lambda v: SweepGrid(0.0, 1.0, 3, v, 2.0, 2).amp_min, True),
    "SweepGrid.amp_max": (lambda v: SweepGrid(0.0, 1.0, 3, 0.0, v, 2).amp_max, True),
    "PopulationMap.frequency": (
        lambda v: PopulationMap(GRID, np.full(GRID.shape, 0.5), v, "x").frequency,
        True,
    ),
    "RegimeReport.delta_a": (
        lambda v: RegimeReport(v, 2.0, 0.5, Regime.LOW_FREQUENCY, (0, 1)).delta_a,
        True,
    ),
    "RegimeReport.delta_d": (
        lambda v: RegimeReport(1.0, v, 0.5, Regime.LOW_FREQUENCY, (0, 1)).delta_d,
        True,
    ),
    "QubitModel.left_offsets": (
        lambda v: QubitModel((v,), (0.0,), [[0.1]]).left_offsets[0],
        True,
    ),
    "QubitModel.right_offsets": (
        lambda v: QubitModel((0.0,), (v,), [[0.1]]).right_offsets[0],
        True,
    ),
    "lzs_rate.delta": (lambda v: lzs_rate(v, 0.0, DRIVE), False),
    "lzs_rate.eps_local": (lambda v: lzs_rate(0.1, v, DRIVE), False),
    "bessel_jn.n": (lambda v: bessel_jn(v, 1.5), False),
    "bessel_jn.x": (lambda v: bessel_jn(0, v), False),
    "build_rate_matrix.eps": (lambda v: build_rate_matrix(MODEL, v, DRIVE).matrix.tolist(), False),
    "RateMatrix.from_channels.rate": (
        lambda v: RateMatrix.from_channels((L0, R0), [(L0, R0, v)]).matrix.tolist(),
        False,
    ),
    **{
        f"stationary_three_state.{k}": (_closed_form(stationary_three_state, 4, k), False)
        for k in range(4)
    },
    **{
        f"stationary_four_state.{k}": (_closed_form(stationary_four_state, 5, k), False)
        for k in range(5)
    },
}

COUNTS = {
    "StateIndex.level": (lambda v: StateIndex(Well.LEFT, v).level, True),
    "LeakConfig.threshold": (lambda v: LeakConfig(v, 1.0).threshold, True),
    "RateKernelParams.n_margin": (lambda v: RateKernelParams(v).n_margin, True),
    "SweepGrid.n_eps": (lambda v: SweepGrid(0.0, 1.0, v, 0.0, 1.0, 2).n_eps, True),
    "SweepGrid.n_amp": (lambda v: SweepGrid(0.0, 1.0, 2, 0.0, 1.0, v).n_amp, True),
    "run_frequency_batch.workers": (
        lambda v: run_frequency_batch(MODEL, [DRIVE], GRID, workers=v)[0].values.tolist(),
        False,
    ),
}

REJECTED = [True, np.True_, "1", math.nan, math.inf]


@pytest.mark.parametrize("value", [np.float64(1.0), np.float32(1.0), np.int64(1)], ids=repr)
@pytest.mark.parametrize("name", NUMBERS)
def test_numpy_scalars_are_numbers(name, value):
    call, stores = NUMBERS[name]
    got = call(value)
    assert got == call(float(value))
    if stores:
        assert type(got) is float


@pytest.mark.parametrize("name", COUNTS)
def test_numpy_integers_are_counts(name):
    call, stores = COUNTS[name]
    got = call(np.int64(3))
    assert got == call(3)
    if stores:
        assert type(got) is int


@pytest.mark.parametrize("value", REJECTED, ids=repr)
@pytest.mark.parametrize("name", [*NUMBERS, *COUNTS])
def test_bools_text_and_non_finite_values_are_rejected(name, value):
    call, _ = NUMBERS.get(name) or COUNTS[name]
    with pytest.raises(ValidationError):
        call(value)


@pytest.mark.parametrize("name", COUNTS)
def test_a_float_is_not_a_count(name):
    call, _ = COUNTS[name]
    with pytest.raises(ValidationError):
        call(3.0)
