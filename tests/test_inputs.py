"""One rule for what the public API accepts as a number or a count.

A number is a finite real that is not a bool (numpy scalars count) and
is stored as float; a count is an integer that is not a bool (numpy
integers count) and is stored as int.  Every entry of an array argument
is a number by the same rule.  Anything else is a ValidationError,
never a TypeError.  The test oracles of conftest
(``from_channels`` and the closed forms) take their rates by the same
rule.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from lzs_sim import (
    DiamondBoundary,
    DriveParams,
    LeakConfig,
    PopulationMap,
    PopulationVector,
    QubitModel,
    RateKernelParams,
    RateMatrix,
    RegimeReport,
    StateIndex,
    SweepGrid,
    ValidationError,
    Well,
    bessel_jn,
    build_rate_matrix,
    crossing_position,
    lzs_rate,
    run_frequency_batch,
)

from conftest import from_channels, stationary_four_state, stationary_three_state

MODEL = QubitModel(
    left_offsets=(0.0,), right_offsets=(0.0,), crossings=[[0.1]], left_to_right=[[0.01]]
)
LADDER = QubitModel((0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0, 3.0), crossings=np.eye(4))
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
    "RegimeReport.delta_a": (
        lambda v: RegimeReport(v, 2.0, (0, 1)).delta_a,
        True,
    ),
    "RegimeReport.delta_d": (
        lambda v: RegimeReport(1.0, v, (0, 1)).delta_d,
        True,
    ),
    "DiamondBoundary.position": (lambda v: DiamondBoundary(0, 0, v).position, True),
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
        lambda v: from_channels((L0, R0), [(L0, R0, v)]).matrix.tolist(),
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
    "DiamondBoundary.left_level": (lambda v: DiamondBoundary(v, 0, 0.0).left_level, True),
    "DiamondBoundary.right_level": (lambda v: DiamondBoundary(0, v, 0.0).right_level, True),
    "RegimeReport.spacing_pair.0": (lambda v: RegimeReport(1.0, 2.0, (v, 1)).spacing_pair[0], True),
    "RegimeReport.spacing_pair.1": (lambda v: RegimeReport(1.0, 2.0, (0, v)).spacing_pair[1], True),
    "crossing_position.i": (lambda v: crossing_position(LADDER, v, 0), False),
    "crossing_position.j": (lambda v: crossing_position(LADDER, 0, v), False),
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


@pytest.mark.parametrize("value", [-1, 0.5, "0"], ids=repr)
@pytest.mark.parametrize("name", ["crossing_position.i", "crossing_position.j"])
def test_crossing_position_takes_level_counts(name, value):
    with pytest.raises(ValidationError):
        COUNTS[name][0](value)


# name -> (call of one array giving the stored array, a valid array of
# integers whose first 1 the rejected entries replace)
ARRAYS = {
    "QubitModel.crossings": (lambda a: QubitModel((0.0,), (0.0,), a).crossings, [[1]]),
    "QubitModel.left_relax": (
        lambda a: QubitModel((0.0, 1.0), (0.0,), [[0.0], [0.0]], left_relax=a).left_relax,
        [[0, 0], [1, 0]],
    ),
    "QubitModel.right_relax": (
        lambda a: QubitModel((0.0,), (0.0, 1.0), [[0.0, 0.0]], right_relax=a).right_relax,
        [[0, 0], [1, 0]],
    ),
    "QubitModel.left_to_right": (
        lambda a: QubitModel((0.0,), (0.0,), [[0.0]], left_to_right=a).left_to_right,
        [[1]],
    ),
    "QubitModel.right_to_left": (
        lambda a: QubitModel((0.0,), (0.0,), [[0.0]], right_to_left=a).right_to_left,
        [[1]],
    ),
    "RateMatrix.matrix": (lambda a: RateMatrix(a, (L0, R0)).matrix, [[-1, 1], [1, -1]]),
    "PopulationVector.probabilities": (
        lambda a: PopulationVector(a, (L0, R0)).probabilities,
        [0, 1],
    ),
    "PopulationMap.values": (
        lambda a: PopulationMap(GRID, a, "x").values,
        [[1, 0, 1], [0, 1, 0]],
    ),
}


@pytest.mark.parametrize(
    "convert",
    [
        lambda a: np.array(a, dtype=np.float32),
        lambda a: np.array(a, dtype=np.int64),
        lambda a: np.frompyfunc(Fraction, 1, 1)(a).tolist(),
    ],
    ids=["float32", "int64", "Fraction"],
)
@pytest.mark.parametrize("name", ARRAYS)
def test_numeric_arrays_and_fraction_entries_are_numbers(name, convert):
    call, valid = ARRAYS[name]
    got = call(convert(valid))
    assert got.dtype == np.float64
    assert got.tolist() == np.array(valid, dtype=float).tolist()


@pytest.mark.parametrize(
    "value",
    [True, 0.1 + 1j, "1", object(), 10**400, "ragged"],
    ids=["bool", "complex", "text", "object", "int_past_float", "ragged"],
)
@pytest.mark.parametrize("name", ARRAYS)
def test_array_entries_follow_the_number_rule(name, value):
    call, valid = ARRAYS[name]
    flat = np.ravel(valid).tolist()
    if value == "ragged":
        bad = [flat, flat + [0]]
    else:
        bad = np.array(valid, dtype=object)
        bad.flat[flat.index(1)] = value
        bad = bad.tolist()
    with pytest.raises(ValidationError):
        call(bad)
