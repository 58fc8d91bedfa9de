"""Results are frozen: their arrays are read-only for good, and their
fields cannot be reassigned.

Neither a write nor ``setflags(write=True)`` gets past the freeze.
``np.array(x)`` gives a writeable copy, and so does a ``pickle`` round
trip or ``copy.deepcopy``, because numpy restores every unpickled array
as writeable."""

import dataclasses

import numpy as np
import pytest

from lzs_sim import (
    DriveParams,
    QubitModel,
    SweepGrid,
    build_rate_matrix,
    run_frequency_batch,
    stationary_solve,
)

MODEL = QubitModel(
    left_offsets=(0.0, 1.0),
    right_offsets=(0.0,),
    crossings=np.array([[0.1], [0.2]]),
    left_relax=np.array([[0.0, 0.0], [1.0, 0.0]]),
    left_to_right=np.array([[0.01], [0.0]]),
)
DRIVE = DriveParams(amplitude=1.0, frequency=1.0, dephasing=0.1)


def _matrix():
    return build_rate_matrix(MODEL, 0.5, DRIVE)


MODEL_ARRAYS = ("crossings", "left_relax", "right_relax", "left_to_right", "right_to_left")
# name -> (a call giving the frozen owner, the field holding the array)
FROZEN = {
    **{f"QubitModel.{field}": (lambda: MODEL, field) for field in MODEL_ARRAYS},
    "RateMatrix.matrix": (_matrix, "matrix"),
    "PopulationVector.probabilities": (lambda: stationary_solve(_matrix()), "probabilities"),
    "PopulationMap.values": (
        lambda: run_frequency_batch(MODEL, [DRIVE], SweepGrid(-1.0, 1.0, 3, 0.0, 1.0, 2))[0],
        "values",
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_arrays_are_read_only_and_fields_fixed(name):
    make, field = FROZEN[name]
    owner = make()
    array = getattr(owner, field)
    before = array.copy()
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.5
    with pytest.raises(ValueError, match="WRITEABLE"):
        array.setflags(write=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(owner, field, np.zeros_like(array))
    assert np.array_equal(getattr(owner, field), before)
