"""Results are frozen: their arrays are read-only for good, and their
fields cannot be reassigned.

Neither a write nor ``setflags(write=True)`` gets past the freeze.
``np.array(x)`` gives a writeable copy.  A ``pickle`` round trip,
``copy.copy`` or ``copy.deepcopy`` rebuilds the object through its
constructor, so the copy is checked and frozen as the original was.
The frozen classes compare and hash by identity."""

import copy
import dataclasses
import pickle

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
from lzs_sim.cli import parse_config

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


# copy mode -> how the owner is copied before the check
COPIES = {
    "none": lambda owner: owner,
    "pickle": lambda owner: pickle.loads(pickle.dumps(owner)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize(
    "name, mode",
    [
        pytest.param(name, mode, id=name if mode == "none" else f"{name}-{mode}")
        for name in FROZEN
        for mode in COPIES
    ],
)
def test_arrays_are_read_only_and_fields_fixed(name, mode):
    make, field = FROZEN[name]
    original = make()
    before = getattr(original, field).copy()
    owner = COPIES[mode](original)
    array = getattr(owner, field)
    assert np.array_equal(array, before)
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.5
    with pytest.raises(ValueError, match="WRITEABLE"):
        array.setflags(write=True)
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(owner, field, np.zeros_like(array))
    assert np.array_equal(getattr(owner, field), before)


CONFIG = """
[model]
left_levels = 0.0
right_levels = 0.0 12.0
crossing 0 0 = 0.04
crossing 0 1 = 0.4
[drive]
frequency = 1.0
dephasing = 0.1
[grid]
eps = -6 6 3
amp = 0 1 2
"""


# name -> a call giving an instance
EQUALITY = {
    "QubitModel": FROZEN["QubitModel.crossings"][0],
    "RateMatrix": FROZEN["RateMatrix.matrix"][0],
    "PopulationVector": FROZEN["PopulationVector.probabilities"][0],
    "PopulationMap": FROZEN["PopulationMap.values"][0],
    "RunConfig": lambda: parse_config(CONFIG),
}


@pytest.mark.parametrize("name", EQUALITY)
def test_equality_and_hash_are_by_identity(name):
    # A deep copy holds equal values but is another object; a RunConfig
    # compares its fields, so its model by identity.
    a = EQUALITY[name]()
    b = copy.deepcopy(a)
    assert a == a and a != b
    assert hash(a) == hash(a)
