"""Every exception type survives pickling with its message and attributes."""

import inspect
import pickle

import pytest

import lzs_sim.errors as errors

EXAMPLES = {
    errors.SimulationError: errors.SimulationError("engine failed"),
    errors.NonConvergent: errors.NonConvergent("no fit", eps=-1.5, amp=0.25),
    errors.StepRejected: errors.StepRejected("singular step"),
    errors.DegenerateSystem: errors.DegenerateSystem("all rates zero"),
    errors.InsufficientLevels: errors.InsufficientLevels("needs 3 levels"),
    errors.ValidationError: errors.ValidationError("n_eps must be >= 2"),
    errors.ParseError: errors.ParseError("bad", 3, 4),
}


def test_examples_cover_every_exception_type():
    defined = {
        cls
        for _, cls in inspect.getmembers(errors, inspect.isclass)
        if issubclass(cls, BaseException) and cls.__module__ == errors.__name__
    }
    assert defined == set(EXAMPLES)


@pytest.mark.parametrize("exc", EXAMPLES.values(), ids=lambda e: type(e).__name__)
def test_round_trips_through_pickle(exc):
    back = pickle.loads(pickle.dumps(exc))
    assert type(back) is type(exc)
    assert str(back) == str(exc)
    assert back.args == exc.args
    assert vars(back) == vars(exc)


def test_messages_keep_their_coordinates():
    assert str(EXAMPLES[errors.ParseError]) == "line 3, column 4: bad"
    assert str(EXAMPLES[errors.NonConvergent]) == "no fit (eps=-1.5 GHz, amp=0.25 GHz)"
