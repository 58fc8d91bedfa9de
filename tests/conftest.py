"""Fixtures shared by the test modules."""

import os

import pytest

import lzs_sim.sweep as sweep_mod


@pytest.fixture
def always_fork(monkeypatch):
    """Fork for any amount of work, as a run big enough to pay for it
    does: W = min(workers, tasks).  The tests' grids are far below the
    real threshold, and would otherwise never leave this process.

    Most of them are also one block, so one task, at the real block
    size.  The function returned sets _BLOCK_POINTS for the rest of the
    test: call it with rows * n_eps for tasks of that many rows, or with
    1 for one row per task."""
    monkeypatch.setattr(sweep_mod, "_WORK_PER_PROCESS", 1)

    def block_points(points: int):
        monkeypatch.setattr(sweep_mod, "_BLOCK_POINTS", points)

    return block_points


@pytest.fixture
def forks(monkeypatch):
    """The pid of every child this process forks, in order."""
    pids = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return pids
