"""Fixtures shared by the test modules."""

import os

import pytest

import lzs_sim.sweep as sweep_mod


@pytest.fixture
def always_fork(monkeypatch):
    """Fork for any amount of work, as a run big enough to pay for it
    does: W = min(workers, tasks).  The tests' grids are far below the
    real threshold, and would otherwise never leave this process."""
    monkeypatch.setattr(sweep_mod, "_WORK_PER_PROCESS", 1)


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
