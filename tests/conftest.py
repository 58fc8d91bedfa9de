"""Fixtures and helpers shared by the test modules."""

import os

import pytest

import lzs_sim.sweep as sweep_mod
from lzs_sim import RateMatrix, StateIndex, Well

L0 = StateIndex(Well.LEFT, 0)
L1 = StateIndex(Well.LEFT, 1)
R0 = StateIndex(Well.RIGHT, 0)
R1 = StateIndex(Well.RIGHT, 1)


def three_state_matrix(a, b, g, h):
    """States (0L, 0R, 1R): pump a on 0R<->0L, pump b on 0L<->1R,
    decay g on 1R->0R, decay h on 0L->0R."""
    return RateMatrix.from_channels(
        (L0, R0, R1),
        [
            (R0, L0, a),
            (L0, R0, a),
            (L0, R1, b),
            (R1, L0, b),
            (R1, R0, g),
            (L0, R0, h),
        ],
    )


def four_state_matrix(v, b, g, h, k):
    """States (0L, 1L, 0R, 1R): pump v on 0R<->1L, pump b on 0L<->1R,
    decays g: 1R->0R, h: 0L->0R, k: 1L->0L."""
    return RateMatrix.from_channels(
        (L0, L1, R0, R1),
        [
            (R0, L1, v),
            (L1, R0, v),
            (L0, R1, b),
            (R1, L0, b),
            (R1, R0, g),
            (L0, R0, h),
            (L1, L0, k),
        ],
    )


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
