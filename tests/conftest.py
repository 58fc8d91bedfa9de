"""Fixtures and helpers shared by the test modules."""

import os

import numpy as np
import pytest

import lzs_sim.sweep as sweep_mod
from lzs_sim import RateMatrix, StateIndex, ValidationError, Well
from lzs_sim.errors import _number

L0 = StateIndex(Well.LEFT, 0)
L1 = StateIndex(Well.LEFT, 1)
R0 = StateIndex(Well.RIGHT, 0)
R1 = StateIndex(Well.RIGHT, 1)


def from_channels(states, channels) -> RateMatrix:
    """Assemble a generator from (from_state, to_state, rate) triples."""
    states = tuple(states)
    index = {s: a for a, s in enumerate(states)}
    if len(index) != len(states):
        raise ValidationError("duplicate states")
    n = len(states)
    mat = np.zeros((n, n))
    for frm, to, rate in channels:
        rate = _number(rate, "channel rates must be >= 0 and finite", at_least=0)
        if frm == to:
            raise ValidationError("channels must connect distinct states")
        mat[index[to], index[frm]] += rate
    mat[np.diag_indices(n)] = -mat.sum(axis=0)
    return RateMatrix(matrix=mat, states=states)


def three_state_matrix(a, b, g, h):
    """States (0L, 0R, 1R): pump a on 0R<->0L, pump b on 0L<->1R,
    decay g on 1R->0R, decay h on 0L->0R."""
    return from_channels(
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
    return from_channels(
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


def stationary_three_state(w_0r0l, w_0l1r, g_1r0r, g_0l0r):
    """Closed-form stationary populations (P_0R, P_0L, P_1R) of the
    minimal first-diamond system: a symmetric pumped channel 0R<->0L,
    a symmetric pumped channel 0L<->1R, decay 1R->0R, and decay 0L->0R.
    Every rate set, all-zero included, gets the state reached from 0R,
    as ``stationary_solve`` gives it; none raises but a negative or
    non-finite rate (ValidationError).
    """
    rates = (w_0r0l, w_0l1r, g_1r0r, g_0l0r)
    a, b, g, h = (_number(r, "rates must be >= 0 and finite", at_least=0) for r in rates)
    den = 3.0 * a * b + 2.0 * a * g + b * g + b * h + g * h
    if den > 0.0:
        return ((a * b + a * g + b * g + b * h + g * h) / den, a * (b + g) / den, a * b / den)
    # Degenerate corners: the state reached from the 0R ground state.
    if a == 0.0:
        return (1.0, 0.0, 0.0)
    # a > 0 forces b = g = 0: plain two-state balance, 1R disconnected.
    return ((a + h) / (2.0 * a + h), a / (2.0 * a + h), 0.0)


def stationary_four_state(w_0r1l, w_0l1r, g_1r0r, g_0l0r, g_1l0l):
    """Closed-form stationary populations (P_0R, P_0L, P_1R, P_1L) of the
    minimal second-diamond system: symmetric pumping 0R<->1L and
    0L<->1R, decays 1R->0R, 0L->0R, and 1L->0L.  Every rate set,
    all-zero included, gets the state reached from 0R, as
    ``stationary_solve`` gives it; none raises but a negative or
    non-finite rate (ValidationError).
    """
    rates = (w_0r1l, w_0l1r, g_1r0r, g_0l0r, g_1l0l)
    v, b, g, h, k = (_number(r, "rates must be >= 0 and finite", at_least=0) for r in rates)
    if v == 0.0:
        return (1.0, 0.0, 0.0, 0.0)  # ground state is never pumped
    s = b * g + b * h + g * h
    den = (2.0 * v + k) * s + k * v * (2.0 * b + g)
    if den > 0.0:
        return ((v + k) * s / den, k * v * (b + g) / den, k * v * b / den, v * s / den)
    # Degenerate corners with v > 0: the state reached from 0R.
    if k == 0.0:
        return (0.5, 0.0, 0.0, 0.5)  # 0R<->1L equilibrate, left branch unreachable
    if h > 0.0:
        # Closed loop 0R -> 1L -> 0L -> 0R with b = g = 0.
        den = h * (2.0 * v + k) + k * v
        return (h * (v + k) / den, k * v / den, 0.0, h * v / den)
    return (0.0, 1.0, 0.0, 0.0)  # population funnels into the dead-end 0L


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
