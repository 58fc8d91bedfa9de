"""Population rate equations: matrix assembly and stationary solutions.

Each pumped crossing contributes a symmetric pair of transition rates
(the same W in both directions), relaxation contributes one-way decay
channels, and the optional leak state collects pumping into above-
threshold levels and returns population to the two ground states with
equal branching.  The resulting generator has nonnegative off-diagonal
entries and (up to roundoff) zero column sums, so probability is
conserved and stationary states exist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateSystem, NonConvergent, StepRejected, ValidationError
from .model import (
    DriveParams,
    QubitModel,
    StateIndex,
    Well,
    local_detuning,
)
from .rates import RateKernelParams, lzs_rate

__all__ = [
    "RateMatrix",
    "PopulationVector",
    "build_rate_matrix",
    "stationary_solve",
    "stationary_three_state",
    "stationary_four_state",
    "time_evolve",
]

_RESIDUAL_REL = 1e-10
_NEGATIVITY_TOL = 1e-12
_FALLBACK_STEP_TOL = 1e-14
_FALLBACK_MAX_STEPS = 300


@dataclass(frozen=True)
class RateMatrix:
    """Generator M of the population dynamics dP/dt = M P.

    M[a, b] is the total rate from state b into state a (a != b); the
    diagonal holds minus the column's outflow so columns sum to zero.
    """

    matrix: np.ndarray
    states: tuple[StateIndex, ...]

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        n = len(self.states)
        if mat.shape != (n, n):
            raise ValidationError(f"matrix shape {mat.shape} does not match {n} states")
        if not np.all(np.isfinite(mat)):
            raise ValidationError("rate matrix entries must be finite")
        off = mat.copy()
        np.fill_diagonal(off, 0.0)
        if np.any(off < 0):
            raise ValidationError("off-diagonal rates must be >= 0")
        scale = np.max(np.abs(mat)) if mat.size else 0.0
        if np.max(np.abs(mat.sum(axis=0))) > 64 * np.finfo(float).eps * max(scale, 1.0) * n:
            raise ValidationError("column sums must vanish (probability conservation)")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)
        object.__setattr__(self, "states", tuple(self.states))

    @classmethod
    def from_channels(cls, states, channels) -> "RateMatrix":
        """Assemble a generator from (from_state, to_state, rate) triples."""
        states = tuple(states)
        index = {s: a for a, s in enumerate(states)}
        if len(index) != len(states):
            raise ValidationError("duplicate states")
        n = len(states)
        mat = np.zeros((n, n))
        for frm, to, rate in channels:
            if not (math.isfinite(rate) and rate >= 0):
                raise ValidationError("channel rates must be >= 0 and finite")
            if frm == to:
                raise ValidationError("channels must connect distinct states")
            mat[index[to], index[frm]] += rate
        mat[np.diag_indices(n)] = -mat.sum(axis=0)
        return cls(matrix=mat, states=states)


@dataclass(frozen=True)
class PopulationVector:
    """Probabilities over the flat state list; entries sum to one."""

    probabilities: np.ndarray
    states: tuple[StateIndex, ...]

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.shape != (len(self.states),):
            raise ValidationError("probability vector length does not match states")
        if not np.all(np.isfinite(p)):
            raise ValidationError("probabilities must be finite")
        if np.any(p < -_NEGATIVITY_TOL) or np.any(p > 1.0 + 1e-9):
            raise ValidationError("probabilities must lie in [0, 1]")
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities must sum to 1, got {total!r}")
        p = np.clip(p, 0.0, 1.0)
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "states", tuple(self.states))

    def _well_sum(self, well: Well) -> float:
        return math.fsum(
            p for p, s in zip(self.probabilities, self.states) if s.well is well
        )

    @property
    def p_left(self) -> float:
        return self._well_sum(Well.LEFT)

    @property
    def p_right(self) -> float:
        return self._well_sum(Well.RIGHT)

    @property
    def p_leak(self) -> float:
        return self._well_sum(Well.LEAK)

    def probability_of(self, state: StateIndex) -> float:
        return float(self.probabilities[self.states.index(state)])


def _generator_layout(model: QubitModel):
    """The drive-independent part of a model's generator.

    Returns (static, pumps).  static[to, from] holds relaxation,
    interwell decay and the leak return, with a zero diagonal.  pumps
    lists (i, j, delta, targets) for each pumped crossing in
    ``coupled_pairs`` order; its rate adds to static[to, from] for every
    (to, from) in targets.  Without a leak a crossing pumps both ways.
    With one, a crossing whose partner level is at or above the
    threshold pumps its below-threshold side into the leak (the last
    state), and one with both partners above pumps nothing.
    """
    nl = model.n_left
    n = len(model.states())
    left, right = slice(0, nl), slice(nl, nl + model.n_right)
    # static[to, from]; the model's rate arrays are indexed [from, to].
    static = np.zeros((n, n))
    static[left, left] += model.left_relax.T
    static[right, right] += model.right_relax.T
    static[right, left] += model.left_to_right.T
    static[left, right] += model.right_to_left.T

    threshold = None
    if model.leak is not None:
        threshold = model.leak.threshold
        static[0, -1] = static[nl, -1] = 0.5 * model.leak.return_rate
    pumps = []
    for i, j, delta in model.coupled_pairs():
        left_local = threshold is None or i < threshold
        right_local = threshold is None or j < threshold
        if left_local and right_local:
            targets = ((nl + j, i), (i, nl + j))
        elif left_local or right_local:
            targets = ((n - 1, i if left_local else nl + j),)
        else:
            continue  # both partners non-local: no localized channel
        pumps.append((i, j, delta, targets))
    return static, pumps


def build_rate_matrix(
    model: QubitModel,
    eps: float,
    drive: DriveParams,
    kernel: RateKernelParams = RateKernelParams(),
) -> RateMatrix:
    """Generator at one (eps, drive) working point.

    Every nonzero crossing adds the same pumped rate in both directions;
    with a leak configured, crossings whose partner level is at or above
    the threshold pump the below-threshold side into the leak instead.
    """
    if not math.isfinite(eps):
        raise ValidationError("eps must be finite")
    mat, pumps = _generator_layout(model)
    for i, j, delta, targets in pumps:
        w = lzs_rate(delta, local_detuning(model, eps, i, j), drive, kernel)
        for to, frm in targets:
            mat[to, frm] += w
    np.fill_diagonal(mat, -mat.sum(axis=0))
    return RateMatrix(matrix=mat, states=model.states())


def stationary_stack(mats: np.ndarray):
    """Direct stationary solves of a generator stack (M, n, n).

    Returns (p, ok): p[m] solves mats[m] p = 0 with sum(p) = 1 by one
    LU solve, the last (redundant) row replaced by the normalization,
    and ok[m] says whether it passes the acceptance check that
    ``stationary_solve`` also applies.  Points that fail, or all of them
    when the stack holds an exactly singular matrix, are left to the
    caller.
    """
    m, n = mats.shape[:2]
    a = mats.copy()
    a[:, -1, :] = 1.0
    b = np.zeros((m, n, 1))
    b[:, -1] = 1.0
    try:
        p = np.linalg.solve(a, b)[..., 0]
    except np.linalg.LinAlgError:
        return np.full((m, n), np.nan), np.zeros(m, dtype=bool)
    scale = np.abs(mats).sum(axis=2).max(axis=1)
    with np.errstate(invalid="ignore", over="ignore"):
        # Elementwise, not BLAS: the check must not depend on thread count.
        residual = np.abs(np.sum(mats * p[:, None, :], axis=2)).max(axis=1)
        ok = (
            np.isfinite(p).all(axis=1)
            & (p.min(axis=1) >= -_NEGATIVITY_TOL)
            & (residual <= _RESIDUAL_REL * np.maximum(scale, 1e-300))
            & (np.abs(p.sum(axis=1) - 1.0) <= 1e-9)
        )
    return p, ok


def left_population(p: np.ndarray, n_left: int) -> np.ndarray:
    """P_L of each row of direct solutions p, computed exactly as
    ``stationary_solve(...).p_left`` computes it from the same solution."""
    p = np.where(p < 0.0, 0.0, p)
    totals = np.array([math.fsum(row) for row in p.tolist()])
    q = np.clip(p / totals[:, None], 0.0, 1.0)
    return np.array([math.fsum(row) for row in q[:, :n_left].tolist()])


def _finalize(p: np.ndarray, states) -> PopulationVector:
    p = np.where(p < 0.0, 0.0, p)
    return PopulationVector(probabilities=p / math.fsum(p), states=states)


def _initial_ground_right(m: RateMatrix) -> np.ndarray:
    try:
        idx = m.states.index(StateIndex(Well.RIGHT, 0))
    except ValueError:
        raise NonConvergent(
            "stationary system is singular and has no right-well ground state "
            "to relax from"
        ) from None
    p0 = np.zeros(len(m.states))
    p0[idx] = 1.0
    return p0


def _relax_to_stationary(mat: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """Implicit relaxation with geometrically growing steps until the
    populations stop moving.

    The relaxation ends once a step moves no population by more than
    _FALLBACK_STEP_TOL, whatever the generator's rate scale: a tolerance
    on the flow M p in GHz would accept a slow generator long before it
    settles.  At the longest step, 1e12 / max|M|, a step that moves more
    than half as much as the one before has stalled (roundoff shifting
    population between closed classes, or rates too slow to resolve),
    and the populations are returned as they are.
    """
    scale = np.max(np.abs(mat))
    if scale == 0.0:
        return p0
    eye = np.eye(mat.shape[0])
    dt, dt_max = 1.0 / scale, 1e12 / scale
    p, last = p0, np.inf
    for _ in range(_FALLBACK_MAX_STEPS):
        try:
            q = np.linalg.solve(eye - dt * mat, p)
        except np.linalg.LinAlgError as exc:
            raise StepRejected(f"implicit relaxation step failed: {exc}") from exc
        q = np.where(q < 0.0, 0.0, q)
        q = q / math.fsum(q)
        moved = np.max(np.abs(q - p))
        p = q
        if moved <= _FALLBACK_STEP_TOL or moved > 0.5 * last:
            return p
        last = moved if dt == dt_max else np.inf
        dt = min(2.0 * dt, dt_max)
    raise NonConvergent(
        "relaxation fallback did not reach a stationary population "
        f"(last step moved {moved:.3e})"
    )


def stationary_solve(m: RateMatrix) -> PopulationVector:
    """Stationary population distribution of a rate matrix.

    Solves the dense linear system directly (``stationary_stack`` on a
    stack of one); if that is singular or fails the acceptance check,
    relaxes in time from the right-well ground state instead.  A
    generator with two or more closed classes of states has no unique
    stationary state: the result is then one of several valid ones, and
    which one can turn on the last bit of a rate.
    """
    p, ok = stationary_stack(m.matrix[None])
    x = p[0] if ok[0] else _relax_to_stationary(m.matrix, _initial_ground_right(m))
    return _finalize(x, m.states)


def stationary_three_state(w_0r0l, w_0l1r, g_1r0r, g_0l0r):
    """Closed-form stationary populations (P_0R, P_0L, P_1R) of the
    minimal first-diamond system: a symmetric pumped channel 0R<->0L,
    a symmetric pumped channel 0L<->1R, decay 1R->0R, and decay 0L->0R.
    """
    a, b, g, h = (float(v) for v in (w_0r0l, w_0l1r, g_1r0r, g_0l0r))
    for v in (a, b, g, h):
        if not (math.isfinite(v) and v >= 0):
            raise ValidationError("rates must be >= 0 and finite")
    if a == b == g == h == 0.0:
        raise DegenerateSystem("all rates vanish; stationary state undetermined")
    den = 3.0 * a * b + 2.0 * a * g + b * g + b * h + g * h
    if den > 0.0:
        return ((a * b + a * g + b * g + b * h + g * h) / den, a * (b + g) / den, a * b / den)
    # Degenerate corners, resolved by relaxing from the 0R ground state.
    if a == 0.0:
        return (1.0, 0.0, 0.0)
    # a > 0 forces b = g = 0: plain two-state balance, 1R disconnected.
    return ((a + h) / (2.0 * a + h), a / (2.0 * a + h), 0.0)


def stationary_four_state(w_0r1l, w_0l1r, g_1r0r, g_0l0r, g_1l0l):
    """Closed-form stationary populations (P_0R, P_0L, P_1R, P_1L) of the
    minimal second-diamond system: symmetric pumping 0R<->1L and
    0L<->1R, decays 1R->0R, 0L->0R, and 1L->0L.
    """
    v, b, g, h, k = (float(x) for x in (w_0r1l, w_0l1r, g_1r0r, g_0l0r, g_1l0l))
    for r in (v, b, g, h, k):
        if not (math.isfinite(r) and r >= 0):
            raise ValidationError("rates must be >= 0 and finite")
    if v == b == g == h == k == 0.0:
        raise DegenerateSystem("all rates vanish; stationary state undetermined")
    if v == 0.0:
        return (1.0, 0.0, 0.0, 0.0)  # ground state is never pumped
    s = b * g + b * h + g * h
    den = (2.0 * v + k) * s + k * v * (2.0 * b + g)
    if den > 0.0:
        return ((v + k) * s / den, k * v * (b + g) / den, k * v * b / den, v * s / den)
    # Degenerate corners with v > 0, resolved by relaxing from 0R.
    if k == 0.0:
        return (0.5, 0.0, 0.0, 0.5)  # 0R<->1L equilibrate, left branch unreachable
    if h > 0.0:
        # Closed loop 0R -> 1L -> 0L -> 0R with b = g = 0.
        den = h * (2.0 * v + k) + k * v
        return (h * (v + k) / den, k * v / den, 0.0, h * v / den)
    return (0.0, 1.0, 0.0, 0.0)  # population funnels into the dead-end 0L


def time_evolve(
    m: RateMatrix, p0: PopulationVector, t_final: float, dt: float
) -> PopulationVector:
    """Integrate dP/dt = M P with backward Euler steps of size dt (ns).

    The implicit update is positivity preserving for any step size, and
    the population is renormalized after every step.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValidationError("dt must be positive and finite")
    if not (math.isfinite(t_final) and t_final >= 0):
        raise ValidationError("t_final must be >= 0 and finite")
    if tuple(p0.states) != tuple(m.states):
        raise ValidationError("population vector states do not match the matrix")
    if t_final == 0.0:
        return p0
    mat = m.matrix
    eye = np.eye(mat.shape[0])
    n_full, remainder = divmod(t_final, dt)
    steps = [dt] * int(n_full)
    if remainder > 1e-12 * dt:
        steps.append(remainder)
    p = p0.probabilities.copy()
    step_matrix = {}
    for h in steps:
        if h not in step_matrix:
            step_matrix[h] = eye - h * mat
        try:
            q = np.linalg.solve(step_matrix[h], p)
        except np.linalg.LinAlgError as exc:
            raise StepRejected(f"implicit step of {h} ns failed: {exc}") from exc
        if not np.all(np.isfinite(q)):
            raise StepRejected(f"implicit step of {h} ns produced non-finite values")
        q = np.where(q < 0.0, 0.0, q)
        p = q / math.fsum(q)
    return PopulationVector(probabilities=p, states=m.states)
