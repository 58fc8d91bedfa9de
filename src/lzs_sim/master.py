"""Population rate equations: matrix assembly and stationary solutions.

Each pumped crossing contributes a symmetric pair of transition rates
(the same W in both directions), relaxation contributes one-way decay
channels, and the optional leak state collects pumping into above-
threshold levels and returns population to the two ground states with
equal branching.  The resulting generator has nonnegative off-diagonal
entries and (up to roundoff) zero column sums, so probability is
conserved and stationary states exist.

Stationary states come from Grassmann-Taksar-Heyman state reduction
(Oper. Res. 33, 1107, 1985) on the generator's off-diagonal pattern
(``GTHPlan``): subtraction-free, so each probability is accurate to a
few roundoffs relative to itself (O'Cinneide, Numer. Math. 65, 109,
1993) once the arithmetic stays in the normal floating-point range,
vectorised over any number of points that share the pattern.  One
reduction solves each point, its rates first lifted by the power of
two, exact, that brings the largest to 2**t where it lies below, with
t = 423 - 2 b for b the bit length of the state count (2**413 for 21
states, at least 2**299 below 2**62 states), so the products of tiny
rates keep 2**(t + 1022) of normal range below it.  The acceptance
check is normwise, ||M q||_inf against ||M||_inf, so it can pass a
wrong answer: where a point is not lifted, back-substitution's
rescales can take to 0 a population that a state solved later needs
(``GTHPlan``).
With several closed classes of states the same reduction gives the
probabilities of absorption into each from the right-well ground state
0R, and the stationary state is the one reached from 0R.
``solve_points`` solves each point on the plan of its own nonzero
entries; ``stationary_solve`` calls it on a block of one and the map
sweep on blocks of rows.  The reduction's sums, the acceptance check's
sum of q and the well populations are all ``rates._chain``, the ordered
sum the photon sums use; ``_sum_into`` adds grouped terms in the same
term order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergent, ValidationError, _number
from .model import (
    DriveParams, QubitModel, StateIndex, Well, _frozen, _rebuilt, crossing_position,
)
from .rates import RateKernelParams, _chain, lzs_rate

__all__ = [
    "RateMatrix",
    "PopulationVector",
    "build_rate_matrix",
    "stationary_solve",
]

_RESIDUAL_REL = 1e-10
# Simplex tolerances of PopulationVector, PopulationMap and the acceptance check.
_NEGATIVITY_TOL = 1e-12
_EXCESS_TOL = 1e-9
# Back-substitution rescales a point's unnormalized vector before an
# entry would pass this.
_RESCALE_ABOVE = 2.0**600


def _lift_exponent(values: np.ndarray, n: int) -> np.ndarray:
    """Per point (column) of values, the power of two that brings its
    largest rate into [2**(t - 1), 2**t), with t = 423 - 2 b and b the
    bit length of the state count n: t minus ``np.frexp``'s exponent of
    that rate.  The solve lifts a point by it, where it is positive, and
    the acceptance check lowers one by it, where it is negative.  As
    n < 2**b, back-substitution's inflow, below n**2 * 2**600 * 2**t,
    stays below 2**1023, and t is at least 299 for n < 2**62."""
    return 423 - 2 * n.bit_length() - np.frexp(np.max(values, axis=0, initial=0.0))[1]


def _state_list(states) -> tuple[StateIndex, ...]:
    """states as a tuple, if they are a tuple or list of at least one
    state, each a distinct StateIndex; anything else raises
    ValidationError."""
    if not (
        isinstance(states, (tuple, list)) and states
        and all(isinstance(s, StateIndex) for s in states) and len(set(states)) == len(states)
    ):
        raise ValidationError("states must be at least one state, each a distinct StateIndex")
    return tuple(states)


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator M of the population dynamics dP/dt = M P.

    M[a, b] is the total rate from state b into state a (a != b); the
    diagonal holds minus the column's outflow so columns sum to zero.

    ``matrix`` is a float copy that cannot be made writeable: a write, or
    ``setflags(write=True)`` on it or on any view of it, raises
    ``ValueError``.  ``np.array(m.matrix)`` gives a writeable copy.  A
    ``pickle`` round trip, ``copy.copy`` or ``copy.deepcopy`` rebuilds
    through the constructor, so the copy is checked and frozen as the
    original was.  Rate matrices compare and hash by identity.
    """

    matrix: np.ndarray
    states: tuple[StateIndex, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", _state_list(self.states))
        n = len(self.states)
        mat = _frozen(self.matrix, (n, n), "rate matrix")
        if np.any(mat[~np.eye(n, dtype=bool)] < 0):
            raise ValidationError("off-diagonal rates must be >= 0")
        scale = np.max(np.abs(mat))
        if np.max(np.abs(mat.sum(axis=0))) > 64 * np.finfo(float).eps * max(scale, 1.0) * n:
            raise ValidationError("column sums must vanish (probability conservation)")
        object.__setattr__(self, "matrix", mat)

    __reduce__ = _rebuilt


def _well_population(q: np.ndarray) -> np.ndarray:
    """A well's population from its states' probabilities q (states
    along the first axis): their ``_chain`` sum in state order, at most
    1, since a well holding nearly everything can sum to 1 + 2**-52.
    ``p_left`` and the map take P_L by this one rule."""
    return np.minimum(_chain(q), 1.0)


def _simplex(values, shape, what: str, message: str) -> np.ndarray:
    """values frozen by ``_frozen(values, shape, what)`` and clipped to
    [0, 1].  An entry below -1e-12 or above 1 + 1e-9 raises
    ValidationError(message).  The clip is frozen as a second copy only
    when some entry lies outside [0, 1]: ``np.clip`` keeps every entry
    inside, -0.0 included, so a map in range is stored once.
    PopulationVector and PopulationMap store their probabilities by this
    one rule."""
    p = _frozen(values, shape, what)
    if np.any(p < -_NEGATIVITY_TOL) or np.any(p > 1.0 + _EXCESS_TOL):
        raise ValidationError(message)
    if np.any(p < 0.0) or np.any(p > 1.0):
        p = _frozen(np.clip(p, 0.0, 1.0), shape, what)
    return p


@dataclass(frozen=True, eq=False)
class PopulationVector:
    """Probabilities over the flat state list; entries sum to one.

    ``probabilities`` is a float copy, clipped to [0, 1], that cannot be
    made writeable: a write, or ``setflags(write=True)`` on it or on any
    view of it, raises ``ValueError``.  ``np.array(p.probabilities)``
    gives a writeable copy.  A ``pickle`` round trip, ``copy.copy`` or
    ``copy.deepcopy`` rebuilds through the constructor, so the copy is
    checked and frozen as the original was.  Population vectors compare
    and hash by identity.
    """

    probabilities: np.ndarray
    states: tuple[StateIndex, ...]

    def __post_init__(self):
        object.__setattr__(self, "states", _state_list(self.states))
        # The sum is checked on the clipped copy, the one stored, so a
        # stored vector passes this constructor again.
        shape, message = (len(self.states),), "probabilities must lie in [0, 1]"
        p = _simplex(self.probabilities, shape, "probability vector", message)
        total = math.fsum(p)
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"probabilities must sum to 1, got {total!r}")
        object.__setattr__(self, "probabilities", p)

    __reduce__ = _rebuilt

    def _well_sum(self, well: Well) -> float:
        return float(_well_population(self.probabilities[[s.well is well for s in self.states]]))

    @property
    def p_left(self) -> float:
        return self._well_sum(Well.LEFT)

    @property
    def p_right(self) -> float:
        return self._well_sum(Well.RIGHT)

    @property
    def p_leak(self) -> float:
        return self._well_sum(Well.LEAK)


def _generator_layout(model: QubitModel):
    """The drive-independent part of a model's generator, in pattern form.

    Returns (rows, cols, static, deltas, positions, pumped): the entries
    M[rows[e], cols[e]] that are nonzero at some working point, in
    row-major order, with static[e] the entry's relaxation, interwell
    decay and leak return; then three columns with one item per pumped
    crossing, in ``coupled_pairs`` order: its size, its position and the
    list of entries it pumps.  At detuning eps crossing c's rate,
    ``lzs_rate(deltas[c], eps - positions[c])``, adds to each entry of
    pumped[c], one crossing after another.  Without a leak a crossing
    pumps both ways.  With one, a crossing whose partner level is at or
    above the threshold pumps its below-threshold side into the leak
    (the last state), and one with both partners above pumps nothing.
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
    pattern = static != 0.0
    deltas, positions, pumped_targets = [], [], []
    for i, j, delta in model.coupled_pairs():
        left_local = threshold is None or i < threshold
        right_local = threshold is None or j < threshold
        if left_local and right_local:
            targets = ((nl + j, i), (i, nl + j))  # (to, from) pairs
        elif left_local or right_local:
            targets = ((n - 1, i if left_local else nl + j),)
        else:
            continue  # both partners non-local: no localized channel
        for target in targets:
            pattern[target] = True
        deltas.append(delta)
        positions.append(crossing_position(model, i, j))
        pumped_targets.append(targets)
    rows, cols = np.nonzero(pattern)
    entry = np.cumsum(pattern).reshape(n, n) - 1  # entry[to, from]: its index in the pattern
    pumped = [[entry[t] for t in targets] for targets in pumped_targets]
    return rows, cols, static[rows, cols], deltas, positions, pumped


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
    eps = _number(eps, "eps must be finite")
    rows, cols, values, deltas, positions, pumped = _generator_layout(model)
    states = model.states()
    mat = np.zeros((len(states), len(states)))
    # An entry or outflow that overflows is inf, for RateMatrix to reject.
    with np.errstate(over="ignore"):
        for delta, position, entries in zip(deltas, positions, pumped):
            values[entries] += lzs_rate(delta, eps - position, drive, kernel)
        mat[rows, cols] = values
        np.fill_diagonal(mat, -mat.sum(axis=0))
    return RateMatrix(matrix=mat, states=states)


def _ranks(groups):
    """Index pairs (terms, their groups) that sum terms into groups[t] in
    term order, one pair per rank: the r-th pair holds each group's r-th
    term, so no group repeats within a pair and each is one fancy add."""
    seen, ranks = {}, []
    for t, g in enumerate(groups):
        r = seen[g] = seen.get(g, -1) + 1
        if r == len(ranks):
            ranks.append(([], []))
        ranks[r][0].append(t)
        ranks[r][1].append(g)
    return [(np.array(t, dtype=np.intp), np.array(g, dtype=np.intp)) for t, g in ranks]


def _sum_into(terms: np.ndarray, ranks, n: int) -> np.ndarray:
    """Sums of terms into n groups by ``_ranks``, each group's terms added
    in order."""
    total = np.zeros((n,) + terms.shape[1:])
    for t, g in ranks:
        total[g] += terms[t]
    return total


def _closed_classes(rows, cols, n: int) -> list[list[int]]:
    """The closed classes of the graph on n states with an edge from
    cols[e] to rows[e] for each e, each sorted, in order of their lowest
    state.  reach[s, t], whether s reaches t, is Warshall's transitive
    closure (J. ACM 9, 11, 1962) of the edges and the identity."""
    reach = np.eye(n, dtype=bool)
    reach[cols, rows] = True
    for k in range(n):
        reach |= reach[:, k, None] & reach[k]
    # s is the lowest state of a closed class, its row of reach, when it
    # reaches no lower state and every state it reaches reaches it back.
    return [
        np.flatnonzero(r).tolist() for s, r in enumerate(reach)
        if not r[:s].any() and (r <= reach[:, s]).all()
    ]


class GTHPlan:
    """Stationary solves of generators that share one off-diagonal
    pattern, by Grassmann-Taksar-Heyman state reduction vectorised over
    points.

    The pattern lists the entries M[rows[e], cols[e]], each the rate from
    state cols[e] into state rows[e], in row-major order; ``solve`` takes
    their values as an (entries, points) array.  The plan depends on the
    pattern and start alone.  Each closed class of the pattern keeps its
    highest state, its root.  With several classes the populations are
    the ones reached from the state start (0R): a transient start is kept
    as well, and its reduced flow into each root gives the probabilities
    of absorption into each class (Kemeny and Snell, Finite Markov
    Chains, ch. III); a start inside a class puts everything there.  All
    other states are eliminated in min-Markowitz order (fewest in x out
    edges among the states left, ties to the lower index), and the fill
    each elimination creates gets a slot of its own.  Each class's vector
    is normalized on its own and weighted by its absorption probability;
    transient states come out as exactly 0.  The reduction never
    subtracts, and runs once per point on its rates lifted by a power of
    two (``solve``).  A point where some state's outflow to the states
    left is exactly 0 (a zero rate cuts its own graph apart) is rejected;
    solve such a point on the plan of its own nonzero entries
    (``solve_points``).
    Elimination divides only a state's outgoing rates by its outflow, so
    every quotient lies in [0, 1] and none overflows, however small the
    outflow; back-substitution divides each state's inflow by its stored
    outflow, and scales the point's unnormalized vector by 2**-600 before
    an entry would pass 2**600, which keeps it finite.  A rescale can
    underflow a small entry to 0, and a state fed only through it then
    comes out 0 too, yet the normwise check (``accepts``) passes: on
    the states (0L, 1L, 0R, 1R), the ring 0L -> 1R -> 1L -> 0R -> 0L
    with rates 1e204, 1e221, 1e-152 and 1e-148 gives q = (0, 0, 1, 0),
    where about (0, 0.9999, 1e-4, 0) is right.

    Every sum is a fixed chain of elementwise adds, so a point's bits
    depend neither on the other points of its block nor on BLAS.
    """

    def __init__(self, rows, cols, n: int, start: int | None = None):
        self.rows = np.asarray(rows, dtype=np.intp)
        self.cols = np.asarray(cols, dtype=np.intp)
        self.n = n
        slot = {(int(f), int(t)): e for e, (t, f) in enumerate(zip(self.rows, self.cols))}
        out = [set() for _ in range(n)]
        into = [set() for _ in range(n)]
        for f, t in slot:
            out[f].add(t)
            into[t].add(f)
        self.classes = _closed_classes(self.rows, self.cols, n)
        self.roots = [c[-1] for c in self.classes]
        # All weight on the only class or on start's class.  Several
        # classes and no start give none, so every point fails the check.
        self.weights = np.array(
            [[len(self.classes) == 1 or start in c] for c in self.classes], dtype=float
        )
        transient_start = start is not None and not self.weights.any()
        kept = set(self.roots)
        if transient_start:
            kept.add(start)
        steps = []
        left = set(range(n)) - kept
        while left:
            k = min(left, key=lambda s: (len(into[s]) * len(out[s]), s))
            ins, outs = sorted(into[k]), sorted(out[k])
            update = []
            for i in ins:
                for j in outs:
                    if i != j:
                        if (i, j) not in slot:
                            slot[i, j] = len(slot)
                            out[i].add(j)
                            into[j].add(i)
                        update.append((slot[i, j], slot[i, k], slot[k, j]))
            steps.append((
                k,
                np.array([slot[k, j] for j in outs], dtype=np.intp),
                np.array(ins, dtype=np.intp),
                np.array([slot[i, k] for i in ins], dtype=np.intp),
                np.array(update, dtype=np.intp).reshape(-1, 3).T,
            ))
            for i in ins:
                out[i].discard(k)
            for j in outs:
                into[j].discard(k)
            left.discard(k)
        self.steps = steps
        # Start's reduced flow into each root, a zero slot where it has none.
        self.absorb = (
            np.array([slot.setdefault((start, r), len(slot)) for r in self.roots])
            if transient_start else None
        )
        self.n_slots = len(slot)
        self._by_row = _ranks(self.rows.tolist())
        self._by_col = _ranks(self.cols.tolist())

    def solve(self, values: np.ndarray):
        """Stationary populations q (n, points) of the generators whose
        pattern entries are values (entries, points), and ok (points,):
        whether each point passes the acceptance check (``accepts``) and
        had no zero outflow.  Points not ok are left to the caller.

        One reduction solves every point, with each point's rates first
        lifted by the power of two that brings the largest into
        [2**(t - 1), 2**t), where it lies below, with t = 423 - 2 b for b
        the bit length of n (``_lift_exponent``).  Every sum, product and
        quotient of the reduction scales exactly with a power of two, so
        the populations keep their bits wherever no step leaves the
        normal range, and the lift leaves 2**(t + 1022) of that range
        below the largest rate for the products of tiny rates that fill
        forms: a generator whose rates are all subnormal is solved as
        well as the same one at normal rates.  A point whose largest
        rate lies above 2**t is reduced at its own scale, so a fill of
        two tiny rates there can still underflow to a zero outflow."""
        q, blocked = self._reduce(values)
        return q, ~blocked & self.accepts(values, q)

    def _reduce(self, values: np.ndarray):
        """The state reduction of ``solve``: populations q (n, points)
        and blocked (points,), whether some outflow was 0."""
        n_points = values.shape[1]
        v = np.zeros((self.n_slots, n_points))
        blocked = np.zeros(n_points, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            v[: values.shape[0]] = np.ldexp(values, np.maximum(_lift_exponent(values, self.n), 0))
            outflows = np.empty((len(self.steps), n_points))
            for s, (_, out_slots, _, _, (dst, via_in, via_out)) in enumerate(self.steps):
                outflow = outflows[s] = _chain(v[out_slots])
                blocked |= outflow == 0.0
                v[out_slots] /= outflow
                v[dst] += v[via_in] * v[via_out]
            pi = np.zeros((self.n, n_points))
            pi[self.roots] = 1.0
            for s in reversed(range(len(self.steps))):
                k, _, ins, in_slots, _ = self.steps[s]
                inflow, outflow = _chain(pi[ins] * v[in_slots]), outflows[s]
                # inflow / outflow < 2**2098, so three rescales bring it
                # below 2**600.
                for _ in range(3):
                    big = inflow > outflow * _RESCALE_ABOVE
                    if not big.any():
                        break
                    pi[:, big] *= 1.0 / _RESCALE_ABOVE
                    inflow[big] *= 1.0 / _RESCALE_ABOVE
                pi[k] = inflow / outflow
            weights = self.weights
            if self.absorb is not None:
                flow = v[self.absorb]
                total = _chain(flow)
                blocked |= total == 0.0
                weights = flow / total
            q = np.zeros((self.n, n_points))
            for c, a in zip(self.classes, weights):
                q[c] = a * (pi[c] / _chain(pi[c]))
        return q, blocked

    def accepts(self, values: np.ndarray, q: np.ndarray) -> np.ndarray:
        """The acceptance check of populations q (n, points) against the
        generators of values (entries, points): every column's outflow
        finite, q finite, q >= -1e-12, |sum(q) - 1| <= 1e-9 and
        ||M q||_inf <= 1e-10 ||M||_inf, with M q and ||M||_inf taken over
        the pattern and the diagonal.

        The outflows are summed in row order, as ``RateMatrix`` sums its
        diagonal.  Rates are >= 0 or nan, so an entry that is not finite
        makes its column's outflow not finite too: a point passes only
        where every entry of its ``RateMatrix`` is finite.  M q and
        ||M||_inf are taken with a point's rates lowered by the power of
        two that brings the largest into [2**(t - 1), 2**t), where it
        lies above (``_lift_exponent``), so that the bound cannot
        overflow to inf.  The check is normwise: it does not see a small
        population lost to a rescale (see the class docstring)."""
        with np.errstate(invalid="ignore", over="ignore"):
            finite = np.isfinite(_sum_into(values, self._by_col, self.n)).all(axis=0)
            values = np.ldexp(values, np.minimum(_lift_exponent(values, self.n), 0))
            diag = -_sum_into(values, self._by_col, self.n)
            flow = _sum_into(values * q[self.cols], self._by_row, self.n) + diag * q
            # Rates are >= 0, so the row sums of |M| need no abs.
            scale = _sum_into(values, self._by_row, self.n) - diag
            bound = _RESIDUAL_REL * np.maximum(scale.max(axis=0), 1e-300)
            return (
                finite
                & np.isfinite(q).all(axis=0)
                & (q.min(axis=0) >= -_NEGATIVITY_TOL)
                & (np.abs(flow).max(axis=0) <= bound)
                & (np.abs(_chain(q) - 1.0) <= _EXCESS_TOL)
            )


_GROUND_RIGHT = StateIndex(Well.RIGHT, 0)


def stationary_solve(m: RateMatrix) -> PopulationVector:
    """Stationary population distribution of a rate matrix.

    The map's engine on a block of one (``solve_points`` over every
    off-diagonal entry), under the same acceptance check, so a map value
    equals this point's answer bit for bit.  With several closed classes
    of states the answer is the one reached from the right-well ground
    state 0R: each class's stationary vector, weighted by the probability
    of absorption into it from 0R.  Raises NonConvergent if the point
    fails the check, or has several closed classes and no 0R state.
    """
    n = len(m.states)
    start = m.states.index(_GROUND_RIGHT) if _GROUND_RIGHT in m.states else None
    rows, cols = np.nonzero(~np.eye(n, dtype=bool))
    q, ok = solve_points(rows, cols, n, start, m.matrix[rows, cols][:, None])
    if not ok[0]:
        raise NonConvergent("stationary solve failed the acceptance check")
    return PopulationVector(probabilities=q[:, 0], states=m.states)


def solve_points(rows, cols, n: int, start, values: np.ndarray):
    """Stationary populations q (n, points) and ok (points,), as
    ``GTHPlan.solve`` gives them, of the generators whose entries
    M[rows[e], cols[e]] are values (entries, points), each point solved
    on the plan of its own nonzero entries with start as 0R.

    Points that share a pattern are solved in one call, so a point's
    bits depend only on its own values.  The plans are cached per
    pattern.
    """
    nonzero = values != 0.0

    def plan_of(point):
        keep = np.flatnonzero(nonzero[:, point])
        return keep, _pattern_plan(tuple(rows[keep].tolist()), tuple(cols[keep].tolist()), n, start)

    # One pattern, as in every block of a map whose rates do not underflow
    # and at every single point: these skip the sort that grouping costs.
    if (nonzero == nonzero[:, :1]).all():
        keep, plan = plan_of(0)
        return plan.solve(values if keep.size == len(values) else values[keep])
    keys = np.packbits(nonzero, axis=0).T.copy()
    keys = keys.view(f"V{keys.shape[1]}").ravel()
    _, first, group = np.unique(keys, return_index=True, return_inverse=True)
    q = np.empty((n, values.shape[1]))
    ok = np.empty(values.shape[1], dtype=bool)
    for p, point in enumerate(first.tolist()):
        points = np.flatnonzero(group == p)
        keep, plan = plan_of(point)
        q[:, points], ok[points] = plan.solve(values[np.ix_(keep, points)])
    return q, ok


@functools.lru_cache(maxsize=128)
def _pattern_plan(rows: tuple, cols: tuple, n: int, start) -> GTHPlan:
    """The GTHPlan of one pattern, planned once per pattern."""
    return GTHPlan(rows, cols, n, start)
