"""Adaptive mirror-descent engine for convex programs with functional constraints.

Each iteration classifies the current iterate: if every constraint is within
epsilon the step is *productive* and descends on the objective, otherwise it
is *non-productive* and descends on one violated constraint chosen by the
configured policy.  Step sizes adapt to the observed subgradient dual norms;
no Lipschitz constants are supplied.  Two regimes are available:

* ``Regime.LIPSCHITZ`` assumes a Lipschitz objective.  Both step kinds use
  h = eps / ||s||^2 and the run stops once sum(1 / ||s_j||^2) over all steps
  reaches 2 * theta0^2 / eps^2.  The output is the step-size-weighted average
  of the productive iterates.
* ``Regime.NONSTANDARD`` drops objective Lipschitz continuity (covering e.g.
  quadratic growth).  Productive steps use h = eps / ||grad f||, stopping
  counts productive steps with weight 1, and the output is the productive
  iterate with the smallest objective value.
"""

from __future__ import annotations

import math
import time
from operator import sub
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .geometry import Array, EuclideanBall, EuclideanSpace, ProxGeometry, as_vector
from .problems import (EvaluationError, MaxOracle, Oracle, OracleBank,
                       ProblemInstance)

__all__ = [
    "Regime",
    "Policy",
    "StopReason",
    "StepKind",
    "RunConfig",
    "StepRecord",
    "SolverReport",
    "run",
    "vf_gap",
    "iteration_bound",
    "corollary_bound",
]


class Regime(Enum):
    LIPSCHITZ = "lipschitz"
    NONSTANDARD = "nonstandard"


class Policy(Enum):
    AGGREGATE_MAX = "aggregate-max"
    FIRST_VIOLATED = "first-violated"
    MAX_VIOLATION = "max-violation"
    MIN_DUAL_NORM = "min-dual-norm"


class StopReason(Enum):
    CRITERION_MET = "criterion-met"
    ZERO_OBJECTIVE_GRADIENT = "zero-objective-gradient"
    INFEASIBLE_CONSTRAINT = "infeasible-constraint"
    ITERATION_CAP = "iteration-cap"


class StepKind(Enum):
    PRODUCTIVE = "productive"
    NONPRODUCTIVE = "nonproductive"


@dataclass(frozen=True)
class RunConfig:
    """Solver settings.

    Parameters
    ----------
    epsilon : float
        Target accuracy, positive.
    regime : Regime
        Step-size and stopping regime.
    policy : Policy
        Which violated constraint a non-productive step descends on.
    max_iterations : int
        Safety cap; reaching it is reported, not raised.
    record_history : bool
        Store one :class:`StepRecord` per step (including the iterate), for
        inspection only: no report field or verification check reads it.
        The ``point`` of a batched non-productive step (see :func:`run`) is
        a row view into one block holding the iterates its batch took.
    """

    epsilon: float
    regime: Regime = Regime.LIPSCHITZ
    policy: Policy = Policy.FIRST_VIOLATED
    max_iterations: int = 10_000_000
    record_history: bool = False

    def __post_init__(self) -> None:
        eps = float(self.epsilon)
        if not (math.isfinite(eps) and eps > 0.0 and eps * eps > 0.0):  # eps^2 divides
            raise ValueError("epsilon must be finite, positive, its square nonzero")
        object.__setattr__(self, "epsilon", eps)
        object.__setattr__(self, "regime", Regime(self.regime))
        object.__setattr__(self, "policy", Policy(self.policy))
        cap = self.max_iterations
        try:
            integral = cap == int(cap)
        except (OverflowError, ValueError):  # inf, nan
            integral = False
        if not integral or cap < 1:
            raise ValueError("max_iterations must be an integer, at least 1")
        object.__setattr__(self, "max_iterations", int(cap))


@dataclass(slots=True)
class StepRecord:
    """One solver step.

    ``constraint_index`` is 1-based and set on non-productive steps only;
    ``objective_value`` is set on productive steps only.  ``point`` is the
    iterate the step was taken from, stored only when history is recorded.
    """

    index: int
    kind: StepKind
    step_size: float
    grad_dual_norm: float
    constraint_index: int | None = None
    objective_value: float | None = None
    point: Array | None = None


@dataclass
class SolverReport:
    """Outcome of one solver run.

    ``certificate`` is min <s_k, x_k - x*> / ||s_k||_* over the productive
    iterates and an exact solution the run stops at (gap 0), inf if none,
    against the known optimum point x*; None in the Lipschitz regime or
    without a known optimum.
    """

    total_steps: int
    productive_count: int
    nonproductive_count: int
    output_point: Array
    output_objective: float
    output_max_violation: float
    stop_reason: StopReason
    a_priori_bound: int | None
    wall_time: float
    config: RunConfig
    history: list[StepRecord] | None = None
    certificate: float | None = None

    @property
    def converged(self) -> bool:
        return self.stop_reason in (
            StopReason.CRITERION_MET,
            StopReason.ZERO_OBJECTIVE_GRADIENT,
        )


def _sources(bank: OracleBank, dual: Callable[[Array], float], tabled: bool):
    """A bank's scan ``x -> (values, argmax, max)`` and row source
    ``(i, x) -> (i, subgradient, dual norm)``.

    Where ``tabled``, the bank is stacked: each member is affine, with a
    constant subgradient a, so its row ``(i, a, dual norm of a)`` is a
    constant of the run, tabled once.  The scan is then one matrix-vector
    product into a preallocated buffer, checked as ``OracleBank.values``
    checks it, and the row is a lookup; both are bit for bit what the
    oracle and dual-norm calls return.  Otherwise the scan is
    ``bank.values`` and the row calls the member and the dual norm.
    """
    if not tabled:
        values, sub = bank.values, bank.subgradient

        def scan(x: Array):
            vals = values(x)
            i = int(vals.argmax())
            return vals, i, vals.item(i)

        def row(i: int, x: Array):
            s = sub(i, x)
            return i, s, dual(s)

        return scan, row

    matrix, offsets = bank._matrix, bank._offsets
    rows = [(i, member.a, dual(member.a)) for i, member in enumerate(bank.oracles)]
    vals = np.empty(matrix.shape[0])
    argmax, argmin, item = vals.argmax, vals.argmin, vals.item
    dot, add, isfinite = np.dot, np.add, math.isfinite

    def scan(x: Array):
        dot(matrix, x, out=vals)
        add(vals, offsets, out=vals)
        i = argmax()
        high = item(i)
        # As in OracleBank.values: a finite argmin entry rules out NaN and
        # -inf, a finite argmax entry +inf.
        if not (isfinite(high) and isfinite(item(argmin()))):
            raise EvaluationError("oracle produced a non-finite value")
        return vals, i, high

    return scan, lambda i, x: rows[i]


def _make_selector(scan: Callable, row: Callable, epsilon: float,
                   policy: Policy) -> Callable[[Array], tuple | None]:
    """Build the per-iteration constraint choice for one policy.

    The returned callable maps an iterate to ``None`` (no constraint above
    epsilon, step is productive) or the ``row`` of the constraint the step
    descends on.  ``scan`` and ``row`` are a bank's, from ``_sources``.
    """
    if policy is Policy.FIRST_VIOLATED:

        def select(x: Array):
            vals, _, high = scan(x)
            if high <= epsilon:
                return None
            return row(int((vals > epsilon).argmax()), x)

    elif policy is Policy.MIN_DUAL_NORM:

        def select(x: Array):
            vals, _, high = scan(x)
            if high <= epsilon:
                return None
            best = None
            for i in np.flatnonzero(vals > epsilon).tolist():
                candidate = row(i, x)
                if not math.isfinite(candidate[2]):
                    raise EvaluationError(
                        "constraint produced a non-finite subgradient")
                if best is None or candidate[2] < best[2]:
                    best = candidate
            return best

    else:  # aggregate-max and max-violation descend on the argmax

        def select(x: Array):
            _, i, high = scan(x)
            if high <= epsilon:
                return None
            return row(i, x)

    return select


# Float budget of one batch's (rows x max(n, M)) arrays, which bounds memory.
_BLOCK_FLOATS = 1 << 14
# Below this bound on |A| @ |x| + |b|, sixteen times under the largest float,
# no summation order of a constraint value overflows.
_HUGE = 2.0 ** 1020


# Instance attributes that replace a method a stepwise run calls.  Where one
# is set (perfbench's tracer sets them all), the run takes no table lookup,
# so each ordinary step makes every call a traced pass counts.
_HOOKS = ("mirror_step", "dual_norm", "values", "subgradient",
          "value_and_subgradient")


def _hooked(*objects: object) -> bool:
    return any(name in vars(o) for o in objects for name in _HOOKS)


class _AffineRuns:
    """Batched steps x - q, q tabled, on an exact Euclidean space: runs of
    non-productive steps on one constraint and, given a max of stacked
    affine ``pieces``, of productive steps on predicted pieces.

    ``np.cumsum`` builds a batch's iterates by the same subtractions as the
    stepwise ``x - h * p``, so they are bitwise its iterates.  One matrix
    product gives their constraint and piece values.  A row is committed
    only while the stepwise engine provably takes its step there: each
    comparison it makes holds with a margin above the rounding bound
    ``gamma * (|A| @ r + |b|)``, where r bounds |x| over the batch, so no
    summation order of the stepwise matrix-vector product decides otherwise.
    """

    def __init__(self, bank: OracleBank, config: RunConfig,
                 pieces: OracleBank | None = None, piece_row: Callable | None = None) -> None:
        self.first_violated = config.policy is Policy.FIRST_VIOLATED
        self.epsilon = eps = config.epsilon
        self.a = bank._matrix
        self.b = bank._offsets
        m, n = bank._matrix.shape
        # The rows ``advance`` evaluates: the constraints, then the pieces.
        banks = [bank] if pieces is None else [bank, pieces]
        self.stack = np.vstack([o._matrix for o in banks])
        self.offsets, self.m = np.concatenate([o._offsets for o in banks]), m
        self.abs_a = np.abs(self.stack)
        # The smallest normal float covers underflow in the products.
        self.abs_b = np.abs(self.offsets) + np.finfo(float).tiny
        # Four times the bound 2 * gamma_(n+1) on two summation orders'
        # difference, which also absorbs the rounding of r and the margins.
        self.gamma = 4.0 * (n + 2) * np.finfo(float).eps
        self.max_rows = max(1, _BLOCK_FLOATS // max(n, self.offsets.shape[0]))
        self.tables: dict[int, tuple] = {}
        # A productive batch asks for twice the rows the last took, plus two;
        # after batches of under two rows, 0, 1, 3, ... steps pass idle.
        self.ask, self.idle, self.backoff, self.pieces = self.max_rows, 0, 0, pieces
        if pieces is None:
            return
        # A step on piece l is x - q_l, q_l = h_l c_l, and lowers piece j by
        # c_j . q_l; h_l and 1 / ||c_l||^2 come from the tabled dual norm.  A
        # zero or non-finite norm ends a prediction before its piece.
        c = pieces._matrix
        norms = np.array([piece_row(l, None)[2] for l in range(c.shape[0])])
        with np.errstate(all="ignore"):  # a zero or overflowing piece: inf, NaN
            self.ends = (~(np.isfinite(norms) & (norms * norms > 0.0))).tolist()
            self.h, self.weights = eps / (norms * norms), 1.0 / (norms * norms)
            self.q = np.where(np.array(self.ends)[:, None], 0.0, self.h[:, None] * c)
            self.drops = (c @ self.q.T).T.tolist()
        self.abs_q = np.abs(self.q).max(axis=0)
        # Twin pieces take bitwise the same step: the argmax may pick either.
        bits = c.view(np.uint64)
        self.same = (bits[:, None] == bits[None]).all(axis=2) & (norms[:, None] == norms)

    def length(self, x: Array, i: int) -> float:
        """How many of x, x - q, x - 2q, ... the policy picks i at, in exact
        arithmetic: a number whose ceiling is the count, NaN if unknown.  A
        step lowers value j by q . a_j; the rows that can end i's run are the
        lower rows that rise (first-violated) or the rows that gain on i."""
        if i not in self.tables:
            a = self.a[i]
            with np.errstate(all="ignore"):  # a zero or overflowing row: NaN
                rates = self.a @ a / (a @ a) * self.epsilon
            closing = -rates[:i] if self.first_violated else rates[i] - rates
            ends = np.flatnonzero(closing > 0)
            self.tables[i] = rates[i], ends, closing[ends]
        own, ends, closing = self.tables[i]
        values = self.a @ x + self.b
        bound = self.epsilon if self.first_violated else values[i]
        return float(((bound - values[ends]) / closing).min(
            initial=(values[i] - self.epsilon) / own))

    def advance(self, x: Array, q: Array, i: int | Array, rows: int) -> tuple[Array, int]:
        """The block of iterates x, x - q, ..., x - rows*q (x - q[0], ... for
        a row per step, on pieces ``i``), and how many leading ones (at most
        ``rows``) provably select constraint ``i`` (are productive on i[k])."""
        block = np.empty((rows + 1, x.shape[0]))
        block[0] = x
        block[1:] = -q
        np.cumsum(block, axis=0, out=block)
        reach = np.abs(x) + rows * (self.abs_q if q.ndim == 2 else np.abs(q))
        bound = self.abs_a @ reach + self.abs_b
        if not (reach.max() < _HUGE and bound.max() < _HUGE):
            return block, 0  # NaN included: the stepwise engine decides
        slack = self.gamma * bound
        eps, m = self.epsilon, self.m
        values = block[:rows] @ self.stack.T + self.offsets
        if isinstance(i, np.ndarray):
            # All constraints at most eps; i[k] or its twin tops the pieces.
            ok = (values[:, :m] <= eps - slack[:m]).all(axis=1)
            low = values[np.arange(rows), m + i] - slack[m + i]
            values += slack
            pieces = values[:, m:]
            pieces[self.same[i]] = -math.inf
            ok &= low > pieces.max(axis=1)
        elif self.first_violated:
            ok = values[:, i] > eps + slack[i]
            if i:
                ok &= (values[:, :i] <= eps - slack[:i]).all(axis=1)
        else:
            # i is above epsilon and the argmax with the lowest index.
            low = values[:, i] - slack[i]
            values += slack
            values[:, i] = eps
            ok = low > values[:, :m].max(axis=1)
        return block, rows if ok.all() else int(ok.argmin())

    def produce(self, x: Array, rows: int, crit_sum: float, target: float,
                weighted: Array, weight_sum: float) -> tuple:
        """Batch up to ``rows`` productive steps from x, each on its predicted
        piece, that keep ``crit_sum`` below ``target``: their count, then x,
        ``crit_sum``, ``weighted`` and ``weight_sum`` after them."""
        if self.idle:
            self.idle -= 1
            return 0, x, crit_sum, weighted, weight_sum
        # Predict: the piece values in floats; ties go to the lowest index.
        values, labels = (self.stack @ x + self.offsets)[self.m:].tolist(), []
        for _ in range(min(rows, self.ask, self.max_rows)):
            l = values.index(max(values))
            if self.ends[l]:
                break
            labels.append(l)
            values = list(map(sub, values, self.drops[l]))
        labels = np.array(labels, dtype=np.intp)
        crit = np.concatenate(([crit_sum], self.weights[labels])).cumsum()
        labels = labels[:np.searchsorted(crit[1:], target)]
        rows = labels.shape[0]
        block, count = self.advance(x, self.q[labels], labels, rows)
        self.ask = 2 * count + 2
        self.backoff = 2 * self.backoff + 1 if count < 2 else 0
        self.idle = self.backoff // 2
        # Commit: the sums add the rows' terms one by one, in stepwise order.
        h = self.h[labels[:count]]
        weighted = np.vstack([weighted, h[:, None] * block[:count]]).cumsum(axis=0)
        weight_sum = np.concatenate(([weight_sum], h)).cumsum()
        return (count, block[count].copy(), float(crit[count]), weighted[count],
                float(weight_sum[count]))


class _BallTracker:
    """Constraint values tracked in O(M) per step on an exact Euclidean ball.

    A ball step is x' = c + t (x - h p - c), so A x' + b = (1 - t)(A c + b)
    + t (A x + b - h A p).  Where p is a tabled row (a constraint row or a
    max-affine piece), ``step`` updates the values v that way, the column
    ``A p`` computed once per row, and ``scan`` hands v to the selector in
    place of the stacked product when the decision is certified: ``e``
    bounds |v - (A x + b)| in exact arithmetic at the iterate x, and the
    product's rounding is at most a quarter of ``e0`` = gamma (rn R +
    max|b|), R a bound on ||x|| over the ball and rn on the rows' norms.
    With E = e + e0, every value more than E away from epsilon and, where
    one is above it, the largest more than 2E above the others, every
    policy sees the violated set and the argmax the product would give;
    the unused part of e0 covers the rounding of these comparisons.
    Anything else, or an iterate the tracker did not step to, takes the
    product and restarts v from it.

    Rounding per step, with u = eps_mach / 2 and L = h ||p|| the step
    length: the column is off by at most gamma rn ||p|| / 4, the step and
    the projection move x by O(u (R + L)) from their exact values, and each
    update of v rounds by O(u |v|).  So e grows by L ``slope``, slope =
    (gamma + 16u) rn, by ``base`` = 16u (rn R + max|b|), and by 8u e; a
    projection scales it by t and adds (1 - t) e0 for A c + b.  Steps with
    L max(rn, 1) past ``_HUGE`` are not tracked, so no update overflows and
    every tracked iterate is finite.
    """

    def __init__(self, bank: OracleBank, ball: EuclideanBall, scan: Callable,
                 rows: list[tuple], epsilon: float) -> None:
        matrix, offsets = bank._matrix, bank._offsets
        m, n = matrix.shape
        u = np.finfo(float).eps / 2.0
        gamma = 4.0 * (n + 2) * u
        # The rows' dual norms are their l2 norms, up to the rounding gamma covers.
        norms = [norm * (1.0 + gamma) for _, _, norm in rows]
        rn = max(norms[:m])
        center = ball.center
        with np.errstate(over="ignore", invalid="ignore"):  # overflow: not finite
            offset = ball.anchor - center
            reach = (math.sqrt(float(center @ center))
                     + max(ball.radius, math.sqrt(float(offset @ offset))))
            reach *= 1.0 + 2.0 * gamma
            top = rn * reach + float(np.abs(offsets).max())
            self.shift = matrix @ center + offsets  # A c + b
        # Below _HUGE no summation order of the product overflows.
        self.finite = top < _HUGE
        self.real, self.step_ball, self.epsilon = scan, ball.scaled_step, epsilon
        self.matrix = matrix
        self.e0 = gamma * (top + np.finfo(float).tiny)
        self.base = 16.0 * u * top
        self.grow = 1.0 + 8.0 * u
        self.slope = (gamma + 16.0 * u) * rn
        # [norm, column] per tabled row, by identity: the rows are constant
        # arrays the oracles hold for the run.  The column is computed on
        # the row's first step.  Rows whose column may overflow are left out.
        self.limit = _HUGE / max(rn, 1.0)
        self.columns = {id(p): [norm, None] for (_, p, _), norm in zip(rows, norms)
                        if norm < self.limit}
        self.values, self.work, self.gap = np.empty(m), np.empty(m), np.empty(m)
        self.x: Array | None = None
        self.e = math.inf

    def scan(self, x: Array):
        """The selector's scan at x: the tracked values where certified."""
        if x is self.x:
            v = self.values
            bound = self.e + self.e0
            i = v.argmax()
            high = v.item(i)
            gap = self.gap
            np.subtract(v, self.epsilon, out=gap)
            np.abs(gap, out=gap)
            if (math.isfinite(bound) and math.isfinite(high)
                    and math.isfinite(v.item(v.argmin())) and gap.min() > bound):
                if high <= self.epsilon:
                    return v, i, high
                v[i] = -math.inf
                second = v.max()
                v[i] = high
                if second < high - 2.0 * bound:
                    return v, i, high
        vals, i, high = self.real(x)
        np.copyto(self.values, vals)
        self.x, self.e = x, self.e0
        return vals, i, high

    def step(self, x: Array, p: Array, h: float) -> Array:
        """The ball's mirror step, with the values moved along."""
        x_new, t = self.step_ball(x, p, h)
        entry = self.columns.get(id(p)) if x is self.x else None
        if entry is None or not h * entry[0] < self.limit:
            self.x = None
            return x_new
        norm, g = entry
        if g is None:
            g = entry[1] = self.matrix @ p
        v, work = self.values, self.work
        np.multiply(g, h, out=work)
        np.subtract(v, work, out=v)
        e = self.e * self.grow + h * norm * self.slope
        if t != 1.0:
            np.multiply(v, t, out=v)
            np.multiply(self.shift, 1.0 - t, out=work)
            np.add(v, work, out=v)
            e = t * e + (1.0 - t) * self.e0
        self.x, self.e = x_new, e + self.base
        return x_new


def _metadata_bound(problem: ProblemInstance, theta0: float, epsilon: float,
                    regime: Regime) -> int | None:
    """A-priori iteration bound from declared Lipschitz metadata, if any."""
    bounds = [c.lipschitz_value for c in problem.constraints]
    if any(b is None for b in bounds):
        return None
    try:
        return iteration_bound(problem.objective.lipschitz_value, max(bounds),
                               theta0, epsilon, regime)
    except ValueError:
        return None


def _make_evaluator(objective: Oracle, dual: Callable[[Array], float],
                    sources: tuple | None) -> Callable[[Array], tuple]:
    """The objective's value and row ``(index, subgradient, dual norm)`` at
    x: given ``sources``, a scan of a max-affine objective's stacked pieces
    (from ``_sources``), or else its own call and the dual norm."""
    if sources is not None:
        top, piece = sources

        def evaluate(x: Array):
            _, i, high = top(x)
            return high, piece(i, x)

        return evaluate
    value_and_subgradient = objective.value_and_subgradient

    def evaluate(x: Array):
        value, grad = value_and_subgradient(x)
        return value, (None, grad, dual(grad))

    return evaluate


def run(problem: ProblemInstance, prox: ProxGeometry, config: RunConfig) -> SolverReport:
    """Solve ``problem`` over the geometry's feasible set.

    Starts from the geometry's anchor and iterates until the regime's
    adaptive stopping criterion fires, a degenerate subgradient ends the run
    early (exact solution or certified infeasibility), or the iteration cap
    is reached.

    Notes
    -----
    If the run stops without any productive step, the reported output point
    is the final iterate; the usual output formulas need a non-empty
    productive set, which the stopping criterion guarantees whenever the
    problem admits a feasible point within the prox radius.

    Affine data take table-driven steps on every geometry and under every
    policy; the trajectory, counts and history are bitwise those of the
    stepwise engine.  Where the constraints are all affine, scanning them is
    one matrix-vector product, and each constraint row's subgradient and
    dual norm are looked up in a table built at the start of the run, with
    no call to the oracles or the dual norm; so are a max-affine
    objective's pieces on productive steps, and any other objective is
    called.  On an exact :class:`EuclideanSpace`, under every policy but
    min-dual-norm, a run of non-productive steps on one constraint is also
    batched by ``_AffineRuns``, each batch as long as the rest of the run
    is computed to last; a batch that the rounding margins cut short ends
    batching for its run.  In the Lipschitz regime without history, a run
    of productive steps on a max-affine objective is batched too, on pieces
    predicted from the piece values and certified by the same margins.  The
    first step of each run and the step after each batch are ordinary
    steps.  On an exact :class:`EuclideanBall` with all-affine constraints,
    ``_BallTracker`` updates the constraint values in O(M) along each step
    on a constraint row or a max-affine piece, and the policy reads them in
    place of the matrix-vector product wherever a rounding bound certifies
    that the product would give the same violated set and argmax; anywhere
    else, and after a productive step on any other objective, the product
    is taken.  Where an instance sets its own
    ``mirror_step``, ``dual_norm``, ``values``, ``subgradient`` or
    ``value_and_subgradient``, as perfbench's tracer does, neither the
    tables nor the tracked values are used and every ordinary step calls
    them; batched steps still skip them, and a wrapper that counts runs by
    their first step counts them exactly.
    """
    if problem.dimension != prox.dimension:
        raise ValueError("problem and geometry dimensions differ")
    if not isinstance(config, RunConfig):
        raise TypeError("config must be a RunConfig")

    t0 = time.perf_counter()
    eps = config.epsilon
    lipschitz = config.regime is Regime.LIPSCHITZ
    bank = problem.constraint_bank()
    objective = problem.objective
    mirror = prox.mirror_step
    dual = prox.dual_norm
    isfinite = math.isfinite
    pieces = objective._bank if type(objective) is MaxOracle else None
    plain = not _hooked(prox, objective, bank, *bank.oracles,
                        *([] if pieces is None else [pieces, *pieces.oracles]))
    stacked = plain and bank._matrix is not None
    scan, row = _sources(bank, dual, stacked)
    tabled = plain and pieces is not None and pieces._matrix is not None
    piece_sources = _sources(pieces, dual, True) if tabled else None
    evaluate = _make_evaluator(objective, dual, piece_sources)
    if stacked and type(prox) is EuclideanBall:
        rows = [row(i, None) for i in range(len(bank.oracles))]
        if tabled:
            rows += [piece_sources[1](l, None) for l in range(len(pieces.oracles))]
        tracker = _BallTracker(bank, prox, scan, rows, eps)
        if tracker.finite:
            scan, mirror = tracker.scan, tracker.step
    select = _make_selector(scan, row, eps, config.policy)
    # Productive runs are batched where a gemm row need not give the
    # stepwise objective value: in the Lipschitz regime, without history.
    produce = tabled and lipschitz and not config.record_history
    runs = (_AffineRuns(bank, config, *(pieces, piece_sources[1]) if produce else ())
            if type(prox) is EuclideanSpace and bank._matrix is not None
            and config.policy is not Policy.MIN_DUAL_NORM else None)

    # Both regimes stop once this running sum reaches 2 * theta0^2 / eps^2:
    # productive steps contribute 1/||s||^2 (Lipschitz) or 1 (nonstandard),
    # non-productive steps contribute 1/||s||^2 in both.
    stop_target = 2.0 * prox.theta0 * prox.theta0 / (eps * eps)

    x = prox.anchor.copy()
    crit_sum = 0.0
    n_productive = 0
    weight_sum = 0.0
    weighted = np.zeros(problem.dimension)
    best_value = math.inf
    best_point: Array | None = None
    reference = (problem.known_optimum[0]
                 if not lipschitz and problem.known_optimum is not None else None)
    certificate = math.inf
    history: list[StepRecord] | None = [] if config.record_history else None
    stop = StopReason.ITERATION_CAP
    steps = 0
    max_steps = config.max_iterations
    # The constraint of the last step (None if productive), and whether its
    # run is batched: from its second step on, until a batch falls short.
    last = None
    batching = False

    while steps < max_steps:
        sel = select(x)
        if sel is None:
            value, (_, grad, norm) = evaluate(x)
            if not (isfinite(value) and isfinite(norm)):
                raise EvaluationError("objective produced a non-finite result")
            if norm == 0.0:
                # Exact solution: feasible within eps and no descent exists.
                # Its gap is 0, as vf_gap has it for a zero subgradient.
                certificate = min(certificate, 0.0)
                stop = StopReason.ZERO_OBJECTIVE_GRADIENT
                break
            if lipschitz:
                h = eps / (norm * norm)
                crit_sum += 1.0 / (norm * norm)
                weight_sum += h
                weighted += h * x
            else:
                h = eps / norm
                crit_sum += 1.0
                if value < best_value:
                    best_value = value
                    best_point = x
                if reference is not None:
                    gap = float(grad @ (x - reference)) / norm
                    if gap < certificate:
                        certificate = gap
            if history is not None:
                history.append(StepRecord(steps, StepKind.PRODUCTIVE, h, norm,
                                          None, value, x))
            x = mirror(x, grad, h)
            n_productive += 1
        else:
            idx0, grad, norm = sel
            if not isfinite(norm):
                raise EvaluationError("constraint produced a non-finite subgradient")
            if norm == 0.0:
                # A constraint is violated beyond eps yet cannot decrease:
                # the feasible set is empty.
                stop = StopReason.INFEASIBLE_CONSTRAINT
                break
            h = eps / (norm * norm)
            weight = 1.0 / (norm * norm)
            crit_sum += weight
            if history is not None:
                history.append(StepRecord(steps, StepKind.NONPRODUCTIVE, h, norm,
                                          idx0 + 1, None, x))
            x = mirror(x, grad, h)
        steps += 1
        if crit_sum >= stop_target:
            stop = StopReason.CRITERION_MET
            break
        if sel is None:
            # As a constraint run, a productive run is batched from its second step.
            if last is None and runs is not None and runs.pieces is not None:
                count, x, crit_sum, weighted, weight_sum = runs.produce(
                    x, max_steps - steps, crit_sum, stop_target, weighted, weight_sum)
                steps += count
                n_productive += count
            last = None
        elif idx0 != last:
            last, batching = idx0, runs is not None
        elif batching and (length := runs.length(x, idx0)) > 1:
            # Batch the steps the run is computed to take, two at least, as
            # far as neither the criterion nor the cap ends the loop: the
            # step that may is left to the next ordinary step.
            rows = math.ceil(min(length, runs.max_rows, max_steps - steps))
            crit = np.concatenate(([crit_sum], np.full(rows, weight))).cumsum()
            rows = int(np.searchsorted(crit[1:], stop_target))
            block, count = runs.advance(x, h * grad, idx0, rows)
            if history is not None:  # the copy drops the rows not taken
                history.extend(StepRecord(steps + k, StepKind.NONPRODUCTIVE, h, norm,
                                          idx0 + 1, None, point)
                               for k, point in enumerate(block[:count].copy()))
            steps += count
            crit_sum = float(crit[count])
            x = block[count].copy()
            batching = count == rows

    if stop in (StopReason.ZERO_OBJECTIVE_GRADIENT, StopReason.INFEASIBLE_CONSTRAINT):
        out = x
    elif lipschitz:
        out = weighted / weight_sum if weight_sum > 0.0 else x
    else:
        out = best_point if best_point is not None else x

    out = np.asarray(out, dtype=np.float64)
    out_objective = objective.value(out)
    out_violation, _ = bank.max_entry(out)
    return SolverReport(
        total_steps=steps,
        productive_count=n_productive,
        nonproductive_count=steps - n_productive,
        output_point=out,
        output_objective=float(out_objective),
        output_max_violation=float(out_violation),
        stop_reason=stop,
        a_priori_bound=_metadata_bound(problem, prox.theta0, eps, config.regime),
        wall_time=time.perf_counter() - t0,
        config=config,
        history=history,
        certificate=None if reference is None else certificate,
    )


def vf_gap(x, y, objective: Oracle, structure: ProxGeometry) -> float:
    """Normalized objective-subgradient gap <s(x)/||s(x)||, x - y>.

    Zero when the subgradient vanishes.  Bounded by the primal-norm distance
    between x and y in absolute value.
    """
    x = as_vector(x, structure.dimension, "x")
    y = as_vector(y, structure.dimension, "y")
    if objective.dimension != structure.dimension:
        raise ValueError("objective and geometry dimensions differ")
    grad = objective.subgradient(x)
    norm = structure.dual_norm(grad)
    if norm == 0.0:
        return 0.0
    return float(grad @ (x - y)) / norm


def iteration_bound(m_f: float | None, m_g: float, theta0: float,
                    epsilon: float, regime: Regime) -> int:
    """A-priori iteration count guaranteeing the stopping criterion.

    ``ceil(2 * max(m_f^2, m_g^2) * theta0^2 / eps^2)`` in the Lipschitz
    regime (``m_f`` required), ``ceil(2 * max(1, m_g^2) * theta0^2 / eps^2)``
    in the nonstandard regime.
    """
    regime = Regime(regime)
    for name, val in (("m_g", m_g), ("theta0", theta0), ("epsilon", epsilon)):
        if not (math.isfinite(float(val)) and float(val) > 0.0):
            raise ValueError(f"{name} must be finite and positive")
    m_g = float(m_g)
    theta0 = float(theta0)
    epsilon = float(epsilon)
    if regime is Regime.LIPSCHITZ:
        if m_f is None:
            raise ValueError("m_f is required in the lipschitz regime")
        m_f = float(m_f)
        if not (math.isfinite(m_f) and m_f > 0.0):
            raise ValueError("m_f must be finite and positive")
        peak = max(m_f * m_f, m_g * m_g)
    else:
        peak = max(1.0, m_g * m_g)
    if epsilon * epsilon == 0.0:
        raise ValueError("epsilon^2 underflows to 0")
    bound = 2.0 * peak * theta0 * theta0 / (epsilon * epsilon)
    if not math.isfinite(bound):
        raise ValueError("the iteration bound is not finite")
    return math.ceil(bound)


def corollary_bound(grad_norm_at_opt: float, lipschitz_gradient: float,
                    epsilon: float) -> float:
    """Objective-gap bound eps * ||grad f(x*)||_* + L * eps^2 / 2.

    Applies to smooth objectives with L-Lipschitz gradient; at an
    unconstrained optimum the first term vanishes and the bound collapses
    to L * eps^2 / 2.
    """
    grad_norm_at_opt = float(grad_norm_at_opt)
    lipschitz_gradient = float(lipschitz_gradient)
    epsilon = float(epsilon)
    if not math.isfinite(grad_norm_at_opt) or grad_norm_at_opt < 0.0:
        raise ValueError("grad_norm_at_opt must be finite and nonnegative")
    if not math.isfinite(lipschitz_gradient) or lipschitz_gradient <= 0.0:
        raise ValueError("lipschitz_gradient must be finite and positive")
    if not math.isfinite(epsilon) or epsilon <= 0.0:
        raise ValueError("epsilon must be finite and positive")
    return epsilon * grad_norm_at_opt + 0.5 * lipschitz_gradient * epsilon * epsilon
