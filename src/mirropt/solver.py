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
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .geometry import Array, EuclideanSpace, ProxGeometry, as_vector
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
        if not math.isfinite(eps) or eps <= 0.0:
            raise ValueError("epsilon must be finite and positive")
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
    """Batched runs of non-productive steps on an exact Euclidean space.

    ``advance`` batches a run's ``length`` steps on constraint i, x - q, ...:
    ``np.cumsum`` builds them by the same subtractions as the stepwise
    ``x - h * p``, so they are bitwise its iterates.  One matrix product
    gives their constraint values.  A row is committed only while the
    policy's selector provably picks i there: each comparison it makes
    holds with a margin above the rounding bound ``gamma * (|A| @ r + |b|)``,
    where r bounds |x - k q| over the batch, so no summation order of the
    stepwise matrix-vector product can decide otherwise.
    """

    def __init__(self, bank: OracleBank, config: RunConfig) -> None:
        self.first_violated = config.policy is Policy.FIRST_VIOLATED
        self.epsilon = config.epsilon
        self.a = bank._matrix
        self.b = bank._offsets
        self.abs_a = np.abs(bank._matrix)
        # The smallest normal float covers underflow in the products.
        self.abs_b = np.abs(bank._offsets) + np.finfo(float).tiny
        m, n = bank._matrix.shape
        # Four times the bound 2 * gamma_(n+1) on two summation orders'
        # difference, which also absorbs the rounding of r and the margins.
        self.gamma = 4.0 * (n + 2) * np.finfo(float).eps
        self.max_rows = max(1, _BLOCK_FLOATS // max(n, m))
        self.tables: dict[int, tuple] = {}

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

    def advance(self, x: Array, q: Array, i: int, rows: int) -> tuple[Array, int]:
        """The block of iterates x, x - q, ..., x - rows*q, and how many
        leading ones (at most ``rows``) provably select ``i``."""
        block = np.empty((rows + 1, x.shape[0]))
        block[0] = x
        block[1:] = -q
        np.cumsum(block, axis=0, out=block)
        reach = np.abs(x) + rows * np.abs(q)
        bound = self.abs_a @ reach + self.abs_b
        if not (reach.max() < _HUGE and bound.max() < _HUGE):
            return block, 0  # NaN included: the stepwise engine decides
        slack = self.gamma * bound
        eps = self.epsilon
        values = block[:rows] @ self.a.T + self.b
        if self.first_violated:
            ok = values[:, i] > eps + slack[i]
            if i:
                ok &= (values[:, :i] <= eps - slack[:i]).all(axis=1)
        else:
            # i is above epsilon and the argmax with the lowest index.
            low = values[:, i] - slack[i]
            values += slack
            values[:, i] = eps
            ok = low > values.max(axis=1)
        return block, rows if ok.all() else int(ok.argmin())


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
                    tabled: bool) -> Callable[[Array], tuple]:
    """The objective's value and row ``(index, subgradient, dual norm)`` at
    x: where ``tabled``, a scan of a max-affine objective's stacked pieces
    (see ``_sources``), or else its own call and the dual norm."""
    if tabled:
        top, piece = _sources(objective._bank, dual, True)

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
    batching for its run.  The first step of each run and the step after
    each batch are ordinary steps.  Where an instance sets its own
    ``mirror_step``, ``dual_norm``, ``values``, ``subgradient`` or
    ``value_and_subgradient``, as perfbench's tracer does, the tables are
    not used and every ordinary step calls them; batched steps still skip
    them, and a wrapper that counts runs by their first step counts them
    exactly.
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
    scan, row = _sources(bank, dual, plain and bank._matrix is not None)
    select = _make_selector(scan, row, eps, config.policy)
    evaluate = _make_evaluator(objective, dual, plain and pieces is not None
                               and pieces._matrix is not None)
    runs = (_AffineRuns(bank, config) if type(prox) is EuclideanSpace
            and bank._matrix is not None and config.policy is not Policy.MIN_DUAL_NORM
            else None)

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
            last = None
        elif idx0 != last:
            last, batching = idx0, runs is not None
        elif batching and (length := runs.length(x, idx0)) > 1:
            # Batch the steps the run is computed to take, two at least, as
            # far as neither the criterion nor the cap ends the loop: the
            # step that may is left to the next ordinary step.
            rows = math.ceil(min(length, runs.max_rows, max_steps - steps))
            crit = np.full(rows + 1, weight)
            crit[0] = crit_sum
            np.cumsum(crit, out=crit)
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
