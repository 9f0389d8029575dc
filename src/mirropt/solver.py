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

from .geometry import Array, ProxGeometry, as_vector
from .problems import EvaluationError, Oracle, OracleBank, ProblemInstance

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
        cap = int(self.max_iterations)
        if cap < 1:
            raise ValueError("max_iterations must be at least 1")
        object.__setattr__(self, "max_iterations", cap)


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


def _make_selector(
    bank: OracleBank,
    epsilon: float,
    policy: Policy,
    dual_norm: Callable[[Array], float],
) -> Callable[[Array], tuple[int, Array] | None]:
    """Build the per-iteration constraint scan for one policy.

    The returned callable maps an iterate to ``None`` (no constraint above
    epsilon, step is productive) or ``(index0, subgradient)``.
    """
    sub = bank.subgradient
    if policy in (Policy.AGGREGATE_MAX, Policy.MAX_VIOLATION):
        max_entry = bank.max_entry

        def select(x: Array):
            val, idx = max_entry(x)
            if not math.isfinite(val):
                raise EvaluationError("constraint produced a non-finite value")
            if val <= epsilon:
                return None
            return idx, sub(idx, x)

    elif policy is Policy.FIRST_VIOLATED:
        values = bank.values

        def select(x: Array):
            vals = values(x).tolist()
            for i, v in enumerate(vals):
                if epsilon < v < math.inf:
                    return i, sub(i, x)
                if not v <= epsilon:  # NaN or +inf
                    raise EvaluationError("constraint produced a non-finite value")
            return None

    elif policy is Policy.MIN_DUAL_NORM:
        values = bank.values

        def select(x: Array):
            vals = values(x)
            if not np.all(np.isfinite(vals)):
                raise EvaluationError("constraint produced a non-finite value")
            violated = np.nonzero(vals > epsilon)[0]
            if violated.size == 0:
                return None
            best_i = -1
            best_norm = math.inf
            best_sub: Array | None = None
            for i in violated:
                s = sub(int(i), x)
                nrm = dual_norm(s)
                if not math.isfinite(nrm):
                    raise EvaluationError(
                        "constraint produced a non-finite subgradient")
                if nrm < best_norm:
                    best_norm = nrm
                    best_i = int(i)
                    best_sub = s
            return best_i, best_sub

    else:  # pragma: no cover - exhaustive over Policy
        raise ValueError(f"unknown policy {policy!r}")

    return select


def _metadata_bound(problem: ProblemInstance, theta0: float, epsilon: float,
                    regime: Regime) -> int | None:
    """A-priori iteration bound from declared Lipschitz metadata, if any."""
    bounds = [c.lipschitz_value for c in problem.constraints]
    if any(b is None for b in bounds):
        return None
    m_g = max(bounds)
    if not (math.isfinite(m_g) and m_g > 0.0):
        return None
    if regime is Regime.LIPSCHITZ:
        m_f = problem.objective.lipschitz_value
        if m_f is None or not (math.isfinite(m_f) and m_f > 0.0):
            return None
        return iteration_bound(m_f, m_g, theta0, epsilon, regime)
    return iteration_bound(None, m_g, theta0, epsilon, regime)


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
    select = _make_selector(bank, eps, config.policy, dual)

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

    while steps < max_steps:
        sel = select(x)
        if sel is None:
            value, grad = objective.value_and_subgradient(x)
            norm = dual(grad)
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
            idx0, grad = sel
            norm = dual(grad)
            if not isfinite(norm):
                raise EvaluationError("constraint produced a non-finite subgradient")
            if norm == 0.0:
                # A constraint is violated beyond eps yet cannot decrease:
                # the feasible set is empty.
                stop = StopReason.INFEASIBLE_CONSTRAINT
                break
            h = eps / (norm * norm)
            crit_sum += 1.0 / (norm * norm)
            if history is not None:
                history.append(StepRecord(steps, StepKind.NONPRODUCTIVE, h, norm,
                                          idx0 + 1, None, x))
            x = mirror(x, grad, h)
        steps += 1
        if crit_sum >= stop_target:
            stop = StopReason.CRITERION_MET
            break

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
    return math.ceil(2.0 * peak * theta0 * theta0 / (epsilon * epsilon))


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
