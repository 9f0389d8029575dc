"""Acceptance suite: one test per headline criterion.

Each test prints a single ``criterion N: PASS/FAIL`` line (visible with
``pytest -rA`` or on failure) and asserts the criterion as stated:

1. Lipschitz-regime accuracy guarantees on examples 1, 2, 4.
2. FirstViolated speedups and reference iteration counts (Lipschitz).
3. NonstandardGrowth completions, orderings and certificates on 3, 5, 6.
4. Lipschitz cap behavior on examples 3, 5, 6 versus nonstandard completion.
5. A-priori iteration bounds on randomized affine instances.
6. The per-step descent inequality on all three geometries.
7. Solver-versus-grid agreement on randomized low-dimensional instances.
8. Bitwise trajectory equality of the aggregate scan and a pre-composed
   max oracle.
9. Degenerate-stop classification.

The runs behind criteria 1-4 are shared through session fixtures; every
randomized criterion uses fixed seeds.
"""

import dataclasses
import math

import numpy as np
import pytest

from mirropt import (
    AbsAffinePlusOracle,
    AffineOracle,
    EntropySimplex,
    EuclideanBall,
    EuclideanSpace,
    GridSpec,
    MaxOracle,
    Policy,
    ProblemInstance,
    QuadraticOracle,
    Regime,
    RunConfig,
    StepKind,
    StopReason,
    bregman_divergence,
    brute_force_optimum,
    build_example,
    default_geometry,
    dual_norm,
    mirror_step,
    run,
    vf_gap,
)
from mirropt.benchmarks import REFERENCE_RESULTS

EPSILON = 0.05
TOL = EPSILON + 1e-9
POLICIES = (Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED)

LIPSCHITZ_EXAMPLES = (1, 2, 4)
NONSTANDARD_EXAMPLES = (3, 5, 6)

# Minimum FirstViolated-over-AggregateMax speedups in the Lipschitz regime.
SPEEDUPS = {1: 2.0, 2: 3.0, 4: 5.0}

# Completing iteration counts must match the recorded references this tightly.
COUNT_FACTOR = 3.0


def _verdict(criterion: int, passed: bool, detail: str) -> None:
    line = f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line)
    assert passed, line


def _run_cell(example_id: int, regime: Regime, policy: Policy,
              max_iterations: int = 10_000_000, record_history: bool = False):
    example = build_example(example_id)
    geometry = default_geometry(example)
    config = RunConfig(
        epsilon=example.settings.epsilon,
        regime=regime,
        policy=policy,
        max_iterations=max_iterations,
        record_history=record_history,
    )
    return run(example.instance, geometry, config), example, geometry


def _min_productive_certificate(report, example, geometry) -> float:
    objective = example.instance.objective
    reference_point = example.instance.known_optimum[0]
    best = math.inf
    for record in report.history.ordinary():
        if record.kind is StepKind.PRODUCTIVE:
            gap = vf_gap(record.point, reference_point, objective, geometry)
            if gap < best:
                best = gap
    return best


@pytest.fixture(scope="session")
def reference_cells():
    """Completing reference-table cells, keyed (example, regime, policy).

    Values are (report, min_certificate); histories are recorded only for
    the nonstandard cells, reduced to their certificate and dropped.
    """
    cells = {}
    for example_id in LIPSCHITZ_EXAMPLES:
        for policy in POLICIES:
            report, _, _ = _run_cell(example_id, Regime.LIPSCHITZ, policy)
            cells[(example_id, Regime.LIPSCHITZ, policy)] = (report, None)
    for example_id in NONSTANDARD_EXAMPLES:
        for policy in POLICIES:
            report, example, geometry = _run_cell(
                example_id, Regime.NONSTANDARD, policy, record_history=True
            )
            certificate = _min_productive_certificate(report, example, geometry)
            report = dataclasses.replace(report, history=None)
            cells[(example_id, Regime.NONSTANDARD, policy)] = (report, certificate)
    return cells


@pytest.fixture(scope="session")
def capped_lipschitz_cells():
    """Examples 3, 5, 6 under the Lipschitz regime at a 10^6-step cap."""
    cells = {}
    for example_id in NONSTANDARD_EXAMPLES:
        for policy in POLICIES:
            report, _, _ = _run_cell(
                example_id, Regime.LIPSCHITZ, policy, max_iterations=10**6
            )
            cells[(example_id, policy)] = report
    return cells


def test_criterion_1_lipschitz_guarantees(reference_cells):
    problems = []
    for example_id in LIPSCHITZ_EXAMPLES:
        optimum = build_example(example_id).instance.known_optimum[1]
        for policy in POLICIES:
            report, _ = reference_cells[(example_id, Regime.LIPSCHITZ, policy)]
            label = f"example {example_id} {policy.value}"
            if report.stop_reason is not StopReason.CRITERION_MET:
                problems.append(f"{label}: stopped {report.stop_reason.value}")
                continue
            gap = report.output_objective - optimum
            if not gap <= TOL:
                problems.append(f"{label}: gap {gap:.3e} > {TOL:.3e}")
            if not report.output_max_violation <= TOL:
                problems.append(
                    f"{label}: violation {report.output_max_violation:.3e}"
                )
    _verdict(
        1,
        not problems,
        "; ".join(problems)
        or "examples 1, 2, 4 meet gap and feasibility within 0.05 (+1e-9)",
    )


def test_criterion_2_first_violated_speedups(reference_cells):
    problems = []
    details = []
    for example_id in LIPSCHITZ_EXAMPLES:
        agg, _ = reference_cells[(example_id, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX)]
        fv, _ = reference_cells[(example_id, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)]
        ratio = agg.total_steps / fv.total_steps
        details.append(f"example {example_id}: {agg.total_steps}/{fv.total_steps}"
                       f" = {ratio:.2f}x")
        if ratio < SPEEDUPS[example_id]:
            problems.append(
                f"example {example_id}: speedup {ratio:.2f} < {SPEEDUPS[example_id]}"
            )
        for policy, report in ((Policy.AGGREGATE_MAX, agg),
                               (Policy.FIRST_VIOLATED, fv)):
            expected = REFERENCE_RESULTS[
                (example_id, Regime.LIPSCHITZ, policy)].iterations
            factor = max(report.total_steps, expected) / min(
                report.total_steps, expected)
            if factor > COUNT_FACTOR:
                problems.append(
                    f"example {example_id} {policy.value}: {report.total_steps} "
                    f"vs reference {expected} (x{factor:.2f})"
                )
    _verdict(2, not problems, "; ".join(problems or details))


def test_criterion_3_nonstandard_completions(reference_cells):
    problems = []
    details = []
    for example_id in NONSTANDARD_EXAMPLES:
        agg, agg_cert = reference_cells[
            (example_id, Regime.NONSTANDARD, Policy.AGGREGATE_MAX)]
        fv, fv_cert = reference_cells[
            (example_id, Regime.NONSTANDARD, Policy.FIRST_VIOLATED)]
        details.append(f"example {example_id}: {agg.total_steps}/{fv.total_steps}")
        for policy, report, certificate in (
            (Policy.AGGREGATE_MAX, agg, agg_cert),
            (Policy.FIRST_VIOLATED, fv, fv_cert),
        ):
            label = f"example {example_id} {policy.value}"
            if report.stop_reason is not StopReason.CRITERION_MET:
                problems.append(f"{label}: stopped {report.stop_reason.value}")
                continue
            expected = REFERENCE_RESULTS[
                (example_id, Regime.NONSTANDARD, policy)].iterations
            factor = max(report.total_steps, expected) / min(
                report.total_steps, expected)
            if factor > COUNT_FACTOR:
                problems.append(f"{label}: {report.total_steps} vs reference "
                                f"{expected} (x{factor:.2f})")
            if not certificate <= TOL:
                problems.append(f"{label}: certificate {certificate:.3e}")
        if fv.total_steps >= agg.total_steps:
            problems.append(f"example {example_id}: first-violated not faster")
    _verdict(3, not problems, "; ".join(problems or details))


def test_criterion_4_regime_separation(reference_cells, capped_lipschitz_cells):
    problems = []
    for example_id in NONSTANDARD_EXAMPLES:
        for policy in POLICIES:
            capped = capped_lipschitz_cells[(example_id, policy)]
            label = f"example {example_id} lipschitz {policy.value}"
            if capped.stop_reason is not StopReason.ITERATION_CAP:
                problems.append(
                    f"{label}: stopped {capped.stop_reason.value} at "
                    f"{capped.total_steps} steps below the 10^6 cap "
                    f"({capped.nonproductive_count} non-productive and "
                    f"{capped.productive_count} productive, so the recorded "
                    f">10^6 reference for this cell is not reachable from "
                    f"the recorded problem data)"
                )
            completing, _ = reference_cells[
                (example_id, Regime.NONSTANDARD, policy)]
            if completing.stop_reason is not StopReason.CRITERION_MET:
                problems.append(
                    f"example {example_id} nonstandard {policy.value}: "
                    f"stopped {completing.stop_reason.value}"
                )
    _verdict(
        4,
        not problems,
        "; ".join(problems)
        or "lipschitz runs on 3, 5, 6 hit the 10^6 cap; nonstandard completes",
    )


def test_criterion_5_a_priori_bounds():
    rng = np.random.default_rng(2024)
    checked = 0
    problems = []
    for regime in Regime:
        for trial in range(50):
            n = int(rng.integers(2, 6))
            objective = AffineOracle(rng.standard_normal(n))
            constraints = [
                AffineOracle(rng.standard_normal(n), rng.uniform(-1.0, 1.0))
                for _ in range(3)
            ]
            instance = ProblemInstance(n, objective, constraints)
            geometry = EuclideanSpace(np.zeros(n), 1.5)
            report = run(instance, geometry, RunConfig(0.25, regime=regime))
            checked += 1
            label = f"{regime.value} trial {trial}"
            if report.stop_reason is not StopReason.CRITERION_MET:
                problems.append(f"{label}: stopped {report.stop_reason.value}")
            if report.a_priori_bound is None:
                problems.append(f"{label}: bound missing")
            elif report.total_steps > report.a_priori_bound:
                problems.append(
                    f"{label}: N={report.total_steps} exceeds bound "
                    f"{report.a_priori_bound}"
                )
    _verdict(
        5,
        not problems and checked == 100,
        "; ".join(problems)
        or f"{checked} random affine instances stayed within their bounds",
    )


def _lemma_points(name, geometry, rng):
    n = geometry.dimension
    if name == "euclidean":
        return rng.uniform(-3.0, 3.0, n)
    if name == "ball":
        direction = rng.standard_normal(n)
        direction /= math.sqrt(float(direction @ direction))
        return geometry.center + direction * (
            geometry.radius * rng.uniform() ** (1.0 / n)
        )
    return rng.dirichlet(np.full(n, 2.0))


def test_criterion_6_descent_inequality():
    # h <grad f(y), y - x> <= h^2/2 ||grad f(y)||_*^2 + V(y, x) - V(z, x)
    # with z the mirror step from y, on 1000 seeded tuples per geometry
    rng = np.random.default_rng(77)
    problems = []
    counts = {}
    for name in ("euclidean", "ball", "simplex"):
        count = 0
        while count < 1000:
            n = int(rng.integers(2, 9))
            if name == "euclidean":
                geometry = EuclideanSpace(np.zeros(n), 1.0)
            elif name == "ball":
                geometry = EuclideanBall(np.zeros(n), 2.5, 1.0)
            else:
                geometry = EntropySimplex(n, 1.0)
            g = rng.standard_normal((n, n))
            objective = QuadraticOracle((g.T @ g) / n, rng.standard_normal(n))
            x = _lemma_points(name, geometry, rng)
            y = _lemma_points(name, geometry, rng)
            h = rng.uniform(0.01, 1.5)
            grad = objective.subgradient(y)
            z = mirror_step(y, grad, h, geometry)
            lhs = h * float(grad @ (y - x))
            rhs = (
                0.5 * h * h * dual_norm(grad, geometry) ** 2
                + bregman_divergence(y, x, geometry)
                - bregman_divergence(z, x, geometry)
            )
            if lhs > rhs + 1e-9:
                problems.append(
                    f"{name}: lhs {lhs:.6e} > rhs {rhs:.6e} (n={n}, h={h:.3f})"
                )
                break
            count += 1
        counts[name] = count
    _verdict(
        6,
        not problems,
        "; ".join(problems)
        or f"inequality held on {counts} tuples",
    )


def test_criterion_7_matches_brute_force():
    rng = np.random.default_rng(404)
    radius = 1.5
    spacings = {1: 1e-3, 2: 5e-3, 3: 0.02}
    problems = []
    checked = 0
    for trial in range(24):
        n = trial % 3 + 1
        spacing = spacings[n]
        if trial % 2 == 0:
            objective = AffineOracle(rng.uniform(-1.0, 1.0, n))
            lip = math.sqrt(float(objective.a @ objective.a)) + 1e-12
        else:
            g = rng.standard_normal((n, n))
            b = rng.uniform(-0.5, 0.5, n)
            objective = QuadraticOracle((g.T @ g) / n, b)
            lip = (objective.lipschitz_gradient * radius
                   + math.sqrt(float(b @ b)))
        constraints = []
        shifted = []
        for _ in range(2):
            a = rng.uniform(-1.0, 1.0, n)
            offset = rng.uniform(-1.5, -0.5)
            constraints.append(AffineOracle(a, offset))
            shifted.append(AffineOracle(a, offset - EPSILON))
        instance = ProblemInstance(n, objective, constraints)
        relaxed = ProblemInstance(n, objective, shifted)
        ball = EuclideanBall(np.zeros(n), radius, radius)
        grid = GridSpec(-radius, radius, spacing, geometry=ball)
        _, strict_value = brute_force_optimum(instance, grid)
        _, relaxed_value = brute_force_optimum(relaxed, grid)

        report = run(instance, ball, RunConfig(EPSILON))
        checked += 1
        label = f"trial {trial} (n={n})"
        if report.stop_reason is not StopReason.CRITERION_MET:
            problems.append(f"{label}: stopped {report.stop_reason.value}")
            continue
        # upper side: the guarantee against the best strictly feasible
        # grid point; lower side: the output is eps-feasible, so it cannot
        # undercut the relaxed optimum by more than the grid error
        grid_error = spacing * math.sqrt(n) * lip
        value = report.output_objective
        if not value <= strict_value + EPSILON + 1e-9:
            problems.append(
                f"{label}: value {value:.6f} above strict bracket "
                f"{strict_value:.6f} + eps"
            )
        if not value >= relaxed_value - grid_error - 1e-9:
            problems.append(
                f"{label}: value {value:.6f} below relaxed bracket "
                f"{relaxed_value:.6f} - {grid_error:.2e}"
            )
    _verdict(
        7,
        not problems and checked >= 20,
        "; ".join(problems)
        or f"{checked} randomized instances stayed within eps + grid error",
    )


def test_criterion_8_precomposed_max_is_bitwise_identical():
    problems = []
    for example_id in (1, 2, 3, 4, 5, 6):
        example = build_example(example_id)
        aggregate = example.instance
        composed = ProblemInstance(
            dimension=aggregate.dimension,
            objective=aggregate.objective,
            constraints=[MaxOracle(aggregate.constraints)],
        )
        geometry = default_geometry(example)
        for regime in Regime:
            config = RunConfig(
                EPSILON,
                regime=regime,
                policy=Policy.AGGREGATE_MAX,
                max_iterations=10_000,
                record_history=True,
            )
            first = run(aggregate, geometry, config)
            second = run(composed, geometry, config)
            label = f"example {example_id} {regime.value}"
            if first.total_steps != second.total_steps:
                problems.append(f"{label}: step counts differ")
                continue
            if not np.array_equal(first.output_point, second.output_point):
                problems.append(f"{label}: outputs differ")
                continue
            for a, b in zip(first.history, second.history):
                if (a.kind is not b.kind or a.step_size != b.step_size
                        or a.grad_dual_norm != b.grad_dual_norm
                        or not np.array_equal(a.point, b.point)):
                    problems.append(f"{label}: step {a.index} differs")
                    break
    _verdict(
        8,
        not problems,
        "; ".join(problems)
        or "12 regime/example trajectories bitwise-identical over 10^4 steps",
    )


def test_criterion_9_degenerate_stops():
    problems = []

    # start at the unconstrained minimizer of |x|: exact zero subgradient
    at_minimum = ProblemInstance(
        1,
        # |x| has an exact-zero subgradient at its minimizer
        objective=AbsAffinePlusOracle([1.0]),
        constraints=[AffineOracle([1.0], -10.0)],
    )
    report = run(at_minimum, EuclideanSpace([0.0], 1.0), RunConfig(EPSILON))
    if report.stop_reason is not StopReason.ZERO_OBJECTIVE_GRADIENT:
        problems.append(f"zero-gradient stop missing: {report.stop_reason.value}")
    elif not (report.converged and report.total_steps == 0
              and np.array_equal(report.output_point, np.zeros(1))):
        problems.append("zero-gradient output is not the stopping iterate")

    # a constant violated constraint can never be decreased
    infeasible = ProblemInstance(
        2,
        AffineOracle([1.0, 0.0]),
        [AffineOracle([0.0, 0.0], 1.0)],
    )
    report = run(infeasible, EuclideanSpace([0.0, 0.0], 1.0), RunConfig(EPSILON))
    if report.stop_reason is not StopReason.INFEASIBLE_CONSTRAINT:
        problems.append(f"infeasible stop missing: {report.stop_reason.value}")
    elif report.converged:
        problems.append("infeasible stop must not count as converged")

    _verdict(
        9,
        not problems,
        "; ".join(problems)
        or "exact-zero subgradients classify the run correctly",
    )
