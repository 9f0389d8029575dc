"""Unit tests for the adaptive mirror-descent engine."""

import dataclasses
import math

import numpy as np
import pytest

from mirropt import (
    AbsAffinePlusOracle,
    AffineOracle,
    BenchmarkExample,
    EuclideanBall,
    EuclideanSpace,
    EvaluationError,
    ExperimentSettings,
    Oracle,
    Policy,
    ProblemInstance,
    QuadraticOracle,
    Regime,
    RunConfig,
    StepKind,
    StopReason,
    corollary_bound,
    iteration_bound,
    max_violation,
    run,
    verify_example,
    vf_gap,
)


def _constant(value: float, dimension: int = 2) -> AffineOracle:
    return AffineOracle(np.zeros(dimension), value)


class _BadValueOracle(Oracle):
    """Test double: a fixed non-finite value, with subgradient (1, 0)."""

    def __init__(self, entry: float) -> None:
        self.dimension = 2
        self.entry = entry

    def value_and_subgradient(self, x):
        return self.entry, np.array([1.0, 0.0])


class _BadSubgradientOracle(Oracle):
    """Test double: violated everywhere, with a non-finite subgradient."""

    def __init__(self, entry: float) -> None:
        self.dimension = 2
        self.entry = entry

    def value_and_subgradient(self, x):
        return 1.0, np.array([self.entry, 0.0])


def disk_problem():
    """Affine objective on a radius-2 ball, two affine constraints."""
    instance = ProblemInstance(
        2,
        AffineOracle([1.0, 1.0]),
        [AffineOracle([1.0, 0.0], -1.0), AffineOracle([0.0, 1.0], -1.0)],
        known_optimum=([-math.sqrt(2.0), -math.sqrt(2.0)], -2.0 * math.sqrt(2.0)),
    )
    geometry = EuclideanBall([0.0, 0.0], 2.0, 2.0)
    return instance, geometry


def alternating_problem():
    """Quadratic bowl pulled against an affine constraint.

    The pull toward the unconstrained minimum keeps re-violating
    g(x) = 1 - x_1, so runs mix productive and non-productive steps.
    """
    instance = ProblemInstance(
        2,
        QuadraticOracle(np.eye(2)),
        [AffineOracle([-1.0, 0.0], 1.0)],
    )
    geometry = EuclideanSpace([0.0, 0.0], 2.0)
    return instance, geometry


# ---------------------------------------------------------------- selection


def _first_step(constraints, policy):
    """Record of a one-step run from the origin, and the point it reached."""
    instance = ProblemInstance(2, AffineOracle([1.0, 1.0]), constraints)
    config = RunConfig(0.05, policy=policy, max_iterations=1,
                       record_history=True)
    report = run(instance, EuclideanSpace([0.0, 0.0], 1.0), config)
    return report.history[0], report.output_point


def _affine_pair(first: float, second: float) -> list[AffineOracle]:
    """Two constraints with values ``first``, ``second`` at the origin."""
    return [AffineOracle([1.0, 0.0], first), AffineOracle([0.0, 1.0], second)]


@pytest.mark.parametrize("policy", list(Policy))
def test_within_tolerance_step_is_productive(policy):
    record, _ = _first_step(_affine_pair(0.01, 0.02), policy)
    assert record.kind is StepKind.PRODUCTIVE
    assert record.constraint_index is None


def test_first_violated_takes_lowest_index():
    record, point = _first_step(_affine_pair(0.06, 7.0), Policy.FIRST_VIOLATED)
    assert record.kind is StepKind.NONPRODUCTIVE
    assert record.constraint_index == 1
    assert record.grad_dual_norm == 1.0
    # the step descends along the first constraint's subgradient
    assert np.array_equal(point, np.array([-0.05, 0.0]))


@pytest.mark.parametrize("policy", [Policy.AGGREGATE_MAX, Policy.MAX_VIOLATION])
def test_max_policies_take_argmax(policy):
    record, point = _first_step(_affine_pair(0.06, 7.0), policy)
    assert record.kind is StepKind.NONPRODUCTIVE
    assert record.constraint_index == 2
    assert np.array_equal(point, np.array([0.0, -0.05]))


def test_min_dual_norm_prefers_flattest():
    # both violated; the second has the smaller subgradient norm
    constraints = [AffineOracle([3.0, 0.0], 1.0), AffineOracle([1.0, 0.0], 1.0)]
    record, point = _first_step(constraints, Policy.MIN_DUAL_NORM)
    assert record.constraint_index == 2
    assert record.grad_dual_norm == 1.0
    assert np.array_equal(point, np.array([-0.05, 0.0]))


def test_min_dual_norm_tie_takes_lowest_index():
    record, _ = _first_step(_affine_pair(1.0, 1.0), Policy.MIN_DUAL_NORM)
    assert record.constraint_index == 1


@pytest.mark.parametrize("policy", list(Policy))
def test_boundary_value_is_not_violated(policy):
    # g(x) = epsilon exactly does not trigger a non-productive step
    record, _ = _first_step([AffineOracle([1.0, 0.0], 0.05)], policy)
    assert record.kind is StepKind.PRODUCTIVE


@pytest.mark.parametrize("bad", [_BadValueOracle(math.nan), _BadValueOracle(math.inf),
                                 _BadSubgradientOracle(math.inf),
                                 _BadSubgradientOracle(math.nan)],
                         ids=["nan-value", "inf-value", "inf-subgradient",
                              "nan-subgradient"])
@pytest.mark.parametrize("policy", list(Policy))
def test_nonfinite_constraint_raises_in_run(policy, bad):
    # the satisfied second constraint must never be picked in its place
    constraints = [bad, _constant(-5.0)]
    instance = ProblemInstance(2, AffineOracle([1.0, 1.0]), constraints)
    config = RunConfig(0.05, policy=policy, max_iterations=50)
    with pytest.raises(EvaluationError):
        run(instance, EuclideanSpace([0.0, 0.0], 1.0), config)


# ------------------------------------------------------------------- config


def test_run_config_coerces_strings():
    config = RunConfig(0.1, regime="nonstandard", policy="aggregate-max")
    assert config.regime is Regime.NONSTANDARD
    assert config.policy is Policy.AGGREGATE_MAX


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan])
def test_run_config_rejects_bad_epsilon(eps):
    with pytest.raises(ValueError):
        RunConfig(eps)


def test_run_config_rejects_bad_cap():
    with pytest.raises(ValueError):
        RunConfig(0.1, max_iterations=0)


# ----------------------------------------------------------- degenerate stops


def test_zero_objective_gradient_stops_without_counting_step():
    # f(x) = |x| starts at its minimizer; the probe step is not counted
    instance = ProblemInstance(
        1, AbsAffinePlusOracle([1.0]), [AffineOracle([1.0], -10.0)]
    )
    geometry = EuclideanSpace([0.0], 1.0)
    report = run(instance, geometry, RunConfig(0.1))
    assert report.stop_reason is StopReason.ZERO_OBJECTIVE_GRADIENT
    assert report.converged
    assert report.total_steps == 0
    assert report.productive_count == 0
    assert np.array_equal(report.output_point, np.zeros(1))
    assert report.output_objective == 0.0


def test_exact_solution_has_zero_certificate_and_verifies():
    # the start is the known optimum: the run stops before any counted
    # productive step, and the stopping point's gap is 0 (vf_gap's
    # convention for a zero subgradient)
    instance = ProblemInstance(1, QuadraticOracle([[1.0]]),
                               [AffineOracle([1.0], -1.0)],
                               known_optimum=([0.0], 0.0))
    geometry = EuclideanSpace([0.0], 1.0)
    report = run(instance, geometry, RunConfig(0.05, regime=Regime.NONSTANDARD))
    assert report.stop_reason is StopReason.ZERO_OBJECTIVE_GRADIENT
    assert report.total_steps == 0
    assert report.certificate == 0.0
    example = BenchmarkExample(0, instance,
                               ExperimentSettings(np.zeros(1), 1.0, 0.05))
    assert verify_example(report, example).all_passed


def test_infeasible_constraint_detected_immediately():
    # constant violated constraint has a zero subgradient everywhere
    instance = ProblemInstance(2, AffineOracle([1.0, 0.0]), [_constant(1.0)])
    geometry = EuclideanSpace([0.0, 0.0], 1.0)
    report = run(instance, geometry, RunConfig(0.1))
    assert report.stop_reason is StopReason.INFEASIBLE_CONSTRAINT
    assert not report.converged
    assert report.total_steps == 0


def test_iteration_cap_reported_not_raised():
    instance, geometry = disk_problem()
    report = run(instance, geometry, RunConfig(0.1, max_iterations=10))
    assert report.stop_reason is StopReason.ITERATION_CAP
    assert not report.converged
    assert report.total_steps == 10


# ------------------------------------------------------------------ solving


def test_disk_problem_meets_guarantee():
    instance, geometry = disk_problem()
    report = run(instance, geometry, RunConfig(0.1, regime=Regime.LIPSCHITZ))
    assert report.stop_reason is StopReason.CRITERION_MET
    optimum = instance.known_optimum[1]
    assert report.output_objective <= optimum + 0.1 + 1e-9
    assert report.output_max_violation <= 0.1 + 1e-9
    # the a-priori bound is sharp for affine data: N never exceeds it
    assert report.a_priori_bound is not None
    assert report.total_steps <= report.a_priori_bound


def test_disk_problem_nonstandard_regime():
    instance, geometry = disk_problem()
    report = run(
        instance, geometry, RunConfig(0.1, regime=Regime.NONSTANDARD)
    )
    assert report.stop_reason is StopReason.CRITERION_MET
    assert report.output_max_violation <= 0.1 + 1e-9
    assert report.total_steps <= report.a_priori_bound


def test_step_counts_partition_total():
    instance, geometry = alternating_problem()
    for regime in Regime:
        report = run(instance, geometry, RunConfig(0.05, regime=regime))
        assert report.total_steps == report.productive_count + report.nonproductive_count
        assert report.stop_reason is StopReason.CRITERION_MET
        assert report.productive_count >= 1


def test_alternating_problem_mixes_step_kinds():
    instance, geometry = alternating_problem()
    report = run(instance, geometry, RunConfig(0.05, record_history=True))
    kinds = {record.kind for record in report.history}
    assert kinds == {StepKind.PRODUCTIVE, StepKind.NONPRODUCTIVE}


def test_lipschitz_step_sizes_satisfy_identity():
    # h * ||s||^2 = eps on every step of the Lipschitz regime
    instance, geometry = alternating_problem()
    config = RunConfig(0.05, regime=Regime.LIPSCHITZ, record_history=True)
    report = run(instance, geometry, config)
    assert report.history
    for record in report.history:
        identity = record.step_size * record.grad_dual_norm**2
        assert identity == pytest.approx(0.05, rel=1e-12)


def test_nonstandard_step_sizes_satisfy_identities():
    # productive: h * ||s|| = eps; non-productive: h * ||s||^2 = eps
    instance, geometry = alternating_problem()
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, record_history=True)
    report = run(instance, geometry, config)
    kinds_seen = set()
    for record in report.history:
        kinds_seen.add(record.kind)
        if record.kind is StepKind.PRODUCTIVE:
            identity = record.step_size * record.grad_dual_norm
        else:
            identity = record.step_size * record.grad_dual_norm**2
        assert identity == pytest.approx(0.05, rel=1e-12)
    assert kinds_seen == {StepKind.PRODUCTIVE, StepKind.NONPRODUCTIVE}


def test_productive_steps_taken_from_near_feasible_points():
    instance, geometry = alternating_problem()
    report = run(instance, geometry, RunConfig(0.05, record_history=True))
    for record in report.history:
        if record.kind is StepKind.PRODUCTIVE:
            worst, _ = max_violation(instance, record.point)
            assert worst <= 0.05
            assert record.constraint_index is None
            assert record.objective_value is not None
        else:
            assert record.constraint_index == 1
            assert record.objective_value is None


def test_runs_are_deterministic():
    instance, geometry = alternating_problem()
    config = RunConfig(0.05, regime=Regime.NONSTANDARD)
    first = run(instance, geometry, config)
    second = run(instance, geometry, config)
    assert first.total_steps == second.total_steps
    assert np.array_equal(first.output_point, second.output_point)
    assert first.output_objective == second.output_objective


def test_history_disabled_by_default():
    instance, geometry = disk_problem()
    report = run(instance, geometry, RunConfig(0.1))
    assert report.history is None


def alternating_problem_with_optimum():
    """The alternating problem with its optimum (1, 0), value 1/2."""
    instance, geometry = alternating_problem()
    return dataclasses.replace(instance, known_optimum=([1.0, 0.0], 0.5)), geometry


@pytest.mark.parametrize("policy", [Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED])
@pytest.mark.parametrize("make", [disk_problem, alternating_problem_with_optimum])
def test_certificate_equals_history_replay(make, policy):
    instance, geometry = make()
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, policy=policy,
                       record_history=True)
    report = run(instance, geometry, config)
    reference = instance.known_optimum[0]
    replay = min(vf_gap(record.point, reference, instance.objective, geometry)
                 for record in report.history
                 if record.kind is StepKind.PRODUCTIVE)
    assert report.certificate == replay


def test_certificate_needs_nonstandard_regime_and_known_optimum():
    instance, geometry = disk_problem()
    nonstandard = RunConfig(0.1, regime=Regime.NONSTANDARD)
    assert run(instance, geometry, RunConfig(0.1)).certificate is None
    bare = dataclasses.replace(instance, known_optimum=None)
    assert run(bare, geometry, nonstandard).certificate is None
    # A reference but no productive step: the minimum over no iterates.
    instance, geometry = alternating_problem_with_optimum()
    capped = dataclasses.replace(nonstandard, max_iterations=1)
    report = run(instance, geometry, capped)
    assert report.productive_count == 0
    assert report.certificate == math.inf


def test_run_rejects_dimension_mismatch():
    instance, _ = disk_problem()
    with pytest.raises(ValueError):
        run(instance, EuclideanSpace([0.0], 1.0), RunConfig(0.1))


def test_run_rejects_plain_dict_config():
    instance, geometry = disk_problem()
    with pytest.raises(TypeError):
        run(instance, geometry, {"epsilon": 0.1})


# ------------------------------------------------------------ gap functions


def test_vf_gap_zero_subgradient():
    space = EuclideanSpace(np.zeros(2), 1.0)
    oracle = AbsAffinePlusOracle([1.0, 0.0])
    # x sits on the kink, so the subgradient is zero
    assert vf_gap([0.0, 3.0], [1.0, 1.0], oracle, space) == 0.0


def test_vf_gap_coincident_points():
    space = EuclideanSpace(np.zeros(2), 1.0)
    oracle = AffineOracle([2.0, 1.0])
    assert vf_gap([1.0, 1.0], [1.0, 1.0], oracle, space) == 0.0


def test_vf_gap_normalized_projection():
    space = EuclideanSpace(np.zeros(2), 1.0)
    oracle = AffineOracle([1.0, 0.0])
    assert vf_gap([2.0, 0.0], [0.0, 0.0], oracle, space) == 2.0


def test_vf_gap_bounded_by_distance():
    rng = np.random.default_rng(31)
    space = EuclideanSpace(np.zeros(3), 1.0)
    oracle = QuadraticOracle(np.eye(3), [1.0, 0.0, -1.0])
    for _ in range(200):
        x = rng.uniform(-4.0, 4.0, 3)
        y = rng.uniform(-4.0, 4.0, 3)
        gap = vf_gap(x, y, oracle, space)
        assert abs(gap) <= math.sqrt(float((x - y) @ (x - y))) + 1e-12


# ------------------------------------------------------------------- bounds


def test_iteration_bound_lipschitz():
    assert iteration_bound(3.0, 2.0, 2.0, 0.1, Regime.LIPSCHITZ) == 7200


def test_iteration_bound_nonstandard_small_constants():
    # constants below one are clamped: max(1, m_g^2)
    assert iteration_bound(None, 1.0, 1.0, 1.0, Regime.NONSTANDARD) == 2
    assert iteration_bound(None, 0.5, 1.0, 1.0, Regime.NONSTANDARD) == 2


def test_iteration_bound_nonstandard():
    assert iteration_bound(None, 2.0, 2.0, 1.0, Regime.NONSTANDARD) == 32


def test_iteration_bound_requires_m_f_for_lipschitz():
    with pytest.raises(ValueError):
        iteration_bound(None, 2.0, 2.0, 0.1, Regime.LIPSCHITZ)


def test_iteration_bound_validates_inputs():
    with pytest.raises(ValueError):
        iteration_bound(1.0, -1.0, 1.0, 0.1, Regime.LIPSCHITZ)
    with pytest.raises(ValueError):
        iteration_bound(1.0, 1.0, 0.0, 0.1, Regime.LIPSCHITZ)


def test_corollary_bound_values():
    assert corollary_bound(0.0, 2.0, 0.1) == pytest.approx(0.01, rel=1e-15)
    assert corollary_bound(1.0, 1.0, 1.0) == 1.5
    # smooth-case gap bound for a large gradient-Lipschitz constant
    assert corollary_bound(0.0, 2.0 * 5.0**10, 0.05) == 24414.0625


def test_corollary_bound_validates_inputs():
    with pytest.raises(ValueError):
        corollary_bound(-1.0, 1.0, 0.1)
    with pytest.raises(ValueError):
        corollary_bound(0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        corollary_bound(0.0, 1.0, -0.1)
