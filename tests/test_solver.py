"""Unit tests for the adaptive mirror-descent engine."""

import dataclasses
import math
import warnings
from unittest import mock

import numpy as np
import pytest

from mirropt import (
    AbsAffinePlusOracle,
    AffineOracle,
    BenchmarkExample,
    EuclideanBall,
    EntropySimplex,
    EuclideanSpace,
    EvaluationError,
    ExperimentSettings,
    MaxOracle,
    Oracle,
    Policy,
    ProblemInstance,
    QuadraticOracle,
    Regime,
    RunConfig,
    StepKind,
    StopReason,
    build_example,
    corollary_bound,
    default_geometry,
    iteration_bound,
    max_violation,
    run,
    verify_example,
    vf_gap,
)
from mirropt import solver

from differential import (
    SteppedSpace,
    assert_bitwise_equal,
    counted_mirror_steps,
    run_both,
    run_tabled,
    stepwise,
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


@pytest.mark.parametrize("policy", list(Policy))
def test_negative_infinite_constraint_value_raises(policy):
    # -inf is no more a value than +inf: every policy rejects it, where the
    # max-based policies used to read it as satisfied
    constraints = [_BadValueOracle(-math.inf), AffineOracle([0.0, 1.0], -1.0)]
    instance = ProblemInstance(2, AffineOracle([1.0, 1.0]), constraints)
    config = RunConfig(0.05, policy=policy, max_iterations=1000)
    with pytest.raises(EvaluationError):
        run(instance, EuclideanSpace([0.0, 0.0], 1.0), config)


# ---------------------------------------------- batched non-productive runs


_BATCHED_POLICIES = [Policy.AGGREGATE_MAX, Policy.MAX_VIOLATION,
                     Policy.FIRST_VIOLATED]


def _random_affine_instance(seed):
    """Random affine constraints feasible at the origin, violated at the start,
    and a quadratic or max-affine objective."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    constraints = [AffineOracle(rng.standard_normal(n), -rng.uniform(0.0, 0.5))
                   for _ in range(m)]
    if seed % 2:
        objective = QuadraticOracle(np.eye(n), rng.standard_normal(n))
    else:
        objective = MaxOracle([AffineOracle(rng.standard_normal(n)) for _ in range(3)])
    anchor = 10.0 * rng.standard_normal(n)
    instance = ProblemInstance(n, objective, constraints)
    return instance, anchor, float(np.linalg.norm(anchor)) + 0.5


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_runs_equal_stepwise_runs_on_random_instances(policy, regime,
                                                              record_history):
    batched_steps = 0
    for seed in range(8):
        instance, anchor, theta0 = _random_affine_instance(seed)
        config = RunConfig(0.05, regime=regime, policy=policy,
                           max_iterations=4000, record_history=record_history)
        batched, stepped, calls = run_both(instance, anchor, theta0, config)
        assert_bitwise_equal(batched, stepped)
        batched_steps += batched.total_steps - calls
    # the opening constraint phases were batched
    assert batched_steps > 1000


@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_run_stops_on_the_criterion_inside_a_batch(policy):
    # 2 theta0^2 / eps^2 = 512 steps of weight 1: the criterion fires on a
    # constraint step deep inside a batch
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0)])
    config = RunConfig(2.0**-4, policy=policy, record_history=True)
    batched, stepped, calls = run_both(instance, [100.0, 0.0], 1.0, config)
    assert_bitwise_equal(batched, stepped)
    assert batched.stop_reason is StopReason.CRITERION_MET
    assert batched.total_steps == batched.nonproductive_count == 512
    assert calls < 20


@pytest.mark.parametrize("cap", [3, 40, 200])
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_run_stops_at_the_cap_inside_a_batch(policy, cap):
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0)])
    config = RunConfig(2.0**-4, policy=policy, max_iterations=cap,
                       record_history=True)
    batched, stepped, calls = run_both(instance, [100.0, 0.0], 10.0, config)
    assert_bitwise_equal(batched, stepped)
    assert batched.stop_reason is StopReason.ITERATION_CAP
    assert batched.total_steps == cap
    assert calls < min(cap, 20)


@pytest.mark.parametrize("sitting", [False, True])
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_run_stops_where_a_value_equals_epsilon(policy, sitting):
    # dyadic throughout: with eps = 1/16 the run on x_1 - 1 from (5, 0)
    # reaches value eps exactly after 63 steps; a constraint sitting at eps
    # all along before it refuses every first-violated batch
    constraints = [AffineOracle([1.0, 0.0], -1.0)]
    if sitting:
        constraints.insert(0, AffineOracle([0.0, 1.0], 2.0**-4))
    instance = ProblemInstance(2, AffineOracle([-1.0, 0.0]), constraints)
    config = RunConfig(2.0**-4, policy=policy, max_iterations=200,
                       record_history=True)
    batched, stepped, calls = run_both(instance, [5.0, 0.0], 1.0, config)
    assert_bitwise_equal(batched, stepped)
    kinds = [r.kind for r in batched.history]
    assert kinds[:64] == [StepKind.NONPRODUCTIVE] * 63 + [StepKind.PRODUCTIVE]
    if sitting and policy is Policy.FIRST_VIOLATED:
        assert calls == batched.total_steps
    else:
        assert calls < batched.total_steps - 50


@pytest.mark.parametrize("offset", [0.0, 1.0], ids=["duplicate", "one-ulp"])
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_runs_with_near_tied_constraints(policy, offset):
    # two copies of one row, the second's offset equal or one ulp higher:
    # the selector's ties are decided by the stepwise engine
    base = -1.0
    tied = np.nextafter(base, 0.0) if offset else base
    instance = ProblemInstance(
        2, AffineOracle([0.0, 1.0]),
        [AffineOracle([1.0, 1.0], base), AffineOracle([1.0, 1.0], tied),
         AffineOracle([1.0, 0.0], -2.0)])
    for regime in Regime:
        config = RunConfig(0.05, regime=regime, policy=policy,
                           max_iterations=3000, record_history=True)
        batched, stepped, _ = run_both(instance, [20.0, 5.0], 5.0, config)
        assert_bitwise_equal(batched, stepped)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("first", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_run_meets_overflow_as_the_stepwise_run_does(policy, first):
    # Steps along -(1, 1) from the origin keep x_1 = x_2, so the second
    # constraint's products cancel exactly, to 0, until they overflow near
    # step 10240 (x_1 = -2^28); the sum is then NaN or an infinity, by the
    # matrix-vector product's summation order, and any of them raises the
    # same error in both runs.  Rounding on products near 2^1000 swamps the
    # margins, so batches stop short of the overflow.
    descended = AffineOracle([2.0**-20, 2.0**-20], 1000.0)
    overflowing = AffineOracle([2.0**996, -(2.0**996)], 0.0)
    constraints = [overflowing, descended] if first else [descended, overflowing]
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]), constraints)
    config = RunConfig(0.05, policy=policy, max_iterations=11_000,
                       record_history=True)
    spaces = [EuclideanSpace([0.0, 0.0], 1e7), SteppedSpace([0.0, 0.0], 1e7)]
    calls = [counted_mirror_steps(space) for space in spaces]
    # With no override set, the third run takes table-driven steps as well.
    spaces.append(EuclideanSpace([0.0, 0.0], 1e7))
    outcomes = []
    for space in spaces:
        try:
            outcomes.append(run(instance, space, config))
        except EvaluationError as error:
            outcomes.append(str(error))
    batched, stepped, tabled = outcomes
    assert isinstance(stepped, str)
    assert batched == stepped == tabled
    assert calls[1][0] > 10_000


def _counted_batches(monkeypatch):
    """(rows asked, rows taken) of every ``_AffineRuns.advance`` call."""
    batches = []
    inner = solver._AffineRuns.advance

    def counted(self, x, q, i, rows):
        block, count = inner(self, x, q, i, rows)
        batches.append((rows, count))
        return block, count

    monkeypatch.setattr(solver._AffineRuns, "advance", counted)
    return batches


@pytest.mark.parametrize("example_id, policy", [
    (4, Policy.FIRST_VIOLATED), (4, Policy.AGGREGATE_MAX),
    (1, Policy.AGGREGATE_MAX)])
def test_batches_take_every_row_they_ask_for(monkeypatch, example_id, policy):
    # each batch is as long as the run is computed to last, so the rounding
    # margins refuse none of its rows
    batches = _counted_batches(monkeypatch)
    example = build_example(example_id)
    config = RunConfig(example.settings.epsilon, policy=policy)
    report = run(example.instance, default_geometry(example), config)
    assert report.stop_reason is StopReason.CRITERION_MET
    assert batches
    assert all(count == rows for rows, count in batches)
    assert sum(count for _, count in batches) > 0.9 * report.nonproductive_count


@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_run_beside_a_constraint_at_epsilon_is_batched_at_most_once(monkeypatch,
                                                                    policy):
    # as in test_batched_run_stops_where_a_value_equals_epsilon, with a
    # 511-step run: under first-violated the constraint sitting at eps
    # refuses the run's one batch, which ends batching for the run; the
    # other policies take the run in one batch
    batches = _counted_batches(monkeypatch)
    constraints = [AffineOracle([0.0, 1.0], 2.0**-4), AffineOracle([1.0, 0.0], -1.0)]
    instance = ProblemInstance(2, AffineOracle([-1.0, 0.0]), constraints)
    config = RunConfig(2.0**-4, policy=policy, record_history=True)
    batched, stepped, calls = run_both(instance, [33.0, 0.0], 1.0, config)
    assert_bitwise_equal(batched, stepped)
    assert batched.total_steps == 512
    assert batched.nonproductive_count == 511
    assert len(batches) == 1
    if policy is Policy.FIRST_VIOLATED:
        assert batches == [(509, 0)]
        assert calls == batched.total_steps
    else:
        assert batches == [(509, 509)]


@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_run_tables_of_zero_and_overflowing_rows_raise_no_warning(policy):
    # a zero row and a row whose products overflow get no batches (NaN),
    # the others a finite length, and computing them warns of nothing
    rows = [[0.0, 0.0], [2.0**996, -(2.0**996)], [2.0**-20, 2.0**-20], [1.0, 0.0]]
    bank = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                           [AffineOracle(a, 1.0) for a in rows]).constraint_bank()
    runs = solver._AffineRuns(bank, RunConfig(0.05, policy=policy))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lengths = [runs.length(np.zeros(2), i) for i in range(len(rows))]
    assert math.isnan(lengths[0]) and math.isnan(lengths[1])
    assert all(math.isfinite(length) for length in lengths[2:])


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_batched_runs_beside_a_zero_constraint_row(policy, regime):
    # a satisfied zero row is tabled with the others and never ends a run
    constraints = [AffineOracle([0.0, 0.0], -1.0), AffineOracle([1.0, 0.0], -1.0)]
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]), constraints)
    config = RunConfig(2.0**-4, regime=regime, policy=policy, record_history=True)
    batched, stepped, calls = run_both(instance, [100.0, 0.0], 1.0, config)
    assert_bitwise_equal(batched, stepped)
    assert batched.nonproductive_count == 512
    assert calls < 5


# ------------------------------------------------------- table-driven steps


_GEOMETRIES = ["space", "ball", "simplex"]


def _random_tabled_instance(seed, geometry="space"):
    """Random affine constraints feasible at a point of the geometry's set
    (the origin, or the simplex's first vertex), that point as known
    optimum, and a lone affine objective or a max of affine pieces with a
    duplicate and a constant (zero-gradient) piece; and the geometry: a
    Euclidean space or a ball around the origin, from a start that violates
    the constraints, or the simplex."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, 9))
    feasible = np.zeros(n)
    if geometry == "simplex":
        feasible[0] = 1.0
    constraints = []
    for _ in range(m):
        a = rng.standard_normal(n)
        constraints.append(AffineOracle(a, -float(a @ feasible) - rng.uniform(0.0, 0.5)))
    if seed % 2:
        objective = AffineOracle(rng.standard_normal(n), rng.standard_normal())
    else:
        pieces = [AffineOracle(rng.standard_normal(n), rng.standard_normal())
                  for _ in range(3)]
        pieces.insert(1, pieces[0])
        pieces.append(AffineOracle(np.zeros(n), -rng.uniform(0.5, 2.0)))
        objective = MaxOracle(pieces)
    instance = ProblemInstance(n, objective, constraints,
                               known_optimum=(feasible, objective.value(feasible)))
    anchor = 10.0 * rng.standard_normal(n)
    theta0 = float(np.linalg.norm(anchor)) + 0.5
    if geometry == "space":
        return instance, EuclideanSpace(anchor, theta0)
    if geometry == "ball":
        return instance, EuclideanBall(np.zeros(n), theta0, theta0, anchor)
    return instance, EntropySimplex(n, 1.0)


def _table_rows(instance):
    """Affine members a run tables: the constraint rows, and the pieces of
    a max-affine objective."""
    objective = instance.objective
    pieces = len(objective.children) if type(objective) is MaxOracle else 0
    return len(instance.constraint_bank().oracles) + pieces


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", list(Policy))
@pytest.mark.parametrize("geometry", _GEOMETRIES)
def test_table_steps_equal_stepwise_steps_on_random_instances(geometry, policy, regime,
                                                              record_history):
    stops = set()
    for seed in range(8):
        instance, space = _random_tabled_instance(seed, geometry)
        config = RunConfig(0.05, regime=regime, policy=policy,
                           max_iterations=4000, record_history=record_history)
        fast, stepped, calls = run_tabled(instance, space, config)
        assert_bitwise_equal(fast, stepped)
        # every step was a table step or a batched one, but the productive
        # steps on a lone affine objective, which call its oracle
        expected = _table_rows(instance)
        if type(instance.objective) is AffineOracle:
            expected += fast.productive_count
        assert calls == expected
        stops.add(fast.stop_reason)
    # Euclidean runs reach the constant piece, simplex runs the criterion
    assert (StopReason.CRITERION_MET if geometry == "simplex"
            else StopReason.ZERO_OBJECTIVE_GRADIENT) in stops


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", list(Policy))
def test_table_steps_break_piece_ties_and_stop_on_a_zero_piece(policy, regime):
    # At the origin the first two pieces tie at 0: the first (norm 5) is
    # taken.  Once both fall below -1, the constant piece is the max.
    objective = MaxOracle([AffineOracle([3.0, 4.0]), AffineOracle([1.0, 0.0]),
                           AffineOracle([0.0, 0.0], -1.0)])
    instance = ProblemInstance(2, objective, [AffineOracle([0.0, -1.0], -1.0)],
                               known_optimum=([-1.0, 0.0], -1.0))
    config = RunConfig(0.05, regime=regime, policy=policy, record_history=True)
    fast, stepped, calls = run_tabled(instance, EuclideanSpace([0.0, 0.0], 1.0), config)
    assert_bitwise_equal(fast, stepped)
    assert calls == _table_rows(instance) == 4
    assert fast.history[0].grad_dual_norm == 5.0
    assert fast.stop_reason is StopReason.ZERO_OBJECTIVE_GRADIENT


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_table_steps_stop_on_a_zero_constraint_row(policy, regime):
    # once the first constraint is met, the constant one (0.5 > eps) is the
    # violated row, and no step can decrease it
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0),
                                AffineOracle([0.0, 0.0], 0.5)])
    config = RunConfig(0.05, regime=regime, policy=policy, record_history=True)
    fast, stepped, calls = run_tabled(instance, EuclideanSpace([20.0, 0.0], 5.0), config)
    assert_bitwise_equal(fast, stepped)
    assert fast.productive_count == 0
    assert calls == _table_rows(instance) == 2
    assert fast.stop_reason is StopReason.INFEASIBLE_CONSTRAINT
    assert fast.total_steps > 300


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("violated", [False, True])
def test_min_dual_norm_meets_a_row_of_infinite_dual_norm(violated):
    # The first row's squared norm 2^1201 overflows, so its dual norm, in
    # the table as in the stepwise call, is inf.  Violated at the start, it
    # is a broken subgradient; kept below x_1 + x_2 <= 100, it is never
    # looked at.
    huge = AffineOracle([2.0**600, 2.0**600], 2.0**600 * (-6.0 if violated else -100.0))
    instance = ProblemInstance(
        2, MaxOracle([AffineOracle([0.0, 1.0]), AffineOracle([0.0, 0.0], -1.0)]),
        [huge, AffineOracle([1.0, 0.0], -1.0)])
    config = RunConfig(0.05, policy=Policy.MIN_DUAL_NORM, record_history=True)
    space = EuclideanSpace([5.0, 2.0], 5.0)
    if violated:
        for geometry in (space, stepwise(space)):
            with pytest.raises(EvaluationError):
                run(instance, geometry, config)
        return
    fast, stepped, calls = run_tabled(instance, space, config)
    assert_bitwise_equal(fast, stepped)
    assert calls == _table_rows(instance) == 4
    assert fast.nonproductive_count > 0
    assert fast.stop_reason is StopReason.ZERO_OBJECTIVE_GRADIENT


@pytest.mark.parametrize("policy", [Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED])
@pytest.mark.parametrize("regime", list(Regime))
def test_table_steps_equal_stepwise_steps_on_example_6(regime, policy):
    # each cap lies past its policy's constraint phase: 172 820 steps under
    # aggregate-max, 17 254 under first-violated
    example = build_example(6)
    settings = example.settings
    cap = 180_000 if policy is Policy.AGGREGATE_MAX else 30_000
    config = RunConfig(settings.epsilon, regime=regime, policy=policy,
                       max_iterations=cap)
    fast, stepped, calls = run_tabled(example.instance,
                                      EuclideanSpace(settings.x0, settings.theta0), config)
    assert_bitwise_equal(fast, stepped)
    assert calls == _table_rows(example.instance) == 15
    assert fast.productive_count > 1000


def test_run_keeps_calling_instance_level_overrides(monkeypatch):
    # perfbench's tracer counts calls through overrides set on the
    # instances; where one is set, the run makes every call it would make
    # without table-driven steps, and only batched steps skip mirror_step
    example = build_example(6)
    instance, geometry = example.instance, default_geometry(example)
    objective = instance.objective
    calls = {"objective": 0, "mirror": 0}
    inner_objective = objective.value_and_subgradient
    inner_mirror = geometry.mirror_step

    def counted_objective(x):
        calls["objective"] += 1
        return inner_objective(x)

    def counted_mirror(x, p, h):
        calls["mirror"] += 1
        return inner_mirror(x, p, h)

    objective.value_and_subgradient = counted_objective
    geometry.mirror_step = counted_mirror
    batches = _counted_batches(monkeypatch)
    config = RunConfig(example.settings.epsilon, regime=Regime.NONSTANDARD,
                       policy=Policy.FIRST_VIOLATED)
    report = run(instance, geometry, config)
    batched = sum(count for _, count in batches)
    assert batched > 0
    # one call per productive step, and one for the output's value
    assert calls["objective"] == report.productive_count + 1
    assert calls["mirror"] == report.total_steps - batched
    fresh = build_example(6)
    assert_bitwise_equal(report, run(fresh.instance, default_geometry(fresh), config))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("space", [
    lambda anchor: EuclideanSpace(anchor, 1.0),
    lambda anchor: stepwise(EuclideanSpace(anchor, 1.0)),
    lambda anchor: EuclideanBall([0.0, 0.0], 2.0**31, 1.0, anchor),
    lambda anchor: stepwise(EuclideanBall([0.0, 0.0], 2.0**31, 1.0, anchor)),
], ids=["tabled", "stepwise", "ball-tracked", "ball-stepwise"])
@pytest.mark.parametrize("policy", list(Policy))
def test_overflowing_stacked_constraint_raises(policy, space):
    # both products of the first row are -2^1030 at the start, so its value
    # is -inf, which no policy may read as satisfied; on the ball, the bound
    # 2^1031 on that row's values is past what the tracker takes, so each
    # choice takes the stacked product
    instance = ProblemInstance(2, AffineOracle([1.0, 1.0]),
                               [AffineOracle([2.0**1000, 2.0**1000]),
                                AffineOracle([0.0, 1.0])])
    config = RunConfig(0.05, policy=policy, max_iterations=100)
    with pytest.raises(EvaluationError):
        run(instance, space([-(2.0**30), -(2.0**30)]), config)


# ------------------------------------------------ batched productive runs


def _random_max_affine_instance(seed, near_tie=False):
    """Random affine constraints feasible at the origin; a max of affine
    pieces, rows and their negatives, so bounded below, the second nearly
    the first where ``near_tie``, with a constant (zero-gradient) piece on
    odd seeds; and the Euclidean space from a random start, which violates
    the constraints on some seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    constraints = [AffineOracle(rng.standard_normal(n), -rng.uniform(0.5, 5.0))
                   for _ in range(int(rng.integers(1, 6)))]
    rows = rng.standard_normal((int(rng.integers(2, 4)), n))
    rows = np.vstack([rows, -rows])
    offsets = rng.standard_normal(rows.shape[0])
    if near_tie:
        rows[1], offsets[1] = rows[0] * (1.0 + 1e-13), offsets[0]
    pieces = [AffineOracle(a, b) for a, b in zip(rows, offsets)]
    if seed % 2:
        pieces.append(AffineOracle(np.zeros(n), rng.uniform(0.0, 1.0)))
    anchor = 4.0 * rng.standard_normal(n)
    return (ProblemInstance(n, MaxOracle(pieces), constraints),
            EuclideanSpace(anchor, float(np.linalg.norm(anchor)) + 0.5))


def _counted_productive_batches(monkeypatch):
    """Rows taken by every ``_AffineRuns.produce`` call that took any."""
    counts = []
    inner = solver._AffineRuns.produce

    def counted(self, *args):
        result = inner(self, *args)
        if result[0]:
            counts.append(result[0])
        return result

    monkeypatch.setattr(solver._AffineRuns, "produce", counted)
    return counts


@pytest.mark.parametrize("near_tie", [False, True], ids=["random", "near-tie"])
@pytest.mark.parametrize("cap", [777, 10**6])
@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_productive_batches_equal_stepwise_runs_on_random_instances(
        monkeypatch, policy, record_history, cap, near_tie):
    counts = _counted_productive_batches(monkeypatch)
    productive, stops = 0, set()
    for seed in range(1, 6):
        instance, space = _random_max_affine_instance(seed, near_tie)
        config = RunConfig(0.5, policy=policy, max_iterations=cap,
                           record_history=record_history)
        fast, stepped, _ = run_tabled(instance, space, config)
        assert_bitwise_equal(fast, stepped)
        productive += fast.productive_count
        stops.add(fast.stop_reason)
    # runs end on the cap, the criterion and the constant piece
    assert StopReason.ZERO_OBJECTIVE_GRADIENT in stops
    assert (StopReason.ITERATION_CAP if cap == 777 else StopReason.CRITERION_MET) in stops
    # history runs keep stepwise productive steps
    if record_history:
        assert not counts
    else:
        assert sum(counts) > (0.2 if near_tie else 0.5) * productive


def _productive_run(epsilon, start, cap=10**6, pieces=None, constraints=None):
    """A run down x_1 on a max of affine pieces, from ``start``."""
    instance = ProblemInstance(
        2, MaxOracle(pieces or [AffineOracle([1.0, 0.0]), AffineOracle([0.5, 0.0], -100.0)]),
        constraints or [AffineOracle([0.0, 1.0], -1.0)])
    config = RunConfig(epsilon, max_iterations=cap)
    return run_tabled(instance, EuclideanSpace(start, 1.0), config)


def test_productive_batch_stops_on_the_criterion_inside_a_batch(monkeypatch):
    # every step has weight 1, so 2 theta0^2 / eps^2 = 512 steps fire the
    # criterion, far inside the run's batches
    counts = _counted_productive_batches(monkeypatch)
    fast, stepped, _ = _productive_run(2.0**-4, [0.0, 0.0])
    assert_bitwise_equal(fast, stepped)
    assert fast.stop_reason is StopReason.CRITERION_MET
    assert fast.total_steps == fast.productive_count == 512
    assert sum(counts) > 500


@pytest.mark.parametrize("cap", [3, 40, 200])
def test_productive_batch_stops_at_the_cap_inside_a_batch(monkeypatch, cap):
    counts = _counted_productive_batches(monkeypatch)
    fast, stepped, _ = _productive_run(2.0**-4, [0.0, 0.0], cap)
    assert_bitwise_equal(fast, stepped)
    assert fast.stop_reason is StopReason.ITERATION_CAP
    assert fast.total_steps == fast.productive_count == cap
    assert sum(counts) > cap - 5


@pytest.mark.parametrize("first", [False, True], ids=["after", "before"])
def test_productive_batch_ends_before_a_zero_piece(monkeypatch, first):
    # dyadic: from x_1 = 10, steps of 1/16 reach x_1 = -1 after 176 steps,
    # where the constant piece ties the first; it wins if it comes first,
    # else one more step puts it on top
    counts = _counted_productive_batches(monkeypatch)
    pieces = [AffineOracle([1.0, 0.0]), AffineOracle([0.0, 0.0], -1.0)]
    fast, stepped, _ = _productive_run(2.0**-4, [10.0, 0.0], pieces=pieces[::-1]
                                       if first else pieces)
    assert_bitwise_equal(fast, stepped)
    assert fast.stop_reason is StopReason.ZERO_OBJECTIVE_GRADIENT
    assert fast.total_steps == (176 if first else 177)
    assert sum(counts) > 150


def test_productive_runs_meet_a_constraint_they_raise(monkeypatch):
    # the piece -x_1 drives x_1 up into x_1 <= 10: the margins end the
    # first productive phase's batches where the constraint reaches eps,
    # and the run then alternates between the two kinds of step
    counts = _counted_productive_batches(monkeypatch)
    pieces = [AffineOracle([-1.0, 0.0]), AffineOracle([0.0, -1.0], -100.0)]
    fast, stepped, _ = _productive_run(2.0**-4, [0.0, 0.0], pieces=pieces,
                                       constraints=[AffineOracle([1.0, 0.0], -10.0)])
    assert_bitwise_equal(fast, stepped)
    assert fast.nonproductive_count > 100
    assert sum(counts) > 150


def _productive_runs(pieces, constraints, policy=Policy.FIRST_VIOLATED):
    """``_AffineRuns`` batching productive steps on ``pieces``."""
    instance = ProblemInstance(2, MaxOracle(pieces), constraints)
    space = EuclideanSpace([0.0, 0.0], 1.0)
    objective = instance.objective._bank
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the dual norm of an overflowing row
        _, piece_row = solver._sources(objective, space.dual_norm, True)
    return solver._AffineRuns(instance.constraint_bank(), RunConfig(2.0**-4, policy=policy),
                              objective, piece_row)


@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_productive_batch_certifies_the_constraints(policy):
    # steps of 1/16 from 0 raise x_1 - 10 to eps at x_1 = 161/16, still a
    # productive point but without margin: the batch takes the 161 steps
    # before it, and leaves that one and the constraint step to the
    # stepwise engine
    runs = _productive_runs([AffineOracle([-1.0, 0.0]), AffineOracle([0.0, -1.0], -100.0)],
                            [AffineOracle([1.0, 0.0], -10.0)], policy)
    count, x, crit_sum, weighted, weight_sum = runs.produce(
        np.zeros(2), 1000, 0.0, math.inf, np.zeros(2), 0.0)
    assert count == 161
    assert x.tolist() == [161 / 16, 0.0]
    assert crit_sum == 161.0 and weight_sum == 161 / 16
    assert weighted.tolist() == [sum(k / 256 for k in range(161)), 0.0]


@pytest.mark.parametrize("policy", _BATCHED_POLICIES)
def test_productive_tables_of_zero_and_overflowing_pieces_raise_no_warning(policy):
    # a zero piece and one whose norm overflows end a prediction before
    # their turn; next to the overflowing piece the margins, and then the
    # bound 2^997 * |x| on its products, refuse every row; nothing warns
    rows = [[0.0, 0.0], [2.0**996, -(2.0**996)], [2.0**-20, 2.0**-20], [1.0, 0.0]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([0.0, 0.0], [1.0, 1.0], [2.0**22, 2.0**22]):
            runs = _productive_runs([AffineOracle(a, 1.0) for a in rows],
                                    [AffineOracle([0.0, 1.0], -1.0)], policy)
            assert runs.ends == [True, True, False, False]
            count, *_ = runs.produce(np.array(x), 1000, 0.0, math.inf, np.zeros(2), 0.0)
            assert count == 0


@pytest.mark.parametrize("policy", [Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED])
def test_example_6_batches_its_productive_steps(policy):
    # ordinary steps call the geometry's mirror_step; batched ones do not.
    # Productive ones step along an objective piece's (tabled) row.
    example = build_example(6)
    rows = [piece.a for piece in example.instance.objective.children]
    productive = [0]
    inner = EuclideanSpace.mirror_step

    def counted(self, x, p, h):
        productive[0] += any(p is row for row in rows)
        return inner(self, x, p, h)

    config = RunConfig(example.settings.epsilon, policy=policy)
    with mock.patch.object(EuclideanSpace, "mirror_step", counted):
        report = run(example.instance, default_geometry(example), config)
    assert report.stop_reason is StopReason.CRITERION_MET
    assert report.productive_count > 270_000
    assert productive[0] <= 0.01 * report.productive_count


# ----------------------------------------------- tracked values on the ball


def _random_ball_instance(seed, radius=1.0, lift=0.0):
    """Random affine constraints feasible at a point of a ball around an
    off-origin center and violated at the anchor, across the ball from it,
    or, where ``lift`` > 0, raised by 0.9 to 1 times ``lift``; a max of
    affine pieces with a duplicate, a lone affine or a quadratic objective,
    by seed % 3; and the ball."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    m = int(rng.integers(1, 10))
    center = rng.standard_normal(n)
    direction = rng.standard_normal(n)
    direction /= np.linalg.norm(direction)
    feasible = center + 0.5 * radius * direction
    a = (-rng.uniform(0.2, 1.0, (m, 1)) * direction
         + rng.standard_normal((m, n)) / math.sqrt(n))
    b = (-(a @ feasible) - rng.uniform(0.0, 0.1, m) * radius
         + lift * rng.uniform(0.9, 1.0, m))
    constraints = [AffineOracle(row, offset) for row, offset in zip(a, b)]
    if seed % 3 == 0:
        pieces = [AffineOracle(rng.standard_normal(n), rng.standard_normal())
                  for _ in range(3)]
        pieces.insert(1, pieces[0])
        objective = MaxOracle(pieces)
    elif seed % 3 == 1:
        objective = AffineOracle(rng.standard_normal(n), rng.standard_normal())
    else:
        objective = QuadraticOracle(np.eye(n), rng.standard_normal(n))
    optimum = None if lift else (feasible, objective.value(feasible))
    instance = ProblemInstance(n, objective, constraints, known_optimum=optimum)
    return instance, EuclideanBall(center, radius, 1.0, center - 0.9 * radius * direction)


def _ball_cell(seed, n=200, m=50, pieces=10):
    """The benchmark's synthetic ball problem at a smaller size: rows that
    point against a feasible point x* and are violated at the center of the
    unit ball, and a max of affine pieces."""
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    a = (-rng.uniform(0.2, 0.8, (m, 1)) * u[None, :]
         + rng.standard_normal((m, n)) / math.sqrt(n))
    b = -(a @ (0.5 * u)) - rng.uniform(0.005, 0.05, m)
    c = rng.standard_normal((pieces, n)) / math.sqrt(n)
    objective = MaxOracle([AffineOracle(row, offset)
                           for row, offset in zip(c, rng.uniform(-0.1, 0.1, pieces))])
    instance = ProblemInstance(n, objective, [AffineOracle(row, offset)
                                              for row, offset in zip(a, b)])
    return instance, EuclideanBall(np.zeros(n), 1.0, 2.0)


def _counted_scans(monkeypatch):
    """Calls of each bank's stacked product, by bank: the real scans that
    tracked values stand in for."""
    counts = {}
    inner = solver._sources

    def counted(bank, dual, tabled):
        scan, row = inner(bank, dual, tabled)
        if not tabled:
            return scan, row

        def counted_scan(x):
            counts[bank] = counts.get(bank, 0) + 1
            return scan(x)

        return counted_scan, row

    monkeypatch.setattr(solver, "_sources", counted)
    return counts


def _decisions(report):
    """Constraint choices a run made: one per step, and one more where a
    degenerate subgradient ended it."""
    return report.total_steps + (report.stop_reason in (
        StopReason.ZERO_OBJECTIVE_GRADIENT, StopReason.INFEASIBLE_CONSTRAINT))


@pytest.mark.parametrize("cap", [777, 10**6])
@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", list(Policy))
def test_tracked_ball_runs_equal_stepwise_runs_on_random_instances(
        monkeypatch, policy, regime, record_history, cap):
    scans = _counted_scans(monkeypatch)
    stops, tracked = set(), {0: [0, 0], 1: [0, 0], 2: [0, 0]}
    for seed in range(6):
        instance, ball = _random_ball_instance(seed)
        # about 1000 to 9000 steps: past the lower cap
        epsilon = 0.1 if regime is Regime.LIPSCHITZ else 0.05
        config = RunConfig(epsilon, regime=regime, policy=policy, max_iterations=cap,
                           record_history=record_history)
        fast, stepped, _ = run_tabled(instance, ball, config)
        assert_bitwise_equal(fast, stepped)
        stops.add(fast.stop_reason)
        counts = tracked[seed % 3]
        counts[0] += scans.pop(instance.constraint_bank())
        counts[1] += _decisions(fast)
    assert (StopReason.ITERATION_CAP if cap == 777 else StopReason.CRITERION_MET) in stops
    # a max-affine objective's runs take one real scan each, their first;
    # any other objective's productive steps are not tracked, so each is
    # followed by one
    assert tracked[0][0] == 2
    for kind in (1, 2):
        assert tracked[kind][0] < 0.9 * tracked[kind][1]


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", list(Policy))
def test_tracked_ball_runs_on_a_small_ball_project_every_step(monkeypatch, policy,
                                                             regime):
    # radius 0.01 against steps of about 0.1: every step is projected, from
    # an anchor and around a center off the origin
    scans = _counted_scans(monkeypatch)
    scales = []
    inner = EuclideanBall.scaled_step

    def recorded(self, x, p, h):
        out = inner(self, x, p, h)
        scales.append(out[1])
        return out

    monkeypatch.setattr(EuclideanBall, "scaled_step", recorded)
    mixed = 0
    for seed in range(6):
        instance, ball = _random_ball_instance(seed, radius=0.01, lift=0.1)
        assert np.abs(ball.center).min() > 0.0
        config = RunConfig(0.1, regime=regime, policy=policy)
        fast, stepped, _ = run_tabled(instance, ball, config)
        assert_bitwise_equal(fast, stepped)
        if seed % 3 == 0:
            assert scans.pop(instance.constraint_bank()) == 1
        mixed += fast.productive_count > 0 and fast.nonproductive_count > 0
    assert mixed >= 2
    assert scales and max(scales) < 1.0


@pytest.mark.parametrize("value", [0.1, np.nextafter(0.1, 0.0)], ids=["at", "one-ulp-below"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", list(Policy))
def test_a_row_held_at_epsilon_takes_the_real_scan_at_every_step(monkeypatch, policy,
                                                                 regime, value):
    # 0 . x + b is b exactly, at eps or one ulp below it: no margin certifies
    # it, so every choice takes the stacked product, and the run is the
    # stepwise one
    scans = _counted_scans(monkeypatch)
    instance, ball = _random_ball_instance(0)
    n = instance.dimension
    held = ProblemInstance(n, instance.objective,
                           [*instance.constraints, AffineOracle(np.zeros(n), value)])
    config = RunConfig(0.1, regime=regime, policy=policy)
    fast, stepped, _ = run_tabled(held, ball, config)
    assert_bitwise_equal(fast, stepped)
    assert fast.total_steps > 100
    assert scans[held.constraint_bank()] == _decisions(fast)


@pytest.mark.parametrize("offset", [0.0, 1.0], ids=["duplicate", "one-ulp"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", list(Policy))
def test_tracked_ball_runs_with_near_tied_constraints(monkeypatch, policy, regime,
                                                      offset):
    # each constraint has a twin, equal or one ulp higher in b: while a twin
    # pair tops the violated rows no margin separates the two, so the
    # stacked product decides between them
    scans = _counted_scans(monkeypatch)
    for seed in (0, 3):
        instance, ball = _random_ball_instance(seed)
        twins = [AffineOracle(c.a, np.nextafter(c.b, math.inf) if offset else c.b)
                 for c in instance.constraints]
        tied = ProblemInstance(instance.dimension, instance.objective,
                               [*instance.constraints, *twins])
        config = RunConfig(0.05, regime=regime, policy=policy, record_history=True)
        fast, stepped, _ = run_tabled(tied, ball, config)
        assert_bitwise_equal(fast, stepped)
        assert scans[tied.constraint_bank()] >= fast.nonproductive_count


@pytest.mark.parametrize("policy", list(Policy))
def test_tracked_ball_run_takes_few_real_scans(monkeypatch, policy):
    scans = _counted_scans(monkeypatch)
    instance, ball = _ball_cell(3)
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, policy=policy)
    fast, stepped, _ = run_tabled(instance, ball, config)
    assert_bitwise_equal(fast, stepped)
    assert fast.nonproductive_count > 500 and fast.productive_count > 500
    assert scans[instance.constraint_bank()] <= 0.01 * _decisions(fast)


@pytest.mark.parametrize("regime", list(Regime))
def test_tracked_values_stay_within_their_bound(monkeypatch, regime):
    # at every tracked choice the stacked product lies within e + e0 of the
    # tracked values
    instance, ball = _ball_cell(4)
    bank = instance.constraint_bank()
    checked, worst = [0], [0.0]
    inner = solver._BallTracker.scan

    def checked_scan(self, x):
        if x is self.x:
            deviation = np.abs(bank._matrix @ x + bank._offsets - self.values).max()
            bound = self.e + self.e0
            assert deviation <= bound
            checked[0] += 1
            worst[0] = max(worst[0], bound)
        return inner(self, x)

    monkeypatch.setattr(solver._BallTracker, "scan", checked_scan)
    config = RunConfig(0.05, regime=regime, policy=Policy.MAX_VIOLATION)
    report = run(instance, ball, config)
    assert checked[0] == _decisions(report) - 1
    # the bound stays far inside the margins the choices need
    assert worst[0] < 1e-9


# ------------------------------------------------------------------- config


def test_run_config_coerces_strings():
    config = RunConfig(0.1, regime="nonstandard", policy="aggregate-max")
    assert config.regime is Regime.NONSTANDARD
    assert config.policy is Policy.AGGREGATE_MAX


@pytest.mark.parametrize("eps", [0.0, -1.0, math.inf, math.nan, 1e-170])
def test_run_config_rejects_bad_epsilon(eps):
    # 1e-170: the stop target divides by eps^2, which underflows to 0
    with pytest.raises(ValueError):
        RunConfig(eps)


@pytest.mark.parametrize("cap", [0, -3, 2.7, math.inf, math.nan])
def test_run_config_rejects_bad_cap(cap):
    with pytest.raises(ValueError):
        RunConfig(0.1, max_iterations=cap)


def test_run_config_accepts_an_integral_float_cap():
    config = RunConfig(0.1, max_iterations=1e6)
    assert config.max_iterations == 1_000_000
    assert type(config.max_iterations) is int


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


@pytest.mark.parametrize("regime, objective, constraint, bound", [
    # no objective metadata: the Lipschitz regime has no bound
    (Regime.LIPSCHITZ, QuadraticOracle(np.eye(2)), AffineOracle([1.0, 0.0], -1.0), None),
    (Regime.NONSTANDARD, QuadraticOracle(np.eye(2)), AffineOracle([1.0, 0.0], -1.0), 8),
    # constraint bounds all 0
    (Regime.LIPSCHITZ, AffineOracle([1.0, 1.0]), _constant(-1.0), None),
    (Regime.NONSTANDARD, AffineOracle([1.0, 1.0]), _constant(-1.0), None),
])
def test_a_priori_bound_from_metadata(regime, objective, constraint, bound):
    instance = ProblemInstance(2, objective, [constraint])
    config = RunConfig(0.5, regime=regime, max_iterations=3)
    assert run(instance, EuclideanSpace([0.0, 0.0], 1.0), config).a_priori_bound == bound


def test_iteration_bound_validates_inputs():
    with pytest.raises(ValueError):
        iteration_bound(1.0, -1.0, 1.0, 0.1, Regime.LIPSCHITZ)
    with pytest.raises(ValueError):
        iteration_bound(1.0, 1.0, 0.0, 0.1, Regime.LIPSCHITZ)


@pytest.mark.parametrize("regime", list(Regime))
def test_iteration_bound_rejects_an_epsilon_whose_square_underflows(regime):
    with pytest.raises(ValueError):
        iteration_bound(1.0, 1.0, 1.0, 1e-170, regime)


@pytest.mark.parametrize("regime", list(Regime))
def test_iteration_bound_that_overflows_raises(regime):
    with pytest.raises(ValueError):
        iteration_bound(1.0, 1e200, 1.0, 0.05, regime)


def test_a_priori_bound_that_overflows_is_none():
    # m_g^2 overflows; the run still reports
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0, lipschitz_value=1e200)])
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, max_iterations=5)
    report = run(instance, EuclideanSpace([0.0, 0.0], 1.0), config)
    assert report.a_priori_bound is None
    assert report.total_steps == 5


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
