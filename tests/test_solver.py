"""Unit tests for the adaptive mirror-descent engine."""

import dataclasses
import itertools
import math
import operator
import warnings
from collections.abc import Sequence
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

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
    OracleBank,
    Policy,
    ProblemInstance,
    QuadraticOracle,
    Regime,
    RunConfig,
    StepHistory,
    StepKind,
    StopReason,
    build_example,
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
    assert_same_record,
    count_calls,
    quadratic_pieces,
    run_both,
    stepwise,
    stepwise_instance,
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
    return next(iter(report.history)), report.output_point


def _affine_pair(first: float, second: float) -> list[AffineOracle]:
    """Two constraints with values ``first``, ``second`` at the origin."""
    return [AffineOracle([1.0, 0.0], first), AffineOracle([0.0, 1.0], second)]


# the policies as a caller may name them: RunConfig resolves the name
# max-violation to aggregate-max, so every run is checked under it too
_POLICY_NAMES = [*Policy, "max-violation"]


@pytest.mark.parametrize("policy", _POLICY_NAMES)
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


@pytest.mark.parametrize("policy", [Policy.AGGREGATE_MAX, "max-violation"])
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


@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_boundary_value_is_not_violated(policy):
    # g(x) = epsilon exactly does not trigger a non-productive step
    record, _ = _first_step([AffineOracle([1.0, 0.0], 0.05)], policy)
    assert record.kind is StepKind.PRODUCTIVE


@pytest.mark.parametrize("bad", [_BadValueOracle(math.nan), _BadValueOracle(math.inf),
                                 _BadSubgradientOracle(math.inf),
                                 _BadSubgradientOracle(math.nan)],
                         ids=["nan-value", "inf-value", "inf-subgradient",
                              "nan-subgradient"])
@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_nonfinite_constraint_raises_in_run(policy, bad):
    # the satisfied second constraint must never be picked in its place
    constraints = [bad, _constant(-5.0)]
    instance = ProblemInstance(2, AffineOracle([1.0, 1.0]), constraints)
    config = RunConfig(0.05, policy=policy, max_iterations=50)
    with pytest.raises(EvaluationError):
        run(instance, EuclideanSpace([0.0, 0.0], 1.0), config)


@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_negative_infinite_constraint_value_raises(policy):
    # -inf is no more a value than +inf: every policy rejects it, where the
    # max-based policies used to read it as satisfied
    constraints = [_BadValueOracle(-math.inf), AffineOracle([0.0, 1.0], -1.0)]
    instance = ProblemInstance(2, AffineOracle([1.0, 1.0]), constraints)
    config = RunConfig(0.05, policy=policy, max_iterations=1000)
    with pytest.raises(EvaluationError):
        run(instance, EuclideanSpace([0.0, 0.0], 1.0), config)


# ---------------------------------------------- batched non-productive runs


_BATCHED_POLICIES = [Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED]
_BATCHED_POLICY_NAMES = [*_BATCHED_POLICIES, "max-violation"]


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
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_batched_runs_equal_stepwise_runs_on_random_instances(policy, regime,
                                                              record_history):
    batched_steps = 0
    for seed in range(8):
        instance, anchor, theta0 = _random_affine_instance(seed)
        config = RunConfig(0.05, regime=regime, policy=policy,
                           max_iterations=4000, record_history=record_history)
        batched, stepped, calls = run_both(instance, EuclideanSpace(anchor, theta0), config)
        assert_bitwise_equal(batched, stepped)
        batched_steps += batched.total_steps - calls
    # the opening constraint phases were batched
    assert batched_steps > 1000


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_batched_run_stops_on_the_criterion_inside_a_batch(policy):
    # 2 theta0^2 / eps^2 = 512 steps of weight 1: the criterion fires on a
    # constraint step deep inside a batch
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0)])
    config = RunConfig(2.0**-4, policy=policy, record_history=True)
    batched, stepped, calls = run_both(instance, EuclideanSpace([100.0, 0.0], 1.0), config)
    assert_bitwise_equal(batched, stepped)
    assert batched.stop_reason is StopReason.CRITERION_MET
    assert batched.total_steps == batched.nonproductive_count == 512
    assert calls < 20


@pytest.mark.parametrize("cap", [3, 40, 200])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_batched_run_stops_at_the_cap_inside_a_batch(policy, cap):
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0)])
    config = RunConfig(2.0**-4, policy=policy, max_iterations=cap,
                       record_history=True)
    batched, stepped, calls = run_both(instance, EuclideanSpace([100.0, 0.0], 10.0), config)
    assert_bitwise_equal(batched, stepped)
    assert batched.stop_reason is StopReason.ITERATION_CAP
    assert batched.total_steps == cap
    assert calls < min(cap, 20)


@pytest.mark.parametrize("sitting", [False, True])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
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
    batched, stepped, calls = run_both(instance, EuclideanSpace([5.0, 0.0], 1.0), config)
    assert_bitwise_equal(batched, stepped)
    kinds = [r.kind for r in batched.history]
    assert kinds[:64] == [StepKind.NONPRODUCTIVE] * 63 + [StepKind.PRODUCTIVE]
    if sitting and policy is Policy.FIRST_VIOLATED:
        assert calls == batched.total_steps
    else:
        assert calls < batched.total_steps - 50


@pytest.mark.parametrize("offset", [0.0, 1.0], ids=["duplicate", "one-ulp"])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
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
        batched, stepped, _ = run_both(instance, EuclideanSpace([20.0, 5.0], 5.0), config)
        assert_bitwise_equal(batched, stepped)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.parametrize("first", [False, True], ids=["after", "before"])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
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
    calls = count_calls(spaces[1], "mirror_step")
    outcomes = []
    for space in spaces:
        try:
            outcomes.append(run(instance, space, config))
        except EvaluationError as error:
            outcomes.append(str(error))
    batched, stepped = outcomes
    assert isinstance(stepped, str)
    assert batched == stepped
    assert calls[0] > 10_000


def _counted_batches(monkeypatch):
    """(rows asked, rows taken) of every block ``_AffineRuns._certify``
    checks: every chain's, every productive batch's and every one-run block
    a test builds (``_one_run_block``)."""
    batches = []
    inner = solver._AffineRuns._certify

    def counted(self, block, labels, rows):
        count = inner(self, block, labels, rows)
        batches.append((rows, count))
        return count

    monkeypatch.setattr(solver._AffineRuns, "_certify", counted)
    return batches


@pytest.mark.parametrize("example_id, regime, policy", [
    (4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED), (4, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX),
    (1, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX), (1, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED),
    (5, Regime.NONSTANDARD, Policy.FIRST_VIOLATED),
    (6, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX), (6, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)])
def test_batches_take_every_row_they_ask_for(monkeypatch, example_id, regime, policy):
    # each chain is as long as its runs are computed to last, so the
    # rounding margins refuse none of its rows
    batches = _counted_batches(monkeypatch)
    example = build_example(example_id)
    config = RunConfig(example.settings.epsilon, regime=regime, policy=policy)
    report = run(example.instance, default_geometry(example), config)
    assert report.stop_reason is StopReason.CRITERION_MET
    assert batches
    assert all(count == rows for rows, count in batches)
    assert sum(count for _, count in batches) > 0.9 * report.nonproductive_count


@pytest.mark.parametrize("example_id, policy", [
    (6, Policy.AGGREGATE_MAX), (6, Policy.FIRST_VIOLATED), (4, Policy.FIRST_VIOLATED)])
def test_block_products_in_chunks_take_the_rows_of_one_product(monkeypatch, example_id,
                                                                policy):
    # ex 6's productive blocks of up to 4369 rows and ex 4 first-violated's
    # chain of 6553 rows over two constraints, their products taken whole,
    # in the chunks of _PRODUCT_MACS multiply-adds and in chunks of three
    # columns: every block takes the same rows, and the runs are bitwise equal
    batches = _counted_batches(monkeypatch)
    example = build_example(example_id)
    config = RunConfig(example.settings.epsilon, policy=policy)
    # multiply-adds per column: n times the 10 constraints and ex 6's 5 pieces
    width = example.instance.dimension * (15 if example_id == 6 else 10)
    outcomes = []
    for macs in (1 << 30, solver._PRODUCT_MACS, 3 * width):
        monkeypatch.setattr(solver, "_PRODUCT_MACS", macs)
        batches.clear()
        report = run(example.instance, default_geometry(example), config)
        outcomes.append((report, list(batches)))
    (whole, rows), *chunked = outcomes
    assert max(asked for asked, _ in rows) > solver._PRODUCT_MACS // width
    for report, taken in chunked:
        assert_bitwise_equal(report, whole)
        assert taken == rows


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
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
    batched, stepped, calls = run_both(instance, EuclideanSpace([33.0, 0.0], 1.0), config)
    assert_bitwise_equal(batched, stepped)
    assert batched.total_steps == 512
    assert batched.nonproductive_count == 511
    assert len(batches) == 1
    if policy is Policy.FIRST_VIOLATED:
        assert batches == [(509, 0)]
        assert calls == batched.total_steps
    else:
        assert batches == [(509, 509)]


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_run_tables_of_zero_and_overflowing_rows_raise_no_warning(policy):
    # a zero row and a row whose products overflow predict no chain, the
    # others finite ones, which end before the zero row or the overflowing
    # one; predicting warns of nothing and divides by no zero
    rows = [[0.0, 0.0], [2.0**996, -(2.0**996)], [2.0**-20, 2.0**-20], [1.0, 0.0]]
    bank = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                           [AffineOracle(a, 1.0 + (k > 1)) for k, a in enumerate(rows)]
                           ).constraint_bank()
    _, row = solver._sources(bank, EuclideanSpace(np.zeros(2), 1.0).dual_norm)
    runs = solver._AffineRuns(bank, RunConfig(0.05, policy=policy), row)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in ([0.0, 0.0], [1.0, 1.0], [2.0**22, -(2.0**22)]):
            chains = [runs.predict(np.array(x), i, 10**9) for i in range(len(rows))]
            assert chains[0] == chains[1] == []
            assert any(chains[2:])
            for chain in chains[2:]:
                assert all(j >= 2 and 0 < count < 10**9 for j, count in chain)


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_batched_runs_beside_a_zero_constraint_row(policy, regime):
    # a satisfied zero row is tabled with the others and never ends a run
    constraints = [AffineOracle([0.0, 0.0], -1.0), AffineOracle([1.0, 0.0], -1.0)]
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]), constraints)
    config = RunConfig(2.0**-4, regime=regime, policy=policy, record_history=True)
    batched, stepped, calls = run_both(instance, EuclideanSpace([100.0, 0.0], 1.0), config)
    assert_bitwise_equal(batched, stepped)
    assert batched.nonproductive_count == 512
    assert calls < 5


def _counted_chains(monkeypatch):
    """Per ``_AffineRuns.chain`` call that took a step: the constraints of
    its runs, their lengths, and whether it took every row it asked for."""
    chains = []
    inner = solver._AffineRuns.chain

    def counted(self, *args):
        result = inner(self, *args)
        taken, complete = result[3:]
        if taken:
            chains.append(([i for i, _, _ in taken], [count for *_, count in taken],
                           complete))
        return result

    monkeypatch.setattr(solver._AffineRuns, "chain", counted)
    return chains


@pytest.mark.parametrize("budget, made, multi_run, ordinary", [
    pytest.param(1 << 14, 1324, 661, 4007, id="2^14"),
    pytest.param(1 << 16, 1316, 659, 3999, id="2^16")])
def test_example_1_first_violated_chains_its_staircase(monkeypatch, budget, made, multi_run,
                                                       ordinary):
    # between productive steps ex 1 L first-violated climbs the constraints
    # in runs of 1 to 10: at a block budget of 2^14 floats, 1324 chains, 661
    # of them over several constraints, leave 4007 of the 261800 steps
    # ordinary (15676 with a batch per run); 2^16 cuts fewer long runs
    monkeypatch.setattr(solver, "_BLOCK_FLOATS", budget)
    chains = _counted_chains(monkeypatch)
    example = build_example(1)
    config = RunConfig(example.settings.epsilon, policy=Policy.FIRST_VIOLATED)
    report = run(example.instance, default_geometry(example), config)
    assert report.total_steps == 261_800
    assert len(chains) == made
    assert sum(len(constraints) > 1 for constraints, _, _ in chains) == multi_run
    assert all(complete for *_, complete in chains)
    taken = sum(sum(lengths) for _, lengths, _ in chains)
    assert report.total_steps - taken == ordinary
    # the policy's staircase: each chain climbs to higher constraints
    assert all(constraints == sorted(set(constraints)) for constraints, _, _ in chains)


def _staircase():
    """Constraints x_1 + k x_2 <= 0, k = 1..4, and the objective -x_1 - x_2,
    from (3.1, 5.07): a step on row k lowers every row, the higher ones
    least, so first-violated climbs the rows one run at a time."""
    constraints = [AffineOracle([1.0, float(k)], 0.0) for k in range(1, 5)]
    instance = ProblemInstance(2, AffineOracle([-1.0, -1.0]), constraints)
    return instance, EuclideanSpace([3.1, 5.07], 4.0)


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_a_chain_descends_a_staircase_of_constraints(monkeypatch, policy, record_history):
    chains = _counted_chains(monkeypatch)
    instance, space = _staircase()
    config = RunConfig(2.0**-4, policy=policy, max_iterations=400,
                       record_history=record_history)
    batched, stepped, _ = run_both(instance, space, config)
    assert_bitwise_equal(batched, stepped)
    if policy is Policy.FIRST_VIOLATED:
        assert chains[0] == ([0, 1, 2, 3], [128, 16, 10, 7], True)
    else:
        assert chains[0] == ([3, 0], [343, 29], True)


def test_a_multi_constraint_chain_is_read_back_step_by_step():
    # every record of the staircase's chains, in a pass, against the
    # stepwise run's
    instance, space = _staircase()
    config = RunConfig(2.0**-4, policy=Policy.FIRST_VIOLATED, max_iterations=400,
                       record_history=True)
    batched, stepped, _ = run_both(instance, space, config)
    records = list(batched.history)
    # the chain's four runs: one segment each
    assert [(s.index, s.count) for s in _segments(batched.history)[:4]] == [
        (2, 128), (130, 16), (146, 10), (156, 7)]
    assert [records[k].constraint_index for k in (2, 129, 130, 145, 146, 155, 156, 162)] == [
        1, 1, 2, 2, 3, 3, 4, 4]
    for a, b in zip(records, stepped.history, strict=True):
        assert_same_record(a, b)


def _dyadic_pair(second):
    """Constraints x_1 <= 1 and ``second`` . x <= 1, the objective -x_1 - x_2,
    and the space at (5, 3): with eps = 1/16 every step is dyadic."""
    instance = ProblemInstance(2, AffineOracle([-1.0, -1.0]),
                               [AffineOracle([1.0, 0.0], -1.0), AffineOracle(second, -1.0)])
    return instance, EuclideanSpace([5.0, 3.0], 4.0)


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("second", [[0.0, 1.0], [2.0, 0.0]], ids=["sitting", "cleared"])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_a_chain_is_cut_where_its_label_switch_sits_at_epsilon(monkeypatch, policy, second,
                                                                 record_history):
    # the run on x_1 <= 1 ends after 63 steps with x_1 - 1 = eps exactly,
    # and first-violated turns to the second constraint; the prediction
    # switches there too, but without margin, so the chain is cut at the
    # switch: its 61 rows on the first constraint make one segment, and
    # batching ends.  Steps on x_2 leave x_1 - 1 sitting at eps, so the
    # margins refuse the next run's one chain too; steps on 2 x_1 clear it,
    # and that run is chained from its second step on
    batches = _counted_batches(monkeypatch)
    instance, space = _dyadic_pair(second)
    config = RunConfig(2.0**-4, policy=policy, max_iterations=200,
                       record_history=record_history)
    batched, stepped, _ = run_both(instance, space, config)
    assert_bitwise_equal(batched, stepped)
    if policy is not Policy.FIRST_VIOLATED:
        return
    sitting = second == [0.0, 1.0]
    # the second run lowers its value from 2, or 9/8, to eps
    second_run = 31 if sitting else 17
    assert batches[:2] == [(61 + second_run, 61),
                           (second_run - 2, 0 if sitting else second_run - 2)]
    history = batched.history if record_history else run(
        instance, space, dataclasses.replace(config, record_history=True)).history
    built = [k for k in _batched(history) if k < 64 + second_run]
    assert built == list(range(2, 63)) + ([] if sitting else list(range(65, 63 + second_run)))
    records = list(history)
    assert [records[k].constraint_index for k in (61, 62, 63, 64, 65, 62 + second_run)] == [
        1, 1, 2, 2, 2, 2]
    assert records[63 + second_run].kind is StepKind.PRODUCTIVE


def _weighted_pair(anchor):
    """Constraints 2 x_2 <= 1 (criterion weight 1/4) and x_1 <= 1 (weight
    1), from (11 + 1/64, 5/2 + 1/64), where their values are 4 + 1/32 and
    10 + 1/64, with eps = 1/16.  First-violated takes 64 steps on the
    first, then turns to the second; the others take 97 on the second,
    then alternate.  The space has the given radius."""
    instance = ProblemInstance(2, AffineOracle([-1.0, -1.0]),
                               [AffineOracle([0.0, 2.0], -1.0), AffineOracle([1.0, 0.0], -1.0)])
    return instance, EuclideanSpace([11.0 + 2.0**-6, 2.5 + 2.0**-6], anchor)


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_the_criterion_fires_inside_a_later_run_of_a_chain(monkeypatch, policy,
                                                            record_history):
    # theta0 = 1/2: the criterion needs 128
    chains = _counted_chains(monkeypatch)
    instance, space = _weighted_pair(0.5)
    config = RunConfig(2.0**-4, policy=policy, record_history=record_history)
    batched, stepped, calls = run_both(instance, space, config)
    assert_bitwise_equal(batched, stepped)
    assert batched.stop_reason is StopReason.CRITERION_MET
    assert batched.total_steps == batched.nonproductive_count
    # one chain, from the second step to the one before the last
    (constraints, lengths, _), = chains
    assert len(constraints) >= 2 and sum(lengths) == batched.total_steps - 3
    assert calls == 3
    if policy is Policy.FIRST_VIOLATED:
        # 64 steps of weight 1/4, then 112 of weight 1 reach 128
        assert constraints == [0, 1] and batched.total_steps == 64 + 112
    else:
        assert constraints[:3] == [1, 0, 1]


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_the_cap_falls_inside_a_later_run_of_a_chain(monkeypatch, policy, record_history):
    chains = _counted_chains(monkeypatch)
    instance, space = _weighted_pair(100.0)
    config = RunConfig(2.0**-4, policy=policy, max_iterations=110,
                       record_history=record_history)
    batched, stepped, calls = run_both(instance, space, config)
    assert_bitwise_equal(batched, stepped)
    assert batched.stop_reason is StopReason.ITERATION_CAP
    assert batched.total_steps == 110 and calls == 2
    (constraints, lengths, _), = chains
    assert len(constraints) >= 2 and sum(lengths) == 108


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_chains_stay_within_the_block_budget(monkeypatch, policy):
    # every block summed, a chain's with its two columns of criterion sums
    # and pad included, holds at most max_rows + 1 rows and _BLOCK_FLOATS
    # floats and one row, and every label and step array at most
    # _BLOCK_FLOATS floats, on a wide space where the budget cuts the
    # chains; the tables call the dual norm once per row
    blocks = []
    inner, certify = solver._cumsum_rows, solver._AffineRuns._certify
    most = solver._BLOCK_FLOATS // 3000

    def summed(block):
        assert block.shape[0] <= most + 1
        assert block.size <= solver._BLOCK_FLOATS + block.shape[1]
        blocks.append(block.shape[0])
        return inner(block)

    def checked(self, block, labels, rows):
        assert self.max_rows == most and rows <= most
        if isinstance(labels, np.ndarray):
            assert labels.size * block.shape[1] <= solver._BLOCK_FLOATS
        return certify(self, block, labels, rows)

    monkeypatch.setattr(solver, "_cumsum_rows", summed)
    monkeypatch.setattr(solver._AffineRuns, "_certify", checked)
    n = 3000
    staircase, _ = _staircase()
    pad = [0.0] * (n - 2)
    constraints = [AffineOracle(list(c.a) + pad, c.b) for c in staircase.constraints]
    instance = ProblemInstance(n, AffineOracle([-1.0, -1.0] + pad), constraints)
    config = RunConfig(2.0**-4, policy=policy, max_iterations=400, record_history=True)
    space = EuclideanSpace([3.1, 5.07] + pad, 4.0)
    batched, stepped, calls = run_both(instance, space, config, name="dual_norm")
    assert_bitwise_equal(batched, stepped)
    assert calls == _table_rows(instance) + batched.productive_count
    assert max(blocks) == most + 1


# ----------------------------------------- one-run blocks from their ends


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_a_short_prediction_ends_batching_for_its_run(monkeypatch, policy):
    # x_1 <= 1 from x_1 - 1 = 7/32 with eps = 1/16 takes three steps of
    # 1/16, then productive steps up x_2, which leave it alone.  After the
    # second step one row is predicted, too few to batch, and that ends
    # batching for the run: the third step is ordinary and predicts nothing
    predicted = []
    inner = solver._AffineRuns.predict

    def counted(self, *args):
        chain = inner(self, *args)
        predicted.append(chain)
        return chain

    monkeypatch.setattr(solver._AffineRuns, "predict", counted)
    instance = ProblemInstance(2, AffineOracle([0.0, -1.0]), [AffineOracle([1.0, 0.0], -1.0)])
    config = RunConfig(2.0**-4, policy=policy, record_history=True)
    batched, stepped, calls = run_both(instance, EuclideanSpace([1.0 + 7 / 32, 0.0], 1.0), config)
    assert_bitwise_equal(batched, stepped)
    assert batched.nonproductive_count == 3 and calls == batched.total_steps
    assert predicted == [[[0, 1]]]


def _one_run_kernel(constraints, epsilon, policy):
    """``_AffineRuns`` over ``constraints`` on a Euclidean space, and the
    stepwise engine's policy selector over ``OracleBank.scan``."""
    n = len(constraints[0].a)
    bank = ProblemInstance(n, _constant(0.0, n), constraints).constraint_bank()
    scan, row = solver._sources(bank, EuclideanSpace(np.zeros(n), 1.0).dual_norm)
    norms = np.array([row(j, None)[2] for j in range(len(constraints))])
    return (solver._AffineRuns(bank, RunConfig(epsilon, policy=policy), row),
            solver._make_selector(scan, row, epsilon, Policy(policy), norms))


def _one_run_block(runs, x, i, rows):
    """The block of iterates of ``rows`` steps on constraint i from x,
    summed by ``_cumsum_rows`` as a chain's, and how many of its rows
    ``_AffineRuns._certify`` takes as one run."""
    block = np.empty((rows + 1, x.shape[0]))
    block[0], block[1:] = x, runs.steps[i]
    solver._cumsum_rows(block)
    return block, runs._certify(block, [(i, rows)], rows)


def _chosen(select, rows):
    """The constraint the stepwise policy descends on at each row, None
    where it takes a productive step."""
    return [None if (sel := select(x)) is None else sel[0] for x in rows]


def _counted_ends(monkeypatch):
    """The outcome of every run offered to ``_AffineRuns._ends``, in order."""
    outcomes = []
    inner = solver._AffineRuns._ends

    def counted(self, *args):
        certified = inner(self, *args)
        outcomes.extend(certified)
        return certified

    monkeypatch.setattr(solver._AffineRuns, "_ends", counted)
    return outcomes


@st.composite
def _one_run_blocks(draw):
    """A block of steps on constraint i of up to four integer rows on R^1
    to R^4: |x| from 1 to 2^40, epsilon from 2^-20 to 2, and up to the
    block budget of rows, about half of them from 64 rows on.  Row i's
    value reaches epsilon near a drawn row, or a few ulps off it; under
    first-violated each other row's value crosses epsilon near a drawn row,
    else its gap to row i's closes there, so near-ties included; some rows
    are twins of row i, some far below."""
    policy = draw(st.sampled_from(_BATCHED_POLICIES))
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    i = draw(st.integers(0, m - 1))
    a = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    if not a[i].any():
        a[i, 0] = 1.0
    x = 2.0 ** draw(st.sampled_from([0, 10, 20, 30, 40])) * np.array(
        draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    epsilon = 2.0 ** draw(st.integers(-20, 0)) * draw(st.floats(1.0, 2.0))
    most = solver._BLOCK_FLOATS // max(n, m)
    rows = draw(st.integers(64, most) | st.integers(1, most))
    q = epsilon / (a[i] @ a[i]) * a[i]
    drops = a @ q  # how much a step on i lowers each value

    def near(base, rate):
        """base + t rate, t a drawn row in or past the block, moved a few ulps."""
        t = draw(st.integers(-rows, 2 * rows) | st.integers(rows, 8 * rows))
        t += draw(st.sampled_from([0.0, 0.5, 1e-6]))
        return _ulps_from(base + t * rate, draw(st.integers(-2, 2)))

    values = np.empty(m)
    values[i] = near(epsilon, drops[i])
    for j in range(m):
        kind = draw(st.sampled_from(["cross", "cross", "twin", "far"])) if j != i else None
        if kind == "twin":
            a[j] = a[i]
            values[j] = _ulps_from(values[i], draw(st.integers(-2, 2)))
        elif kind == "far":
            values[j] = -draw(st.floats(1.0, 1e6))
        elif kind == "cross":
            values[j] = (near(epsilon, drops[j]) if policy is Policy.FIRST_VIOLATED
                         else near(values[i], drops[j] - drops[i]))
    return policy, a, values - a @ x, x, i, rows, epsilon


@settings(max_examples=300)
@given(_one_run_blocks())
# steps of 1/16 from 0: the stepped row 0 gives way to row 1 after 10
# steps, the lower row 0 under first-violated rises past eps after 10, and
# row 1 leads the stepped row 0 for the first 10: each fails where the
# ends' check leaves out the last row, the lower rows or the first row
@example((Policy.AGGREGATE_MAX, np.array([[1.0], [0.0]]), np.array([200 / 16, 190 / 16]),
          np.zeros(1), 0, 100, 2.0**-4))
@example((Policy.FIRST_VIOLATED, np.array([[-1.0], [1.0]]), np.array([-9 / 16, 200 / 16]),
          np.zeros(1), 1, 100, 2.0**-4))
@example((Policy.AGGREGATE_MAX, np.array([[1.0], [2.0]]), np.array([200 / 16, 210 / 16]),
          np.zeros(1), 0, 100, 2.0**-4))
def test_rows_certified_by_end_values_are_the_policys_choice(block_case):
    # every row a one-run block takes, by its ends or row by row, is one at
    # which the stepwise engine descends on the block's constraint
    policy, a, b, x, i, rows, epsilon = block_case
    runs, select = _one_run_kernel([AffineOracle(r, c) for r, c in zip(a, b)], epsilon, policy)
    block, count = _one_run_block(runs, x, i, rows)
    assert _chosen(select, block[:count]) == [i] * count


def _drifting_pair(policy):
    """A block of 8192 steps of about 0.3 on each coordinate, on the row
    (1, 1), from x_1 = 2^40 + 1229, x_2 = 1.5 * 2^39, with epsilon = 4917.2
    * 2^-13.  Below 2^40 the cumulative sum rounds x_1's steps as x_2's,
    above it one 2^-13 shorter, so x_1 - x_2 rises by 0.5 over the
    block's first half and stays.  A row g along x_1 - x_2, tilted to take
    equal values at both ends, bulges by a quarter in the middle, far
    beyond the rounding slack.  Under first-violated g is a lower row that
    ends 0.15 below epsilon; else g is the gap of a later row to (1, 1),
    0.15 behind it at both ends.  The constraints, the stepped row and
    the block's rows."""
    epsilon, x = 4917.2 * 2.0**-13, np.array([2.0**40 + 1229.0, 1.5 * 2.0**39])
    own = AffineOracle([1.0, 1.0], 1e4 - x.sum())  # stays above epsilon
    probe, _ = _one_run_kernel([own], epsilon, policy)
    rows = 8192
    block = np.empty((rows, 2))
    block[0], block[1:] = x, probe.steps[0]
    np.cumsum(block, axis=0, out=block)
    diff, total = block[:, 0] - block[:, 1], block.sum(axis=1)
    tilt = (diff[-1] - diff[0]) / (total[0] - total[-1])
    g = np.array([1.0 + tilt, -1.0 + tilt])
    top = max(block[0] @ g, block[-1] @ g)
    if policy is Policy.FIRST_VIOLATED:
        constraints, i = [AffineOracle(g, epsilon - 0.15 - top), own], 1
    else:
        constraints, i = [own, AffineOracle(own.a + g, own.b - 0.15 - top)], 0
    return constraints, i, x, rows, epsilon


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_end_values_allow_for_the_drift_of_the_cumulative_sum(monkeypatch, policy):
    # the ends clear twice the slack, so without the drift term they would
    # certify the whole block, whose middle rows the policy does not take;
    # with it they refuse it, and the rest of it once its last row is
    # taken apart, and the rows are checked one by one.  Followed by one
    # more row as a second run, the block's run is refused in the same way
    # when the runs' ends are checked together
    outcomes = _counted_ends(monkeypatch)
    constraints, i, x, rows, epsilon = _drifting_pair(policy)
    runs, select = _one_run_kernel(constraints, epsilon, policy)
    block, count = _one_run_block(runs, x, i, rows)
    wrong = next(k for k, j in enumerate(_chosen(select, block[:rows])) if j != i)
    assert outcomes == [False, False, True]
    assert 0 < count <= wrong < rows
    assert 0 < runs._certify(block, [[i, rows], [i, 1]], rows + 1) <= wrong
    bound = runs.abs_a @ (np.abs(x) + rows * runs.abs_q[i]) + runs.abs_b
    ends = runs.a @ block[[0, rows - 1]].T + runs.b[:, None]
    slack = runs.gamma * bound
    if policy is Policy.FIRST_VIOLATED:
        assert np.all(ends[0] + 2.0 * slack[0] <= epsilon)
    else:
        assert np.all(ends[0] - 2.0 * slack[0] > ends[1] + 2.0 * slack[1])


@pytest.mark.parametrize("multiple, certified", [(1.5, False), (2.5, True)])
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_end_values_keep_twice_slack_and_drift_from_epsilon(monkeypatch, policy, multiple,
                                                            certified):
    # steps of 1/16 down x_1 <= 0 from x_1 = 1000/16 + multiple * S: the
    # block's last row sits exactly multiple * S above eps, S = slack +
    # drift = (gamma + rows u) bound.  At 2.5 S the ends take the block.
    # At 1.5 S they refuse it, and take it as its last row, whose own
    # drift is one row's, and the rest, whose last row is a step higher
    outcomes = _counted_ends(monkeypatch)
    epsilon, rows = 2.0**-4, 1000
    runs, select = _one_run_kernel([AffineOracle([1.0, 0.0], 0.0)], epsilon, policy)
    reach = rows * epsilon * 2.0
    margin = (runs.gamma + rows * runs.u) * (reach + np.finfo(float).tiny)
    # On a grid of 2^-45 below 2^7 every step is exact.
    x = np.array([rows * epsilon + round(multiple * margin * 2.0**45) * 2.0**-45, 0.0])
    block, count = _one_run_block(runs, x, 0, rows)
    assert abs(block[rows - 1, 0] - epsilon - multiple * margin) < 0.05 * margin
    assert outcomes == ([True] if certified else [False, True, True])
    assert count == rows


def test_end_values_meet_the_huge_guard(monkeypatch):
    # below _HUGE the ends certify a block on values near 2^1019 with no
    # overflow; from it the guard refuses the block before the ends
    outcomes = _counted_ends(monkeypatch)
    runs, _ = _one_run_kernel([AffineOracle([1.0, 0.0], 0.0)], 2.0**-4, Policy.AGGREGATE_MAX)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _one_run_block(runs, np.array([2.0**1019, 0.0]), 0, 100)[1] == 100
        assert _one_run_block(runs, np.array([2.0**1020, 0.0]), 0, 100)[1] == 0
    assert outcomes == [True]


@pytest.mark.parametrize("budget, fewest", [pytest.param(1 << 14, 101, id="2^14"),
                                            pytest.param(1 << 16, 27, id="2^16")])
@pytest.mark.parametrize("example_id", [1, 4])
def test_long_one_run_batches_are_certified_by_their_ends(monkeypatch, example_id, budget,
                                                          fewest):
    # ex 1 and ex 4 L aggregate-max: every block is one run, certified by
    # its two end rows, bit for bit; ex 4 makes 106 blocks of at least 64
    # rows at a block budget of 2^14 floats, 27 at 2^16
    monkeypatch.setattr(solver, "_BLOCK_FLOATS", budget)
    outcomes = _counted_ends(monkeypatch)
    batches = _counted_batches(monkeypatch)
    example = build_example(example_id)
    config = RunConfig(example.settings.epsilon, policy=Policy.AGGREGATE_MAX)
    batched, stepped, _ = run_both(example.instance, default_geometry(example), config)
    assert_bitwise_equal(batched, stepped)
    long = [rows for rows, _ in batches if rows >= 64]
    assert len(long) >= fewest and len(outcomes) == len(batches) and all(outcomes)


def _counted_rows(monkeypatch):
    """The rows of every block ``_AffineRuns._rows`` checks one by one."""
    checked = []
    inner = solver._AffineRuns._rows

    def counted(self, rows, *args):
        checked.append(rows.shape[0])
        return inner(self, rows, *args)

    monkeypatch.setattr(solver._AffineRuns, "_rows", counted)
    return checked


@pytest.mark.parametrize("budget, first_chain", [
    pytest.param(1 << 14, ([0, 1], [984, 654], True), id="2^14"),
    pytest.param(1 << 16, ([0, 1], [4264, 2289], True), id="2^16")])
def test_example_4_first_violated_chains_are_certified_run_by_run(monkeypatch, budget,
                                                                   first_chain):
    # ex 4 L first-violated: the run on constraint 0 ends 2.5e-11 above
    # epsilon, within its drift, so the ends of the chain that carries it
    # on to constraint 1 refuse that run once; its last row and the rest,
    # offered apart, are taken.  Every other run of every chain is taken by
    # its own two end rows, and no row is checked one by one, bit for bit
    monkeypatch.setattr(solver, "_BLOCK_FLOATS", budget)
    outcomes = _counted_ends(monkeypatch)
    chains = _counted_chains(monkeypatch)
    checked = _counted_rows(monkeypatch)
    example = build_example(4)
    config = RunConfig(example.settings.epsilon, policy=Policy.FIRST_VIOLATED)
    batched, stepped, _ = run_both(example.instance, default_geometry(example), config)
    assert_bitwise_equal(batched, stepped)
    assert first_chain in chains
    assert all(complete for *_, complete in chains)
    assert checked == []
    assert outcomes.count(False) == 1
    assert len(outcomes) == sum(len(constraints) for constraints, _, _ in chains) + 2


@st.composite
def _chained_instances(draw):
    """A policy and a problem on R^2 to R^4 whose constraint runs chain
    from a drawn point: rows of 1, 2 or 4 entries +-2^k, so every step on
    a row moves it by exactly epsilon (a power of two) while the values
    stay small; each row's value at the point is epsilon and a whole
    number of steps, often none, moved a few ulps, so runs end within
    ulps of epsilon and rows that a run leaves alone sit within ulps of
    it, and some rows are twins of another, a few ulps apart, so runs end
    within ulps of a tie.  The point is scaled by 1, 2^20, 2^40 (where the
    cumulative sums round) or 2^1010 (past the ``_HUGE`` guards), and a
    few rows are scaled by 2^1000, so their products overflow.  The
    objective is a {-1, 0, 1} row, the space's radius 1/2, 2 or 8, and
    the iteration cap 1000."""
    policy = draw(st.sampled_from(_BATCHED_POLICIES))
    n, m = draw(st.integers(2, 4)), draw(st.integers(2, 6))
    epsilon = 2.0 ** draw(st.integers(-6, -2))
    scale = 2.0 ** draw(st.sampled_from([0] * 6 + [20, 40, 40, 1010]))
    x = scale * epsilon * np.array(draw(st.lists(st.integers(-64, 64), min_size=n,
                                                 max_size=n)), dtype=float)
    rows, values = [], []
    for j in range(m):
        kind = draw(st.sampled_from(["row"] * 7 + ["twin"] * 2 + ["huge"])) if j else "row"
        if kind == "twin":
            k = draw(st.integers(0, j - 1))
            rows.append(rows[k])
            values.append(_ulps_from(values[k], draw(st.integers(-2, 2))))
            continue
        support = draw(st.sampled_from([s for s in (1, 1, 2, 4) if s <= n]))
        a = np.zeros(n)
        a[draw(st.permutations(range(n)))[:support]] = 2.0 ** draw(st.integers(-1, 1)) * (
            np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=support,
                                   max_size=support))))
        rows.append(a * 2.0**1000 if kind == "huge" else a)
        steps = draw(st.sampled_from([0, 0, 1]) | st.integers(-8, 200))
        values.append(_ulps_from(epsilon * (1 + steps), draw(st.integers(-2, 2))))
    with np.errstate(over="ignore", invalid="ignore"):
        offsets = [v - float(a @ x) for a, v in zip(rows, values)]
    constraints = [AffineOracle(a, b if math.isfinite(b) else 0.0)
                   for a, b in zip(rows, offsets)]
    objective = AffineOracle(draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=n,
                                           max_size=n)))
    return (policy, ProblemInstance(n, objective, constraints),
            EuclideanSpace(x, draw(st.sampled_from([0.5, 2.0, 8.0]))), epsilon, 1000)


def _drifting_run(policy):
    """A run whose first chain is one run of 2998 steps of about 0.3 on
    each coordinate, on the row (1, 1), from its third iterate on, as in
    ``_drifting_pair``: x_1 crosses 2^40 near its middle, so x_1 - x_2
    bends there by the cumulative sum's rounding.  The second row, a lower
    row under first-violated, else the gap of a later row to (1, 1), is
    tilted to take equal values at the chain's two end rows, which sit
    half its bulge below epsilon (below (1, 1)), so the policy turns to it
    in the middle, while the ends clear twice the slack but not the drift.
    The policy, problem, space, epsilon and the iteration cap, 3000."""
    epsilon, x = 4917.2 * 2.0**-13, np.array([2.0**40 + 450.0, 1.5 * 2.0**39])
    own = AffineOracle([1.0, 1.0], 1e4 - x.sum())  # stays above epsilon
    probe, _ = _one_run_kernel([own], epsilon, policy)
    block = np.empty((3000, 2))
    block[0], block[1:] = x, probe.steps[0]
    np.cumsum(block, axis=0, out=block)
    block = block[2:]
    diff, total = block[:, 0] - block[:, 1], block.sum(axis=1)
    tilt = (diff[-1] - diff[0]) / (total[0] - total[-1])
    g = np.array([1.0 + tilt, -1.0 + tilt])
    along = block @ g
    top = max(along[0], along[-1])
    below = (along.max() - top) / 2
    if policy is Policy.FIRST_VIOLATED:
        constraints = [AffineOracle(g, epsilon - below - top), own]
    else:
        constraints = [own, AffineOracle(own.a + g, own.b - below - top)]
    return (policy, ProblemInstance(2, AffineOracle([0.0, 1.0]), constraints),
            EuclideanSpace(x, 1e3), epsilon, 3000)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=120, deadline=None)
@given(_chained_instances())
@example(_drifting_run(Policy.AGGREGATE_MAX))
@example(_drifting_run(Policy.FIRST_VIOLATED))
def test_chains_certified_run_by_run_equal_stepwise_runs(case):
    # every run of every chain is certified from its own end rows, or
    # offered again split at its last row, or checked row by row; the
    # runs, their histories and any error equal the stepwise engine's.
    # The two drifting runs fail where the ends leave out the run's drift
    # or, under first-violated, the rows below its constraint
    policy, instance, space, epsilon, cap = case
    config = RunConfig(epsilon, policy=policy, max_iterations=cap, record_history=True)
    outcomes = []
    for geometry in (space, stepwise(space)):
        try:
            outcomes.append(run(instance, geometry, config))
        except EvaluationError as error:
            outcomes.append(str(error))
    batched, stepped = outcomes
    if isinstance(stepped, str):
        assert batched == stepped
    else:
        assert_bitwise_equal(batched, stepped)


@pytest.mark.parametrize("case", ["inside a run", "at the last row", "never", "at the cap"])
def test_chain_criterion_sums_are_the_weights_cumulative_sum(monkeypatch, case):
    # the staircase's first-violated chain of runs of 130, 16, 10 and 7
    # steps, weights 1/2, 1/5, 1/10 and 1/17 after 0.1: the block's
    # criterion column, the sum returned and the rows taken are bitwise
    # np.cumsum's and np.searchsorted's on the same weights, where the
    # target falls inside the second run, on the chain's last row, past
    # it, or where the iteration cap cuts the chain inside its third run
    blocks = []
    inner = solver._cumsum_rows

    def kept(block):
        blocks.append(inner(block))
        return blocks[-1]

    monkeypatch.setattr(solver, "_cumsum_rows", kept)
    instance, space = _staircase()
    runs, select = _one_run_kernel(instance.constraints, 2.0**-4, Policy.FIRST_VIOLATED)
    x, i = space.anchor, select(space.anchor)[0]
    chain = runs.predict(x, i, runs.max_rows)
    assert chain == [[0, 130], [1, 16], [2, 10], [3, 7]]
    crit_sum, cap = 0.1, runs.max_rows
    sums = np.cumsum(np.concatenate(([crit_sum], runs.weights[np.repeat(*np.array(chain).T)])))
    if case == "inside a run":
        target = (sums[137] + sums[138]) / 2
    elif case == "at the last row":
        target = sums[-1]
    elif case == "never":
        target = 2.0 * sums[-1]
    else:
        target, cap = 2.0 * sums[-1], 150
    expected = int(np.searchsorted(sums[1:cap + 1], target))
    x_new, crit, iterates, taken, complete = runs.chain(x, i, cap, crit_sum, target)
    block, = blocks
    assert block[:, x.shape[0]].tobytes() == sums[:cap + 1].tobytes()
    assert sum(count for *_, count in taken) == expected and complete
    assert np.float64(crit).tobytes() == sums[expected].tobytes()
    assert x_new.tobytes() == iterates[expected].tobytes()
    assert expected == {"inside a run": 137, "at the last row": 162, "never": 163,
                        "at the cap": 150}[case]


# ------------------------------------------------------ row sums of iterates


# Every class of float, the largest and smallest magnitudes among them.
_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 0.75 * 2.0**-1022, 1.0, 2.0**-53,
                                1.7e308, -1.7e308, math.inf, -math.inf, math.nan])


@st.composite
def _row_blocks(draw):
    """A block of 1 to 300 rows of odd or even width, its entries ordinary
    floats, +-0, subnormals, +-inf and NaNs (payloads and signs as drawn);
    C-ordered, Fortran-ordered or a slice of a wider block, so that both of
    ``_cumsum_rows``'s paths are taken."""
    rows, width = draw(st.integers(1, 300)), draw(st.integers(1, 9))
    layout = draw(st.sampled_from(["C", "C", "F", "slice"]))
    elements = st.floats(allow_subnormal=True) | _EDGE_FLOATS
    block = draw(arrays(np.float64, (rows, width + (layout == "slice")), elements=elements))
    if layout == "F":
        return np.asfortranarray(block)
    return block[:, :width] if layout == "slice" else block


def _floating_errors(operation, block):
    """The floating-point error that ``operation`` raises on a copy of
    block in its layout, None if it raises none."""
    with np.errstate(all="raise"):
        try:
            operation(block.copy(order="K"))
        except FloatingPointError as error:
            return str(error)
    return None


@settings(max_examples=400)
@given(_row_blocks())
# Sums down a column of 1 then 2^-53s: recursive summation rounds each sum
# back to 1, a pairwise one adds the 2^-53s first, so a reordered sum
# differs in the last rows.
@example(np.array([[1.0, -1.0]] + [[2.0**-53, -(2.0**-53)]] * 63))
def test_cumsum_rows_is_the_columns_cumulative_sum_bit_for_bit(block):
    errors = [_floating_errors(sums, block)
              for sums in (solver._cumsum_rows, partial(np.cumsum, axis=0))]
    with np.errstate(all="ignore"):
        expected = np.cumsum(block, axis=0)
        summed = solver._cumsum_rows(block)
    assert summed is block
    assert summed.tobytes() == expected.tobytes()
    assert errors[0] == errors[1]


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
@pytest.mark.parametrize("policy", _POLICY_NAMES)
@pytest.mark.parametrize("geometry", _GEOMETRIES)
def test_table_steps_equal_stepwise_steps_on_random_instances(geometry, policy, regime,
                                                              record_history):
    stops = set()
    for seed in range(8):
        instance, space = _random_tabled_instance(seed, geometry)
        config = RunConfig(0.05, regime=regime, policy=policy,
                           max_iterations=4000, record_history=record_history)
        fast, stepped, calls = run_both(instance, space, config, "dual_norm")
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
@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_table_steps_break_piece_ties_and_stop_on_a_zero_piece(policy, regime):
    # At the origin the first two pieces tie at 0: the first (norm 5) is
    # taken.  Once both fall below -1, the constant piece is the max.
    objective = MaxOracle([AffineOracle([3.0, 4.0]), AffineOracle([1.0, 0.0]),
                           AffineOracle([0.0, 0.0], -1.0)])
    instance = ProblemInstance(2, objective, [AffineOracle([0.0, -1.0], -1.0)],
                               known_optimum=([-1.0, 0.0], -1.0))
    config = RunConfig(0.05, regime=regime, policy=policy, record_history=True)
    fast, stepped, calls = run_both(instance, EuclideanSpace([0.0, 0.0], 1.0), config,
                                    "dual_norm")
    assert_bitwise_equal(fast, stepped)
    assert calls == _table_rows(instance) == 4
    assert next(iter(fast.history)).grad_dual_norm == 5.0
    assert fast.stop_reason is StopReason.ZERO_OBJECTIVE_GRADIENT


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_table_steps_stop_on_a_zero_constraint_row(policy, regime):
    # once the first constraint is met, the constant one (0.5 > eps) is the
    # violated row, and no step can decrease it
    instance = ProblemInstance(2, AffineOracle([0.0, 1.0]),
                               [AffineOracle([1.0, 0.0], -1.0),
                                AffineOracle([0.0, 0.0], 0.5)])
    config = RunConfig(0.05, regime=regime, policy=policy, record_history=True)
    fast, stepped, calls = run_both(instance, EuclideanSpace([20.0, 0.0], 5.0), config,
                                    "dual_norm")
    assert_bitwise_equal(fast, stepped)
    assert fast.productive_count == 0
    assert calls == _table_rows(instance) == 2
    assert fast.stop_reason is StopReason.INFEASIBLE_CONSTRAINT
    assert fast.total_steps > 300


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
    fast, stepped, calls = run_both(instance, space, config, "dual_norm")
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
    fast, stepped, calls = run_both(example.instance,
                                    EuclideanSpace(settings.x0, settings.theta0), config,
                                    "dual_norm")
    assert_bitwise_equal(fast, stepped)
    assert calls == _table_rows(example.instance) == 15
    assert fast.productive_count > 1000


def _outcome(call, *args):
    """The call's result, or EvaluationError where it raised that."""
    try:
        return call(*args)
    except EvaluationError:
        return EvaluationError


@pytest.mark.parametrize("geometry", _GEOMETRIES)
def test_tables_equal_the_calls_they_replace(geometry):
    # The one fast path a stepwise reference keeps: a stacked bank's scan and
    # rows, and a max-affine objective's value and row, against
    # OracleBank.values/subgradient, MaxOracle.value_and_subgradient and the
    # geometry's dual_norm, bit for bit.  Each bank has a zero row and a row
    # whose squared norm overflows (dual norm inf on the Euclidean
    # geometries); points up to 1e300 and one with a NaN make the products
    # overflow to +-inf or NaN, which both sides must reject.
    raised = 0
    for seed in range(12):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        rows = rng.standard_normal((int(rng.integers(1, 8)), n))
        rows *= 10.0 ** rng.integers(-3, 4, (rows.shape[0], 1))
        rows = np.vstack([rows, np.zeros(n), np.full(n, 2.0**600), rows[:1]])
        rng.shuffle(rows)
        bank = OracleBank([AffineOracle(a, b)
                           for a, b in zip(rows, rng.standard_normal(rows.shape[0]))])
        assert bank._matrix is not None
        space = {"space": EuclideanSpace(np.zeros(n), 1.0),
                 "ball": EuclideanBall(np.zeros(n), 1.0, 1.0),
                 "simplex": EntropySimplex(n, 1.0)}[geometry]
        dual = space.dual_norm
        scan, row = solver._sources(bank, dual)
        objective = MaxOracle(bank.oracles)
        evaluate = solver._make_evaluator(objective, dual,
                                          solver._sources(objective._bank, dual))
        points = [scale * rng.standard_normal(n) for scale in (0.0, 1.0, 1e150, 1e300)]
        points.append(np.where(np.arange(n) == 0, math.nan, 1.0))
        # The stepwise calls overflow as they may: products past the largest
        # float, and the huge row's squared norm.
        with np.errstate(over="ignore", invalid="ignore"):
            for x in points:
                for i in range(len(rows)):
                    s = bank.subgradient(i, x)
                    k, a, norm = row(i, x)
                    assert k == i and a.tobytes() == s.tobytes()
                    assert np.float64(norm).tobytes() == np.float64(dual(s)).tobytes()
                expected = _outcome(bank.values, x)
                got = _outcome(scan, x)
                top = _outcome(objective.value_and_subgradient, x)
                value = _outcome(evaluate, x)
                if expected is EvaluationError:
                    assert got is top is value is EvaluationError
                    raised += 1
                    continue
                vals, i, high = got
                assert vals.tobytes() == expected.tobytes()
                assert i == expected.argmax() and high == expected[i]
                value, (_, grad, norm) = value
                assert np.float64(value).tobytes() == np.float64(top[0]).tobytes()
                assert grad.tobytes() == top[1].tobytes()
                assert np.float64(norm).tobytes() == np.float64(dual(top[1])).tobytes()
    assert raised >= 24


def test_scans_of_one_bank_keep_separate_buffers():
    # each _sources call scans into its own buffer, which its next scan
    # overwrites; two scans of one bank, interleaved, keep their own values
    bank = OracleBank([AffineOracle([1.0, -2.0], 0.5), AffineOracle([3.0, 1.0])])
    dual = EuclideanSpace(np.zeros(2), 1.0).dual_norm
    (first, _), (second, _) = solver._sources(bank, dual), solver._sources(bank, dual)
    x, y = np.array([1.0, 2.0]), np.array([-4.0, 0.5])
    a, b = first(x)[0], second(y)[0]
    assert a is not b
    assert a.tobytes() == bank.values(x).tobytes()
    assert b.tobytes() == bank.values(y).tobytes()
    assert first(y)[0] is a and a.tobytes() == b.tobytes()
    assert second(x)[0] is b and b.tobytes() == bank.values(x).tobytes()


def test_an_instance_level_wrapper_leaves_the_fast_paths_on(monkeypatch):
    # perfbench's tracer wraps dual_norm on the geometry instance: the run
    # still tables each affine row once and batches ex 6 L's steps
    batches = _counted_batches(monkeypatch)
    example = build_example(6)
    geometry = default_geometry(example)
    calls = count_calls(geometry, "dual_norm")
    config = RunConfig(example.settings.epsilon, policy=Policy.FIRST_VIOLATED)
    report = run(example.instance, geometry, config)
    assert calls[0] == _table_rows(example.instance) == 15
    assert sum(count for _, count in batches) > 0.9 * report.total_steps
    fresh = build_example(6)
    assert_bitwise_equal(report, run(fresh.instance, default_geometry(fresh), config))


def test_an_instance_level_wrapper_leaves_the_ball_tracked(monkeypatch):
    # a max-affine seed: the wrapped run takes one real scan, its first
    scans = _counted_scans(monkeypatch)
    instance, ball = _random_ball_instance(0)
    calls = count_calls(ball, "dual_norm")
    report = run(instance, ball, RunConfig(0.1))
    assert calls[0] == _table_rows(instance)
    assert report.total_steps > 100
    assert scans[instance.constraint_bank()] == 1


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("space", [
    lambda anchor: EuclideanSpace(anchor, 1.0),
    lambda anchor: stepwise(EuclideanSpace(anchor, 1.0)),
    lambda anchor: EuclideanBall([0.0, 0.0], 2.0**31, 1.0, anchor),
    lambda anchor: stepwise(EuclideanBall([0.0, 0.0], 2.0**31, 1.0, anchor)),
], ids=["tabled", "stepwise", "ball-tracked", "ball-stepwise"])
@pytest.mark.parametrize("policy", _POLICY_NAMES)
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


# ------------------------------------------------------ a max of quadratics


def _counted_argmax(objective):
    """Counts of the certified and the declined stacked argmaxes that the
    max of quadratics ``objective`` takes."""
    counts = {"certified": 0, "fallback": 0}
    inner = objective._argmax

    def counted(x):
        idx = inner(x)
        counts["certified" if idx is not None else "fallback"] += 1
        return idx

    objective._argmax = counted
    return counts


@pytest.mark.parametrize("regime, policy, cap", [
    (Regime.NONSTANDARD, Policy.AGGREGATE_MAX, 10**7),
    (Regime.NONSTANDARD, Policy.FIRST_VIOLATED, 10**7),
    (Regime.LIPSCHITZ, Policy.FIRST_VIOLATED, 20_000)])
def test_example_5_certifies_every_stacked_argmax(regime, policy, cap):
    # ex 5 N with history, as the acceptance fixture runs it, and ex 5 L
    # first-violated up to a cap (aggregate-max takes its first productive
    # step after 10^5 steps): the run is the member loop's bit for bit and
    # declines no stacked argmax.  Its nonstandard cells replay a two-step
    # cycle without evaluating, so the count is taken on a run over the
    # geometry subclass, which evaluates every productive step: each
    # evaluation of the max of ten diagonal quadratics, one per productive
    # step and one at the output, is certified
    example = build_example(5)
    counts = _counted_argmax(example.instance.objective)
    config = RunConfig(example.settings.epsilon, regime=regime, policy=policy,
                       max_iterations=cap, record_history=True)
    space = default_geometry(example)
    fast, stepped, _ = run_both(example.instance, space, config)
    assert_bitwise_equal(fast, stepped)
    assert counts["fallback"] == 0
    counts.update(certified=0)
    every = run(example.instance, stepwise(space), config)
    assert_bitwise_equal(every, fast)
    assert counts == {"certified": every.productive_count + 1, "fallback": 0}
    assert fast.productive_count > 1000


def _random_quadratic_max_instance(seed, geometry):
    """``_random_tabled_instance``'s constraints and geometry with a max of
    random diagonal quadratics, the second a twin of the first."""
    tabled, space = _random_tabled_instance(seed, geometry)
    rng = np.random.default_rng(seed)
    n = tabled.dimension
    pieces = quadratic_pieces(rng, n, int(rng.integers(2, 6)))
    pieces.insert(1, pieces[0])
    objective = MaxOracle(pieces)
    feasible = tabled.known_optimum[0]
    return ProblemInstance(n, objective, tabled.constraints,
                           known_optimum=(feasible, objective.value(feasible))), space


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("geometry", _GEOMETRIES)
def test_max_of_quadratics_runs_equal_member_loop_runs(geometry, regime):
    # the stacked argmax against the member loop in whole runs, every
    # policy in turn, history on odd seeds; nonstandard runs on the space
    # and the ball replay two-step cycles without evaluating, so the
    # evaluations are counted on a run over the geometry subclass, which
    # makes one per productive step and one at the output
    certified = 0
    for seed, policy in zip(range(4), itertools.cycle(Policy)):
        instance, space = _random_quadratic_max_instance(seed, geometry)
        counts = _counted_argmax(instance.objective)
        config = RunConfig(0.05, regime=regime, policy=policy,
                           max_iterations=2000, record_history=bool(seed % 2))
        fast, stepped, _ = run_both(instance, space, config)
        assert_bitwise_equal(fast, stepped)
        assert sum(counts.values()) <= fast.productive_count + 1
        counts.update(certified=0, fallback=0)
        every = run(instance, stepwise(space), config)
        assert_bitwise_equal(every, fast)
        assert sum(counts.values()) == every.productive_count + 1
        certified += counts["certified"]
    assert certified > 100


# ------------------------------------------------------ replayed cycles


def _first_repeat(history):
    """The first step whose iterate is the one two steps back bit for bit,
    the three steps productive; None where there is none."""
    recent = []
    for record in history:
        recent = [*recent[-2:], record]
        if (len(recent) == 3 and all(r.kind is StepKind.PRODUCTIVE for r in recent)
                and recent[0].point.tobytes() == record.point.tobytes()):
            return record.index
    return None


def _nonstandard_example(example_id, policy, **settings):
    """A fresh build of the example, its geometry and a nonstandard config."""
    example = build_example(example_id)
    config = RunConfig(example.settings.epsilon, regime=Regime.NONSTANDARD, policy=policy,
                       **settings)
    return example.instance, default_geometry(example), config


@pytest.mark.parametrize("policy", [Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED])
@pytest.mark.parametrize("example_id", [4, 5])
def test_examples_4_and_5_replay_their_two_step_cycles(example_id, policy):
    # ex 4 N and ex 5 N end bouncing between two iterates bit for bit; from
    # the first repeat on, the run replays the two steps without evaluating,
    # with history and without, and is the stepwise run's bit for bit.  The
    # reference runs on a build of its own, so the wrapper counts the
    # replaying run's evaluations alone: one per step up to the repeat and
    # one at the output
    instance, space, config = _nonstandard_example(example_id, policy, record_history=True)
    stepped = run(stepwise_instance(instance), stepwise(space), config)
    first = _first_repeat(stepped.history)
    assert first is not None and stepped.total_steps - first > 7000
    replayed = stepped.total_steps - first - 1
    for record_history in (True, False):
        instance, space, config = _nonstandard_example(example_id, policy,
                                                       record_history=record_history)
        calls = count_calls(instance.objective, "value_and_subgradient")
        fast = run(instance, space, config)
        assert_bitwise_equal(fast, stepped if record_history
                             else dataclasses.replace(stepped, history=None))
        assert calls[0] == fast.productive_count + 1 - replayed


@pytest.mark.parametrize("extra", [2, 3])
def test_a_cap_inside_a_replayed_cycle(extra):
    # the cap ends ex 5 N first-violated one or two steps after its first
    # repeat, at either parity of the cycle: the same output point, history
    # and stop as the stepwise run (whose objective is a member loop of its
    # own, so the wrapper counts the replaying run alone)
    instance, space, config = _nonstandard_example(5, Policy.FIRST_VIOLATED,
                                                   record_history=True)
    first = _first_repeat(run(instance, space, config).history)
    capped = dataclasses.replace(config, max_iterations=first + extra)
    calls = count_calls(instance.objective, "value_and_subgradient")
    fast, stepped, _ = run_both(instance, space, capped)
    assert_bitwise_equal(fast, stepped)
    assert fast.stop_reason is StopReason.ITERATION_CAP and fast.total_steps == first + extra
    assert calls[0] == fast.productive_count + 1 - (extra - 1)


def _signed_zero_instance():
    """|x_1| on R^2 under a constraint that always holds, optimum 0."""
    return ProblemInstance(2, AbsAffinePlusOracle([1.0, 0.0]), [_constant(-1.0)],
                           known_optimum=(np.zeros(2), 0.0))


def test_an_iterate_that_differs_in_a_signed_zero_is_not_replayed():
    # steps of 0.5 from (0.25, -0.0): the gradient's second coordinate is
    # -0.0 where x_1 < 0, and -0.0 - h (-0.0) is +0.0, so x_2 = (0.25, +0.0)
    # equals x_0 but is another point; the cycle is replayed from x_4, the
    # first repeat bit for bit
    config = RunConfig(0.5, regime=Regime.NONSTANDARD, record_history=True)
    space = EuclideanSpace([0.25, -0.0], 1.5)
    instance = _signed_zero_instance()
    calls = count_calls(instance.objective, "value_and_subgradient")
    fast = run(instance, space, config)
    stepped = run(_signed_zero_instance(), stepwise(space), config)
    assert_bitwise_equal(fast, stepped)
    assert np.signbit([r.point[1] for r in fast.history][:4]).tolist() == [
        True, True, False, False]
    assert _first_repeat(fast.history) == 4
    assert fast.productive_count == 18 and calls[0] == 4 + 1 + 1


class _CallCounted(Oracle):
    """Another oracle's values and subgradients, counting its own calls:
    state that a replay would skip."""

    def __init__(self, inner):
        self.inner, self.dimension, self.calls = inner, inner.dimension, 0

    def value_and_subgradient(self, x):
        self.calls += 1
        return self.inner.value_and_subgradient(x)


def test_custom_oracle_kinds_evaluate_every_step():
    # ex 5 N first-violated cycles, but a run on a custom oracle kind, which
    # may hold state, takes every step: one objective call per productive
    # step and one at the output (a geometry subclass takes every step too,
    # see test_example_5_certifies_every_stacked_argmax)
    instance, space, config = _nonstandard_example(5, Policy.FIRST_VIOLATED,
                                                   record_history=True)
    fast = run(instance, space, config)
    assert _first_repeat(fast.history) is not None
    objective = _CallCounted(instance.objective)
    custom = run(ProblemInstance(instance.dimension, objective, instance.constraints,
                                 instance.known_optimum), space, config)
    assert_bitwise_equal(custom, fast)
    assert objective.calls == custom.productive_count + 1
    # a custom constraint kind, on a run that cycles too
    calls = count_calls(instance.objective, "value_and_subgradient")
    custom = run(ProblemInstance(instance.dimension, instance.objective,
                                 [_CallCounted(c) for c in instance.constraints],
                                 instance.known_optimum), space, config)
    assert _first_repeat(custom.history) is not None
    assert calls[0] == custom.productive_count + 1


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
@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_productive_batches_equal_stepwise_runs_on_random_instances(
        monkeypatch, policy, record_history, cap, near_tie):
    counts = _counted_productive_batches(monkeypatch)
    productive, stops = 0, set()
    for seed in range(1, 6):
        instance, space = _random_max_affine_instance(seed, near_tie)
        config = RunConfig(0.5, policy=policy, max_iterations=cap,
                           record_history=record_history)
        fast, stepped, _ = run_both(instance, space, config)
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
    return run_both(instance, EuclideanSpace(start, 1.0), config)


def test_productive_batch_stops_on_the_criterion_inside_a_batch(monkeypatch):
    # every step has weight 1, so 2 theta0^2 / eps^2 = 512 steps fire the
    # criterion, far inside the run's batches
    counts = _counted_productive_batches(monkeypatch)
    fast, stepped, _ = _productive_run(2.0**-4, [0.0, 0.0])
    assert_bitwise_equal(fast, stepped)
    assert fast.stop_reason is StopReason.CRITERION_MET
    assert fast.total_steps == fast.productive_count == 512
    assert sum(counts) > 500


def test_a_twin_piece_is_masked_in_productive_batches(monkeypatch):
    # the run above with its first piece twice: the predicted piece is the
    # first of the twins, and the second, bitwise the same, is masked out
    # of the comparison, so the batches still take the run
    counts = _counted_productive_batches(monkeypatch)
    pieces = [AffineOracle([1.0, 0.0]), AffineOracle([1.0, 0.0]),
              AffineOracle([0.5, 0.0], -100.0)]
    constraints = [AffineOracle([0.0, 1.0], -1.0)]
    assert _productive_runs(pieces, constraints).twins
    assert not _productive_runs(pieces[1:], constraints).twins
    fast, stepped, _ = _productive_run(2.0**-4, [0.0, 0.0], pieces=pieces)
    assert_bitwise_equal(fast, stepped)
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
    bank, objective = instance.constraint_bank(), instance.objective._bank
    _, row = solver._sources(bank, space.dual_norm)
    _, piece_row = solver._sources(objective, space.dual_norm)
    return solver._AffineRuns(bank, RunConfig(2.0**-4, policy=policy), row,
                              objective, piece_row)


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
def test_productive_batch_certifies_the_constraints(policy):
    # steps of 1/16 from 0 raise x_1 - 10 to eps at x_1 = 161/16, still a
    # productive point but without margin: the batch takes the 161 steps
    # before it, and leaves that one and the constraint step to the
    # stepwise engine.  The piece predictor is generated by the first batch
    runs = _productive_runs([AffineOracle([-1.0, 0.0]), AffineOracle([0.0, -1.0], -100.0)],
                            [AffineOracle([1.0, 0.0], -10.0)], policy)
    assert runs.predict_pieces is None
    count, x, crit_sum, weighted, weight_sum = runs.produce(
        np.zeros(2), 1000, 0.0, math.inf, np.zeros(2), 0.0)
    assert runs.predict_pieces is not None
    assert count == 161
    assert x.tolist() == [161 / 16, 0.0]
    assert crit_sum == 161.0 and weight_sum == 161 / 16
    assert weighted.tolist() == [sum(k / 256 for k in range(161)), 0.0]


@pytest.mark.parametrize("policy", _BATCHED_POLICY_NAMES)
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
            assert runs.ends[runs.m:] == [True, True, False, False]
            count, *_ = runs.produce(np.array(x), 1000, 0.0, math.inf, np.zeros(2), 0.0)
            assert count == 0


def _listed_pieces(values, k, ends, drops):
    """The productive-step prediction as a loop over the list of values."""
    labels = []
    for _ in range(k):
        l = values.index(max(values))
        if ends[l]:
            break
        labels.append(l)
        values = list(map(operator.sub, values, drops[l]))
    return labels


_TREE = solver._TREE_MAX_PIECES


@pytest.mark.parametrize("count", sorted({*range(1, 13), _TREE - 1, _TREE, _TREE + 1, 50}))
def test_piece_predictor_returns_the_list_loops_labels(count):
    # the predictor generated per table against the loop over the list of
    # values, on random values, exact ties, signed zeros, infinities and
    # NaN, drops of +0.0 and -0.0 among others, NaN and infinite drops,
    # pieces that end a prediction on either side of the argmax, and k = 0;
    # the comparison tree (a bytearray of labels) runs where the count is
    # at most its bound, every drop is finite and no value is NaN, the
    # loop (a list) everywhere else.  The loop is generated once per count;
    # the predictor holds its table and is cached nowhere
    rng = np.random.default_rng(count)
    specials = [0.0, -0.0, 1.0, -1.0, math.inf, -math.inf, math.nan]
    no_ends = [False] * count
    cases = []
    for _ in range(20):
        drops = rng.standard_normal((count, count)) / 10.0
        drops[np.diag_indices(count)] = rng.uniform(0.5, 1.0, count)
        cases.append((rng.standard_normal(count), drops, no_ends))
        ties = rng.integers(0, 2, (count, count)).astype(float)
        cases.append((rng.integers(-1, 2, count).astype(float), ties, no_ends))
        cases.append((rng.choice([0.0, -0.0], count), rng.choice([0.0, -0.0], (count, count)),
                      no_ends))
        zeros = rng.choice([0.0, -0.0], (count, count))
        cases.append((rng.integers(-2, 3, count) / 4.0,
                      np.where(rng.uniform(size=(count, count)) < 0.5, zeros, ties / 4.0),
                      no_ends))
        cases.append((rng.choice(specials[:-1], count), drops, no_ends))
        cases.append((rng.choice(specials, count), rng.choice(specials, (count, count)),
                      no_ends))
        cases.append((rng.standard_normal(count), drops,
                      (rng.uniform(size=count) < 0.3).tolist()))
    # A NaN first value wins; after it, a NaN never does.
    cases.append(([math.nan] + [1.0] * (count - 1), np.zeros((count, count)), no_ends))
    cases.append(([0.0] + [math.nan] * (count - 1), np.zeros((count, count)), no_ends))
    # One non-finite drop sends the whole table to the loop.
    drops = np.eye(count)
    drops[-1, 0] = math.inf
    cases.append((np.arange(count, dtype=float), drops, no_ends))
    # Pieces that end a prediction just before and just after the argmax.
    top = count // 2
    values = np.zeros(count)
    values[top] = 1.0
    around = [abs(j - top) == 1 for j in range(count)]
    cases.append((values, np.eye(count), around))
    assert _listed_pieces(values.tolist(), 5, around, np.eye(count).tolist())[0] == top
    paths = set()
    for values, drops, ends in cases:
        values, drops = np.asarray(values).tolist(), np.asarray(drops).tolist()
        predict = solver._piece_predictor(ends, drops)
        tree = (count <= _TREE and np.isfinite(drops).all()
                and not np.isnan(values).any())
        for k in (0, 1, 7, 40):
            labels = predict(values, k)
            assert type(labels) is (bytearray if tree else list)
            assert list(labels) == _listed_pieces(values, k, ends, drops)
        paths.add(tree)
    assert paths == ({False, True} if count <= _TREE else {False})
    assert solver._piece_loop(count) is solver._piece_loop(count)
    predict = solver._piece_predictor(no_ends, np.eye(count).tolist())
    assert solver._piece_predictor(no_ends, np.eye(count).tolist()) is not predict
    assert not predict([0.0] * count, 0)


def _listed_runs(values, i, rows, epsilon, first_violated, drops, ends):
    """The runs a loop over the list of constraint values predicts from
    constraint i on, each run's closing rows listed as (row, rate) pairs:
    the lower rows that rise under first-violated, else the rows that gain
    on i."""
    chain = []
    while rows:
        own = drops[i][i]
        if ends[i] or not (math.isfinite(own) and own > 0.0):
            break
        closing = ([(j, -d) for j, d in enumerate(drops[i][:i])] if first_violated
                   else [(j, own - d) for j, d in enumerate(drops[i])])
        vi = values[i]
        bound = epsilon if first_violated else vi
        length = (vi - epsilon) / own
        for j, rate in closing:
            if rate > 0.0 and (t := (bound - values[j]) / rate) < length:
                length = t
        if math.isnan(length):
            break
        count = rows if length >= rows else math.ceil(length) if length > 0.0 else 0
        if count:
            if chain and chain[-1][0] == i:
                chain[-1][1] += count
            else:
                chain.append([i, count])
            rows -= count
            values = [v - count * d for v, d in zip(values, drops[i])]
        if first_violated:
            j = next((j for j, v in enumerate(values) if v > epsilon), None)
        else:
            high = max(values)
            j = values.index(high) if high > epsilon else None
        if j is None or not count and j == i:
            break
        i = j
    return chain


@pytest.mark.parametrize("first_violated", [False, True])
@pytest.mark.parametrize("count", [1, 2, 3, 10, 40])
def test_run_predictor_returns_the_list_loops_runs(count, first_violated):
    # the generated straight-line predictor, on run tables built by
    # _AffineRuns._table, against the loop over the list of values, on
    # random values and drops, exact ties, signed zeros, infinities and
    # NaN, constraints that end a prediction, and row caps that cut a run
    predict = solver._run_predictor(count, first_violated)
    assert solver._run_predictor(count, first_violated) is predict
    rng = np.random.default_rng(count + 100 * first_violated)
    specials = [0.0, -0.0, 0.05, 1.0, -1.0, math.inf, -math.inf, math.nan]
    epsilon = 0.05

    def unbuilt(i):
        raise AssertionError(f"table {i} not built")

    for case in range(40):
        kind = case % 4
        if kind == 2:
            values = rng.choice(specials, count)
            drops = rng.choice(specials, (count, count))
        elif kind == 1:  # ties
            values = rng.integers(-2, 6, count) / 8.0
            drops = rng.integers(-1, 3, (count, count)) / 16.0
        else:
            values = rng.standard_normal(count)
            drops = rng.standard_normal((count, count)) / 50.0
            drops[np.diag_indices(count)] = rng.uniform(0.01, 0.1, count)
        ends = (rng.uniform(size=count) < (0.2 if kind == 3 else 0.0)).tolist()
        values, drops = values.tolist(), drops.tolist()
        tables = mock.Mock(drops=drops, ends=ends, first_violated=first_violated, tables={})
        for i in range(count):
            solver._AffineRuns._table(tables, i)
        for i in range(count):
            for rows in (1, 3, 500):
                expected = _listed_runs(values, i, rows, epsilon, first_violated, drops, ends)
                assert predict(values, i, rows, epsilon, tables.tables, unbuilt) == expected


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
    """Calls of each bank's stacked product in tracked runs, by bank: the
    real scans that tracked values stand in for.  A stepwise reference
    tracks nothing, so its scans are not counted."""
    counts = {}
    inner = solver._BallTracker.__init__

    def counted(self, bank, ball, scan, *args):
        def counted_scan(x):
            counts[bank] = counts.get(bank, 0) + 1
            return scan(x)

        inner(self, bank, ball, counted_scan, *args)

    monkeypatch.setattr(solver._BallTracker, "__init__", counted)
    return counts


def _decisions(report):
    """Constraint choices a run made: one per step, and one more where a
    degenerate subgradient ended it."""
    return report.total_steps + (report.stop_reason in (
        StopReason.ZERO_OBJECTIVE_GRADIENT, StopReason.INFEASIBLE_CONSTRAINT))


@pytest.mark.parametrize("cap", [777, 10**6])
@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _POLICY_NAMES)
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
        fast, stepped, _ = run_both(instance, ball, config)
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
@pytest.mark.parametrize("policy", _POLICY_NAMES)
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
        fast, stepped, _ = run_both(instance, ball, config)
        assert_bitwise_equal(fast, stepped)
        if seed % 3 == 0:
            assert scans.pop(instance.constraint_bank()) == 1
        mixed += fast.productive_count > 0 and fast.nonproductive_count > 0
    assert mixed >= 2
    assert scales and max(scales) < 1.0


@pytest.mark.parametrize("value", [0.1, np.nextafter(0.1, 0.0)], ids=["at", "one-ulp-below"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _POLICY_NAMES)
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
    fast, stepped, _ = run_both(held, ball, config)
    assert_bitwise_equal(fast, stepped)
    assert fast.total_steps > 100
    assert scans[held.constraint_bank()] == _decisions(fast)


@pytest.mark.parametrize("offset", [0.0, 1.0], ids=["duplicate", "one-ulp"])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _POLICY_NAMES)
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
        fast, stepped, _ = run_both(tied, ball, config)
        assert_bitwise_equal(fast, stepped)
        assert scans[tied.constraint_bank()] >= fast.nonproductive_count


@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_tracked_ball_run_takes_few_real_scans(monkeypatch, policy):
    scans = _counted_scans(monkeypatch)
    instance, ball = _ball_cell(3)
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, policy=policy)
    fast, stepped, _ = run_both(instance, ball, config)
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
    config = RunConfig(0.05, regime=regime, policy=Policy.AGGREGATE_MAX)
    report = run(instance, ball, config)
    assert checked[0] == _decisions(report) - 1
    # the bound stays far inside the margins the choices need
    assert worst[0] < 1e-9


# ------------------------------------------------ support scan on the simplex


def _simplex_cell(seed, n=200, m=50, pieces=10):
    """The benchmark's synthetic simplex problem at a smaller size: rows
    that are low where a Dirichlet-sparse point x* has its mass, violated
    at the uniform start and feasible at x*, and a max of affine pieces of
    dual norm 2, on which the two regimes step differently; x* as known
    optimum."""
    rng = np.random.default_rng(seed)
    x_star = rng.dirichlet(np.full(n, 0.05))
    a = (0.3 * rng.standard_normal((m, n))
         - rng.uniform(0.5, 2.0, (m, 1)) * (x_star / x_star.max()))
    a *= rng.uniform(1.0, 1.2, (m, 1)) / np.abs(a).max(axis=1, keepdims=True)
    b = -(a @ x_star) - rng.uniform(0.005, 0.05, m)
    c = rng.standard_normal((pieces, n))
    c *= 2.0 / np.abs(c).max(axis=1, keepdims=True)
    objective = MaxOracle([AffineOracle(row, offset)
                           for row, offset in zip(c, rng.uniform(-0.1, 0.1, pieces))])
    constraints = [AffineOracle(row, offset) for row, offset in zip(a, b)]
    instance = ProblemInstance(n, objective, constraints,
                               known_optimum=(x_star, objective.value(x_star)))
    return instance, EntropySimplex(n, 2.0)


def _counted_products(monkeypatch):
    """Calls of ``OracleBank.scan`` by bank: the stacked products runs take."""
    counts = {}
    inner = OracleBank.scan

    def counted(self, x, out=None):
        counts[self] = counts.get(self, 0) + 1
        return inner(self, x, out)

    monkeypatch.setattr(OracleBank, "scan", counted)
    return counts


def _support_runs(instance, simplex, config, products):
    """The run, its stepwise reference, and the stacked constraint
    products each took."""
    bank = instance.constraint_bank()
    products.pop(bank, None)  # the instance's check of its known optimum
    fast = run(instance, simplex, config)
    taken = products.pop(bank, 0)
    stepped = run(instance, stepwise(simplex), config)
    return fast, stepped, taken, products.pop(bank, 0)


@pytest.mark.parametrize("record_history", [False, True])
@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_support_scans_equal_stepwise_runs_on_sparse_simplex_instances(
        monkeypatch, policy, regime, record_history):
    # the size rule is tested apart: here the 50 x 200 banks take the scan
    monkeypatch.setattr(solver, "_SUPPORT_MIN_SIZE", 0)
    products = _counted_products(monkeypatch)
    for seed in (0, 1):
        instance, simplex = _simplex_cell(seed)
        config = RunConfig(0.05, regime=regime, policy=policy,
                           record_history=record_history)
        fast, stepped, taken, full = _support_runs(instance, simplex, config, products)
        assert_bitwise_equal(fast, stepped)
        assert fast.stop_reason is StopReason.CRITERION_MET
        assert fast.productive_count > 500 and fast.nonproductive_count > 500
        # the reference takes the product at every choice and for the
        # output; the support scan leaves most of them out
        assert full == _decisions(stepped) + 1
        assert taken < 0.7 * full


@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_support_scan_takes_banks_of_its_size_only(monkeypatch, policy):
    products = _counted_products(monkeypatch)
    for m, n in ((200, 500), (50, 200)):
        instance, simplex = _simplex_cell(2, n=n, m=m)
        reduced = m * n >= solver._SUPPORT_MIN_SIZE
        assert reduced == (m == 200)
        config = RunConfig(0.05, regime=Regime.NONSTANDARD, policy=policy)
        fast, stepped, taken, full = _support_runs(instance, simplex, config, products)
        assert_bitwise_equal(fast, stepped)
        assert full == _decisions(stepped) + 1
        assert taken < 0.7 * full if reduced else taken == full


@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_support_scan_decides_as_the_stacked_product(monkeypatch, policy):
    # wherever the selector reads the reduced product, the stacked one has
    # the same violated set and, under aggregate-max, the same
    # argmax; the two differ by at most the tail a fresh support leaves,
    # n floors times the largest entry, 1.2
    monkeypatch.setattr(solver, "_SUPPORT_MIN_SIZE", 0)
    instance, simplex = _simplex_cell(4)
    bank = instance.constraint_bank()
    inner = solver._SupportScan.scan
    read = [0]

    def checked_scan(self, x):
        vals, i, high = inner(self, x)
        if vals is self.values:
            full = np.dot(bank._matrix, x) + bank._offsets
            assert np.array_equal(full > 0.05, vals > 0.05)
            if Policy(policy) is Policy.AGGREGATE_MAX:
                assert full.argmax() == i
            assert np.abs(full - vals).max() <= 1.2 * self.stale
            read[0] += 1
        return vals, i, high

    monkeypatch.setattr(solver._SupportScan, "scan", checked_scan)
    report = run(instance, simplex, RunConfig(0.05, policy=policy))
    assert read[0] > 0.3 * _decisions(report)


@pytest.mark.parametrize("offset", [0.0, 1.0], ids=["duplicate", "one-ulp"])
@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_support_scans_with_near_tied_constraints(monkeypatch, policy, offset):
    # each row has a twin, equal or one ulp higher in b: while a twin pair
    # tops the violated rows no margin separates the two, so under the
    # aggregate-max the stacked product decides between them
    monkeypatch.setattr(solver, "_SUPPORT_MIN_SIZE", 0)
    products = _counted_products(monkeypatch)
    cell, simplex = _simplex_cell(7)
    twins = [AffineOracle(c.a, np.nextafter(c.b, math.inf) if offset else c.b)
             for c in cell.constraints]
    tied = ProblemInstance(200, cell.objective, [*cell.constraints, *twins])
    inner = solver._SupportScan.scan
    violated = [0]  # choices of a violated row from the support's values

    def counted_scan(self, x):
        vals, i, high = inner(self, x)
        violated[0] += vals is self.values and high > 0.05
        return vals, i, high

    monkeypatch.setattr(solver._SupportScan, "scan", counted_scan)
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, policy=policy,
                       record_history=True)
    fast, stepped, taken, full = _support_runs(tied, simplex, config, products)
    assert_bitwise_equal(fast, stepped)
    assert taken < 0.7 * full
    if Policy(policy) is Policy.AGGREGATE_MAX:
        assert violated[0] == 0
    else:
        assert violated[0] > 100


@pytest.mark.parametrize("ranked", [False, True])
@pytest.mark.parametrize("case", ["left-out", "negative", "nan", "huge"])
def test_support_scan_takes_the_stacked_product_where_unsure(case, ranked):
    # 40 coordinates of 0.025 hold the support, and x_j, under the floor, is
    # 5e-8: the row e_j at eps - 2e-8 is violated by 3e-8, though over the
    # support it sits 2e-8 under eps; -0.01, off the simplex, where the
    # bound does not hold; or NaN, which the stacked product raises at.  A
    # row of 2^1021 is past the largest values the scan takes.  With x_j =
    # 0 the scan reads the support's values, but for that row.
    n, j, eps = 200, 150, 0.05
    if case == "huge":
        rows = [AffineOracle(2.0**1021 * np.eye(n)[0], -(2.0**1021))]
    else:
        rows = [AffineOracle(np.ones(n), -1.0), AffineOracle(np.eye(n)[j], eps - 2e-8)]
    bank = OracleBank(rows)
    support = solver._SupportScan(bank, partial(bank.scan, out=np.empty(len(rows))),
                                  eps, ranked)
    x = np.zeros(n)
    x[:40] = 0.025
    x[j] = {"left-out": 5e-8, "negative": -0.01, "nan": math.nan, "huge": 0.0}[case]
    if case == "nan":
        with pytest.raises(EvaluationError):
            support.scan(x)
    else:
        vals, i, high = support.scan(x)
        assert vals is not support.values
        assert np.array_equal(vals, bank.values(x)) and i == int(vals.argmax())
    assert support.columns.shape == (len(rows), 40)
    x[j] = 0.0
    vals, i, high = support.scan(x)
    assert (vals is support.values) == (case != "huge")
    if case != "huge":
        assert (i, high) == (1, eps - 2e-8) and abs(vals[0]) < 1e-12


def test_support_scan_follows_mass_that_leaves_its_support():
    # the mass moves from coordinates 0-39 to 100-139: the first scan there
    # takes the stacked product and rebuilds the support, the next reads it
    n, eps = 200, 0.05
    bank = OracleBank([AffineOracle(np.ones(n), -1.0), AffineOracle(np.eye(n)[120], 0.0)])
    support = solver._SupportScan(bank, partial(bank.scan, out=np.empty(2)), eps, True)
    x = np.zeros(n)
    x[:40] = 0.025
    assert support.scan(x)[0] is support.values
    moved = np.roll(x, 100)
    assert support.scan(moved)[0] is not support.values
    assert np.array_equal(support.support, np.arange(100, 140))
    vals, i, high = support.scan(moved)
    assert vals is support.values and (i, high) == (1, 0.025)


class _NaNWhereSparse(Oracle):
    """Test double: ``objective``, whose value is NaN where fewer than
    ``count`` coordinates of x are above 1e-9."""

    def __init__(self, objective, count) -> None:
        self.dimension = objective.dimension
        self.objective, self.count = objective, count

    def value_and_subgradient(self, x):
        value, grad = self.objective.value_and_subgradient(x)
        return (math.nan if np.count_nonzero(x > 1e-9) < self.count else value), grad


def _simplex_outcomes(monkeypatch, instance, config):
    """Per side, on the 200-coordinate simplex: the run's report or
    EvaluationError, its mirror steps and its stacked constraint products."""
    monkeypatch.setattr(solver, "_SUPPORT_MIN_SIZE", 0)
    products = _counted_products(monkeypatch)
    bank = instance.constraint_bank()
    simplex = EntropySimplex(200, 2.0)
    sides = []
    for geometry in (simplex, stepwise(simplex)):
        steps = count_calls(geometry, "mirror_step")
        products.pop(bank, None)
        outcome = _outcome(run, instance, geometry, config)
        sides.append((outcome, steps[0], products.get(bank, 0)))
    return sides


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("row", ["2^600", "overflow"])
@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_support_scan_meets_huge_rows_as_the_stacked_product_does(monkeypatch, policy,
                                                                  row):
    # A row on x*'s heaviest coordinate k that is never violated: 2^600
    # (x_k - 0.9), whose rounding bound covers every other value, and
    # -1.5 * 2^1023 (x_k + 1), past the largest value the support scan
    # takes and -inf once x_k passes 1/3, where the stacked product raises.
    # Every choice takes the stacked product, and the second row raises at
    # the same step on both sides.
    cell, _ = _simplex_cell(5)
    k = int(cell.known_optimum[0].argmax())
    e_k = np.eye(200)[k]
    if row == "2^600":
        huge = AffineOracle(2.0**600 * e_k, -0.9 * 2.0**600)
    else:
        huge = AffineOracle(-1.5 * 2.0**1023 * e_k, -1.5 * 2.0**1023)
    instance = ProblemInstance(200, cell.objective, [*cell.constraints, huge])
    config = RunConfig(0.05, regime=Regime.NONSTANDARD, policy=policy)
    (fast, steps, taken), (stepped, stepped_steps, _) = _simplex_outcomes(
        monkeypatch, instance, config)
    assert steps == stepped_steps > 100
    if row == "2^600":
        assert_bitwise_equal(fast, stepped)
        assert taken == _decisions(fast) + 1
    else:
        assert fast is stepped is EvaluationError
        assert taken == steps + 1


@pytest.mark.parametrize("regime", list(Regime))
@pytest.mark.parametrize("policy", _POLICY_NAMES)
def test_a_nan_objective_raises_at_the_same_step_under_the_support_scan(
        monkeypatch, policy, regime):
    # NaN from the first productive step on fewer than 80 coordinates:
    # after the support scan has started
    cell, _ = _simplex_cell(5)
    instance = ProblemInstance(200, _NaNWhereSparse(cell.objective, 80), cell.constraints)
    config = RunConfig(0.05, regime=regime, policy=policy)
    (fast, steps, taken), (stepped, stepped_steps, _) = _simplex_outcomes(
        monkeypatch, instance, config)
    assert fast is stepped is EvaluationError
    assert steps == stepped_steps > 1000
    # the selector read the reduced product at a share of the steps
    assert taken < 0.9 * steps


def _full_decided(v, bound, epsilon, ranked, gap):
    """``solver._decided`` before its early exit, verbatim: the gap pass
    on every call."""
    i = int(v.argmax())
    high = v.item(i)
    np.subtract(v, epsilon, out=gap)
    np.abs(gap, out=gap)
    if not (math.isfinite(bound) and math.isfinite(high)
            and math.isfinite(v.item(v.argmin())) and np.minimum.reduce(gap) > bound):
        return None
    if high <= epsilon or not ranked:
        return i, high
    v[i] = -math.inf
    second = v.max()
    v[i] = high
    return (i, high) if second < high - 2.0 * bound else None


def _ulps_from(value: float, count: int) -> float:
    """value moved by ``count`` ulps, up where positive."""
    for _ in range(abs(count)):
        value = math.nextafter(value, math.copysign(math.inf, count))
    return value


@st.composite
def _decided_inputs(draw):
    """Values at and a few ulps off epsilon, epsilon -+ bound, epsilon + 2
    bound and epsilon + 3 bound, plus plain values and NaN, +-inf; bounds
    of 0, inf, NaN, negative, under and over an ulp of epsilon, and
    ordinary."""
    epsilon = draw(st.sampled_from([0.05, 1.0]) | st.floats(1e-9, 1e3))
    ulp = math.ulp(epsilon)
    bound = draw(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, -1e-3])
                 | st.floats(0.0, 4.0).map(lambda t: t * ulp)
                 | st.floats(0.0, 0.5).map(lambda t: t * epsilon))
    anchors = [epsilon, epsilon - bound, epsilon + bound, epsilon + 2.0 * bound,
               epsilon + 3.0 * bound]
    near = st.builds(_ulps_from, st.sampled_from(anchors), st.integers(-3, 3))
    value = (near | st.floats(-3.0 * epsilon, 3.0 * epsilon)
             | st.sampled_from([math.nan, math.inf, -math.inf]))
    v = np.array(draw(st.lists(value, min_size=1, max_size=6)), dtype=np.float64)
    return v, bound, epsilon, draw(st.booleans())


@settings(max_examples=600)
@given(_decided_inputs())
# each fails under a mutation of the early exit: the high < epsilon -
# bound form, no argmin finiteness check, no high <= epsilon guard
@example((np.array([math.nextafter(0.05, 0.0)]), 5e-18, 0.05, False))
@example((np.array([0.0, -math.inf]), 0.01, 0.05, True))
@example((np.array([1.0, 0.0]), 0.01, 0.05, True))
def test_decided_equals_the_full_gap_pass(inputs):
    # bit for bit, v left as it was, and gap untouched where max v <= epsilon
    v, bound, epsilon, ranked = inputs
    before = v.tobytes()
    gap = np.full(v.shape, 7.0)
    fast = solver._decided(v, bound, epsilon, ranked, gap)
    assert v.tobytes() == before
    full = _full_decided(v, bound, epsilon, ranked, np.empty(v.shape))
    assert v.tobytes() == before
    assert repr(fast) == repr(full)
    if np.all(np.isfinite(v)) and v.max() <= epsilon:
        assert np.all(gap == 7.0)


def test_min_dual_norm_table_order_equals_the_row_loop():
    # the stable order of the tabled norms against the loop over violated
    # rows, on random values, with tied, zero and non-finite norms
    rng = np.random.default_rng(7)
    norms = np.array([2.0, 1.0, 1.0, 0.0, 3.0, math.inf, 1.0, math.nan, 2.0])
    rows = [(i, None, norm) for i, norm in enumerate(norms)]
    row = lambda i, x: rows[i]
    kinds = set()
    for _ in range(400):
        vals = rng.choice([0.0, 1.0], norms.shape[0]) * rng.uniform(0.0, 2.0, norms.shape[0])
        scan = lambda x: (vals, int(vals.argmax()), float(vals.max()))
        loop, table = [_outcome(solver._make_selector(scan, row, 0.5, Policy.MIN_DUAL_NORM,
                                                      tabled), None)
                       for tabled in (None, norms)]
        assert loop == table
        kinds.add(table if table is None or table is EvaluationError else table[0])
    # productive, raised, and rows 1 (a tie won), 2, 3 (zero), 6 and 0 or 8
    assert {None, EvaluationError, 1, 2, 3} <= kinds


# ------------------------------------------------------------------- config


@pytest.mark.parametrize("name", ["aggregate-max", "max-violation"])
def test_run_config_coerces_strings(name):
    # max-violation is a name of aggregate-max: the aggregate constraint's
    # subgradient at a violated point is its largest member's
    config = RunConfig(0.1, regime="nonstandard", policy=name)
    assert config.regime is Regime.NONSTANDARD
    assert config.policy is Policy.AGGREGATE_MAX


def test_max_violation_is_not_a_policy_of_its_own():
    assert len(Policy) == 3
    assert Policy.MAX_VIOLATION is Policy.AGGREGATE_MAX
    assert Policy("max-violation") is Policy.AGGREGATE_MAX
    with pytest.raises(ValueError):
        RunConfig(0.1, policy="max")


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


def test_history_is_a_sequence_of_records_over_batched_segments():
    # ex 1 L first-violated: ordinary steps between batches of constraint steps
    example = build_example(1)
    settings = example.settings
    space = EuclideanSpace(settings.x0, settings.theta0)
    config = RunConfig(settings.epsilon, policy=Policy.FIRST_VIOLATED,
                       max_iterations=20_000, record_history=True)
    report = run(example.instance, space, config)
    assert_bitwise_equal(report, run(example.instance, stepwise(space), config))
    history = report.history
    assert isinstance(history, StepHistory) and not isinstance(history, Sequence)
    records = list(history)
    size = report.total_steps
    assert len(history) == len(records) == size == 20_000
    assert [record.index for record in records] == list(range(size))
    # batched steps are segments' records, all non-productive
    built = set(_batched(history))
    assert 0 < len(built) < size
    assert {records[k].kind for k in built} == {StepKind.NONPRODUCTIVE}
    # the ordinary records are the rest, the productive ones among them
    ordinary = list(history.ordinary())
    assert [r.index for r in ordinary] == [k for k in range(size) if k not in built]
    for record in ordinary:
        assert_same_record(record, records[record.index])
    productive = [r.index for r in records if r.kind is StepKind.PRODUCTIVE]
    assert productive and productive == [r.index for r in ordinary
                                         if r.kind is StepKind.PRODUCTIVE]
    # a second pass builds equal records afresh
    for a, b in zip(history, records, strict=True):
        assert a is not b
        assert_same_record(a, b)


def test_step_records_compare_by_value():
    # ex 4 L's first 50 steps: records stored by ordinary steps and ones
    # built from a segment, each point a row of its rebuilt iterates
    example = build_example(4)
    config = RunConfig(example.settings.epsilon, max_iterations=50, record_history=True)
    first, second = (run(example.instance, default_geometry(example), config).history
                     for _ in range(2))
    built = _batched(first)
    assert 0 < len(built) < 50
    records = list(first)
    for record, again, other in zip(records, first, second, strict=True):
        assert record == again == other
    assert records[built[0]] != records[built[0] + 1]
    moved = dataclasses.replace(record, point=record.point + 1.0)
    bare = dataclasses.replace(record, point=None)
    assert moved != record and bare != record and record != bare
    assert bare == dataclasses.replace(record, point=None)
    assert record != (record.index, record.point)


def _example_history(example_id, regime, policy):
    """An example's report with history and its stepwise reference."""
    example = build_example(example_id)
    config = RunConfig(example.settings.epsilon, regime=regime, policy=policy,
                       record_history=True)
    space = default_geometry(example)
    return (run(example.instance, space, config),
            run(stepwise_instance(example.instance), stepwise(space), config))


def _segments(history):
    return [entry for entry in history._entries if isinstance(entry, solver._Segment)]


def _batched(history):
    """The indices of the steps the history holds in segments, ascending."""
    return [k for segment in _segments(history)
            for k in range(segment.index, segment.index + segment.count)]


@pytest.mark.parametrize("example_id, regime, policy", [
    (4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED), (6, Regime.NONSTANDARD, Policy.AGGREGATE_MAX)])
def test_history_segments_hold_two_points_each(example_id, regime, policy):
    # a segment keeps its first iterate and a read-only view of the run's
    # one step table, not the iterates it took: 2 n floats however long
    report, stepped = _example_history(example_id, regime, policy)
    assert_bitwise_equal(report, stepped)
    history = report.history
    segments = _segments(history)
    batched = len(history) - sum(1 for _ in history.ordinary())
    assert segments and batched > 10 * len(segments)
    held = sum(field.nbytes for segment in segments for field in segment
               if isinstance(field, np.ndarray))
    assert held <= 2 * report.output_point.nbytes * len(segments)
    assert len({id(segment.step.base) for segment in segments}) == 1
    assert not any(segment.step.flags.writeable for segment in segments)


def test_history_reads_rebuild_each_segment_once(monkeypatch):
    # ex 4 L first-violated: a pass rebuilds each segment once, in step
    # order, and ordinary() none
    report, stepped = _example_history(4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)
    history, records = report.history, list(stepped.history)
    segments = _segments(history)
    assert len(segments) > 2
    rebuilds = []
    inner = solver._Segment.records

    def counted(self):
        rebuilds.append(self.index)
        return inner(self)

    monkeypatch.setattr(solver._Segment, "records", counted)
    for _ in range(2):
        rebuilds.clear()
        for a, b in zip(history, records, strict=True):
            assert_same_record(a, b)
        assert rebuilds == [segment.index for segment in segments]
    rebuilds.clear()
    assert sum(1 for _ in history.ordinary()) == len(records) - len(_batched(history))
    assert rebuilds == []


def test_writing_into_a_batched_record_leaves_the_history_as_it_was():
    # ex 4 L first-violated: step 2 is batched, and its point is a row of
    # the pass's own rebuild
    report, stepped = _example_history(4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)
    history = report.history
    batched = set(_batched(history))
    assert 2 in batched
    for record in history:
        if record.index in batched:
            record.point[-1] += 1.0
    assert_bitwise_equal(report, stepped)


def test_records_are_fresh_on_every_pass():
    # ex 4 L first-violated: reassigning a field of every record of one
    # pass, ordinary and batched, changes no record of the next
    report, stepped = _example_history(4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)
    history = report.history
    assert 0 < len(_batched(history)) < len(history)
    for record in history:
        record.step_size = 0.0
    for record in history.ordinary():
        record.step_size = 0.0
    assert_bitwise_equal(report, stepped)


def test_writing_into_an_ordinary_record_raises():
    # ex 4 L first-violated: step 0 is ordinary, and its point is the
    # iterate the history keeps, read-only once recorded
    report, stepped = _example_history(4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)
    history = report.history
    record = next(iter(history))
    assert record.index == 0 and 0 not in _batched(history)
    with pytest.raises(ValueError):
        record.point[0] += 1.0
    assert not any(record.point.flags.writeable for record in history.ordinary())
    assert_bitwise_equal(report, stepped)


def test_output_point_is_not_a_history_point():
    # ex 6 N first-violated outputs its best productive iterate, whose
    # record the history keeps: writing into the output leaves it alone
    report, _ = _example_history(6, Regime.NONSTANDARD, Policy.FIRST_VIOLATED)
    out = report.output_point
    holders = {record.index: record.point.copy() for record in report.history.ordinary()
               if np.array_equal(record.point, out)}
    assert holders
    out += 1.0
    for record in report.history.ordinary():
        if record.index in holders:
            assert record.point.tobytes() == holders[record.index].tobytes()


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
