"""Unit tests for the built-in benchmark family and verification helpers."""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from mirropt import (
    AffineOracle,
    EntropySimplex,
    EuclideanBall,
    GridSpec,
    Policy,
    ProblemInstance,
    QuadraticOracle,
    Regime,
    RunConfig,
    SolverReport,
    StopReason,
    VerificationCheck,
    brute_force_optimum,
    build_example,
    default_geometry,
    run,
    verify_example,
)
from mirropt.benchmarks import EXAMPLE_IDS, REFERENCE_RESULTS, constraint_matrix


def test_constraint_matrix_coefficients():
    # independent reconstruction of all 100 coefficients
    expected = np.zeros((10, 10))
    for m in range(1, 11):
        expected[m - 1, 0] = 1.0
        for j in range(2, 11):
            expected[m - 1, j - 1] = 100.0 * (m - 1) + 10.0 * j
    assert np.array_equal(constraint_matrix(), expected)


def test_constraint_rows_at_ones():
    # row sums form the arithmetic progression 541, 1441, ..., 8641
    sums = constraint_matrix() @ np.ones(10)
    expected = np.array([541.0 + 900.0 * m for m in range(10)])
    assert np.array_equal(sums, expected)


def test_constraint_row_norms_are_nondecreasing():
    norms = np.linalg.norm(constraint_matrix(), axis=1)
    assert np.all(np.diff(norms) >= 0.0)


def test_shared_settings():
    for example_id in EXAMPLE_IDS:
        example = build_example(example_id)
        assert np.array_equal(example.settings.x0, np.ones(10))
        assert example.settings.theta0 == 3.0
        assert example.settings.epsilon == 0.05
        assert example.instance.dimension == 10
        assert example.instance.n_constraints == 10


def test_reference_points_and_values():
    expected_values = {1: 0.0, 2: 0.0, 3: 0.0, 4: 5.0, 5: 0.0, 6: 0.0}
    for example_id in EXAMPLE_IDS:
        example = build_example(example_id)
        point, value = example.instance.known_optimum
        assert np.array_equal(point, np.zeros(10))
        assert value == expected_values[example_id]
        # the reference point is exactly the instance objective at zero
        assert example.instance.objective.value(point) == value


def test_reference_point_within_prox_radius():
    # d(x*) = 5 <= theta0^2 = 9, the premise behind the gap guarantees
    example = build_example(1)
    geometry = default_geometry(example)
    assert geometry.distance_generating_value(np.zeros(10)) == 5.0
    assert geometry.theta0**2 == 9.0


def test_objective_values_at_start_point():
    ones = np.ones(10)
    values = {
        example_id: build_example(example_id).instance.objective.value(ones)
        for example_id in EXAMPLE_IDS
    }
    assert math.isclose(values[1], math.sqrt(1.9), rel_tol=1e-12)
    assert values[2] == 10.0
    assert values[3] == 12207030.0
    assert values[4] == pytest.approx(5.018, rel=1e-12)
    assert values[5] == 10000.0
    assert values[6] == 22.0


def test_objectives_globally_minimal_at_zero_where_claimed():
    # examples 1, 3, 4, 5 attain their global minimum at the origin
    rng = np.random.default_rng(13)
    for example_id in (1, 3, 4, 5):
        instance = build_example(example_id).instance
        reference = instance.known_optimum[1]
        for _ in range(200):
            x = rng.uniform(-3.0, 3.0, 10)
            assert instance.objective.value(x) >= reference - 1e-12


def test_regimes_with_completed_reference():
    # regimes with a recorded run that met the criterion, per example
    expected = {
        1: {Regime.LIPSCHITZ},
        2: {Regime.LIPSCHITZ, Regime.NONSTANDARD},
        3: {Regime.NONSTANDARD},
        4: {Regime.LIPSCHITZ},
        5: {Regime.NONSTANDARD},
        6: {Regime.NONSTANDARD},
    }
    for example_id in EXAMPLE_IDS:
        completed = {regime for (ref_id, regime, _), ref in REFERENCE_RESULTS.items()
                     if ref_id == example_id and ref.iterations is not None}
        assert completed == expected[example_id]


def test_reference_results_table_complete():
    assert len(REFERENCE_RESULTS) == 20
    assert REFERENCE_RESULTS[(4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED)].iterations == 17255
    assert REFERENCE_RESULTS[(4, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX)].iterations == 172821
    capped = REFERENCE_RESULTS[(3, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX)]
    assert capped.iterations is None
    assert capped.cap == 10**7
    assert REFERENCE_RESULTS[(6, Regime.NONSTANDARD, Policy.FIRST_VIOLATED)].iterations == 24454


def test_build_example_rejects_unknown_id():
    with pytest.raises(ValueError):
        build_example(7)
    with pytest.raises(ValueError):
        build_example(0)


# -------------------------------------------------------------- verification


def test_verify_example_passes_on_real_run():
    example = build_example(4)
    report = run(
        example.instance,
        default_geometry(example),
        RunConfig(0.05, regime=Regime.LIPSCHITZ, policy=Policy.FIRST_VIOLATED),
    )
    result = verify_example(report, example)
    assert result.checks[0] == VerificationCheck("converged", True, "criterion-met")
    assert result.all_passed
    names = [check.name for check in result.checks]
    assert "objective_gap" in names
    assert "constraint_residuals" in names
    assert "iteration_bound" in names


def test_verify_example_nonstandard_certificate():
    example = build_example(4)
    report = run(
        example.instance,
        default_geometry(example),
        RunConfig(0.05, regime=Regime.NONSTANDARD, policy=Policy.FIRST_VIOLATED),
    )
    # The certificate comes from the run itself; no history is recorded.
    assert report.history is None
    result = verify_example(report, example)
    assert result.all_passed
    names = [check.name for check in result.checks]
    assert "vf_certificate" in names
    # the gap check is a Lipschitz-regime guarantee only
    assert "objective_gap" not in names


def test_verify_example_capped_run_fails_converged_only():
    example = build_example(4)
    report = run(
        example.instance, default_geometry(example), RunConfig(0.05, max_iterations=10)
    )
    result = verify_example(report, example)
    assert result.checks == (VerificationCheck("converged", False, "iteration-cap"),)
    assert not result.all_passed


def test_verify_example_flags_violating_output():
    # hand-built report claiming the start point as output: g_10 = 8641
    example = build_example(1)
    config = RunConfig(0.05, regime=Regime.LIPSCHITZ)
    report = SolverReport(
        total_steps=1,
        productive_count=1,
        nonproductive_count=0,
        output_point=np.ones(10),
        output_objective=example.instance.objective.value(np.ones(10)),
        output_max_violation=8641.0,
        stop_reason=StopReason.CRITERION_MET,
        a_priori_bound=None,
        wall_time=0.0,
        config=config,
    )
    result = verify_example(report, example)
    assert result.checks[0] == VerificationCheck("converged", True, "criterion-met")
    assert not result.all_passed
    failed = {check.name for check in result.checks if not check.passed}
    assert "constraint_residuals" in failed


def test_verify_example_rejects_mismatched_epsilon():
    example = build_example(4)
    report = run(
        example.instance, default_geometry(example), RunConfig(0.1, max_iterations=10)
    )
    with pytest.raises(ValueError):
        verify_example(report, example)


# --------------------------------------------------------------- brute force


def test_brute_force_parabola():
    instance = ProblemInstance(
        1, QuadraticOracle([[2.0]]), [AffineOracle([1.0], -10.0)]
    )
    point, value = brute_force_optimum(instance, GridSpec(-1.0, 1.0, 1e-3))
    assert point[0] == 0.0
    assert value == 0.0


def test_brute_force_active_constraint():
    # minimize x subject to -x - 0.5 <= 0: optimum at the boundary -0.5
    instance = ProblemInstance(
        1, AffineOracle([1.0]), [AffineOracle([-1.0], -0.5)]
    )
    point, value = brute_force_optimum(instance, GridSpec(-1.0, 1.0, 1e-3))
    assert point[0] == pytest.approx(-0.5, abs=1e-12)
    assert value == pytest.approx(-0.5, abs=1e-12)


def test_brute_force_disk_matches_closed_form():
    instance = ProblemInstance(
        2,
        AffineOracle([1.0, 1.0]),
        [AffineOracle([1.0, 0.0], -1.0), AffineOracle([0.0, 1.0], -1.0)],
    )
    ball = EuclideanBall([0.0, 0.0], 2.0, 2.0)
    _, value = brute_force_optimum(
        instance, GridSpec(-2.0, 2.0, 1e-3, geometry=ball)
    )
    # optimum -2 sqrt(2) on the ball boundary, grid error O(spacing)
    assert value == pytest.approx(-2.0 * math.sqrt(2.0), abs=3e-3)


def test_brute_force_rejects_high_dimension():
    instance = build_example(1).instance
    with pytest.raises(ValueError):
        brute_force_optimum(instance, GridSpec(-1.0, 1.0, 0.5))


def test_brute_force_rejects_infeasible_box():
    instance = ProblemInstance(1, AffineOracle([1.0]), [AffineOracle([0.0], 10.0)])
    with pytest.raises(ValueError):
        brute_force_optimum(instance, GridSpec(-1.0, 1.0, 0.5))


def test_brute_force_rejects_simplex_geometry():
    instance = ProblemInstance(
        2, AffineOracle([1.0, 0.0]), [AffineOracle([0.0, 1.0], -1.0)]
    )
    with pytest.raises(ValueError):
        brute_force_optimum(
            instance, GridSpec(0.0, 1.0, 0.1, geometry=EntropySimplex(2, 1.0))
        )


def test_brute_force_validates_grid():
    instance = ProblemInstance(1, AffineOracle([1.0]), [AffineOracle([1.0], -10.0)])
    with pytest.raises(ValueError):
        brute_force_optimum(instance, GridSpec(-1.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        brute_force_optimum(instance, GridSpec(1.0, -1.0, 0.5))


# ---------------------------------------------------------- benchmark harness


def test_benchmark_workloads_drive_the_library(tmp_path, monkeypatch):
    # perfbench/ builds, runs and checks its cells through the library's
    # public API; this keeps those entry points working without the harness
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")

    cell = workloads.reference_cell(4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED,
                                    True, 0)
    report = workloads.run_cell(cell, 0)
    assert len(report.history) == report.total_steps
    assert workloads.check_cell(cell, report, 0)

    workloads.write_synth_problems(0, tmp_path)
    for index, (kind, policy) in enumerate(workloads.SYNTH_CELLS):
        cell = workloads.synth_cell(kind, policy, tmp_path, index)
        assert cell.instance.dimension == workloads.SYNTH_DIMENSION
        assert cell.instance.n_constraints == workloads.SYNTH_CONSTRAINTS
        assert cell.config.policy is policy
        assert cell.geometry.dimension == workloads.SYNTH_DIMENSION
