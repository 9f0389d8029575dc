"""Unit tests for functional oracles and problem instances."""

import math

import numpy as np
import pytest

from mirropt import (
    AbsAffinePlusOracle,
    AffineOracle,
    EntropySimplex,
    MaxOracle,
    OracleBank,
    ProblemInstance,
    QuadraticOracle,
    SqrtQuadraticOracle,
    estimate_lipschitz,
    max_violation,
)
from mirropt.benchmarks import build_example


def _constant(value: float, dimension: int = 2) -> AffineOracle:
    return AffineOracle(np.zeros(dimension), value)


def test_affine_value_and_subgradient():
    # coefficient row (1, 20, 30, ..., 100) sums to 541 at the all-ones point
    a = np.array([1.0] + [10.0 * j for j in range(2, 11)])
    oracle = AffineOracle(a)
    val, sub = oracle.value_and_subgradient(np.ones(10))
    assert val == 541.0
    assert np.array_equal(sub, a)


def test_affine_auto_lipschitz_metadata():
    oracle = AffineOracle([3.0, 4.0], 7.0)
    assert oracle.lipschitz_value == 5.0
    assert oracle.lipschitz_gradient == 0.0


def test_affine_explicit_metadata_wins():
    oracle = AffineOracle([3.0, 4.0], lipschitz_value=9.0)
    assert oracle.lipschitz_value == 9.0


def test_quadratic_value_and_gradient():
    A = np.array([[2.0, 0.0], [0.0, 4.0]])
    oracle = QuadraticOracle(A, b=[1.0, 0.0], alpha=0.5)
    x = np.array([1.0, -1.0])
    val, sub = oracle.value_and_subgradient(x)
    assert val == 0.5 * (2.0 + 4.0) - 1.0 + 0.5
    assert np.array_equal(sub, np.array([1.0, -4.0]))


def test_quadratic_auto_gradient_lipschitz_is_top_eigenvalue():
    oracle = QuadraticOracle(np.diag([2.0, 5.0, 1.0]))
    assert oracle.lipschitz_gradient == pytest.approx(5.0, rel=1e-12)


@pytest.mark.parametrize(
    "matrix",
    [
        [[1.0, 2.0], [0.0, 1.0]],       # asymmetric
        [[-1.0, 0.0], [0.0, 1.0]],      # indefinite
        [[1.0, 0.0, 0.0]],              # not square
    ],
)
def test_quadratic_rejects_bad_matrices(matrix):
    with pytest.raises(ValueError):
        QuadraticOracle(matrix)


def test_sqrt_quadratic_value():
    oracle = SqrtQuadraticOracle(np.diag([2.0, 0.5]), scale=2.0)
    val, _ = oracle.value_and_subgradient(np.array([1.0, 1.0]))
    assert val == pytest.approx(math.sqrt(5.0), rel=1e-15)


def test_sqrt_quadratic_zero_form_returns_zero_pair():
    oracle = SqrtQuadraticOracle(np.eye(3))
    val, sub = oracle.value_and_subgradient(np.zeros(3))
    assert val == 0.0
    assert np.array_equal(sub, np.zeros(3))


def test_sqrt_quadratic_auto_lipschitz():
    oracle = SqrtQuadraticOracle(np.diag([4.0, 1.0]), scale=0.25)
    assert oracle.lipschitz_value == pytest.approx(1.0, rel=1e-12)


def test_abs_affine_plus_branches():
    oracle = AbsAffinePlusOracle([2.0, 0.0], shift=1.0, scale=3.0)
    val, sub = oracle.value_and_subgradient(np.array([1.0, 1.0]))
    assert val == 7.0
    assert np.array_equal(sub, np.array([6.0, 0.0]))
    val, sub = oracle.value_and_subgradient(np.array([-1.0, 0.0]))
    assert val == 7.0
    assert np.array_equal(sub, np.array([-6.0, 0.0]))


def test_abs_affine_plus_kink_subgradient_is_zero():
    oracle = AbsAffinePlusOracle([2.0, 0.0], shift=1.0, scale=3.0)
    val, sub = oracle.value_and_subgradient(np.array([0.0, 5.0]))
    assert val == 1.0
    assert np.array_equal(sub, np.zeros(2))


def test_abs_affine_plus_auto_lipschitz():
    oracle = AbsAffinePlusOracle([3.0, 4.0], scale=2.0)
    assert oracle.lipschitz_value == 10.0


def test_max_oracle_tie_breaks_to_first_child():
    first = AffineOracle([1.0, 0.0])
    second = AffineOracle([0.0, 1.0])
    oracle = MaxOracle([first, second])
    val, sub = oracle.value_and_subgradient(np.array([0.5, 0.5]))
    assert val == 0.5
    assert np.array_equal(sub, first.a)


def test_max_oracle_tracks_largest_child():
    oracle = MaxOracle([AffineOracle([1.0, 0.0]), AffineOracle([0.0, 1.0])])
    val, sub = oracle.value_and_subgradient(np.array([0.1, 2.0]))
    assert val == 2.0
    assert np.array_equal(sub, np.array([0.0, 1.0]))


def test_max_oracle_auto_lipschitz_from_children():
    oracle = MaxOracle([AffineOracle([3.0, 4.0]), AffineOracle([1.0, 0.0])])
    assert oracle.lipschitz_value == 5.0


_CONSTRUCTORS = {
    "affine": lambda **meta: AffineOracle([1.0, 2.0], **meta),
    "quadratic": lambda **meta: QuadraticOracle(np.eye(2), **meta),
    "sqrt_quadratic": lambda **meta: SqrtQuadraticOracle(np.eye(2), **meta),
    "abs_affine_plus": lambda **meta: AbsAffinePlusOracle([1.0, 2.0], **meta),
    "max_of": lambda **meta: MaxOracle([AffineOracle([1.0, 2.0])], **meta),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
@pytest.mark.parametrize("field", ["lipschitz_value", "lipschitz_gradient"])
@pytest.mark.parametrize("kind", list(_CONSTRUCTORS))
def test_lipschitz_metadata_must_be_finite_and_nonnegative(kind, field, bad):
    # A NaN bound would reach the a-priori iteration bound, where max()
    # over constraint bounds depends on where the NaN sits in the list.
    with pytest.raises(ValueError, match=field):
        _CONSTRUCTORS[kind](**{field: bad})
    assert getattr(_CONSTRUCTORS[kind](**{field: 0.0}), field) == 0.0


@pytest.mark.parametrize("oracle, field, expected", [
    # eigvalsh of this PSD-within-tolerance matrix dips below 0 by rounding
    (lambda: SqrtQuadraticOracle([[-1e-17]]), "lipschitz_value", 0.0),
    (lambda: QuadraticOracle([[-1e-17]]), "lipschitz_gradient", 0.0),
    # ||a||^2 overflows, so the bound is unknown rather than inf
    (lambda: AffineOracle([1e200, 1e200]), "lipschitz_value", None),
    (lambda: AbsAffinePlusOracle([2.0**996, -(2.0**996)]), "lipschitz_value", None),
], ids=["sqrt-negative-eigenvalue", "quadratic-negative-eigenvalue",
        "affine-overflow", "abs-affine-overflow"])
def test_derived_metadata_is_finite_and_nonnegative(oracle, field, expected):
    assert getattr(oracle(), field) == expected


def _oracles_of_every_kind():
    rng = np.random.default_rng(11)
    m = rng.standard_normal((3, 3))
    psd = m @ m.T + np.eye(3)
    affine = AffineOracle(rng.standard_normal(3), rng.standard_normal())
    quadratic = QuadraticOracle(psd, rng.standard_normal(3), rng.standard_normal())
    sqrt_quadratic = SqrtQuadraticOracle(psd, scale=0.7)
    abs_affine = AbsAffinePlusOracle(rng.standard_normal(3), shift=0.3, scale=2.0)
    flat_max = MaxOracle([affine, quadratic, abs_affine])
    nested_max = MaxOracle([flat_max, sqrt_quadratic,
                            MaxOracle([AffineOracle([0.5, -1.0, 2.0], 1.0)])])
    return {"affine": affine, "quadratic": quadratic,
            "sqrt_quadratic": sqrt_quadratic, "abs_affine_plus": abs_affine,
            "max_of": flat_max, "nested max_of": nested_max}


@pytest.mark.parametrize("kind", list(_oracles_of_every_kind()))
def test_batch_values_match_pointwise_values(kind):
    oracle = _oracles_of_every_kind()[kind]
    points = np.random.default_rng(5).uniform(-3.0, 3.0, (200, 3))
    points[0] = 0.0  # the sqrt form and the absolute value at their kinks
    looped = np.array([oracle.value(p) for p in points])
    # Values are O(100) from three-term sums summed in another order, so
    # float64 rounding stays many orders below this tolerance.
    np.testing.assert_allclose(oracle.values(points), looped,
                               rtol=1e-12, atol=1e-12)
    # value and subgradient are the parts of value_and_subgradient, bit for
    # bit, also where a kind overrides one of them.
    for p in points:
        val, sub = oracle.value_and_subgradient(p)
        assert oracle.value(p).hex() == val.hex()
        assert oracle.subgradient(p).tobytes() == sub.tobytes()


def test_oracle_bank_affine_fast_path_matches_loop():
    rng = np.random.default_rng(7)
    oracles = [AffineOracle(rng.standard_normal(6), rng.standard_normal()) for _ in range(5)]
    bank = OracleBank(oracles)
    x = rng.standard_normal(6)
    stacked = bank.values(x)
    looped = np.array([o.value(x) for o in oracles])
    assert np.allclose(stacked, looped, rtol=1e-12, atol=0.0)


def test_oracle_bank_mixed_path_is_exact_loop():
    oracles = [QuadraticOracle(np.eye(2)), AffineOracle([1.0, -1.0], 0.25)]
    bank = OracleBank(oracles)
    x = np.array([0.3, -0.7])
    assert np.array_equal(bank.values(x), np.array([o.value(x) for o in oracles]))


def test_oracle_bank_max_entry_first_occurrence():
    bank = OracleBank([_constant(2.0), _constant(5.0), _constant(5.0)])
    val, idx = bank.max_entry(np.zeros(2))
    assert (val, idx) == (5.0, 1)


def test_oracle_bank_rejects_empty_and_mismatched():
    with pytest.raises(ValueError):
        OracleBank([])
    with pytest.raises(ValueError):
        OracleBank([AffineOracle([1.0]), AffineOracle([1.0, 2.0])])


def test_max_violation_reports_one_based_argmax():
    constraints = [_constant(-1.0), _constant(-2.0), _constant(-3.0)]
    value, index = max_violation(constraints, np.zeros(2))
    assert (value, index) == (-1.0, 1)


def test_max_violation_tie_goes_to_lowest_index():
    constraints = [_constant(4.0), _constant(4.0)]
    assert max_violation(constraints, np.zeros(2)) == (4.0, 1)


def test_max_violation_benchmark_row_ten_dominates():
    # independent recomputation: row 10 is 1 + sum_{j=2..10} (900 + 10 j) = 8641
    expected = 1 + sum(900 + 10 * j for j in range(2, 11))
    assert expected == 8641
    instance = build_example(1).instance
    value, index = max_violation(instance, np.ones(10))
    assert value == float(expected)
    assert index == 10


def test_problem_instance_validation():
    objective = AffineOracle([1.0, 0.0])
    good = AffineOracle([0.0, 1.0], -1.0)
    with pytest.raises(ValueError):
        ProblemInstance(2, objective, [])
    with pytest.raises(ValueError):
        ProblemInstance(2, AffineOracle([1.0]), [good])
    with pytest.raises(ValueError):
        ProblemInstance(2, objective, [AffineOracle([1.0])])
    with pytest.raises(ValueError):
        # claimed optimum violates the constraint g(x) = x_2 - 1
        ProblemInstance(2, objective, [good], known_optimum=([0.0, 5.0], 0.0))


def test_problem_instance_accepts_boundary_optimum():
    # g at the claimed point is exactly zero, which counts as feasible
    instance = ProblemInstance(
        2,
        AffineOracle([1.0, 0.0]),
        [AffineOracle([0.0, 1.0], -1.0)],
        known_optimum=([0.0, 1.0], 0.0),
    )
    assert instance.known_optimum[1] == 0.0
    assert instance.n_constraints == 1


def test_estimate_lipschitz_affine_is_exact():
    oracle = AffineOracle([3.0, 4.0])
    est = estimate_lipschitz(oracle, np.zeros(2), 10.0, samples=5)
    assert est == 5.0


def test_estimate_lipschitz_quadratic_approaches_supremum():
    # grad of ||x||^2 / 2 has norm ||x|| <= 2 on the radius-2 ball
    oracle = QuadraticOracle(np.eye(2))
    est = estimate_lipschitz(oracle, np.zeros(2), 2.0, samples=4000, seed=3)
    assert 1.9 <= est <= 2.0


def test_estimate_lipschitz_regression_baseline():
    # frozen output for the first benchmark objective; guards the sampling
    # scheme (ball draw, seed handling) against accidental change
    objective = build_example(1).instance.objective
    est = estimate_lipschitz(objective, np.ones(10), 1.0, samples=2000, seed=0)
    assert est == pytest.approx(0.44208121973885, rel=1e-12)
    # sampled estimates never exceed the exact constant
    assert est <= objective.lipschitz_value


def test_estimate_lipschitz_validation():
    oracle = AffineOracle([1.0])
    with pytest.raises(ValueError):
        estimate_lipschitz(oracle, [0.0], -1.0)
    with pytest.raises(ValueError):
        estimate_lipschitz(oracle, [0.0], 1.0, samples=0)


def test_estimate_lipschitz_respects_structure_norm():
    # max-norm dual: the simplex geometry reports max|a_i|, not ||a||_2
    oracle = AffineOracle([3.0, 4.0])
    simplex = EntropySimplex(2, 1.0)
    est = estimate_lipschitz(oracle, [0.5, 0.5], 0.1, samples=3, structure=simplex)
    assert est == 4.0


def test_estimate_lipschitz_zero_radius_uses_center():
    oracle = QuadraticOracle(np.eye(2))
    est = estimate_lipschitz(oracle, [3.0, 4.0], 0.0, samples=10)
    assert est == 5.0
