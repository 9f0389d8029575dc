"""Unit tests for functional oracles and problem instances."""

import math
import warnings

import numpy as np
import pytest

from mirropt import (
    AbsAffinePlusOracle,
    AffineOracle,
    EntropySimplex,
    EvaluationError,
    MaxOracle,
    OracleBank,
    ProblemInstance,
    QuadraticOracle,
    SqrtQuadraticOracle,
    estimate_lipschitz,
    max_violation,
)
from mirropt.benchmarks import build_example

from differential import quadratic_pieces


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


def _banks(rows, offsets):
    """A stacked bank of affine rows and a member-loop bank of the same
    rows after a zero quadratic."""
    affine = [AffineOracle(a, b) for a, b in zip(rows, offsets)]
    return OracleBank(affine), OracleBank([QuadraticOracle(np.zeros((2, 2))), *affine])


def test_oracle_bank_scan_contract():
    # scan returns the values, an int argmax and a float max; values is a
    # fresh array a later scan leaves alone; a stacked bank writes into
    # out, the member loop returns a fresh array
    stacked, looped = _banks([[1.0, 2.0], [-3.0, 0.5], [1.0, 2.0]], [0.25, 0.0, 0.25])
    x, y = np.array([0.5, -1.0]), np.array([2.0, 1.0])
    for bank in (stacked, looped):
        kept = bank.values(x)
        held = kept.copy()
        vals, i, high = bank.scan(y)
        assert kept.tobytes() == held.tobytes()
        assert type(i) is int and type(high) is float
        assert (i, high) == (int(vals.argmax()), float(vals.max()))
        assert bank.max_entry(y) == (high, i)
        assert vals.tobytes() == np.array([o.value(y) for o in bank.oracles]).tobytes()
    out = np.empty(3)
    assert stacked.scan(x, out=out)[0] is out
    assert out.tobytes() == stacked.values(x).tobytes()
    out = np.empty(4)
    first = looped.scan(x, out=out)[0]
    assert first is not out and looped.scan(x, out=out)[0] is not first


@pytest.mark.parametrize("bad, row, x", [
    ("nan", [1.0, 1.0], [math.nan, 1.0]),
    ("+inf", [2.0**1000, 0.0], [2.0**100, 2.0**100]),
    ("-inf", [-(2.0**1000), 0.0], [2.0**100, 2.0**100])])
def test_oracle_bank_scan_rejects_a_nonfinite_value_from_both_kinds(bad, row, x):
    # the row's value is the named one, through the stacked product and the
    # member loop: NaN at a point with a NaN, where every value is NaN, and
    # an overflow beside a finite value
    x = np.array(x)
    for bank in _banks([[1.0, 0.0], row], [0.0, 0.0]):
        with np.errstate(over="ignore", invalid="ignore"):
            assert str(bank.oracles[-1].value(x)) == bad.lstrip("+")
            for evaluate in (bank.scan, bank.values, bank.max_entry):
                with pytest.raises(EvaluationError, match="non-finite value"):
                    evaluate(x)


def test_oracle_bank_max_entry_first_occurrence():
    bank = OracleBank([_constant(2.0), _constant(5.0), _constant(5.0)])
    val, idx = bank.max_entry(np.zeros(2))
    assert (val, idx) == (5.0, 1)


def _loop_outcome(oracle, x):
    """The member loop's value, subgradient and index, as MaxOracle took
    them before the stacked argmax, or EvaluationError."""
    bank = oracle._bank
    try:
        vals = bank.values(x)
    except EvaluationError:
        return EvaluationError
    idx = int(vals.argmax())
    return float(vals[idx]), bank.subgradient(idx, x), idx


def _assert_equals_loop(oracle, x, expected):
    """``oracle.value_and_subgradient(x)`` is the member loop's outcome
    ``expected``, bit for bit, or raises as it does."""
    if expected is EvaluationError:
        with pytest.raises(EvaluationError):
            oracle.value_and_subgradient(x)
        return
    value, grad = oracle.value_and_subgradient(x)
    assert np.float64(value).tobytes() == np.float64(expected[0]).tobytes()
    assert grad.tobytes() == expected[1].tobytes()


def _certified(oracle, x):
    """The stacked argmax at x, which must warn of nothing."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return oracle._argmax(x)


def test_stacked_argmax_equals_the_member_loop():
    # MaxOracle.value_and_subgradient over diagonal quadratic pieces against
    # the member loop, bit for bit: random pieces with an exact twin, an
    # all-zero piece and a piece scaled by 2^600, at points from 0 to 2^300
    # (where the big piece overflows) and with a NaN
    certified = taken = raised = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 6))
        pieces = quadratic_pieces(rng, n, int(rng.integers(1, 7)), spread=3)
        pieces += [pieces[0], QuadraticOracle(np.zeros((n, n))),
                   QuadraticOracle(2.0**600 * np.eye(n))]
        order = rng.permutation(len(pieces))
        oracle = MaxOracle([pieces[k] for k in order])
        assert oracle._argmax is not None
        points = [scale * rng.standard_normal(n)
                  for scale in (0.0, 1e-300, 1e-3, 1.0, 1.0, 1e3, 1e100, 2.0**300)]
        points.append(np.where(np.arange(n) == 0, math.nan, 1.0))
        for x in points:
            idx = _certified(oracle, x)
            # the member loop overflows as it may: the big piece past 2^1024
            with np.errstate(over="ignore", invalid="ignore"):
                expected = _loop_outcome(oracle, x)
                _assert_equals_loop(oracle, x, expected)
            taken += 1
            if expected is EvaluationError:
                assert idx is None
                raised += 1
            elif idx is not None:
                assert idx == expected[2]
                certified += 1
    assert raised >= 16
    assert certified >= taken // 2


def test_stacked_argmax_falls_back_on_twins_and_one_ulp():
    # exact twins and pieces one ulp apart are within every rounding bound:
    # the stacked argmax certifies neither, and the member loop decides,
    # the lowest index winning a tie
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        (piece,) = quadratic_pieces(rng, n, 1, spread=3)
        nudged = QuadraticOracle(piece.A, piece.b, np.nextafter(piece.alpha, math.inf))
        below = QuadraticOracle(piece.A, piece.b, piece.alpha - 1e6)
        for pieces in ([below, piece, piece], [piece, nudged], [nudged, piece, below]):
            oracle = MaxOracle(pieces)
            for x in (np.zeros(n), rng.standard_normal(n), 1e3 * rng.standard_normal(n)):
                assert _certified(oracle, x) is None
                _assert_equals_loop(oracle, x, _loop_outcome(oracle, x))
        assert _loop_outcome(MaxOracle([below, piece, piece]), np.zeros(n))[2] == 1


def test_stacked_argmax_on_a_zero_piece():
    # an all-zero piece above pieces below zero is certified, and alone or
    # with its twin it is exactly the member loop's
    zero = QuadraticOracle(np.zeros((2, 2)))
    below = QuadraticOracle(np.eye(2), [1.0, 0.0], -5.0)
    x = np.array([0.5, -0.25])
    oracle = MaxOracle([below, zero])
    assert _certified(oracle, x) == 1
    assert oracle.value_and_subgradient(x)[0] == 0.0
    for pieces in ([zero], [zero, zero], [below, zero, zero]):
        oracle = MaxOracle(pieces)
        for point in (x, np.zeros(2)):
            _assert_equals_loop(oracle, point, _loop_outcome(oracle, point))


def test_stacked_argmax_declines_a_subnormal_margin():
    # at x = 2^-537 the stacked product reads x^2 / 2 = 2^-1075 as above
    # zero, where the member rounds it to zero and ties the zero piece:
    # only the subnormal slack keeps the argmax from taking the second
    # piece, whose subgradient differs from the first's
    oracle = MaxOracle([QuadraticOracle(np.zeros((1, 1))), QuadraticOracle([[1.0]])])
    x = np.array([2.0**-537])
    assert _certified(oracle, x) is None
    expected = _loop_outcome(oracle, x)
    assert expected[2] == 0
    _assert_equals_loop(oracle, x, expected)


def test_overflowing_quadratic_pieces_raise_as_the_member_loop():
    # a point whose values overflow: the stacked argmax declines without a
    # RuntimeWarning, and the member loop raises EvaluationError
    a = 2.0**500 * np.diag([1.0, 0.0])
    oracle = MaxOracle([QuadraticOracle(a), QuadraticOracle(np.eye(2), [1.0, 1.0])])
    x = np.array([2.0**300, 1.0])
    assert _certified(oracle, x) is None
    with np.errstate(over="ignore", invalid="ignore"):
        assert _loop_outcome(oracle, x) is EvaluationError
        with pytest.raises(EvaluationError):
            oracle.value_and_subgradient(x)
    # data whose magnitude sum is past 2^996 take no stacked form at all
    assert MaxOracle([QuadraticOracle(2.0**1000 * np.eye(2))])._argmax is None


def test_stacked_argmax_declines_a_nan():
    oracle = MaxOracle([QuadraticOracle(np.eye(2)), QuadraticOracle(2.0 * np.eye(2))])
    x = np.array([math.nan, 1.0])
    assert _certified(oracle, x) is None
    with pytest.raises(EvaluationError):
        oracle.value_and_subgradient(x)


def test_stacked_form_needs_every_member_a_diagonal_quadratic():
    quadratic = QuadraticOracle(np.eye(2))
    dense = QuadraticOracle([[2.0, 1.0], [1.0, 2.0]])
    assert MaxOracle([quadratic])._argmax is not None
    assert MaxOracle([quadratic, dense])._argmax is None
    assert MaxOracle([quadratic, AffineOracle([1.0, 0.0])])._argmax is None
    assert MaxOracle([quadratic, MaxOracle([quadratic])])._argmax is None
    # a max of dense pieces is the member loop
    x = np.array([0.5, -2.0])
    oracle = MaxOracle([dense, quadratic])
    _assert_equals_loop(oracle, x, _loop_outcome(oracle, x))


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
