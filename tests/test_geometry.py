"""Unit tests for the prox-structure layer.

Hand-computed reference values are frozen from independent oracles:
the KL value below was evaluated with mpmath at 50 significant digits,
and both mirror-step closed forms were cross-checked against a dense
grid search over the feasible set before being recorded here.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mirropt import (
    EntropySimplex,
    EuclideanBall,
    EuclideanSpace,
    bregman_divergence,
    dual_norm,
    mirror_step,
)

# mpmath 50-digit oracle for 0.25*ln(0.5/... ) i.e. KL((0.25,0.75) || (0.5,0.5)):
# 0.13081203594113695912920180623371771041011778400681
KL_QUARTER = 0.13081203594113697


def test_dual_norm_zero_vector():
    space = EuclideanSpace(np.zeros(3), 1.0)
    assert dual_norm(np.zeros(3), space) == 0.0


def test_dual_norm_euclidean():
    space = EuclideanSpace(np.zeros(2), 1.0)
    assert dual_norm(np.array([3.0, 4.0]), space) == 5.0


def test_dual_norm_simplex_is_max_abs():
    simplex = EntropySimplex(3, 1.0)
    # dual of l1 is l-infinity
    assert dual_norm(np.array([1.0, -2.0, 0.5]), simplex) == 2.0


def test_ball_dual_norm_euclidean():
    ball = EuclideanBall(np.zeros(2), 2.0, 1.0)
    assert dual_norm(np.array([3.0, 4.0]), ball) == 5.0


@pytest.mark.parametrize(
    "geometry",
    [
        EuclideanSpace(np.array([0.3, -0.2]), 1.0),
        EuclideanBall(np.zeros(2), 2.0, 1.0),
        EntropySimplex(2, 1.0),
    ],
)
def test_bregman_identical_points_is_zero(geometry):
    x = np.array([0.25, 0.75])
    assert bregman_divergence(x, x, geometry) == pytest.approx(0.0, abs=1e-15)


def test_bregman_euclidean_half_squared_distance():
    space = EuclideanSpace(np.zeros(2), 1.0)
    value = bregman_divergence(np.array([0.0, 0.0]), np.array([1.0, 2.0]), space)
    assert value == 2.5


def test_bregman_simplex_matches_kl_oracle():
    simplex = EntropySimplex(2, 1.0)
    value = bregman_divergence(
        np.array([0.5, 0.5]), np.array([0.25, 0.75]), simplex
    )
    assert math.isclose(value, KL_QUARTER, rel_tol=1e-14)


def test_bregman_simplex_rejects_zero_coordinate():
    simplex = EntropySimplex(2, 1.0)
    with pytest.raises(ValueError):
        bregman_divergence(np.array([0.0, 1.0]), np.array([0.5, 0.5]), simplex)


def test_mirror_step_zero_gradient_returns_point():
    space = EuclideanSpace(np.zeros(2), 1.0)
    x = np.array([0.4, -1.2])
    out = mirror_step(x, np.zeros(2), 1.0, space)
    assert np.array_equal(out, x)


def test_mirror_step_euclidean_closed_form():
    # grid search over [-3, 3]^2 at 1e-3 resolution lands on the same point
    space = EuclideanSpace(np.zeros(2), 1.0)
    out = mirror_step(np.array([1.0, 1.0]), np.array([2.0, -1.0]), 0.5, space)
    assert np.array_equal(out, np.array([0.0, 1.5]))


def test_mirror_step_simplex_closed_form():
    # multiplicative update; grid search over the simplex agrees to 1e-9
    simplex = EntropySimplex(2, 1.0)
    out = mirror_step(
        np.array([0.5, 0.5]), np.array([math.log(4.0), 0.0]), 1.0, simplex
    )
    assert np.allclose(out, np.array([0.2, 0.8]), rtol=0.0, atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_mirror_step_simplex_keeps_zero_coordinates():
    # zero mass is absorbing for the multiplicative update
    simplex = EntropySimplex(2, 1.0)
    out = mirror_step(np.array([0.0, 1.0]), np.array([-5.0, 1.0]), 0.3, simplex)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(1.0, abs=1e-15)


def _log_space_step(x, p, h):
    """``EntropySimplex.mirror_step`` before its one-buffer form, verbatim."""
    with np.errstate(divide="ignore"):
        logits = np.log(x) - h * p
    logits -= logits.max()
    u = np.exp(logits)
    return u / u.sum()


def _with_warnings(step, *args):
    """step(*args) and the messages of the RuntimeWarnings it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = step(*args)
    return out, [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)]


_COORDINATES = (st.sampled_from([0.0, 5e-324, 1e-310, 2.2250738585072014e-308, math.nan])
                | st.floats(1e-300, 1.0))
_GRADIENTS = st.sampled_from([math.inf, -math.inf, 0.0, 1e308, -1e308]) | st.floats(-1e3, 1e3)
_STEP_SIZES = st.sampled_from([5e-324, 1e-300, 1e300, 1.7e308]) | st.floats(1e-8, 1e3)


@settings(max_examples=400)
@given(st.lists(st.tuples(_COORDINATES, _GRADIENTS), min_size=1, max_size=8), _STEP_SIZES)
# a zero coordinate with finite p: log(0) must stay silent
@example([(0.0, 1.0), (0.5, -1.0)], 0.5)
def test_simplex_mirror_step_equals_the_log_space_expression(pairs, h):
    # finite results bit for bit, NaN and inf where the old expression has
    # them, and a RuntimeWarning only where the old expression raised one
    x = np.array([c for c, _ in pairs])
    p = np.array([g for _, g in pairs])
    new, new_warned = _with_warnings(EntropySimplex(x.shape[0], 1.0).mirror_step, x, p, h)
    old, old_warned = _with_warnings(_log_space_step, x, p, h)
    assert old_warned or not new_warned
    assert new.dtype == np.float64
    if np.all(np.isfinite(old)):
        assert new.tobytes() == old.tobytes()
    else:
        np.testing.assert_array_equal(new, old)


@settings(max_examples=400)
@given(st.lists(st.tuples(_COORDINATES, _GRADIENTS), min_size=1, max_size=8), _STEP_SIZES)
# a coordinate whose exp underflows to an exact zero beside the top one
@example([(1e-300, 1.0), (1.0, -1.0)], 1e3)
def test_simplex_log_step_is_clean_where_its_top_logit_is_finite(pairs, h):
    # where the top logit is finite, the step is NaN-free, in [0, 1] and of
    # mass at most 1 + gamma, the support scan's gamma = 4 (n + 2) eps_mach,
    # which that scan takes as a clean iterate's mass
    x = np.array([c for c, _ in pairs])
    p = np.array([g for _, g in pairs])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        shift = np.multiply(p, -h, dtype=np.float64)
        out, top = EntropySimplex(x.shape[0], 1.0).log_step(x, shift)
    if math.isfinite(top):
        gamma = 4.0 * (x.shape[0] + 2) * np.finfo(float).eps
        assert np.all((out >= 0.0) & (out <= 1.0))
        assert math.fsum(out) <= 1.0 + gamma


def test_simplex_mirror_step_is_float64_for_any_gradient_dtype():
    # integer p and h step as the log-space expression does; float32 p
    # gives a float64 step, as it did
    x = np.array([0.25, 0.75])
    simplex = EntropySimplex(2, 1.0)
    out = simplex.mirror_step(x, np.array([3, -1]), 2)
    assert out.tobytes() == _log_space_step(x, np.array([3, -1]), 2).tobytes()
    assert simplex.mirror_step(x, np.array([3.0, -1.0], dtype=np.float32), 0.5).dtype == np.float64


def test_mirror_step_ball_projects_radially():
    ball = EuclideanBall(np.zeros(2), 1.0, 1.0)
    out = mirror_step(np.array([0.8, 0.0]), np.array([-1.0, 0.0]), 0.5, ball)
    # unprojected point is (1.3, 0); radial projection lands on the boundary
    assert np.allclose(out, np.array([1.0, 0.0]), rtol=0.0, atol=1e-15)
    assert ball.contains(out)


def test_mirror_step_ball_interior_untouched():
    ball = EuclideanBall(np.zeros(2), 2.0, 1.0)
    out = mirror_step(np.array([0.5, 0.5]), np.array([0.2, -0.1]), 0.5, ball)
    assert np.allclose(out, np.array([0.4, 0.55]), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("x, p, scale", [
    ([0.5, 0.5], [0.2, -0.1], 1.0),  # interior: no projection
    ([2.0, 1.0], [-2.0, 0.0], 0.5),  # x - h p = (3, 1), 2 from the center
], ids=["interior", "projected"])
def test_ball_scaled_step_is_the_mirror_step_and_its_radial_scale(x, p, scale):
    ball = EuclideanBall(np.array([1.0, 1.0]), 1.0, 1.0)
    x, p = np.array(x), np.array(p)
    out, t = ball.scaled_step(x, p, 0.5)
    assert t == scale
    assert out.tobytes() == ball.mirror_step(x, p, 0.5).tobytes()
    # out = center + t (x - h p - center)
    assert np.allclose(out, ball.center + t * (x - 0.5 * p - ball.center),
                       rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("bad_h", [0.0, -1.0, math.inf, math.nan])
def test_mirror_step_rejects_bad_step_size(bad_h):
    space = EuclideanSpace(np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        mirror_step(np.zeros(2), np.ones(2), bad_h, space)


def test_mirror_step_dimension_mismatch():
    space = EuclideanSpace(np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        mirror_step(np.zeros(3), np.ones(2), 0.5, space)


def test_euclidean_space_distance_generating_value():
    space = EuclideanSpace(np.ones(10), 3.0)
    assert space.distance_generating_value(np.zeros(10)) == 5.0
    assert space.distance_generating_value(np.ones(10)) == 0.0


def test_ball_anchor_defaults_to_center():
    ball = EuclideanBall(np.array([1.0, 0.0]), 2.0, 1.0)
    assert np.array_equal(ball.anchor, np.array([1.0, 0.0]))


def test_ball_rejects_anchor_outside():
    with pytest.raises(ValueError):
        EuclideanBall(np.zeros(2), 1.0, 1.0, anchor=np.array([3.0, 0.0]))


def test_ball_contains_boundary():
    ball = EuclideanBall(np.zeros(2), 1.0, 1.0)
    assert ball.contains(np.array([1.0, 0.0]))
    assert not ball.contains(np.array([1.1, 0.0]))


def test_simplex_anchor_is_uniform():
    simplex = EntropySimplex(4, 1.0)
    assert np.array_equal(simplex.anchor, np.full(4, 0.25))
    assert simplex.contains(simplex.anchor)


def test_simplex_rejects_points_off_the_simplex():
    simplex = EntropySimplex(3, 1.0)
    assert not simplex.contains(np.array([0.5, 0.5, 0.5]))
    assert not simplex.contains(np.array([-0.1, 0.6, 0.5]))


@pytest.mark.parametrize("bad_theta", [0.0, -2.0, math.inf])
def test_geometry_rejects_bad_theta0(bad_theta):
    with pytest.raises(ValueError):
        EuclideanSpace(np.zeros(2), bad_theta)


def test_geometry_rejects_nonfinite_anchor():
    with pytest.raises(ValueError):
        EuclideanSpace(np.array([np.inf, 0.0]), 1.0)


def test_ball_rejects_nonpositive_radius():
    with pytest.raises(ValueError):
        EuclideanBall(np.zeros(2), 0.0, 1.0)
