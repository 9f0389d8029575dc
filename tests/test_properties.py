"""Property tests for oracle convexity and prox-geometry identities.

Core guarantees are exercised on large seeded batches (at least 1000
random pairs per oracle kind / geometry), with hypothesis probing edge
values on top.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mirropt import (
    AbsAffinePlusOracle,
    AffineOracle,
    EntropySimplex,
    EuclideanBall,
    EuclideanSpace,
    EvaluationError,
    MaxOracle,
    Policy,
    ProblemInstance,
    QuadraticOracle,
    Regime,
    RunConfig,
    SqrtQuadraticOracle,
    bregman_divergence,
    mirror_step,
    run,
)
from mirropt import solver

from differential import assert_bitwise_equal, quadratic_pieces, run_both, stepwise

SUBGRADIENT_SLACK = 1e-9


def _random_psd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n))
    return scale * (g.T @ g) / n


def _make_oracles(kind, rng, n):
    if kind == "affine":
        return AffineOracle(rng.standard_normal(n), rng.standard_normal())
    if kind == "quadratic":
        return QuadraticOracle(
            _random_psd(rng, n), rng.standard_normal(n), rng.standard_normal()
        )
    if kind == "sqrt_quadratic":
        return SqrtQuadraticOracle(_random_psd(rng, n), rng.uniform(0.1, 3.0))
    if kind == "abs_affine_plus":
        return AbsAffinePlusOracle(
            rng.standard_normal(n), rng.standard_normal(), rng.uniform(0.0, 3.0)
        )
    if kind == "max_of":
        children = [
            AffineOracle(rng.standard_normal(n), rng.standard_normal()),
            QuadraticOracle(_random_psd(rng, n)),
            AbsAffinePlusOracle(rng.standard_normal(n)),
        ]
        return MaxOracle(children)
    raise AssertionError(kind)


KINDS = ("affine", "quadratic", "sqrt_quadratic", "abs_affine_plus", "max_of")


@pytest.mark.parametrize("kind", KINDS)
def test_subgradient_inequality_batch(kind):
    # f(y) >= f(x) + <s(x), y - x> on 1000 random pairs per oracle kind
    rng = np.random.default_rng(1000 + KINDS.index(kind))
    for trial in range(1000):
        n = int(rng.integers(1, 8))
        oracle = _make_oracles(kind, rng, n)
        x = rng.uniform(-5.0, 5.0, n)
        y = rng.uniform(-5.0, 5.0, n)
        fx, sx = oracle.value_and_subgradient(x)
        fy = oracle.value(y)
        assert fy >= fx + float(sx @ (y - x)) - SUBGRADIENT_SLACK


@given(
    a=st.lists(st.floats(-100.0, 100.0), min_size=1, max_size=4),
    b=st.floats(-100.0, 100.0),
    shift=st.floats(-10.0, 10.0),
    scale=st.floats(0.0, 10.0),
    t=st.floats(-10.0, 10.0),
)
def test_abs_affine_subgradient_inequality_edges(a, b, shift, scale, t):
    vec = np.asarray(a, dtype=float)
    oracle = AbsAffinePlusOracle(vec, shift, scale)
    x = np.full(len(a), b / 100.0)
    y = x + t
    fx, sx = oracle.value_and_subgradient(x)
    assert oracle.value(y) >= fx + float(sx @ (y - x)) - SUBGRADIENT_SLACK


def _geometries(n):
    out = [
        ("euclidean", EuclideanSpace(np.zeros(n), 1.0)),
        ("ball", EuclideanBall(np.zeros(n), 3.0, 1.0)),
    ]
    if n >= 2:
        out.append(("simplex", EntropySimplex(n, 1.0)))
    return out


def _sample_point(name, geometry, rng):
    n = geometry.dimension
    if name == "euclidean":
        return rng.uniform(-4.0, 4.0, n)
    if name == "ball":
        direction = rng.standard_normal(n)
        direction /= math.sqrt(float(direction @ direction))
        return geometry.center + direction * (
            geometry.radius * rng.uniform() ** (1.0 / n)
        )
    # interior simplex point; the KL anchor must stay strictly positive
    return rng.dirichlet(np.full(n, 2.0))


def _primal_norm(name, v):
    if name == "simplex":
        return float(np.sum(np.abs(v)))
    return math.sqrt(float(v @ v))


def test_bregman_nonnegative_and_strongly_convex():
    # V(x, y) >= ||x - y||^2 / 2 in the primal norm, dims 1 through 20
    rng = np.random.default_rng(11)
    checked = 0
    for n in range(1, 21):
        for name, geometry in _geometries(n):
            for _ in range(40):
                x = _sample_point(name, geometry, rng)
                y = _sample_point(name, geometry, rng)
                v = bregman_divergence(x, y, geometry)
                assert v >= -1e-12
                assert v >= 0.5 * _primal_norm(name, x - y) ** 2 - 1e-9
                checked += 1
    assert checked >= 1000


def test_mirror_step_minimizes_prox_objective():
    # z = mirror_step(x, p, h) beats 100 random feasible candidates on
    # phi(u) = h <p, u> + V(x, u)
    rng = np.random.default_rng(23)
    for n in (2, 5):
        for name, geometry in _geometries(n):
            for _ in range(30):
                x = _sample_point(name, geometry, rng)
                p = rng.uniform(-3.0, 3.0, n)
                h = rng.uniform(0.05, 2.0)
                z = mirror_step(x, p, h, geometry)
                phi_z = h * float(p @ z) + bregman_divergence(x, z, geometry)
                for _ in range(100):
                    u = _sample_point(name, geometry, rng)
                    phi_u = h * float(p @ u) + bregman_divergence(x, u, geometry)
                    assert phi_z <= phi_u + SUBGRADIENT_SLACK


def test_max_oracle_value_matches_children_exactly():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 6))
        oracle = _make_oracles("max_of", rng, n)
        x = rng.uniform(-3.0, 3.0, n)
        val, sub = oracle.value_and_subgradient(x)
        child_vals = [c.value(x) for c in oracle.children]
        assert val == max(child_vals)
        # reported subgradient belongs to the first child attaining the max
        first = child_vals.index(max(child_vals))
        assert np.array_equal(sub, oracle.children[first].subgradient(x))


@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 8),
       st.sampled_from([0.0, 1e-3, 1.0, 1e3, 1e120]))
def test_max_of_quadratics_equals_its_member_loop(seed, n, count, scale):
    # the certified stacked argmax against every piece's value, bit for bit,
    # on random diagonal PSD pieces (an exact twin on odd seeds) at a
    # random point
    rng = np.random.default_rng(seed)
    pieces = quadratic_pieces(rng, n, count)
    if seed % 2:
        pieces.append(pieces[int(rng.integers(count))])
    oracle = MaxOracle(pieces)
    x = scale * rng.standard_normal(n)
    vals = np.array([c.value(x) for c in pieces])
    value, grad = oracle.value_and_subgradient(x)
    first = int(vals.argmax())
    assert np.float64(value).tobytes() == vals[first].tobytes()
    assert grad.tobytes() == pieces[first].subgradient(x).tobytes()
    idx = oracle._argmax(x)
    assert idx is None or idx == first


def test_quadratic_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    step = 1e-6
    for _ in range(25):
        n = int(rng.integers(1, 6))
        oracle = QuadraticOracle(_random_psd(rng, n), rng.standard_normal(n))
        x = rng.uniform(-2.0, 2.0, n)
        grad = oracle.subgradient(x)
        for i in range(n):
            e = np.zeros(n)
            e[i] = step
            fd = (oracle.value(x + e) - oracle.value(x - e)) / (2.0 * step)
            assert fd == pytest.approx(grad[i], rel=1e-4, abs=1e-4)


def test_quadratic_gradient_lipschitz_metadata_holds():
    # ||grad f(x) - grad f(y)|| <= L ||x - y|| with the stored constant
    rng = np.random.default_rng(29)
    for _ in range(100):
        n = int(rng.integers(1, 7))
        oracle = QuadraticOracle(_random_psd(rng, n), rng.standard_normal(n))
        lip = oracle.lipschitz_gradient
        for _ in range(10):
            x = rng.uniform(-5.0, 5.0, n)
            y = rng.uniform(-5.0, 5.0, n)
            dg = oracle.subgradient(x) - oracle.subgradient(y)
            lhs = math.sqrt(float(dg @ dg))
            rhs = lip * math.sqrt(float((x - y) @ (x - y)))
            assert lhs <= rhs * (1.0 + 1e-9) + 1e-12


@given(
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5),
    st.lists(st.floats(-50.0, 50.0), min_size=1, max_size=5),
)
def test_euclidean_bregman_symmetry_edges(xs, ys):
    n = min(len(xs), len(ys))
    x = np.asarray(xs[:n])
    y = np.asarray(ys[:n])
    space = EuclideanSpace(np.zeros(n), 1.0)
    v = bregman_divergence(x, y, space)
    assert v == bregman_divergence(y, x, space)
    assert v >= 0.0


@given(st.integers(2, 12), st.integers(0, 2**31 - 1), st.floats(0.01, 5.0))
def test_simplex_mirror_step_stays_feasible(n, seed, h):
    rng = np.random.default_rng(seed)
    simplex = EntropySimplex(n, 1.0)
    x = rng.dirichlet(np.full(n, 1.5))
    p = rng.uniform(-4.0, 4.0, n)
    z = mirror_step(x, p, h, simplex)
    assert simplex.contains(z)
    assert z.sum() == pytest.approx(1.0, abs=1e-9)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
@settings(max_examples=200)
@given(st.integers(0, 2**31 - 1), st.integers(1, 6), st.integers(1, 8),
       st.sampled_from([Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED]),
       st.sampled_from(list(Regime)), st.booleans(), st.booleans(),
       st.integers(1, solver._TREE_MAX_PIECES + 3), st.booleans(),
       st.sampled_from(["", "signed zeros", "zero piece", "huge piece"]))
def test_random_affine_banks_run_as_the_stepwise_engine(seed, n, m, policy, regime,
                                                        record_history, staircase,
                                                        count, twin, special):
    # batched chains on EuclideanSpace against the stepwise engine, bit for
    # bit, on random affine constraints with row norms over four decades;
    # a staircase bank (nonnegative rows, raised by the objective) makes
    # first-violated chain across constraints; otherwise the objective is a
    # max of ``count`` affine pieces, on either side of the comparison
    # tree's bound, one of them maybe twice, so that productive batches run
    # the tree and the loop; the pieces may hold entries of +-0.0, or one
    # piece may be zero or scaled by 2^1000, so that its products overflow;
    # a run that raises raises the same error on both engines
    rng = np.random.default_rng(seed)
    rows = rng.standard_normal((m, n)) * 10.0 ** rng.integers(-2, 2, (m, 1))
    anchor = 10.0 * rng.standard_normal(n)
    if staircase:
        rows, anchor = np.abs(rows), np.abs(anchor)
        objective = AffineOracle(-np.abs(rng.standard_normal(n)))
    else:
        pieces = [rng.standard_normal(n) for _ in range(count)]
        if special == "signed zeros":
            pieces = [np.where(rng.uniform(size=n) < 0.5, rng.choice([0.0, -0.0], n), a)
                      for a in pieces]
        elif special:
            pieces[int(rng.integers(0, count))] *= 0.0 if special == "zero piece" else 2.0**1000
        if twin:
            pieces.insert(int(rng.integers(0, count + 1)), pieces[int(rng.integers(0, count))])
        objective = MaxOracle([AffineOracle(a) for a in pieces])
    constraints = [AffineOracle(a, -rng.uniform(0.0, 0.5)) for a in rows]
    instance = ProblemInstance(n, objective, constraints)
    config = RunConfig(0.05, regime=regime, policy=policy, max_iterations=1500,
                       record_history=record_history)
    space = EuclideanSpace(anchor, float(np.linalg.norm(anchor)) + 0.5)
    try:
        batched, stepped, _ = run_both(instance, space, config)
    except EvaluationError as error:
        for geometry in (space, stepwise(space)):
            with pytest.raises(EvaluationError, match=re.escape(str(error))):
                run(instance, geometry, config)
        return
    assert_bitwise_equal(batched, stepped)
