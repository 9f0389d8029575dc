"""Differential-test helpers: the stepwise reference engine and one comparer.

``run`` takes table-driven steps on affine data on every geometry, batches
constraint steps, one batch spanning the runs on several constraints,
and productive steps on a max of affine pieces, on an exact
:class:`EuclideanSpace`, tracks all-affine constraint values in place of
the stacked scan on an exact :class:`EuclideanBall`, and scans large
all-affine banks over the iterate's support on an exact
:class:`EntropySimplex`.  A batch is recorded as one history segment per
constraint run.  The stepwise reference is the same geometry as a
subclass, :class:`SteppedSpace`, :class:`SteppedBall` or
:class:`SteppedSimplex`, which turns the batches, the tracked values and
the support scan off without changing the arithmetic.  The tables, which
a subclass keeps, are checked against the oracle and dual-norm calls
they replace by ``test_solver``'s component tests.

A max of diagonal quadratics finds its winning piece by the certified
stacked argmax of :class:`MaxOracle`; the reference objective is a
:class:`SteppedMax` over the same pieces, which takes every piece's value
through the member loop instead.  A run and its reference must agree bit
for bit.  ``quadratic_pieces`` builds the random pieces that the oracle,
solver and property tests take.
"""

import copy

import numpy as np

from mirropt import (EntropySimplex, EuclideanBall, EuclideanSpace, MaxOracle,
                     ProblemInstance, QuadraticOracle, run)


class SteppedSpace(EuclideanSpace):
    """The same geometry; runs on a subclass take no batches."""


class SteppedBall(EuclideanBall):
    """The same geometry; runs on a subclass track no values."""


class SteppedSimplex(EntropySimplex):
    """The same geometry; runs on a subclass take the stacked product at
    every scan."""


class SteppedMax(MaxOracle):
    """The same pieces, each called: the member loop that the certified
    stacked argmax replaces."""

    def value_and_subgradient(self, x):
        val, idx = self._bank.max_entry(x)
        return val, self._bank.subgradient(idx, x)


def quadratic_pieces(rng, n, count, diagonal=True, spread=0):
    """``count`` random PSD quadratics on R^n, diagonal or dense, each
    scaled by 10^k for a random integer k in [-spread, spread]."""
    pieces = []
    for _ in range(count):
        if diagonal:
            a = np.diag(rng.uniform(0.0, 2.0, n))
        else:
            g = rng.standard_normal((n, n))
            a = g.T @ g / n
        scale = 10.0 ** int(rng.integers(-spread, spread + 1))
        pieces.append(QuadraticOracle(scale * a, scale * rng.standard_normal(n),
                                      scale * rng.standard_normal()))
    return pieces


def stepwise_instance(instance):
    """The instance with its objective evaluated by the member loop where
    it is a max with a stacked argmax, else the instance itself."""
    objective = instance.objective
    if type(objective) is not MaxOracle or objective._argmax is None:
        return instance
    stepped = SteppedMax(objective.children, lipschitz_value=objective.lipschitz_value,
                         lipschitz_gradient=objective.lipschitz_gradient)
    return ProblemInstance(instance.dimension, stepped, instance.constraints,
                           instance.known_optimum)


def stepwise(space):
    """A copy of the geometry that ``run`` takes ordinary steps on."""
    if type(space) is EuclideanSpace:
        return SteppedSpace(space.anchor, space.theta0)
    if type(space) is EuclideanBall:
        return SteppedBall(space.center, space.radius, space.theta0, space.anchor)
    if type(space) is EntropySimplex:
        return SteppedSimplex(space.dimension, space.theta0)
    return copy.copy(space)


def count_calls(space, name):
    """Count calls of the geometry's (or an oracle's) method ``name``
    through a wrapper set on the instance, which does not change the path
    ``run`` takes."""
    calls = [0]
    inner = getattr(space, name)

    def wrapper(*args):
        calls[0] += 1
        return inner(*args)

    setattr(space, name, wrapper)
    return calls


def run_both(instance, space, config, name="mirror_step"):
    """Default and stepwise reports of one run, and how many times the
    default run called the geometry's ``name``: ``mirror_step`` once per
    ordinary (unbatched) step off the ball, ``dual_norm`` once per affine
    member it tables and once per step that is not table-driven.  The
    stepwise run takes the member loop on a max of quadratics."""
    reference = stepwise(space)
    calls = count_calls(space, name)
    return (run(instance, space, config),
            run(stepwise_instance(instance), reference, config), calls[0])


def assert_bitwise_equal(first, second):
    assert first.output_point.tobytes() == second.output_point.tobytes()
    for field in ("total_steps", "productive_count", "nonproductive_count",
                  "stop_reason", "a_priori_bound"):
        assert getattr(first, field) == getattr(second, field), field
    for field in ("output_objective", "output_max_violation", "certificate"):
        a, b = getattr(first, field), getattr(second, field)
        assert (a is None and b is None) or np.float64(a).tobytes() == np.float64(b).tobytes()
    if first.history is None:
        assert second.history is None
        return
    size = first.total_steps
    assert len(first.history) == len(second.history) == size
    passed = 0
    for a, b in zip(first.history, second.history, strict=True):
        assert a.index == passed
        assert_same_record(a, b)
        passed += 1
    assert passed == size


def assert_same_record(a, b):
    assert (a.index, a.kind, a.constraint_index) == (b.index, b.kind, b.constraint_index)
    assert (a.step_size, a.grad_dual_norm, a.objective_value) == (
        b.step_size, b.grad_dual_norm, b.objective_value)
    assert a.point.tobytes() == b.point.tobytes()
