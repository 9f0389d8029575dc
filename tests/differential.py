"""Differential-test helpers: the stepwise reference engine and one comparer.

``run`` takes table-driven steps on affine data on every geometry, batches
runs of constraint steps, and of productive steps on a max of affine
pieces, on an exact :class:`EuclideanSpace`, and tracks all-affine
constraint values in place of the stacked scan on an exact
:class:`EuclideanBall`.  The stepwise reference turns all three off
without changing the arithmetic: an instance-level override of
``dual_norm``, which ``run`` honours, turns off the tables and the tracked
values, and :class:`SteppedSpace` in place of an exact Euclidean space
turns off the batches.  A run and its reference must agree bit for bit.
"""

import copy
from unittest import mock

import numpy as np

from mirropt import EuclideanSpace, run


class SteppedSpace(EuclideanSpace):
    """The same geometry; runs on a subclass take no batches."""


def stepwise(space):
    """A copy of the geometry that ``run`` steps through one call at a time."""
    if type(space) is EuclideanSpace:
        space = SteppedSpace(space.anchor, space.theta0)
    else:
        space = copy.copy(space)
    space.dual_norm = space.dual_norm
    return space


def counted_mirror_steps(space):
    """Count calls of the instance's mirror_step.

    Setting it on the instance is an override ``run`` honours: table-driven
    steps are off, and only batched steps skip its calls.
    """
    calls = [0]
    inner = space.mirror_step

    def counted(x, p, h):
        calls[0] += 1
        return inner(x, p, h)

    space.mirror_step = counted
    return calls


def run_both(instance, anchor, theta0, config):
    """Batched and stepwise reports of one run, and the batched run's count
    of ordinary (unbatched) steps."""
    space = EuclideanSpace(anchor, theta0)
    reference = stepwise(space)
    calls = counted_mirror_steps(space)
    return run(instance, space, config), run(instance, reference, config), calls[0]


def run_tabled(instance, space, config):
    """Default and stepwise reports of one run, and how many times the
    default run called the geometry's dual_norm.

    The count patches the geometry's class, not the instance, so the
    default run keeps its table-driven steps: it calls dual_norm once per
    affine member it tables, and once per step that is not table-driven.
    """
    calls = [0]
    inner = type(space).dual_norm

    def counted(self, p):
        calls[0] += 1
        return inner(self, p)

    reference = stepwise(space)
    with mock.patch.object(type(space), "dual_norm", counted):
        fast = run(instance, space, config)
    return fast, run(instance, reference, config), calls[0]


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
    assert len(first.history) == len(second.history) == first.total_steps
    for a, b in zip(first.history, second.history):
        assert (a.index, a.kind, a.constraint_index) == (b.index, b.kind, b.constraint_index)
        assert (a.step_size, a.grad_dual_norm, a.objective_value) == (
            b.step_size, b.grad_dual_norm, b.objective_value)
        assert a.point.tobytes() == b.point.tobytes()
