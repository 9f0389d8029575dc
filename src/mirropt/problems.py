"""Convex functional oracles and constrained problem instances.

An oracle reports a function value and one subgradient at a query point,
a rule each kind writes once, in ``value_and_subgradient``.  Five closed-form
kinds cover the solver's needs: affine functions, convex quadratics, square
roots of quadratic forms, scaled absolute values of affine forms, and
pointwise maxima of other oracles.  Optional Lipschitz metadata (a bound on
subgradient dual norms, a gradient Lipschitz constant), finite and
nonnegative or None, rides along for reporting and a-priori iteration
bounds; the solver never uses it to pick step sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .geometry import Array, as_vector

__all__ = [
    "EvaluationError",
    "Oracle",
    "AffineOracle",
    "QuadraticOracle",
    "SqrtQuadraticOracle",
    "AbsAffinePlusOracle",
    "MaxOracle",
    "OracleBank",
    "ProblemInstance",
    "max_violation",
]


class EvaluationError(RuntimeError):
    """An oracle produced a non-finite value or subgradient."""


def _read_only(arr: Array) -> Array:
    arr = np.array(arr, dtype=np.float64)
    arr.setflags(write=False)
    return arr


def _check_symmetric_psd(mat, name: str) -> tuple[Array, float]:
    """The matrix, read-only, and its largest eigenvalue."""
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"{name} must be a square matrix")
    if not np.all(np.isfinite(mat)):
        raise ValueError(f"{name} contains non-finite entries")
    if not np.allclose(mat, mat.T, rtol=1e-9, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(mat)
    # PSD up to a small spectral tolerance; convexity is all that is needed.
    if eigs[0] < -1e-10 * max(1.0, abs(eigs[-1])):
        raise ValueError(f"{name} must be positive semidefinite")
    return _read_only(mat), float(eigs[-1])


def _derived(bound: float) -> float | None:
    """A derived bound, kept finite and nonnegative: below 0 (rounding) gives
    0.0, overflow gives None (unknown)."""
    return max(bound, 0.0) if math.isfinite(bound) else None


class Oracle:
    """Base class: value and subgradient of a convex function on R^n.

    A subclass writes ``value_and_subgradient``; ``value`` and ``subgradient``
    are its parts.  ``values`` (rows of points) is worth a batched override.
    """

    dimension: int
    lipschitz_value: float | None = None
    lipschitz_gradient: float | None = None

    def _set_metadata(self, lipschitz_value: float | None,
                      lipschitz_gradient: float | None) -> None:
        """Check and store supplied metadata; derived defaults go through _derived."""
        for name, bound in (("lipschitz_value", lipschitz_value),
                            ("lipschitz_gradient", lipschitz_gradient)):
            if bound is not None:
                bound = float(bound)
                if not (math.isfinite(bound) and bound >= 0.0):
                    raise ValueError(f"{name} must be finite and nonnegative")
            setattr(self, name, bound)

    def value_and_subgradient(self, x: Array) -> tuple[float, Array]:
        raise NotImplementedError

    def value(self, x: Array) -> float:
        return self.value_and_subgradient(x)[0]

    def subgradient(self, x: Array) -> Array:
        return self.value_and_subgradient(x)[1]

    def values(self, points: Array) -> Array:
        """Values at each row of ``points``."""
        return np.array([self.value(p) for p in points])


class AffineOracle(Oracle):
    """f(x) = <a, x> + b."""

    def __init__(self, a, b: float = 0.0, *, lipschitz_value: float | None = None,
                 lipschitz_gradient: float | None = None) -> None:
        self.a = _read_only(as_vector(a, name="a"))
        self.b = float(b)
        if not math.isfinite(self.b):
            raise ValueError("b must be finite")
        self.dimension = self.a.shape[0]
        self._set_metadata(lipschitz_value, lipschitz_gradient)
        if lipschitz_value is None:
            # ||a|| is the exact global constant, not an estimate.
            with np.errstate(over="ignore"):  # overflow: inf, so None
                self.lipschitz_value = _derived(math.sqrt(float(self.a @ self.a)))
        if lipschitz_gradient is None:
            self.lipschitz_gradient = 0.0

    def value_and_subgradient(self, x: Array) -> tuple[float, Array]:
        return float(self.a @ x) + self.b, self.a

    def values(self, points: Array) -> Array:
        return points @ self.a + self.b


class QuadraticOracle(Oracle):
    """f(x) = <A x, x> / 2 - <b, x> + alpha with A symmetric PSD."""

    def __init__(self, A, b=None, alpha: float = 0.0, *,
                 lipschitz_value: float | None = None,
                 lipschitz_gradient: float | None = None) -> None:
        self.A, top = _check_symmetric_psd(A, "A")
        self.dimension = self.A.shape[0]
        if b is None:
            b = np.zeros(self.dimension)
        self.b = _read_only(as_vector(b, self.dimension, "b"))
        self.alpha = float(alpha)
        if not math.isfinite(self.alpha):
            raise ValueError("alpha must be finite")
        self._set_metadata(lipschitz_value, lipschitz_gradient)
        if lipschitz_gradient is None:
            self.lipschitz_gradient = _derived(top)

    def value_and_subgradient(self, x: Array) -> tuple[float, Array]:
        Ax = self.A @ x
        val = 0.5 * float(x @ Ax) - float(self.b @ x) + self.alpha
        return val, Ax - self.b

    def values(self, points: Array) -> Array:
        form = np.einsum("pi,pi->p", points @ self.A, points)
        return 0.5 * form - points @ self.b + self.alpha


class SqrtQuadraticOracle(Oracle):
    """f(x) = sqrt(scale * <Q x, x>) with Q symmetric PSD, scale > 0.

    Where the quadratic form vanishes the function is minimal and 0 is a
    valid subgradient; the oracle returns (0, 0) there.
    """

    def __init__(self, Q, scale: float = 1.0, *,
                 lipschitz_value: float | None = None,
                 lipschitz_gradient: float | None = None) -> None:
        self.Q, top = _check_symmetric_psd(Q, "Q")
        self.dimension = self.Q.shape[0]
        self.scale = float(scale)
        if not math.isfinite(self.scale) or self.scale <= 0.0:
            raise ValueError("scale must be finite and positive")
        self._set_metadata(lipschitz_value, lipschitz_gradient)
        if lipschitz_value is None:
            # ||grad f|| <= sqrt(scale * lambda_max(Q)) everywhere.
            self.lipschitz_value = _derived(math.sqrt(self.scale * max(top, 0.0)))

    def value_and_subgradient(self, x: Array) -> tuple[float, Array]:
        Qx = self.Q @ x
        form = float(x @ Qx)
        if form <= 0.0:
            return 0.0, np.zeros(self.dimension)
        val = math.sqrt(self.scale * form)
        return val, (self.scale / val) * Qx

    def values(self, points: Array) -> Array:
        form = np.einsum("pi,pi->p", points @ self.Q, points)
        return np.sqrt(self.scale * np.maximum(form, 0.0))


class AbsAffinePlusOracle(Oracle):
    """f(x) = scale * |<a, x>| + shift.

    At the kink <a, x> = 0 the zero vector is returned as the subgradient.
    """

    def __init__(self, a, shift: float = 0.0, scale: float = 1.0, *,
                 lipschitz_value: float | None = None,
                 lipschitz_gradient: float | None = None) -> None:
        self.a = _read_only(as_vector(a, name="a"))
        self.dimension = self.a.shape[0]
        self.shift = float(shift)
        self.scale = float(scale)
        if not math.isfinite(self.shift):
            raise ValueError("shift must be finite")
        if not math.isfinite(self.scale) or self.scale < 0.0:
            raise ValueError("scale must be finite and nonnegative")
        self._set_metadata(lipschitz_value, lipschitz_gradient)
        if lipschitz_value is None:
            with np.errstate(over="ignore"):  # overflow: inf, so None
                self.lipschitz_value = _derived(
                    self.scale * math.sqrt(float(self.a @ self.a)))

    def value_and_subgradient(self, x: Array) -> tuple[float, Array]:
        t = float(self.a @ x)
        if t > 0.0:
            return self.scale * t + self.shift, self.scale * self.a
        if t < 0.0:
            return -self.scale * t + self.shift, -self.scale * self.a
        return self.shift, np.zeros(self.dimension)

    def values(self, points: Array) -> Array:
        return self.scale * np.abs(points @ self.a) + self.shift


def _stacked_argmax(oracles: Sequence[Oracle]
                    ) -> Callable[[Array], int | None] | None:
    """A certified argmax over diagonal quadratics: ``x -> i``, the lowest
    index attaining the largest member value, or None where the stacked
    product cannot certify it; None where the data admit no stacked form,
    that is unless every member is exactly a :class:`QuadraticOracle` with
    a diagonal matrix (a dense one has no workload to show a stack pays).

    All P pieces are taken at once at twice their value, 2 v_j = x^T A_j x -
    2 b_j.x + 2 alpha_j, widened by c times twice their magnitude, 2 S_j =
    |x|^T |A_j| |x| + 2 |b_j|.|x| + 2 |alpha_j|: into hi_j = 2 v_j + 2 c S_j
    and lo_j = 2 v_j - 2 c S_j, by one (2P, 3n) product on (x*x, x, |x|).

    Rounding: a dot product of length m, in any summation order, is within
    gamma_m = m u / (1 - m u) times the dot product of the absolute values,
    u = 2^-53 (Higham, Accuracy and Stability of Numerical Algorithms, ch.
    3).  A member's ``value_and_subgradient`` takes two nested products of
    length n and three more operations, so its value is within gamma_{2n+2}
    S_j of the exact one.  A row of hi or lo is one product of length 3n
    whose terms are rounded at most four times, so it is within
    gamma_{3n+4} (1 + c) 2 S_j of its exact value.  Take gamma = (3n + 4)
    2^-52, almost twice gamma_{3n+4}, and c = 2 gamma.  Then lo_i > hi_j
    says that piece i beats piece j by twice the rounding bound of both
    sides, v_i - v_j > 2 gamma (S_i + S_j), up to roundings that the spare
    factor of two covers, so the members' own values keep v_i > v_j: the
    member loop, lowest index first, would pick i.  Where a result is
    subnormal, an operation may also be off by 2^-1075; ``slack`` (1 + R)^2
    bounds that over both sides and both paths, R = max |x_k|.

    The pieces' magnitude sum T bounds 2 S_j by T max(1, R)^2; only points
    with R <= ``reach`` are taken, where that is at most 2^996 and x*x is
    finite, so no product in either path overflows and this one warns of
    nothing.  A NaN or an infinite entry fails the same test.
    """
    if not all(type(o) is QuadraticOracle for o in oracles):
        return None
    a = np.stack([o.A for o in oracles])
    p, n = len(oracles), a.shape[1]
    if np.any(a[:, ~np.eye(n, dtype=bool)]):
        return None
    d = np.diagonal(a, axis1=1, axis2=2)
    b = np.stack([o.b for o in oracles])
    alpha = np.array([o.alpha for o in oracles])
    with np.errstate(over="ignore"):  # a sum that overflows: no stacked form
        magnitude = (np.abs(d).sum(axis=1) + 2.0 * np.abs(b).sum(axis=1)
                     + 2.0 * np.abs(alpha))
    total = float(magnitude.max())
    if not total <= 2.0**996:
        return None
    reach = 2.0**500 if total == 0.0 else min(2.0**500, math.sqrt(2.0**996 / total))
    c = 2.0 * (3 * n + 4) * 2.0**-52
    trace = float(np.abs(d).sum(axis=1).max())
    slack = 2.0**-1071 * (n + 1) * (n + 2 + trace)

    rows = np.empty((2, p, 3 * n))
    for sign, part in zip((1.0, -1.0), rows):
        part[:, :n] = d + sign * c * np.abs(d)
        part[:, n:2 * n] = -2.0 * b
        part[:, 2 * n:] = sign * 2.0 * c * np.abs(b)
    rows = rows.reshape(2 * p, 3 * n)
    offsets = np.concatenate([2.0 * alpha + 2.0 * c * np.abs(alpha),
                              2.0 * alpha - 2.0 * c * np.abs(alpha)])
    absolute, concatenate, dot = np.abs, np.concatenate, np.dot

    def argmax(x: Array) -> int | None:
        size = absolute(x)
        top = size.item(size.argmax())  # NaN where x has one
        if not top <= reach:
            return None
        out = dot(rows, concatenate((x * x, x, size)))
        out += offsets
        hi, lo = out[:p], out[p:]
        i = int(lo.argmax())
        low = lo.item(i) - slack * (1.0 + top) * (1.0 + top)
        hi[i] = -math.inf
        return i if hi.item(hi.argmax()) < low else None

    return argmax


def _top(vals: Array) -> tuple[int, float]:
    """The lowest index of the values' maximum, and that maximum; a
    non-finite value raises :class:`EvaluationError`."""
    i = int(vals.argmax())
    high = vals.item(i)
    # argmin and argmax both return the first NaN; with the argmin
    # entry finite, only the argmax entry can be +inf.
    if not (math.isfinite(high) and math.isfinite(vals.item(vals.argmin()))):
        raise EvaluationError("oracle produced a non-finite value")
    return i, high


class OracleBank:
    """Ordered family of oracles evaluated together at one point.

    :meth:`scan` is the one evaluation of a bank: one stacked
    matrix-vector product where every member is affine, the member loop
    otherwise, and one finiteness check for both.  ``values`` and
    ``max_entry`` are views of it, and the solver's constraint and piece
    scans call it, as :class:`MaxOracle` does through ``max_entry``; so an
    aggregate of M constraints and a single pre-composed max oracle see
    bitwise-identical numbers by construction (acceptance criterion 8).
    """

    def __init__(self, oracles: Sequence[Oracle]) -> None:
        self.oracles = list(oracles)
        if not self.oracles:
            raise ValueError("oracle family must not be empty")
        dims = {o.dimension for o in self.oracles}
        if len(dims) != 1:
            raise ValueError("oracle family members disagree on dimension")
        self.dimension = dims.pop()
        if all(type(o) is AffineOracle for o in self.oracles):
            self._matrix = np.vstack([o.a for o in self.oracles])
            self._offsets = np.array([o.b for o in self.oracles])
        else:
            self._matrix = None
            self._offsets = None

    def scan(self, x: Array, out: Array | None = None) -> tuple[Array, int, float]:
        """Member values at x, the lowest index of their maximum, and that
        maximum.

        A stacked bank writes its values into ``out`` when given one; the
        member loop returns a fresh array.  A non-finite member value
        raises :class:`EvaluationError`, so every selection policy rejects
        a broken member, -inf included, whatever summation order an
        overflowing stacked product takes.
        """
        if self._matrix is not None:
            vals = np.dot(self._matrix, x, out=out)
            vals += self._offsets
        else:
            vals = np.array([o.value(x) for o in self.oracles], dtype=np.float64)
        return (vals, *_top(vals))

    def values(self, x: Array) -> Array:
        """Member values at x, a fresh array; see :meth:`scan`."""
        return self.scan(x)[0]

    def subgradient(self, index: int, x: Array) -> Array:
        return self.oracles[index].subgradient(x)

    def max_entry(self, x: Array) -> tuple[float, int]:
        """Largest value and its lowest attaining 0-based index."""
        _, i, high = self.scan(x)
        return high, i

    def max_pair(self, x: Array) -> tuple[float, Array]:
        """Largest value and the subgradient of its lowest attaining
        member.  A stacked bank takes its one product, then the winner's
        subgradient; the member loop calls each member's
        ``value_and_subgradient`` once, so a nested max evaluates each of
        its members once, not its winner twice per level."""
        if self._matrix is not None:
            high, i = self.max_entry(x)
            return high, self.subgradient(i, x)
        pairs = [o.value_and_subgradient(x) for o in self.oracles]
        i, high = _top(np.array([value for value, _ in pairs], dtype=np.float64))
        return high, pairs[i][1]


class MaxOracle(Oracle):
    """Pointwise maximum of child oracles.

    The reported value and subgradient are those of the lowest-index child
    attaining the maximum.  Where every child is a :class:`QuadraticOracle`
    with a diagonal matrix, that child is taken from a certified argmax of
    one stacked product (``_stacked_argmax``) and called alone, so value,
    subgradient and tie-break are the member loop's bit for bit.  Elsewhere,
    and wherever the argmax is not certified (a near-tie, a non-finite
    point or one large enough to overflow), the children are evaluated
    through :meth:`OracleBank.max_pair`, with the errors of ``scan``: one
    stacked product where all are affine, else one call per child.
    """

    def __init__(self, children: Sequence[Oracle], *,
                 lipschitz_value: float | None = None,
                 lipschitz_gradient: float | None = None) -> None:
        self.children = list(children)
        self._bank = OracleBank(self.children)
        self._argmax = _stacked_argmax(self.children)
        self.dimension = self._bank.dimension
        self._set_metadata(lipschitz_value, lipschitz_gradient)
        if lipschitz_value is None:
            bounds = [c.lipschitz_value for c in self.children]
            if all(b is not None for b in bounds):
                self.lipschitz_value = max(bounds)

    def value_and_subgradient(self, x: Array) -> tuple[float, Array]:
        idx = None if self._argmax is None else self._argmax(x)
        if idx is not None:
            return self.children[idx].value_and_subgradient(x)
        return self._bank.max_pair(x)

    def values(self, points: Array) -> Array:
        return np.stack([c.values(points) for c in self.children]).max(axis=0)


@dataclass
class ProblemInstance:
    """A convex program: minimize objective subject to constraints <= 0.

    Parameters
    ----------
    dimension : int
        Number of decision variables.
    objective : Oracle
        Convex objective functional.
    constraints : sequence of Oracle
        Functional constraints g_m(x) <= 0, at least one.
    known_optimum : (array, float), optional
        A reference feasible point and its objective value, used by
        verification reports.  The solver reads only the point, for the
        nonstandard regime's certificate; it never steers the iterates.
    """

    dimension: int
    objective: Oracle
    constraints: Sequence[Oracle]
    known_optimum: tuple[Array, float] | None = None
    _bank: OracleBank = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.dimension = int(self.dimension)
        if self.dimension < 1:
            raise ValueError("dimension must be at least 1")
        if self.objective.dimension != self.dimension:
            raise ValueError("objective dimension mismatch")
        self.constraints = list(self.constraints)
        if not self.constraints:
            raise ValueError("at least one constraint is required")
        for m, c in enumerate(self.constraints, start=1):
            if c.dimension != self.dimension:
                raise ValueError(f"constraint {m} dimension mismatch")
        self._bank = OracleBank(self.constraints)
        if self.known_optimum is not None:
            point, value = self.known_optimum
            point = as_vector(point, self.dimension, "known optimum point")
            value = float(value)
            if not math.isfinite(value):
                raise ValueError("known optimum value must be finite")
            worst, _ = max_violation(self, point)
            if worst > 0.0:
                raise ValueError("known optimum point violates a constraint")
            self.known_optimum = (point, value)

    @property
    def n_constraints(self) -> int:
        return len(self.constraints)

    def constraint_bank(self) -> OracleBank:
        return self._bank


def max_violation(problem, x) -> tuple[float, int]:
    """Largest constraint value at x and its 1-based index.

    Ties go to the lowest index.  ``problem`` may be a
    :class:`ProblemInstance` or a sequence of constraint oracles.
    """
    if isinstance(problem, ProblemInstance):
        bank = problem.constraint_bank()
    else:
        bank = OracleBank(problem)
    x = as_vector(x, bank.dimension, "x")
    val, idx = bank.max_entry(x)
    return val, idx + 1
