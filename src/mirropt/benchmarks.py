"""Built-in benchmark problems: six objectives over ten shared affine constraints.

All six instances live in R^10, start from (1,...,1) with prox radius
theta0 = 3 and target accuracy eps = 0.05, and share the same ten affine
constraints (row m has coefficient 1 on x_1 and 100*(m-1) + 10*j on x_j for
j >= 2).  The reference point (0,...,0) is feasible, satisfies the prox-radius
premise (d = 5 <= 9), and carries the recorded reference objective values
(0, 0, 0, 5, 0, 0).  The solver's gap guarantees hold against any feasible
point inside the prox radius, so gap checks against this reference are valid
even for instances where some other feasible point does at least as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import Array, EuclideanBall, EuclideanSpace, EntropySimplex, ProxGeometry
from .problems import (
    AbsAffinePlusOracle,
    AffineOracle,
    MaxOracle,
    Oracle,
    ProblemInstance,
    QuadraticOracle,
    SqrtQuadraticOracle,
)
from .solver import Policy, Regime, SolverReport

__all__ = [
    "DIMENSION",
    "N_CONSTRAINTS",
    "EXAMPLE_IDS",
    "ExperimentSettings",
    "BenchmarkExample",
    "ReferenceResult",
    "REFERENCE_RESULTS",
    "build_example",
    "default_geometry",
    "constraint_matrix",
    "VerificationCheck",
    "VerificationResult",
    "verify_example",
    "GridSpec",
    "brute_force_optimum",
]

DIMENSION = 10
N_CONSTRAINTS = 10
EXAMPLE_IDS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class ExperimentSettings:
    """Shared run settings: start point, prox radius and accuracy."""

    x0: Array
    theta0: float
    epsilon: float


@dataclass(frozen=True)
class BenchmarkExample:
    """One benchmark problem: its instance and run settings.

    ``example_id`` is 1..6 for a built-in example (the key of its recorded
    runs in ``REFERENCE_RESULTS``) and 0 for a problem loaded from a file.
    """

    example_id: int
    instance: ProblemInstance
    settings: ExperimentSettings


@dataclass(frozen=True)
class ReferenceResult:
    """Recorded reference outcome for one (example, regime, policy) cell.

    ``iterations`` is None when the reference run exceeded its cap, in which
    case ``cap`` holds that cap.  ``seconds`` is informational only (older
    commodity hardware) and never asserted.
    """

    iterations: int | None
    cap: int | None = None
    seconds: float | None = None


_L = Regime.LIPSCHITZ
_N = Regime.NONSTANDARD
_AGG = Policy.AGGREGATE_MAX
_FV = Policy.FIRST_VIOLATED

REFERENCE_RESULTS: dict[tuple[int, Regime, Policy], ReferenceResult] = {
    (1, _L, _AGG): ReferenceResult(730_829, seconds=133.0),
    (1, _L, _FV): ReferenceResult(261_800, seconds=40.0),
    (2, _L, _AGG): ReferenceResult(1_638_946, seconds=262.0),
    (2, _L, _FV): ReferenceResult(453_580, seconds=30.0),
    (3, _L, _AGG): ReferenceResult(None, cap=10**7),
    (3, _L, _FV): ReferenceResult(None, cap=10**7),
    (2, _N, _AGG): ReferenceResult(1_584_616, seconds=300.0),
    (2, _N, _FV): ReferenceResult(1_434_006, seconds=156.0),
    (3, _N, _AGG): ReferenceResult(184_706, seconds=124.0),
    (3, _N, _FV): ReferenceResult(89_940, seconds=110.0),
    (4, _L, _AGG): ReferenceResult(172_821, seconds=24.0),
    (4, _L, _FV): ReferenceResult(17_255, seconds=1.0),
    (5, _L, _AGG): ReferenceResult(None, cap=10**6),
    (5, _L, _FV): ReferenceResult(None, cap=10**6),
    (6, _L, _AGG): ReferenceResult(None, cap=10**6),
    (6, _L, _FV): ReferenceResult(None, cap=10**6),
    (5, _N, _AGG): ReferenceResult(182_993, seconds=106.0),
    (5, _N, _FV): ReferenceResult(66_095, seconds=79.0),
    (6, _N, _AGG): ReferenceResult(180_020, seconds=101.0),
    (6, _N, _FV): ReferenceResult(24_454, seconds=78.0),
}

_REFERENCE_VALUES = {1: 0.0, 2: 0.0, 3: 0.0, 4: 5.0, 5: 0.0, 6: 0.0}


def constraint_matrix() -> Array:
    """The shared 10x10 affine-constraint coefficient matrix."""
    mat = np.zeros((N_CONSTRAINTS, DIMENSION))
    for m in range(1, N_CONSTRAINTS + 1):
        mat[m - 1, 0] = 1.0
        for j in range(2, DIMENSION + 1):
            mat[m - 1, j - 1] = 100.0 * (m - 1) + 10.0 * j
    return mat


def _shared_constraints() -> list[AffineOracle]:
    return [AffineOracle(row, 0.0) for row in constraint_matrix()]


def _objective(example_id: int) -> Oracle:
    if example_id == 1:
        # sqrt(0.1 * (sum x_i^2 + sum_{i<10} x_i x_{i+1}))
        q = np.eye(DIMENSION)
        for i in range(DIMENSION - 1):
            q[i, i + 1] = 0.5
            q[i + 1, i] = 0.5
        return SqrtQuadraticOracle(q, scale=0.1)
    if example_id == 2:
        # sum x_i^2 - x_1 x_2 + x_3 - x_8 + x_9 x_10
        a = 2.0 * np.eye(DIMENSION)
        a[0, 1] = a[1, 0] = -1.0
        a[8, 9] = a[9, 8] = 1.0
        b = np.zeros(DIMENSION)
        b[2] = -1.0
        b[7] = 1.0
        return QuadraticOracle(a, b)
    if example_id == 3:
        # sum 5^i x_i^2
        return QuadraticOracle(np.diag([2.0 * 5.0**i for i in range(1, DIMENSION + 1)]))
    if example_id == 4:
        pieces = [
            AbsAffinePlusOracle(_coeffs({1: 1, 2: 1, 3: 1}), shift=1.0, scale=0.1),
            AbsAffinePlusOracle(_coeffs({4: 1, 5: 2, 6: 1}), shift=2.0, scale=0.01),
            AbsAffinePlusOracle(_coeffs({7: 1, 8: 3, 9: 4, 10: 10}), shift=5.0, scale=0.001),
        ]
        return MaxOracle(pieces)
    if example_id == 5:
        weights = [1, 10, 50, 100, 200, 400, 800, 1000, 5000, 10000]
        pieces = []
        for i, w in enumerate(weights):
            a = np.zeros((DIMENSION, DIMENSION))
            a[i, i] = 2.0 * w
            pieces.append(QuadraticOracle(a))
        return MaxOracle(pieces)
    if example_id == 6:
        pieces = [
            AffineOracle(_coeffs({1: 1, 2: 2, 3: 3})),
            AffineOracle(_coeffs({3: 1, 4: 4, 5: 6})),
            AffineOracle(_coeffs({4: 1, 5: 3, 6: 6, 7: 7})),
            AffineOracle(_coeffs({7: 5, 8: 8, 9: 9})),
            AffineOracle(_coeffs({1: 1, 10: 10})),
        ]
        return MaxOracle(pieces)
    raise ValueError(f"example id must be in 1..6, got {example_id}")


def _coeffs(entries: dict[int, float]) -> Array:
    vec = np.zeros(DIMENSION)
    for pos, val in entries.items():
        vec[pos - 1] = float(val)
    return vec


def build_example(example_id: int) -> BenchmarkExample:
    """Construct benchmark example 1..6 with its shared settings."""
    example_id = int(example_id)
    if example_id not in EXAMPLE_IDS:
        raise ValueError(f"example id must be in 1..6, got {example_id}")
    instance = ProblemInstance(
        dimension=DIMENSION,
        objective=_objective(example_id),
        constraints=_shared_constraints(),
        known_optimum=(np.zeros(DIMENSION), _REFERENCE_VALUES[example_id]),
    )
    settings = ExperimentSettings(
        x0=np.ones(DIMENSION), theta0=3.0, epsilon=0.05
    )
    return BenchmarkExample(
        example_id=example_id,
        instance=instance,
        settings=settings,
    )


def default_geometry(example: BenchmarkExample) -> EuclideanSpace:
    """Euclidean geometry anchored at the example's start point."""
    return EuclideanSpace(example.settings.x0, example.settings.theta0)


@dataclass(frozen=True)
class VerificationCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationResult:
    """Named pass/fail checks for one report; the first is ``converged``."""

    checks: tuple[VerificationCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


_GUARANTEE_SLACK = 1e-9


def verify_example(report: SolverReport, example: BenchmarkExample,
                   geometry: ProxGeometry | None = None) -> VerificationResult:
    """Check a report's guarantees against an example's reference data.

    Asserts the objective gap (Lipschitz regime), the constraint residuals,
    the productive-iterate certificate the run computed (nonstandard regime
    with a known optimum, ``report.certificate``) and the a-priori iteration
    bound when estimable, after the ``converged`` check.  A report that did
    not converge gets that check only; without a known optimum only the
    reference-free checks run.
    ``geometry`` is no longer read; it is kept for positional callers.
    """
    config = report.config
    eps = example.settings.epsilon
    if not math.isclose(config.epsilon, eps, rel_tol=0.0, abs_tol=0.0):
        raise ValueError(
            "report was produced with different settings than the example"
        )
    checks = [VerificationCheck("converged", report.converged,
                                report.stop_reason.value)]
    if not report.converged:
        return VerificationResult(tuple(checks))

    tol = eps + _GUARANTEE_SLACK
    reference = example.instance.known_optimum

    if reference is not None and config.regime is Regime.LIPSCHITZ:
        gap = report.output_objective - reference[1]
        checks.append(VerificationCheck(
            "objective_gap", gap <= tol, f"gap={gap:.3e} tol={tol:.3e}"))

    violation = report.output_max_violation
    checks.append(VerificationCheck(
        "constraint_residuals", violation <= tol,
        f"max violation={violation:.3e} tol={tol:.3e}"))

    if report.certificate is not None:
        checks.append(VerificationCheck(
            "vf_certificate", report.certificate <= tol,
            f"min productive gap={report.certificate:.3e} tol={tol:.3e}"))

    if report.a_priori_bound is not None:
        checks.append(VerificationCheck(
            "iteration_bound", report.total_steps <= report.a_priori_bound,
            f"N={report.total_steps} bound={report.a_priori_bound}"))

    return VerificationResult(tuple(checks))


@dataclass(frozen=True)
class GridSpec:
    """Box grid for brute-force search.

    ``lower``/``upper`` are scalars or per-coordinate sequences; ``spacing``
    is the step along every axis.  ``geometry`` optionally restricts the
    grid to a ball's feasible set.
    """

    lower: float | Sequence[float]
    upper: float | Sequence[float]
    spacing: float
    geometry: ProxGeometry | None = None


def brute_force_optimum(instance: ProblemInstance, grid: GridSpec) -> tuple[Array, float]:
    """Exhaustive grid search over a box intersected with the feasible set.

    Independent low-dimensional reference: returns the best grid point with
    every constraint <= 0, an upper bound on the true optimal value with
    error bounded by spacing times a local Lipschitz constant.

    Raises
    ------
    ValueError
        If the dimension exceeds 3 or no feasible grid point exists.
    """
    n = instance.dimension
    if n > 3:
        raise ValueError("brute force search is limited to dimension <= 3")
    spacing = float(grid.spacing)
    if not math.isfinite(spacing) or spacing <= 0.0:
        raise ValueError("spacing must be finite and positive")
    lower = np.broadcast_to(np.asarray(grid.lower, dtype=np.float64), (n,))
    upper = np.broadcast_to(np.asarray(grid.upper, dtype=np.float64), (n,))
    if np.any(lower > upper):
        raise ValueError("lower bound exceeds upper bound")

    axes = []
    for lo, hi in zip(lower, upper):
        count = int(math.floor((hi - lo) / spacing + 1e-9)) + 1
        axes.append(lo + spacing * np.arange(count))
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    if isinstance(grid.geometry, EuclideanBall):
        offsets = points - grid.geometry.center
        inside = np.einsum("pi,pi->p", offsets, offsets) <= grid.geometry.radius**2
        points = points[inside]
    elif isinstance(grid.geometry, EntropySimplex):
        raise ValueError("brute force search does not support the simplex geometry")

    feasible = np.ones(len(points), dtype=bool)
    for constraint in instance.constraints:
        feasible &= constraint.values(points) <= 0.0
    points = points[feasible]
    if len(points) == 0:
        raise ValueError("no feasible grid point in the search box")

    values = instance.objective.values(points)
    best = int(np.argmin(values))
    return points[best].copy(), float(values[best])
