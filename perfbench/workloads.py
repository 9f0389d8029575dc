"""The benchmark's four workloads: their cells, inputs and correctness gate.

A cell is one solver run: a problem, a geometry and a run configuration.
The ``ref-*`` workloads are fixed cells of the paper's six examples and
ignore the seed.  ``synth-prox`` loads, through ``mirropt.probfile``,
problem files generated from the seed before set-up starts.  See README.md for why
each workload was chosen and what it predicts.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from contextlib import nullcontext
from dataclasses import dataclass
from functools import partial
from pathlib import Path

import numpy as np

from mirropt import (
    BenchmarkExample,
    Policy,
    Regime,
    RunConfig,
    SolverReport,
    StopReason,
    build_example,
    default_geometry,
    load_problem,
    run,
    verify_example,
)

_L, _N = Regime.LIPSCHITZ, Regime.NONSTANDARD
_AGG, _FV = Policy.AGGREGATE_MAX, Policy.FIRST_VIOLATED

# (example id, regime, policy) per reference workload.
REFERENCE_CELLS = {
    "ref-nonproductive": [(1, _L, _AGG), (1, _L, _FV), (4, _L, _AGG), (4, _L, _FV)],
    "ref-productive": [(6, _L, _AGG), (6, _L, _FV)],
    "ref-verify": [(e, _N, p) for e in (3, 5, 6) for p in (_AGG, _FV)],
}
# (geometry kind, policy) per synthetic problem file.
SYNTH_CELLS = [("ball", Policy.MAX_VIOLATION), ("simplex", Policy.MIN_DUAL_NORM)]
SYNTH_KINDS = [kind for kind, _ in SYNTH_CELLS]

# Synthetic problem size and settings.  theta0 sets the stop target
# 2 * theta0^2 / eps^2, about 2.1e4 steps per file when constraint
# subgradients have unit dual norm.
SYNTH_DIMENSION = 1000
SYNTH_CONSTRAINTS = 200
SYNTH_PIECES = 20
SYNTH_EPSILON = 0.05
SYNTH_THETA0 = 5.1


@dataclass
class Cell:
    instance: object
    geometry: object
    config: RunConfig
    example: BenchmarkExample | None = None


def synth_problem(seed: int, kind: str) -> dict:
    """Problem-file mapping of random affine constraints feasible at a
    generated point x*, and a max-affine objective.

    The constraints are built to be violated beyond epsilon at the start
    point, so the run begins with a constraint phase.  ``kind`` is ``ball`` (unit ball
    centred at the origin) or ``simplex`` (entropy prox on the unit simplex).
    """
    rng = np.random.default_rng([seed, SYNTH_KINDS.index(kind)])
    n, m, n_pieces = SYNTH_DIMENSION, SYNTH_CONSTRAINTS, SYNTH_PIECES
    if kind == "ball":
        u = rng.standard_normal(n)
        u /= np.linalg.norm(u)
        x_star = 0.5 * u
        # Rows point against x*, so a_i . (0 - x*) > eps at the centre.
        against = rng.uniform(0.2, 0.8, m)
        a = -against[:, None] * u[None, :] + rng.standard_normal((m, n)) / math.sqrt(n)
        pieces = rng.standard_normal((n_pieces, n)) / math.sqrt(n)
        x0 = np.zeros(n)
        geometry = {"kind": "ball", "center": x0.tolist(), "radius": 1.0}
    elif kind == "simplex":
        x_star = rng.dirichlet(np.full(n, 0.05))
        # Rows are low where x* has mass, so a_i . (uniform - x*) > eps.
        against = rng.uniform(0.5, 2.0, m)
        a = 0.3 * rng.standard_normal((m, n)) - against[:, None] * (x_star / x_star.max())[None, :]
        pieces = rng.standard_normal((n_pieces, n))
        # Dual (max) norms in a narrow band: each step's weight in the stop
        # criterion is 1/||s||^2, so this keeps the step count nearly the
        # same across seeds.
        a *= rng.uniform(1.0, 1.2, m)[:, None] / np.abs(a).max(axis=1, keepdims=True)
        pieces /= np.abs(pieces).max(axis=1, keepdims=True)
        x0 = np.full(n, 1.0 / n)
        geometry = {"kind": "simplex"}
    else:
        raise ValueError(f"unknown synthetic kind {kind!r}")
    slack = rng.uniform(0.005, 0.05, m)
    b = -(a @ x_star) - slack
    offsets = rng.uniform(-0.1, 0.1, n_pieces)

    def affine(row, offset):
        return {"kind": "affine", "parameters": {"a": row.tolist(), "b": float(offset)}}

    return {
        "dimension": n,
        "objective": {"kind": "max_of", "parameters": {
            "children": [affine(pieces[k], offsets[k]) for k in range(n_pieces)]}},
        "constraints": [affine(a[i], b[i]) for i in range(m)],
        "x0": x0.tolist(),
        "theta0": SYNTH_THETA0,
        "epsilon": SYNTH_EPSILON,
        "geometry": geometry,
    }


def synth_path(workdir: Path, kind: str) -> Path:
    return workdir / f"synth-{kind}.json"


def write_synth_problems(seed: int, workdir: Path) -> None:
    """Write the ``synth-prox`` problem files of ``seed`` into ``workdir``."""
    for kind in SYNTH_KINDS:
        data = json.dumps(synth_problem(seed, kind)).encode("utf-8")
        synth_path(workdir, kind).write_bytes(data)


def reference_cell(example_id: int, regime: Regime, policy: Policy,
                   history: bool, index: int, tracer=None) -> Cell:
    with _span(tracer, "build", index):
        example = build_example(example_id)
        geometry = default_geometry(example)
    config = RunConfig(epsilon=example.settings.epsilon, regime=regime,
                       policy=policy, record_history=history)
    return Cell(example.instance, geometry, config, example)


def synth_cell(kind: str, policy: Policy, workdir: Path, index: int,
               tracer=None) -> Cell:
    """Load a problem file written by ``write_synth_problems``."""
    path = synth_path(workdir, kind)
    with _span(tracer, "load", index, bytes=path.stat().st_size):
        document = load_problem(path)
    config = RunConfig(epsilon=document.epsilon, regime=_N, policy=policy)
    return Cell(document.instance, document.geometry, config)


def cell_plan(workload: str, workdir: Path) -> list[tuple[str, Callable[..., Cell]]]:
    """(label, build) per cell; ``build(index, tracer)`` builds the cell's
    instance and geometry, as set-up before the first run."""
    if workload in REFERENCE_CELLS:
        history = workload == "ref-verify"  # as `mirropt verify` does
        return [(f"ex{e} {r.value} {p.value}", partial(reference_cell, e, r, p, history))
                for e, r, p in REFERENCE_CELLS[workload]]
    if workload == "synth-prox":
        return [(f"synth {kind} {policy.value}", partial(synth_cell, kind, policy, workdir))
                for kind, policy in SYNTH_CELLS]
    raise ValueError(f"unknown workload {workload!r}")


def run_cell(cell: Cell, index: int, tracer=None) -> SolverReport:
    with _span(tracer, "run", index, constraints=cell.instance.n_constraints,
               dimension=cell.instance.dimension):
        return run(cell.instance, cell.geometry, cell.config)


def check_cell(cell: Cell, report: SolverReport, index: int, tracer=None) -> bool:
    """The correctness gate.  Exact step counts are not part of it."""
    if cell.example is None:
        return report.converged and report.output_max_violation <= cell.config.epsilon
    if report.stop_reason is not StopReason.CRITERION_MET:
        return False
    with _span(tracer, "verify", index):
        return verify_example(report, cell.example, cell.geometry).all_passed


def _span(tracer, name: str, index: int, **attrs):
    return nullcontext() if tracer is None else tracer.span(name, index, **attrs)
