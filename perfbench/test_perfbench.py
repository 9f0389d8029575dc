"""Tests of the benchmark harness itself.

Run from the repository root: PYTHONPATH=src python3 -m pytest -q perfbench
"""

import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

from mirropt import Policy, Regime, RunConfig, StepKind, run

import run as harness
from tracer import Tracer
from worker import build_checked, layer_metrics, run_checked
from workloads import (
    cell_plan,
    check_cell,
    reference_cell,
    synth_cell,
    synth_path,
    write_synth_problems,
)

HERE = Path(__file__).resolve().parent


def run_pass(cells, tracer=None) -> list[dict]:
    return [run_checked(str(i), cell, i, tracer) for i, cell in enumerate(cells)]


def short_cells(workdir: Path, tracer=None) -> list:
    """One short cell per regime, policy and geometry the workloads use,
    and the ``synth-prox`` cells at their benchmark size."""
    builders = [
        partial(reference_cell, 4, Regime.LIPSCHITZ, Policy.FIRST_VIOLATED, False),
        partial(reference_cell, 6, Regime.NONSTANDARD, Policy.FIRST_VIOLATED, True),
        partial(reference_cell, 6, Regime.NONSTANDARD, Policy.AGGREGATE_MAX, True),
        partial(synth_cell, "ball", Policy.MAX_VIOLATION, workdir),
        partial(synth_cell, "simplex", Policy.MIN_DUAL_NORM, workdir),
    ]
    return [build_checked(build, i, tracer) for i, build in enumerate(builders)]


def test_traced_and_untraced_passes_agree(tmp_path):
    write_synth_problems(3, tmp_path)
    plain = run_pass(short_cells(tmp_path))
    tracer = Tracer()
    traced = run_pass(short_cells(tmp_path, tracer), tracer)

    assert all(c["passed"] for c in plain + traced)
    assert [harness.cell_key(c) for c in traced] == [harness.cell_key(c) for c in plain]
    assert harness.tally([{"cells": plain}, {"cells": traced}]) == (10, 0)

    # One scan per step plus the output's max violation, nested calls
    # counted once.
    runs = [s for s in tracer.spans if s["name"] == "run"]
    for span, cell in zip(runs, traced, strict=True):
        assert span["counters"]["problems.scan"]["calls"] == cell["steps"] + 1
        assert span["counters"]["geometry.mirror_step"]["calls"] == cell["steps"]

    metrics = layer_metrics(tracer, traced)
    assert set(metrics) | {"trace.overhead_frac"} == set(
        harness.units(harness.load_spec(), "per_layer"))
    assert metrics["solver.run.calls"] == len(traced)
    assert metrics["benchmarks.verify_example.calls"] == 3
    assert metrics["probfile.load_problem.bytes"] > 0
    assert metrics["solver.history_records"] == sum(
        c["steps"] for c in traced[1:3])
    # Only min-dual-norm takes more than one subgradient per step.
    assert metrics["problems.constraint_subgradient.per_step"] > 1.0


def history_segments(report, objective) -> int:
    keys = []
    for record in report.history:
        if record.kind is StepKind.PRODUCTIVE:
            keys.append(("p", tuple(objective.subgradient(record.point))))
        else:
            keys.append(("n", record.constraint_index))
    return 1 + sum(a != b for a, b in zip(keys, keys[1:]))


@pytest.mark.parametrize("example_id, regime", [
    (6, Regime.NONSTANDARD), (4, Regime.LIPSCHITZ)])
def test_segments_match_history(example_id, regime):
    tracer = Tracer()
    cell = reference_cell(example_id, regime, Policy.FIRST_VIOLATED, True, 0, tracer)
    tracer.instrument(cell.instance, cell.geometry)
    report = run(cell.instance, cell.geometry, cell.config)
    segments = tracer.counters["solver.segments"].calls
    assert 1 < segments < report.total_steps
    assert segments == history_segments(report, cell.instance.objective)


def test_same_seed_gives_identical_problem_files(tmp_path):
    dirs = [tmp_path / str(i) for i in range(3)]
    for workdir, seed in zip(dirs, (7, 7, 8)):
        workdir.mkdir()
        write_synth_problems(seed, workdir)
    for kind in ("ball", "simplex"):
        first, again, other = (synth_path(d, kind).read_bytes() for d in dirs)
        assert first == again
        assert first != other


def test_cells_that_raise_are_counted(tmp_path):
    # No problem files were written, so building the synth-prox cells raises.
    plan = cell_plan("synth-prox", tmp_path)
    summaries = [run_checked(label, build_checked(build, i), i)
                 for i, (label, build) in enumerate(plan)]
    assert [(c["stop"], c["passed"]) for c in summaries] == [("raised", False)] * 2
    assert harness.tally([{"cells": summaries}]) == (2, 2)


def test_failed_checks_are_counted(tmp_path):
    cell = reference_cell(4, Regime.LIPSCHITZ, Policy.AGGREGATE_MAX, False, 0)
    capped = run(cell.instance, cell.geometry,
                 RunConfig(epsilon=cell.config.epsilon, max_iterations=100))
    assert not check_cell(cell, capped, 0)

    passes = [{"cells": run_pass([cell])} for _ in range(2)]
    assert harness.tally(passes) == (2, 0)
    passes[1]["cells"][0]["steps"] += 1
    assert harness.tally(passes) == (2, 1)
    passes[0]["cells"][0]["passed"] = False
    assert harness.tally(passes) == (2, 2)


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".out"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "ref-nonproductive",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
