"""One benchmark pass in a fresh process.

Usage: python3 perfbench/worker.py --workload W --seed N --mode M --workdir DIR

``--mode generate`` writes the workload's generated problem files into
the work directory, outside every timed region.  ``setup`` imports the
library and builds the workload's cells; ``pass`` then runs every cell
once with its correctness check; ``traced`` does the same under the
tracer.  The last line of standard output is one JSON object.  ``run.py``
starts this script with the library's source on ``PYTHONPATH`` and
OpenBLAS pinned to one thread.

``setup_s`` and ``solve_s`` are in reference seconds: wall time scaled by a
calibration loop timed next to it, because the speed of a shared machine
drifts during a run (see README.md).  The wall times are reported too.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


# The calibration loop's time on a reference machine.  It only fixes the
# unit: one reference second is one wall second on a machine where the loop
# takes this long, near its 0.15-0.26 s on the 2-CPU machine this benchmark
# was defined on.  Ratios of reference seconds do not depend on it.
CALIBRATION_REFERENCE_S = 0.2


def calibration_s(numpy) -> float:
    """Wall time of a fixed loop shaped like the solver's work.

    Small-vector numpy calls driven from Python, then 200x1000
    matrix-vector products.  Harness code: it calls nothing in the library,
    so a change to the library cannot change it.
    """
    small = numpy.sin(numpy.arange(100.0)).reshape(10, 10)
    big = numpy.arange(200_000.0).reshape(200, 1000)
    numpy.sin(big, out=big)
    x, y = numpy.ones(10), numpy.ones(1000)
    argmax = numpy.argmax
    start = time.perf_counter()
    for _ in range(20_000):
        p = small[int(argmax(small @ x))]
        x = x - (1e-3 / math.sqrt(float(p @ p))) * p
    for _ in range(1_500):
        y = y - 1e-6 * big[int(argmax(big @ y))]
    return time.perf_counter() - start


def machine_facts(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(tracer, cells: list[dict]) -> dict:
    """Per-layer metrics of one traced pass, summed over its cells."""
    steps = sum(c["steps"] for c in cells)
    productive = sum(c["productive"] for c in cells)
    nonproductive = steps - productive
    counters = tracer.counters

    def per(a, b, scale=1.0):
        return a / b * scale if b else 0.0

    scan = counters["problems.scan"]
    flops = 0
    for span in tracer.spans:
        if span["name"] == "run":
            calls = span["counters"].get("problems.scan", {}).get("calls", 0)
            flops += 2 * calls * span["constraints"] * span["dimension"]
    run_self = tracer.span_total("run")
    subgradient = counters["problems.constraint_subgradient"]
    objective = counters["problems.objective"]
    mirror = counters["geometry.mirror_step"]
    dual = counters["geometry.dual_norm"]
    segments = counters["solver.segments"].calls
    return {
        "problems.scan.calls": scan.calls,
        "problems.scan.self_s": scan.self_s,
        "problems.scan.us_per_call": per(scan.self_s, scan.calls, 1e6),
        "problems.scan.flops_computed": flops,
        "problems.scan.bytes_computed": 4 * flops,  # 8 bytes per 2 flops
        "problems.scan.gflops": per(flops, scan.self_s, 1e-9),
        "problems.constraint_subgradient.calls": subgradient.calls,
        "problems.constraint_subgradient.self_s": subgradient.self_s,
        "problems.constraint_subgradient.per_step": per(subgradient.calls, nonproductive),
        "problems.objective.calls": objective.calls,
        "problems.objective.self_s": objective.self_s,
        "problems.objective.us_per_call": per(objective.self_s, objective.calls, 1e6),
        "solver.run.calls": tracer.span_count("run"),
        "solver.run.self_s": run_self,
        "solver.run.us_per_step": per(run_self, steps, 1e6),
        "solver.productive_ratio": per(productive, steps),
        "solver.segments": segments,
        "solver.steps_per_segment": per(steps, segments),
        "solver.history_records": sum(c["history_records"] for c in cells),
        "geometry.mirror_step.calls": mirror.calls,
        "geometry.mirror_step.self_s": mirror.self_s,
        "geometry.mirror_step.us_per_call": per(mirror.self_s, mirror.calls, 1e6),
        "geometry.dual_norm.calls": dual.calls,
        "geometry.dual_norm.self_s": dual.self_s,
        "benchmarks.build_example.s": tracer.span_total("build", "duration"),
        "benchmarks.verify_example.calls": tracer.span_count("verify"),
        "benchmarks.verify_example.self_s": tracer.span_total("verify"),
        "probfile.load_problem.s": tracer.span_total("load", "duration"),
        "probfile.load_problem.bytes": tracer.span_total("load", "bytes"),
    }


# The summary of a cell that raised while being built, run or checked.
RAISED = {"steps": 0, "productive": 0, "stop": "raised", "history_records": 0,
          "passed": False}


def build_checked(build, index: int, tracer=None):
    """Build one cell; None when building raised."""
    try:
        cell = build(index, tracer)
        if tracer is not None:
            tracer.instrument(cell.instance, cell.geometry)
        return cell
    except Exception:  # a cell that raises is a failed cell, not a crash
        traceback.print_exc()
        return None


def run_checked(label: str, cell, index: int, tracer=None) -> dict:
    """Run one cell and its correctness check; a summary of the outcome."""
    from workloads import check_cell, run_cell

    summary = {"label": label, **RAISED}
    start = time.perf_counter()
    if cell is not None:
        try:
            report = run_cell(cell, index, tracer)
            summary.update(
                steps=report.total_steps,
                productive=report.productive_count,
                stop=report.stop_reason.value,
                history_records=len(report.history or ()),
                passed=check_cell(cell, report, index, tracer),
            )
        except Exception:
            traceback.print_exc()
    summary["wall_s"] = time.perf_counter() - start
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("generate", "setup", "pass", "traced"),
                        required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    if args.mode == "generate":
        from workloads import write_synth_problems

        if args.workload == "synth-prox":
            write_synth_problems(args.seed, args.workdir)
        print(json.dumps({}))
        return 0

    import numpy
    import mirropt

    source = Path(__file__).resolve().parent.parent / "src"
    if source not in Path(mirropt.__file__).resolve().parents:
        print(f"mirropt imported from {mirropt.__file__}, not from {source}",
              file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import cell_plan

    tracer = Tracer() if args.mode == "traced" else None
    plan = cell_plan(args.workload, args.workdir)
    cells = [build_checked(build, i, tracer) for i, (_, build) in enumerate(plan)]
    setup_s = time.perf_counter() - T0
    # Reference seconds: wall time scaled by the calibration loop timed
    # right after set-up and after every cell (see README.md).
    calibrations = [calibration_s(numpy)]
    result = {"setup_wall_s": setup_s,
              "setup_s": setup_s * CALIBRATION_REFERENCE_S / calibrations[0],
              "facts": machine_facts(numpy)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    summaries = []
    for i, ((label, _), cell) in enumerate(zip(plan, cells)):
        summaries.append(run_checked(label, cell, i, tracer))
        calibrations.append(calibration_s(numpy))
    result["solve_wall_s"] = sum(c["wall_s"] for c in summaries)
    result["solve_s"] = sum(
        c["wall_s"] * 2 * CALIBRATION_REFERENCE_S / (before + after)
        for c, before, after in zip(summaries, calibrations, calibrations[1:]))
    result["calibration_s"] = calibrations
    result["cells"] = summaries
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, summaries)
        result["spans"] = tracer.cell_spans() + tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
