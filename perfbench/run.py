"""Benchmark harness: time to a certified solution, end to end and per layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload ref-nonproductive --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each pass runs in a fresh worker process (``worker.py``) that imports the
library from ``src/``, builds the workload's cells and runs each one with
its correctness check.  Generated problem files are written once, by a
worker of their own, before the first pass.  Workers run one at a time,
one thread each, with OpenBLAS pinned to one thread.  Passes repeat until the next one would end
after ``--seconds``; at least one always runs.

``--trace 0`` reports the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead; the spans
are written to ``perfbench/.out/``.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when every check passed, 1 when a correctness check
failed, and 2 when the benchmark could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
OUT = HERE / ".out"

# One thread per worker: the 200x1000 synthetic scan would otherwise be
# spread over every core by OpenBLAS.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}
# setup_s is a median over at least this many fresh processes.
SETUP_SAMPLES = 7
WORKER_TIMEOUT_S = 150


def load_spec() -> dict:
    """BENCHMARK.json: the workloads, and every metric's name and unit."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def units(spec: dict, kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec[kind]}


class WorkerError(RuntimeError):
    """A worker process crashed or printed no result."""


def worker(workload: str, seed: int, mode: str, workdir: Path) -> dict:
    env = dict(os.environ, **WORKER_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(workdir)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"{mode} worker timed out after {exc.timeout} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def cell_key(cell: dict) -> tuple:
    return cell["steps"], cell["productive"], cell["stop"]


def tally(passes: list[dict]) -> tuple[int, int]:
    """Cells attempted and failed over all passes.

    A cell fails when it raised or failed its check, or when its step
    count, productive count or stop reason differs from the first pass.
    """
    reference = [cell_key(c) for c in passes[0]["cells"]]
    attempted = failed = 0
    for p in passes:
        for ref, cell in zip(reference, p["cells"], strict=True):
            attempted += 1
            failed += not cell["passed"] or cell_key(cell) != ref
    return attempted, failed


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            workdir: Path) -> tuple[dict, list[str]]:
    """Run passes for ``seconds``; returns the result object and report lines."""
    worker(workload, seed, "generate", workdir)
    modes = ("pass", "traced") if trace else ("pass",)
    runs: dict[str, list[dict]] = {m: [] for m in modes}
    start = time.perf_counter()
    round_s = []
    while True:
        t = time.perf_counter()
        for mode in modes:
            runs[mode].append(worker(workload, seed, mode, workdir))
        round_s.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(round_s) > seconds:
            break
    passes = runs["pass"]
    all_passes = passes + runs.get("traced", [])
    attempted, failed = tally(all_passes)

    median = statistics.median
    lines = [f"workload {workload}  seed {seed}  passes {len(passes)}"
             + (f" + {len(runs['traced'])} traced" if trace else "")]
    facts = passes[0]["facts"]
    lines.append("machine " + "  ".join(f"{k}={v}" for k, v in facts.items()))
    for i, cell in enumerate(passes[0]["cells"]):
        wall = median(p["cells"][i]["wall_s"] for p in passes)
        lines.append(f"  cell {cell['label']:<36} steps {cell['steps']:>7}  "
                     f"productive {cell['productive']:>6}  {cell['stop']}"
                     f"  {'ok' if cell['passed'] else 'FAILED'}  {wall:.3f} s")
    lines.append(f"  failed_frac = {failed / attempted:.4f} ratio"
                 f"  ({failed} of {attempted} cells)")

    if trace:
        traced = runs["traced"]
        values = {k: median(t["layers"][k] for t in traced) for k in traced[0]["layers"]}
        values["trace.overhead_frac"] = (median(t["solve_s"] for t in traced)
                                         / median(p["solve_s"] for p in passes) - 1.0)
        unit = units(spec, "per_layer")
        OUT.mkdir(exist_ok=True)
        out = OUT / f"trace-{workload}-seed{seed}.json"
        out.write_text(json.dumps({"workload": workload, "seed": seed,
                                   "facts": facts, "env": WORKER_ENV,
                                   "metrics": values,
                                   "spans": [t["spans"] for t in traced]}))
        lines.append(f"  spans written to {out.relative_to(ROOT)}")
    else:
        setup = [p["setup_s"] for p in passes]
        while len(setup) < SETUP_SAMPLES:
            setup.append(worker(workload, seed, "setup", workdir)["setup_s"])
        solve_s = median(p["solve_s"] for p in passes)
        total_steps = sum(c["steps"] for c in passes[0]["cells"])
        values = {
            "solve_s": solve_s,
            "steps_per_s": total_steps / solve_s,
            "total_steps": total_steps,
            "peak_rss_mb": median(p["peak_rss_mb"] for p in passes),
            "setup_s": median(setup),
        }
        unit = units(spec, "end_to_end")
        calibrations = [c for p in passes for c in p["calibration_s"]]
        lines.append(f"  as measured: solve {median(p['solve_wall_s'] for p in passes):.6g} s"
                     f"  setup {median(p['setup_wall_s'] for p in passes):.6g} s"
                     f"  calibration loop {median(calibrations):.6g} s")
    lines += [f"  {name} = {value:.6g} {unit[name]}" for name, value in values.items()]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()}}
    return result, lines


def main(argv=None) -> int:
    if not (SOURCE / "mirropt" / "__init__.py").is_file():
        print(f"no library source at {SOURCE}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workloads = names if args.workload == "all" else [args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    results = {}
    try:
        for workload in workloads:
            result, lines = measure(spec, workload, args.seed, args.seconds,
                                    bool(args.trace), workdir)
            print("\n".join(lines), flush=True)
            results[workload] = result
    except WorkerError as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(results) == 1:
        final = results[args.workload]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
