"""Command-line front end.

Three subcommands drive the solver::

    mirropt run    --example 1 --regime lipschitz --policy first-violated
    mirropt run    --problem-file disk2d.prob --format json
    mirropt bench  --examples 1 4 --format csv --output table.csv
    mirropt verify --example 2 --regime nonstandard --policy first-violated

``run`` solves one problem and reports the outcome (exit 0 when the run
converged, 1 when it did not, 2 on usage or parse errors).  ``bench`` runs
the four regime/policy configurations per selected built-in example and
prints a comparison table.  ``verify`` re-checks the convergence guarantees
on one configuration, ``converged`` first, and exits 0 only if every
check that applies passes.

Reports stay typed values until written: JSON gets numbers (null for a
missing or non-finite one); text and CSV cells, formatted in one place,
show ``>cap`` for the step count of a run that hit its cap.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from enum import Enum
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from .benchmarks import (
    EXAMPLE_IDS,
    BenchmarkExample,
    ExperimentSettings,
    build_example,
    default_geometry,
    verify_example,
)
from .probfile import (
    ProblemFileError,
    load_problem,
    parse_problem,
    problem_to_mapping,
)
from .problems import EvaluationError, ProblemInstance
from .solver import (Policy, Regime, RunConfig, SolverReport, StepHistory, StopReason,
                     run)

__all__ = ["main", "build_parser"]

BENCH_COLUMNS = ("example", "regime", "policy", "iterations", "productive",
                 "time_s", "objective_gap", "max_violation", "stop_reason",
                 "crit_sum", "stop_target", "progress")
_STOP_COLUMN = BENCH_COLUMNS.index("stop_reason")

# Table layout of the reference experiments: Lipschitz pair, then nonstandard.
_BENCH_CELLS = (
    (Regime.LIPSCHITZ, Policy.AGGREGATE_MAX),
    (Regime.LIPSCHITZ, Policy.FIRST_VIOLATED),
    (Regime.NONSTANDARD, Policy.AGGREGATE_MAX),
    (Regime.NONSTANDARD, Policy.FIRST_VIOLATED),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mirropt",
        description="Adaptive mirror descent for convex problems "
                    "with functional constraints.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, *, bench: bool) -> None:
        if bench:
            p.add_argument("--examples", type=int, nargs="*",
                           choices=EXAMPLE_IDS, default=list(EXAMPLE_IDS),
                           help="built-in example ids (default: all six)")
        else:
            p.add_argument("--example", type=int, choices=EXAMPLE_IDS,
                           help="built-in example id")
            p.add_argument("--problem-file", metavar="PATH",
                           help="problem-definition file")
            p.add_argument("--regime", choices=[r.value for r in Regime],
                           default=Regime.LIPSCHITZ.value)
            p.add_argument("--policy", choices=[*(p_.value for p_ in Policy), "max-violation"],
                           default=Policy.FIRST_VIOLATED.value)
            p.add_argument("--epsilon", type=float, default=None,
                           help="override the problem's target accuracy")
            p.add_argument("--theta0", type=float, default=None,
                           help="override the prox radius")
        p.add_argument("--max-iter", type=int, default=RunConfig.max_iterations,
                       help="iteration cap (default 10^7)")
        p.add_argument("--format", choices=("text", "json", "csv"),
                       default="text")
        p.add_argument("--output", metavar="PATH", default=None,
                       help="write the report to a file instead of stdout")

    p_run = sub.add_parser("run", help="solve one problem")
    add_common(p_run, bench=False)
    p_run.add_argument("--history", action="store_true",
                       help="record one step record per iteration "
                            "(json reports include them)")

    p_bench = sub.add_parser("bench", help="compare configurations on the "
                                           "built-in examples")
    add_common(p_bench, bench=True)

    p_verify = sub.add_parser("verify", help="run one configuration and "
                                             "check its guarantees")
    add_common(p_verify, bench=False)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("run", "verify"):
        if (args.example is None) == (args.problem_file is None):
            parser.error("provide exactly one of --example or --problem-file")
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "bench":
            return _cmd_bench(args)
        return _cmd_verify(args)
    except (ProblemFileError, EvaluationError, ValueError, OSError) as exc:
        print(f"mirropt: error: {exc}", file=sys.stderr)
        return 2


def _solve(args: argparse.Namespace, record_history: bool = False
           ) -> tuple[str, BenchmarkExample, SolverReport]:
    """Run the problem ``args`` names, with its overrides: the source label,
    the problem as an example (id 0 for a file) and the report."""
    overrides = {name: getattr(args, name) for name in ("theta0", "epsilon")
                 if getattr(args, name) is not None}
    if args.example is not None:
        example = build_example(args.example)
        example = dataclasses.replace(
            example, settings=dataclasses.replace(example.settings, **overrides))
        label, geometry = str(args.example), default_geometry(example)
    else:
        document = load_problem(args.problem_file)
        if overrides:
            # Re-parse so the file's geometry is rebuilt with the overrides.
            document = parse_problem({**problem_to_mapping(document), **overrides})
        geometry = document.geometry
        settings = ExperimentSettings(geometry.anchor, geometry.theta0,
                                      document.epsilon)
        label = Path(args.problem_file).stem
        example = BenchmarkExample(0, document.instance, settings)
    config = RunConfig(
        epsilon=example.settings.epsilon,
        regime=Regime(args.regime),
        policy=Policy(args.policy),
        max_iterations=args.max_iter,
        record_history=record_history,
    )
    return label, example, run(example.instance, geometry, config)


def _jsonable(obj: Any) -> Any:
    """JSON-ready copy of a result: dataclasses by field, enums by value,
    non-finite floats as null (RFC 8259 has no NaN or Infinity)."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple, StepHistory)):
        return [_jsonable(item) for item in obj]
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        Path(output).write_text(text, encoding="utf-8")


def _csv_text(header: Sequence[str], rows: list[Sequence[Any]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _table_text(header: Sequence[str], rows: list[Sequence[Any]]) -> str:
    cells = [list(map(str, header))] + [list(map(str, r)) for r in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip()
             for row in cells]
    return "\n".join(lines) + "\n"


def _run_row(label: int | str, report: SolverReport,
             instance: ProblemInstance) -> list[Any]:
    """The ``BENCH_COLUMNS`` values of one run, typed as reported."""
    optimum = instance.known_optimum
    return [
        label,
        report.config.regime.value,
        report.config.policy.value,
        report.total_steps,
        report.productive_count,
        report.wall_time,
        None if optimum is None else report.output_objective - optimum[1],
        report.output_max_violation,
        report.stop_reason.value,
        report.crit_sum,
        report.stop_target,
        report.progress,
    ]


_CELL_FORMATS = {"time_s": "{:.3f}", "objective_gap": "{:.6e}",
                 "max_violation": "{:.6e}"}


def _cells(row: Sequence[Any]) -> list[str]:
    """Text and CSV cells of a row: empty for None, ``>N`` for the step
    count of a run that hit its cap N."""
    capped = row[_STOP_COLUMN] == StopReason.ITERATION_CAP.value
    cells = []
    for column, value in zip(BENCH_COLUMNS, row):
        if value is None:
            cells.append("")
        elif column == "iterations" and capped:
            cells.append(f">{value}")
        else:
            cells.append(_CELL_FORMATS.get(column, "{}").format(value))
    return cells


def _run_text(label: str, report: SolverReport,
              instance: ProblemInstance) -> str:
    config = report.config
    cell = dict(zip(BENCH_COLUMNS, _cells(_run_row(label, report, instance))))
    lines = [
        f"source               {label}",
        f"regime               {config.regime.value}",
        f"policy               {config.policy.value}",
        f"epsilon              {config.epsilon:g}",
        f"stop reason          {report.stop_reason.value}",
        f"iterations           {cell['iterations']}",
        f"productive steps     {report.productive_count}",
        f"nonproductive steps  {report.nonproductive_count}",
        f"output objective     {report.output_objective:.6e}",
    ]
    if cell["objective_gap"]:
        lines.append(f"objective gap        {cell['objective_gap']}")
    lines.append(f"max violation        {cell['max_violation']}")
    bound = report.a_priori_bound
    lines.append(f"a priori bound       "
                 f"{bound if bound is not None else 'unknown'}")
    lines.append(_progress_line(report))
    lines.append(f"wall time            {cell['time_s']} s")
    lines.append("constraint residuals")
    values = instance.constraint_bank().values(report.output_point)
    for m, value in enumerate(values, start=1):
        lines.append(f"  {m:4d}  {value:+.6e}")
    return "\n".join(lines) + "\n"


def _progress_line(report: SolverReport) -> str:
    return (f"progress             {report.progress:.6g} "
            f"(criterion sum {report.crit_sum:.6e} of {report.stop_target:.6e})")


def _progress(report: SolverReport) -> dict[str, Any]:
    """The stopping rule's sum, its target and their ratio, JSON-ready."""
    return {name: _jsonable(getattr(report, name))
            for name in ("crit_sum", "stop_target", "progress")}


def _cmd_run(args: argparse.Namespace) -> int:
    label, example, report = _solve(args, record_history=args.history)
    if args.format == "json":
        payload = {**_jsonable(report), "progress": _jsonable(report.progress)}
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        text = _csv_text(BENCH_COLUMNS,
                         [_cells(_run_row(label, report, example.instance))])
    else:
        text = _run_text(label, report, example.instance)
    _emit(text, args.output)
    return 0 if report.converged else 1


def _verification_cell(report: SolverReport, example: BenchmarkExample) -> str:
    converged, *checks = verify_example(report, example).checks
    if not converged.passed:
        return "n/a"
    failed = [c.name for c in checks if not c.passed]
    return "ok" if not failed else "fail:" + ",".join(failed)


def _cmd_bench(args: argparse.Namespace) -> int:
    rows: list[list[Any]] = []
    verifications: list[str] = []
    for example_id in args.examples:
        example = build_example(example_id)
        geometry = default_geometry(example)
        for regime, policy in _BENCH_CELLS:
            config = RunConfig(
                epsilon=example.settings.epsilon,
                regime=regime,
                policy=policy,
                max_iterations=args.max_iter,
            )
            try:
                report = run(example.instance, geometry, config)
            except (EvaluationError, ValueError) as exc:
                print(f"mirropt: example {example_id} {regime.value} "
                      f"{policy.value}: {exc}", file=sys.stderr)
                rows.append([example_id, regime.value, policy.value,
                             None, None, None, None, None, "error", None, None, None])
                verifications.append("error")
                continue
            rows.append(_run_row(example_id, report, example.instance))
            verifications.append(_verification_cell(report, example))

    if args.format == "json":
        items = [dict(zip(BENCH_COLUMNS, _jsonable(row))) for row in rows]
        text = json.dumps(items, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        text = _csv_text(BENCH_COLUMNS, [_cells(row) for row in rows])
    else:
        text = _table_text(BENCH_COLUMNS + ("verification",),
                           [_cells(row) + [v] for row, v in zip(rows, verifications)])
    _emit(text, args.output)
    return 1 if "error" in verifications else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    label, example, report = _solve(args)
    result = verify_example(report, example)
    if args.format == "json":
        payload = {**_jsonable(result), "all_passed": result.all_passed,
                   **_progress(report)}
        text = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    elif args.format == "csv":
        text = _csv_text(("check", "passed", "detail"),
                         [[c.name, str(c.passed).lower(), c.detail]
                          for c in result.checks])
    else:
        lines = [f"source               {label}",
                 f"regime               {report.config.regime.value}",
                 f"policy               {report.config.policy.value}",
                 _progress_line(report)]
        for c in result.checks:
            lines.append(f"{c.name:20s} {'pass' if c.passed else 'FAIL'}  {c.detail}")
        lines.append(f"{'result':20s} {'pass' if result.all_passed else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
