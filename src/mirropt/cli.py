"""Command-line front end.

Three subcommands drive the solver::

    mirropt run    --example 1 --regime lipschitz --policy first-violated
    mirropt run    --problem-file disk2d.prob --format json
    mirropt bench  --examples 1 4 --format csv --output table.csv
    mirropt verify --example 2 --regime nonstandard --policy first-violated

``run`` solves one problem and reports the outcome (exit 0 when the run
converged, 1 when it did not, 2 on usage or parse errors).  ``bench`` runs
the four regime/policy configurations per selected built-in example and
prints a comparison table; iteration cells show ``>cap`` when the cap was
hit.  ``verify`` re-checks the convergence guarantees on one configuration
and exits 0 only if every applicable check passes.
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
from .geometry import ProxGeometry
from .probfile import (
    ProblemFileError,
    load_problem,
    parse_problem,
    problem_to_mapping,
)
from .problems import EvaluationError, ProblemInstance
from .solver import Policy, Regime, RunConfig, SolverReport, StopReason, run

__all__ = ["main", "build_parser"]

BENCH_COLUMNS = ("example", "regime", "policy", "iterations", "productive",
                 "time_s", "objective_gap", "max_violation", "stop_reason")

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
            p.add_argument("--policy", choices=[p_.value for p_ in Policy],
                           default=Policy.FIRST_VIOLATED.value)
            p.add_argument("--epsilon", type=float, default=None,
                           help="override the problem's target accuracy")
            p.add_argument("--theta0", type=float, default=None,
                           help="override the prox radius")
        p.add_argument("--max-iter", type=int, default=10_000_000,
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


@dataclasses.dataclass
class _Target:
    """One resolved problem source with its effective settings."""

    label: str
    example: BenchmarkExample
    geometry: ProxGeometry


def _resolve_target(args: argparse.Namespace) -> _Target:
    overrides = {name: getattr(args, name) for name in ("theta0", "epsilon")
                 if getattr(args, name) is not None}
    if args.example is not None:
        example = build_example(args.example)
        example = dataclasses.replace(
            example, settings=dataclasses.replace(example.settings, **overrides))
        return _Target(label=str(args.example), example=example,
                       geometry=default_geometry(example))

    document = load_problem(args.problem_file)
    if overrides:
        # Re-parse so the file's geometry is rebuilt with the overrides.
        document = parse_problem({**problem_to_mapping(document), **overrides})
    example = BenchmarkExample(
        example_id=0,
        instance=document.instance,
        settings=ExperimentSettings(x0=document.x0, theta0=document.theta0,
                                    epsilon=document.epsilon),
    )
    return _Target(label=Path(args.problem_file).stem, example=example,
                   geometry=document.geometry)


def _jsonable(obj: Any) -> Any:
    """JSON-ready copy of a result: dataclasses by field, enums by value."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [_jsonable(item) for item in obj]
    return obj


def _iterations_cell(report: SolverReport) -> str:
    if report.stop_reason is StopReason.ITERATION_CAP:
        return f">{report.config.max_iterations}"
    return str(report.total_steps)


def _gap(report: SolverReport, instance: ProblemInstance) -> float | None:
    if instance.known_optimum is None:
        return None
    return report.output_objective - instance.known_optimum[1]


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


def _run_row(label: str, report: SolverReport,
             instance: ProblemInstance) -> list[Any]:
    gap = _gap(report, instance)
    return [
        label,
        report.config.regime.value,
        report.config.policy.value,
        _iterations_cell(report),
        report.productive_count,
        f"{report.wall_time:.3f}",
        "" if gap is None else f"{gap:.6e}",
        f"{report.output_max_violation:.6e}",
        report.stop_reason.value,
    ]


def _run_text(label: str, report: SolverReport,
              instance: ProblemInstance) -> str:
    config = report.config
    lines = [
        f"source               {label}",
        f"regime               {config.regime.value}",
        f"policy               {config.policy.value}",
        f"epsilon              {config.epsilon:g}",
        f"stop reason          {report.stop_reason.value}",
        f"iterations           {_iterations_cell(report)}",
        f"productive steps     {report.productive_count}",
        f"nonproductive steps  {report.nonproductive_count}",
        f"output objective     {report.output_objective:.6e}",
    ]
    gap = _gap(report, instance)
    if gap is not None:
        lines.append(f"objective gap        {gap:.6e}")
    lines.append(f"max violation        {report.output_max_violation:.6e}")
    bound = report.a_priori_bound
    lines.append(f"a priori bound       "
                 f"{bound if bound is not None else 'unknown'}")
    lines.append(f"wall time            {report.wall_time:.3f} s")
    lines.append("constraint residuals")
    values = instance.constraint_bank().values(report.output_point)
    for m, value in enumerate(values, start=1):
        lines.append(f"  {m:4d}  {value:+.6e}")
    return "\n".join(lines) + "\n"


def _cmd_run(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    example = target.example
    config = RunConfig(
        epsilon=example.settings.epsilon,
        regime=Regime(args.regime),
        policy=Policy(args.policy),
        max_iterations=args.max_iter,
        record_history=args.history,
    )
    report = run(example.instance, target.geometry, config)

    if args.format == "json":
        text = json.dumps(_jsonable(report), indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_text(BENCH_COLUMNS,
                         [_run_row(target.label, report, example.instance)])
    else:
        text = _run_text(target.label, report, example.instance)
    _emit(text, args.output)
    return 0 if report.converged else 1


def _verification_cell(report: SolverReport, example: BenchmarkExample) -> str:
    try:
        result = verify_example(report, example)
    except ValueError:
        return "error"
    if not result.criterion_met:
        return "n/a"
    failed = [c.name for c in result.checks if not c.passed]
    return "ok" if not failed else "fail:" + ",".join(failed)


def _cmd_bench(args: argparse.Namespace) -> int:
    rows: list[Sequence[Any]] = []
    verifications: list[str] = []
    failures = 0
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
                             "", "", "", "", "", "error"])
                verifications.append("error")
                failures += 1
                continue
            rows.append(_run_row(str(example_id), report, example.instance))
            verifications.append(_verification_cell(report, example))

    if args.format == "json":
        items = [dict(zip(BENCH_COLUMNS, row)) for row in rows]
        text = json.dumps(items, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_text(BENCH_COLUMNS, rows)
    else:
        header = BENCH_COLUMNS + ("verification",)
        text = _table_text(header,
                           [list(r) + [v] for r, v in zip(rows, verifications)])
    _emit(text, args.output)
    return 1 if failures else 0


def _cmd_verify(args: argparse.Namespace) -> int:
    target = _resolve_target(args)
    example = target.example
    config = RunConfig(
        epsilon=example.settings.epsilon,
        regime=Regime(args.regime),
        policy=Policy(args.policy),
        max_iterations=args.max_iter,
    )
    report = run(example.instance, target.geometry, config)
    result = verify_example(report, example)

    check_rows = [("converged", result.criterion_met,
                   report.stop_reason.value)]
    check_rows += [(c.name, c.passed, c.detail) for c in result.checks]

    if args.format == "json":
        payload = {**_jsonable(result), "all_passed": result.all_passed}
        text = json.dumps(payload, indent=2) + "\n"
    elif args.format == "csv":
        text = _csv_text(("check", "passed", "detail"),
                         [[name, str(passed).lower(), detail]
                          for name, passed, detail in check_rows])
    else:
        lines = [f"source               {target.label}",
                 f"regime               {config.regime.value}",
                 f"policy               {config.policy.value}"]
        for name, passed, detail in check_rows:
            status = "pass" if passed else "FAIL"
            lines.append(f"{name:20s} {status}  {detail}")
        lines.append(f"{'result':20s} "
                     f"{'pass' if result.all_passed else 'FAIL'}")
        text = "\n".join(lines) + "\n"
    _emit(text, args.output)
    return 0 if result.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
