"""End-to-end tests for the command-line interface."""

import argparse
import csv
import io
import json
import math
import shlex
from pathlib import Path

import pytest

from mirropt import Regime, RunConfig, build_example, default_geometry, iteration_bound, run
from mirropt import cli
from mirropt.cli import BENCH_COLUMNS, build_parser, main

REPORT_FIELDS = {
    "total_steps", "productive_count", "nonproductive_count", "output_point",
    "output_objective", "output_max_violation", "stop_reason",
    "a_priori_bound", "wall_time", "config", "history", "certificate",
    "crit_sum", "stop_target", "progress",
}


@pytest.fixture
def disk_file(tmp_path):
    mapping = {
        "dimension": 2,
        "objective": {"kind": "affine", "parameters": {"a": [1.0, 1.0]}},
        "constraints": [
            {"kind": "affine", "parameters": {"a": [1.0, 0.0], "b": -1.0}},
            {"kind": "affine", "parameters": {"a": [0.0, 1.0], "b": -1.0}},
        ],
        "x0": [0.0, 0.0],
        "theta0": 2.0,
        "epsilon": 0.1,
        "known_optimum": {
            "point": [-math.sqrt(2.0), -math.sqrt(2.0)],
            "value": -2.0 * math.sqrt(2.0),
        },
        "geometry": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0},
    }
    path = tmp_path / "disk2d.prob"
    path.write_text(json.dumps(mapping), encoding="utf-8")
    return str(path)


def _strict_json(text):
    """Parse a report as RFC 8259 JSON, which has no NaN or Infinity."""
    def reject(token):
        raise ValueError(f"not RFC 8259 JSON: {token}")
    return json.loads(text, parse_constant=reject)


def _csv_rows(text):
    return list(csv.reader(io.StringIO(text)))


# -------------------------------------------------------------------- usage


def test_run_requires_exactly_one_source(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run"])
    assert excinfo.value.code == 2
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--example", "1", "--problem-file", "x.prob"])
    assert excinfo.value.code == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def _documented_commands():
    """Argument lists of the ``mirropt`` lines in the README's CLI block and
    in the cli module docstring."""
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.splitlines() + cli.__doc__.splitlines()
    return [shlex.split(line)[1:] for line in lines
            if line.strip().startswith("mirropt ")]


def test_documented_commands_use_exact_option_strings():
    parser = build_parser()
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    commands = _documented_commands()
    assert len(commands) >= 8
    for argv in commands:
        parser.parse_args(argv)
        options = subcommands.choices[argv[0]]._option_string_actions
        flags = [token for token in argv if token.startswith("--")]
        assert all(flag in options for flag in flags), argv


def test_documented_commands_run(tmp_path, monkeypatch):
    # The files the documented lines name get the README's problem file.
    problem = README.read_text(encoding="utf-8").split("```json", 1)[1]
    problem = problem.split("```", 1)[0]
    for name in ("problem.json", "disk2d.prob"):
        (tmp_path / name).write_text(problem, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    for argv in _documented_commands():
        assert main(argv + ["--max-iter", "200"]) in (0, 1), argv


def test_unknown_example_id_rejected(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "--example", "9"])
    assert excinfo.value.code == 2


def test_missing_problem_file_is_reported(capsys):
    assert main(["run", "--problem-file", "/nonexistent/x.prob"]) == 2
    assert "error" in capsys.readouterr().err


def test_corrupt_problem_file_is_reported(tmp_path, capsys):
    path = tmp_path / "broken.prob"
    path.write_text("{oops", encoding="utf-8")
    assert main(["run", "--problem-file", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


# ---------------------------------------------------------------------- run


def test_run_problem_file_text(disk_file, capsys):
    assert main(["run", "--problem-file", disk_file]) == 0
    out = capsys.readouterr().out
    assert "criterion-met" in out
    assert "objective gap" in out
    assert "constraint residuals" in out


def test_run_json_report_fields(disk_file, capsys):
    assert main(["run", "--problem-file", disk_file, "--format", "json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert set(payload) == REPORT_FIELDS
    assert payload["stop_reason"] == "criterion-met"
    assert payload["history"] is None
    assert payload["certificate"] is None  # Lipschitz regime
    assert payload["config"]["epsilon"] == 0.1
    assert payload["config"]["regime"] == "lipschitz"
    # the solver honors the declared accuracy against the known optimum
    gap = payload["output_objective"] - (-2.0 * math.sqrt(2.0))
    assert 0.0 <= gap <= 0.1 + 1e-9
    assert payload["total_steps"] == payload["a_priori_bound"] == 1600


def test_run_json_history(disk_file, capsys):
    assert main(["run", "--problem-file", disk_file, "--format", "json",
                 "--history"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    history = payload["history"]
    assert len(history) == payload["total_steps"]
    assert {rec["kind"] for rec in history} <= {"productive", "nonproductive"}
    assert all(len(rec["point"]) == 2 for rec in history)


def test_run_json_history_of_batched_steps(capsys):
    # ex 4 L first-violated batches among its first 50 steps: one entry per
    # step, each a record of a pass over the history, built from a segment
    # where the step was batched
    assert main(["run", "--example", "4", "--max-iter", "50", "--history",
                 "--format", "json"]) == 1
    history = _strict_json(capsys.readouterr().out)["history"]
    example = build_example(4)
    config = RunConfig(example.settings.epsilon, max_iterations=50, record_history=True)
    report = run(example.instance, default_geometry(example), config)
    assert sum(1 for _ in report.history.ordinary()) < len(history) == 50
    for entry, record in zip(history, report.history, strict=True):
        assert entry == {
            "index": record.index, "kind": record.kind.value,
            "step_size": record.step_size, "grad_dual_norm": record.grad_dual_norm,
            "constraint_index": record.constraint_index,
            "objective_value": record.objective_value, "point": record.point.tolist()}


def test_run_csv_schema(disk_file, capsys):
    assert main(["run", "--problem-file", disk_file, "--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == list(BENCH_COLUMNS)
    assert len(rows) == 2
    assert rows[1][0] == "disk2d"
    assert rows[1][8] == "criterion-met"
    float(rows[1][6])  # objective gap parses as a number


def test_run_cap_renders_greater_than(capsys):
    assert main(["run", "--example", "4", "--max-iter", "10",
                 "--format", "csv"]) == 1
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[1][3] == ">10"
    assert rows[1][8] == "iteration-cap"


def test_run_output_file(disk_file, tmp_path, capsys):
    out_path = tmp_path / "report.json"
    assert main(["run", "--problem-file", disk_file, "--format", "json",
                 "--output", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    payload = _strict_json(out_path.read_text(encoding="utf-8"))
    assert set(payload) == REPORT_FIELDS


def test_run_deterministic_apart_from_wall_time(disk_file, capsys):
    main(["run", "--problem-file", disk_file, "--format", "json"])
    first = _strict_json(capsys.readouterr().out)
    main(["run", "--problem-file", disk_file, "--format", "json"])
    second = _strict_json(capsys.readouterr().out)
    first.pop("wall_time")
    second.pop("wall_time")
    assert first == second


def test_run_overrides_epsilon_and_theta0(disk_file, capsys):
    assert main(["run", "--problem-file", disk_file, "--format", "json",
                 "--epsilon", "0.2", "--theta0", "1.5"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["config"]["epsilon"] == 0.2
    # the overridden theta0 and epsilon must reach the reported bound;
    # M_f = sqrt(2) and M_g = 1 for the disk problem
    expected = iteration_bound(math.sqrt(2.0), 1.0, 1.5, 0.2, Regime.LIPSCHITZ)
    assert payload["a_priori_bound"] == expected == 226
    # the override keeps the file's radius-2 ball
    assert math.hypot(*payload["output_point"]) <= 2.0 * (1.0 + 1e-12)


def test_run_example_overrides_theta0(capsys):
    assert main(["run", "--example", "4", "--theta0", "1.0", "--max-iter", "10",
                 "--format", "json"]) == 1
    payload = _strict_json(capsys.readouterr().out)
    instance = build_example(4).instance
    m_g = max(c.lipschitz_value for c in instance.constraints)
    expected = iteration_bound(instance.objective.lipschitz_value, m_g, 1.0,
                               0.05, Regime.LIPSCHITZ)
    assert payload["a_priori_bound"] == expected


@pytest.mark.parametrize("policy", ["aggregate-max", "max-violation"])
def test_run_nonstandard_regime(disk_file, capsys, policy):
    # max-violation is parsed as a name of aggregate-max
    assert main(["run", "--problem-file", disk_file, "--format", "json",
                 "--regime", "nonstandard", "--policy", policy]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["config"]["regime"] == "nonstandard"
    assert payload["config"]["policy"] == "aggregate-max"
    assert payload["output_max_violation"] <= 0.1 + 1e-9
    # the file's known optimum gives the run a certificate
    assert math.isfinite(payload["certificate"])
    assert payload["certificate"] <= 0.1 + 1e-9


def test_run_json_without_productive_step_is_strict_json(capsys):
    # A nonstandard run with a known optimum but no productive step has no
    # finite certificate; the report says null, not the token Infinity.
    assert main(["run", "--example", "6", "--regime", "nonstandard",
                 "--policy", "min-dual-norm", "--max-iter", "300",
                 "--format", "json"]) == 1
    payload = _strict_json(capsys.readouterr().out)
    assert payload["productive_count"] == 0
    assert payload["certificate"] is None


# -------------------------------------------------------------------- bench


def test_bench_single_example_csv(capsys):
    assert main(["bench", "--examples", "4", "--max-iter", "20000",
                 "--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == list(BENCH_COLUMNS)
    assert len(rows) == 5
    # cells in table order: (L, aggregate-max), (L, first-violated), then
    # the nonstandard pair
    assert [r[1] for r in rows[1:]] == ["lipschitz", "lipschitz",
                                        "nonstandard", "nonstandard"]
    assert [r[2] for r in rows[1:]] == ["aggregate-max", "first-violated"] * 2
    # the Lipschitz first-violated cell completes in exactly 17255 steps
    assert rows[2][3] == "17255"
    assert rows[1][3] == ">20000"


def test_bench_text_includes_verification_column(capsys):
    assert main(["bench", "--examples", "4", "--max-iter", "20000"]) == 0
    out = capsys.readouterr().out
    header = out.splitlines()[0]
    assert "verification" in header
    assert "ok" in out
    assert "n/a" in out


def test_bench_empty_example_list(capsys):
    assert main(["bench", "--examples", "--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows == [list(BENCH_COLUMNS)]


def test_bench_json_items(capsys):
    assert main(["bench", "--examples", "4", "--max-iter", "5000",
                 "--format", "json"]) == 0
    items = _strict_json(capsys.readouterr().out)
    assert len(items) == 4
    assert all(set(item) == set(BENCH_COLUMNS) for item in items)
    assert all(item["example"] == 4 for item in items)


def test_bench_json_values_match_csv_cells(capsys):
    # The JSON values, formatted the way CSV cells are, equal the CSV
    # cells.  Every cell of example 4 hits the 5000-step cap.
    argv = ["bench", "--examples", "4", "--max-iter", "5000"]
    assert main(argv + ["--format", "json"]) == 0
    items = _strict_json(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)[1:]
    assert len(items) == len(rows) == 4
    formats = {"time_s": "{:.3f}", "objective_gap": "{:.6e}",
               "max_violation": "{:.6e}"}
    for item, row in zip(items, rows):
        assert type(item["example"]) is int
        assert type(item["iterations"]) is int
        assert item["stop_reason"] == "iteration-cap"
        assert item["iterations"] == 5000
        for column, cell in zip(BENCH_COLUMNS, row):
            if column == "time_s":  # two runs, two wall times
                assert cell == formats[column].format(float(cell))
                assert isinstance(item[column], float)
            elif column == "iterations":
                assert cell == f">{item[column]}"
            else:
                assert cell == formats.get(column, "{}").format(item[column])


# ------------------------------------------------------------------- verify


def test_verify_lipschitz_passes(disk_file, capsys):
    assert main(["verify", "--problem-file", disk_file]) == 0
    out = capsys.readouterr().out
    assert "objective_gap" in out
    assert "result" in out
    assert "FAIL" not in out


def test_verify_nonstandard_certificate(disk_file, capsys):
    assert main(["verify", "--problem-file", disk_file,
                 "--regime", "nonstandard", "--format", "json"]) == 0
    payload = _strict_json(capsys.readouterr().out)
    assert payload["all_passed"] is True
    names = [c["name"] for c in payload["checks"]]
    assert "vf_certificate" in names
    assert "objective_gap" not in names


@pytest.mark.parametrize("known_optimum", [False, True],
                         ids=["no-optimum", "known-optimum"])
def test_verify_records_no_history(disk_file, tmp_path, monkeypatch, capsys,
                                   known_optimum):
    path = disk_file
    if not known_optimum:
        mapping = json.loads(Path(disk_file).read_text(encoding="utf-8"))
        del mapping["known_optimum"]
        path = tmp_path / "no-optimum.prob"
        path.write_text(json.dumps(mapping), encoding="utf-8")
    configs = []
    real_run = cli.run

    def recording_run(instance, geometry, config):
        configs.append(config)
        return real_run(instance, geometry, config)

    monkeypatch.setattr(cli, "run", recording_run)
    assert main(["verify", "--problem-file", str(path),
                 "--regime", "nonstandard"]) == 0
    assert [config.record_history for config in configs] == [False]


def test_verify_built_in_example(capsys):
    assert main(["verify", "--example", "4", "--policy", "first-violated"]) == 0
    out = capsys.readouterr().out
    assert "objective_gap" in out and "pass" in out


def test_verify_csv_includes_converged_row(disk_file, capsys):
    assert main(["verify", "--problem-file", disk_file,
                 "--format", "csv"]) == 0
    rows = _csv_rows(capsys.readouterr().out)
    assert rows[0] == ["check", "passed", "detail"]
    assert rows[1][0] == "converged"
    assert rows[1][1] == "true"


def test_verify_capped_run_fails(disk_file, capsys):
    assert main(["verify", "--problem-file", disk_file,
                 "--max-iter", "10"]) == 1
    assert "FAIL" in capsys.readouterr().out
    assert main(["verify", "--problem-file", disk_file,
                 "--max-iter", "10", "--format", "json"]) == 1
    payload = _strict_json(capsys.readouterr().out)
    progress = {name: payload.pop(name) for name in ("crit_sum", "stop_target", "progress")}
    assert payload == {
        "checks": [{"name": "converged", "passed": False,
                    "detail": "iteration-cap"}],
        "all_passed": False,
    }
    assert progress["progress"] == progress["crit_sum"] / progress["stop_target"] < 1.0
