"""Unit tests for reading and writing problem-definition files."""

import copy
import json
import math

import numpy as np
import pytest

from mirropt import (
    AffineOracle,
    EntropySimplex,
    EuclideanBall,
    EuclideanSpace,
    MaxOracle,
    ProblemFileError,
    QuadraticOracle,
    RunConfig,
    dump_problem,
    load_problem,
    parse_problem,
    problem_to_mapping,
    run,
)


def disk_mapping():
    return {
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


def test_parse_disk_problem():
    document = parse_problem(disk_mapping())
    assert document.instance.dimension == 2
    assert isinstance(document.instance.objective, AffineOracle)
    assert document.instance.n_constraints == 2
    assert np.array_equal(document.geometry.anchor, np.zeros(2))
    assert document.geometry.theta0 == 2.0
    assert document.epsilon == 0.1
    assert isinstance(document.geometry, EuclideanBall)
    assert document.geometry.radius == 2.0
    assert document.instance.known_optimum[1] == -2.0 * math.sqrt(2.0)


def test_geometry_defaults_to_euclidean_anchored_at_x0():
    mapping = disk_mapping()
    del mapping["geometry"]
    document = parse_problem(mapping)
    assert isinstance(document.geometry, EuclideanSpace)
    assert np.array_equal(document.geometry.anchor, np.zeros(2))
    assert document.geometry.theta0 == 2.0


def test_simplex_geometry_uses_uniform_anchor():
    mapping = {
        "dimension": 2,
        "objective": {"kind": "affine", "parameters": {"a": [1.0, 2.0]}},
        "constraints": [
            {"kind": "affine", "parameters": {"a": [1.0, 0.0], "b": -2.0}}
        ],
        "x0": [1.0, 0.0],
        "theta0": 1.0,
        "epsilon": 0.05,
        "geometry": {"kind": "simplex"},
    }
    document = parse_problem(mapping)
    assert isinstance(document.geometry, EntropySimplex)
    assert np.array_equal(document.geometry.anchor, np.array([0.5, 0.5]))
    # a written file gives the point the run starts from
    assert problem_to_mapping(document)["x0"] == [0.5, 0.5]


def test_round_trip_through_file(tmp_path):
    document = parse_problem(disk_mapping())
    path = tmp_path / "disk.prob"
    dump_problem(document, path)
    reloaded = load_problem(path)

    # serialized form is a fixed point once derived metadata is materialized
    assert problem_to_mapping(document) == problem_to_mapping(reloaded)

    # both documents drive the solver to bitwise-identical outputs
    config = RunConfig(0.1)
    first = run(document.instance, document.geometry, config)
    second = run(reloaded.instance, reloaded.geometry, config)
    assert first.total_steps == second.total_steps
    assert np.array_equal(first.output_point, second.output_point)
    assert first.output_objective == second.output_objective


def test_round_trip_preserves_all_oracle_kinds(tmp_path):
    mapping = {
        "dimension": 2,
        "objective": {
            "kind": "max_of",
            "parameters": {
                "children": [
                    {"kind": "quadratic",
                     "parameters": {"A": [[2.0, 0.0], [0.0, 2.0]],
                                    "b": [1.0, 0.0], "alpha": 0.5}},
                    {"kind": "sqrt_quadratic",
                     "parameters": {"Q": [[1.0, 0.0], [0.0, 4.0]],
                                    "scale": 0.5}},
                    {"kind": "abs_affine_plus",
                     "parameters": {"a": [1.0, -1.0], "shift": 0.2,
                                    "scale": 2.0}},
                ]
            },
        },
        "constraints": [
            {"kind": "affine", "parameters": {"a": [1.0, 1.0], "b": -4.0}}
        ],
        "x0": [0.0, 0.0],
        "theta0": 1.5,
        "epsilon": 0.05,
    }
    document = parse_problem(mapping)
    assert isinstance(document.instance.objective, MaxOracle)
    path = tmp_path / "mixed.prob"
    dump_problem(document, path)
    reloaded = load_problem(path)
    x = np.array([0.7, -0.3])
    assert document.instance.objective.value(x) == reloaded.instance.objective.value(x)
    assert np.array_equal(
        document.instance.objective.subgradient(x),
        reloaded.instance.objective.subgradient(x),
    )


@pytest.mark.parametrize("node", [
    {"kind": "sqrt_quadratic", "parameters": {"Q": [[-1e-17]]}},
    {"kind": "quadratic", "parameters": {"A": [[-1e-17]]}},
    {"kind": "affine", "parameters": {"a": [1e200]}},
], ids=["sqrt-negative-eigenvalue", "quadratic-negative-eigenvalue",
        "affine-overflow"])
def test_derived_metadata_round_trips(node):
    # Derived bounds obey the rule parse_problem applies to supplied ones,
    # so a written document reads back.
    mapping = {
        "dimension": 1,
        "objective": node,
        "constraints": [{"kind": "affine", "parameters": {"a": [1.0], "b": -1.0}}],
        "x0": [0.0],
        "theta0": 1.0,
        "epsilon": 0.1,
    }
    written = problem_to_mapping(parse_problem(mapping))
    assert problem_to_mapping(parse_problem(written)) == written


def test_explicit_lipschitz_metadata_passthrough():
    mapping = disk_mapping()
    mapping["objective"]["lipschitz_value"] = 9.0
    document = parse_problem(mapping)
    assert document.instance.objective.lipschitz_value == 9.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -5.0])
@pytest.mark.parametrize("field", ["lipschitz_value", "lipschitz_gradient"])
def test_lipschitz_metadata_must_be_finite_and_nonnegative(field, bad):
    mapping = disk_mapping()
    mapping["constraints"][1][field] = bad
    # json writes NaN and Infinity tokens and reads them back
    mapping = json.loads(json.dumps(mapping))
    with pytest.raises(ProblemFileError, match=rf"constraints\[1\]\.{field}"):
        parse_problem(mapping)


def test_zero_lipschitz_metadata_is_legal():
    mapping = disk_mapping()
    mapping["constraints"][0]["lipschitz_gradient"] = 0.0
    mapping["objective"]["lipschitz_value"] = 0.0
    document = parse_problem(mapping)
    assert document.instance.constraints[0].lipschitz_gradient == 0.0
    assert document.instance.objective.lipschitz_value == 0.0


def test_affine_metadata_derived_when_omitted():
    document = parse_problem(disk_mapping())
    assert document.instance.objective.lipschitz_value == math.sqrt(2.0)


def test_affine_b_defaults_to_zero():
    document = parse_problem(disk_mapping())
    assert document.instance.objective.b == 0.0


def test_problem_file_error_is_value_error():
    assert issubclass(ProblemFileError, ValueError)


@pytest.mark.parametrize("field", ["dimension", "objective", "constraints",
                                   "x0", "theta0", "epsilon"])
def test_missing_required_field(field):
    mapping = disk_mapping()
    del mapping[field]
    with pytest.raises(ProblemFileError, match="missing required field"):
        parse_problem(mapping)


def test_unknown_top_level_field():
    mapping = disk_mapping()
    mapping["solver"] = "fast"
    with pytest.raises(ProblemFileError, match="unknown field"):
        parse_problem(mapping)


def test_unknown_oracle_kind():
    mapping = disk_mapping()
    mapping["objective"] = {"kind": "cubic", "parameters": {}}
    with pytest.raises(ProblemFileError, match="unknown oracle kind"):
        parse_problem(mapping)


def test_unknown_oracle_parameter():
    mapping = disk_mapping()
    mapping["objective"]["parameters"]["c"] = 1.0
    with pytest.raises(ProblemFileError, match="unknown field"):
        parse_problem(mapping)


@pytest.mark.parametrize("bad", [2.0, "2", True, None])
def test_dimension_must_be_integer(bad):
    mapping = disk_mapping()
    mapping["dimension"] = bad
    with pytest.raises(ProblemFileError):
        parse_problem(mapping)


def test_dimension_must_be_positive():
    mapping = disk_mapping()
    mapping["dimension"] = 0
    with pytest.raises(ProblemFileError, match="at least 1"):
        parse_problem(mapping)


@pytest.mark.parametrize("field,value", [("theta0", 0.0), ("theta0", -1.0),
                                         ("epsilon", 0.0), ("epsilon", "big")])
def test_settings_must_be_positive_numbers(field, value):
    mapping = disk_mapping()
    mapping[field] = value
    with pytest.raises(ProblemFileError):
        parse_problem(mapping)


def test_constraints_must_be_nonempty_list():
    mapping = disk_mapping()
    mapping["constraints"] = []
    with pytest.raises(ProblemFileError, match="non-empty"):
        parse_problem(mapping)
    mapping["constraints"] = "none"
    with pytest.raises(ProblemFileError):
        parse_problem(mapping)


def test_x0_dimension_mismatch():
    mapping = disk_mapping()
    mapping["x0"] = [0.0, 0.0, 0.0]
    with pytest.raises(ProblemFileError):
        parse_problem(mapping)


def test_known_optimum_requires_point_and_value():
    mapping = disk_mapping()
    mapping["known_optimum"] = {"point": [0.0, 0.0]}
    with pytest.raises(ProblemFileError, match="missing required field"):
        parse_problem(mapping)


def test_known_optimum_must_be_feasible():
    mapping = disk_mapping()
    mapping["known_optimum"] = {"point": [2.0, 0.0], "value": 2.0}
    with pytest.raises(ProblemFileError, match="violates"):
        parse_problem(mapping)


def test_quadratic_matrix_validated():
    mapping = disk_mapping()
    mapping["objective"] = {
        "kind": "quadratic",
        "parameters": {"A": [[1.0, 2.0], [0.0, 1.0]]},
    }
    with pytest.raises(ProblemFileError, match="symmetric"):
        parse_problem(mapping)


def test_max_of_requires_children():
    mapping = disk_mapping()
    mapping["objective"] = {"kind": "max_of", "parameters": {"children": []}}
    with pytest.raises(ProblemFileError, match="non-empty"):
        parse_problem(mapping)


def test_geometry_unknown_kind():
    mapping = disk_mapping()
    mapping["geometry"] = {"kind": "box"}
    with pytest.raises(ProblemFileError, match="unknown kind"):
        parse_problem(mapping)


def test_geometry_ball_rejects_anchor_outside():
    mapping = disk_mapping()
    mapping["x0"] = [5.0, 0.0]
    with pytest.raises(ProblemFileError, match="anchor"):
        parse_problem(mapping)


def test_load_problem_rejects_invalid_json(tmp_path):
    path = tmp_path / "broken.prob"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ProblemFileError, match="not valid JSON"):
        load_problem(path)


def test_load_problem_missing_file(tmp_path):
    with pytest.raises(OSError):
        load_problem(tmp_path / "absent.prob")


def test_parse_problem_rejects_non_mapping():
    with pytest.raises(ProblemFileError):
        parse_problem([1, 2, 3])
