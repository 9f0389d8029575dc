"""Problem-definition files.

A problem file is a JSON document with the fixed field names ``dimension``,
``objective``, ``constraints``, ``x0``, ``theta0``, ``epsilon`` and the
optional ``known_optimum`` and ``geometry``::

    {
      "dimension": 2,
      "objective": {"kind": "affine", "parameters": {"a": [1.0, 1.0]}},
      "constraints": [
        {"kind": "affine", "parameters": {"a": [1.0, 0.0], "b": -1.0}},
        {"kind": "affine", "parameters": {"a": [0.0, 1.0], "b": -1.0}}
      ],
      "x0": [0.0, 0.0],
      "theta0": 2.0,
      "epsilon": 0.1,
      "known_optimum": {"point": [-1.41421356, -1.41421356],
                        "value": -2.8284271247461903},
      "geometry": {"kind": "ball", "center": [0.0, 0.0], "radius": 2.0}
    }

Oracle nodes name a ``kind`` from ``_ORACLES``, the one list of oracle
kinds, with ``parameters`` named after the class's constructor arguments;
the first parameter is required, the others take the constructor default.
``lipschitz_value`` / ``lipschitz_gradient`` may be supplied (finite and
nonnegative) and are otherwise derived where a closed form exists.  ``geometry``
defaults to the unconstrained Euclidean space anchored at ``x0``; the
``simplex`` kind starts from its uniform anchor, which a written file gives as
``x0``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .geometry import (
    Array,
    EntropySimplex,
    EuclideanBall,
    EuclideanSpace,
    ProxGeometry,
    as_vector,
)
from .problems import (
    AbsAffinePlusOracle,
    AffineOracle,
    MaxOracle,
    Oracle,
    ProblemInstance,
    QuadraticOracle,
    SqrtQuadraticOracle,
)

__all__ = [
    "ProblemFileError",
    "ProblemDocument",
    "parse_problem",
    "load_problem",
    "problem_to_mapping",
    "dump_problem",
]


class ProblemFileError(ValueError):
    """A problem file could not be parsed or validated."""


_REQUIRED_FIELDS = ("dimension", "objective", "constraints", "x0", "theta0",
                    "epsilon")
_OPTIONAL_FIELDS = ("known_optimum", "geometry")

# Oracle kind -> (class, parameter names).  The names are both the
# constructor arguments and the attributes written back out; a "children"
# parameter holds a list of oracle nodes.
_ORACLES: dict[str, tuple[type[Oracle], tuple[str, ...]]] = {
    "affine": (AffineOracle, ("a", "b")),
    "quadratic": (QuadraticOracle, ("A", "b", "alpha")),
    "sqrt_quadratic": (SqrtQuadraticOracle, ("Q", "scale")),
    "abs_affine_plus": (AbsAffinePlusOracle, ("a", "shift", "scale")),
    "max_of": (MaxOracle, ("children",)),
}
_METADATA = ("lipschitz_value", "lipschitz_gradient")
_GEOMETRY_KINDS = ("euclidean", "ball", "simplex")


@dataclass(frozen=True)
class ProblemDocument:
    """A parsed problem file; ``geometry`` holds its start point and theta0."""

    instance: ProblemInstance
    epsilon: float
    geometry: ProxGeometry


def _fail(message: str) -> None:
    raise ProblemFileError(message)


def _get(data: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in data:
        _fail(f"{where}: missing required field {key!r}")
    return data[key]


def _check_keys(data: Mapping[str, Any], allowed: tuple[str, ...],
                where: str) -> None:
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        _fail(f"{where}: unknown field(s) {', '.join(map(repr, unknown))}")


def _number(value: Any, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(f"{where}: expected a number, got {type(value).__name__}")
    return float(value)


def _oracle_from_node(node: Any, where: str) -> Oracle:
    if not isinstance(node, Mapping):
        _fail(f"{where}: expected an object with 'kind' and 'parameters'")
    _check_keys(node, ("kind", "parameters") + _METADATA, where)
    kind = _get(node, "kind", where)
    if not isinstance(kind, str) or kind not in _ORACLES:
        _fail(f"{where}: unknown oracle kind {kind!r} "
              f"(expected one of {', '.join(_ORACLES)})")
    cls, names = _ORACLES[kind]
    params = node.get("parameters", {})
    if not isinstance(params, Mapping):
        _fail(f"{where}: 'parameters' must be an object")
    _check_keys(params, names, where)
    _get(params, names[0], where)  # the one parameter without a default
    params = dict(params)
    if "children" in params:
        children = params["children"]
        if not isinstance(children, list) or not children:
            _fail(f"{where}: 'children' must be a non-empty list")
        params["children"] = [_oracle_from_node(c, f"{where}.children[{i}]")
                              for i, c in enumerate(children)]
    meta = {}
    for key in _METADATA:
        if node.get(key) is not None:
            value = _number(node[key], f"{where}.{key}")
            if not (math.isfinite(value) and value >= 0.0):
                _fail(f"{where}.{key}: must be finite and nonnegative")
            meta[key] = value
    try:
        return cls(**params, **meta)
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(f"{where}: {exc}") from exc


def _geometry_from_node(node: Any, x0: Array, theta0: float,
                        dimension: int) -> ProxGeometry:
    if node is None:
        return EuclideanSpace(x0, theta0)
    if not isinstance(node, Mapping):
        _fail("geometry: expected an object with 'kind'")
    kind = _get(node, "kind", "geometry")
    if kind not in _GEOMETRY_KINDS:
        _fail(f"geometry: unknown kind {kind!r} "
              f"(expected one of {', '.join(_GEOMETRY_KINDS)})")
    try:
        if kind == "euclidean":
            _check_keys(node, ("kind",), "geometry")
            return EuclideanSpace(x0, theta0)
        if kind == "ball":
            _check_keys(node, ("kind", "center", "radius"), "geometry")
            center = _get(node, "center", "geometry")
            radius = _number(_get(node, "radius", "geometry"),
                             "geometry.radius")
            return EuclideanBall(center, radius, theta0, anchor=x0)
        _check_keys(node, ("kind",), "geometry")
        return EntropySimplex(dimension, theta0)
    except ProblemFileError:
        raise
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(f"geometry: {exc}") from exc


def parse_problem(data: Mapping[str, Any]) -> ProblemDocument:
    """Build a :class:`ProblemDocument` from a decoded problem mapping.

    Raises
    ------
    ProblemFileError
        On any missing, unknown or invalid field, including dimension
        mismatches and an infeasible declared optimum.
    """
    if not isinstance(data, Mapping):
        _fail("problem file must contain a JSON object")
    _check_keys(data, _REQUIRED_FIELDS + _OPTIONAL_FIELDS, "problem")

    dimension = _get(data, "dimension", "problem")
    if isinstance(dimension, bool) or not isinstance(dimension, int):
        _fail("problem.dimension: expected an integer")
    if dimension < 1:
        _fail("problem.dimension: must be at least 1")

    theta0 = _number(_get(data, "theta0", "problem"), "problem.theta0")
    epsilon = _number(_get(data, "epsilon", "problem"), "problem.epsilon")
    if not (np.isfinite(theta0) and theta0 > 0.0):
        _fail("problem.theta0: must be finite and positive")
    if not (np.isfinite(epsilon) and epsilon > 0.0):
        _fail("problem.epsilon: must be finite and positive")

    objective = _oracle_from_node(_get(data, "objective", "problem"),
                                  "objective")
    raw_constraints = _get(data, "constraints", "problem")
    if not isinstance(raw_constraints, list) or not raw_constraints:
        _fail("problem.constraints: expected a non-empty list")
    constraints = [
        _oracle_from_node(node, f"constraints[{m}]")
        for m, node in enumerate(raw_constraints)
    ]

    known_optimum = None
    raw_opt = data.get("known_optimum")
    if raw_opt is not None:
        if not isinstance(raw_opt, Mapping):
            _fail("known_optimum: expected an object with 'point' and 'value'")
        _check_keys(raw_opt, ("point", "value"), "known_optimum")
        known_optimum = (
            _get(raw_opt, "point", "known_optimum"),
            _number(_get(raw_opt, "value", "known_optimum"),
                    "known_optimum.value"),
        )

    try:
        x0 = as_vector(_get(data, "x0", "problem"), dimension, "x0")
        instance = ProblemInstance(
            dimension=dimension,
            objective=objective,
            constraints=constraints,
            known_optimum=known_optimum,
        )
        geometry = _geometry_from_node(data.get("geometry"), x0, theta0,
                                       dimension)
    except ProblemFileError:
        raise
    except (ValueError, TypeError) as exc:
        raise ProblemFileError(f"problem: {exc}") from exc

    return ProblemDocument(instance=instance, epsilon=float(epsilon),
                           geometry=geometry)


def load_problem(path: str | Path) -> ProblemDocument:
    """Read and parse a problem file.

    Raises
    ------
    ProblemFileError
        If the file is not valid JSON or fails :func:`parse_problem`.
    OSError
        If the file cannot be read.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: not valid JSON: {exc}") from exc
    return parse_problem(data)


def _oracle_to_node(oracle: Oracle) -> dict[str, Any]:
    for kind, (cls, names) in _ORACLES.items():
        if isinstance(oracle, cls):
            break
    else:
        raise ProblemFileError(
            f"cannot serialize oracle type {type(oracle).__name__}")
    params: dict[str, Any] = {}
    for name in names:
        value = getattr(oracle, name)
        if name == "children":
            value = [_oracle_to_node(c) for c in value]
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        params[name] = value
    node: dict[str, Any] = {"kind": kind, "parameters": params}
    for key in _METADATA:
        value = getattr(oracle, key)
        if value is not None:
            node[key] = float(value)
    return node


def _geometry_to_node(geometry: ProxGeometry) -> dict[str, Any] | None:
    if isinstance(geometry, EuclideanBall):
        return {"kind": "ball", "center": geometry.center.tolist(),
                "radius": geometry.radius}
    if isinstance(geometry, EntropySimplex):
        return {"kind": "simplex"}
    if isinstance(geometry, EuclideanSpace):
        return None
    raise ProblemFileError(
        f"cannot serialize geometry type {type(geometry).__name__}")


def problem_to_mapping(document: ProblemDocument) -> dict[str, Any]:
    """The JSON-ready mapping for a document (inverse of parse_problem)."""
    instance, geometry = document.instance, document.geometry
    data: dict[str, Any] = {
        "dimension": instance.dimension,
        "objective": _oracle_to_node(instance.objective),
        "constraints": [_oracle_to_node(c) for c in instance.constraints],
        "x0": geometry.anchor.tolist(),
        "theta0": geometry.theta0,
        "epsilon": document.epsilon,
    }
    if instance.known_optimum is not None:
        point, value = instance.known_optimum
        data["known_optimum"] = {"point": point.tolist(), "value": value}
    node = _geometry_to_node(geometry)
    if node is not None:
        data["geometry"] = node
    return data


def dump_problem(document: ProblemDocument, path: str | Path) -> None:
    """Write a document as a problem file."""
    text = json.dumps(problem_to_mapping(document), indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")
