"""Scenario configuration: a single JSON document per experiment.

A scenario names its sets, a common anchor point w with a locality radius
delta, the operator cycle, a start point, budgets, a mandatory seed, and an
ordered list of requested analyses.  Validation is strict and error messages
carry the offending key path; serialization is canonical so that
serialize(parse(config)) is a fixed point.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .errors import ConfigError, at_key, check_int, check_keys, check_positive
from .intersection import IntersectionHandle
from .intersection import exact as exact_intersection
from .intersection import oracle as oracle_intersection
from .operators import CyclicTuple, operator_from_config, operator_to_config
from .sets import set_from_config

MAX_DIMENSION = 16

# Top-level keys of a scenario; all but the last two are required.
_KEYS = ("name", "dimension", "seed", "sets", "intersection", "anchor", "delta",
         "operators", "x0", "max_cycles", "tol", "analyses", "expected")


@dataclass(frozen=True, eq=False)
class Scenario:
    """A validated scenario configuration."""

    name: str
    dimension: int
    sets: tuple
    intersection: IntersectionHandle
    anchor: np.ndarray
    delta: float
    operators: CyclicTuple
    x0: np.ndarray
    max_cycles: int
    tol: float
    seed: int
    analyses: tuple = field(default=())
    expected: dict = field(default_factory=dict)


def _vector(value, dim, path):
    try:
        v = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: not a numeric vector") from exc
    if v.ndim != 1 or v.size != dim:
        raise ConfigError(f"{path}: expected a vector of length {dim}")
    if not np.all(np.isfinite(v)):
        raise ConfigError(f"{path}: entries must be finite")
    return v


def scenario_from_config(cfg: dict) -> Scenario:
    """Validate a raw config dict into a Scenario (ConfigError on any defect)."""
    from .cli import check_analysis  # the analysis table; cli imports this module

    if not isinstance(cfg, dict):
        raise ConfigError("scenario: top level must be a JSON object")
    check_keys(cfg, "", _KEYS, required=_KEYS[:-2])
    name = cfg["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError("name: must be a nonempty string")
    dim = check_int(cfg["dimension"], "dimension", 1, MAX_DIMENSION)
    seed = check_int(cfg["seed"], "seed", 0)

    raw_sets = cfg["sets"]
    if not isinstance(raw_sets, list) or not raw_sets:
        raise ConfigError("sets: must be a nonempty list")
    sets = []
    for i, record in enumerate(raw_sets):
        with at_key(f"sets[{i}]"):
            s = set_from_config(record)
        if s.dim != dim:
            raise ConfigError(f"sets[{i}]: dimension {s.dim} != scenario dimension {dim}")
        sets.append(s)
    sets = tuple(sets)

    raw_inter = cfg["intersection"]
    if raw_inter == "oracle":
        intersection = oracle_intersection(sets)
    else:
        with at_key("intersection"):
            descriptor = set_from_config(raw_inter)
        if descriptor.dim != dim:
            raise ConfigError(f"intersection: dimension {descriptor.dim} != {dim}")
        intersection = exact_intersection(descriptor, sets)

    anchor = _vector(cfg["anchor"], dim, "anchor")
    for i, s in enumerate(sets):
        d = s.distance(anchor)
        if d > 1e-10:
            raise ConfigError(
                f"anchor: w must belong to every set; distance to sets[{i}] is {d:.3e}")

    delta = check_positive(cfg["delta"], "delta")

    raw_ops = cfg["operators"]
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ConfigError("operators: must be a nonempty list")
    ops = []
    for i, record in enumerate(raw_ops):
        with at_key(f"operators[{i}]"):
            ops.append(operator_from_config(record, sets))
    operators = CyclicTuple(tuple(ops))

    x0 = _vector(cfg["x0"], dim, "x0")
    max_cycles = check_int(cfg["max_cycles"], "max_cycles", 1)
    tol = check_positive(cfg["tol"], "tol")

    analyses = cfg.get("analyses", [])
    if not isinstance(analyses, list):
        raise ConfigError("analyses: must be a list")
    for i, record in enumerate(analyses):
        check_analysis(record, f"analyses[{i}]")
    expected = cfg.get("expected", {})
    if not isinstance(expected, dict):
        raise ConfigError("expected: must be an object")
    check_keys(expected, "expected", ("stop_reason",))

    return Scenario(name, dim, sets, intersection, anchor, delta,
                    operators, x0, max_cycles, tol, seed,
                    tuple(dict(a) for a in analyses), dict(expected))


def scenario_to_config(sc: Scenario) -> dict:
    """Canonical (normalized) config dict for a scenario."""
    descriptor = sc.intersection.descriptor
    return {
        "name": sc.name,
        "dimension": sc.dimension,
        "sets": [s.to_config() for s in sc.sets],
        "intersection": "oracle" if descriptor is None else descriptor.to_config(),
        "anchor": [float(v) for v in sc.anchor],
        "delta": sc.delta,
        "operators": [operator_to_config(op, sc.sets) for op in sc.operators.members],
        "x0": [float(v) for v in sc.x0],
        "max_cycles": sc.max_cycles,
        "tol": sc.tol,
        "seed": sc.seed,
        "analyses": [dict(a) for a in sc.analyses],
        "expected": dict(sc.expected),
    }


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    try:
        return scenario_from_config(cfg)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_config(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_scenario_names() -> list:
    """Names of the scenarios shipped with the package, sorted."""
    names = []
    for entry in resources.files("projlab.scenarios").iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-5])
    return sorted(names)


def load_bundled(name: str) -> Scenario:
    """Load a bundled scenario by name."""
    ref = resources.files("projlab.scenarios") / f"{name}.json"
    if not ref.is_file():
        raise ConfigError(f"no bundled scenario named '{name}'")
    cfg = json.loads(ref.read_text(encoding="utf-8"))
    try:
        return scenario_from_config(cfg)
    except ConfigError as exc:
        raise ConfigError(f"bundled '{name}': {exc}") from exc
