"""Scenario documents: one JSON document per experiment, parsed, validated
and executed here.

A scenario names its sets, a common anchor point w with a locality radius
delta, the operator cycle, a start point, budgets, a mandatory seed, and an
ordered list of requested analyses.  Validation is strict and error messages
carry the offending key path; serialization is canonical so that
serialize(parse(config)) is a fixed point.  `execute_scenario` runs the
trajectory and the analyses.  Its report keeps every wall-clock measurement
under keys named "timing", so reports of one seed are byte-identical once
the timing subtrees are dropped.
"""

from __future__ import annotations

import json
import math
import operator
import os
import pathlib
import time
from dataclasses import dataclass, field, fields
from importlib import resources
from typing import Callable

import numpy as np

from . import affine as affine_mod
from . import analysis as analysis_mod
from . import rates as rates_mod
from . import runner as runner_mod
from . import sets as sets_mod
from .errors import (
    ConfigError,
    at_key,
    check_count,
    check_keys,
    check_range,
    check_whole,
    table_entry,
)
from .intersection import IntersectionHandle
from .operators import (
    OPERATOR_TYPES,
    CyclicTuple,
    RelaxedProjector,
    operator_from_config,
    operator_to_config,
    operator_type,
)
from .rates import RateCertificate
from .sets import as_vector, set_from_config

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
    intersection: sets_mod.ClosedSet
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
    with at_key(path):
        return as_vector(value, dim)


def scenario_from_config(cfg: dict) -> Scenario:
    """Validate a raw config dict into a Scenario (ConfigError on any defect)."""
    if not isinstance(cfg, dict):
        raise ConfigError("scenario: top level must be a JSON object")
    check_keys(cfg, "", _KEYS, required=_KEYS[:-2])
    name = cfg["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError("name: must be a nonempty string")
    with at_key(""):
        dim = check_count("dimension", cfg["dimension"], 1)
        check_range("dimension", dim, 1, MAX_DIMENSION)
        seed = check_count("seed", cfg["seed"], 0)
        delta = check_range("delta", cfg["delta"], *analysis_mod.DELTA_RANGE)
        max_cycles = check_count("max_cycles", cfg["max_cycles"], 1)
        tol = check_range("tol", cfg["tol"], *runner_mod.TOL_RANGE)

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
        intersection = IntersectionHandle(sets)
    else:
        with at_key("intersection"):
            intersection = set_from_config(raw_inter)
        if intersection.dim != dim:
            raise ConfigError(f"intersection: dimension {intersection.dim} != {dim}")

    anchor = _vector(cfg["anchor"], dim, "anchor")
    wheres = [f"every set; distance to sets[{i}]" for i in range(len(sets))]
    for where, s in zip(wheres + ["the intersection; distance"], sets + (intersection,)):
        d = s.distance(anchor)
        if d > 1e-10:
            raise ConfigError(f"anchor: w must belong to {where} is {d:.3e}")

    raw_ops = cfg["operators"]
    if not isinstance(raw_ops, list) or not raw_ops:
        raise ConfigError("operators: must be a nonempty list")
    ops = []
    for i, record in enumerate(raw_ops):
        with at_key(f"operators[{i}]"):
            ops.append(operator_from_config(record, sets))
    operators = CyclicTuple(tuple(ops))

    x0 = _vector(cfg["x0"], dim, "x0")

    analyses = cfg.get("analyses", [])
    if not isinstance(analyses, list):
        raise ConfigError("analyses: must be a list")
    labels = set()
    for i, record in enumerate(analyses):
        check_analysis(record, f"analyses[{i}]", dim, len(sets), len(ops))
        label = _label(record, i)
        if not isinstance(label, str) or not label:
            raise ConfigError(f"analyses[{i}].label: must be a nonempty string")
        if label in labels:
            raise ConfigError(f"analyses[{i}].label: duplicate label '{label}'")
        labels.add(label)
    expected = cfg.get("expected", {})
    if not isinstance(expected, dict):
        raise ConfigError("expected: must be an object")
    check_keys(expected, "expected", ("stop_reason",))

    return Scenario(name, dim, sets, intersection, anchor, delta,
                    operators, x0, max_cycles, tol, seed,
                    tuple(dict(a) for a in analyses), dict(expected))


def scenario_to_config(sc: Scenario) -> dict:
    """Canonical (normalized) config dict for a scenario."""
    inter = sc.intersection
    return {
        "name": sc.name,
        "dimension": sc.dimension,
        "sets": [s.to_config() for s in sc.sets],
        "intersection": "oracle" if isinstance(inter, IntersectionHandle) else inter.to_config(),
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


def _parse(read, where):
    """The validated Scenario of the JSON text read() returns.  A failed read
    and every ConfigError name `where` first: the file path or bundled 'name'."""
    try:
        return scenario_from_config(json.loads(read()))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{where}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
                          f"{exc.msg}") from exc
    except (OSError, ConfigError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario JSON file."""
    return _parse(lambda: pathlib.Path(path).read_text(encoding="utf-8"), path)


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_config(sc), fh, indent=2, sort_keys=True)
        fh.write("\n")


def bundled_scenario_names() -> list:
    """Names of the scenarios shipped with the package, sorted."""
    return sorted(entry.name[:-5] for entry in resources.files("projlab.scenarios").iterdir()
                  if entry.name.endswith(".json"))


def load_bundled(name: str) -> Scenario:
    """Load a bundled scenario by name."""
    ref = resources.files("projlab.scenarios") / f"{name}.json"
    if not ref.is_file():
        raise ConfigError(f"no bundled scenario named '{name}'")
    return _parse(lambda: ref.read_text(encoding="utf-8"), f"bundled '{name}'")


# ---------------------------------------------------------------------------
# JSON helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, np.generic):  # a numpy scalar: its Python value
        return obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return repr(obj)
    return obj


def _fields_dict(obj, drop=(), **more):
    """A result dataclass as JSON-ready data, less the fields in `drop`."""
    out = {f.name: getattr(obj, f.name) for f in fields(obj) if f.name not in drop}
    return _jsonable({**out, **more})


# ---------------------------------------------------------------------------
# value resolution inside analysis records

# Arithmetic on a resolved value, applied in this order.
_ARITHMETIC = (("times", operator.mul), ("plus", operator.add),
               ("clamp_min", max), ("clamp_max", min))
# The intervals of a finite number and of a finite nonnegative one, as
# check_range's (lo, hi, lo_open, hi_open).
_FINITE = (-math.inf, math.inf, True, True)
_NONNEGATIVE = (0.0, math.inf, False, True)


def _literal(value, path):
    """A literal number of an analysis record, which must be finite."""
    with at_key(""):
        return check_range(path, value, *_FINITE)


def _resolve(value, ctx, path):
    """Resolve a scalar analysis argument: a finite number, an "@label"
    reference to an earlier result, or {"ref"/"value", "times", "plus",
    "clamp_min", "clamp_max"} arithmetic on one by finite numbers."""
    if isinstance(value, str):
        return float(_reference(value, ctx, path, analysis_mod.RegularityEstimate).value)
    if isinstance(value, dict):
        check_keys(value, path, ("ref", "value") + tuple(k for k, _ in _ARITHMETIC))
        if "ref" in value:
            base = _resolve(value["ref"], ctx, f"{path}.ref")
        elif "value" in value:
            base = _resolve(value["value"], ctx, f"{path}.value")
        else:
            raise ConfigError(f"{path}: need 'ref' or 'value'")
        for key, op in _ARITHMETIC:
            if key in value:
                base = op(base, _literal(value[key], f"{path}.{key}"))
        return base
    return _literal(value, path)


def _resolve_in_range(value, key, ctx, path):
    """Resolve the value of record key `key` and check it by the key's
    `_RANGES` rule, as a literal is checked when the record loads: a value
    outside it is a ConfigError at `path`, the record's key path."""
    number = _resolve(value, ctx, f"{path}.{key}")
    with at_key(path):
        return check_range(key, number, *_RANGES[key])


def _resolve_int(value, ctx, path):
    number = _resolve(value, ctx, path)
    with at_key(""):
        return check_whole(path, number)


def _resolve_list(value, ctx, path):
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list")
    return [_resolve(v, ctx, f"{path}[{i}]") for i, v in enumerate(value)]


def _reference(value, ctx, path, cls=RateCertificate):
    """The earlier result an "@label" string names, which must be a `cls`."""
    if not (isinstance(value, str) and value.startswith("@")):
        raise ConfigError(f"{path}: expected an '@label' reference")
    if not isinstance(ctx.get(value[1:]), cls):
        raise ConfigError(f"{path}: '{value}' is not a {cls.__name__} result")
    return ctx[value[1:]]


def _given(record, *keys):
    """The `keys` the record gives, as keywords; the rest keep the callee's defaults."""
    return {key: record[key] for key in keys if key in record}


# ---------------------------------------------------------------------------
# rate theorems a certificate analysis can invoke


@dataclass(frozen=True)
class Theorem:
    """`args` lists (key, resolver) in call order, or (key, resolver,
    default) for an optional argument.  `build` takes the resolved arguments
    and returns (certificate, derived constants); without it the function of
    the theorem's name in `rates` gives the certificate."""

    args: tuple
    about: str
    build: Callable | None = None


def _rate_dr_pair(lam, mu, alpha, eps1, eps2, theta, kappa):
    """rate_cyclic_dr for one generalized DR operator, its Fejér constants
    from dr_constants and its coercivity from dr_coercivity."""
    consts = rates_mod.dr_constants(lam, mu, alpha, eps1, eps2)
    nu = rates_mod.dr_coercivity(lam, mu, alpha, theta, kappa)
    cert = rates_mod.rate_cyclic_dr([consts.gamma], [consts.beta], nu, kappa)
    return cert, {"gamma": consts.gamma, "beta": consts.beta, "nu": nu, "theta": theta}


_EPS, _KAPPA, _NU = ("eps", _resolve), ("kappa", _resolve), ("nu", _resolve)
_GAMMAS, _BETAS = ("gammas", _resolve_list), ("betas", _resolve_list)
_LAMBDAS = ("lambdas", _resolve_list)
THEOREMS = {
    "rate_cyclic_projections": Theorem((("m", _resolve_int), _EPS, _KAPPA),
                                       "m >= 2 projectors, eps in [0,1)"),
    "rate_convex_cyclic": Theorem((_LAMBDAS, _KAPPA), "eps = 0, global on the start ball"),
    "rate_cyclic_relaxed": Theorem((_LAMBDAS, _EPS, _KAPPA),
                                   "lambdas in (0,2]^m, at most one reflector"),
    "rate_cyclic_overrelaxed": Theorem((_LAMBDAS, _EPS, _KAPPA),
                                       "lambdas in [1,2)^m, m >= 2, block m-1"),
    "rate_cyclic_semi_intrepid": Theorem((("alphas", _resolve_list), _EPS, _KAPPA),
                                         "alphas in [0,1]^m, at most one full step"),
    "rate_refined": Theorem((_GAMMAS, _BETAS, _KAPPA), "firm lists, block length m-1"),
    "rate_dist_qff": Theorem((_GAMMAS, _BETAS, _NU, _KAPPA),
                             "quasi-firm lists, nu in (0,1], kappa >= 1"),
    "rate_cyclic_dr": Theorem((_GAMMAS, _BETAS, _NU, _KAPPA),
                              "per-block quasi-firm constants + coercivity nu"),
    "rate_dr_pair": Theorem(
        (("lambda", _resolve), ("mu", _resolve), ("alpha", _resolve), ("eps1", _resolve, 0.0),
         ("eps2", _resolve, 0.0), ("theta", _resolve), _KAPPA),
        "rate_cyclic_dr of one generalized DR operator, constants derived", _rate_dr_pair),
}


def _check_certificate(record):
    theorem = table_entry(record, THEOREMS, "certificate", tag="theorem")
    args = record.get("args", {})
    if not isinstance(args, dict):
        raise ConfigError("args: must be an object")
    check_keys(args, "args", [a[0] for a in theorem.args],
               required=[a[0] for a in theorem.args if len(a) == 2])


# ---------------------------------------------------------------------------
# analysis kinds


class _Run:
    """One scenario run: its trajectory and what its analyses produced."""

    def __init__(self, sc: Scenario, traj):
        self.sc, self.traj, self.seed = sc, traj, traj.seed  # run checked the seed
        self.ctx = {}  # label -> estimate, certificate or fit, for '@label'
        self.constants, self.certificates, self.fits = {}, {}, {}
        self.comparisons, self.checks = [], []
        self.shadow_points = None
        self._hull = None

    def hull(self):
        if self._hull is None:
            self._hull = affine_mod.affine_hull(self.sc.sets, seed=self.seed)
        return self._hull

    def sampling(self, record):
        """The seed (the record's, else the run's) and any samples it gives."""
        return {"seed": self.seed, **_given(record, "samples", "seed")}

    def delta(self, record):
        return float(record.get("delta", self.sc.delta))

    def constant(self, label, est):
        self.ctx[label] = est
        self.constants[label] = _fields_dict(est, drop=("anchor",))

    def pick_target(self, op, value, path):
        """A set by index, "intersection", or "target" (the operator's set)."""
        if value == "intersection":
            return self.sc.intersection
        if value == "target":
            if not hasattr(op, "target"):
                raise ConfigError(f"{path}: operator has no single target")
            return op.target
        return self.sc.sets[value]


# Each handler runs one record and returns None or (PropertyReport or None,
# further check fields); execute_scenario turns the latter into a check.


def _estimate_eps(run, rec, path, label):
    s = run.sc.sets[rec["set"]]
    run.constant(label, analysis_mod.estimate_eps_regularity(
        s, run.sc.anchor, run.delta(rec), **run.sampling(rec)))


def _estimate_kappa(run, rec, path, label):
    run.constant(label, analysis_mod.estimate_linear_regularity(
        run.sc.sets, run.sc.intersection, run.sc.anchor, run.delta(rec),
        **run.sampling(rec)))


# The sets of an estimate_theta_bar record that gives none.
_THETA_PAIR = (0, 1)


def _estimate_theta_bar(run, rec, path, label):
    a, b = (run.sc.sets[j] for j in rec.get("sets", _THETA_PAIR))
    run.constant(label, analysis_mod.estimate_theta_bar(
        a, b, run.sc.anchor, **run.sampling(rec)))


def _strong_regularity(run, rec, path, label):
    idxs = rec.get("sets", list(range(len(run.sc.sets))))
    system = [run.sc.sets[j] for j in idxs]
    est = analysis_mod.check_strong_regularity(
        system, run.sc.anchor, run.delta(rec), **run.sampling(rec))
    run.constant(label, est)
    strong = est.extra["strong"]  # None: undetermined, which no expect accepts
    entry = {"sets": list(idxs), "value": est.value, "strong": strong}
    passed = {"fail": strong is False, "pass": strong is True, None: True}[rec.get("expect")]
    if "expect_min" in rec:
        entry["expect_min"] = rec["expect_min"]
        passed = passed and est.extra["zeta_lower"] >= rec["expect_min"]
    entry["passed"] = passed
    return None, entry


def _quasi_firm_fejer(run, rec, path, label):
    op = run.sc.operators.members[rec["operator"]]
    refset = run.pick_target(op, rec.get("refset", "target"), f"{path}.refset")
    tag = operator_type(op)
    spec = OPERATOR_TYPES[tag]
    for key in _FEJER_KEYS:
        if key in rec and key not in spec.fejer_keys:
            raise ConfigError(f"{path}.{key}: not a constant of a {tag} operator")
    eps = [_resolve_in_range(rec.get(key, 0.0), key, run.ctx, path) for key in spec.fejer_keys]
    consts = spec.fejer(op, *eps)
    rep = analysis_mod.check_quasi_firm_fejer(
        op, refset, consts.gamma, consts.beta, run.sc.anchor, run.delta(rec),
        **run.sampling(rec))
    return rep, {"eps": _jsonable(eps[0] if len(eps) == 1 else tuple(eps)),
                 "gamma": consts.gamma, "beta": consts.beta}


def _quasi_coercive(run, rec, path, label):
    op = run.sc.operators.members[rec["operator"]]
    cset = run.pick_target(op, rec.get("cset", "target"), f"{path}.cset")
    nu_spec = rec.get("nu", "lambda")
    if nu_spec == "lambda":
        if not isinstance(op, RelaxedProjector):
            raise ConfigError(f"{path}.nu: 'lambda' needs a relaxed projector")
        nu = op.lam
    else:
        nu = _resolve_in_range(nu_spec, "nu", run.ctx, path)
    rep = analysis_mod.check_quasi_coercive(
        op, cset, nu, run.sc.anchor, run.delta(rec), **run.sampling(rec))
    if not rec.get("expect_equality"):
        return rep, {}
    eq_tol = float(rec.get("equality_tol", 1e-12))
    return rep, {"equality_tol": eq_tol,
                 "passed": bool(rep.passed and rep.extra["max_abs_gap"] <= eq_tol)}


def _injectable(run, rec, path, label):
    s = run.sc.sets[rec["set"]]
    tau = _resolve_in_range(rec["tau"], "tau", run.ctx, path)
    rep = analysis_mod.check_injectable(s, tau, run.sc.anchor, run.delta(rec),
                                        **run.sampling(rec))
    if rec.get("expect") == "fail":
        return rep, {"tau": tau, "expected_failure": True, "passed": rep.violations >= 1}
    return rep, {"tau": tau}


def _obtuse_cone(run, rec, path, label):
    s = run.sc.sets[rec["set"]]
    result = sets_mod.is_obtuse_cone(s, **run.sampling(rec))
    del result["name"]  # the check is named by its label
    return None, {"passed": result["obtuse"] == rec.get("expect", True), **_jsonable(result)}


def _certificate(run, rec, path, label):
    name = rec["theorem"]
    theorem = THEOREMS[name]
    args = rec.get("args", {})
    values = [resolve(args[key], run.ctx, f"{path}.args.{key}") if key in args else default[0]
              for key, resolve, *default in theorem.args]
    if theorem.build is None:
        cert, derived = getattr(rates_mod, name)(*values), {}
    else:
        cert, derived = theorem.build(*values)
    run.ctx[label] = cert
    entry = _fields_dict(cert)
    if derived:
        entry["derived"] = _jsonable(derived)
    run.certificates[label] = entry


def _rate_fit(run, rec, path, label):
    fit = runner_mod.fit_rlinear(run.traj.cycle_errors(),
                                 **_given(rec, "tail_fraction", "burn_in"))
    run.ctx[label] = fit
    run.fits[label] = _fields_dict(fit)
    if "expect_rho" not in rec and not rec.get("expect_non_convergent"):
        return None
    entry = {"rho": fit.rho, "passed": True}
    if "expect_rho" in rec:
        want = float(rec["expect_rho"])
        tol = float(rec.get("expect_tol", 1e-3))
        entry.update({"expect_rho": want, "expect_tol": tol,
                      "passed": abs(fit.rho - want) <= tol})
    if rec.get("expect_non_convergent"):
        entry["expect_non_convergent"] = True
        entry["passed"] = bool(entry["passed"] and fit.non_convergent)
    return None, entry


def _k_step(run, rec, path, label):
    if "certificate" in rec:
        cert = _reference(rec["certificate"], run.ctx, f"{path}.certificate")
        k, rho_bound = cert.block_len, cert.rho_block
    else:
        k = rec.get("k", 1)
        rho_bound = _resolve_in_range(rec["rho_bound"], "rho_bound", run.ctx, path)
    return runner_mod.check_k_step_reduction(run.traj, k, rho_bound), {}


def _compare(run, rec, path, label):
    cert = _reference(rec["certificate"], run.ctx, f"{path}.certificate")
    result = runner_mod.compare_certificate(run.traj, cert, **_given(rec, "slack"))
    result["name"] = label
    run.comparisons.append(_jsonable(result))


def _envelope(run, rec, path, label):
    cert = _reference(rec["certificate"], run.ctx, f"{path}.certificate")
    return runner_mod.check_rlinear_envelope(run.traj, cert), {}


def _states_match(want, got, tol):
    """Whether `got` pairs off with `want`, each within tol of a distinct one."""
    if len(want) != len(got):
        return False
    used = [False] * len(got)
    for wst in want:
        hit = next((j for j, g in enumerate(got)
                    if not used[j] and np.linalg.norm(g - wst) <= tol), None)
        if hit is None:
            return False
        used[hit] = True
    return True


def _cycle_detect(run, rec, path, label):
    tol = rec.get("tol", 1e-12)
    found = runner_mod.detect_cycle(run.traj, tol=tol)
    if found is None:
        return None, {"passed": "expect_period" not in rec and "expect_states" not in rec,
                      "period": None}
    entry = {"period": found.period, "start_index": found.start_index,
             "states": _jsonable(found.states),
             "max_deviation": found.max_deviation, "passed": True}
    if "expect_period" in rec:
        entry["expect_period"] = rec["expect_period"]
        entry["passed"] = found.period == rec["expect_period"]
    if entry["passed"] and "expect_states" in rec:
        want = [np.asarray(s, dtype=float) for s in rec["expect_states"]]
        entry["passed"] = _states_match(want, list(found.states), tol)
    return None, entry


def _affine_reduction(run, rec, path, label):
    run.shadow_points, rep = affine_mod.shadow_run(run.traj, run.hull())
    entry = _fields_dict(rep, drop=("gap_ratios",))
    passed = rep.gap_law_residual <= 1e-9
    expect = rec.get("expect")
    if expect is not None:
        entry["expect"] = expect
        passed = passed and rep.classification == expect
    if rep.classification == "FixedPointShadow":
        passed = passed and rep.fix_residual <= 1e-8
    else:
        final_dc = float(run.traj.c_dist[-1])
        entry["final_dC"] = final_dc
        passed = passed and final_dc <= 1e-8
    entry["passed"] = passed
    return None, entry


def _affine_identities(run, rec, path, label):
    s = run.sc.sets[rec["set"]]
    lam = _resolve_in_range(rec.get("lambda", 1.0), "lambda", run.ctx, path)
    return affine_mod.verify_affine_identities(s, run.hull(), lam, **run.sampling(rec)), {}


def _expect_in(*allowed):
    """Parse-time check that a record's `expect`, if given, is one of
    `allowed` and of their JSON type (so "false" is not false)."""
    def check(record):
        value = record.get("expect", allowed[0])
        if type(value) is not type(allowed[0]) or value not in allowed:
            raise ConfigError(f"expect: must be one of {', '.join(map(json.dumps, allowed))}, "
                              f"got {json.dumps(value)}")
    return check


def _set_list(what, accept):
    """Parse-time check that a record's `sets`, if given, is a list of
    integers that `accept` takes, `what` in words; `_check_indices` checks
    that each names a set."""
    def check(record):
        value = record.get("sets")
        if "sets" in record and not (isinstance(value, list)
                                     and all(type(v) is int for v in value) and accept(value)):
            raise ConfigError(f"sets: must be {what}, got {json.dumps(value)}")
    return check


def _check_k_step(record):
    """A k_step record bounds by exactly one of a certificate and rho_bound."""
    if ("certificate" in record) == ("rho_bound" in record):
        raise ConfigError("rho_bound: given with 'certificate'" if "rho_bound" in record
                          else "need 'certificate' or 'rho_bound'")


@dataclass(frozen=True)
class Analysis:
    """`execute(run, record, path, label)` is the handler; `label` the
    default label, "{}" standing for the record index.  `keys` are the keys
    a record may carry besides kind and label, `modifiers` (modifier, key)
    pairs, and `checks` further parse-time checks of a record."""

    execute: Callable
    label: str
    about: str
    keys: tuple = ()
    required: tuple = ()
    modifiers: tuple = ()
    checks: tuple = ()


_SAMPLED = ("samples", "seed", "delta")
_FEJER_KEYS = tuple(dict.fromkeys(k for spec in OPERATOR_TYPES.values() for k in spec.fejer_keys))
ANALYSES = {
    "estimate_eps": Analysis(
        _estimate_eps, "eps",
        "eps-regularity of one set: exact on a convex set, a sphere or a finite point set, "
        "else a sampled lower bound",
        ("set",) + _SAMPLED, ("set",)),
    "estimate_kappa": Analysis(
        _estimate_kappa, "kappa",
        "linear-regularity constant of the system: exact or an upper bound on affine sets, "
        "else a sampled lower bound",
        _SAMPLED),
    "estimate_theta_bar": Analysis(
        _estimate_theta_bar, "theta",
        "normal-cone angle of two sets: exact where each cone is a subspace or one ray, "
        "else a sampled lower bound",
        ("sets", "samples", "seed"),
        checks=(_set_list("a list of two set indices", lambda v: len(v) == 2),)),
    "strong_regularity": Analysis(
        _strong_regularity, "zeta_{}",
        "bracket of the strong-regularity constant zeta: exact where each normal cone is "
        "{0}, a ray or a line, else over sampled normals",
        ("sets", "expect", "expect_min") + _SAMPLED,
        checks=(_expect_in("pass", "fail"),
                _set_list("a list of at least two distinct set indices",
                          lambda v: len(set(v)) == len(v) >= 2))),
    "quasi_firm_fejer": Analysis(
        _quasi_firm_fejer, "qff_{}", "quasi-firm Fejér inequality, constants from the operator type",
        ("operator", "refset") + _FEJER_KEYS + _SAMPLED, ("operator",)),
    "quasi_coercive": Analysis(
        _quasi_coercive, "coercive_{}", "quasi coercivity of an operator with constant nu",
        ("operator", "cset", "nu", "expect_equality", "equality_tol") + _SAMPLED, ("operator",),
        (("equality_tol", "expect_equality"),)),
    "injectable": Analysis(
        _injectable, "injectable_{}", "inward segments of depth tau stay in the set",
        ("set", "tau", "expect") + _SAMPLED, ("set", "tau"), checks=(_expect_in("pass", "fail"),)),
    "obtuse_cone": Analysis(
        _obtuse_cone, "obtuse_{}", "-polar(K) in K for an orthant or polyhedral cone",
        ("set", "expect", "samples", "seed"), ("set",), checks=(_expect_in(True, False),)),
    "certificate": Analysis(
        _certificate, "cert_{}", "R-linear rate certificate of a theorem",
        ("theorem", "args"), ("theorem",), checks=(_check_certificate,)),
    "rate_fit": Analysis(
        _rate_fit, "fit", "per-cycle R-linear rate fitted to the trajectory",
        ("tail_fraction", "burn_in", "expect_rho", "expect_tol", "expect_non_convergent"),
        modifiers=(("expect_tol", "expect_rho"),)),
    "k_step": Analysis(
        _k_step, "k_step_{}", "k-step error reduction by rho_bound or a certificate",
        ("certificate", "k", "rho_bound"), modifiers=(("k", "rho_bound"),),
        checks=(_check_k_step,)),
    "compare": Analysis(
        _compare, "compare_{}", "a certificate's rate dominates the fitted rate",
        ("certificate", "slack"), ("certificate",)),
    "envelope": Analysis(
        _envelope, "envelope_{}", "errors stay under a certificate's R-linear envelope",
        ("certificate",), ("certificate",)),
    "cycle_detect": Analysis(
        _cycle_detect, "cycle_{}", "exactly repeating states of the trajectory",
        ("tol", "expect_period", "expect_states")),
    "affine_reduction": Analysis(
        _affine_reduction, "affine_{}", "shadow split of a one-operator generalized DR run",
        ("expect",), checks=(_expect_in("Intersection", "FixedPointShadow"),)),
    "affine_identities": Analysis(
        _affine_identities, "identities_{}", "relaxed projection commutes with the hull projection",
        ("set", "lambda", "samples", "seed"), ("set",)),
}


_BOOL_KEYS = ("expect_non_convergent", "expect_equality")
# The rule of each number an analysis record may carry, the library's own: a
# count's least value for check_count, else a check_range interval.  A key
# of _RESOLVED may hold an "@label" or arithmetic value, checked by the same
# rule when it resolves (_resolve_in_range); a literal number is checked here.
_RANGES = {"samples": 1, "seed": 0, "burn_in": 0, "k": 1, "expect_period": 1,
           "delta": analysis_mod.DELTA_RANGE, "tau": analysis_mod.TAU_RANGE,
           "nu": analysis_mod.NU_RANGE, "lambda": rates_mod.LAMBDA_RANGE,
           "tail_fraction": runner_mod.TAIL_FRACTION_RANGE, "tol": runner_mod.CYCLE_TOL_RANGE,
           "slack": runner_mod.SLACK_RANGE, "rho_bound": runner_mod.RHO_BOUND_RANGE,
           "expect_rho": _NONNEGATIVE, "expect_tol": _NONNEGATIVE, "equality_tol": _NONNEGATIVE,
           "expect_min": (0.0, 1.0, False, False),  # zeta lies in [0, 1]
           "eps": rates_mod.EPS_RANGE, "eps1": rates_mod.EPS1_RANGE, "eps2": rates_mod.EPS_RANGE}
_RESOLVED = ("tau", "nu", "lambda", "rho_bound", "eps", "eps1", "eps2")


def _check_values(record, dim):
    """Parse-time check of the numbers, booleans and states a record carries,
    in a scenario of dimension `dim`."""
    for key, value in record.items():
        rule = _RANGES.get(key)
        if key == "expect_states":
            if not isinstance(value, list) or not value:
                raise ConfigError(f"{key}: must be a nonempty list of states")
            for i, state in enumerate(value):
                _vector(state, dim, f"{key}[{i}]")
        elif key in _BOOL_KEYS and type(value) is not bool:
            raise ConfigError(f"{key}: must be true or false, got {json.dumps(value)}")
        elif type(rule) is int:
            check_count(key, value, rule)
        elif rule is not None and not (key in _RESOLVED and isinstance(value, (str, dict))):
            check_range(key, value, *rule)


def _check_indices(record, n_sets, n_ops):
    """Parse-time check that each set and operator index a record carries,
    and estimate_theta_bar's default pair, names one of the scenario's."""
    sets = record.get("sets", _THETA_PAIR if record["kind"] == "estimate_theta_bar" else ())
    found = [(f"sets[{j}]", v, n_sets, "set") for j, v in enumerate(sets)]
    found += [(key, record[key], n_sets, "set") for key in ("set", "refset", "cset")
              if key in record and (key == "set" or record[key] not in ("intersection", "target"))]
    if "operator" in record:
        found.append(("operator", record["operator"], n_ops, "operator"))
    for key, value, count, what in found:
        if type(value) is not int or not 0 <= value < count:  # a bool is no index
            raise ConfigError(f"{key}: {what} index out of range")


def _label(record, index):
    """The label of the analysis record at `index`: its own, else its kind's
    default."""
    return record.get("label", ANALYSES[record["kind"]].label.format(index))


def check_analysis(record, path, dim, n_sets, n_ops):
    """Validate one analysis record against its kind's table entry and a
    scenario of dimension `dim`, `n_sets` sets and `n_ops` operators."""
    with at_key(path):
        spec = table_entry(record, ANALYSES, "analysis", tag="kind")
        check_keys(record, "", ("kind", "label") + spec.keys, spec.required, spec.modifiers)
        _check_values(record, dim)
        for check in spec.checks:
            check(record)
        _check_indices(record, n_sets, n_ops)


# ---------------------------------------------------------------------------
# scenario execution


def execute_scenario(sc: Scenario, out_dir=None, seed_override=None) -> dict:
    """Run a scenario's trajectory and its requested analyses in order.

    Returns the report dict (top-level keys: scenario, constants,
    certificates, fit, comparisons, checks, passed, timing).  If out_dir is
    given, writes trajectory.csv / report.json / shadow.csv there.
    """
    t0 = time.perf_counter()
    traj = runner_mod.run(sc.operators, sc.x0, sc.sets, sc.intersection, max_cycles=sc.max_cycles,
                          tol=sc.tol, seed=sc.seed if seed_override is None else seed_override)
    run = _Run(sc, traj)
    if "stop_reason" in sc.expected:
        run.checks.append({
            "name": "stop_reason", "kind": "expected",
            "expected": sc.expected["stop_reason"], "actual": traj.stop_reason,
            "passed": traj.stop_reason == sc.expected["stop_reason"],
        })

    for i, record in enumerate(sc.analyses):
        kind, label = record["kind"], _label(record, i)
        out = ANALYSES[kind].execute(run, record, f"analyses[{i}]", label)
        if out is not None:
            rep, extra = out
            entry = {} if rep is None else _fields_dict(rep, ("witness",), passed=rep.passed)
            run.checks.append({**entry, "name": label, "kind": kind, **extra})

    passed = (all(c.get("passed", True) for c in run.checks)
              and all(c.get("ok", True) for c in run.comparisons))
    report = {
        "scenario": {
            "name": sc.name,
            "dimension": sc.dimension,
            "seed": traj.seed,
            "stop_reason": traj.stop_reason,
            "n_cycles": traj.n_cycles,
            "final": _jsonable(traj.final),
            "final_dC": float(traj.c_dist[-1]),
            "tol": sc.tol,
        },
        "constants": run.constants,
        "certificates": run.certificates,
        "fit": run.fits,
        "comparisons": run.comparisons,
        "checks": run.checks,
        "passed": passed,
        "timing": {
            "wall_time_s": time.perf_counter() - t0,
            "run_wall_time_s": traj.wall_time_s,
        },
    }
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        runner_mod.export_trajectory_csv(traj, os.path.join(out_dir, "trajectory.csv"))
        if run.shadow_points is not None:
            affine_mod.export_shadow_csv(traj, run.shadow_points,
                                         os.path.join(out_dir, "shadow.csv"))
        with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return report
