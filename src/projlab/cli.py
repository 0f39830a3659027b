"""Command-line front end: run scenarios, verify the bundled suite, list the
catalog.

Exit codes: 0 = all requested assertions pass, 1 = an assertion failed,
2 = usage or configuration error.  All wall-clock measurements live under
keys named "timing" so reports are byte-identical across runs of the same
seed once timing subtrees are dropped.
"""

from __future__ import annotations

import argparse
import json
import operator
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import affine as affine_mod
from . import analysis as analysis_mod
from . import rates as rates_mod
from . import runner as runner_mod
from .errors import (
    ConfigError,
    ProjlabError,
    at_key,
    check_int,
    check_keys,
    check_number,
    check_positive,
    table_entry,
)
from .operators import OPERATOR_TYPES, RelaxedProjector, operator_type
from .rates import RateCertificate
from .scenario import (
    Scenario,
    bundled_scenario_names,
    load_bundled,
    load_scenario,
)
from .sets import SET_TYPES, is_obtuse_cone


# ---------------------------------------------------------------------------
# JSON helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
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


def _resolve(value, ctx, path):
    """Resolve a scalar analysis argument: a finite number, an "@label"
    reference to an earlier result, or {"ref"/"value", "times", "plus",
    "clamp_min", "clamp_max"} arithmetic on one by finite numbers."""
    if isinstance(value, (int, float)):  # a bool too, which check_number rejects
        return check_number(value, path)
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
                base = op(base, check_number(value[key], f"{path}.{key}"))
        return base
    raise ConfigError(f"{path}: cannot resolve {value!r}")


def _resolve_int(value, ctx, path):
    number = _resolve(value, ctx, path)
    if not number.is_integer():
        raise ConfigError(f"{path}: must be an integer, got {number!r}")
    return int(number)


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
                             "quasi-firm lists, nu in (0,1], kappa > 0"),
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

    def __init__(self, sc: Scenario, traj, seed):
        self.sc, self.traj, self.seed = sc, traj, seed
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

    def store(self, label, obj, path):
        if not isinstance(label, str) or not label:
            raise ConfigError(f"{path}.label: must be a nonempty string")
        if label in self.ctx:
            raise ConfigError(f"{path}.label: duplicate label '{label}'")
        self.ctx[label] = obj

    def constant(self, label, est, path):
        self.store(label, est, path)
        self.constants[label] = _fields_dict(est, drop=("anchor",))

    def pick_set(self, value, path):
        if type(value) is not int or not 0 <= value < len(self.sc.sets):  # a bool is no index
            raise ConfigError(f"{path}: set index out of range")
        return self.sc.sets[value]

    def pick_operator(self, value, path):
        members = self.sc.operators.members
        if type(value) is not int or not 0 <= value < len(members):  # a bool is no index
            raise ConfigError(f"{path}: operator index out of range")
        return members[value]

    def pick_target(self, op, value, path):
        """A set by index, "intersection", or "target" (the operator's set)."""
        if value == "intersection":
            return self.sc.intersection
        if value == "target":
            if not hasattr(op, "target"):
                raise ConfigError(f"{path}: operator has no single target")
            return op.target
        return self.pick_set(value, path)


# Each handler runs one record and returns None or (PropertyReport or None,
# further check fields); execute_scenario turns the latter into a check.


def _estimate_eps(run, rec, path, label):
    s = run.pick_set(rec["set"], f"{path}.set")
    run.constant(label, analysis_mod.estimate_eps_regularity(
        s, run.sc.anchor, run.delta(rec), **run.sampling(rec)), path)


def _estimate_kappa(run, rec, path, label):
    run.constant(label, analysis_mod.estimate_linear_regularity(
        run.sc.sets, run.sc.intersection, run.sc.anchor, run.delta(rec),
        **run.sampling(rec)), path)


def _estimate_theta_bar(run, rec, path, label):
    pair = rec.get("sets", [0, 1])
    a = run.pick_set(pair[0], f"{path}.sets[0]")
    b = run.pick_set(pair[1], f"{path}.sets[1]")
    run.constant(label, analysis_mod.estimate_theta_bar(
        a, b, run.sc.anchor, **run.sampling(rec)), path)


def _strong_regularity(run, rec, path, label):
    idxs = rec.get("sets", list(range(len(run.sc.sets))))
    system = [run.pick_set(j, f"{path}.sets") for j in idxs]
    est = analysis_mod.check_strong_regularity(
        system, run.sc.anchor, run.delta(rec), **run.sampling(rec))
    run.constant(label, est, path)
    strong = est.extra["strong"]  # None: undetermined, which no expect accepts
    entry = {"sets": list(idxs), "value": est.value, "strong": strong}
    passed = {"fail": strong is False, "pass": strong is True, None: True}[rec.get("expect")]
    if "expect_min" in rec:
        entry["expect_min"] = rec["expect_min"]
        passed = passed and est.extra["zeta_lower"] >= rec["expect_min"]
    entry["passed"] = passed
    return None, entry


def _quasi_firm_fejer(run, rec, path, label):
    op = run.pick_operator(rec["operator"], f"{path}.operator")
    refset = run.pick_target(op, rec.get("refset", "target"), f"{path}.refset")
    tag = operator_type(op)
    spec = OPERATOR_TYPES[tag]
    for key in _FEJER_KEYS:
        if key in rec and key not in spec.fejer_keys:
            raise ConfigError(f"{path}.{key}: not a constant of a {tag} operator")
    eps = [_resolve(rec.get(key, 0.0), run.ctx, f"{path}.{key}") for key in spec.fejer_keys]
    consts = spec.fejer(op, *eps)
    rep = analysis_mod.check_quasi_firm_fejer(
        op, refset, consts.gamma, consts.beta, run.sc.anchor, run.delta(rec),
        **run.sampling(rec))
    return rep, {"eps": _jsonable(eps[0] if len(eps) == 1 else tuple(eps)),
                 "gamma": consts.gamma, "beta": consts.beta}


def _quasi_coercive(run, rec, path, label):
    op = run.pick_operator(rec["operator"], f"{path}.operator")
    cset = run.pick_target(op, rec.get("cset", "target"), f"{path}.cset")
    nu_spec = rec.get("nu", "lambda")
    if nu_spec == "lambda":
        if not isinstance(op, RelaxedProjector):
            raise ConfigError(f"{path}.nu: 'lambda' needs a relaxed projector")
        nu = op.lam
    else:
        nu = _resolve(nu_spec, run.ctx, f"{path}.nu")
    rep = analysis_mod.check_quasi_coercive(
        op, cset, nu, run.sc.anchor, run.delta(rec), **run.sampling(rec))
    if not rec.get("expect_equality"):
        return rep, {}
    eq_tol = float(rec.get("equality_tol", 1e-12))
    return rep, {"equality_tol": eq_tol,
                 "passed": bool(rep.passed and rep.extra["max_abs_gap"] <= eq_tol)}


def _injectable(run, rec, path, label):
    s = run.pick_set(rec["set"], f"{path}.set")
    tau = _resolve(rec["tau"], run.ctx, f"{path}.tau")
    rep = analysis_mod.check_injectable(s, tau, run.sc.anchor, run.delta(rec),
                                        **run.sampling(rec))
    if rec.get("expect") == "fail":
        return rep, {"tau": tau, "expected_failure": True, "passed": rep.violations >= 1}
    return rep, {"tau": tau}


def _obtuse_cone(run, rec, path, label):
    s = run.pick_set(rec["set"], f"{path}.set")
    result = is_obtuse_cone(s, **run.sampling(rec))
    del result["name"]  # the check is named by its label
    return None, {"passed": result["obtuse"] == rec.get("expect", True), **_jsonable(result)}


def _certificate(run, rec, path, label):
    name = rec["theorem"]
    theorem = THEOREMS[name]
    args = rec.get("args", {})
    values = []
    for key, resolve, *default in theorem.args:
        values.append(resolve(args[key], run.ctx, f"{path}.args.{key}")
                      if key in args else default[0])
    if theorem.build is None:
        cert, derived = getattr(rates_mod, name)(*values), {}
    else:
        cert, derived = theorem.build(*values)
    run.store(label, cert, path)
    entry = _fields_dict(cert)
    if derived:
        entry["derived"] = _jsonable(derived)
    run.certificates[label] = entry


def _rate_fit(run, rec, path, label):
    fit = runner_mod.fit_rlinear(run.traj.cycle_errors(),
                                 **_given(rec, "tail_fraction", "burn_in"))
    run.store(label, fit, path)
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
        rho_bound = _resolve(rec["rho_bound"], run.ctx, f"{path}.rho_bound")
    return runner_mod.check_k_step_reduction(run.traj, k, rho_bound), {}


def _compare(run, rec, path, label):
    cert = _reference(rec["certificate"], run.ctx, f"{path}.certificate")
    result = runner_mod.compare_certificate(run.traj, cert, raise_on_violation=False,
                                            **_given(rec, "slack"))
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
    s = run.pick_set(rec["set"], f"{path}.set")
    lam = _resolve(rec.get("lambda", 1.0), run.ctx, f"{path}.lambda")
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
    integers that `accept` takes, `what` in words; `_Run.pick_set` checks
    that each names a set when the record runs."""
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
        _estimate_eps, "eps", "sampled eps-regularity of one set (lower bound)",
        ("set",) + _SAMPLED, ("set",)),
    "estimate_kappa": Analysis(
        _estimate_kappa, "kappa", "sampled linear-regularity constant of the system (lower bound)",
        _SAMPLED),
    "estimate_theta_bar": Analysis(
        _estimate_theta_bar, "theta", "sampled normal-cone angle bound of two sets (lower bound)",
        ("sets", "samples", "seed"),
        checks=(_set_list("a list of two set indices", lambda v: len(v) == 2),)),
    "strong_regularity": Analysis(
        _strong_regularity, "zeta_{}",
        "bracket of the strong-regularity constant zeta over sampled normals",
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
        ("expect",)),
    "affine_identities": Analysis(
        _affine_identities, "identities_{}", "relaxed projection commutes with the hull projection",
        ("set", "lambda", "samples", "seed"), ("set",)),
}


# The integers an analysis record may carry, by least value, and its finite numbers.
_INT_KEYS = {"samples": 1, "seed": 0, "burn_in": 0, "k": 1, "expect_period": 1}
_FINITE_KEYS = ("tail_fraction", "expect_rho", "expect_tol", "slack", "equality_tol",
                "tol", "expect_min")
# The range of each number an analysis takes from its record.  A literal
# number is checked here; an "@label" or arithmetic value when it resolves.
_RANGES = {"tau": (lambda v: v >= 0.0, "must be >= 0"),
           "nu": (lambda v: v > 0.0, "must be > 0"),
           "lambda": (lambda v: 0.0 < v <= 2.0, "must lie in (0, 2]"),
           "tail_fraction": (lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")}


def _check_numbers(record):
    """Parse-time check of the numbers a record carries."""
    for key, value in record.items():
        if key in _INT_KEYS:
            check_int(value, key, _INT_KEYS[key])
        elif key == "delta":
            check_positive(value, key)
        elif key in _FINITE_KEYS:
            check_number(value, key)
        # a bool is an int too, and check_number rejects it
        if key in _RANGES and isinstance(value, (int, float)):
            accept, what = _RANGES[key]
            if not accept(check_number(value, key)):
                raise ConfigError(f"{key}: {what}")


def check_analysis(record, path):
    """Validate one analysis record against its kind's table entry."""
    with at_key(path):
        spec = table_entry(record, ANALYSES, "analysis", tag="kind")
        check_keys(record, "", ("kind", "label") + spec.keys, spec.required, spec.modifiers)
        _check_numbers(record)
        for check in spec.checks:
            check(record)


# ---------------------------------------------------------------------------
# scenario execution


def execute_scenario(sc: Scenario, out_dir=None, seed_override=None) -> dict:
    """Run a scenario's trajectory and its requested analyses in order.

    Returns the report dict (top-level keys: scenario, constants,
    certificates, fit, comparisons, checks, passed, timing).  If out_dir is
    given, writes trajectory.csv / report.json / shadow.csv there.
    """
    seed = sc.seed if seed_override is None else int(seed_override)
    t0 = time.perf_counter()
    traj = runner_mod.run(sc.operators, sc.x0, sc.sets, sc.intersection,
                          max_cycles=sc.max_cycles, tol=sc.tol, seed=seed)
    run = _Run(sc, traj, seed)
    if "stop_reason" in sc.expected:
        run.checks.append({
            "name": "stop_reason", "kind": "expected",
            "expected": sc.expected["stop_reason"], "actual": traj.stop_reason,
            "passed": traj.stop_reason == sc.expected["stop_reason"],
        })

    for i, record in enumerate(sc.analyses):
        kind = record["kind"]
        spec = ANALYSES[kind]
        label = record.get("label", spec.label.format(i))
        out = spec.execute(run, record, f"analyses[{i}]", label)
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
            "seed": seed,
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


# ---------------------------------------------------------------------------
# subcommand implementations


def _format_report_text(report) -> str:
    lines = []
    sc = report["scenario"]
    lines.append(f"scenario {sc['name']}: stop={sc['stop_reason']} "
                 f"cycles={sc['n_cycles']} final_dC={sc['final_dC']:.3e}")
    for label in sorted(report["constants"]):
        c = report["constants"][label]
        lines.append(f"  constant {label}: {c['value']:.6g} ({c['kind']})")
    for label in sorted(report["certificates"]):
        c = report["certificates"][label]
        lines.append(
            f"  certificate {label}: {c['theorem']} rho_block={c['rho_block']:.6g} "
            f"block={c['block_len']} applicable={c['applicable']}")
    for label in sorted(report["fit"]):
        f = report["fit"][label]
        lines.append(f"  fit {label}: rho={f['rho']:.6g} R2={f['r_squared']:.4f} "
                     f"non_convergent={f['non_convergent']}")
    for comp in report["comparisons"]:
        status = "PASS" if comp.get("ok", True) else "FAIL"
        lines.append(
            f"  compare {comp['name']}: fit={comp.get('rho_fit_per_iterate')} "
            f"cert={comp.get('rho_cert_per_iterate')} [{status}]")
    for check in report["checks"]:
        status = "PASS" if check.get("passed", True) else "FAIL"
        detail = ""
        if "worst_margin" in check:
            detail = f" worst_margin={check['worst_margin']:.3e}"
        elif "value" in check:
            detail = f" value={check['value']:.6g}"
        lines.append(f"  check {check['name']} ({check['kind']}): [{status}]{detail}")
    lines.append(f"result: {'PASS' if report['passed'] else 'FAIL'}")
    return "\n".join(lines)


def run_scenario(config_path, out_root="out", force=False, seed=None,
                 fmt="text") -> int:
    """Load, execute, and report one scenario; returns the exit code."""
    try:
        sc = load_scenario(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = os.path.join(out_root, sc.name)
    targets = [os.path.join(out_dir, f)
               for f in ("trajectory.csv", "report.json", "shadow.csv")]
    if any(os.path.exists(t) for t in targets) and not force:
        print(f"output in {out_dir} exists; use --force to overwrite",
              file=sys.stderr)
        return 2
    try:
        report = execute_scenario(sc, out_dir=out_dir, seed_override=seed)
    except ProjlabError as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return 1
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        print(_format_report_text(report))
    return 0 if report["passed"] else 1


def verify_suite(workers=1, out_root=None, seed=None) -> dict:
    """Execute every bundled scenario on `workers` threads and collect the
    reports.  Threads do not speed the suite up (small numpy calls hold the
    GIL), so the default is one."""
    t0 = time.perf_counter()
    names = bundled_scenario_names()

    def one(name):
        try:
            sc = load_bundled(name)
            out_dir = os.path.join(out_root, name) if out_root else None
            return execute_scenario(sc, out_dir=out_dir, seed_override=seed)
        except ProjlabError as exc:
            return {
                "scenario": {"name": name},
                "constants": {}, "certificates": {}, "fit": {},
                "comparisons": [], "checks": [],
                "error": f"{type(exc).__name__}: {exc}",
                "passed": False,
                "timing": {"wall_time_s": 0.0},
            }

    with ThreadPoolExecutor(max_workers=workers) as pool:
        reports = list(pool.map(one, names))
    failed = sum(1 for r in reports if not r["passed"])
    return {
        "suite": dict(zip(names, reports)),  # names come sorted
        "passed": failed == 0,
        "counts": {"scenarios": len(names), "failed": failed},
        "timing": {"wall_time_s": time.perf_counter() - t0},
    }


def _format_suite_text(summary) -> str:
    lines = []
    for name in sorted(summary["suite"]):
        report = summary["suite"][name]
        if "error" in report:
            lines.append(f"{name}: ERROR {report['error']}")
            continue
        status = "PASS" if report["passed"] else "FAIL"
        n_checks = len(report["checks"]) + len(report["comparisons"])
        lines.append(f"{name}: [{status}] "
                     f"stop={report['scenario']['stop_reason']} "
                     f"checks={n_checks}")
        for check in report["checks"]:
            if not check.get("passed", True):
                lines.append(f"  FAIL {check['name']} ({check['kind']})")
        for comp in report["comparisons"]:
            if not comp.get("ok", True):
                lines.append(f"  FAIL compare {comp['name']}")
    counts = summary["counts"]
    lines.append(f"total: {counts['scenarios']} scenarios, "
                 f"{counts['failed']} failed")
    lines.append(f"result: {'PASS' if summary['passed'] else 'FAIL'}")
    return "\n".join(lines)


def list_catalog(fmt="text") -> str:
    """Set types, operator types, rate theorems and analysis kinds, named by
    their config tags, with the keys their records take."""
    catalog = {  # section -> (name, description, config keys) per table entry
        "sets": [(tag, cls.about, [f.name for f in fields(cls)])
                 for tag, cls in SET_TYPES.items()],
        "operators": [(tag, spec.about, list(spec.keys))
                      for tag, spec in OPERATOR_TYPES.items()],
        "theorems": [(name, th.about, [a[0] for a in th.args])
                     for name, th in THEOREMS.items()],
        "analyses": [(kind, spec.about, list(spec.keys))
                     for kind, spec in ANALYSES.items()],
    }
    if fmt == "json":
        payload = {
            section: [{"name": name, "params": about, "keys": keys}
                      for name, about, keys in rows]
            for section, rows in catalog.items()
        }
        return json.dumps(payload, indent=2, sort_keys=True)
    lines = []
    for section, rows in catalog.items():
        lines.append(f"{section}:")
        for name, about, keys in rows:
            lines.append(f"  {name} ({about}); keys: {', '.join(keys)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projlab",
        description="Feasibility experiments: projection operators, sampled "
                    "regularity estimates, and R-linear rate certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one scenario config")
    p_run.add_argument("config", help="path to a scenario JSON file")
    p_run.add_argument("--out", default="out", help="output directory root")
    p_run.add_argument("--force", action="store_true",
                       help="overwrite existing output files")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--format", choices=("text", "json"), default="text")

    p_verify = sub.add_parser("verify", help="run the bundled scenario suite")
    p_verify.add_argument("--out", default=None, help="write per-scenario artifacts")
    p_verify.add_argument("--force", action="store_true",
                          help="overwrite existing output files")
    p_verify.add_argument("--seed", type=int, default=None,
                          help="override every scenario seed")
    p_verify.add_argument("--format", choices=("text", "json"), default="text")

    p_cat = sub.add_parser("catalog", help="list set, operator, theorem and analysis tags")
    p_cat.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    if args.command == "run":
        return run_scenario(args.config, out_root=args.out, force=args.force,
                            seed=args.seed, fmt=args.format)
    if args.command == "verify":
        if args.out and not args.force and os.path.isdir(args.out) \
                and os.listdir(args.out):
            print(f"output in {args.out} exists; use --force to overwrite",
                  file=sys.stderr)
            return 2
        summary = verify_suite(out_root=args.out, seed=args.seed)
        if args.format == "json":
            print(json.dumps(summary, indent=2, sort_keys=True))
        else:
            print(_format_suite_text(summary))
        return 0 if summary["passed"] else 1
    print(list_catalog(args.format))  # args.command == "catalog"
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
