"""Config schema: every record rejects unknown keys with their key path,
modifiers need the key they modify, and the catalog names exactly the tags
that configs accept."""

import copy
import inspect
import json
import os
import subprocess
import sys
from importlib import resources

import numpy as np
import pytest

import projlab as P
from projlab import ConfigError
from projlab.operators import OPERATOR_TYPES
from projlab.scenario import ANALYSES, THEOREMS, check_analysis
from projlab.sets import SET_TYPES

from conftest import single_point
from test_scenario import BUNDLED, minimal_config


def _bundled_config(name):
    ref = resources.files("projlab.scenarios") / f"{name}.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def _set_records(path, record):
    yield path, record
    for key, value in record.items():
        if isinstance(value, dict):
            yield from _set_records(f"{path}.{key}", value)
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            for i, member in enumerate(value):
                yield from _set_records(f"{path}.{key}[{i}]", member)


def _records(cfg):
    """(key path, record) of every object a scenario config holds."""
    yield "", cfg
    if "expected" in cfg:
        yield "expected", cfg["expected"]
    for i, record in enumerate(cfg["sets"]):
        yield from _set_records(f"sets[{i}]", record)
    if isinstance(cfg["intersection"], dict):
        yield from _set_records("intersection", cfg["intersection"])
    for i, record in enumerate(cfg["operators"]):
        yield f"operators[{i}]", record
    for i, record in enumerate(cfg.get("analyses", [])):
        yield f"analyses[{i}]", record
        if "args" in record:
            yield f"analyses[{i}].args", record["args"]


# One generalized DR operator on the two sets of minimal_config.
_DR = {"type": "generalized_dr", "set_a": 0, "set_b": 1, "lambda": 1.0, "mu": 1.0, "alpha": 0.5}


def _error(cfg):
    with pytest.raises(ConfigError) as exc:
        P.scenario_from_config(cfg)
    return str(exc.value)


class TestUnknownKeys:
    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_record_level_names_the_key_path(self, name):
        cfg = _bundled_config(name)
        P.scenario_from_config(cfg)
        n_records = len(list(_records(cfg)))
        assert n_records >= 4
        for j in range(n_records):
            broken = copy.deepcopy(cfg)
            path, record = list(_records(broken))[j]
            record["bogus_key"] = 1
            key_path = f"{path}.bogus_key" if path else "bogus_key"
            assert _error(broken) == f"{key_path}: unknown key"

    def test_misspelled_expectation_no_longer_drops_the_check(self):
        cfg = _bundled_config("two_lines_angle_60")
        fit = cfg["analyses"][6]
        assert fit["kind"] == "rate_fit"
        fit["expect_rh"] = fit.pop("expect_rho")
        assert _error(cfg) == "analyses[6].expect_rh: unknown key"

    def test_bogus_set_key_and_misspelled_samples(self):
        cfg = _bundled_config("two_lines_angle_60")
        cfg["sets"][1]["bogus"] = True
        assert _error(cfg) == "sets[1].bogus: unknown key"
        cfg = _bundled_config("two_lines_angle_60")
        cfg["analyses"][0]["sampels"] = cfg["analyses"][0].pop("samples")
        assert _error(cfg) == "analyses[0].sampels: unknown key"

    def test_fejer_rule_key_is_gone(self):
        cfg = minimal_config(analyses=[
            {"kind": "quasi_firm_fejer", "operator": 0, "rule": "relaxed"}])
        assert _error(cfg) == "analyses[0].rule: unknown key"

    def test_nested_set_paths(self):
        cfg = minimal_config()
        cfg["sets"][0] = {"type": "union", "members": [
            {"type": "hyperplane", "a": [0.0, 1.0], "b": 0.0},
            {"type": "enlargement", "tau": 0.5,
             "inner": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0, "r": 2}}]}
        assert _error(cfg) == "sets[0].members[1].inner.r: unknown key"



class TestExpectValues:
    @pytest.mark.parametrize("record, message", [
        ({"kind": "strong_regularity", "expect": "Fail"},
         'analyses[1].expect: must be one of "pass", "fail", got "Fail"'),
        ({"kind": "strong_regularity", "expect": True},
         'analyses[1].expect: must be one of "pass", "fail", got true'),
        ({"kind": "injectable", "set": 0, "tau": 0.1, "expect": "failed"},
         'analyses[1].expect: must be one of "pass", "fail", got "failed"'),
        ({"kind": "obtuse_cone", "set": 0, "expect": "false"},
         'analyses[1].expect: must be one of true, false, got "false"'),
        ({"kind": "obtuse_cone", "set": 0, "expect": 1},
         "analyses[1].expect: must be one of true, false, got 1"),
        ({"kind": "affine_reduction", "expect": "intersection"},
         'analyses[1].expect: must be one of "Intersection", "FixedPointShadow", '
         'got "intersection"'),
    ], ids=["strong-capitalised", "strong-boolean", "injectable-typo", "obtuse-string",
            "obtuse-number", "affine-typo"])
    def test_bad_expect_names_the_key_path(self, record, message):
        cfg = minimal_config(analyses=[{"kind": "rate_fit"}, record])
        assert _error(cfg) == message

    @pytest.mark.parametrize("record", [
        {"kind": "strong_regularity", "expect": "pass"},
        {"kind": "strong_regularity", "expect": "fail"},
        {"kind": "injectable", "set": 0, "tau": 0.1, "expect": "fail"},
        {"kind": "obtuse_cone", "set": 0, "expect": False},
        {"kind": "obtuse_cone", "set": 0},
    ], ids=["strong-pass", "strong-fail", "injectable-fail", "obtuse-false", "obtuse-default"])
    def test_valid_expect_values_parse(self, record):
        P.scenario_from_config(minimal_config(analyses=[record]))

    def test_capitalised_expectation_no_longer_passes(self):
        cfg = _bundled_config("degenerate_three_halfspaces")
        assert cfg["analyses"][0]["expect"] == "fail"
        cfg["analyses"][0]["expect"] = "Fail"
        assert _error(cfg).startswith('analyses[0].expect: must be one of "pass", "fail"')


def _sampled_analyses(delta, **kwargs):
    """The seven sampled analyses on a halfspace through the origin,
    anchored at the origin, each called with kwargs.  All but the last are
    called with delta too; estimate_theta_bar, last, uses only the normal
    cones at the anchor and takes no delta."""
    a = P.Halfspace(np.array([1.0, 0.0]), 0.0)
    w = np.zeros(2)
    op = P.RelaxedProjector(a, 1.0)
    return [
        lambda: P.estimate_eps_regularity(a, w, delta, **kwargs),
        lambda: P.estimate_linear_regularity([a], a, w, delta, **kwargs),
        lambda: P.check_strong_regularity([a], w, delta, **kwargs),
        lambda: P.check_quasi_firm_fejer(op, a, 1.0, 0.0, w, delta, **kwargs),
        lambda: P.check_quasi_coercive(op, a, 1.0, w, delta, **kwargs),
        lambda: P.check_injectable(a, 0.1, w, delta, **kwargs),
        lambda: P.estimate_theta_bar(a, a, w, **kwargs),
    ]


# Bad per-record overrides and their messages; each case's id names the rule
# it breaks, as the case was first written.
_OVERRIDE_RULES = {"delta": "positive number", "samples": "positive integer",
                   "seed": "nonnegative integer"}
_OVERRIDES = [
    ("delta", -1, "delta must lie in (0, inf), got -1.0"),
    ("delta", 0.0, "delta must lie in (0, inf), got 0.0"),
    ("delta", "x", "delta must be a real number, got 'x'"),
    ("delta", True, "delta must be a real number, got True"),
    ("delta", float("inf"), "delta must lie in (0, inf), got inf"),
    ("samples", 0, "samples must be a positive integer, got 0"),
    ("samples", -5, "samples must be a positive integer, got -5"),
    ("samples", 2.5, "samples must be a positive integer, got 2.5"),
    ("samples", True, "samples must be a positive integer, got True"),
    ("seed", -1, "seed must be a nonnegative integer, got -1"),
    ("seed", 1.5, "seed must be a nonnegative integer, got 1.5"),
    ("seed", "7", "seed must be a nonnegative integer, got '7'"),
]


class TestSamplingOverrides:
    """Per-record samples, seed and delta are checked at parse time, and the
    sampled analyses themselves reject a delta that is not positive and a
    samples that is not a positive integer."""

    @pytest.mark.parametrize("key, value, message", _OVERRIDES,
                             ids=[f"{key}-{value}-{key}: must be a {_OVERRIDE_RULES[key]}"
                                  for key, value, _ in _OVERRIDES])
    def test_bad_override_names_the_key_path(self, key, value, message):
        cfg = _bundled_config("degenerate_three_halfspaces")
        cfg["analyses"][2][key] = value
        assert _error(cfg) == f"analyses[2]: {message}"

    def test_valid_overrides_are_used(self):
        cfg = _bundled_config("degenerate_three_halfspaces")
        cfg["analyses"][0].update(samples=40, seed=3, delta=0.25)
        report = P.execute_scenario(P.scenario_from_config(cfg))
        zeta = report["constants"]["zeta_all"]
        assert (zeta["samples"], zeta["seed"], zeta["delta"]) == (40, 3, 0.25)

    def test_records_without_samples_take_the_library_default(self):
        """A record that gives no samples reports the default of the library
        function its kind calls (obtuse_cone adds the cone's polar rays)."""
        calls = {  # kind -> (library function, record keys)
            "estimate_eps": (P.estimate_eps_regularity, {"set": 0}),
            "estimate_kappa": (P.estimate_linear_regularity, {}),
            "estimate_theta_bar": (P.estimate_theta_bar, {}),
            "strong_regularity": (P.check_strong_regularity, {"sets": [0, 1]}),
            "quasi_firm_fejer": (P.check_quasi_firm_fejer, {"operator": 0}),
            "quasi_coercive": (P.check_quasi_coercive, {"operator": 0}),
            "injectable": (P.check_injectable, {"set": 0, "tau": 0.1, "expect": "fail"}),
            "obtuse_cone": (P.is_obtuse_cone, {"set": 2}),
            "affine_identities": (P.verify_affine_identities, {"set": 0}),
        }
        assert sorted(calls) == sorted(k for k, spec in ANALYSES.items() if "samples" in spec.keys)
        cfg = minimal_config(analyses=[{"kind": k, "label": k, **keys}
                                       for k, (_, keys) in calls.items()])
        cfg["sets"].append({"type": "orthant", "signs": [1, 1]})
        report = P.execute_scenario(P.scenario_from_config(cfg))
        reported = {c["name"]: c["samples"] for c in report["checks"] if "samples" in c}
        reported.update((k, c["samples"]) for k, c in report["constants"].items())
        polar_rays = len(P.Orthant((1, 1)).polar_generators())
        for kind, (fn, _) in calls.items():
            default = inspect.signature(fn).parameters["samples"].default
            assert reported[kind] == default + (polar_rays if kind == "obtuse_cone" else 0), kind

    @pytest.mark.parametrize("delta", [0.0, -1.0, float("nan"), float("inf")])
    def test_sampled_analyses_reject_bad_delta(self, delta):
        for call in _sampled_analyses(delta)[:-1]:
            with pytest.raises(P.DomainError, match="delta"):
                call()

    @pytest.mark.parametrize("samples", [0, -3, 2.5, True, "10", None])
    def test_sampled_analyses_reject_bad_samples(self, samples):
        for call in _sampled_analyses(1.0, samples=samples):
            with pytest.raises(P.DomainError, match="samples must be a positive integer"):
                call()

    def test_sampled_analyses_take_numpy_integer_samples(self):
        for call in _sampled_analyses(1.0, samples=np.int64(12)):
            assert call().samples == 12


class TestLabels:
    """A label is a nonempty string that no other record's label, given or
    default, repeats.  Each was found only after the trajectory had run,
    and a check's repeated label not at all."""

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a[1].update(label=5), "analyses[1].label: must be a nonempty string"),
        (lambda a: a[1].update(label=""), "analyses[1].label: must be a nonempty string"),
        (lambda a: a.append({"kind": "estimate_kappa"}),
         "analyses[12].label: duplicate label 'kappa'"),
        (lambda a: a[8].update(label="vs_convex"),
         "analyses[8].label: duplicate label 'vs_convex'"),
    ], ids=["number", "empty", "default_kappa", "check"])
    def test_bad_label_fails_at_parse_time(self, edit, message):
        cfg = _bundled_config("two_lines_angle_45")
        edit(cfg["analyses"])
        assert _error(cfg) == message


class TestRecordNumbers:
    """The numbers an analysis record carries are checked at parse time, not
    coerced: a string, a boolean, a fraction where an integer belongs or a
    non-finite value is a ConfigError at its key path, in the library's
    words."""

    @pytest.mark.parametrize("record, message", [
        ({"kind": "rate_fit", "tail_fraction": "0.5"},
         ": tail_fraction must be a real number, got '0.5'"),
        ({"kind": "rate_fit", "burn_in": True},
         ": burn_in must be a nonnegative integer, got True"),
        ({"kind": "rate_fit", "expect_rho": "0.5"},
         ": expect_rho must be a real number, got '0.5'"),
        ({"kind": "rate_fit", "expect_rho": 0.5, "expect_tol": float("inf")},
         ": expect_tol must lie in [0, inf), got inf"),
        ({"kind": "compare", "certificate": "@cert", "slack": "0.5"},
         ": slack must be a real number, got '0.5'"),
        ({"kind": "quasi_coercive", "operator": 0, "expect_equality": True,
          "equality_tol": True}, ": equality_tol must be a real number, got True"),
        ({"kind": "cycle_detect", "tol": None}, ": tol must be a real number, got None"),
        ({"kind": "k_step", "k": 2.9, "rho_bound": 0.5}, ": k must be a positive integer, got 2.9"),
        ({"kind": "cycle_detect", "expect_period": "2"},
         ": expect_period must be a positive integer, got '2'"),
        ({"kind": "strong_regularity", "expect_min": float("nan")},
         ": expect_min must lie in [0, 1], got nan"),
        ({"kind": "cycle_detect", "expect_states": [["a", "b"]]},
         ".expect_states[0]: vector[0] must be a real number, got 'a'"),
        ({"kind": "cycle_detect", "expect_states": [[0.0, 1.0], [0.0, 1.0, 2.0]]},
         ".expect_states[1]: expected dimension 2, got 3"),
        ({"kind": "cycle_detect", "expect_states": [[0.0, float("inf")]]},
         ".expect_states[0]: vector entries must be finite"),
        ({"kind": "cycle_detect", "expect_states": [0.0, 1.0]},
         ".expect_states[0]: expected a 1-D vector, got shape ()"),
        ({"kind": "cycle_detect", "expect_states": [[0.0], [0.0, 1.0]]},
         ".expect_states[0]: expected dimension 2, got 1"),
        ({"kind": "cycle_detect", "expect_states": [[0.0, [1.0, 2.0]]]},
         ".expect_states[0]: vector is not a rectangular array"),
        ({"kind": "cycle_detect", "expect_states": []},
         ".expect_states: must be a nonempty list of states"),
    ], ids=["tail_fraction", "burn_in", "expect_rho", "expect_tol", "slack", "equality_tol",
            "tol", "k", "expect_period", "expect_min",
            "state_strings", "state_length", "state_infinite", "states_flat", "state_short",
            "state_ragged", "states_empty"])
    def test_bad_number_names_the_key_path(self, record, message):
        assert _error(minimal_config(analyses=[{"kind": "rate_fit"}, record])) == \
            f"analyses[1]{message}"

    @pytest.mark.parametrize("record, key, bad, edges", [
        ({"kind": "rate_fit", "expect_rho": 0.5}, "expect_tol", -1.0, (0.0,)),
        ({"kind": "quasi_coercive", "operator": 0, "expect_equality": True},
         "equality_tol", -1e-12, (0.0,)),
        ({"kind": "rate_fit"}, "expect_rho", -0.5, (0.0,)),
        ({"kind": "strong_regularity"}, "expect_min", -0.1, (0.0, 1.0)),
        ({"kind": "strong_regularity"}, "expect_min", 1.5, (0.0, 1.0)),
    ], ids=["expect_tol", "equality_tol", "expect_rho", "expect_min_below",
            "expect_min_above"])
    def test_expect_numbers_take_the_interval_of_what_they_bound(self, record, key, bad, edges):
        """Tolerances and rates are nonnegative and a zeta floor lies in
        [0, 1].  A negative expect_tol turned a fit into a FAIL, and a
        negative expect_min let the floor pass whatever zeta read; each is
        a ConfigError at its key path, and the interval's ends parse."""
        interval = "[0, 1]" if key == "expect_min" else "[0, inf)"
        assert _error(minimal_config(analyses=[{**record, key: bad}])) == \
            f"analyses[0]: {key} must lie in {interval}, got {bad!r}"
        for edge in edges:
            P.scenario_from_config(minimal_config(analyses=[{**record, key: edge}]))

    def test_negative_expect_tol_on_dr_affine_blend_fails_to_parse(self):
        cfg = _bundled_config("dr_affine_blend")
        (i, fit), = [(i, a) for i, a in enumerate(cfg["analyses"]) if a["kind"] == "rate_fit"]
        fit["expect_tol"] = -1
        assert _error(cfg) == f"analyses[{i}]: expect_tol must lie in [0, inf), got -1.0"

    @pytest.mark.parametrize("key, value", [("tau", -1.0), ("tau", True), ("nu", 0.0),
                                            ("nu", None), ("rho_bound", float("nan")),
                                            ("rho_bound", True), ("lambda", 3.0)])
    def test_literal_resolved_values_are_checked_at_parse_time(self, key, value):
        """A literal number where an "@label" may stand is checked when the
        scenario parses; a NaN rho_bound made a failing report with a NaN
        margin."""
        record = {"tau": {"kind": "injectable", "set": 0},
                  "nu": {"kind": "quasi_coercive", "operator": 0},
                  "rho_bound": {"kind": "k_step"},
                  "lambda": {"kind": "affine_identities", "set": 0}}[key]
        assert _error(minimal_config(analyses=[{**record, key: value}])).startswith(
            f"analyses[0]: {key} must ")

    @pytest.mark.parametrize("key, bad, interval, edges", [
        ("eps", 5, "[0, 1)", (0.0, 0.5)),
        ("eps", -0.1, "[0, 1)", (0.0,)),
        ("eps1", 0.5, "[0, 0.3333333333333333]", (0.0, 1.0 / 3.0)),
        ("eps2", 1.0, "[0, 1)", (0.0, 0.5)),
    ], ids=["eps_above", "eps_below", "eps1", "eps2"])
    def test_fejer_error_levels_take_their_interval(self, key, bad, interval, edges):
        """`"eps": 5` parsed and failed only when the scenario ran, without
        its key path; each error level is checked like any number here, in
        the interval its rates function takes."""

        def config(value):  # eps is a relaxed projector's level, eps1 and eps2 a DR step's
            ops = {} if key == "eps" else {"operators": [_DR]}
            return minimal_config(**ops, analyses=[
                {"kind": "quasi_firm_fejer", "operator": 0, key: value}])

        assert _error(config(bad)) == \
            f"analyses[0]: {key} must lie in {interval}, got {float(bad)!r}"
        for edge in edges:
            P.scenario_from_config(config(edge))

    @pytest.mark.parametrize("key, resolved, interval", [
        ("eps1", 0.5, "[0, 0.3333333333333333]"), ("eps2", 1.0, "[0, 1)")])
    def test_resolved_dr_error_levels_are_checked_at_the_record(self, key, resolved, interval):
        """A resolved eps1 or eps2 out of its interval is a ConfigError at
        the record's key path, raised before the operator's constants."""
        sc = P.scenario_from_config(minimal_config(operators=[_DR], analyses=[
            {"kind": "quasi_firm_fejer", "operator": 0, "refset": "intersection",
             key: {"value": resolved / 2, "times": 2}}]))
        with pytest.raises(ConfigError) as exc:
            P.execute_scenario(sc)
        assert str(exc.value) == f"analyses[0]: {key} must lie in {interval}, got {resolved!r}"

    def test_negative_cycle_tolerance_fails_at_parse_time(self):
        """detect_cycle found nothing, silently, with a negative tol."""
        cfg = minimal_config(analyses=[{"kind": "cycle_detect", "tol": -1e-12}])
        assert _error(cfg) == "analyses[0]: tol must lie in [0, inf), got -1e-12"

    @pytest.mark.parametrize("value", ["false", "true", 0, 1, None])
    @pytest.mark.parametrize("name, index, key", [
        ("two_lines_angle_60", 6, "expect_non_convergent"),
        ("qff_suite", 13, "expect_equality"),
    ], ids=["expect_non_convergent", "expect_equality"])
    def test_flags_must_be_json_booleans(self, name, index, key, value):
        """A string or number flag was read as truthy: "false" turned the
        rate_fit check below into a FAIL."""
        cfg = _bundled_config(name)
        cfg["analyses"][index][key] = value
        assert _error(cfg) == \
            f"analyses[{index}].{key}: must be true or false, got {json.dumps(value)}"

    @pytest.mark.parametrize("arithmetic, key", [
        ({"value": 0.5, "times": "2"}, "times"),
        ({"value": 0.5, "plus": True}, "plus"),
        ({"value": 0.5, "clamp_min": float("nan")}, "clamp_min"),
        ({"value": 0.5, "clamp_max": None}, "clamp_max"),
    ])
    def test_arithmetic_operands_are_checked(self, arithmetic, key):
        sc = P.scenario_from_config(minimal_config(analyses=[
            {"kind": "k_step", "rho_bound": arithmetic}]))
        with pytest.raises(ConfigError) as exc:
            P.execute_scenario(sc)
        assert str(exc.value).startswith(f"analyses[0].rho_bound.{key} must ")

    def test_theorem_count_is_not_truncated(self):
        sc = P.scenario_from_config(minimal_config(analyses=[
            {"kind": "certificate", "theorem": "rate_cyclic_projections",
             "args": {"m": 2.9, "eps": 0.0, "kappa": 2.0}}]))
        with pytest.raises(ConfigError) as exc:
            P.execute_scenario(sc)
        assert str(exc.value) == "analyses[0].args.m must be a whole number, got 2.9"


class TestVectorEntries:
    """A bool or a string where a vector entry belongs is a ConfigError at the
    field's key path that names the entry; np.asarray read ["0", False] as
    (0, 0)."""

    @pytest.mark.parametrize("overrides, message", [
        ({"anchor": ["0", False]}, "anchor: vector[0] must be a real number, got '0'"),
        ({"anchor": [0.0, False]}, "anchor: vector[1] must be a real number, got False"),
        ({"x0": ["1.5", "2"]}, "x0: vector[0] must be a real number, got '1.5'"),
        ({"x0": [3.0, True]}, "x0: vector[1] must be a real number, got True"),
        ({"x0": [3.0, None]}, "x0: vector[1] must be a real number, got None"),
        ({"analyses": [{"kind": "cycle_detect", "expect_states": [[0.0, 0.0], ["0", "0"]]}]},
         "analyses[0].expect_states[1]: vector[0] must be a real number, got '0'"),
        ({"analyses": [{"kind": "cycle_detect", "expect_states": [[False, 0.0]]}]},
         "analyses[0].expect_states[0]: vector[0] must be a real number, got False"),
    ], ids=["anchor_string", "anchor_bool", "x0_strings", "x0_bool", "x0_null",
            "state_strings", "state_bool"])
    def test_scenario_vectors(self, overrides, message):
        assert _error(minimal_config(**overrides)) == message

    @pytest.mark.parametrize("record, message", [
        ({"type": "ball", "center": ["0", "0"], "radius": 1.0},
         ": center[0] must be a real number, got '0'"),
        ({"type": "ball", "center": [0.0, 0.0], "radius": "1"},
         ": radius must be a real number, got '1'"),
        ({"type": "ball", "center": [0.0, 0.0], "radius": True},
         ": radius must be a real number, got True"),
        ({"type": "ball", "center": [0.0, 0.0], "radius": None},
         ": radius must be a real number, got None"),
        ({"type": "affine", "anchor": [0.0, 0.0], "basis": [[1.0, False]]},
         ": basis[0][1] must be a real number, got False"),
        ({"type": "orthant", "signs": [1, True]}, ": signs[1] must be a real number, got True"),
        ({"type": "union", "members": [{"type": "ball", "center": [0.0, "0"], "radius": 1.0}]},
         ".members[0]: center[1] must be a real number, got '0'"),
    ], ids=["center", "radius_string", "radius_bool", "radius_null", "basis", "signs",
            "nested"])
    def test_set_records(self, record, message):
        cfg = minimal_config()
        cfg["sets"][1] = record
        assert _error(cfg) == f"sets[1]{message}"

    @pytest.mark.parametrize("value", ["0.5", True], ids=["string", "bool"])
    @pytest.mark.parametrize("tag, key", [
        ("relaxed", "lambda"), ("semi_intrepid", "alpha"), ("semi_intrepid", "tau"),
        ("generalized_dr", "lambda"), ("generalized_dr", "mu"), ("generalized_dr", "alpha"),
    ])
    def test_operator_records(self, tag, key, value):
        """float() read "0.5" as 0.5 and True as 1.0, both admissible values."""
        cfg = minimal_config()
        cfg["operators"][1] = {"type": tag, **OPERATOR_SAMPLES[tag], key: value}
        assert _error(cfg) == f"operators[1]: {key} must be a real number, got {value!r}"

    def test_numbers_still_parse(self):
        cfg = minimal_config(anchor=[0, 0.0], x0=[3, 4.0])
        cfg["operators"][0]["lambda"] = 1
        sc = P.scenario_from_config(cfg)
        assert sc.x0.tolist() == [3.0, 4.0]
        assert sc.operators.members[0].lam == 1.0


class TestModifiersAndRequiredKeys:
    @pytest.mark.parametrize("record, message", [
        ({"kind": "rate_fit", "expect_tol": 0.01},
         "analyses[0].expect_tol: given without 'expect_rho'"),
        ({"kind": "quasi_coercive", "operator": 0, "equality_tol": 1e-9},
         "analyses[0].equality_tol: given without 'expect_equality'"),
        ({"kind": "k_step", "k": 2},
         "analyses[0].k: given without 'rho_bound'"),
        ({"kind": "injectable", "set": 0},
         "analyses[0].tau: missing required key"),
        ({"kind": "certificate", "theorem": "rate_dist_qf"},
         "analyses[0].theorem: unknown certificate theorem 'rate_dist_qf'"),
        ({"kind": "certificate", "theorem": "rate_convex_cyclic",
          "args": {"lambdas": [1.0, 1.0], "kappa": 2.0, "eps": 0.0}},
         "analyses[0].args.eps: unknown key"),
        ({"kind": "certificate", "theorem": "rate_convex_cyclic", "args": {"lambdas": [1.0]}},
         "analyses[0].args.kappa: missing required key"),
        # a k_step bounds by a certificate or by rho_bound (with its k), not both
        ({"kind": "k_step", "certificate": "@cert", "k": 2, "rho_bound": 0.5},
         "analyses[0].rho_bound: given with 'certificate'"),
        ({"kind": "k_step"}, "analyses[0]: need 'certificate' or 'rho_bound'"),
    ])
    def test_rejected_at_parse_time(self, record, message):
        assert _error(minimal_config(analyses=[record])) == message

    def test_operator_record_keys(self):
        cfg = minimal_config()
        cfg["operators"][1]["lam"] = cfg["operators"][1].pop("lambda")
        assert _error(cfg) == "operators[1].lam: unknown key"

    def test_expected_keys(self):
        assert _error(minimal_config(expected={"stop": "Converged"})) == \
            "expected.stop: unknown key"

    def test_arithmetic_keys_checked_when_resolved(self):
        sc = P.scenario_from_config(minimal_config(analyses=[
            {"kind": "k_step", "rho_bound": {"value": 0.5, "tims": 2}}]))
        with pytest.raises(ConfigError, match=r"analyses\[0\]\.rho_bound\.tims: unknown key"):
            P.execute_scenario(sc)

    def test_fejer_constants_follow_the_operator_type(self):
        sc = P.scenario_from_config(minimal_config(analyses=[
            {"kind": "quasi_firm_fejer", "operator": 0, "eps1": 0.1}]))
        with pytest.raises(ConfigError, match=r"analyses\[0\]\.eps1: not a constant of a relaxed"):
            P.execute_scenario(sc)


class TestSetLists:
    """A record's `sets` is checked at parse time: strong_regularity takes
    at least two distinct set indices and estimate_theta_bar exactly two,
    each naming one of the scenario's sets."""

    @pytest.mark.parametrize("sets", [[], [0], [0, 0], 5, "01", [0, True], [0, 1.0], None],
                             ids=["empty", "one", "repeated", "int", "str", "bool", "float",
                                  "null"])
    def test_strong_regularity(self, sets):
        cfg = _bundled_config("degenerate_three_halfspaces")
        assert cfg["analyses"][1]["expect"] == "pass"
        cfg["analyses"][1]["sets"] = sets
        assert _error(cfg) == ("analyses[1].sets: must be a list of at least two distinct "
                               f"set indices, got {json.dumps(sets)}")

    @pytest.mark.parametrize("sets", [[0, 1, 2], [0], [], 1, [0, False]],
                             ids=["three", "one", "empty", "int", "bool"])
    def test_theta_bar(self, sets):
        cfg = _bundled_config("two_lines_angle_45")
        assert cfg["analyses"][2]["kind"] == "estimate_theta_bar"
        cfg["analyses"][2]["sets"] = sets
        assert _error(cfg) == \
            f"analyses[2].sets: must be a list of two set indices, got {json.dumps(sets)}"

    def test_index_range_is_checked_at_parse_time(self):
        cfg = _bundled_config("degenerate_three_halfspaces")
        cfg["analyses"][1]["sets"] = [0, 3]
        assert _error(cfg) == "analyses[1].sets[1]: set index out of range"

    @pytest.mark.parametrize("name, index, key, what", [
        ("two_lines_angle_45", 1, "set", "set"),
        ("qff_suite", 2, "operator", "operator"),
        ("qff_suite", 2, "refset", "set"),
    ])
    def test_boolean_index_is_rejected_at_parse_time(self, name, index, key, what):
        """JSON true is no index, though a Python bool is an int."""
        cfg = _bundled_config(name)
        cfg["analyses"][index][key] = True
        assert _error(cfg) == f"analyses[{index}].{key}: {what} index out of range"

    @pytest.mark.parametrize("record, message", [
        ({"kind": "estimate_eps", "set": 2}, "set: set index out of range"),
        ({"kind": "estimate_theta_bar"}, "sets[1]: set index out of range"),
        ({"kind": "quasi_firm_fejer", "operator": 0, "refset": "inner"},
         "refset: set index out of range"),
        ({"kind": "quasi_coercive", "operator": 0, "cset": 1.0}, "cset: set index out of range"),
        ({"kind": "quasi_coercive", "operator": -1}, "operator: operator index out of range"),
    ], ids=["set", "theta_default_pair", "refset_word", "cset_float", "operator"])
    def test_indices_name_the_scenario_sets(self, record, message):
        """Checked against a one-set, one-operator scenario, so
        estimate_theta_bar's default pair [0, 1] names a missing set."""
        cfg = minimal_config(analyses=[record])
        cfg["sets"] = cfg["sets"][:1]
        cfg["operators"] = cfg["operators"][:1]
        assert _error(cfg) == f"analyses[0].{message}"

    def test_theta_bar_takes_no_delta(self):
        """estimate_theta_bar uses only the normal cones at the anchor, so
        its record takes no delta and its estimate records delta 0."""
        cfg = _bundled_config("two_lines_angle_45")
        cfg["analyses"][2]["delta"] = 0.5
        assert _error(cfg) == "analyses[2].delta: unknown key"
        est = P.estimate_theta_bar(P.Halfspace(np.array([1.0, 0.0]), 0.0),
                                   P.Halfspace(np.array([-1.0, 1.0]), 0.0), np.zeros(2))
        assert est.delta == 0.0


# One buildable record per catalog name.
SET_SAMPLES = {
    "halfspace": {"a": [1.0, 0.0], "b": 1.0},
    "hyperplane": {"a": [0.0, 1.0], "b": 0.0},
    "affine": {"anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]},
    "ball": {"center": [0.0, 0.0], "radius": 1.0},
    "sphere": {"center": [0.0, 0.0], "radius": 1.0},
    "box": {"lower": [0.0, 0.0], "upper": [1.0, 2.0]},
    "orthant": {"signs": [1, 0]},
    "cone": {"generators": [[1.0, 0.0], [1.0, 1.0]]},
    "enlargement": {"inner": {"type": "ball", "center": [0.0, 0.0], "radius": 1.0}, "tau": 0.5},
    "union": {"members": [{"type": "ball", "center": [0.0, 0.0], "radius": 1.0},
                          {"type": "finite_points", "points": [[3.0, 0.0]]}]},
    "finite_points": {"points": [[0.0, 0.0], [1.0, 1.0]]},
    "translate": {"inner": {"type": "orthant", "signs": [1, 1]}, "shift": [1.0, 2.0]},
}
OPERATOR_SAMPLES = {
    "relaxed": {"set": 0, "lambda": 1.5},
    "semi_intrepid": {"set": 1, "alpha": 0.5, "tau": 0.3},
    "generalized_dr": {"set_a": 0, "set_b": 1, "lambda": 2.0, "mu": 1.0, "alpha": 0.5},
}
THEOREM_SAMPLES = {
    "rate_cyclic_projections": {"m": 2, "eps": 0.0, "kappa": 2.0},
    "rate_convex_cyclic": {"lambdas": [1.0, 1.0], "kappa": 2.0},
    "rate_cyclic_relaxed": {"lambdas": [1.0, 1.0], "eps": 0.0, "kappa": 2.0},
    "rate_cyclic_overrelaxed": {"lambdas": [1.5, 1.5], "eps": 0.0, "kappa": 2.0},
    "rate_cyclic_semi_intrepid": {"alphas": [0.5, 0.5], "eps": 0.0, "kappa": 2.0},
    "rate_refined": {"gammas": [1.0, 1.0], "betas": [1.0, 1.0], "kappa": 2.0},
    "rate_dist_qff": {"gammas": [1.0, 1.0], "betas": [1.0, 1.0], "nu": 0.5, "kappa": 2.0},
    "rate_cyclic_dr": {"gammas": [1.0], "betas": [1.0], "nu": 0.5, "kappa": 2.0},
    "rate_dr_pair": {"lambda": 1.0, "mu": 1.0, "alpha": 0.5, "theta": 0.5, "kappa": 2.0},
}


class TestCatalog:
    @pytest.fixture(scope="class")
    def catalog(self):
        return json.loads(P.list_catalog("json"))

    def test_names_are_the_table_tags(self, catalog):
        assert [e["name"] for e in catalog["sets"]] == list(SET_TYPES) == list(SET_SAMPLES)
        assert [e["name"] for e in catalog["operators"]] == list(OPERATOR_TYPES) \
            == list(OPERATOR_SAMPLES)
        assert [e["name"] for e in catalog["theorems"]] == list(THEOREMS) == list(THEOREM_SAMPLES)
        assert [e["name"] for e in catalog["analyses"]] == list(ANALYSES)

    def test_every_set_builds(self, catalog):
        for entry in catalog["sets"]:
            record = {"type": entry["name"], **SET_SAMPLES[entry["name"]]}
            assert sorted(entry["keys"]) == sorted(SET_SAMPLES[entry["name"]])
            cfg = P.set_from_config(record).to_config()
            assert json.loads(json.dumps(cfg)) == cfg
            assert P.set_from_config(cfg).to_config() == cfg

    def test_every_operator_builds(self, catalog):
        sets = [P.Hyperplane(np.array([0.0, 1.0]), 0.0), P.Ball(np.zeros(2), 1.0)]
        for entry in catalog["operators"]:
            record = {"type": entry["name"], **OPERATOR_SAMPLES[entry["name"]]}
            assert entry["keys"] == list(OPERATOR_SAMPLES[entry["name"]])
            op = P.operator_from_config(record, sets)
            assert P.operator_to_config(op, sets) == record

    def test_every_theorem_builds(self, catalog):
        analyses = [{"kind": "certificate", "label": e["name"], "theorem": e["name"],
                     "args": THEOREM_SAMPLES[e["name"]]} for e in catalog["theorems"]]
        report = P.execute_scenario(P.scenario_from_config(minimal_config(analyses=analyses)))
        assert sorted(report["certificates"]) == sorted(THEOREMS)
        for label, cert in report["certificates"].items():
            assert cert["applicable"] and 0.0 < cert["rho_block"] < 1.0, label
            assert ("derived" in cert) == (label == "rate_dr_pair")

    def test_every_analysis_kind_validates(self, catalog):
        for entry in catalog["analyses"]:
            spec = ANALYSES[entry["name"]]
            record = {"kind": entry["name"], **{key: 0 for key in spec.required}}
            if entry["name"] == "certificate":
                record.update(theorem="rate_convex_cyclic", args={"lambdas": [1.0], "kappa": 1.0})
            if entry["name"] == "k_step":
                record.update(rho_bound=0.5)
            check_analysis(record, "analysis", 2, 2, 1)


def test_verify_is_serial_by_default(capsys):
    """verify runs the suite serially and offers no thread-pool option."""
    assert not hasattr(P.cli.build_parser().parse_args(["verify"]), "workers")
    assert P.main(["verify", "--workers", "4"]) == 2
    assert "--workers" in capsys.readouterr().err


def test_probe_fallback_spans_a_custom_set():
    class Segment(P.ClosedSet):
        """[0, 1] x {0} in the plane; no closed-form hull."""

        dim = 2

        def project(self, x):
            return single_point(x, np.array([min(max(x[0], 0.0), 1.0), 0.0]))

    L = P.affine_hull([Segment()], seed=1)
    assert L.subspace_dim == 1
    assert np.allclose(np.abs(L.basis), [[1.0, 0.0]])


def test_module_entry_point_runs_cleanly():
    src = os.path.dirname(os.path.dirname(os.path.abspath(P.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-m", "projlab", "catalog"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0
    assert done.stderr == ""
    assert "generalized_dr" in done.stdout
