"""Scenario configs: validation, normalization, round-trips, bundled files."""

import dataclasses
import json
from importlib import resources

import numpy as np
import pytest

import projlab as P
from projlab import ConfigError

BUNDLED = [
    "degenerate_three_halfspaces",
    "dr_affine_blend",
    "dr_affine_reflect",
    "dr_two_lines",
    "enlargement_injectability",
    "qff_suite",
    "reflection_projection_axes",
    "reflection_projection_orthant",
    "reflector_cycle_counterexample",
    "semi_intrepid_circles",
    "two_lines_angle_30",
    "two_lines_angle_45",
    "two_lines_angle_60",
]


def minimal_config(**overrides):
    cfg = {
        "name": "unit",
        "dimension": 2,
        "seed": 1,
        "sets": [
            {"type": "hyperplane", "a": [0.0, 1.0], "b": 0.0},
            {"type": "hyperplane", "a": [1.0, 0.0], "b": 0.0},
        ],
        "intersection": {"type": "finite_points", "points": [[0.0, 0.0]]},
        "anchor": [0.0, 0.0],
        "delta": 1.0,
        "operators": [
            {"type": "relaxed", "set": 0, "lambda": 1.0},
            {"type": "relaxed", "set": 1, "lambda": 1.0},
        ],
        "x0": [3.0, 4.0],
        "max_cycles": 50,
        "tol": 1e-10,
        "analyses": [],
        "expected": {},
    }
    cfg.update(overrides)
    return cfg


class TestParsing:
    def test_minimal_config_parses(self):
        sc = P.scenario_from_config(minimal_config())
        assert sc.name == "unit"
        assert sc.dimension == 2
        assert len(sc.sets) == 2
        assert len(sc.operators) == 2
        assert np.allclose(sc.x0, [3.0, 4.0])
        assert sc.expected == {}

    @pytest.mark.parametrize("name", ["..", ".", "a/b", "/abs", "a\\b", "a\0b", "../up"])
    def test_name_is_one_path_component(self, name):
        """The name becomes a directory below the output root."""
        with pytest.raises(ConfigError, match=r"^name: must be one path component: "):
            P.scenario_from_config(minimal_config(name=name))

    @pytest.mark.parametrize("name", ["...", ".hidden", "a.b", "a b", "..x"])
    def test_a_name_with_dots_is_still_one_component(self, name):
        assert P.scenario_from_config(minimal_config(name=name)).name == name

    def test_oracle_intersection_accepted(self):
        sc = P.scenario_from_config(minimal_config(intersection="oracle"))
        assert P.scenario_to_config(sc)["intersection"] == "oracle"
        assert isinstance(sc.intersection, P.IntersectionHandle)
        assert sc.intersection.members == sc.sets

    def test_exact_intersection_not_approximate(self):
        """A declared intersection is its catalog set, stored as parsed."""
        sc = P.scenario_from_config(minimal_config())
        assert not isinstance(sc.intersection, P.IntersectionHandle)
        assert sc.intersection.to_config() == minimal_config()["intersection"]

    def test_scenario_is_frozen(self):
        sc = P.scenario_from_config(minimal_config())
        with pytest.raises(Exception):
            sc.name = "other"


class TestValidation:
    @pytest.mark.parametrize(
        "mutate, fragment",
        [
            (lambda c: c.pop("name"), "name"),
            (lambda c: c.update(name=""), "name"),
            (lambda c: c.update(dimension=0), "dimension"),
            (lambda c: c.update(dimension=17), "dimension"),
            (lambda c: c.pop("seed"), "seed"),
            (lambda c: c.update(seed=-1), "seed"),
            (lambda c: c.update(sets=[]), "sets"),
            (lambda c: c.update(delta=0.0), "delta"),
            (lambda c: c.update(operators=[]), "operators"),
            (lambda c: c.update(max_cycles=0), "max_cycles"),
            (lambda c: c.update(tol=0.0), "tol"),
            (lambda c: c.update(analyses="nope"), "analyses"),
            (lambda c: c.update(expected=[1]), "expected"),
        ],
    )
    def test_field_errors_name_the_field(self, mutate, fragment):
        cfg = minimal_config()
        mutate(cfg)
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert fragment in str(exc.value)

    @pytest.mark.parametrize("key, value, message", [
        ("seed", True, "seed must be a nonnegative integer, got True"),
        ("max_cycles", True, "max_cycles must be a positive integer, got True"),
        ("dimension", True, "dimension must be a positive integer, got True"),
        ("dimension", 17, "dimension must lie in [1, 16], got 17.0"),
        ("delta", True, "delta must be a real number, got True"),
        ("delta", None, "delta must be a real number, got None"),
        ("delta", float("inf"), "delta must lie in (0, inf), got inf"),
        ("delta", float("nan"), "delta must lie in (0, inf), got nan"),
        ("tol", True, "tol must be a real number, got True"),
        ("tol", "1e-3", "tol must be a real number, got '1e-3'"),
        ("tol", float("inf"), "tol must lie in (0, inf), got inf"),
        pytest.param("tol", 10**400, "tol must lie in (0, inf), got inf", id="tol-1e400"),
    ], ids=[  # each case named by the rule it breaks, as first written
        "seed-True-seed: must be a nonnegative integer",
        "max_cycles-True-max_cycles: must be a positive integer",
        "dimension-True-dimension: must be an integer in [1, 16]",
        "dimension-17", "delta-True-delta: must be a positive number", "delta-None",
        "delta-inf-delta: must be a positive number", "delta-nan-delta: must be a positive number",
        "tol-True-tol: must be a positive number", "tol-string",
        "tol-inf-tol: must be a positive number", "tol-1e400"])
    def test_booleans_and_infinities_are_rejected(self, key, value, message):
        """Bundled two_lines_angle_45 with one top-level number replaced:
        JSON `true` is not 1, and `Infinity` is not a tolerance."""
        cfg = json.loads(
            (resources.files("projlab.scenarios") / "two_lines_angle_45.json").read_text())
        P.scenario_from_config(cfg)
        cfg[key] = value
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert str(exc.value) == message

    def test_infinite_tol_from_json_text_is_rejected(self, tmp_path):
        cfg = minimal_config()
        path = tmp_path / "inf.json"
        path.write_text(json.dumps(cfg).replace('"tol": 1e-10', '"tol": Infinity'))
        with pytest.raises(ConfigError, match=r"json: tol must lie in \(0, inf\), got inf"):
            P.load_scenario(path)

    def test_set_dimension_mismatch(self):
        cfg = minimal_config()
        cfg["sets"][0] = {"type": "hyperplane", "a": [0.0, 1.0, 0.0], "b": 0.0}
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert "sets[0]" in str(exc.value)

    def test_intersection_dimension_mismatch(self):
        cfg = minimal_config(
            intersection={"type": "finite_points", "points": [[0.0, 0.0, 0.0]]}
        )
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert "intersection" in str(exc.value)

    def test_anchor_must_belong_to_every_set(self):
        cfg = minimal_config(anchor=[0.0, 1.0])
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert "anchor" in str(exc.value)

    def test_anchor_must_belong_to_the_declared_intersection(self):
        cfg = minimal_config(intersection={"type": "finite_points", "points": [[0.3, 0.0]]})
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert str(exc.value) == \
            "anchor: w must belong to the intersection; distance is 3.000e-01"

    def test_x0_length(self):
        cfg = minimal_config(x0=[1.0])
        with pytest.raises(ConfigError):
            P.scenario_from_config(cfg)

    def test_unknown_analysis_kind(self):
        cfg = minimal_config(analyses=[{"kind": "mystery"}])
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert "mystery" in str(exc.value)

    def test_operator_set_index_out_of_range(self):
        cfg = minimal_config()
        cfg["operators"][0]["set"] = 5
        with pytest.raises(ConfigError):
            P.scenario_from_config(cfg)

    @pytest.mark.parametrize("mutate, message", [
        pytest.param(lambda c: c["sets"][1].update(radius=-1),
                     "sets[1]: ball radius must lie in [0, inf), got -1.0", id="ball_radius_negative"),
        pytest.param(lambda c: c["sets"][1].update(radius=float("nan")),
                     "sets[1]: ball radius must lie in [0, inf), got nan", id="ball_radius_nan"),
        pytest.param(lambda c: c["sets"][0].update(b=float("nan")),
                     "sets[0]: halfspace offset b must lie in (-inf, inf), got nan",
                     id="halfspace_b_nan"),
        pytest.param(lambda c: c["sets"].__setitem__(1, {"type": "enlargement", "tau": 0.1,
                                                         "inner": {"type": "sphere",
                                                                   "center": [0.0, 0.0],
                                                                   "radius": float("inf")}}),
                     "sets[1].inner: sphere radius must lie in (0, inf), got inf",
                     id="inner_sphere_radius_inf"),
        pytest.param(lambda c: c["operators"][0].update({"lambda": 3.0}),
                     "operators[0]: lambda must lie in (0, 2], got 3.0",
                     id="relaxed_lambda"),
    ])
    def test_constructor_errors_carry_the_key_path(self, mutate, message):
        """Bundled qff_suite with one set or operator scalar out of range."""
        cfg = json.loads((resources.files("projlab.scenarios") / "qff_suite.json").read_text())
        mutate(cfg)
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert str(exc.value) == message

    @pytest.mark.parametrize("idx", [True, False])
    def test_boolean_operator_set_index_is_rejected(self, idx):
        cfg = json.loads((resources.files("projlab.scenarios") / "qff_suite.json").read_text())
        cfg["operators"][0]["set"] = idx
        with pytest.raises(ConfigError) as exc:
            P.scenario_from_config(cfg)
        assert str(exc.value) == f"operators[0].set: must index the scenario sets, got {idx!r}"

    def test_top_level_must_be_object(self):
        with pytest.raises(ConfigError):
            P.scenario_from_config([1, 2, 3])


class TestReport:
    def test_numpy_scalars_become_python_values(self):
        got = P.scenario._jsonable({"a": np.float64(0.5), "b": [np.int64(3)], "c": np.bool_(True)})
        assert got == {"a": 0.5, "b": [3], "c": True}
        assert [type(v) for v in (got["a"], got["b"][0], got["c"])] == [float, int, bool]

    def test_a_number_that_is_not_finite_becomes_its_string(self):
        """A numpy scalar becomes its Python value before the finiteness
        test, so np.float64 inf is held as "inf" as a float inf is."""
        values = [np.float64("inf"), -float("inf"), np.float32("nan"), float("nan"), np.float64(0.5)]
        assert P.scenario._jsonable(values) == ["inf", "-inf", "nan", "nan", 0.5]
        assert P.scenario._jsonable(np.float64("inf")) == "inf"

    def test_a_rate_fit_with_no_expectation_adds_no_check(self):
        """Alternating projections on two lines at 30 degrees: the fit is
        reported, rho = cos^2(30 deg), and no check is made of it."""
        lines = [{"type": "hyperplane", "a": [0.0, 1.0], "b": 0.0},
                 {"type": "hyperplane", "a": [-0.5, 0.75 ** 0.5], "b": 0.0}]
        cfg = minimal_config(sets=lines, tol=1e-300, max_cycles=30,
                             analyses=[{"kind": "rate_fit", "label": "fit"}])
        report = P.execute_scenario(P.scenario_from_config(cfg))
        assert report["fit"]["fit"]["rho"] == pytest.approx(0.75, rel=1e-12)
        assert report["checks"] == [] and report["passed"]


class TestRoundTrip:
    def test_normalized_config_is_idempotent(self):
        cfg = minimal_config()
        sc1 = P.scenario_from_config(cfg)
        norm1 = P.scenario_to_config(sc1)
        sc2 = P.scenario_from_config(norm1)
        norm2 = P.scenario_to_config(sc2)
        assert norm1 == norm2

    @pytest.mark.parametrize("intersection", ["oracle", None])
    def test_config_keys_are_the_scenario_fields(self, intersection):
        cfg = minimal_config(**({"intersection": intersection} if intersection else {}))
        assert list(P.scenario_to_config(P.scenario_from_config(cfg))) \
            == [f.name for f in dataclasses.fields(P.Scenario)]

    def test_save_and_load(self, tmp_path):
        sc = P.scenario_from_config(minimal_config())
        path = tmp_path / "unit.json"
        P.save_scenario(sc, path)
        sc2 = P.load_scenario(path)
        assert P.scenario_to_config(sc) == P.scenario_to_config(sc2)

    def test_scenario_built_in_code_keeps_its_intersection(self):
        """The serialized intersection follows the set the Scenario holds, so
        a scenario built in code re-parses with the same intersection."""
        sc = P.load_bundled("two_lines_angle_45")
        direct = P.Scenario(sc.name, sc.dimension, sc.sets, sc.intersection, sc.anchor,
                            sc.delta, sc.operators, sc.x0, sc.max_cycles, sc.tol, sc.seed)
        oracle = P.scenario_from_config(minimal_config(intersection="oracle"))
        exact = P.scenario_from_config(minimal_config())
        for built in (direct, dataclasses.replace(oracle, intersection=exact.intersection)):
            cfg = P.scenario_to_config(built)
            assert cfg["intersection"] == built.intersection.to_config()
            assert P.scenario_from_config(cfg).intersection.to_config() == cfg["intersection"]
        swapped = dataclasses.replace(exact, intersection=oracle.intersection)
        assert P.scenario_to_config(swapped)["intersection"] == "oracle"
        reparsed = P.scenario_from_config(P.scenario_to_config(swapped))
        assert isinstance(reparsed.intersection, P.IntersectionHandle)

    def test_load_reports_json_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "name": "x",\n  oops\n}\n')
        with pytest.raises(ConfigError) as exc:
            P.load_scenario(path)
        msg = str(exc.value)
        assert "line 3" in msg
        assert "column" in msg

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            P.load_scenario(tmp_path / "absent.json")


# Verdict, stop reason and cycle count of each bundled scenario.  Trajectories
# start from the scenario's fixed x0, so these hold for any seed override.
SUITE_REFERENCE = {
    "degenerate_three_halfspaces": (True, "Converged", 1),
    "dr_affine_blend": (True, "Converged", 82),
    "dr_affine_reflect": (True, "Budget", 200),
    "dr_two_lines": (True, "Converged", 49),
    "enlargement_injectability": (True, "Converged", 1),
    "qff_suite": (True, "Converged", 1),
    "reflection_projection_axes": (True, "Budget", 30),
    "reflection_projection_orthant": (True, "Converged", 1),
    "reflector_cycle_counterexample": (True, "Budget", 30),
    "semi_intrepid_circles": (True, "Converged", 1),
    "two_lines_angle_30": (True, "Converged", 97),
    "two_lines_angle_45": (True, "Converged", 41),
    "two_lines_angle_60": (True, "Converged", 21),
}


class TestBundled:
    def test_reference_covers_every_bundled_scenario(self):
        assert sorted(SUITE_REFERENCE) == BUNDLED

    @pytest.mark.parametrize("name", BUNDLED)
    @pytest.mark.parametrize("seed", [None, 12345])
    def test_bundled_scenario_keeps_its_outcome(self, name, seed):
        report = P.execute_scenario(P.load_bundled(name), seed_override=seed)
        sc = report["scenario"]
        assert (report["passed"], sc["stop_reason"], sc["n_cycles"]) == SUITE_REFERENCE[name]

    def test_names(self):
        assert P.bundled_scenario_names() == BUNDLED

    @pytest.mark.parametrize("name", BUNDLED)
    def test_every_bundled_scenario_round_trips(self, name):
        sc = P.load_bundled(name)
        norm1 = P.scenario_to_config(sc)
        sc2 = P.scenario_from_config(norm1)
        assert norm1 == P.scenario_to_config(sc2)
        # normalized form also survives a JSON encode/decode cycle
        again = P.scenario_from_config(json.loads(json.dumps(norm1)))
        assert P.scenario_to_config(again) == norm1

    def test_every_anchor_lies_in_its_intersection(self):
        """Each bundled anchor is at distance 0 from its C, and moving a
        declared C off the anchor fails at parse time, even where the run
        and its analyses would still pass."""
        declared = 0
        for name in BUNDLED:
            sc = P.load_bundled(name)
            assert sc.intersection.distance(sc.anchor) == 0.0
            cfg = P.scenario_to_config(sc)
            if cfg["intersection"] != "oracle":
                declared += 1
                cfg["intersection"] = {"type": "finite_points",
                                       "points": [list(sc.anchor + 0.3)]}
                with pytest.raises(ConfigError, match="^anchor: w must belong to the "
                                                      "intersection; distance is "):
                    P.scenario_from_config(cfg)
        assert declared == 12

    def test_unknown_bundled_name(self):
        with pytest.raises(ConfigError):
            P.load_bundled("missing_scenario")

    def test_both_loaders_prefix_the_parse_step_error(self, tmp_path, monkeypatch):
        """One parse step reads the module's `scenario_from_config` when it
        runs, so a patched one is the one called, and prefixes its
        ConfigError with the file path or the bundled name."""
        def refuse(cfg):
            raise ConfigError(f"name: refused '{cfg['name']}'")

        monkeypatch.setattr(P.scenario, "scenario_from_config", refuse)
        path = tmp_path / "x.json"
        path.write_text(json.dumps(minimal_config()))
        with pytest.raises(ConfigError) as exc:
            P.load_scenario(path)
        assert str(exc.value) == f"{path}: name: refused 'unit'"
        with pytest.raises(ConfigError) as exc:
            P.scenario.load_bundled("two_lines_angle_45")
        assert str(exc.value) == "bundled 'two_lines_angle_45': name: refused 'two_lines_angle_45'"
