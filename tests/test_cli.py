"""Command-line interface: exit codes, output layout, report shape."""

import contextlib
import hashlib
import io
import json
import os
from importlib import resources

import numpy as np
import pytest

import projlab as P

from test_scenario import minimal_config


def _strip_timing(obj):
    if isinstance(obj, dict):
        return {
            k: _strip_timing(v) for k, v in obj.items() if k != "timing"
        }
    if isinstance(obj, list):
        return [_strip_timing(v) for v in obj]
    return obj


def _verify_digest(seed):
    """sha256 of the `verify --format json` report with every `timing` key
    removed, re-dumped with indent=2 and sorted keys."""
    argv = ["verify", "--format", "json"] + ([] if seed is None else ["--seed", str(seed)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert P.main(argv) == 0
    report = _strip_timing(json.loads(out.getvalue()))
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


def _write(tmp_path, cfg, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def _failing_fit_config():
    """Two lines at 60 degrees: per-cycle rate is 0.25, so expecting 0.9
    must fail the scenario."""
    return minimal_config(
        name="bad_fit",
        sets=[
            {"type": "affine", "anchor": [0.0, 0.0], "basis": [[1.0, 0.0]]},
            {
                "type": "affine",
                "anchor": [0.0, 0.0],
                "basis": [[0.5, 0.8660254037844386]],
            },
        ],
        x0=[0.9, 0.35],
        tol=1e-12,
        max_cycles=200,
        analyses=[
            {
                "kind": "rate_fit",
                "label": "fit",
                "expect_rho": 0.9,
                "expect_tol": 1e-3,
            }
        ],
    )


class TestRunCommand:
    def test_pass_run_exit_zero(self, tmp_path, capsys):
        path = _write(tmp_path, minimal_config())
        rc = P.main(["run", path, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out

    def test_text_report_prints_a_non_finite_margin(self, tmp_path, capsys):
        """A report holds a number that is not finite as its string; the
        text form formatted "-inf" with :.3e and died in a ValueError
        traceback.  tau = 1e308 is a valid depth whose probes overflow."""
        ref = resources.files("projlab.scenarios") / "enlargement_injectability.json"
        cfg = json.loads(ref.read_text(encoding="utf-8"))
        cfg["analyses"][0]["tau"] = 1e308
        path = _write(tmp_path, cfg)
        for fmt, line in (("text", "  check inj_enlarge_01 (injectable): [FAIL] worst_margin=-inf"),
                          ("json", '      "worst_margin": "-inf"')):
            with np.errstate(over="ignore"):
                rc = P.main(["run", path, "--out", str(tmp_path / fmt), "--format", fmt])
            captured = capsys.readouterr()
            assert (rc, captured.err) == (1, "")
            assert line in captured.out.splitlines()

    def test_every_text_number_passes_a_non_finite_string_through(self):
        report = {
            "scenario": {"name": "s", "stop_reason": "Budget", "n_cycles": 3, "final_dC": "inf"},
            "constants": {"kappa": {"value": "inf", "kind": "lower"}},
            "certificates": {"cert": {"theorem": "t", "rho_block": "nan", "block_len": 2,
                                      "applicable": False}},
            "fit": {"fit": {"rho": "inf", "r_squared": "nan", "non_convergent": True}},
            "comparisons": [],
            "checks": [{"name": "zeta", "kind": "strong_regularity", "value": "nan"},
                       {"name": "inj", "kind": "injectable", "worst_margin": "-inf"}],
            "passed": False,
        }
        assert P.cli._format_report_text(report).splitlines() == [
            "scenario s: stop=Budget cycles=3 final_dC=inf",
            "  constant kappa: inf (lower)",
            "  certificate cert: t rho_block=nan block=2 applicable=False",
            "  fit fit: rho=inf R2=nan non_convergent=True",
            "  check zeta (strong_regularity): [PASS] value=nan",
            "  check inj (injectable): [PASS] worst_margin=-inf",
            "result: FAIL",
        ]

    def test_output_layout(self, tmp_path):
        path = _write(tmp_path, minimal_config())
        rc = P.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        base = tmp_path / "out" / "unit"
        assert (base / "trajectory.csv").is_file()
        assert (base / "report.json").is_file()
        report = json.loads((base / "report.json").read_text())
        for key in (
            "scenario",
            "constants",
            "certificates",
            "fit",
            "comparisons",
            "checks",
        ):
            assert key in report
        assert report["passed"] is True
        assert "wall_time_s" in report["timing"]

    def test_shadow_csv_written_for_affine_reduction(self, tmp_path):
        cfg = minimal_config(
            name="dr3",
            dimension=3,
            sets=[
                {
                    "type": "affine",
                    "anchor": [0.0, 0.0, 0.0],
                    "basis": [[1.0, 0.0, 0.0]],
                },
                {
                    "type": "affine",
                    "anchor": [0.0, 0.0, 0.0],
                    "basis": [[0.7071067811865476, 0.7071067811865476, 0.0]],
                },
            ],
            intersection={
                "type": "finite_points",
                "points": [[0.0, 0.0, 0.0]],
            },
            anchor=[0.0, 0.0, 0.0],
            operators=[
                {
                    "type": "generalized_dr",
                    "set_a": 0,
                    "set_b": 1,
                    "lambda": 1.0,
                    "mu": 1.0,
                    "alpha": 0.5,
                }
            ],
            x0=[1.0, 0.0, 1.0],
            max_cycles=150,
            analyses=[
                {
                    "kind": "affine_reduction",
                    "label": "reduction",
                    "expect": "Intersection",
                }
            ],
        )
        path = _write(tmp_path, cfg)
        rc = P.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        assert (tmp_path / "out" / "dr3" / "shadow.csv").is_file()

    def test_failing_expectation_exit_one(self, tmp_path, capsys):
        path = _write(tmp_path, _failing_fit_config())
        rc = P.main(["run", path, "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out

    def test_malformed_json_exit_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{ not json }")
        rc = P.main(["run", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert "config error" in err
        assert "line" in err

    def test_missing_file_exit_two(self, tmp_path):
        rc = P.main(
            ["run", str(tmp_path / "nope.json"), "--out", str(tmp_path / "o")]
        )
        assert rc == 2

    def test_anchor_violation_exit_two(self, tmp_path, capsys):
        cfg = minimal_config(anchor=[0.0, 1.0])
        path = _write(tmp_path, cfg)
        rc = P.main(["run", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "anchor" in capsys.readouterr().err

    def test_refuses_overwrite_without_force(self, tmp_path, capsys):
        path = _write(tmp_path, minimal_config())
        out = str(tmp_path / "out")
        assert P.main(["run", path, "--out", out]) == 0
        capsys.readouterr()
        rc = P.main(["run", path, "--out", out])
        assert rc == 2
        assert "--force" in capsys.readouterr().err
        assert P.main(["run", path, "--out", out, "--force"]) == 0

    def test_seed_override_recorded(self, tmp_path):
        path = _write(tmp_path, minimal_config())
        rc = P.main(
            ["run", path, "--out", str(tmp_path / "out"), "--seed", "99"]
        )
        assert rc == 0
        report = json.loads(
            (tmp_path / "out" / "unit" / "report.json").read_text()
        )
        assert report["scenario"]["seed"] == 99

    def test_json_format_deterministic_modulo_timing(self, tmp_path, capsys):
        path = _write(tmp_path, minimal_config())
        out = str(tmp_path / "out")
        assert P.main(["run", path, "--out", out, "--format", "json"]) == 0
        first = json.loads(capsys.readouterr().out)
        assert (
            P.main(["run", path, "--out", out, "--force", "--format", "json"])
            == 0
        )
        second = json.loads(capsys.readouterr().out)
        assert json.dumps(_strip_timing(first), sort_keys=True) == json.dumps(
            _strip_timing(second), sort_keys=True
        )


class TestVerifyCommand:
    def test_verify_runs_every_bundled_scenario(self, tmp_path, capsys):
        rc = P.main(
            [
                "verify",
                "--out",
                str(tmp_path / "suite"),
                "--format",
                "json",
            ]
        )
        summary = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert summary["passed"] is True
        assert summary["counts"]["scenarios"] == 13
        assert summary["counts"]["failed"] == 0
        names = sorted(summary["suite"].keys())
        assert names == P.bundled_scenario_names()
        for name in names:
            base = tmp_path / "suite" / name
            assert (base / "trajectory.csv").is_file()
            assert (base / "report.json").is_file()

    @pytest.mark.parametrize("seed, digest", [
        (None, "01d5a15761ca854e2b96a7873decaddd3837819dbd3d4183965e1d5e22f2217d"),
        (12345, "45c27069981097b04d716bebc7738b1cf69abc7436428c2ee1d2d09d5684ba24"),
    ], ids=["seed_default", "seed_12345"])  # ids that a re-pin leaves alone
    def test_verify_report_is_pinned(self, seed, digest):
        """The suite report stays byte-identical once `timing` is removed.  A
        change meant to move a reported number says which fields moved and
        regenerates the digests from the repository root with

            PYTHONPATH=src:tests python -c "import test_cli as t; print(t._verify_digest(None), t._verify_digest(12345))"
        """
        assert _verify_digest(seed) == digest

    def test_exported_csv_bytes_are_pinned(self, tmp_path):
        """One sha256 over the CSV files `execute_scenario` writes for the
        bundled scenarios at their default seeds, in name order, each
        scenario's shadow.csv (where there is one) before its trajectory.csv:
        both writers keep every byte."""
        digest = hashlib.sha256()
        for name in P.bundled_scenario_names():
            out = tmp_path / name
            P.execute_scenario(P.load_bundled(name), out_dir=str(out))
            for fname in ("shadow.csv", "trajectory.csv"):
                if (out / fname).is_file():
                    digest.update((out / fname).read_bytes())
        assert digest.hexdigest() == \
            "8fce43822ccdbaf1e5a29bd37310700f6a7f5baa111d3a1b9014507fb82d66be"

    @pytest.mark.parametrize("seed", [-1, True, 2.5, "7"])
    def test_verify_suite_checks_its_seed_once(self, monkeypatch, seed):
        """A bad seed ran every scenario and returned one error report each."""
        loaded = []
        monkeypatch.setattr(P.cli, "load_bundled", loaded.append)
        with pytest.raises(P.DomainError, match="^seed must be a nonnegative integer"):
            P.cli.verify_suite(seed=seed)
        assert loaded == []

    def test_verify_refuses_nonempty_out_without_force(self, tmp_path, capsys):
        out = tmp_path / "suite"
        out.mkdir()
        (out / "marker.txt").write_text("x")
        rc = P.main(["verify", "--out", str(out)])
        assert rc == 2
        assert "--force" in capsys.readouterr().err


class TestReportChecks:
    def test_cycle_detect_fails_on_expected_states_without_a_cycle(self):
        cfg = minimal_config(analyses=[
            {"kind": "cycle_detect", "expect_states": [[9.0, 9.0]], "label": "cyc"}])
        report = P.execute_scenario(P.scenario_from_config(cfg))
        (check,) = report["checks"]
        assert report["scenario"]["stop_reason"] == "Converged"
        assert check["period"] is None and not check["passed"]
        assert not report["passed"]

    def test_cycle_detect_without_expectations_passes_on_no_cycle(self):
        cfg = minimal_config(analyses=[{"kind": "cycle_detect"}])
        report = P.execute_scenario(P.scenario_from_config(cfg))
        assert report["checks"][0]["period"] is None and report["passed"]

    def test_obtuse_check_is_named_by_its_label(self):
        report = P.execute_scenario(P.load_bundled("reflection_projection_orthant"))
        names = [c["name"] for c in report["checks"] if c["kind"] == "obtuse_cone"]
        assert names == ["obtuse_translated_orthant"]


    @pytest.mark.parametrize("expect", ["pass", "fail"])
    def test_undetermined_strong_regularity_fails_either_expectation(self, expect):
        """The line span(e3) of R^3 and {z <= 0} at 0: the line's sampled
        normals cancel inside its pool, so the verdict is null
        (undetermined), which neither expectation accepts."""
        cfg = minimal_config(
            dimension=3,
            sets=[{"type": "affine", "anchor": [0.0, 0.0, 0.0], "basis": [[0.0, 0.0, 1.0]]},
                  {"type": "halfspace", "a": [0.0, 0.0, 1.0], "b": 0.0}],
            intersection={"type": "finite_points", "points": [[0.0, 0.0, 0.0]]},
            anchor=[0.0, 0.0, 0.0], x0=[3.0, 4.0, 5.0],
            analyses=[{"kind": "strong_regularity", "expect": expect, "label": "zeta"}])
        report = P.execute_scenario(P.scenario_from_config(cfg))
        (check,) = report["checks"]
        assert check["strong"] is None and not check["passed"]
        assert report["constants"]["zeta"]["extra"]["strong"] is None
        assert not report["passed"]

    def test_expect_min_reads_the_lower_bound(self):
        """The unit box's corner (1, 1, 1) with {x <= 1} has zeta = 1/sqrt(2)
        and the certified bound 1/sqrt(3) = 0.577...: expect_min 0.6 lies
        between them, so it is not certified."""
        cfg = minimal_config(
            dimension=3,
            sets=[{"type": "box", "lower": [0.0, 0.0, 0.0], "upper": [1.0, 1.0, 1.0]},
                  {"type": "halfspace", "a": [1.0, 0.0, 0.0], "b": 1.0}],
            intersection={"type": "finite_points", "points": [[1.0, 1.0, 1.0]]},
            anchor=[1.0, 1.0, 1.0], x0=[3.0, 4.0, 5.0],
            analyses=[{"kind": "strong_regularity", "expect": "pass",
                       "expect_min": 0.6, "label": "zeta"}])
        report = P.execute_scenario(P.scenario_from_config(cfg))
        (check,) = report["checks"]
        assert check["strong"] is True and check["value"] >= 0.7
        assert not check["passed"]

    def test_run_exits_2_on_a_constructor_error(self, tmp_path, capsys):
        cfg = minimal_config()
        cfg["sets"][1] = {"type": "ball", "center": [0.0, 0.0], "radius": float("nan")}
        assert P.main(["run", _write(tmp_path, cfg)]) == 2
        assert "sets[1]: ball radius must lie in [0, inf), got nan" in capsys.readouterr().err

    def test_run_exits_2_on_an_anchor_off_the_intersection(self, tmp_path, capsys):
        cfg = minimal_config(intersection={"type": "finite_points", "points": [[0.3, 0.0]]})
        path = _write(tmp_path, cfg)
        assert P.main(["run", path]) == 2
        assert capsys.readouterr().err == (f"config error: {path}: anchor: w must belong "
                                           "to the intersection; distance is 3.000e-01\n")


class TestLiteralRanges:
    """A literal number outside the range its analysis accepts fails at
    parse time with its key path and exit code 2, not when the analysis
    runs; a resolved value meets the same rule when it resolves, with the
    same key path and exit code."""

    @pytest.mark.parametrize("record, message", [
        ({"kind": "injectable", "set": 0, "tau": -1.0}, "tau must lie in [0, inf), got -1.0"),
        ({"kind": "quasi_coercive", "operator": 0, "nu": -0.5},
         "nu must lie in (0, inf), got -0.5"),
        ({"kind": "affine_identities", "set": 0, "lambda": 3.0},
         "lambda must lie in (0, 2], got 3.0"),
        ({"kind": "rate_fit", "tail_fraction": 2.0}, "tail_fraction must lie in (0, 1], got 2.0"),
        ({"kind": "cycle_detect", "tol": -1e-12}, "tol must lie in [0, inf), got -1e-12"),
        ({"kind": "compare", "certificate": "@cert", "slack": -0.1},
         "slack must lie in [0, inf), got -0.1"),
        ({"kind": "k_step", "rho_bound": float("nan")}, "rho_bound must lie in [0, inf), got nan"),
        ({"kind": "injectable", "set": 0, "tau": True}, "tau must be a real number, got True"),
        ({"kind": "quasi_firm_fejer", "operator": 0, "eps": 5}, "eps must lie in [0, 1), got 5.0"),
    ], ids=["tau", "nu", "lambda", "tail_fraction", "cycle_tol", "slack", "rho_bound",
            "tau_bool", "eps"])
    def test_out_of_range_literal_exits_2(self, tmp_path, capsys, record, message):
        cfg = minimal_config(analyses=[record])
        path = _write(tmp_path, cfg)
        assert P.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: analyses[0]: {message}\n"

    @pytest.mark.parametrize("edit, message", [
        (lambda c: c.update(tol="1e-3"), "tol must be a real number, got '1e-3'"),
        (lambda c: c.update(delta=None), "delta must be a real number, got None"),
        (lambda c: c["sets"][1].update(b=True), "sets[1]: b must be a real number, got True"),
        (lambda c: c["operators"][0].update({"lambda": "1.5"}),
         "operators[0]: lambda must be a real number, got '1.5'"),
    ], ids=["tol", "delta", "set_offset", "operator_lambda"])
    def test_a_non_number_exits_2(self, tmp_path, capsys, edit, message):
        cfg = minimal_config()
        edit(cfg)
        path = _write(tmp_path, cfg)
        assert P.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"

    def test_malformed_expected_states_exit_2(self, tmp_path, capsys):
        """Strings in a state died with a ValueError traceback and exit 1."""
        cfg = minimal_config(analyses=[{"kind": "cycle_detect", "expect_states": [["a", "b"]]}])
        path = _write(tmp_path, cfg)
        assert P.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (f"config error: {path}: analyses[0].expect_states[0]: "
                                           "vector[0] must be a real number, got 'a'\n")

    @pytest.mark.parametrize("record, key, message", [
        ({"kind": "injectable", "set": 0}, "tau", "tau must lie in [0, inf), got -0.5"),
        ({"kind": "quasi_coercive", "operator": 0}, "nu", "nu must lie in (0, inf), got -0.5"),
        ({"kind": "affine_identities", "set": 0}, "lambda", "lambda must lie in (0, 2], got -0.5"),
        ({"kind": "k_step"}, "rho_bound", "rho_bound must lie in [0, inf), got -0.5"),
        ({"kind": "quasi_firm_fejer", "operator": 0}, "eps", "eps must lie in [0, 1), got -0.5"),
    ], ids=["tau", "nu", "lambda", "rho_bound", "eps"])
    def test_out_of_range_resolved_value_exits_2(self, tmp_path, capsys, record, key, message):
        """0.5 times -1 failed in the library, exit 1 without a key path."""
        path = _write(tmp_path, minimal_config(analyses=[
            {**record, key: {"value": 0.5, "times": -1}}]))
        assert P.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: analyses[0]: {message}\n"

    @pytest.mark.parametrize("name, label, key, value, message", [
        ("enlargement_injectability", "inj_enlarge_01", "tau", {"value": 0.5, "times": -1},
         "tau must lie in [0, inf), got -0.5"),
        ("qff_suite", "qff_halfspace_half", "eps", 5, "eps must lie in [0, 1), got 5.0"),
        ("qff_suite", "qff_sphere_half", "eps", {"ref": "@eps_sphere", "plus": 1.0},
         "eps must lie in [0, 1), got "),
    ], ids=["arithmetic_tau", "literal_eps", "reference_eps"])
    def test_bundled_records_name_their_key_path(self, tmp_path, capsys, name, label, key,
                                                 value, message):
        ref = resources.files("projlab.scenarios") / f"{name}.json"
        cfg = json.loads(ref.read_text(encoding="utf-8"))
        i = [a.get("label") for a in cfg["analyses"]].index(label)
        cfg["analyses"][i][key] = value
        path = _write(tmp_path, cfg)
        assert P.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.startswith(
            f"config error: {path}: analyses[{i}]: {message}")

    def test_arithmetic_value_is_checked_when_run(self):
        """A resolved value is checked by its key's rule under the record's
        key path, as a literal is when the record loads."""
        sc = P.scenario_from_config(minimal_config(analyses=[
            {"kind": "injectable", "set": 0, "tau": {"value": 1.0, "times": -1.0}}]))
        with pytest.raises(P.ConfigError,
                           match=r"^analyses\[0\]: tau must lie in \[0, inf\), got -1.0$"):
            P.execute_scenario(sc)


class TestRunTimeConfigErrors:
    """A configuration error in an analysis record exits 2 with its key
    path, whether it is found at load time (a set or operator index, a
    label) or only when the scenario runs (a reference)."""

    @pytest.mark.parametrize("edit, message", [
        (lambda a: a[1].update(set=7), "analyses[1].set: set index out of range"),
        (lambda a: a[3]["args"].update(kappa="@nosuch"),
         "analyses[3].args.kappa: '@nosuch' is not a RegularityEstimate result"),
        (lambda a: a[1].update(label="kappa"), "analyses[1].label: duplicate label 'kappa'"),
        (lambda a: a.append({"kind": "quasi_firm_fejer", "operator": 9}),
         "analyses[11].operator: operator index out of range"),
    ], ids=["set_index", "reference", "duplicate_label", "operator_index"])
    def test_exits_2(self, tmp_path, capsys, edit, message):
        ref = resources.files("projlab.scenarios") / "two_lines_angle_60.json"
        cfg = json.loads(ref.read_text(encoding="utf-8"))
        edit(cfg["analyses"])
        path = _write(tmp_path, cfg)
        assert P.main(["run", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"config error: {path}: {message}\n"


class TestCatalogCommand:
    def test_text_lists_sets_operators_theorems(self, capsys):
        rc = P.main(["catalog"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "generalized_dr (lambda, mu in (0,2], alpha in (0,1]" in out
        for word in ("halfspace", "sphere", "enlargement", "semi_intrepid"):
            assert word in out

    def test_json_structure(self, capsys):
        rc = P.main(["catalog", "--format", "json"])
        data = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert set(data) == {"sets", "operators", "theorems", "analyses"}
        assert "generalized_dr" in [entry["name"] for entry in data["operators"]]


class TestUsageErrors:
    def test_no_command(self, capsys):
        assert P.main([]) == 2

    def test_unknown_flag(self, capsys):
        assert P.main(["run", "x.json", "--bogus"]) == 2

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys, command):
        """`verify --seed -1` died in numpy's ValueError traceback."""
        argv = ["run", _write(tmp_path, minimal_config())] if command == "run" else ["verify"]
        assert P.main(argv + ["--out", str(tmp_path / "out"), "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"usage: projlab {command}")
        assert captured.err.endswith(
            "argument --seed: seed must be a nonnegative integer, got -1\n")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("seed", ["+-5", "++5", "5_0"])
    def test_a_seed_int_would_refuse_states_the_seed_rule(self, capsys, seed):
        """`--seed +-5` read "invalid _seed value: '+-5'": a second sign
        passed the digit test, and int() refused it."""
        assert P.main(["verify", "--seed", seed]) == 2
        assert capsys.readouterr().err.endswith(
            f"argument --seed: seed must be a nonnegative integer, got {seed!r}\n")
