"""Command-line interface: exit codes, output layout, report shape."""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
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


# The pinned digests; `tests/repin.py` prints them afresh and lists the
# report leaves that moved.
VERIFY_DIGESTS = {
    None: "30dd7b9837d04f77b132cc507395196ff8fec88a60f8c5eb45cde285d56a2937",
    12345: "ec66823fbb1753b7552171d92362ba99f79ffe9133ccada245eb0bef4ccb6ad1",
}
CSV_DIGEST = "8707d99a144bb2e3336075633c46fc608fd84a7584473138289025a26489e0ca"


def _verify_report(seed):
    """The `verify --format json` report at `seed` (None: the scenarios'
    own) with every `timing` key removed."""
    argv = ["verify", "--format", "json"] + ([] if seed is None else ["--seed", str(seed)])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert P.main(argv) == 0
    return _strip_timing(json.loads(out.getvalue()))


def _report_digest(report):
    """sha256 of a report dumped with indent=2 and sorted keys."""
    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=True).encode()).hexdigest()


def _csv_digest(out_root):
    """One sha256 over the CSV files `execute_scenario` writes under
    `out_root` for the bundled scenarios at their default seeds, in name
    order, each scenario's shadow.csv (where there is one) before its
    trajectory.csv."""
    digest = hashlib.sha256()
    for name in P.bundled_scenario_names():
        out = out_root / name
        P.execute_scenario(P.load_bundled(name), out_dir=str(out))
        for fname in ("shadow.csv", "trajectory.csv"):
            if (out / fname).is_file():
                digest.update((out / fname).read_bytes())
    return digest.hexdigest()


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

    def test_text_report_prints_a_non_finite_margin(self, tmp_path, capsys, monkeypatch):
        """A report holds a number that is not finite as its string; the
        text form formatted "-inf" with :.3e and died in a ValueError
        traceback.  A patched check reports the margin -inf."""
        def check(*args, **kwargs):
            return dataclasses.replace(real(*args, **kwargs), violations=1,
                                       worst_margin=-math.inf)

        real = P.analysis.check_injectable
        monkeypatch.setattr(P.analysis, "check_injectable", check)
        path = _write(tmp_path, json.loads((resources.files("projlab.scenarios")
                                            / "enlargement_injectability.json").read_text()))
        for fmt, line in (("text", "  check inj_enlarge_01 (injectable): [FAIL] worst_margin=-inf"),
                          ("json", '      "worst_margin": "-inf"')):
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

    @pytest.mark.parametrize("name", ["../escaped", "ABSOLUTE", "a/b", "a\\b", "..", "."])
    def test_a_name_that_is_no_plain_path_component_writes_nothing(self, tmp_path, capsys, name):
        """The output directory is --out joined with the name: "../escaped"
        wrote beside --out, and an absolute name wherever it pointed."""
        if name == "ABSOLUTE":
            name = str(tmp_path / "absolute")
        config = tmp_path / "config"
        config.mkdir()
        path = _write(config, minimal_config(name=name))
        rc = P.main(["run", path, "--out", str(tmp_path / "out" / "inner")])
        assert rc == 2
        assert capsys.readouterr().err == (
            f"config error: {path}: name: must be one path component: not '.' or '..', "
            f"and no '/', '\\' or NUL, got {json.dumps(name)}\n")
        assert [p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")] \
            == ["config", "config/scenario.json"]

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

    @pytest.mark.parametrize("seed, digest", VERIFY_DIGESTS.items(),
                             ids=["seed_default", "seed_12345"])  # ids that a re-pin leaves alone
    def test_verify_report_is_pinned(self, seed, digest):
        """The suite report stays byte-identical once `timing` is removed.  A
        change meant to move a reported number says which fields moved and
        re-pins with `tests/repin.py`, which prints the digests and lists
        the moved fields."""
        assert _report_digest(_verify_report(seed)) == digest

    def test_exported_csv_bytes_are_pinned(self, tmp_path):
        """Both CSV writers keep every byte (`_csv_digest`; re-pinned with
        `tests/repin.py`)."""
        assert _csv_digest(tmp_path) == CSV_DIGEST

    def test_repin_lists_each_moved_leaf(self):
        """`tests/repin.py` names a moved report leaf by its path, with its
        old and new value and the relative change."""
        import repin
        old = {"a": {"b": [1.0, 2.0], "c": "PASS"}, "d": 0.0, "e": True}
        new = {"a": {"b": [1.0, 2.5], "c": "FAIL"}, "d": 1e-30, "e": 1}
        assert repin.moved_leaves(old, old) == []
        assert repin.moved_leaves(old, new) == [
            'a.b[1]: 2.0 -> 2.5 (+2.5e-01)', 'a.c: "PASS" -> "FAIL"', 'd: 0.0 -> 1e-30', 'e: true -> 1']

    def test_verify_text_lists_each_scenario(self, capsys):
        """`verify`'s default format is one line a scenario, its verdict,
        stop reason and count of checks and comparisons, then the totals."""
        assert P.main(["verify"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "degenerate_three_halfspaces: [PASS] stop=Converged checks=5",
            "dr_affine_blend: [PASS] stop=Converged checks=4",
            "dr_affine_reflect: [PASS] stop=Budget checks=4",
            "dr_two_lines: [PASS] stop=Converged checks=4",
            "enlargement_injectability: [PASS] stop=Converged checks=5",
            "qff_suite: [PASS] stop=Converged checks=16",
            "reflection_projection_axes: [PASS] stop=Budget checks=4",
            "reflection_projection_orthant: [PASS] stop=Converged checks=4",
            "reflector_cycle_counterexample: [PASS] stop=Budget checks=3",
            "semi_intrepid_circles: [PASS] stop=Converged checks=2",
            "two_lines_angle_30: [PASS] stop=Converged checks=6",
            "two_lines_angle_45: [PASS] stop=Converged checks=7",
            "two_lines_angle_60: [PASS] stop=Converged checks=6",
            "total: 13 scenarios, 0 failed",
            "result: PASS",
        ]

    def test_verify_text_names_each_failure(self):
        """A failed check and a failed comparison get a line each under
        their scenario, and a scenario that raised its error in place of
        the verdict line."""
        failing = {"scenario": {"stop_reason": "Budget"}, "passed": False,
                   "checks": [{"name": "inj", "kind": "injectable", "passed": False},
                              {"name": "fit", "kind": "rate_fit", "passed": True}],
                   "comparisons": [{"name": "cyclic", "ok": False}, {"name": "dr", "ok": True}]}
        summary = {"suite": {"b": failing, "a": {"error": "ConfigError: x0: bad"}},
                   "passed": False, "counts": {"scenarios": 2, "failed": 2}}
        assert P.cli._format_suite_text(summary).splitlines() == [
            "a: ERROR ConfigError: x0: bad",
            "b: [FAIL] stop=Budget checks=4",
            "  FAIL inj (injectable)",
            "  FAIL compare cyclic",
            "total: 2 scenarios, 2 failed",
            "result: FAIL",
        ]

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

    @pytest.mark.parametrize("edit", [
        lambda states: states.__setitem__(1, [0.0, -2.0]),
        lambda states: states.pop(),
    ], ids=["wrong_state", "wrong_count"])
    def test_cycle_detect_fails_on_expected_states_that_do_not_match(self, edit):
        """`reflection_projection_axes` finds its period-4 cycle; a listed
        state off the cycle, or one state too few, fails the check."""
        cfg = json.loads((resources.files("projlab.scenarios")
                          / "reflection_projection_axes.json").read_text())
        (check,) = [rec for rec in cfg["analyses"] if rec["kind"] == "cycle_detect"]
        edit(check["expect_states"])
        report = P.execute_scenario(P.scenario_from_config(cfg))
        (entry,) = [c for c in report["checks"] if c["kind"] == "cycle_detect"]
        assert entry["period"] == 4 and not entry["passed"] and not report["passed"]

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
