"""Acceptance gate: one criterion per test, one PASS/FAIL line per criterion.

Each test prints `criterion <n>: PASS|FAIL - <summary>` so the suite output
doubles as the acceptance report.  Oracles that the criteria call for
(two-line iteration, dominance sweep) are computed here from scratch,
independently of the library's own fitting and certificate code.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import projlab as P

from conftest import strip_timing

TWO_LINE_ANGLES = {
    "two_lines_angle_30": math.pi / 6,
    "two_lines_angle_45": math.pi / 4,
    "two_lines_angle_60": math.pi / 3,
}

_CACHE = {}


def run_bundled(name):
    """Execute a bundled scenario once; returns (report, wall_seconds)."""
    if name not in _CACHE:
        t0 = time.perf_counter()
        report = P.execute_scenario(P.load_bundled(name))
        _CACHE[name] = (report, time.perf_counter() - t0)
    return _CACHE[name]


def checks_of(report, kind):
    return [c for c in report["checks"] if c["kind"] == kind]


@contextmanager
def criterion(num, summary):
    try:
        yield
    except BaseException:
        print(f"criterion {num}: FAIL - {summary}")
        raise
    print(f"criterion {num}: PASS - {summary}")


# ---------------------------------------------------------------------------
# 1. counterexample fidelity
# ---------------------------------------------------------------------------


def test_criterion_1_counterexample_fidelity():
    with criterion(1, "reflector 2-cycle and reflection-projection 4-pattern"):
        report, wall = run_bundled("reflector_cycle_counterexample")
        assert wall < 1.0
        assert report["scenario"]["stop_reason"] == "Budget"
        (cyc,) = checks_of(report, "cycle_detect")
        assert cyc["passed"]
        assert cyc["period"] == 2
        assert cyc["max_deviation"] <= 1e-12
        got = {tuple(s) for s in cyc["states"]}
        assert got == {(1.0, 2.0), (-1.0, -2.0)}
        (fit,) = checks_of(report, "rate_fit")
        assert fit["passed"] and fit["rho"] >= 1.0  # reported non-convergent

        report, wall = run_bundled("reflection_projection_axes")
        assert wall < 1.0
        (cyc,) = checks_of(report, "cycle_detect")
        assert cyc["passed"]
        assert cyc["period"] == 4
        assert cyc["max_deviation"] <= 1e-12
        want = [[0.0, 1.0], [0.0, -1.0], [0.0, -1.0], [0.0, 1.0]]
        assert np.allclose(cyc["states"], want, atol=1e-12)
        (fit,) = checks_of(report, "rate_fit")
        assert fit["passed"] and fit["rho"] >= 1.0


# ---------------------------------------------------------------------------
# 2. quasi-firm-Fejer suite
# ---------------------------------------------------------------------------


def test_criterion_2_quasi_firm_fejer_suite():
    with criterion(2, "12 bundled (set, lambda, eps) combinations, 0 violations"):
        report, wall = run_bundled("qff_suite")
        assert wall < 10.0
        qff = checks_of(report, "quasi_firm_fejer")
        assert len(qff) == 12
        for c in qff:
            assert c["samples"] == 1000
            assert c["check_tol"] == 1e-9
            assert c["violations"] == 0
            assert c["passed"]


# ---------------------------------------------------------------------------
# 3. coercivity exactness
# ---------------------------------------------------------------------------


def test_criterion_3_coercivity_exactness():
    with criterion(3, "relaxed-projector step length is exactly lambda * d_C"):
        report, _ = run_bundled("qff_suite")
        coercive = checks_of(report, "quasi_coercive")
        assert len(coercive) >= 3
        for c in coercive:
            assert c["samples"] == 1000
            assert c["extra"]["max_abs_gap"] <= 1e-12
            assert c["violations"] == 0
            assert c["passed"]


# ---------------------------------------------------------------------------
# 4. injectability
# ---------------------------------------------------------------------------


def test_criterion_4_injectability():
    with criterion(4, "enlargement 2-tau, orthant tau<=10, hyperplane control"):
        report, _ = run_bundled("enlargement_injectability")
        inj = {c["name"]: c for c in checks_of(report, "injectable")}
        # tau-enlargements checked at depth 2 tau
        for name, tau in (
            ("inj_enlarge_01", 0.2),
            ("inj_enlarge_1", 2.0),
            ("inj_enlarge_5", 10.0),
        ):
            c = inj[name]
            assert c["tau"] == tau
            assert c["samples"] == 1000
            assert c["violations"] == 0
            assert c["passed"]
        # hyperplane negative control
        bad = inj["inj_hyperplane_fail"]
        assert bad["violations"] >= 1
        assert bad["passed"]  # expected failure, so the check passes

        report, _ = run_bundled("reflection_projection_orthant")
        for c in checks_of(report, "injectable"):
            assert c["samples"] == 1000
            assert c["violations"] == 0
            assert c["passed"]
        taus = sorted(c["tau"] for c in checks_of(report, "injectable"))
        assert taus[-1] == 10.0


# ---------------------------------------------------------------------------
# 5. two-line rate oracle
# ---------------------------------------------------------------------------


def _two_line_iteration_oracle(theta, x0, n_cycles):
    """Brute-force alternating projections onto two lines through the origin
    (independent of the library: three lines of numpy)."""
    u = np.array([1.0, 0.0])
    v = np.array([math.cos(theta), math.sin(theta)])
    x = np.array(x0, dtype=float)
    errors = [float(np.linalg.norm(x))]
    for _ in range(n_cycles):
        x = np.dot(x, u) * u
        x = np.dot(x, v) * v
        errors.append(float(np.linalg.norm(x)))
    return np.array(errors)


def test_criterion_5_two_line_rate_oracle():
    with criterion(5, "fitted per-cycle rate = cos^2(theta) +- 1e-3, certified"):
        t0 = time.perf_counter()
        for name, theta in TWO_LINE_ANGLES.items():
            want = math.cos(theta) ** 2
            # independent oracle: tail ratios equal cos^2 theta exactly
            errs = _two_line_iteration_oracle(theta, [0.9, 0.35], 30)
            ratios = errs[3:16] / errs[2:15]
            assert np.max(np.abs(ratios - want)) <= 1e-12

            report, _ = run_bundled(name)
            rho_fit = next(iter(report["fit"].values()))["rho"]
            assert abs(rho_fit - want) <= 1e-3
            # every applicable certificate dominates the per-iterate rate
            comparisons = report["comparisons"]
            assert comparisons
            per_iterate = math.sqrt(rho_fit)
            for cmp_ in comparisons:
                if cmp_["applicable"]:
                    assert cmp_["ok"]
                    assert per_iterate <= cmp_["rho_cert_per_iterate"] + 1e-12
        assert time.perf_counter() - t0 < 5.0


# ---------------------------------------------------------------------------
# 6. refinement dominance
# ---------------------------------------------------------------------------


def test_criterion_6_refinement_dominance():
    with criterion(6, "(m-1)-block rate never above m-block rate, 10^4 draws"):
        rng = np.random.default_rng(42)
        both = 0
        exceptions = 0
        for _ in range(10_000):
            m = int(rng.integers(2, 5))
            lams = 1.0 + rng.random(m)  # [1, 2)^m
            eps = float(rng.random() * 0.3)
            kappa = 1.0 + float(rng.random()) * 4.0
            relaxed = P.rate_cyclic_relaxed(list(lams), eps, kappa)
            over = P.rate_cyclic_overrelaxed(list(lams), eps, kappa)
            if relaxed.applicable and over.applicable:
                both += 1
                if over.rho_per_iterate > relaxed.rho_per_iterate + 1e-15:
                    exceptions += 1
        assert both > 0
        assert exceptions == 0


# ---------------------------------------------------------------------------
# 7. affine reduction
# ---------------------------------------------------------------------------


def _bundled_trajectory(name):
    sc = P.load_bundled(name)
    traj = P.run(
        list(sc.operators.members),
        sc.x0,
        list(sc.sets),
        sc.intersection,
        max_cycles=sc.max_cycles,
        tol=sc.tol,
        seed=sc.seed,
    )
    return sc, traj


def test_criterion_7_affine_reduction_both_branches():
    with criterion(7, "gap constant for double reflection, halves when blended"):
        # both scenarios use two lines inside the z = 0 plane, so the exact
        # affine hull has an exact orthonormal basis (no SVD roundoff)
        L = P.AffineSubspaceSet(
            np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        )

        # lambda = mu = 2: the off-hull gap is constant over 200 iterates
        sc, traj = _bundled_trajectory("dr_affine_reflect")
        assert traj.n_cycles == 200
        shadow, rep = P.shadow_run(traj, L)
        gaps = np.linalg.norm(traj.cycle_iterates() - shadow, axis=1)
        assert gaps.size == 201
        assert float(np.max(np.abs(gaps - gaps[0]))) <= 1e-12
        assert rep.classification == "FixedPointShadow"
        assert rep.fix_residual <= 1e-8

        # lambda = mu = 1, alpha = 1/2: gap = (1/2)^n * initial gap
        sc, traj = _bundled_trajectory("dr_affine_blend")
        shadow, rep = P.shadow_run(traj, L)
        assert rep.classification == "Intersection"
        assert rep.eta == 0.5
        gaps = np.linalg.norm(traj.cycle_iterates() - shadow, axis=1)
        g0 = gaps[0]
        for n, g in enumerate(gaps):
            want = 0.5 ** n * g0
            assert abs(g - want) <= 1e-9 * want
        # the limit lies in the intersection of both sets
        for s in sc.sets:
            assert s.distance(traj.final) <= 1e-8


# ---------------------------------------------------------------------------
# 8. strong-regularity regression
# ---------------------------------------------------------------------------


def test_criterion_8_strong_regularity_regression():
    with criterion(8, "degenerate triple fails, every pair passes >= 0.1"):
        report, _ = run_bundled("degenerate_three_halfspaces")
        by_name = {c["name"]: c for c in checks_of(report, "strong_regularity")}
        assert by_name["zeta_all"]["value"] <= 1e-6
        assert not by_name["zeta_all"]["strong"]
        assert by_name["zeta_all"]["passed"]  # degeneracy was expected
        for name in ("zeta_01", "zeta_02", "zeta_12"):
            assert by_name[name]["value"] >= 0.1
            assert by_name[name]["strong"]
            assert by_name[name]["passed"]

        # same conclusion from a direct 10^4-tuple sweep at a fixed seed
        hs = [
            P.Halfspace(np.array([1.0, 1.0]), 0.0),
            P.Halfspace(np.array([1.0, -1.0]), 0.0),
            P.Halfspace(np.array([-1.0, 0.0]), 0.0),
        ]
        est = P.check_strong_regularity(
            hs, np.zeros(2), 1.0, samples=10_000, seed=7
        )
        assert est.value <= 1e-6
        for i, j in ((0, 1), (0, 2), (1, 2)):
            est = P.check_strong_regularity(
                [hs[i], hs[j]], np.zeros(2), 1.0, samples=10_000, seed=7
            )
            assert est.value >= 0.1


# ---------------------------------------------------------------------------
# 9. determinism
# ---------------------------------------------------------------------------


def test_criterion_9_determinism():
    with criterion(9, "verify suite twice -> byte-identical JSON sans timing"):
        first = P.verify_suite(workers=4)
        second = P.verify_suite(workers=4)
        assert first["passed"] and second["passed"]
        blob1 = json.dumps(strip_timing(first), sort_keys=True)
        blob2 = json.dumps(strip_timing(second), sort_keys=True)
        assert blob1 == blob2
