"""Trajectory engine: runs, cycle detection, rate fits, certificate checks."""

import math
import os

import numpy as np
import pytest

import projlab as P
from projlab import CertificateViolated, InsufficientData

from conftest import two_lines


def _orthogonal_lines_run(x0=(3.0, 4.0), **kw):
    a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)  # x-axis
    b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)  # y-axis
    inter = P.exact_intersection(P.FinitePointSet(np.zeros((1, 2))), (a, b))
    ops = [P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0)]
    kw.setdefault("max_cycles", 50)
    kw.setdefault("tol", 1e-10)
    return P.run(ops, np.array(x0), [a, b], inter, **kw)


def _two_lines_run(theta, x0=(0.9, 0.35), lam=(1.0, 1.0), **kw):
    a, b, inter = two_lines(theta)
    ops = [P.RelaxedProjector(a, lam[0]), P.RelaxedProjector(b, lam[1])]
    kw.setdefault("max_cycles", 300)
    kw.setdefault("tol", 1e-12)
    return P.run(ops, np.array(x0), [a, b], inter, **kw)


def _reflector_pair_run(max_cycles=30):
    a = P.Orthant((1, 1))
    b = P.Orthant((-1, -1))
    inter = P.exact_intersection(P.FinitePointSet(np.zeros((1, 2))), (a, b))
    ops = [P.RelaxedProjector(a, 2.0), P.RelaxedProjector(b, 2.0)]
    return P.run(
        ops, np.array([1.0, 2.0]), [a, b], inter,
        max_cycles=max_cycles, tol=1e-12, seed=0,
    )


class TestRun:
    def test_orthogonal_lines_converge_in_one_cycle(self):
        traj = _orthogonal_lines_run()
        assert traj.stop_reason == "Converged"
        assert traj.n_cycles == 1
        assert np.allclose(traj.final, [0.0, 0.0], atol=1e-12)
        assert traj.points.shape == (3, 2)
        # op_index: -1 marks the starting point, then operator slots
        assert list(traj.op_index) == [-1, 0, 1]
        assert np.allclose(traj.cycle_errors(), [5.0, 0.0], atol=1e-12)

    def test_budget_stop(self):
        traj = _two_lines_run(math.pi / 6, max_cycles=3, tol=1e-15)
        assert traj.stop_reason == "Budget"
        assert traj.n_cycles == 3

    def test_replay_is_bit_exact(self):
        t1 = _two_lines_run(math.pi / 4)
        t2 = _two_lines_run(math.pi / 4)
        assert np.array_equal(t1.points, t2.points)
        assert np.array_equal(t1.c_dist, t2.c_dist)

    def test_intersection_distance_dominates_members(self):
        traj = _two_lines_run(math.pi / 6)
        assert np.all(traj.c_dist >= traj.set_dists.max(axis=1) - 1e-12)

    def test_divergence_guard(self):
        """Two point reflectors act as a huge translation per cycle; the
        run must stop with the divergence flag once the norm blows up."""
        pa = P.FinitePointSet(np.array([[0.0, 0.0]]))
        pb = P.FinitePointSet(np.array([[6e10, 0.0]]))
        inter = P.exact_intersection(P.FinitePointSet(np.zeros((1, 2))), (pa, pb))
        ops = [P.RelaxedProjector(pa, 2.0), P.RelaxedProjector(pb, 2.0)]
        traj = P.run(
            ops, np.array([1.0, 1.0]), [pa, pb], inter,
            max_cycles=100, tol=1e-10, seed=0,
        )
        assert traj.stop_reason == "Diverged"
        assert np.linalg.norm(traj.final) > 1e12

    def test_cycle_iterates_stride(self):
        traj = _two_lines_run(math.pi / 4)
        pts = traj.cycle_iterates()
        assert pts.shape[0] == traj.n_cycles + 1
        assert np.array_equal(pts[0], traj.points[0])
        assert np.array_equal(pts[1], traj.points[traj.cycle_len])


class TestDetectCycle:
    def test_reflector_pair_two_cycle(self):
        traj = _reflector_pair_run()
        assert traj.stop_reason == "Budget"
        rep = P.detect_cycle(traj, tol=1e-12)
        assert rep is not None
        assert rep.period == 2
        assert rep.start_index == 1
        got = {tuple(np.round(s, 9)) for s in rep.states}
        assert got == {(1.0, 2.0), (-1.0, -2.0)}
        assert rep.max_deviation <= 1e-12

    def test_reflection_projection_four_pattern(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)  # x-axis
        b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)  # y-axis
        inter = P.exact_intersection(P.FinitePointSet(np.zeros((1, 2))), (a, b))
        ops = [P.RelaxedProjector(a, 2.0), P.RelaxedProjector(b, 1.0)]
        traj = P.run(
            ops, np.array([0.0, 1.0]), [a, b], inter,
            max_cycles=30, tol=1e-12, seed=0,
        )
        rep = P.detect_cycle(traj)
        assert rep is not None
        assert rep.period == 4
        assert rep.start_index == 0
        want = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, -1.0], [0.0, 1.0]])
        assert np.allclose(rep.states, want, atol=1e-12)

    def test_no_cycle_on_convergent_run(self):
        assert P.detect_cycle(_orthogonal_lines_run()) is None
        assert P.detect_cycle(_two_lines_run(math.pi / 3)) is None

    def test_deviation_tolerance(self):
        traj = _reflector_pair_run()
        assert P.detect_cycle(traj, tol=0.0) is not None  # exact recurrence


class TestFitRlinear:
    def test_exact_geometric(self):
        fit = P.fit_rlinear([0.5 ** n for n in range(40)])
        assert fit.rho == pytest.approx(0.5, rel=1e-12)
        assert fit.sigma == pytest.approx(1.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.non_convergent

    def test_modulated_geometric(self):
        errs = [3.0 * 0.9 ** n * (1.0 + 0.01 * (-1) ** n) for n in range(40)]
        fit = P.fit_rlinear(errs)
        assert 0.899 <= fit.rho <= 0.901

    def test_constant_sequence_flags_non_convergent(self):
        fit = P.fit_rlinear([1.0] * 40)
        assert fit.rho == pytest.approx(1.0, abs=1e-12)
        assert fit.non_convergent

    def test_doubling_errors_report_the_fitted_rho(self):
        """A divergent sequence reports its fitted rate, not a clamped one."""
        fit = P.fit_rlinear([2.0 ** n for n in range(40)])
        assert fit.rho == pytest.approx(2.0, abs=1e-12)
        assert fit.non_convergent

    def test_too_few_entries(self):
        with pytest.raises(InsufficientData):
            P.fit_rlinear([0.5] * 8)

    def test_fully_floored_window(self):
        with pytest.raises(InsufficientData):
            P.fit_rlinear([0.1 ** n for n in range(30)])

    def test_partial_floor_censoring(self):
        errs = [0.5 ** n for n in range(40)]
        errs[30] = 1e-16
        fit = P.fit_rlinear(errs)
        assert fit.censored == 1
        assert 0.45 <= fit.rho <= 0.55

    def test_window_controls(self):
        errs = [1.0] * 20 + [0.5 ** n for n in range(30)]
        fit = P.fit_rlinear(errs, burn_in=25, tail_fraction=0.4)
        assert fit.rho == pytest.approx(0.5, rel=1e-9)


class TestKStepAndTraceChecks:
    def test_k_step_reduction_holds_for_certificate(self):
        traj = _two_lines_run(math.pi / 3)
        kap = 1.0 / math.sin(math.pi / 6) + 0.05
        cert = P.rate_convex_cyclic([1.0, 1.0], kap)
        rep = P.check_k_step_reduction(traj, cert.block_len, cert.rho_block)
        assert rep.violations == 0

    def test_k_step_reduction_catches_overclaim(self):
        traj = _two_lines_run(math.pi / 3)
        rep = P.check_k_step_reduction(traj, 2, 0.1)
        assert rep.violations > 0
        assert rep.worst_margin < 0

    def test_fejer_trace_projectors(self):
        traj = _two_lines_run(math.pi / 4)
        rep = P.check_fejer_trace(traj, (1.0, 1.0), np.zeros(2))
        assert rep.violations == 0

    def test_fejer_trace_overstated_beta(self):
        traj = _two_lines_run(math.pi / 4)
        rep = P.check_fejer_trace(traj, (1.0, 3.0), np.zeros(2))
        assert rep.violations > 0

    def test_fejer_trace_per_phase_table(self):
        traj = _two_lines_run(math.pi / 4)
        rep = P.check_fejer_trace(traj, [(1.0, 1.0), (1.0, 1.0)], np.zeros(2))
        assert rep.violations == 0

    def test_rlinear_envelope(self):
        traj = _two_lines_run(math.pi / 4)
        a, b, inter = two_lines(math.pi / 4)
        kap = P.estimate_linear_regularity(
            [a, b], inter, np.zeros(2), 1.0, samples=2000, seed=0
        )
        cert = P.rate_cyclic_projections(2, 0.0, kap.value)
        rep = P.check_rlinear_envelope(traj, cert)
        assert rep.violations == 0
        assert rep.extra["xbar_quality"] <= 1e-9


class TestCompareCertificate:
    def test_certificate_dominates_fit(self):
        traj = _two_lines_run(math.pi / 3)
        cert = P.rate_convex_cyclic([1.0, 1.0], 1.0 / math.sin(math.pi / 6))
        rep = P.compare_certificate(traj, cert, raise_on_violation=False)
        assert rep["ok"]
        assert rep["rho_fit_per_iterate"] <= rep["rho_cert_per_iterate"]
        # the empirical per-cycle rate for projectors onto two lines is
        # cos^2(theta); per iterate that is cos(theta)
        assert rep["rho_fit_per_iterate"] == pytest.approx(
            math.cos(math.pi / 3), abs=1e-6
        )

    def test_overclaimed_certificate_raises(self):
        traj = _two_lines_run(math.pi / 3)
        bad = P.rate_cyclic_projections(2, 0.0, 1.05)
        with pytest.raises(CertificateViolated):
            P.compare_certificate(traj, bad)
        rep = P.compare_certificate(traj, bad, raise_on_violation=False)
        assert not rep["ok"]
        assert rep["margin"] < 0

    def test_non_applicable_certificate_is_vacuous(self):
        traj = _two_lines_run(math.pi / 3)
        weak = P.rate_cyclic_projections(2, 0.5, 1.0)
        if not weak.applicable:
            rep = P.compare_certificate(traj, weak, raise_on_violation=False)
            assert rep["ok"]
            assert rep["vacuous"]

    def test_finite_convergence_is_trivially_ok(self):
        traj = _orthogonal_lines_run()
        cert = P.rate_convex_cyclic([1.0, 1.0], 1.5)
        rep = P.compare_certificate(traj, cert, raise_on_violation=False)
        assert rep["ok"]
        assert rep["finite_convergence"]


class TestTrajectoryCsv:
    def test_layout_and_round_trip(self, tmp_path):
        traj = _two_lines_run(math.pi / 4)
        path = tmp_path / "trajectory.csv"
        P.export_trajectory_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode("ascii").split("\r\n")
        assert lines[0] == "n,op_index,x_1,x_2,dC_1,dC_2,dC"
        body = [ln for ln in lines[1:] if ln]
        assert len(body) == traj.points.shape[0]
        first = body[0].split(",")
        assert first[0] == "0"
        assert first[1] == "-1"
        assert float(first[2]) == pytest.approx(0.9, abs=0)
        # every numeric field parses back to the exact stored double
        k = 5
        row = body[k].split(",")
        assert float(row[2]) == traj.points[k][0]
        assert float(row[6]) == traj.c_dist[k]
