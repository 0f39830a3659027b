"""Affine-hull reduction: hulls, commutation identities, shadow sequences."""

import math

import numpy as np
import pytest

import projlab as P
from projlab import (
    ContainmentViolated,
    DomainError,
    ShadowRecursionViolated,
)


def _two_lines_3d():
    a = P.AffineSubspaceSet(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
    s = 1.0 / math.sqrt(2.0)
    b = P.AffineSubspaceSet(np.zeros(3), np.array([[s, s, 0.0]]))
    inter = P.exact_intersection(P.FinitePointSet(np.zeros((1, 3))), (a, b))
    return a, b, inter


def _dr_run(lam, mu, alpha, x0=(1.0, 0.0, 1.0), max_cycles=80, tol=1e-14):
    a, b, inter = _two_lines_3d()
    op = P.GeneralizedDR(a, b, lam, mu, alpha)
    return P.run(
        [op], np.array(x0), [a, b], inter,
        max_cycles=max_cycles, tol=tol, seed=0,
    )


class TestAffineHull:
    def test_two_axes_span_a_plane(self):
        a = P.AffineSubspaceSet(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        b = P.AffineSubspaceSet(np.zeros(3), np.array([[0.0, 1.0, 0.0]]))
        L = P.affine_hull([a, b])
        assert L.basis.shape == (2, 3)
        assert L.distance(np.array([3.0, -2.0, 0.0])) <= 1e-12
        assert L.distance(np.array([0.0, 0.0, 1.0])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_point_has_empty_basis(self):
        s = P.FinitePointSet(np.array([[1.0, 2.0]]))
        L = P.affine_hull([s])
        assert L.basis.shape == (0, 2)
        assert np.allclose(
            L.project(np.array([9.0, -9.0])).canonical, [1.0, 2.0]
        )

    def test_ball_spans_everything(self):
        L = P.affine_hull([P.Ball(np.array([1.0, 1.0]), 0.5)])
        assert L.basis.shape == (2, 2)

    def test_degenerate_box_spans_a_line(self):
        box = P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        L = P.affine_hull([box])
        assert L.basis.shape == (1, 2)
        assert L.distance(np.array([5.0, 0.0])) <= 1e-12

    def test_translate_unwraps(self):
        box = P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        L = P.affine_hull([P.Translate(box, np.array([0.0, 2.0]))])
        assert L.basis.shape == (1, 2)
        assert L.distance(np.array([0.5, 2.0])) <= 1e-12

    def test_union_of_two_points_spans_their_line(self):
        u = P.UnionOfSets(
            (
                P.FinitePointSet(np.array([[0.0, 0.0]])),
                P.FinitePointSet(np.array([[1.0, 1.0]])),
            )
        )
        L = P.affine_hull([u])
        assert L.basis.shape == (1, 2)
        assert L.distance(np.array([2.0, 2.0])) <= 1e-12

    def test_projector_is_idempotent_and_nonexpansive(self):
        a, b, _ = _two_lines_3d()
        L = P.affine_hull([a, b])
        rng = np.random.default_rng(3)
        xs = rng.normal(scale=3.0, size=(100, 3))
        ys = rng.normal(scale=3.0, size=(100, 3))
        for x, y in zip(xs, ys):
            px = L.project(x).canonical
            py = L.project(y).canonical
            assert np.linalg.norm(L.project(px).canonical - px) <= 1e-12
            assert np.linalg.norm(px - py) <= np.linalg.norm(x - y) + 1e-12

    def test_probe_fallback_matches_the_catalog_line(self):
        """A custom set that defines only `project` takes the probe fallback
        of `ClosedSet.hull_points`; for a line in R^3 it spans the same hull
        as the catalog line's closed form."""
        line = P.AffineSubspaceSet(np.array([1.0, -2.0, 0.5]),
                                   np.array([[2.0, 1.0, 2.0]]) / 3.0)

        class ProjectOnly(P.ClosedSet):
            dim = 3

            def project(self, x):
                return line.project(x)

        L = P.affine_hull([ProjectOnly()], seed=2)
        want = P.affine_hull([line])
        assert L.subspace_dim == want.subspace_dim == 1
        assert np.allclose(L.basis.T @ L.basis, want.basis.T @ want.basis, atol=1e-12)
        assert want.distance(L.anchor) <= 1e-12

    def test_deterministic_given_seed(self):
        a, b, _ = _two_lines_3d()
        L1 = P.affine_hull([a, b], seed=4)
        L2 = P.affine_hull([a, b], seed=4)
        assert np.array_equal(L1.anchor, L2.anchor)
        assert np.array_equal(L1.basis, L2.basis)


class TestAffineIdentities:
    def test_relaxed_projector_commutes_inside_hull(self):
        a, b, _ = _two_lines_3d()
        L = P.affine_hull([a, b])
        for lam in (1.0, 1.5, 2.0):
            rep = P.verify_affine_identities(a, L, lam, samples=200, seed=0)
            assert rep.violations == 0
            assert rep.worst_margin >= -1e-10

    def test_set_outside_subspace_is_rejected(self):
        line_x = P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]]))
        line_y = P.AffineSubspaceSet(np.zeros(2), np.array([[0.0, 1.0]]))
        with pytest.raises(ContainmentViolated):
            P.verify_affine_identities(line_y, line_x, 1.0)


class TestEta:
    def test_frozen_values(self):
        assert P.eta(2.0, 2.0, 0.25) == pytest.approx(1.0, abs=1e-15)
        assert P.eta(2.0, 2.0, 0.8) == pytest.approx(1.0, abs=1e-15)
        assert P.eta(2.0, 1.0, 0.5) == pytest.approx(0.5, abs=1e-15)
        assert P.eta(1.0, 1.0, 0.3) == pytest.approx(0.7, abs=1e-15)
        assert P.eta(1.0, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            P.eta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            P.eta(1.0, 2.5, 0.5)
        with pytest.raises(DomainError):
            P.eta(1.0, 1.0, 0.0)


class TestShadowRun:
    def test_double_reflection_keeps_the_gap(self):
        """lambda = mu = 2 blends two reflections: the component off the
        hull never decays and only the shadow converges."""
        traj = _dr_run(2.0, 2.0, 0.5, max_cycles=200)
        a, b, _ = _two_lines_3d()
        L = P.affine_hull([a, b])
        shadow, rep = P.shadow_run(traj, L)
        assert rep.classification == "FixedPointShadow"
        assert rep.eta == pytest.approx(1.0, abs=1e-15)
        assert rep.gap_law_residual <= 1e-10
        assert rep.recursion_residual <= 1e-10
        assert rep.fix_residual <= 1e-8
        assert np.allclose(rep.gap_ratios, 1.0, atol=1e-10)
        # the limit sits off the intersection by exactly the initial gap
        assert np.linalg.norm(traj.final - rep.shadow_limit) == pytest.approx(
            1.0, abs=1e-9
        )

    def test_blended_projections_contract_the_gap(self):
        traj = _dr_run(1.0, 1.0, 0.5, max_cycles=150, tol=1e-10)
        a, b, inter = _two_lines_3d()
        L = P.affine_hull([a, b])
        shadow, rep = P.shadow_run(traj, L)
        assert rep.classification == "Intersection"
        assert rep.eta == pytest.approx(0.5, abs=1e-15)
        assert rep.gap_law_residual <= 1e-9
        assert np.allclose(rep.gap_ratios, 0.5, atol=1e-9)
        # the full limit reaches the intersection of both sets
        assert a.distance(rep.full_limit) <= 1e-8
        assert b.distance(rep.full_limit) <= 1e-8

    def test_gap_law_matches_closed_form(self):
        traj = _dr_run(1.0, 1.0, 0.5, max_cycles=40, tol=1e-15)
        a, b, _ = _two_lines_3d()
        L = P.affine_hull([a, b])
        shadow, rep = P.shadow_run(traj, L)
        x = traj.cycle_iterates()
        gaps = np.linalg.norm(x - shadow, axis=1)
        for n, g in enumerate(gaps):
            want = 0.5 ** n * gaps[0]
            assert g == pytest.approx(want, rel=1e-9, abs=1e-13)

    def test_requires_single_blended_operator(self):
        a, b, inter = _two_lines_3d()
        ops = [P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0)]
        traj = P.run(
            ops, np.array([1.0, 0.0, 1.0]), [a, b], inter,
            max_cycles=30, tol=1e-10, seed=0,
        )
        L = P.affine_hull([a, b])
        with pytest.raises(DomainError):
            P.shadow_run(traj, L)

    def test_wrong_subspace_is_caught(self):
        traj = _dr_run(1.0, 1.0, 0.5, max_cycles=30, tol=1e-12)
        wrong = P.AffineSubspaceSet(np.zeros(3), np.array([[0.0, 0.0, 1.0]]))
        with pytest.raises(ShadowRecursionViolated):
            P.shadow_run(traj, wrong)


class TestShadowCsv:
    def test_layout(self, tmp_path):
        traj = _dr_run(1.0, 1.0, 0.5, max_cycles=20, tol=1e-12)
        a, b, _ = _two_lines_3d()
        L = P.affine_hull([a, b])
        shadow, _ = P.shadow_run(traj, L)
        path = tmp_path / "shadow.csv"
        P.export_shadow_csv(traj, shadow, path)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode("ascii").split("\r\n")
        assert lines[0] == "n,y_1,y_2,y_3,gap_1,gap_2,gap_3,gap_norm"
        body = [ln for ln in lines[1:] if ln]
        assert len(body) == traj.cycle_iterates().shape[0]
        row = body[0].split(",")
        assert row[0] == "0"
        assert float(row[-1]) == pytest.approx(
            np.linalg.norm(traj.points[0] - shadow[0]), rel=1e-15
        )
