"""Sampled property checks and regularity estimators.

Closed-form oracles: two lines meeting at angle theta have linear-regularity
modulus 1/sin(theta/2) and normal-cone alignment cos(theta); for pairs of
halfspaces through the origin the degeneracy constant is sin of half the
angle between the outward normals.
"""

import math

import numpy as np
import pytest

import projlab as P
from projlab import DomainError

from conftest import two_lines


# ---------------------------------------------------------------------------
# quasi firm Fejer monotonicity
# ---------------------------------------------------------------------------


class TestQuasiFirmFejer:
    def test_projector_onto_halfspace(self):
        s = P.Halfspace(np.array([1.0, 0.0]), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        rep = P.check_quasi_firm_fejer(
            op, s, 1.0, 1.0, np.array([1.0, 0.0]), 1.0, samples=800, seed=0
        )
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-9

    def test_reflector_constants(self):
        s = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        op = P.RelaxedProjector(s, 2.0)
        rep = P.check_quasi_firm_fejer(
            op, s, 1.0, 0.0, np.array([0.3, 0.0]), 1.0, samples=800, seed=1
        )
        assert rep.violations == 0

    def test_overstated_beta_is_caught(self):
        """beta = 3 overstates the projector's contraction: must fail."""
        s = P.Halfspace(np.array([1.0, 0.0]), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        rep = P.check_quasi_firm_fejer(
            op, s, 1.0, 3.0, np.array([1.0, 0.0]), 1.0, samples=800, seed=0
        )
        assert rep.violations > 0
        assert rep.worst_margin < 0
        assert rep.witness is not None

    def test_constant_domains(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        with pytest.raises(DomainError):
            P.check_quasi_firm_fejer(op, s, 0.0, 1.0, np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            P.check_quasi_firm_fejer(op, s, 1.0, -0.1, np.zeros(2), 1.0)

    def test_oracle_intersection_as_refset(self):
        """Reference points may come from the cyclic-projection fallback: two
        planes of R^3 sharing the z-axis, projector onto the first."""
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        a = P.AffineSubspaceSet(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        b = P.AffineSubspaceSet(np.zeros(3), np.array([[c, s, 0.0], [0.0, 0.0, 1.0]]))
        op = P.RelaxedProjector(a, 1.0)
        handle = P.oracle_intersection((a, b))
        w = np.array([0.0, 0.0, 0.5])
        rep = P.check_quasi_firm_fejer(op, handle, 1.0, 1.0, w, 1.0, samples=400, seed=3)
        assert rep.samples == 400 and rep.violations == 0
        assert P.check_quasi_firm_fejer(op, handle, 1.0, 3.0, w, 1.0, samples=400,
                                        seed=3).violations > 0

    def test_deterministic_given_seed(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.5)
        a = P.check_quasi_firm_fejer(
            op, s, 1.0, 1.0 / 3.0, np.zeros(2), 1.0, samples=300, seed=7
        )
        b = P.check_quasi_firm_fejer(
            op, s, 1.0, 1.0 / 3.0, np.zeros(2), 1.0, samples=300, seed=7
        )
        assert a.worst_margin == b.worst_margin
        assert a.violations == b.violations


# ---------------------------------------------------------------------------
# quasi coercivity
# ---------------------------------------------------------------------------


class TestQuasiCoercive:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
    def test_relaxed_projector_step_equals_lambda_distance(self, lam):
        s = P.Halfspace(np.array([1.0, 0.0]), 0.0)
        op = P.RelaxedProjector(s, lam)
        rep = P.check_quasi_coercive(
            op, s, lam, np.zeros(2), 2.0, samples=500, seed=3
        )
        assert rep.violations == 0
        assert rep.extra["max_abs_gap"] <= 1e-12

    def test_overstated_nu_is_caught(self):
        s = P.Halfspace(np.array([1.0, 0.0]), 0.0)
        op = P.RelaxedProjector(s, 1.0)
        rep = P.check_quasi_coercive(
            op, s, 1.5, np.zeros(2), 2.0, samples=500, seed=3
        )
        assert rep.violations > 0

    def test_nu_domain(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        with pytest.raises(DomainError):
            P.check_quasi_coercive(op, s, 0.0, np.zeros(2), 1.0)


# ---------------------------------------------------------------------------
# injectability
# ---------------------------------------------------------------------------


class TestInjectable:
    def test_enlargement_is_two_tau_injectable(self):
        segment = P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        s = P.Enlargement(segment, 0.1)
        rep = P.check_injectable(
            s, 0.2, np.array([0.5, 0.0]), 1.0, samples=500, seed=0
        )
        assert rep.violations == 0

    def test_translated_orthant_is_arbitrarily_injectable(self):
        s = P.Translate(P.Orthant((1, 1)), np.array([1.0, 1.0]))
        rep = P.check_injectable(
            s, 10.0, np.array([1.5, 1.5]), 1.0, samples=500, seed=0
        )
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-12

    def test_hyperplane_fails(self):
        """Negative control: the inward segment leaves a hyperplane at once."""
        s = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        rep = P.check_injectable(
            s, 0.5, np.zeros(2), 1.0, samples=400, seed=0
        )
        assert rep.violations > 0
        assert rep.worst_margin == pytest.approx(-0.5, abs=1e-9)

    def test_tau_domain(self):
        with pytest.raises(DomainError):
            P.check_injectable(P.Ball(np.zeros(2), 1.0), -1.0, np.zeros(2), 1.0)


# ---------------------------------------------------------------------------
# epsilon-regularity estimator
# ---------------------------------------------------------------------------


class TestEpsRegularity:
    def test_convex_sets_have_zero_eps(self):
        for s, w in [
            (P.Halfspace(np.array([1.0, 0.0]), 1.0), np.array([1.0, 0.0])),
            (P.Ball(np.zeros(2), 1.0), np.array([0.0, 1.0])),
            (P.Box(np.zeros(2), np.ones(2)), np.array([1.0, 0.5])),
        ]:
            e = P.estimate_eps_regularity(s, w, 1.0, samples=400, seed=0)
            assert e.value <= 1e-9

    def test_sphere_eps_scales_with_delta(self):
        """On B(w, 0.2) the unit sphere's sampled eps sits near 0.1 (half the
        arc angle subtended by the ball)."""
        s = P.Sphere(np.zeros(2), 1.0)
        e = P.estimate_eps_regularity(
            s, np.array([1.0, 0.0]), 0.2, samples=600, seed=0
        )
        assert 0.05 <= e.value <= 0.11
        assert not e.extra["vacuous"]

    def test_anchor_must_belong(self):
        s = P.Sphere(np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            P.estimate_eps_regularity(s, np.array([0.5, 0.0]), 0.2)

    def test_deterministic_and_monotone_in_pool(self):
        s = P.Sphere(np.zeros(2), 1.0)
        w = np.array([1.0, 0.0])
        a = P.estimate_eps_regularity(s, w, 0.3, samples=300, seed=5)
        b = P.estimate_eps_regularity(s, w, 0.3, samples=300, seed=5)
        assert a.value == b.value
        # growing the sample pool can only raise the sampled lower bound
        rng = np.random.default_rng(17)
        pool = P.uniform_ball(rng, w, 0.15, 400)
        small = P.estimate_eps_regularity(s, w, 0.3, points=pool[:100])
        large = P.estimate_eps_regularity(s, w, 0.3, points=pool)
        assert large.value >= small.value - 1e-15


# ---------------------------------------------------------------------------
# linear-regularity estimator
# ---------------------------------------------------------------------------


class TestLinearRegularity:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_two_lines_against_closed_form(self, theta):
        a, b, inter = two_lines(theta)
        est = P.estimate_linear_regularity(
            [a, b], inter, np.zeros(2), 1.0, samples=2000, seed=0
        )
        oracle = 1.0 / math.sin(theta / 2.0)
        assert est.value <= oracle + 1e-9
        assert est.value >= 0.95 * oracle

    def test_identical_sets_give_one(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        inter = P.exact_intersection(a, (a, a))
        est = P.estimate_linear_regularity(
            [a, a], inter, np.zeros(2), 1.0, samples=500, seed=0
        )
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.value >= 1.0


# ---------------------------------------------------------------------------
# normal-cone alignment estimator
# ---------------------------------------------------------------------------


class TestThetaBar:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_two_lines_alignment_is_cos_theta(self, theta):
        a, b, _ = two_lines(theta)
        est = P.estimate_theta_bar(a, b, np.zeros(2), samples=256, seed=0)
        assert est.value == pytest.approx(math.cos(theta), abs=1e-12)

    def test_trivial_normal_cone_flags(self):
        ball = P.Ball(np.zeros(2), 1.0)
        line = P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]]))
        est = P.estimate_theta_bar(ball, line, np.zeros(2), samples=64, seed=0)
        assert est.value == 0.0
        assert est.extra["trivial"]

    def test_anchor_must_belong_to_both(self):
        a, b, _ = two_lines(math.pi / 4)
        with pytest.raises(DomainError):
            P.estimate_theta_bar(a, b, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# strong-regularity degeneracy constant
# ---------------------------------------------------------------------------


def _three_halfspaces():
    return [
        P.Halfspace(np.array([1.0, 1.0]), 0.0),
        P.Halfspace(np.array([1.0, -1.0]), 0.0),
        P.Halfspace(np.array([-1.0, 0.0]), 0.0),
    ]


class TestStrongRegularity:
    def test_degenerate_triple(self):
        """The normals of the triple positively span 0, so the sampled
        degeneracy constant collapses to ~0 and the system is flagged."""
        hs = _three_halfspaces()
        est = P.check_strong_regularity(
            hs, np.zeros(2), 1.0, samples=4000, seed=0
        )
        assert est.value <= 1e-6
        assert not est.extra["strong"]

    @pytest.mark.parametrize(
        "i, j, want",
        [
            (0, 1, math.sin(math.pi / 4)),
            (0, 2, math.sin(math.pi / 8)),
            (1, 2, math.sin(math.pi / 8)),
        ],
    )
    def test_pairs_match_half_angle_sines(self, i, j, want):
        hs = _three_halfspaces()
        est = P.check_strong_regularity(
            [hs[i], hs[j]], np.zeros(2), 1.0, samples=4000, seed=0
        )
        assert est.value == pytest.approx(want, abs=1e-9)
        assert est.extra["strong"]

    def test_deterministic_given_seed(self):
        hs = _three_halfspaces()
        a = P.check_strong_regularity(hs[:2], np.zeros(2), 1.0, samples=500, seed=9)
        b = P.check_strong_regularity(hs[:2], np.zeros(2), 1.0, samples=500, seed=9)
        assert a.value == b.value


# ---------------------------------------------------------------------------
# sampling helper
# ---------------------------------------------------------------------------


class TestUniformBall:
    def test_within_radius_and_deterministic(self):
        rng = np.random.default_rng(0)
        pts = P.uniform_ball(rng, np.array([1.0, -1.0, 0.5]), 2.0, 500)
        assert pts.shape == (500, 3)
        assert np.all(
            np.linalg.norm(pts - np.array([1.0, -1.0, 0.5]), axis=1) <= 2.0 + 1e-12
        )
        pts2 = P.uniform_ball(
            np.random.default_rng(0), np.array([1.0, -1.0, 0.5]), 2.0, 500
        )
        assert np.array_equal(pts, pts2)

    def test_fills_the_ball(self):
        rng = np.random.default_rng(1)
        pts = P.uniform_ball(rng, np.zeros(2), 1.0, 2000)
        # mean near the center, a decent share beyond half radius
        assert np.linalg.norm(pts.mean(axis=0)) < 0.1
        assert np.mean(np.linalg.norm(pts, axis=1) > 0.5) > 0.5
