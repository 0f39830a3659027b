"""Rate-certificate constructors: frozen closed-form values and invariants.

Frozen expectations were computed by hand from the closed-form definitions
(products/sums of the per-operator constants) before the tests were written.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projlab as P
from projlab import (
    DomainError,
    MoreThanOneFullIntrepid,
    MoreThanOneReflection,
    StrongRegularityFailed,
)

SQRT5 = math.sqrt(5.0)
SQRT8 = math.sqrt(8.0)
SQRT10 = math.sqrt(10.0)


# ---------------------------------------------------------------------------
# Per-operator Fejer constants
# ---------------------------------------------------------------------------


class TestFejerConstants:
    def test_relaxed_projector_constants_general(self):
        fc = P.relaxed_projector_constants(2.0, 0.2)
        # gamma = 1 + lam*eps/(1-eps) = 1 + 0.4/0.8; beta = (2-lam)/lam = 0
        assert fc.gamma == pytest.approx(1.5, abs=1e-15)
        assert fc.beta == pytest.approx(0.0, abs=1e-15)

    def test_relaxed_projector_constants_plain_projection(self):
        fc = P.relaxed_projector_constants(1.0, 0.0)
        assert fc.gamma == 1.0
        assert fc.beta == 1.0

    @pytest.mark.parametrize("lam", [0.0, -0.5, 2.5])
    def test_relaxed_projector_constants_lambda_domain(self, lam):
        with pytest.raises(DomainError):
            P.relaxed_projector_constants(lam, 0.0)

    @pytest.mark.parametrize("eps", [-0.1, 1.0, 1.5])
    def test_relaxed_projector_constants_eps_domain(self, eps):
        with pytest.raises(DomainError):
            P.relaxed_projector_constants(1.0, eps)

    def test_averaged_constants(self):
        # (gamma, beta, lam) -> (1 - lam + lam*gamma, (1 - lam + beta)/lam)
        fc = P.averaged_constants(1.2, 1.0, 0.5)
        assert fc.gamma == pytest.approx(1.1, abs=1e-15)
        assert fc.beta == pytest.approx(3.0, abs=1e-15)

    def test_averaged_constants_identity_at_lambda_one(self):
        fc = P.averaged_constants(1.7, 0.4, 1.0)
        assert fc.gamma == pytest.approx(1.7, abs=1e-15)
        assert fc.beta == pytest.approx(0.4, abs=1e-15)

    def test_averaged_constants_lambda_domain(self):
        # lam must lie in (0, 1 + beta]
        with pytest.raises(DomainError):
            P.averaged_constants(1.0, 0.5, 1.6)
        with pytest.raises(DomainError):
            P.averaged_constants(1.0, 0.5, 0.0)
        # boundary lam = 1 + beta is allowed
        fc = P.averaged_constants(1.0, 0.5, 1.5)
        assert fc.beta == pytest.approx(0.0, abs=1e-15)

    def test_semi_intrepid_constants(self):
        # gamma = (1 + alpha*eps)/(1 - eps); beta = (1 - alpha)/(1 + alpha)
        fc = P.semi_intrepid_constants(0.5, 0.2)
        assert fc.gamma == pytest.approx(1.1 / 0.8, rel=1e-15)
        assert fc.beta == pytest.approx(1.0 / 3.0, rel=1e-15)

    def test_semi_intrepid_constants_alpha_endpoints(self):
        fc0 = P.semi_intrepid_constants(0.0, 0.0)
        assert (fc0.gamma, fc0.beta) == (1.0, 1.0)
        fc1 = P.semi_intrepid_constants(1.0, 0.0)
        assert (fc1.gamma, fc1.beta) == (1.0, 0.0)
        with pytest.raises(DomainError):
            P.semi_intrepid_constants(1.2, 0.0)

    def test_dr_constants_frozen(self):
        # lam=mu=2, alpha=1/2, eps1=eps2=0.1:
        # f1 = f2 = 1 + 0.2/0.9 = 11/9; gamma = 1/2 + (1/2)(11/9)^2 = 101/81
        fc = P.dr_constants(2.0, 2.0, 0.5, 0.1, 0.1)
        assert fc.gamma == pytest.approx(101.0 / 81.0, rel=1e-14)
        assert fc.beta == pytest.approx(1.0, abs=1e-15)

    def test_dr_constants_exact_at_zero_eps(self):
        fc = P.dr_constants(1.0, 1.0, 0.5, 0.0, 0.0)
        assert fc.gamma == 1.0
        assert fc.beta == 1.0

    def test_dr_constants_eps1_domain(self):
        # eps1 is restricted to [0, 1/3]
        with pytest.raises(DomainError):
            P.dr_constants(1.0, 1.0, 0.5, 0.4, 0.0)
        with pytest.raises(DomainError):
            P.dr_constants(1.0, 1.0, 0.0, 0.0, 0.0)  # alpha in (0, 1]

    def test_dr_coercivity_frozen(self):
        # alpha*sqrt(1-theta)/kappa * min(lam, mu/sqrt(1+mu^2))
        # = 1 * 1 / 2 * min(2, 2/sqrt(5)) = 1/sqrt(5)
        nu = P.dr_coercivity(2.0, 2.0, 1.0, 0.0, 2.0)
        assert nu == pytest.approx(1.0 / SQRT5, rel=1e-15)

    def test_dr_coercivity_theta_bounds(self):
        with pytest.raises(StrongRegularityFailed):
            P.dr_coercivity(2.0, 2.0, 1.0, 1.0, 2.0)
        with pytest.raises(DomainError):
            P.dr_coercivity(2.0, 2.0, 1.0, -1.5, 2.0)
        with pytest.raises(DomainError):
            P.dr_coercivity(2.0, 2.0, 1.0, 0.0, 0.5)  # kappa >= 1


# ---------------------------------------------------------------------------
# Certificate constructors: frozen examples
# ---------------------------------------------------------------------------


class TestCertificatesFrozen:
    def test_cyclic_projections_two_sets(self):
        # bracket = (1-eps)^-(m-1) - 1/((m-1) kappa^2) = 1 - 1/4 = 3/4
        cert = P.rate_cyclic_projections(2, 0.0, 2.0)
        assert cert.applicable
        assert cert.block_len == 1
        assert cert.rho_block == pytest.approx(math.sqrt(3.0) / 2.0, rel=1e-15)
        assert cert.rho_per_iterate == pytest.approx(cert.rho_block, rel=1e-15)
        assert cert.delta0_over_delta == pytest.approx(0.5, abs=1e-15)

    def test_cyclic_projections_sigma(self):
        cert = P.rate_cyclic_projections(2, 0.0, 2.0)
        g = cert.gamma_total
        want = g * (1.0 + g) * 1.0 / (1.0 - cert.rho_block)
        assert cert.sigma(1.0) == pytest.approx(want, rel=1e-15)

    def test_refined_three_projectors(self):
        # gammas = betas = 1, kappa = sqrt(10):
        # bracket = 1 - (1/10)/(3 - 1) = 0.95, block m-1 = 2
        cert = P.rate_refined([1.0, 1.0, 1.0], [1.0, 1.0, 1.0], SQRT10)
        assert cert.block_len == 2
        assert cert.rho_block == pytest.approx(math.sqrt(0.95), rel=1e-15)
        assert cert.rho_per_iterate == pytest.approx(0.95 ** 0.25, rel=1e-15)
        assert cert.applicable

    def test_dist_qf_not_applicable(self):
        # gammas (1.5, 1.0), j = 0, beta list without j = (1.0,), nu = 0.5,
        # kappa = sqrt(5): bracket = 1.5 - 1.5*(0.25/5)/1 = 1.425 > 1
        cert = P.rate_dist_qf([1.5, 1.0], [1.0], 0, 0.5, SQRT5)
        assert not cert.applicable
        assert cert.rho_block == pytest.approx(math.sqrt(1.425), rel=1e-15)
        assert cert.block_len == 2
        with pytest.raises(DomainError):
            cert.sigma(1.0)

    def test_dist_qff_single_operator(self):
        # bracket = 1 - (0.25/8)/1 = 31/32 with kappa = sqrt(8)
        cert = P.rate_dist_qff([1.0], [1.0], 0.5, SQRT8)
        assert cert.block_len == 1
        assert cert.rho_block ** 2 == pytest.approx(31.0 / 32.0, rel=1e-15)

    def test_dist_qff_bracket_clamped_to_zero(self):
        # large coercivity with beta = 10 drives the bracket negative
        cert = P.rate_dist_qff([1.0], [10.0], 0.99, 1.0)
        assert cert.rho_block == 0.0
        assert cert.applicable

    def test_dist_qff_nu_domain(self):
        with pytest.raises(DomainError):
            P.rate_dist_qff([1.0], [1.0], 1.1, 1.0)
        with pytest.raises(DomainError):
            P.rate_dist_qff([1.0], [1.0], 0.0, 1.0)

    def test_cyclic_relaxed_with_one_reflection(self):
        # lam = (2, 1), eps = 0: reflection index excluded from the
        # coercive sum, bracket = 1 - (1/4)/1 = 3/4, block m = 2
        cert = P.rate_cyclic_relaxed([2.0, 1.0], 0.0, 2.0)
        assert cert.block_len == 2
        assert cert.rho_block ** 2 == pytest.approx(0.75, rel=1e-14)

    def test_cyclic_relaxed_rejects_two_reflections(self):
        with pytest.raises(MoreThanOneReflection):
            P.rate_cyclic_relaxed([2.0, 2.0, 1.0], 0.0, 2.0)

    def test_cyclic_overrelaxed(self):
        # lam = (1.5, 1): terms 3 and 1, denom = 4 - 1 = 3,
        # bracket = 1 - (1/4)/3 = 11/12, block m-1 = 1
        cert = P.rate_cyclic_overrelaxed([1.5, 1.0], 0.0, 2.0)
        assert cert.block_len == 1
        assert cert.rho_block ** 2 == pytest.approx(11.0 / 12.0, rel=1e-15)

    def test_cyclic_overrelaxed_domain(self):
        # requires lam in [1, 2) and at least two operators
        with pytest.raises(DomainError):
            P.rate_cyclic_overrelaxed([2.0, 1.0], 0.0, 2.0)
        with pytest.raises(DomainError):
            P.rate_cyclic_overrelaxed([0.9, 1.0], 0.0, 2.0)
        with pytest.raises(DomainError):
            P.rate_cyclic_overrelaxed([1.5], 0.0, 2.0)

    def test_convex_cyclic(self):
        # eps = 0 globally: bracket = 1 - (1/4)/2 = 7/8, block m = 2
        cert = P.rate_convex_cyclic([1.0, 1.0], 2.0)
        assert cert.block_len == 2
        assert cert.gamma_total == 1.0
        assert cert.rho_block ** 2 == pytest.approx(0.875, rel=1e-15)
        assert cert.delta0_over_delta == pytest.approx(0.5, abs=1e-15)

    def test_cyclic_semi_intrepid(self):
        # alphas (1, 0.6), eps = 0: one full-intrepid index, terms only for
        # the other one: (1+0.6)/(1-0.6) = 4; bracket = 1 - (1/4)/4 = 15/16;
        # block = m - 1 + |J| = 2
        cert = P.rate_cyclic_semi_intrepid([1.0, 0.6], 0.0, 2.0)
        assert cert.block_len == 2
        assert cert.rho_block ** 2 == pytest.approx(0.9375, rel=1e-14)
        assert cert.rho_per_iterate == pytest.approx(0.9375 ** 0.25, rel=1e-14)

    def test_cyclic_semi_intrepid_rejects_two_full(self):
        with pytest.raises(MoreThanOneFullIntrepid):
            P.rate_cyclic_semi_intrepid([1.0, 1.0], 0.0, 2.0)

    def test_cyclic_dr(self):
        cert = P.rate_cyclic_dr([1.0], [1.0], 0.5, SQRT8)
        assert cert.block_len == 1
        assert cert.rho_block ** 2 == pytest.approx(31.0 / 32.0, rel=1e-15)

    def test_kappa_domain(self):
        with pytest.raises(DomainError):
            P.rate_cyclic_projections(2, 0.0, 0.5)

    def test_inputs_recorded(self):
        cert = P.rate_cyclic_projections(3, 0.1, 2.0)
        assert cert.inputs["m"] == 3
        assert cert.inputs["eps"] == pytest.approx(0.1)
        assert cert.inputs["kappa"] == pytest.approx(2.0)
        assert cert.theorem


class TestSharedBodies:
    """dist_qff and cyclic_dr share one body, and convex_cyclic is
    cyclic_relaxed at eps = 0; these values were produced by the separate
    implementations they replace."""

    def test_dist_qff_pinned(self):
        cert = P.rate_dist_qff([1.0, 1.02], [0.5, 1.5], 0.9, 1.2)
        assert cert.theorem == "dist_qff"
        assert cert.inputs == {"gamma": [1.0, 1.02], "beta": [0.5, 1.5], "nu": 0.9,
                               "kappa": 1.2, "m": 2}
        assert cert.gamma_total == float.fromhex("0x1.028c1d959b062p+0")
        assert cert.rho_block == float.fromhex("0x1.cc8883793ed04p-1")
        assert cert.rho_per_iterate == float.fromhex("0x1.e595d26989318p-1")
        assert cert.start_radius_over_delta0 == float.fromhex("0x1.862e950f40349p-5")
        assert (cert.block_len, cert.delta0_over_delta) == (2, 0.5)

    def test_cyclic_dr_pinned(self):
        cert = P.rate_cyclic_dr([1.01], [0.8], 0.6, 1.3)
        assert cert.theorem == "cyclic_dr"
        assert cert.inputs == {"gamma": [1.01], "beta": [0.8], "nu": 0.6, "kappa": 1.3,
                               "blocks": 1}
        assert cert.gamma_total == float.fromhex("0x1.0146dd68287f3p+0")
        assert cert.rho_block == float.fromhex("0x1.d523d9d646e1ep-1")
        assert cert.start_radius_over_delta0 == float.fromhex("0x1.4851a8287b67bp-5")
        with pytest.raises(DomainError, match="gamma_j"):
            P.rate_cyclic_dr([0.5], [0.8], 0.6, 1.3)

    @pytest.mark.parametrize("lams, kappa, J, rho_block, rho_iter, start", [
        ([1.0, 1.5], 1.7, [], "0x1.e95a956fd96adp-1", "0x1.f48c827f28409p-1",
         "0x1.627fa6f6591f9p-6"),
        ([2.0, 0.6, 1.3], 3.1, [0], "0x1.fbc97b483d917p-1", "0x1.fe9780d609b7ep-1",
         "0x1.0c865bb192633p-8"),
    ])
    def test_convex_cyclic_pinned(self, lams, kappa, J, rho_block, rho_iter, start):
        cert = P.rate_convex_cyclic(lams, kappa)
        assert cert.theorem == "convex_cyclic"
        assert cert.inputs == {"lambda": lams, "kappa": kappa, "J": J, "m": len(lams),
                               "global": True}
        assert (cert.gamma_total, cert.delta0_over_delta, cert.block_len) == (1.0, 0.5, len(lams))
        assert cert.rho_block == float.fromhex(rho_block)
        assert cert.rho_per_iterate == cert.rho_stated == float.fromhex(rho_iter)
        assert cert.start_radius_over_delta0 == float.fromhex(start)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


class TestCertificateProperties:
    @given(
        m=st.integers(min_value=2, max_value=6),
        eps=st.floats(min_value=0.0, max_value=0.5),
        kappa=st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_per_iterate_consistency(self, m, eps, kappa):
        cert = P.rate_cyclic_projections(m, eps, kappa)
        assert cert.rho_per_iterate ** cert.block_len == pytest.approx(
            cert.rho_block, rel=1e-12, abs=1e-12
        )

    @given(
        m=st.integers(min_value=2, max_value=5),
        kappa=st.floats(min_value=1.0, max_value=8.0),
        eps1=st.floats(min_value=0.0, max_value=0.4),
        eps2=st.floats(min_value=0.0, max_value=0.4),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_monotone_in_eps(self, m, kappa, eps1, eps2):
        lo, hi = sorted((eps1, eps2))
        c_lo = P.rate_cyclic_projections(m, lo, kappa)
        c_hi = P.rate_cyclic_projections(m, hi, kappa)
        assert c_lo.rho_block <= c_hi.rho_block + 1e-12

    @given(
        m=st.integers(min_value=2, max_value=5),
        eps=st.floats(min_value=0.0, max_value=0.4),
        kappa1=st.floats(min_value=1.0, max_value=8.0),
        kappa2=st.floats(min_value=1.0, max_value=8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_rate_monotone_in_kappa(self, m, eps, kappa1, kappa2):
        lo, hi = sorted((kappa1, kappa2))
        c_lo = P.rate_cyclic_projections(m, eps, lo)
        c_hi = P.rate_cyclic_projections(m, eps, hi)
        assert c_lo.rho_block <= c_hi.rho_block + 1e-12

    @given(
        lams=st.lists(
            st.floats(min_value=1.0, max_value=1.999), min_size=2, max_size=4
        ),
        eps=st.floats(min_value=0.0, max_value=0.3),
        kappa=st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_overrelaxed_dominates_relaxed(self, lams, eps, kappa):
        """For lam in [1,2) the (m-1)-block certificate is never worse
        per iterate than the m-block certificate, whenever both apply."""
        relaxed = P.rate_cyclic_relaxed(lams, eps, kappa)
        over = P.rate_cyclic_overrelaxed(lams, eps, kappa)
        if relaxed.applicable and over.applicable:
            assert over.rho_per_iterate <= relaxed.rho_per_iterate + 1e-12

    @given(
        gammas=st.lists(
            st.floats(min_value=1.0, max_value=2.0), min_size=1, max_size=4
        ),
        nu=st.floats(min_value=0.01, max_value=1.0),
        kappa=st.floats(min_value=1.0, max_value=5.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_qff_bracket_nonnegative_and_bounded(self, gammas, nu, kappa):
        betas = [1.0] * len(gammas)
        cert = P.rate_dist_qff(gammas, betas, nu, kappa)
        assert 0.0 <= cert.rho_block
        assert cert.rho_block ** 2 <= float(np.prod(gammas)) + 1e-12


# ---------------------------------------------------------------------------
# Finite Fejér lists and whole counts
# ---------------------------------------------------------------------------


class TestFiniteListsAndWholeCounts:
    """A gamma lies in [1, inf) and a beta in (0, inf): an infinite one
    gave a ZeroDivisionError or a NaN ratio.  A cycle length m or an index
    j must be a whole number: m = 2.7 ran as 2 and j = 1.5 gave a
    TypeError."""

    @pytest.mark.parametrize("call, message", [
        (lambda: P.rate_dist_qff([1.0, 1.0], [1.0, math.inf], 0.5, 2.0),
         r"beta_i must lie in \(0, inf\), got inf"),
        (lambda: P.rate_refined([1.0, 1.0], [1.0, math.inf], 2.0),
         r"beta_i must lie in \(0, inf\), got inf"),
        (lambda: P.rate_cyclic_dr([1.0], [math.inf], 0.5, 2.0),
         r"beta_j must lie in \(0, inf\), got inf"),
        (lambda: P.rate_dist_qff([math.inf, 1.0], [1.0, 1.0], 0.5, 2.0),
         r"gamma_i must lie in \[1, inf\), got inf"),
        (lambda: P.rate_cyclic_projections(2.7, 0.1, 2.0), "m must be a whole number, got 2.7"),
        (lambda: P.rate_dist_qf([1.0, 1.0], [1.0], 1.5, 0.5, 2.0),
         "j must be a whole number, got 1.5"),
    ], ids=["dist_qff_beta_inf", "refined_beta_inf", "cyclic_dr_beta_inf", "gamma_inf",
            "m_fraction", "j_fraction"])
    def test_raises_domain_error(self, call, message):
        with pytest.raises(DomainError, match=message):
            call()

    def test_whole_floats_still_count(self):
        assert P.rate_cyclic_projections(3.0, 0.1, 2.0) == P.rate_cyclic_projections(3, 0.1, 2.0)
        assert P.rate_dist_qf([1.0, 1.0], [1.0], 1.0, 0.5, 2.0).inputs["j"] == 1
