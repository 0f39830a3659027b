"""Fejér constants and R-linear rate certificates for cyclic projection schemes.

Every certificate records the contraction factor at the granularity its
theorem states it (a k-step block factor and the equivalent per-iterate
root), the constant Gamma entering error envelopes, the ball-shrinkage
ratio delta0/delta, and the admissible start-radius fraction
(1 - rho) / (2 + Gamma - rho).  Rates that come out >= 1 are reported with
applicable=False rather than raised: a vacuous bound is a result, not an
error.

Each interval of the paper's constants is named once, here, and every check
of that constant reads it: LAMBDA_RANGE (0, 2] for a relaxation parameter,
EPS_RANGE [0, 1) for the error levels eps and eps2, EPS1_RANGE [0, 1/3]
for eps1, ALPHA_RANGE [0, 1] for a semi-intrepid alpha, KAPPA_RANGE
[1, inf] for the regularity kappa, THEOREM_NU_RANGE (0, 1] for the
coercivity nu of a rate theorem and TAU_RANGE [0, inf) for a depth tau
(the semi-intrepid step's and the injectability radius).  `_fejer_pair` is
the one domain of a quasi-firm Fejér pair, gamma in (0, inf) and beta in
[0, inf], which `averaged_constants` and the sampled and trajectory checks
of the inequality share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import (
    DomainError,
    MoreThanOneFullIntrepid,
    MoreThanOneReflection,
    StrongRegularityFailed,
    check_range,
    check_real,
    check_whole,
)

# The intervals of the paper's constants (see the module docstring), as
# check_range's (lo, hi, lo_open, hi_open).
LAMBDA_RANGE = (0.0, 2.0, True, False)
EPS_RANGE = (0.0, 1.0, False, True)
EPS1_RANGE = (0.0, 1.0 / 3.0, False, False)
ALPHA_RANGE = (0.0, 1.0, False, False)
TAU_RANGE = (0.0, math.inf, False, True)
KAPPA_RANGE = (1.0, math.inf, False, False)
THEOREM_NU_RANGE = (0.0, 1.0, True, False)


def _dr_domain(lam, mu, alpha):
    """The generalized DR step's lam, mu in (0, 2] and alpha in (0, 1]."""
    return (check_range("lambda", lam, *LAMBDA_RANGE), check_range("mu", mu, *LAMBDA_RANGE),
            check_range("alpha", alpha, 0.0, 1.0, lo_open=True))


def _eps_kappa(eps, kappa):
    """A concrete rate theorem's eps in [0, 1) and kappa in [1, inf]."""
    return (check_range("eps", eps, *EPS_RANGE),
            check_range("kappa", kappa, *KAPPA_RANGE))


def _fejer_pair(gamma, beta):
    """The quasi-firm Fejér constants gamma in (0, inf) and beta in [0, inf]."""
    return (check_range("gamma", gamma, 0.0, math.inf, lo_open=True, hi_open=True),
            check_range("beta", beta, 0.0, math.inf))


@dataclass(frozen=True)
class FejerConstants:
    """(gamma, beta) of a quasi firm Fejér inequality
    ||x+ - xbar||^2 + beta ||x - x+||^2 <= gamma ||x - xbar||^2."""

    gamma: float
    beta: float


@dataclass(frozen=True)
class RateCertificate:
    theorem: str
    inputs: dict
    gamma_total: float          # Gamma
    rho_block: float            # contraction per block of block_len iterates
    block_len: int
    rho_per_iterate: float
    rho_stated: float           # the value at the exponent the theorem states
    applicable: bool            # rho < 1
    delta0_over_delta: float
    start_radius_over_delta0: float
    start_prefactor: float = 1.0

    def sigma(self, d0: float) -> float:
        """Envelope prefactor Gamma (1 + Gamma) d_C(x0) / (1 - rho_block)."""
        if not self.applicable:
            raise DomainError("sigma undefined for a non-applicable certificate")
        return self.gamma_total * (1.0 + self.gamma_total) * d0 / (1.0 - self.rho_block)


def _certificate(theorem, inputs, gamma_total, bracket, block_len,
                 delta0_over_delta, start_prefactor=1.0, stated_block=True):
    """Assemble a certificate from the clamped bracket value."""
    bracket = max(0.0, bracket)
    rho_block = math.sqrt(bracket)
    rho_iter = rho_block ** (1.0 / block_len)
    applicable = rho_block < 1.0
    if applicable:
        start_ratio = (1.0 - rho_block) / (2.0 + gamma_total - rho_block)
    else:
        start_ratio = 0.0
    return RateCertificate(
        theorem=theorem,
        inputs=dict(inputs),
        gamma_total=float(gamma_total),
        rho_block=float(rho_block),
        block_len=int(block_len),
        rho_per_iterate=float(rho_iter),
        rho_stated=float(rho_block if stated_block else rho_iter),
        applicable=applicable,
        delta0_over_delta=float(delta0_over_delta),
        start_radius_over_delta0=float(start_ratio),
        start_prefactor=float(start_prefactor),
    )


# ---------------------------------------------------------------------------
# single-operator constants


def _relaxed_gamma(lam, eps):
    """Fejér gamma of a relaxed projector onto an eps-regular set."""
    return 1.0 + lam * eps / (1.0 - eps)


def _semi_intrepid_gamma(alpha, eps):
    """Fejér gamma of a semi-intrepid projector onto an eps-regular set."""
    return (1.0 + alpha * eps) / (1.0 - eps)


def relaxed_projector_constants(lam, eps) -> FejerConstants:
    """Quasi firm Fejér constants of a relaxed projector onto an
    (eps, delta)-regular set: gamma = 1 + lam*eps/(1-eps), beta = (2-lam)/lam."""
    lam = check_range("lambda", lam, *LAMBDA_RANGE)
    eps = check_range("eps", eps, *EPS_RANGE)
    return FejerConstants(_relaxed_gamma(lam, eps), (2.0 - lam) / lam)


def averaged_constants(gamma, beta, lam) -> FejerConstants:
    """Constants of (1-lam) Id + lam T given (gamma, beta) for T; lam in (0, 1+beta]."""
    gamma, beta = _fejer_pair(gamma, beta)
    lam = check_range("averaging parameter", lam, 0.0, 1.0 + beta, lo_open=True)
    return FejerConstants(1.0 - lam + lam * gamma, (1.0 - lam + beta) / lam)


def semi_intrepid_constants(alpha, eps) -> FejerConstants:
    """gamma = (1 + alpha*eps)/(1 - eps), beta = (1 - alpha)/(1 + alpha)."""
    alpha = check_range("alpha", alpha, *ALPHA_RANGE)
    eps = check_range("eps", eps, *EPS_RANGE)
    return FejerConstants(_semi_intrepid_gamma(alpha, eps), (1.0 - alpha) / (1.0 + alpha))


def dr_constants(lam, mu, alpha, eps1, eps2) -> FejerConstants:
    """Constants of the generalized Douglas-Rachford step on an
    (eps1, .)-regular first set and (eps2, .)-regular second set."""
    lam, mu, alpha = _dr_domain(lam, mu, alpha)
    eps1 = check_range("eps1", eps1, *EPS1_RANGE)
    eps2 = check_range("eps2", eps2, *EPS_RANGE)
    gamma = 1.0 - alpha + alpha * _relaxed_gamma(lam, eps1) * _relaxed_gamma(mu, eps2)
    return FejerConstants(gamma, (1.0 - alpha) / alpha)


def dr_coercivity(lam, mu, alpha, theta, kappa) -> float:
    """Quasi coercivity constant
    nu = alpha sqrt(1 - theta) / kappa * min(lam, mu / sqrt(1 + mu^2)).

    theta bounds the pairing of proximal normals of the two sets near the
    reference point; theta >= 1 signals degenerate normal geometry.
    """
    lam, mu, alpha = _dr_domain(lam, mu, alpha)
    kappa = check_range("kappa", kappa, *KAPPA_RANGE)
    if (t := check_real("theta", theta)) >= 1.0:
        raise StrongRegularityFailed(f"theta must be < 1, got {t}")
    theta = check_range("theta", theta, -1.0, 1.0, lo_open=True, hi_open=True)
    return alpha * math.sqrt(1.0 - theta) / kappa * min(lam, mu / math.sqrt(1.0 + mu * mu))


# ---------------------------------------------------------------------------
# abstract rate theorems (quasi Fejér + coercivity -> R-linear rate)


def _fejer_lists(index, gamma_list, beta_list):
    """The gammas, each in [1, inf), and the betas, each in (0, inf), of a
    cycle; `index` is the subscript in range errors."""
    return ([check_range(f"gamma_{index}", g, 1.0, math.inf, hi_open=True) for g in gamma_list],
            [check_range(f"beta_{index}", b, 0.0, math.inf, lo_open=True, hi_open=True)
             for b in beta_list])


def _qff_cycle(theorem, count_key, index, gamma_list, beta_list, nu, kappa):
    """The certificate of a cycle of quasi firmly Fejér operators (or
    blocks) with a joint coercivity constant nu; `count_key` names the
    cycle length in `inputs` and `index` the subscript in range errors."""
    gammas, betas = _fejer_lists(index, gamma_list, beta_list)
    if len(gammas) != len(betas) or not gammas:
        raise DomainError("gamma and beta lists must be nonempty and equally long")
    nu = check_range("nu", nu, *THEOREM_NU_RANGE)
    kappa = check_range("kappa", kappa, *KAPPA_RANGE)
    m = len(gammas)
    gamma_sq = math.prod(gammas)
    gamma_total = math.sqrt(gamma_sq)
    bracket = gamma_sq - (nu * nu / (kappa * kappa)) / sum(1.0 / b for b in betas)
    return _certificate(
        theorem,
        {"gamma": gammas, "beta": betas, "nu": nu, "kappa": kappa, count_key: m},
        gamma_total,
        bracket,
        m,
        math.sqrt(gammas[-1]) / (2.0 * gamma_total),
    )


def rate_dist_qff(gamma_list, beta_list, nu, kappa) -> RateCertificate:
    """Cycle of m quasi firmly Fejér operators, each quasi coercive with
    constant nu: block factor rho = sqrt([Gamma^2 - nu^2/kappa^2 (sum 1/beta_i)^-1]_+)."""
    return _qff_cycle("dist_qff", "m", "i", gamma_list, beta_list, nu, kappa)


def rate_dist_qf(gamma_list, beta_list_no_j, j, nu, kappa) -> RateCertificate:
    """Variant where operator j is only quasi Fejér (no beta_j)."""
    gammas, betas = _fejer_lists("i", gamma_list, beta_list_no_j)
    m = len(gammas)
    if m < 2:
        raise DomainError("need at least two operators")
    j = check_whole("j", j)
    if not 0 <= j < m:
        raise DomainError(f"index j must name one of the {m} operators")
    if len(betas) != m - 1:
        raise DomainError("beta list must omit exactly the j-th operator")
    nu = check_range("nu", nu, *THEOREM_NU_RANGE)
    kappa = check_range("kappa", kappa, *KAPPA_RANGE)
    gamma_sq = math.prod(gammas)
    gamma_total = math.sqrt(gamma_sq)
    bracket = gamma_sq - gammas[j] * (nu * nu / (kappa * kappa)) / sum(1.0 / b for b in betas)
    return _certificate(
        "dist_qf",
        {"gamma": gammas, "beta_no_j": betas, "j": j, "nu": nu, "kappa": kappa, "m": m},
        gamma_total,
        bracket,
        m,
        math.sqrt(gammas[j]) / (2.0 * gamma_total),
    )


def rate_refined(gamma_list, beta_list, kappa) -> RateCertificate:
    """Sharper cycle rate: Gamma^2 = prod(gamma)/min(gamma) and the coercivity
    sum drops its largest beta; linear reduction after m - 1 steps."""
    gammas, betas = _fejer_lists("i", gamma_list, beta_list)
    if len(gammas) != len(betas) or len(gammas) < 2:
        raise DomainError("need matched lists with at least two operators")
    kappa = check_range("kappa", kappa, *KAPPA_RANGE)
    m = len(gammas)
    gamma_sq = math.prod(gammas) / min(gammas)
    gamma_total = math.sqrt(gamma_sq)
    denom = sum(1.0 / b for b in betas) - 1.0 / max(betas)
    bracket = gamma_sq - (1.0 / (kappa * kappa)) / denom
    return _certificate(
        "refined",
        {"gamma": gammas, "beta": betas, "kappa": kappa, "m": m},
        gamma_total,
        bracket,
        m - 1,
        1.0 / (2.0 * gamma_total),
        start_prefactor=1.0 / math.sqrt(max(gammas)),
    )


# ---------------------------------------------------------------------------
# concrete cyclic schemes


def _infer_full(params, full_value, error_cls, label):
    J = [i for i, v in enumerate(params) if v == full_value]
    if len(J) > 1:
        raise error_cls(f"at most one {label} per cycle, found {len(J)}")
    return J


def rate_cyclic_relaxed(lam_list, eps, kappa) -> RateCertificate:
    """Cyclic relaxed projections, lam_i in (0, 2], at most one reflector.

    rho^(2m) = [Gamma^2 - nu^2/kappa^2 (sum_{i not in J} lam_i/(2-lam_i))^-1
                ((1+eps)/(1-eps))^|J|]_+ with J = {i : lam_i = 2}.
    """
    lams = [check_range("lambda_i", v, *LAMBDA_RANGE) for v in lam_list]
    if not lams:
        raise DomainError("empty cycle")
    eps, kappa = _eps_kappa(eps, kappa)
    J = _infer_full(lams, 2.0, MoreThanOneReflection, "reflector (lambda = 2)")
    others = [v for v in lams if v != 2.0]
    if not others:
        raise DomainError("a pure reflector cycle admits no coercivity sum")
    m = len(lams)
    gammas = [_relaxed_gamma(v, eps) for v in lams]
    gamma_sq = math.prod(gammas)
    gamma_total = math.sqrt(gamma_sq)
    nu = min(min(1.0, v) for v in others)
    coercive_sum = sum(v / (2.0 - v) for v in others)
    bracket = gamma_sq - (nu * nu / (kappa * kappa)) / coercive_sum * (
        _semi_intrepid_gamma(1.0, eps) ** len(J))
    return _certificate(
        "cyclic_relaxed",
        {"lambda": lams, "eps": eps, "kappa": kappa, "J": J, "m": m},
        gamma_total,
        bracket,
        m,
        math.sqrt(min(gammas)) / (2.0 * gamma_total),
        stated_block=False,
    )


def rate_cyclic_overrelaxed(lam_list, eps, kappa) -> RateCertificate:
    """Cyclic relaxed projections with lam_i in [1, 2): sharper exponent
    1/(2(m-1)) and the coercivity sum drops its largest term."""
    lams = [check_range("lambda_i", v, 1.0, 2.0, hi_open=True) for v in lam_list]
    if len(lams) < 2:
        raise DomainError("need at least two operators")
    eps, kappa = _eps_kappa(eps, kappa)
    m = len(lams)
    gammas = [_relaxed_gamma(v, eps) for v in lams]
    gamma_sq = math.prod(gammas) / min(gammas)
    gamma_total = math.sqrt(gamma_sq)
    terms = [v / (2.0 - v) for v in lams]
    denom = sum(terms) - min(terms)
    bracket = gamma_sq - (1.0 / (kappa * kappa)) / denom
    return _certificate(
        "cyclic_overrelaxed",
        {"lambda": lams, "eps": eps, "kappa": kappa, "m": m},
        gamma_total,
        bracket,
        m - 1,
        1.0 / (2.0 * gamma_total * math.sqrt(max(gammas))),
        stated_block=False,
    )


def rate_cyclic_projections(m, eps, kappa) -> RateCertificate:
    """Plain cyclic projections over m sets:
    rho^(2(m-1)) = [(1-eps)^-(m-1) - ((m-1) kappa^2)^-1]_+."""
    m = check_whole("m", m)
    if m < 2:
        raise DomainError("need at least two sets")
    eps, kappa = _eps_kappa(eps, kappa)
    gamma = 1.0 / (1.0 - eps)
    gamma_sq = gamma ** (m - 1)
    gamma_total = math.sqrt(gamma_sq)
    bracket = gamma_sq - 1.0 / ((m - 1) * kappa * kappa)
    return _certificate(
        "cyclic_projections",
        {"eps": eps, "kappa": kappa, "m": m},
        gamma_total,
        bracket,
        m - 1,
        1.0 / (2.0 * gamma_total * math.sqrt(gamma)),
        stated_block=False,
    )


def rate_convex_cyclic(lam_list, kappa) -> RateCertificate:
    """Convex sets (eps = 0): global rate for cyclic relaxed projections,
    at most one reflector."""
    cert = rate_cyclic_relaxed(lam_list, 0.0, kappa)
    inputs = {k: v for k, v in cert.inputs.items() if k != "eps"}
    return replace(cert, theorem="convex_cyclic", inputs={**inputs, "global": True})


def rate_cyclic_semi_intrepid(alpha_list, eps, kappa) -> RateCertificate:
    """Cyclic semi-intrepid projections, at most one full overshoot (alpha = 1).

    gamma_i = (1 + alpha_i eps)/(1 - eps); block length m - 1 + |J|.
    """
    alphas = [check_range("alpha_i", v, *ALPHA_RANGE) for v in alpha_list]
    if len(alphas) < 2:
        raise DomainError("need at least two operators")
    eps, kappa = _eps_kappa(eps, kappa)
    J = _infer_full(alphas, 1.0, MoreThanOneFullIntrepid, "full overshoot (alpha = 1)")
    m = len(alphas)
    gammas = [_semi_intrepid_gamma(a, eps) for a in alphas]
    gamma_sq = math.prod(gammas) / min(gammas) ** (1 - len(J))
    gamma_total = math.sqrt(gamma_sq)
    terms = [(1.0 + a) / (1.0 - a) for i, a in enumerate(alphas) if i not in J]
    denom = sum(terms) - (1 - len(J)) * min(terms)
    bracket = gamma_sq - (1.0 / (kappa * kappa)) / denom * _semi_intrepid_gamma(1.0, eps) ** len(J)
    block = m - 1 + len(J)
    ratio = math.sqrt(min(gammas)) * math.sqrt(max(gammas)) ** (len(J) - 1)
    return _certificate(
        "cyclic_semi_intrepid",
        {"alpha": alphas, "eps": eps, "kappa": kappa, "J": J, "m": m},
        gamma_total,
        bracket,
        block,
        ratio / (2.0 * gamma_total),
        stated_block=False,
    )


def rate_cyclic_dr(gamma_list_dr, beta_list_dr, nu, kappa) -> RateCertificate:
    """Cycle of generalized DR blocks with per-block Fejér constants
    (from dr_constants) and a joint coercivity constant nu."""
    return _qff_cycle("cyclic_dr", "blocks", "j", gamma_list_dr, beta_list_dr, nu, kappa)
