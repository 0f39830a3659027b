"""Sampled verification of Fejér inequalities and regularity estimation.

Estimators report sampled bounds: an estimate from finitely many draws never
certifies the true modulus, so every result carries its bound direction
("lower" for eps/kappa/theta, "upper" for the strong-regularity zeta) and the
seed that reproduces it bit for bit.  Checks return a PropertyReport whose
margin convention is uniform: margin >= 0 means the sampled inequality holds,
and violations == 0 iff the worst margin >= -check_tol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SamplingFailure, UnsupportedSet
from .intersection import IntersectionHandle
from .sets import ClosedSet, as_vector, conic_mixtures, row_norms

CHECK_TOL = 1e-9
STRONG_TOL = 1e-6

_PAIR_FLOOR = 1e-9      # minimum pair separation entering regularity ratios
_DIRECTION_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class PropertyReport:
    """Outcome of a sampled inequality check."""

    name: str
    samples: int
    violations: int
    worst_margin: float
    witness: tuple | None
    seed: int
    check_tol: float = CHECK_TOL
    extra: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def margin_report(name, margins, witness, seed, check_tol, extra, samples=None,
                  empty_margin=np.inf) -> PropertyReport:
    """The PropertyReport of a sampled inequality from its margins.

    A margin below -check_tol is a violation.  The worst margin is the
    smallest (empty_margin when there are none) and the witness is
    witness(i) for the first i attaining it.  samples defaults to the
    number of margins.
    """
    margins = np.asarray(margins, dtype=float)
    worst, found = empty_margin, None
    if margins.size:
        i = int(np.argmin(margins))
        worst, found = margins[i], witness(i)
    return PropertyReport(name, margins.size if samples is None else samples,
                          int(np.count_nonzero(margins < -check_tol)), float(worst),
                          found, seed, check_tol, extra)


@dataclass(frozen=True, eq=False)
class RegularityEstimate:
    """A sampled regularity constant (lower or upper bound, never exact)."""

    kind: str
    value: float
    anchor: np.ndarray
    delta: float
    samples: int
    seed: int
    bound: str = "lower"      # direction of the sampled bound
    extra: dict = field(default_factory=dict)


def uniform_ball(rng, center, radius, n) -> np.ndarray:
    """n points uniform in the closed ball: Gaussian direction, U^(1/d) radius."""
    center = as_vector(center)
    d = center.size
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / d)
    return center + (g / norms[:, None]) * radii[:, None]


def _member_pool(refset, w, delta, rng, want, max_attempts=100_000):
    """The first `want` members of refset within B(w, delta), in draw order,
    found by projecting ball samples."""
    found = []
    count = 0
    attempts = 0
    chunk = max(64, want)
    while count < want and attempts < max_attempts:
        zs = uniform_ball(rng, w, delta, chunk)
        attempts += chunk
        xbars = refset.project_many(zs)
        near = xbars[row_norms(xbars - w) <= delta + 1e-12][:want - count]
        found.append(near)
        count += near.shape[0]
    if count < 10:
        raise SamplingFailure(
            f"only {count} reference points found in {attempts} attempts"
        )
    return np.concatenate(found)


# ---------------------------------------------------------------------------
# inequality checks


def check_quasi_firm_fejer(op, refset, gamma, beta, w, delta, samples=1000,
                           seed=0, check_tol=CHECK_TOL) -> PropertyReport:
    """Sampled test of ||x+ - xbar||^2 + beta ||x - x+||^2 <= gamma ||x - xbar||^2
    for x in B(w, delta/2) and xbar in refset intersected with B(w, delta)."""
    gamma = float(gamma)
    beta = float(beta)
    if gamma <= 0.0 or beta < 0.0:
        raise DomainError("need gamma > 0 and beta >= 0")
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    pool = _member_pool(refset, w, delta, rng, min(samples, 256))
    xs = uniform_ball(rng, w, delta / 2.0, samples)
    xbars = pool[np.arange(samples) % pool.shape[0]]
    xps = op.apply_many(xs)
    to_ref, step_to_ref, step = xs - xbars, xps - xbars, xs - xps
    margins = (gamma * np.vecdot(to_ref, to_ref) - np.vecdot(step_to_ref, step_to_ref)
               - beta * np.vecdot(step, step))
    return margin_report("quasi_firm_fejer", margins,
                         lambda i: (xs[i].copy(), xbars[i].copy(), xps[i].copy()), seed, check_tol,
                         {"gamma": gamma, "beta": beta})


def check_quasi_coercive(op, cset, nu, w, delta, samples=1000, seed=0,
                         check_tol=CHECK_TOL) -> PropertyReport:
    """Sampled test of ||x - x+|| >= nu * d_C(x) on B(w, delta/2)."""
    nu = float(nu)
    if nu <= 0.0:
        raise DomainError("need nu > 0")
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, w, delta / 2.0, samples)
    xps = op.apply_many(xs)
    margins = row_norms(xs - xps) - nu * cset.distance_many(xs)
    return margin_report("quasi_coercive", margins, lambda i: (xs[i].copy(), xps[i].copy()),
                         seed, check_tol,
                         {"nu": nu, "max_abs_gap": float(np.max(np.abs(margins), initial=0.0))})


def check_injectable(s: ClosedSet, tau, w, delta, samples=1000, seed=0,
                     check_tol=CHECK_TOL, segment_points=20) -> PropertyReport:
    """Sampled test of tau-injectability on B(w, delta).

    For x sampled in the ball and p its projection, the inward segment
    [p, p + tau (p - x)/||p - x||] must stay in the set; each segment is
    probed at `segment_points` evenly spaced points, all in one batch.
    """
    tau = float(tau)
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, w, delta, samples)
    ps = s.project_many(xs)
    gaps = ps - xs
    n = row_norms(gaps)
    moved = n > _DIRECTION_FLOOR
    units = gaps[moved] / n[moved, None]
    depths = np.linspace(0.0, 1.0, segment_points) * tau
    probes = ps[moved, None, :] + depths[:, None] * units[:, None, :]
    dists = s.distance_many(probes.reshape(-1, s.dim)).reshape(-1, segment_points)
    margins = np.zeros(samples)
    margins[moved] = -dists.max(axis=1)
    return margin_report("injectable", margins, lambda i: (xs[i].copy(), ps[i].copy()), seed,
                         check_tol, {"tau": tau})


# ---------------------------------------------------------------------------
# regularity estimators


def estimate_eps_regularity(s: ClosedSet, w, delta, samples=600, seed=0,
                            points=None) -> RegularityEstimate:
    """Sampled lower bound of the regularity epsilon at w over B(w, delta).

    Members x are projections of points z drawn in B(w, delta/2) (these stay
    in the delta-ball); proximal normals at x come from the projection
    preimage z - x plus any closed-form generators.  The estimate is
    max(0, max <u, y - x> / (||u|| ||y - x||)) over sampled pairs.
    """
    w = as_vector(w)
    if not s.contains(w, 1e-8):
        raise DomainError("anchor w must belong to the set")
    rng = np.random.default_rng(seed)
    zs = uniform_ball(rng, w, delta / 2.0, samples) if points is None \
        else np.asarray(points, dtype=float)
    xs = s.project_many(zs)
    near = row_norms(xs - w) <= delta + 1e-9
    xs, preimages = xs[near], (zs - xs)[near]
    normal_sites = []
    for x, u, nu in zip(xs, preimages, row_norms(preimages)):
        us = ([u / nu] if nu > _DIRECTION_FLOOR else []) + _closed_form_normals(s, x, 8)
        if us:
            normal_sites.append((x, us))
    M = np.vstack([w, xs])
    eps_hat = 0.0
    pair_count = 0
    for x, us in normal_sites:
        diff = M - x
        norms = np.linalg.norm(diff, axis=1)
        mask = norms >= _PAIR_FLOOR
        if not np.any(mask):
            continue
        pair_count += int(np.sum(mask)) * len(us)
        for u in us:
            ratios = (diff[mask] @ u) / norms[mask]
            eps_hat = max(eps_hat, float(ratios.max()))
    eps_hat = min(max(eps_hat, 0.0), 1.0)
    return RegularityEstimate("eps_regularity", eps_hat, w, float(delta),
                              len(zs), seed, "lower",
                              {"pairs": pair_count, "vacuous": pair_count == 0})


def estimate_linear_regularity(system, intersection: IntersectionHandle, w,
                               delta, samples=2000, seed=0,
                               points=None) -> RegularityEstimate:
    """Sampled lower bound of the linear-regularity modulus kappa on B(w, delta/2):
    max d_C(x) / max_i d_{C_i}(x) over draws with some d_{C_i}(x) > 0."""
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, w, delta / 2.0, samples) if points is None \
        else np.asarray(points, dtype=float)
    dmax = np.max([s.distance_many(xs) for s in system], axis=0)
    live = dmax >= _DIRECTION_FLOOR
    kappa_hat = np.max(intersection.distance_many(xs[live]) / dmax[live], initial=1.0)
    used = int(np.count_nonzero(live))
    return RegularityEstimate("linear_regularity", float(kappa_hat), w,
                              float(delta), len(xs), seed, "lower",
                              {"used": used, "vacuous": used == 0,
                               "approximate": intersection.approximate})


def _closed_form_normals(s, p, k):
    """The first k closed-form normal generators of s at p; none when s has
    no closed-form normal cone."""
    try:
        return s.normal_generators(p)[:k]
    except UnsupportedSet:
        return []


def _normal_pool(s, w, delta, rng, budget):
    """Unit proximal-normal directions of s collected near w (deduplicated)."""
    dirs = []

    def push(u):
        n = float(np.linalg.norm(u))
        if n <= _DIRECTION_FLOOR:
            return
        u = u / n
        if not any(float(np.dot(u, v)) > 1.0 - 1e-9 for v in dirs):
            dirs.append(u)

    for u in _closed_form_normals(s, w, 16):
        push(u)
    zs = uniform_ball(rng, w, delta / 2.0, budget)
    for z, x in zip(zs, s.project_many(zs)):
        push(z - x)
        for u in _closed_form_normals(s, x, 8):
            push(u)
    return dirs


def estimate_theta_bar(set_a, set_b, w, samples=256, seed=0,
                       delta=1.0) -> RegularityEstimate:
    """Sampled lower bound of sup <u, v> over unit u in N_A(w), v in -N_B(w).

    Returns 0 with a trivial flag when either normal cone is {0}.
    """
    w = as_vector(w)
    for s in (set_a, set_b):
        if not s.contains(w, 1e-8):
            raise DomainError("anchor w must belong to both sets")
    rng = np.random.default_rng(seed)

    def cone_dirs(s):
        dirs = s.normal_generators(w)
        if len(dirs) > 1:
            dirs.extend(conic_mixtures(rng, np.array(dirs), samples))
        return dirs

    dirs_a = cone_dirs(set_a)
    dirs_b = cone_dirs(set_b)
    if not dirs_a or not dirs_b:
        return RegularityEstimate("theta_bar", 0.0, w, float(delta),
                                  samples, seed, "lower", {"trivial": True})
    A = np.array(dirs_a)
    B = np.array(dirs_b)
    theta = float(np.max(A @ (-B).T))
    theta = min(max(theta, -1.0), 1.0)
    return RegularityEstimate("theta_bar", theta, w, float(delta),
                              samples, seed, "lower", {"trivial": False})


def _min_norm_over_simplex(G):
    """Exact min of ||G t|| over the simplex {t >= 0, sum t = 1} by support
    enumeration (G has few columns)."""
    d, k = G.shape
    best = np.inf
    best_t = None
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            GS = G[:, list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * GS.T @ GS
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            t = np.clip(sol[:size], 0.0, None)
            total = t.sum()
            if total <= 0.0:
                continue
            t = t / total
            val = float(np.linalg.norm(GS @ t))
            if val < best:
                best = val
                full = np.zeros(k)
                full[list(subset)] = t
                best_t = full
    return best, best_t


def check_strong_regularity(system, w, delta, samples=2000, seed=0,
                            strong_tol=STRONG_TOL) -> RegularityEstimate:
    """Sampled upper bound zeta_hat of the strong-regularity constant:
    min ||sum u_i|| over normalized tuples of proximal normals u_i collected
    near w (sum of norms = 1).

    Combines an exact simplex search over single-generator assignments with
    random conic perturbations; zeta_hat <= strong_tol flags a degenerate
    (not strongly regular) system.
    """
    w = as_vector(w)
    system = list(system)
    rng = np.random.default_rng(seed)
    budget = max(16, samples // (4 * max(1, len(system))))
    pools = [_normal_pool(s, w, delta, rng, budget) for s in system]
    active = [p for p in pools if p]
    if not active:
        return RegularityEstimate("strong_regularity", 1.0, w, float(delta),
                                  samples, seed, "upper",
                                  {"strong": True, "trivial": True})
    zeta = np.inf
    # exact search over one generator per (nonempty) pool
    n_assign = 1
    for p in active:
        n_assign *= len(p)
    assignments = itertools.product(*active)
    if n_assign > 4096:
        assignments = itertools.islice(assignments, 4096)
    for combo in assignments:
        zeta = min(zeta, _min_norm_over_simplex(np.column_stack(combo))[0])
    # random conic tuples: the draws stay in a loop, in the order the
    # generator is consumed (exponential draws vary in length), and the
    # arithmetic runs on all tuples at once
    weights = [np.empty((samples, len(pool))) for pool in active]
    scales = np.empty((len(active), samples))
    for t in range(samples):
        for j, pool in enumerate(active):
            weights[j][t] = rng.exponential(size=len(pool))
            scales[j, t] = rng.random()
    # weights @ pool for each tuple, one vector-matrix product per row
    parts = [r_j[:, None] * np.matmul(w_j[:, None, :], np.array(pool))[:, 0, :]
             for pool, w_j, r_j in zip(active, weights, scales)]
    total = sum(row_norms(part) for part in parts)
    combined = sum(parts[1:], parts[0])
    values = row_norms(combined) / np.where(total > _DIRECTION_FLOOR, total, 1.0)
    zeta = min(zeta, np.min(values[total > _DIRECTION_FLOOR], initial=np.inf))
    zeta = max(0.0, float(zeta))
    return RegularityEstimate("strong_regularity", zeta, w, float(delta),
                              samples, seed, "upper",
                              {"strong": zeta > strong_tol,
                               "strong_tol": strong_tol,
                               "pools": [len(p) for p in pools]})
