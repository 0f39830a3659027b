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
_DUPLICATE_COS = 1.0 - 1e-9  # normal directions closer than this are one
# Bound on the temporaries of one chunk of eps-regularity sites.
_EPS_CHUNK_BYTES = 1 << 20


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


def _positive_delta(delta) -> float:
    """delta as a float, or DomainError unless it is positive and finite."""
    delta = float(delta)
    if not (np.isfinite(delta) and delta > 0.0):
        raise DomainError(f"delta must be positive and finite, got {delta}")
    return delta


def _positive_samples(samples) -> int:
    """samples as an int, or DomainError unless it is a positive integer
    (a bool is not)."""
    if isinstance(samples, bool) or not isinstance(samples, (int, np.integer)) or samples < 1:
        raise DomainError(f"samples must be a positive integer, got {samples!r}")
    return int(samples)


def uniform_ball(rng, center, radius, n) -> np.ndarray:
    """n points uniform in the closed ball: Gaussian direction, U^(1/d) radius."""
    center = as_vector(center)
    d = center.size
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / d)
    return center + (g / norms[:, None]) * radii[:, None]


def _member_pool(refset, w, delta, rng, want):
    """The first `want` members of refset within B(w, delta), in draw order,
    found by projecting ball samples."""
    found = []
    count = 0
    attempts = 0
    chunk = max(64, want)
    while count < want and attempts < 100_000:
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
                           seed=0) -> PropertyReport:
    """Sampled test of ||x+ - xbar||^2 + beta ||x - x+||^2 <= gamma ||x - xbar||^2
    for x in B(w, delta/2) and xbar in refset intersected with B(w, delta)."""
    gamma = float(gamma)
    beta = float(beta)
    if gamma <= 0.0 or beta < 0.0:
        raise DomainError("need gamma > 0 and beta >= 0")
    delta = _positive_delta(delta)
    samples = _positive_samples(samples)
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
                         lambda i: (xs[i].copy(), xbars[i].copy(), xps[i].copy()), seed, CHECK_TOL,
                         {"gamma": gamma, "beta": beta})


def check_quasi_coercive(op, cset, nu, w, delta, samples=1000, seed=0) -> PropertyReport:
    """Sampled test of ||x - x+|| >= nu * d_C(x) on B(w, delta/2)."""
    nu = float(nu)
    if nu <= 0.0:
        raise DomainError("need nu > 0")
    delta = _positive_delta(delta)
    samples = _positive_samples(samples)
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, w, delta / 2.0, samples)
    xps = op.apply_many(xs)
    margins = row_norms(xs - xps) - nu * cset.distance_many(xs)
    return margin_report("quasi_coercive", margins, lambda i: (xs[i].copy(), xps[i].copy()),
                         seed, CHECK_TOL,
                         {"nu": nu, "max_abs_gap": float(np.max(np.abs(margins), initial=0.0))})


def check_injectable(s: ClosedSet, tau, w, delta, samples=1000, seed=0) -> PropertyReport:
    """Sampled test of tau-injectability on B(w, delta).

    For x sampled in the ball and p its projection, the inward segment
    [p, p + tau (p - x)/||p - x||] must stay in the set; each segment is
    probed at 20 evenly spaced points, all in one batch.
    """
    tau = float(tau)
    if tau < 0.0:
        raise DomainError("tau must be >= 0")
    delta = _positive_delta(delta)
    samples = _positive_samples(samples)
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, w, delta, samples)
    ps = s.project_many(xs)
    gaps = ps - xs
    n = row_norms(gaps)
    moved = n > _DIRECTION_FLOOR
    units = gaps[moved] / n[moved, None]
    depths = np.linspace(0.0, 1.0, 20) * tau
    probes = ps[moved, None, :] + depths[:, None] * units[:, None, :]
    dists = s.distance_many(probes.reshape(-1, s.dim)).reshape(probes.shape[:2])
    margins = np.zeros(samples)
    margins[moved] = -dists.max(axis=1)
    return margin_report("injectable", margins, lambda i: (xs[i].copy(), ps[i].copy()), seed,
                         CHECK_TOL, {"tau": tau})


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
    delta = _positive_delta(delta)
    if points is None:
        samples = _positive_samples(samples)
    w = as_vector(w)
    if not s.contains(w, 1e-8):
        raise DomainError("anchor w must belong to the set")
    rng = np.random.default_rng(seed)
    zs = uniform_ball(rng, w, delta / 2.0, samples) if points is None \
        else np.asarray(points, dtype=float)
    xs = s.project_many(zs)
    near = row_norms(xs - w) <= delta + 1e-9
    xs, preimages = xs[near], (zs - xs)[near]
    # the normals at each site: its unit preimage direction, then the first
    # 8 closed-form generators
    lengths = row_norms(preimages)
    moved = lengths > _DIRECTION_FLOOR
    units = np.zeros_like(preimages)
    units[moved] = preimages[moved] / lengths[moved, None]
    closed, closed_mask = _closed_form_normals(s, xs, 8)
    normals = np.concatenate([units[:, None, :], closed], axis=1)
    normal_mask = np.concatenate([moved[:, None], closed_mask], axis=1)
    sites = normal_mask.any(axis=1)
    best, pair_count = _max_normal_ratio(np.vstack([w, xs]), xs[sites], normals[sites],
                                         normal_mask[sites])
    eps_hat = min(max(0.0, best), 1.0)
    return RegularityEstimate("eps_regularity", eps_hat, w, delta,
                              len(zs), seed, "lower",
                              {"pairs": pair_count, "vacuous": pair_count == 0})


def _max_normal_ratio(M, sites, normals, normal_mask):
    """(max <u, y - x> / ||y - x||, pair count) over the sites x, their
    normals u (normal_mask marks them) and the rows y of M at least
    _PAIR_FLOOR from x; the max is -inf when there are no pairs.

    The sites are taken a chunk at a time, so the temporaries stay near
    _EPS_CHUNK_BYTES whatever the number of rows and the dimension.
    """
    m, d = M.shape
    k = normals.shape[1]
    rows = -(-m // 4) * 4  # see _masked_products
    chunk = max(1, _EPS_CHUNK_BYTES // (8 * rows * (d + 2 * k)))
    best, pair_count = -np.inf, 0
    for lo in range(0, sites.shape[0], chunk):
        X, U, live = sites[lo:lo + chunk], normals[lo:lo + chunk], normal_mask[lo:lo + chunk]
        diff = np.zeros((X.shape[0], rows, d))
        np.subtract(M, X[:, None, :], out=diff[:, :m])
        norms = np.linalg.norm(diff[:, :m], axis=-1)
        pairs = norms >= _PAIR_FLOOR
        counts = pairs.sum(axis=1)
        pair_count += int(np.sum(counts * live.sum(axis=1)))
        use = live[:, :, None] & pairs[:, None, :]
        ratios = np.divide(_masked_products(diff, U, pairs, counts)[:, :, :m],
                           norms[:, None, :], out=np.full(use.shape, -np.inf), where=use)
        best = max(best, float(ratios.max(initial=-np.inf)))
    return best, pair_count


def _masked_products(diff, U, pairs, counts):
    """out[s, j, r] = <diff[s, r], U[s, j]> for each pair row r (pairs[s, r]),
    with the bits of diff[s][pairs[s]] @ U[s, j].

    The BLAS matrix-vector kernel sums a row in an order that depends on
    where the row falls in the product: rows in the leading multiple of four
    take its blocked path, the last (count mod 4) rows its tail path, and a
    one-row product is a dot.  diff has a multiple of four rows, so one
    stacked product puts every row on the blocked path.  Then the last L pair
    rows of each site whose count is not a multiple of four, L = count below
    four and 4 + count % 4 above, go through a product of exactly L rows:
    there they end the product, as in the masked one.
    """
    out = np.matmul(diff[:, None], U[:, :, :, None])[..., 0]
    tail = np.where(counts < 4, counts, 4 + counts % 4) * (counts % 4 > 0)
    for size in np.unique(tail[tail > 0]):
        at = np.flatnonzero(tail == size)
        last = pairs[at] & (np.cumsum(pairs[at], axis=1) > (counts[at] - size)[:, None])
        rows = np.nonzero(last)[1].reshape(at.size, size)
        block = np.take_along_axis(diff[at], rows[:, :, None], axis=1)
        out[at[:, None, None], np.arange(U.shape[1])[:, None], rows[:, None, :]] = \
            np.matmul(block[:, None], U[at][:, :, :, None])[..., 0]
    return out


def estimate_linear_regularity(system, intersection: IntersectionHandle, w,
                               delta, samples=2000, seed=0,
                               points=None) -> RegularityEstimate:
    """Sampled lower bound of the linear-regularity modulus kappa on B(w, delta/2):
    max d_C(x) / max_i d_{C_i}(x) over draws with some d_{C_i}(x) > 0."""
    delta = _positive_delta(delta)
    if points is None:
        samples = _positive_samples(samples)
    w = as_vector(w)
    rng = np.random.default_rng(seed)
    xs = uniform_ball(rng, w, delta / 2.0, samples) if points is None \
        else np.asarray(points, dtype=float)
    dmax = np.max([s.distance_many(xs) for s in system], axis=0)
    live = dmax >= _DIRECTION_FLOOR
    kappa_hat = np.max(intersection.distance_many(xs[live]) / dmax[live], initial=1.0)
    used = int(np.count_nonzero(live))
    return RegularityEstimate("linear_regularity", float(kappa_hat), w,
                              delta, len(xs), seed, "lower",
                              {"used": used, "vacuous": used == 0,
                               "approximate": intersection.approximate})


def _closed_form_normals(s, P, k):
    """The first k closed-form normal generators of s at each row of P, laid
    out as by normal_generators_many; no columns when s has no closed-form
    normal cone."""
    try:
        dirs, mask = s.normal_generators_many(P)
    except UnsupportedSet:
        return np.zeros((P.shape[0], 0, s.dim)), np.zeros((P.shape[0], 0), bool)
    return dirs[:, :k], mask[:, :k]


def _normal_pool(s, w, delta, rng, budget):
    """Unit proximal-normal directions of s collected near w, as the rows of
    an array: the candidates in the order they are met (w's first 16
    closed-form normals, then for each sample z its preimage direction
    z - x and the first 8 closed-form normals at its projection x),
    normalized, then each kept unless it is within _DUPLICATE_COS of an
    earlier kept one."""
    at_w, at_w_mask = _closed_form_normals(s, w[None, :], 16)
    zs = uniform_ball(rng, w, delta / 2.0, budget)
    xs = s.project_many(zs)
    closed, closed_mask = _closed_form_normals(s, xs, 8)
    per_sample = np.concatenate([(zs - xs)[:, None, :], closed], axis=1)
    per_mask = np.concatenate([np.ones((budget, 1), bool), closed_mask], axis=1)
    found = np.concatenate([at_w[at_w_mask], per_sample[per_mask]])
    lengths = row_norms(found)
    keep = lengths > _DIRECTION_FLOOR
    found = found[keep] / lengths[keep, None]
    # greedy: a live candidate has no kept predecessor within the threshold,
    # so keeping the first live one and dropping its near copies at once
    # keeps what a candidate-by-candidate scan keeps
    live = np.ones(found.shape[0], bool)
    for i in range(found.shape[0]):
        if live[i]:
            live[i + 1:] &= np.vecdot(found[i + 1:], found[i]) <= _DUPLICATE_COS
    return found[live]


def estimate_theta_bar(set_a, set_b, w, samples=256, seed=0,
                       delta=1.0) -> RegularityEstimate:
    """Sampled lower bound of sup <u, v> over unit u in N_A(w), v in -N_B(w).

    Returns 0 with a trivial flag when either normal cone is {0}.
    """
    delta = _positive_delta(delta)
    samples = _positive_samples(samples)
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
        return RegularityEstimate("theta_bar", 0.0, w, delta,
                                  samples, seed, "lower", {"trivial": True})
    A = np.array(dirs_a)
    B = np.array(dirs_b)
    theta = float(np.max(A @ (-B).T))
    theta = min(max(theta, -1.0), 1.0)
    return RegularityEstimate("theta_bar", theta, w, delta,
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


def check_strong_regularity(system, w, delta, samples=2000, seed=0) -> RegularityEstimate:
    """Sampled upper bound zeta_hat of the strong-regularity constant:
    min ||sum u_i|| over normalized tuples of proximal normals u_i collected
    near w (sum of norms = 1).

    zeta_hat is the least of two searches.  First, an exact simplex search
    over one generator per pool (at most 4096 assignments).  Then `samples`
    random conic tuples: each pool draws its exponential weights as one
    (samples, len(pool)) batch, then one uniform scale per pool and tuple.
    zeta_hat <= STRONG_TOL flags a degenerate (not strongly regular) system.

    On singleton pools the tuples are points of the simplex the exact search
    minimizes over, so zeta_hat is the exact-search value.  On pools with
    several directions, a seeded zeta_hat differs from versions of projlab
    that drew the tuples one at a time, within sampling noise, and it can
    sit far above a true zeta = 0: for the cone spanned by (1, 0, 1),
    (0, 1, 1) and (-1, -1, 1) with the orthant {z <= 0}, at 0, zeta = 0, yet
    at seeds 0-3 (pools of 150-164 directions and 1) zeta_hat is 0.026-0.057
    and `strong` is True.  So `strong: True` certifies nothing unless every
    pool is a singleton.
    """
    delta = _positive_delta(delta)
    samples = _positive_samples(samples)
    w = as_vector(w)
    system = list(system)
    rng = np.random.default_rng(seed)
    budget = max(16, samples // (4 * max(1, len(system))))
    pools = [_normal_pool(s, w, delta, rng, budget) for s in system]
    active = [p for p in pools if len(p)]
    if not active:
        return RegularityEstimate("strong_regularity", 1.0, w, delta,
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
    # random conic tuples
    weights = [rng.exponential(size=(samples, len(pool))) for pool in active]
    scales = rng.random((len(active), samples))
    # weights @ pool for each tuple, one vector-matrix product per row
    parts = [r_j[:, None] * np.matmul(w_j[:, None, :], pool)[:, 0, :]
             for pool, w_j, r_j in zip(active, weights, scales)]
    total = sum(row_norms(part) for part in parts)
    combined = sum(parts[1:], parts[0])
    values = row_norms(combined) / np.where(total > _DIRECTION_FLOOR, total, 1.0)
    zeta = min(zeta, np.min(values[total > _DIRECTION_FLOOR], initial=np.inf))
    zeta = max(0.0, float(zeta))
    return RegularityEstimate("strong_regularity", zeta, w, delta,
                              samples, seed, "upper",
                              {"strong": zeta > STRONG_TOL,
                               "strong_tol": STRONG_TOL,
                               "pools": [len(p) for p in pools]})
