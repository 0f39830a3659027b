"""Sampled verification of Fejér inequalities and regularity estimation.

Estimators report sampled bounds: an estimate from finitely many draws never
certifies the true modulus, so every result carries its bound direction
("lower" for eps/kappa/theta, "upper" for the strong-regularity zeta, whose
extra["zeta_lower"] bounds it below over the sampled normals) and the seed
that reproduces it bit for bit.  Where the geometry gives the value, nothing
is sampled and the direction is "exact": eps on a convex set (0), a sphere
or a finite point set; kappa on one affine set or two that are not
strictly nested; zeta where each set's normal cone at w (`_normal_cone`)
is {0}, a ray or a line with no other face within delta/2; and theta-bar
where each cone is a subspace or one ray.  kappa on other affine systems
is a computed "upper" bound.  Every routine draws its own points from its
seed, a nonnegative integer checked with its other arguments, on the exact
path too.
Checks return a PropertyReport whose margin convention is uniform: margin
>= 0 means the sampled inequality holds, and violations == 0 iff the worst
margin >= -check_tol.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SamplingFailure, UnsupportedSet, check_count, check_range
from .sets import (
    RANK_TOL,
    ClosedSet,
    _affine_lines,
    _cone_rows,
    _member_tuple,
    _nnls,
    _seeded,
    as_vector,
    conic_mixtures,
    row_norms,
)

CHECK_TOL = 1e-9
STRONG_TOL = 1e-6

_PAIR_FLOOR = 1e-9      # minimum pair separation entering regularity ratios
_DIRECTION_FLOOR = 1e-12
_DUPLICATE_COS = 1.0 - 1e-9  # normal directions closer than this are one
# Bound on the temporaries of one chunk of eps-regularity sites.
_EPS_CHUNK_BYTES = 1 << 20
_SIMPLEX_WEIGHT = 1e3  # weight of the sum-to-one row in _simplex_min_norm
_VERTEX_CAP = 4096  # most one-generator-per-pool assignments searched for zeta
# Exact kappa needs Q's eigenvalues on L_C^perp at least RANK_TOL times this
# and its mass off L_C^perp at most RANK_TOL over it: nearer the cut-off, a
# spanned direction and a missing one are not told apart, and kappa is sampled.
_KAPPA_MARGIN = 1e3
# The intervals of the locality radius, the injectability radius and the
# coercivity constant, as check_range's (lo, hi, lo_open, hi_open).
DELTA_RANGE = (0.0, np.inf, True, True)
TAU_RANGE = (0.0, np.inf, False, True)
NU_RANGE = (0.0, np.inf, True, True)


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

    A margin below -check_tol, or NaN, is a violation.  The worst margin is the
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
                          int(np.count_nonzero(~(margins >= -check_tol))), float(worst),
                          found, seed, check_tol, extra)


@dataclass(frozen=True, eq=False)
class RegularityEstimate:
    """A regularity constant: a sampled lower or upper bound, or the exact
    value where the geometry gives it (`bound` says which)."""

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
    if center.size == 0:
        raise DomainError("the ball's center needs dimension at least 1")
    radius = check_range("radius", radius, 0.0, np.inf, hi_open=True)
    n = check_count("n", n, 0)
    d = center.size
    g = rng.standard_normal((n, d))
    norms = np.linalg.norm(g, axis=1)
    norms[norms == 0.0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / d)
    return center + (g / norms[:, None]) * radii[:, None]


def _ball_args(delta, samples, w, dim, seed):
    """The checked delta, samples, w (of dimension dim, unless dim is None)
    and seed of a routine sampling B(w, delta), in that order, and the
    generator of the seed."""
    delta = check_range("delta", delta, *DELTA_RANGE)
    return (delta, check_count("samples", samples, 1), as_vector(w, dim), *_seeded(seed))


def _on_every(w, sets):
    """True when w lies within 1e-8 of every one of `sets`."""
    return all(s.contains(w, 1e-8) for s in sets)


def _anchored(w, sets):
    """DomainError unless w lies within 1e-8 of every one of `sets`."""
    if not _on_every(w, sets):
        raise DomainError("anchor w must belong to every set")


def _fejer_margins(x, xp, xbar, gamma, beta):
    """The quasi-firm Fejér margin gamma ||x - xbar||^2 - ||xp - xbar||^2 -
    beta ||x - xp||^2 of each row's step x -> xp; gamma, beta and xbar are
    one for all rows or one per row."""
    to_ref, step_to_ref, step = x - xbar, xp - xbar, x - xp
    return (gamma * np.vecdot(to_ref, to_ref) - np.vecdot(step_to_ref, step_to_ref)
            - beta * np.vecdot(step, step))


def _member_pool(refset, w, delta, rng, want):
    """The first `want` members of refset within B(w, delta), in draw order,
    found by projecting ball samples."""
    found, count, attempts = [], 0, 0
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


def _fejer_pair(gamma, beta):
    """The quasi-firm Fejér constants gamma in (0, inf) and beta in [0, inf]."""
    return (check_range("gamma", gamma, 0.0, np.inf, lo_open=True, hi_open=True),
            check_range("beta", beta, 0.0, np.inf))


def check_quasi_firm_fejer(op, refset, gamma, beta, w, delta, samples=1000,
                           seed=0) -> PropertyReport:
    """Sampled test of ||x+ - xbar||^2 + beta ||x - x+||^2 <= gamma ||x - xbar||^2
    for x in B(w, delta/2) and xbar in refset intersected with B(w, delta)."""
    gamma, beta = _fejer_pair(gamma, beta)
    delta, samples, w, seed, rng = _ball_args(delta, samples, w, refset.dim, seed)
    pool = _member_pool(refset, w, delta, rng, min(samples, 256))
    xs = uniform_ball(rng, w, delta / 2.0, samples)
    xbars = pool[np.arange(samples) % pool.shape[0]]
    xps = op.apply_many(xs)
    return margin_report("quasi_firm_fejer", _fejer_margins(xs, xps, xbars, gamma, beta),
                         lambda i: (xs[i].copy(), xbars[i].copy(), xps[i].copy()), seed, CHECK_TOL,
                         {"gamma": gamma, "beta": beta})


def check_quasi_coercive(op, cset, nu, w, delta, samples=1000, seed=0) -> PropertyReport:
    """Sampled test of ||x - x+|| >= nu * d_C(x) on B(w, delta/2)."""
    nu = check_range("nu", nu, *NU_RANGE)
    delta, samples, w, seed, rng = _ball_args(delta, samples, w, cset.dim, seed)
    xs = uniform_ball(rng, w, delta / 2.0, samples)
    xps = op.apply_many(xs)
    margins = row_norms(xs - xps) - nu * cset.distance_many(xs)
    return margin_report("quasi_coercive", margins, lambda i: (xs[i].copy(), xps[i].copy()),
                         seed, CHECK_TOL,
                         {"nu": nu, "max_abs_gap": float(np.max(np.abs(margins), initial=0.0))})


def check_injectable(s: ClosedSet, tau, w, delta, samples=1000, seed=0) -> PropertyReport:
    """Sampled test of tau-injectability on B(w, delta).

    For x sampled in the ball and p its projection, the inward segment
    [p, p + tau (p - x)/||p - x||] must stay in the set; the probes of
    every segment go to `distance_many` in one batch.  On a convex set
    that is not approximate only the two ends are probed: d_C is convex, so
    its largest value on a segment is at an end, and these two probes are
    the 20-point grid's first and last rows bit for bit.  Every other set
    keeps 20 evenly spaced probes: a sphere's inward segment of length 2r
    has both ends on the sphere, and an approximate set's overstated
    distance need not be convex along a segment.
    """
    tau = check_range("tau", tau, *TAU_RANGE)
    delta, samples, w, seed, rng = _ball_args(delta, samples, w, s.dim, seed)
    xs = uniform_ball(rng, w, delta, samples)
    ps = s.project_many(xs)
    gaps = ps - xs
    n = row_norms(gaps)
    moved = n > _DIRECTION_FLOOR
    units = gaps[moved] / n[moved, None]
    depths = np.linspace(0.0, 1.0, 2 if s.convex and not s.approximate else 20) * tau
    probes = ps[moved, None, :] + depths[:, None] * units[:, None, :]
    dists = s.distance_many(probes.reshape(-1, s.dim)).reshape(probes.shape[:2])
    margins = np.zeros(samples)
    margins[moved] = -dists.max(axis=1)
    return margin_report("injectable", margins, lambda i: (xs[i].copy(), ps[i].copy()), seed,
                         CHECK_TOL, {"tau": tau})


# ---------------------------------------------------------------------------
# regularity estimators


def estimate_eps_regularity(s: ClosedSet, w, delta, samples=600, seed=0) -> RegularityEstimate:
    """The regularity epsilon at w over B(w, delta): exact where the
    geometry gives it, else a sampled lower bound.

    After the argument checks (delta, samples, w, seed, then w's
    membership) the set's `_exact_eps` hook is asked once.  A convex set
    gives 0, a sphere (d >= 2) its cap formula and a finite point set 1 or
    0 (two distinct points in the ball or not); the estimate is then that
    value with bound "exact" and extra {"convex": s.convex}, and nothing is
    drawn, projected or paired.

    Otherwise members x are projections of `samples` points z drawn in
    B(w, delta/2) (these stay in the delta-ball).  The unit normals at x are
    the preimage direction (z - x)/||z - x|| and the first 8 closed-form
    generators.  The estimate is
    max(0, max <u, y - x> / ||y - x||), capped at 1, over the sites x with a
    normal u and the rows y of (w, members) at least _PAIR_FLOOR from x;
    extra["pairs"] counts the (u, y) pairs and `vacuous` flags none.  It is
    bit-reproducible for a seed on a given numpy and BLAS build; see
    _max_normal_ratio for the kernel.
    """
    delta, samples, w, seed, rng = _ball_args(delta, samples, w, s.dim, seed)
    _anchored(w, (s,))
    exact = s._exact_eps(w, delta)
    if exact is not None:
        return RegularityEstimate("eps_regularity", exact, w, delta, samples, seed, "exact",
                                  {"convex": s.convex})
    zs = uniform_ball(rng, w, delta / 2.0, samples)
    xs = s.project_many(zs)
    near = row_norms(xs - w) <= delta + 1e-9
    xs, preimages = xs[near], (zs - xs)[near]
    lengths = row_norms(preimages)
    moved = lengths > _DIRECTION_FLOOR
    units = np.zeros_like(preimages)
    units[moved] = preimages[moved] / lengths[moved, None]
    closed, closed_mask = _closed_form_normals(s, xs, 8)
    normals = np.concatenate([units[:, None, :], closed], axis=1)
    counts = moved + closed_mask.sum(axis=1)
    sites = counts > 0
    best, pair_count = _max_normal_ratio(np.vstack([w, xs]), xs[sites], normals[sites],
                                         counts[sites])
    return RegularityEstimate("eps_regularity", min(best, 1.0), w, delta,
                              samples, seed, "lower",
                              {"pairs": pair_count, "vacuous": pair_count == 0})


def _max_normal_ratio(M, sites, normals, counts):
    """(max(0, max <u, y - x> / ||y - x||), pair count) over the sites x,
    their normals u (the first counts[s] rows of normals[s]; the rest are
    zero) and the rows y of M at least _PAIR_FLOOR from x.

    A chunk of sites is laid out coordinate-major, diff[s] = M^T - x_s of
    shape (d, m), so every elementwise loop runs over the m rows, and the
    products are one matrix product U_s @ diff[s] per site.  Rows nearer
    than _PAIR_FLOOR get the norm inf: they and the zero normals give 0,
    which the clamp absorbs.  Chunks of _EPS_CHUNK_BYTES // (8 m (d + k + 1))
    sites keep the differences, norms and products near _EPS_CHUNK_BYTES.
    """
    m, d = M.shape
    MT = np.ascontiguousarray(M.T)
    chunk = max(1, _EPS_CHUNK_BYTES // (8 * m * (d + normals.shape[1] + 1)))
    best, pair_count = 0.0, 0
    for lo in range(0, sites.shape[0], chunk):
        diff = MT - sites[lo:lo + chunk, :, None]
        norms = np.sqrt(np.einsum("sdm,sdm->sm", diff, diff))
        pairs = norms >= _PAIR_FLOOR
        pair_count += int(np.sum(pairs.sum(axis=1) * counts[lo:lo + chunk]))
        norms[~pairs] = np.inf
        # division by a positive norm is monotone, so dividing each row's
        # largest product gives the bits of the largest ratio
        ratios = np.matmul(normals[lo:lo + chunk], diff).max(axis=1)
        ratios /= norms
        best = max(best, float(ratios.max(initial=0.0)))
    return best, pair_count


def estimate_linear_regularity(system, intersection: ClosedSet, w,
                               delta, samples=2000, seed=0) -> RegularityEstimate:
    """The linear-regularity modulus kappa, sup d_C(x) / max_i d_{C_i}(x)
    over B(w, delta/2): exact or an upper bound on an affine system, else a
    sampled lower bound.

    After the argument checks (delta, samples, w, seed, then the system)
    each set's `_normal_cone` hook is asked once at w.  An affine set's
    cone is the subspace L_i^perp, L_i its linear part, given as rows N_i
    with no ray and reach inf.  When every set of the system and the
    intersection C give one, w lies in each of them, and C's
    L_C^perp is the span of the stacked N_i (C is the sets' own
    intersection), kappa = 1/sqrt(lambda_min), lambda_min the least
    eigenvalue of Q = (1/m) sum_i N_i^T N_i on L_C^perp.  Since
    max_i d_i^2 >= mean_i d_i^2 >= lambda_min d_C^2 and the ratio is the
    same at every scale about w, this bounds kappa above.  It is attained,
    and `bound` reads "exact", for one set and for two sets neither of
    which strictly contains the other.  Otherwise `bound` reads "upper":
    for three or more sets, and for a strictly nested pair, whose C is the
    smaller set and whose kappa is 1 where the formula reads sqrt 2.
    Nothing is drawn, and extra holds lambda_min, used 0, and vacuous and
    approximate False.  An eigenvalue too near RANK_TOL to tell a spanned
    direction from a missing one (see _KAPPA_MARGIN) sends the system to
    the sampled path, as does every other system.

    Sampled: the max of d_C(x) / max_i d_{C_i}(x) over `samples` draws x
    with some d_{C_i}(x) > 0, a lower bound ("lower"); extra["used"]
    counts those draws, `vacuous` flags none (the value is then 1), and
    `approximate` is C's flag: an oracle, whose sweep overstates d_C, or a
    translate, enlargement or union of one.
    """
    delta, samples, w, seed, rng = _ball_args(delta, samples, w, intersection.dim, seed)
    system = _member_tuple(system, "system")
    exact = _affine_kappa(system, intersection, w)
    if exact is not None:
        kappa, bound, lam = exact
        return RegularityEstimate("linear_regularity", kappa, w, delta, samples, seed, bound,
                                  {"used": 0, "vacuous": False, "approximate": False,
                                   "lambda_min": lam})
    xs = uniform_ball(rng, w, delta / 2.0, samples)
    dmax = np.max([s.distance_many(xs) for s in system], axis=0)
    live = dmax >= _DIRECTION_FLOOR
    kappa_hat = np.max(intersection.distance_many(xs[live]) / dmax[live], initial=1.0)
    used = int(np.count_nonzero(live))
    return RegularityEstimate("linear_regularity", float(kappa_hat), w,
                              delta, samples, seed, "lower",
                              {"used": used, "vacuous": used == 0,
                               "approximate": intersection.approximate})


def _affine_kappa(system, intersection, w):
    """(kappa, bound, lambda_min) of an affine system by the eigenvalues of
    Q on L_C^perp, or None when estimate_linear_regularity must sample."""
    normal_c = _affine_lines(intersection._normal_cone(w))
    # membership first: it checks each set's dimension before its hook reads w
    if normal_c is None or not _on_every(w, system + (intersection,)):
        return None
    spaces = [_affine_lines(s._normal_cone(w)) for s in system]
    if any(n is None for n in spaces):
        return None
    stacked = np.vstack(spaces)
    q = stacked.T @ stacked / len(system)
    lam = np.linalg.eigvalsh(normal_c @ q @ normal_c.T)
    # Q's mass off L_C^perp: 0 when the stacked rows lie in it
    off = float(np.trace(q) - lam.sum())
    lam_min = float(np.min(lam, initial=1.0))
    if off > RANK_TOL / _KAPPA_MARGIN or lam_min < RANK_TOL * _KAPPA_MARGIN:
        return None
    # a pair is strictly nested when the larger normal space is all of
    # L_C^perp and the other is smaller: C is the smaller set and kappa 1
    ranks = [n.shape[0] for n in spaces]
    nested = len(ranks) == 2 and min(ranks) < max(ranks) == normal_c.shape[0]
    bound = "exact" if len(ranks) <= 2 and not nested else "upper"
    return float(1.0 / np.sqrt(lam_min)), bound, lam_min


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


def _exact_theta(cone_a, cone_b):
    """(theta, trivial) of estimate_theta_bar's exact path from two
    `_normal_cone` answers, or None unless each is a subspace or one ray."""
    if any(c is None or len(c[1]) > 1 or len(c[1]) and len(c[0]) for c in (cone_a, cone_b)):
        return None
    na, nb = (np.vstack(c[:2]) for c in (cone_a, cone_b))
    if not len(na) or not len(nb):
        return 0.0, True
    if len(cone_a[1]) and len(cone_b[1]):
        return float(na[0] @ -nb[0]), False
    return float(np.linalg.norm(na @ nb.T, 2)), False


def estimate_theta_bar(set_a, set_b, w, samples=256, seed=0) -> RegularityEstimate:
    """sup <u, v> over unit u in N_A(w), v in -N_B(w): exact where each
    set's `_normal_cone` at w is a subspace or one ray, else a sampled
    lower bound.

    Uses only the normal cones at w itself, not a neighbourhood of it, so
    the estimate records delta 0.  Returns 0 with a trivial flag when either
    normal cone is {0}.  On the exact path (bound "exact", nothing drawn)
    two rays r_A, r_B give <r_A, -r_B>, and any other pair the largest
    singular value of N_A N_B^T, the rows N a subspace's lines or a ray (a
    subspace holds -v with v).  Elsewhere (bound "lower") it is the largest
    product over each cone's closed-form generators at w and `samples`
    conic mixtures of them.
    """
    samples = check_count("samples", samples, 1)
    w = as_vector(w)
    _anchored(w, (set_a, set_b))
    seed, rng = _seeded(seed)
    exact = _exact_theta(set_a._normal_cone(w), set_b._normal_cone(w))
    theta, trivial = _sampled_theta(set_a, set_b, w, rng, samples) if exact is None else exact
    return RegularityEstimate("theta_bar", min(max(theta, -1.0), 1.0), w, 0.0, samples, seed,
                              "lower" if exact is None else "exact", {"trivial": trivial})


def _sampled_theta(set_a, set_b, w, rng, samples):
    """(theta, trivial) over each set's closed-form normal generators at w
    and, where it has two or more, `samples` conic mixtures of them."""

    def cone_dirs(s):
        dirs = s.normal_generators(w)
        if len(dirs) > 1:
            dirs.extend(conic_mixtures(rng, np.array(dirs), samples))
        return dirs

    dirs_a = cone_dirs(set_a)
    dirs_b = cone_dirs(set_b)
    trivial = not dirs_a or not dirs_b
    return 0.0 if trivial else float(np.max(np.array(dirs_a) @ -np.array(dirs_b).T)), trivial


def _simplex_min_norm(G):
    """(t, lower) for min ||G s|| over the simplex {s >= 0, sum s = 1}, G
    with unit columns.

    t is a simplex point that nearly minimizes ||G t||: one nnls solve with
    the sum-to-one row weighted _SIMPLEX_WEIGHT, rescaled to sum 1 (the
    weighted solution is a positive multiple of a minimizer).  With y = G t,
    lower = max(0, min_j <g_j, y> / ||y||) bounds the minimum below whatever
    t is, as ||G s|| ||y|| >= <G s, y> = sum_j s_j <g_j, y> for every
    simplex point s; it is 0 when y = 0.
    """
    d, k = G.shape
    t, _ = _nnls()(np.vstack([G, np.full(k, _SIMPLEX_WEIGHT)]),
                   np.append(np.zeros(d), _SIMPLEX_WEIGHT))
    t /= t.sum()
    y = G @ t
    norm = float(np.linalg.norm(y))
    return t, max(0.0, float(np.min(G.T @ y)) / norm) if norm > 0.0 else 0.0


def _exact_pools(system, w, delta):
    """check_strong_regularity's exact pools, each cone's generators at w
    by `_cone_rows` (a line n as n and -n), or None where it must sample; at
    most _VERTEX_CAP sign choices of the lines are searched."""
    pools = []
    for s in system:
        cone = s._normal_cone(w)
        if cone is None or cone[2] <= delta / 2.0 or len(cone[0]) + len(cone[1]) > 1:
            return None
        pools.append(_cone_rows(cone))
    return pools if 2 ** sum(len(p) == 2 for p in pools) <= _VERTEX_CAP else None


def check_strong_regularity(system, w, delta, samples=2000, seed=0) -> RegularityEstimate:
    """A bracket [zeta_lower, value] of the strong-regularity constant zeta:
    min ||sum u_i|| over tuples of u_i in the cones spanned by the unit
    proximal normals pooled near w, with sum ||u_i|| = 1.

    When each set's `_normal_cone` at w is {0}, a ray or a line, and no face
    that misses w lies within delta/2 of it, the pools are those generators
    and nothing is drawn: projection is nonexpansive, so every pooled point
    lies in B(w, delta/2), where such a set's normals are the ones at w.
    zeta is then the least simplex min-norm over the one-generator-per-pool
    assignments (a line's sign is its member's choice), so `value` is the
    least _simplex_min_norm over them, `zeta_lower` the least certified
    lower bound, and `bound` reads "exact".

    Elsewhere (bound "upper") `samples` sets only the pool budget, and the
    upper bound `value` is the least of two searches, each min ||G t|| over
    the simplex by _simplex_min_norm: one generator per pool (at most
    _VERTEX_CAP assignments), and the witness tuple u_i = G_i t_i of all
    pooled directions at once, whose ratio ||sum u_i|| / sum ||u_i||
    counts.  The lower bound `zeta_lower` is the certified one of that
    all-directions solve: a tuple u_i = G_i s_i has ||u_i|| <= sum s_i, so
    its ratio is at least the min-norm over the simplex.

    extra["strong"] is True when zeta_lower > STRONG_TOL, False when value
    <= STRONG_TOL, and None (undetermined) otherwise, e.g. when a sampled
    pool holds opposite directions (an affine set of codimension 2 or
    more) that cancel inside it.  A sampled bracket is about the pooled
    directions; pools sampled too thinly miss normals.  An empty system, or
    a w more than 1e-8 from one of its sets, raises DomainError.
    """
    # w's dimension is checked by the membership test below
    delta, samples, w, seed, rng = _ball_args(delta, samples, w, None, seed)
    system = _member_tuple(system, "system")
    _anchored(w, system)
    pools = _exact_pools(system, w, delta)
    exact = pools is not None
    if not exact:
        budget = max(16, samples // (4 * len(system)))
        pools = [_normal_pool(s, w, delta, rng, budget) for s in system]
    active = [p for p in pools if len(p)]
    bound = "exact" if exact else "upper"
    if not active:
        return RegularityEstimate("strong_regularity", 1.0, w, delta, samples, seed, bound,
                                  {"strong": True, "trivial": True, "zeta_lower": 1.0})
    value = lower = np.inf
    for combo in itertools.islice(itertools.product(*active), _VERTEX_CAP):
        G = np.column_stack(combo)
        t, low = _simplex_min_norm(G)
        value = min(value, float(np.linalg.norm(G @ t)))
        lower = min(lower, low)
    if not exact:
        t, lower = _simplex_min_norm(np.vstack(active).T)
        ends = np.cumsum([len(p) for p in active])[:-1]
        parts = [c @ p for c, p in zip(np.split(t, ends), active)]
        total = sum(float(np.linalg.norm(u)) for u in parts)
        if total > _DIRECTION_FLOOR:
            value = min(value, float(np.linalg.norm(sum(parts))) / total)
    strong = None  # undetermined: the bracket straddles STRONG_TOL
    if lower > STRONG_TOL:
        strong = True
    elif value <= STRONG_TOL:
        strong = False
    return RegularityEstimate("strong_regularity", value, w, delta,
                              samples, seed, bound,
                              {"strong": strong,
                               "strong_tol": STRONG_TOL,
                               "pools": [len(p) for p in pools],
                               "zeta_lower": lower})
