"""Shared fixtures and helpers for the test suite."""

import math

import numpy as np
import pytest

import projlab as P


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def two_lines(theta: float):
    """Two lines through the origin in R^2 meeting at angle theta.

    Returns (set_a, set_b, intersection) where set_a is the x-axis and
    set_b is spanned by (cos theta, sin theta).
    """
    a = P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]]))
    b = P.AffineSubspaceSet(
        np.zeros(2), np.array([[math.cos(theta), math.sin(theta)]])
    )
    inter = P.FinitePointSet(np.zeros((1, 2)))
    return a, b, inter


def single_point(x, p):
    """The projection result of a custom set whose one nearest point to x is p."""
    p = np.asarray(p, dtype=float)
    return P.sets.ProjectionResult(p, (p,), False, float(np.linalg.norm(x - p)))


def given_draws(monkeypatch, points):
    """Every ball draw in projlab.analysis returns `points`: how a test hands
    a sampled estimator the points it samples."""
    points = np.asarray(points, dtype=float)
    monkeypatch.setattr(P.analysis, "uniform_ball", lambda rng, center, radius, n: points)


def sample_ball(rng, center, radius, n):
    """n points uniform in the ball B(center, radius)."""
    return P.uniform_ball(rng, np.asarray(center, dtype=float), radius, n)


def underflows(call):
    """Whether `call()` underflows somewhere: a result numpy flags as
    subnormal or zero, outside the standard rounding model."""
    try:
        with np.errstate(under="raise"):
            call()
    except FloatingPointError:
        return True
    return False


class FormulaHyperplane(P.Hyperplane):
    """A hyperplane that gives no affine map, so an operator on it takes the
    step formula, as on a set that is not affine: the catalog hyperplane's
    projection by the other path."""

    def _affine_map(self):
        return None


def _magnitude_step(s, lam, y):
    """The relaxed step x + lam (P_s(x) - x) onto a hyperplane or an affine
    set, at y >= 0, with each input replaced by its magnitude and each
    difference by a sum: the sum of the magnitudes of the terms it adds up.
    The (1 + 2 lam) y covers x, lam x and the x of the hyperplane's P_s(x)."""
    if isinstance(s, P.Hyperplane):
        a = np.abs(s.a)
        return (1.0 + 2.0 * lam) * y + lam * a * ((a.dot(y) + abs(s.b)) / s._aa)
    B, anchor = np.abs(s.basis), np.abs(s.anchor)
    return (1.0 + 2.0 * lam) * y + lam * (anchor + B.T.dot(B.dot(y + anchor)))


def affine_step_bound(op, x):
    """Entrywise bound on |M x + c - T(x)|, the gap between a relaxed or
    generalized DR operator on affine sets stepping by its map and the step
    formula T, at x.

    Both compute the same terms, multiplied out: by the standard model, a
    value whose every term passes through at most K roundings (a quotient
    by the computed ||a||^2 counts its d) is within gamma_K = K u / (1 - K u)
    of the exact one, times the sum A of the terms' magnitudes, u = 2^-53.
    Along the deepest path, counted in d, the dimension: a relaxed step's
    formula takes <a, x> (d roundings), - b, / ||a||^2 (d + 1), * a, the
    difference from x, P - x, * lam and x + (2d + 7 in all; 2d + 5 on an
    affine set), and its map M = I + lam (P - I) takes d + 6, the gemv d
    more and + c one (2d + 7).  A DR step composes two relaxed steps and
    the blend with (1 - alpha) x (4d + 16); its map multiplies two maps
    (3d + 12), blends (3d + 14) and takes the gemv and + c (4d + 15).  So
    the gap is at most 2 gamma_K A; A, a sum of nonnegative terms computed
    here in floating point, is within a factor 1 + gamma_K of the exact."""
    d, y = op.dim, np.abs(x)
    if isinstance(op, P.RelaxedProjector):
        K, A = 2 * d + 7, _magnitude_step(op.target, op.lam, y)
    else:
        K = 4 * d + 16
        inner = _magnitude_step(op.set_b, op.mu, _magnitude_step(op.set_a, op.lam, y))
        A = (1.0 - op.alpha) * y + op.alpha * inner
    gamma = K * 2.0 ** -53 / (1.0 - K * 2.0 ** -53)
    return 2.0 * gamma * (1.0 + gamma) * A


class FormulaAffineSet(P.AffineSubspaceSet):
    """An affine set that gives no affine map, as `FormulaHyperplane` is a
    hyperplane that gives none."""

    def _affine_map(self):
        return None


def formula_counterpart(s):
    """s as a `FormulaHyperplane` or `FormulaAffineSet` where it is a
    hyperplane or an affine set, so an operator on it takes the step
    formula and `run` its per-step loop; any other set as it is."""
    if isinstance(s, P.Hyperplane):
        return FormulaHyperplane(s.a, s.b)
    if isinstance(s, P.AffineSubspaceSet):
        return FormulaAffineSet(s.anchor, s.basis)
    return s


def _gamma_over(K):
    """gamma_K / (1 - gamma_K): the bound on |fl(e) - e| per unit of the sum
    of the magnitudes of e's terms, computed in floating point, where every
    term passes through at most K roundings, u = 2^-53."""
    gamma = K * 2.0 ** -53 / (1.0 - K * 2.0 ** -53)
    return gamma / (1.0 - gamma)


def affine_block_bound(operators, reference, block):
    """Bound on ||block[n] - reference[n]||_2 for each row n that two runs of
    a cycle of relaxed or generalized DR operators on affine sets share:
    `reference` steps by one map at a time (x_i = fl(M_i x_(i-1) + c_i), as
    `apply` does), `block` by `run`'s rounds of stacked prefix maps, each
    from the row where it starts, the rounds `operators._rounds` gives the
    block path.

    Take the computed (M_i, c_i) as exact and write T_i for x -> M_i x + c_i.
    Every value either run computes is a sum of products of entries of the
    M_i, the c_i and x0, the terms of the exact chain, and in the standard
    model, where nothing underflows, a sum whose every term passes through
    at most K roundings is within gamma_K of the exact times the sum of its
    terms' magnitudes (`_gamma_over`, with the error of computing that
    sum):
    - a reference step, a gemv and + c, takes K = d + 1, so x_i = T_i(x_(i-1))
      + f_i with |f_i| <= gamma_(d+1) (|M_i| |x_(i-1)| + |c_i|);
    - the j-th row of a round from y takes fl(A_j y + b_j), with A_j =
      M_j ... M_1 formed by matrix products in any order, within
      gamma_((j-1)d) |M_j| ... |M_1| (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., sec. 3.5), b_j by the chain and by
      doublings b_(cm+i) = A_i b_cm + b_i, within (j-1)(d+1) roundings, and
      the final gemv and + b_j: K = j (d + 1), so the row is the exact chain
      from y plus g_j, |g_j| <= gamma_(j(d+1)) z_j with z_0 = |y| and z_j =
      |M_j| z_(j-1) + |c_j|.
    The linear part of T_i is M_i, of 2-norm at most sigma, the largest
    computed ||M_i||_2 (at least 1; an exact relaxed or DR step is
    nonexpansive), so the gap at row s + j of a round from row s is at most
    sigma^j times the gap at row s, plus ||g_j||, plus sum over i of
    sigma^(s+j-i) ||f_i|| for the reference's steps in the round.
    """
    maps = [op._map for op in operators]
    m, d, rows = len(maps), reference.shape[1], min(len(reference), len(block))
    sigma = max(1.0, *(np.linalg.norm(M, 2) for M, _ in maps)) * (1.0 + 1e-12)  # SVD's rounding
    bound = np.zeros(rows)
    start = 0
    # uncut: the rows the two runs share end where `run`'s last round does
    rounds = P.operators._rounds(math.inf, m * d)
    while start < rows - 1:
        k = next(rounds)
        carried, reference_gap, z = bound[start], 0.0, np.abs(block[start])
        for j in range(1, min(k * m, rows - 1 - start) + 1):
            M, c = maps[(start + j - 1) % m]
            z = np.abs(M).dot(z) + np.abs(c)
            f = _gamma_over(d + 1) * (np.abs(M).dot(np.abs(reference[start + j - 1])) + np.abs(c))
            carried, reference_gap = sigma * carried, sigma * reference_gap + np.linalg.norm(f)
            bound[start + j] = carried + reference_gap + np.linalg.norm(_gamma_over(j * (d + 1)) * z)
        start += k * m
    return bound
