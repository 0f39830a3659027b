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
