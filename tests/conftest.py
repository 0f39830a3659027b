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


def sample_ball(rng, center, radius, n):
    """n points uniform in the ball B(center, radius)."""
    return P.uniform_ball(rng, np.asarray(center, dtype=float), radius, n)
