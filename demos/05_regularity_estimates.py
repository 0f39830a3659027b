"""Estimators for the local regularity quantities the rates consume.

Every rate certificate takes regularity constants as input: a projector
quality epsilon, a linear-regularity constant kappa, an angle proxy
theta-bar, or a strong-regularity margin zeta.  Where the geometry gives the
value (epsilon on a convex set or a sphere, kappa on affine sets) the
estimate is computed and marked exact; elsewhere the estimator draws points
from a ball around an anchor and reports the worst observed value, a bound
that is reproducible from its seed.
"""

import math

import numpy as np

import projlab as P


def line_pair(theta):
    a = P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]]))
    b = P.AffineSubspaceSet(
        np.zeros(2), np.array([[math.cos(theta), math.sin(theta)]])
    )
    inter = P.FinitePointSet(np.zeros((1, 2)))
    return a, b, inter


def main():
    # epsilon-hat: how far a projector deviates from firm nonexpansiveness.
    # Both are exact, with nothing sampled (bound "exact"): a convex set gives
    # zero, and a sphere of radius r gives delta sqrt(1 - delta^2 / 4r^2) / r
    # at a point on it, the longest chord in the ball over 2r.
    ball = P.Ball(np.zeros(2), 1.0)
    sphere = P.Sphere(np.zeros(2), 1.0)
    anchor = np.array([1.0, 0.0])
    for s, label in ((ball, "ball  "), (sphere, "sphere")):
        est = P.estimate_eps_regularity(s, anchor, 0.2, samples=600, seed=0)
        print(f"epsilon-hat[{label}] = {est.value:.6f}   (claimed bound: {est.bound})")

    print()
    # kappa: linear regularity of a pair of lines at angle theta, exact from
    # the eigenvalues of the averaged normal projectors, with nothing
    # sampled.  The closed form is 1 / sin(theta / 2).
    for deg in (30, 60, 90):
        a, b, inter = line_pair(math.radians(deg))
        est = P.estimate_linear_regularity([a, b], inter, np.zeros(2), 1.0,
                                           samples=600, seed=0)
        truth = 1.0 / math.sin(math.radians(deg) / 2.0)
        print(f"kappa[{deg:2d} deg] = {est.value:.4f}   (claimed bound: {est.bound})   "
              f"1/sin(theta/2) = {truth:.4f}")

    print()
    # theta-bar: the angle proxy for the same pair is exactly cos(theta).
    for deg in (30, 60, 90):
        a, b, _ = line_pair(math.radians(deg))
        est = P.estimate_theta_bar(a, b, np.zeros(2), samples=600, seed=0)
        print(f"theta-bar[{deg:2d} deg] = {est.value:.6f}   "
              f"cos(theta) = {math.cos(math.radians(deg)):.6f}")

    print()
    # zeta-hat: strong regularity.  Three halfspaces whose normals are
    # linearly dependent fail as a triple but every pair passes.
    h = [
        P.Halfspace(np.array([1.0, 1.0]) / math.sqrt(2.0), 0.0),
        P.Halfspace(np.array([1.0, -1.0]) / math.sqrt(2.0), 0.0),
        P.Halfspace(np.array([-1.0, 0.0]), 0.0),
    ]
    est = P.check_strong_regularity(h, np.zeros(2), 1.0, samples=10_000, seed=7)
    print(f"zeta-hat[all three] = {est.value:.3e}   strong = {est.extra['strong']}")
    for i, j in ((0, 1), (0, 2), (1, 2)):
        est = P.check_strong_regularity([h[i], h[j]], np.zeros(2), 1.0,
                                        samples=10_000, seed=7)
        print(f"zeta-hat[pair {i}{j}]  = {est.value:.6f}   "
              f"strong = {est.extra['strong']}")


if __name__ == "__main__":
    main()
