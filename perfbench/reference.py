"""Exact references the benchmark checks projlab's outputs against.

Nothing here calls projlab: every value comes from numpy/scipy linear algebra
or from a closed form, so a wrong program answer cannot hide behind itself.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import nnls


def random_rotation(rng, d):
    """Haar-distributed orthogonal d x d matrix (QR of a Gaussian, signs fixed)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def principal_cosines(basis_a, basis_b):
    """Cosines of the principal angles between row spaces, descending.

    The rows of each basis are orthonormal; the cosines are the singular
    values of Q_A Q_B^T.
    """
    return np.linalg.svd(basis_a @ basis_b.T, compute_uv=False)


def friedrichs_cosine(basis_a, basis_b, shared_tol=1e-9):
    """cos(theta_F): the largest principal cosine below 1 (the cosines equal
    to 1 belong to the intersection A n B)."""
    c = principal_cosines(basis_a, basis_b)
    below = c[c < 1.0 - shared_tol]
    return float(below[0]) if below.size else 0.0


def nnls_cone_projection(generators, y):
    """Projection onto {G^T t : t >= 0} by one Lawson-Hanson NNLS solve."""
    t, _ = nnls(np.asarray(generators, dtype=float).T, np.asarray(y, dtype=float))
    return np.asarray(generators, dtype=float).T @ t


def min_norm_in_hull_of_orthonormal(m):
    """min ||sum t_i u_i|| over the simplex for m orthonormal u_i: 1/sqrt(m)."""
    return 1.0 / np.sqrt(m)


def pyramid_is_obtuse(edge_angle):
    """Square pyramid whose edge rays make `edge_angle` with the axis.

    Its dual cone is the square pyramid over the face normals, rotated 45
    degrees about the axis: the dual edges point at the face centres, where
    the cone's boundary sits at the inscribed half-angle beta with
    tan(beta) = tan(edge_angle) / sqrt(2).  The dual lies inside the cone
    (the cone is obtuse) iff 90 deg - beta <= beta.
    """
    beta = np.arctan(np.tan(edge_angle) / np.sqrt(2.0))
    return bool(np.pi / 2.0 - beta <= beta)


def kappa_bound(cos_friedrichs):
    """Closed-form linear-regularity modulus of two subspaces, 1/sin(theta_F/2)."""
    theta = np.arccos(np.clip(cos_friedrichs, -1.0, 1.0))
    return float(1.0 / np.sin(theta / 2.0))


def sphere_eps_bound(delta, radius):
    """Upper bound of eps-regularity of a sphere on a delta-ball: a chord of
    length c makes angle asin(c / 2r) with the tangent plane and c <= 2 delta."""
    return float(min(1.0, delta / radius))
