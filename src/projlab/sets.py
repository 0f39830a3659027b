"""Closed-set catalog: membership, projection, distance and normal-cone oracles.

Every variant describes a nonempty closed subset of R^d exactly.  Projections
return the full nearest-point set whenever it is enumerable, together with a
deterministic canonical selection, so operators built on the catalog replay
bit-identically.  Multivalued ties are broken by the lexicographically
smallest coordinate vector unless a variant documents its own rule
(UnionOfSets prefers the lowest member index, Sphere at its center returns
center + radius * e1).  `project_many` and `distance_many` give the same
canonical points and distances for each row of an (n, d) array, and
`normal_generators_many` the same normal generators.

The single-valued closed forms (halfspace, hyperplane, affine, ball, box,
orthant) write their projection once, in `_nearest_many`; their `project` is
its one-row call.  The multivalued variants and the cone keep a scalar
`project` that lists every minimizer, and a custom subclass needs only
`project`.  No catalog projection returns memory shared with its input.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields

import numpy as np
from scipy.optimize import nnls

from .errors import (
    ConfigError,
    DimensionMismatch,
    DomainError,
    UnsupportedSet,
    at_key,
    check_keys,
    table_entry,
)

MEMBERSHIP_TOL = 1e-10
TIE_TOL = 1e-12
# Relative singular-value cut-off that ranks affine-hull directions.
RANK_TOL = 1e-9


def as_vector(x, dim=None) -> np.ndarray:
    """Validate and convert `x` to a finite 1-D float array."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("vector entries must be finite")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_points(X, dim) -> np.ndarray:
    """Validate and convert `X` to a finite (n, dim) float array, n >= 0."""
    P = np.asarray(X, dtype=float)
    if P.ndim != 2 or P.shape[1] != dim:
        raise DimensionMismatch(f"expected an (n, {dim}) array, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise DomainError("point entries must be finite")
    return P


def row_norms(D) -> np.ndarray:
    """Euclidean norm of each row of D.  np.vecdot reduces each row with the
    BLAS dot kernel, as np.linalg.norm does for one vector, so the results
    agree bit for bit with the per-point norms."""
    return np.sqrt(np.vecdot(D, D))


def _rowwise(M, X):
    """M @ x for each row x of X.  A stacked matmul runs one matrix-vector
    product per row, the kernel the per-point code runs, so the results agree
    bit for bit; a single matrix product would sum in another order."""
    return np.matmul(M, X[:, :, None])[:, :, 0]


def svd_rank(M, tol, full_matrices=True):
    """Right singular vectors of M (rows of V^T) and its numerical rank: the
    count of singular values above tol * max(1, largest).  vt[:rank] spans the
    row space; with full_matrices, vt[rank:] spans the null space."""
    _, s, vt = np.linalg.svd(M, full_matrices=full_matrices)
    return vt, int(np.sum(s > tol * max(1.0, s[0] if s.size else 1.0)))


def _full_space_points(anchor):
    """anchor and anchor + e_i: points whose affine hull is all of R^d."""
    return [anchor] + list(anchor + np.eye(anchor.size))


def _prefix_rows(U, active):
    """`normal_generators_many` output from candidate directions U, either
    (m, d) shared by every row or (n, m, d), and their (n, m) activity: each
    row's active candidates moved, in order, to a prefix, the padding zeroed
    and the columns cut to the longest row."""
    order = np.argsort(~active, axis=1, kind="stable")[:, :active.sum(axis=1).max(initial=0)]
    mask = np.take_along_axis(active, order, axis=1)
    dirs = U[order] if U.ndim == 2 else np.take_along_axis(U, order[:, :, None], axis=1)
    dirs[~mask] = 0.0
    return dirs, mask


def _one_row_project(self, x):
    """`project` of a single-valued variant with a batched closed form: the
    one-row call of its `_nearest_many`, x validated once."""
    (p,), (d,) = self._nearest_many(as_vector(x, self.dim)[None, :])
    return ProjectionResult(p, (p,), False, float(d))


def _one_row_normals(self, p):
    """`normal_generators` of a variant with a batched closed form: the
    one-row call of its `normal_generators_many`."""
    dirs, mask = self.normal_generators_many(as_vector(p, self.dim)[None, :])
    return list(dirs[0, mask[0]])


def _dedupe(points, tol=TIE_TOL):
    out = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in out):
            out.append(p)
    return out


@dataclass(frozen=True, eq=False)
class ProjectionResult:
    """Outcome of projecting a point onto a catalog set.

    `canonical` is the deterministic selection, `minimizers` the full
    nearest-point set when enumerable (always containing `canonical`),
    `distance` the Euclidean distance attained by every minimizer.
    """

    canonical: np.ndarray
    minimizers: tuple
    multivalued: bool
    distance: float


class ClosedSet:
    """Base class for catalog sets; subclasses fill in `project`.

    A catalog variant is a frozen dataclass with a `tag` (its config `type`)
    and `about` (its catalog line).  Its config keys are its field names, so
    `to_config` and `set_from_config` need nothing per variant.
    """

    dim: int

    def project(self, x) -> ProjectionResult:
        raise NotImplementedError

    def distance(self, x) -> float:
        return self.project(x).distance

    def project_many(self, X) -> np.ndarray:
        """Row i is project(X[i]).canonical, with the same tie rules, for an
        (n, dim) array X."""
        return self._nearest_many(as_points(X, self.dim))[0]

    def distance_many(self, X) -> np.ndarray:
        """Entry i is distance(X[i]), by the same formula, for an (n, dim)
        array X."""
        return self._nearest_many(as_points(X, self.dim))[1]

    def _nearest_many(self, X):
        """(canonical points, distances) of the rows of a validated X.

        This default loops over `project`, so any subclass works.  Variants
        with a closed form broadcast it here, and a single-valued one's
        `project` is the one-row call.  Wrappers and operators call
        `_nearest_many` directly, so X is validated once at the public
        boundary.
        """
        results = [self.project(x) for x in X]
        P = np.array([r.canonical for r in results], dtype=float).reshape(X.shape)
        return P, np.array([r.distance for r in results], dtype=float)

    def _sole_minimizer_many(self, X):
        """Mask of the rows x of a validated X where project(x) lists its
        canonical point as its only minimizer.  This default marks every row
        of the single-valued closed forms, whose `project` is the one-row
        call of `_nearest_many`, and no row of any other set."""
        return np.full(X.shape[0], type(self).project is _one_row_project)

    def contains(self, x, tol=MEMBERSHIP_TOL) -> bool:
        return self.distance(x) <= tol

    def normal_generators(self, p) -> list:
        """Unit generators of the proximal normal cone at a member point p,
        as a list of direction vectors in a deterministic order."""
        raise UnsupportedSet(f"{type(self).__name__} has no closed-form normal cone")

    def normal_generators_many(self, P):
        """The normal generators at each row of an (n, dim) array P: padded
        (n, k, dim) directions and an (n, k) mask, k the longest row.  Row
        i's masked directions are normal_generators(P[i]), in order; the
        mask is a prefix and the padding is zero.

        This default loops over `normal_generators`, so any subclass works.
        Variants with a closed form broadcast it, and their
        `normal_generators` is its one-row call.
        """
        rows = [self.normal_generators(p) for p in as_points(P, self.dim)]
        counts = np.array([len(r) for r in rows], dtype=int)
        mask = np.arange(counts.max(initial=0)) < counts[:, None]
        dirs = np.zeros(mask.shape + (self.dim,))
        dirs[mask] = np.reshape([u for r in rows for u in r], (-1, self.dim))
        return dirs, mask

    def to_config(self) -> dict:
        cfg = {"type": self.tag}
        for f in fields(self):
            cfg[f.name] = _encode(getattr(self, f.name))
        return cfg

    def hull_points(self, rng):
        """Points whose affine hull is aff(self).  This fallback projects
        random probes; variants with a closed form override it."""
        probes = rng.standard_normal((64, self.dim)) * 4.0
        return [self.project(z).canonical for z in probes]

    def _single(self, x, p) -> ProjectionResult:
        p = np.asarray(p, dtype=float)
        return ProjectionResult(p, (p,), False, float(np.linalg.norm(x - p)))


def _single_many(X, P):
    """`ClosedSet._single` for a batch: the projections P with the distances
    ||x - p|| of the rows."""
    return P, row_norms(X - P)


# ---------------------------------------------------------------------------
# affine-flavoured variants


@dataclass(frozen=True, eq=False)
class _LinearSet(ClosedSet):
    """Fields and validation shared by halfspaces and hyperplanes."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = as_vector(self.a)
        if np.linalg.norm(a) == 0.0:
            raise DomainError(f"{self.tag} normal must be nonzero")
        b = float(self.b)
        if not np.isfinite(b):
            raise DomainError(f"{self.tag} offset b must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dim", a.size)


@dataclass(frozen=True, eq=False)
class Halfspace(_LinearSet):
    """{x : <a, x> <= b} with a != 0."""

    tag, about = "halfspace", "{x : <a, x> <= b}, a != 0"

    project = _one_row_project

    def _nearest_many(self, X):
        excess = np.vecdot(X, self.a) - self.b
        out = excess > 0.0
        P = X.copy()
        P[out] = X[out] - (excess[out] / float(self.a @ self.a))[:, None] * self.a
        return _single_many(X, P)

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        na = float(np.linalg.norm(self.a))
        excess = np.vecdot(as_points(P, self.dim), self.a) - self.b
        face = excess >= -MEMBERSHIP_TOL * max(1.0, na)  # interior: zero cone
        return _prefix_rows((self.a / na)[None, :], face[:, None])

    def hull_points(self, rng):
        return _full_space_points(self.a * (self.b / float(np.dot(self.a, self.a))))


@dataclass(frozen=True, eq=False)
class Hyperplane(_LinearSet):
    """{x : <a, x> = b} with a != 0."""

    tag, about = "hyperplane", "{x : <a, x> = b}, a != 0"

    project = _one_row_project

    def _nearest_many(self, X):
        offset = np.vecdot(X, self.a) - self.b
        return _single_many(X, X - (offset / float(self.a @ self.a))[:, None] * self.a)

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        n = as_points(P, self.dim).shape[0]
        u = self.a / float(np.linalg.norm(self.a))
        return _prefix_rows(np.stack([u, -u]), np.ones((n, 2), bool))

    def hull_points(self, rng):
        a, aa = self.a, np.dot(self.a, self.a)
        anchor = a * (self.b / float(aa))
        pts = [anchor]
        for v in np.eye(anchor.size):
            proj = v - (np.dot(v, a) / aa) * a
            if np.linalg.norm(proj) > RANK_TOL:
                pts.append(anchor + proj)
        return pts


def _orthonormal_complement(basis, dim):
    """Orthonormal basis of the orthogonal complement of the row space."""
    if basis.shape[0] == 0:
        return np.eye(dim)
    vt, rank = svd_rank(basis, 1e-12)
    return vt[rank:]


@dataclass(frozen=True, eq=False)
class AffineSubspaceSet(ClosedSet):
    """anchor + span(basis rows); basis rows orthonormal, possibly empty."""

    tag, about = "affine", "anchor + span(orthonormal basis rows)"
    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        anchor = as_vector(self.anchor)
        basis = np.asarray(self.basis, dtype=float)
        if basis.size == 0:
            basis = np.zeros((0, anchor.size))
        if basis.ndim != 2 or basis.shape[1] != anchor.size:
            raise DimensionMismatch("basis rows must match anchor dimension")
        gram = basis @ basis.T
        if basis.shape[0] and np.max(np.abs(gram - np.eye(basis.shape[0]))) > 1e-10:
            raise DomainError("basis rows must be orthonormal")
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", anchor.size)

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[0]

    project = _one_row_project

    def _nearest_many(self, X):
        coords = _rowwise(self.basis, X - self.anchor)
        return _single_many(X, self.anchor + _rowwise(self.basis.T, coords))

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        n = as_points(P, self.dim).shape[0]
        comp = _orthonormal_complement(self.basis, self.dim)
        pairs = np.stack([comp, -comp], axis=1).reshape(-1, self.dim)  # u0, -u0, u1, ...
        return _prefix_rows(pairs, np.ones((n, pairs.shape[0]), bool))

    def hull_points(self, rng):
        return [self.anchor] + [self.anchor + b for b in self.basis]


# ---------------------------------------------------------------------------
# balls, spheres, boxes


@dataclass(frozen=True, eq=False)
class Ball(ClosedSet):
    tag, about = "ball", "closed ball, radius >= 0"
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_vector(self.center)
        r = float(self.radius)
        if not 0.0 <= r < np.inf:  # nan fails too
            raise DomainError("ball radius must be finite and >= 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "dim", c.size)

    project = _one_row_project

    def _nearest_many(self, X):
        dist = row_norms(X - self.center)
        out = dist > self.radius
        P = X.copy()
        P[out] = self.center + (self.radius / dist[out])[:, None] * (X[out] - self.center)
        return _single_many(X, P)

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        gap = as_points(P, self.dim) - self.center
        if self.radius == 0.0 and gap.shape[0]:
            raise UnsupportedSet("degenerate ball: use FinitePointSet for a point")
        rr = row_norms(gap)
        # interior (the center too, however small the radius): zero cone
        face = (rr >= self.radius - MEMBERSHIP_TOL) & (rr > 0.0)
        U = np.zeros_like(gap)
        U[face] = gap[face] / rr[face, None]
        return _prefix_rows(U[:, None, :], face[:, None])

    def hull_points(self, rng):
        if self.radius == 0.0:
            return [self.center]
        return _full_space_points(self.center)


@dataclass(frozen=True, eq=False)
class Sphere(ClosedSet):
    tag, about = "sphere", "distance sphere, radius > 0 (nonconvex)"
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = as_vector(self.center)
        r = float(self.radius)
        if not 0.0 < r < np.inf:  # nan fails too
            raise DomainError("sphere radius must be finite and > 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "radius", r)
        object.__setattr__(self, "dim", c.size)

    def project(self, x):
        x = as_vector(x, self.dim)
        gap = x - self.center
        dist = float(np.linalg.norm(gap))
        if dist <= TIE_TOL:
            # every sphere point minimizes; canonical ray is +e1
            canon = self.center.copy()
            canon[0] += self.radius
            return ProjectionResult(canon, (canon,), True, self.radius)
        p = self.center + (self.radius / dist) * gap
        return self._single(x, p)

    def _nearest_many(self, X):
        dist = row_norms(X - self.center)
        off = dist > TIE_TOL
        P = np.empty_like(X)
        P[off] = self.center + (self.radius / dist[off])[:, None] * (X[off] - self.center)
        P[~off] = self.center
        P[~off, 0] += self.radius
        return P, np.where(off, row_norms(X - P), self.radius)

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        gap = as_points(P, self.dim) - self.center
        rr = row_norms(gap)
        if np.any(rr <= TIE_TOL):
            raise DomainError("sphere normal requested at the center")
        U = gap / rr[:, None]
        return _prefix_rows(np.stack([U, -U], axis=1), np.ones((U.shape[0], 2), bool))

    def hull_points(self, rng):
        if self.center.size == 1:
            return [self.center - self.radius, self.center + self.radius]
        return _full_space_points(self.center)


@dataclass(frozen=True, eq=False)
class Box(ClosedSet):
    tag, about = "box", "componentwise bounds lower <= upper"
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = as_vector(self.lower)
        hi = as_vector(self.upper, lo.size)
        if np.any(lo > hi):
            raise DomainError("box lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        object.__setattr__(self, "dim", lo.size)

    project = _one_row_project

    def _nearest_many(self, X):
        # not np.clip: on a batch with one column it keeps x over an equal
        # bound of the other zero sign, where a single row takes the bound
        return _single_many(X, np.minimum(np.maximum(X, self.lower), self.upper))

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        P = as_points(P, self.dim)
        i = np.arange(self.dim)
        axes = np.zeros((self.dim, 2, self.dim))  # e_0, -e_0, e_1, ...
        axes[i, 0, i], axes[i, 1, i] = 1.0, -1.0
        active = np.stack([P >= self.upper - MEMBERSHIP_TOL,
                           P <= self.lower + MEMBERSHIP_TOL], axis=2)
        return _prefix_rows(axes.reshape(-1, self.dim), active.reshape(P.shape[0], 2 * self.dim))

    def hull_points(self, rng):
        mid = (self.lower + self.upper) / 2.0
        pts = [mid]
        for i in range(mid.size):
            if self.upper[i] - self.lower[i] > RANK_TOL:
                e = np.zeros(mid.size)
                e[i] = (self.upper[i] - self.lower[i]) / 2.0
                pts.append(mid + e)
        return pts


# ---------------------------------------------------------------------------
# cones


@dataclass(frozen=True, eq=False)
class Orthant(ClosedSet):
    """Sign-pattern orthant {x : s_i * x_i >= 0 for s_i != 0}.

    A sign of 0 leaves the coordinate unconstrained.
    """

    tag, about = "orthant", "sign-constrained orthant, signs in {-1, 0, 1}"
    signs: tuple

    def __post_init__(self):
        signs = tuple(int(s) for s in self.signs)
        if not signs:
            raise DomainError("orthant needs at least one coordinate")
        if any(s not in (-1, 0, 1) for s in signs):
            raise DomainError("orthant signs must be -1, 0 or +1")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "dim", len(signs))

    project = _one_row_project

    def _nearest_many(self, X):
        s = np.array(self.signs, dtype=float)
        return _single_many(X, np.where((s != 0.0) & (s * X < 0.0), 0.0, X))

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        s = np.array(self.signs, dtype=float)
        at_zero = np.abs(as_points(P, self.dim)) <= MEMBERSHIP_TOL
        return _prefix_rows(np.diag(-s), (s != 0.0) & at_zero)

    def polar_generators(self):
        """Generating rays of the polar cone: -(s_i e_i) for each s_i != 0, in
        coordinate order (none when every sign is 0)."""
        s = np.array(self.signs, dtype=float)
        return list(-np.diag(s)[s != 0.0])

    def hull_points(self, rng):
        pts = [np.zeros(self.dim)]
        for i, sign in enumerate(self.signs):
            e = np.zeros(self.dim)
            e[i] = float(sign) if sign != 0 else 1.0
            pts.append(e)
            if sign == 0:
                pts.append(-e)
        return pts


def _inequality_cone_generators(M):
    """Generating unit rays of {v : M v <= 0}, including +/- lineality basis.

    Subset enumeration of active constraints; intended for desk-scale cones
    (dimension <= 4, a handful of rows).
    """
    tol = 1e-9
    M = np.asarray(M, dtype=float)
    d = M.shape[1]
    # lineality space = null(M)
    if M.shape[0]:
        vt, rank = svd_rank(M, tol)
        lin = vt[rank:]
    else:
        lin = np.eye(d)
    rays = [row for b in lin for row in (b, -b)]
    if lin.shape[0] == d:
        return _dedupe(rays, tol)
    # pointed part lives in the orthogonal complement of the lineality space
    Q = _orthonormal_complement(lin, d)
    dprime = Q.shape[0]
    Mp = M @ Q.T
    found = []
    size = max(0, dprime - 1)
    for rows in itertools.combinations(range(Mp.shape[0]), size):
        A = Mp[list(rows)]
        if size == 0:
            null = np.eye(dprime)
        else:
            vt, rank = svd_rank(A, tol)
            null = vt[rank:]
        if null.shape[0] != 1:
            continue
        for sign in (1.0, -1.0):
            w = sign * null[0]
            if np.all(Mp @ w <= tol):
                found.append(Q.T @ w)
    rays.extend(found)
    rays = [r / np.linalg.norm(r) for r in rays if np.linalg.norm(r) > tol]
    return _dedupe(rays, tol)


@dataclass(frozen=True, eq=False)
class PolyhedralCone(ClosedSet):
    """Finitely generated cone {sum t_i g_i : t_i >= 0}.

    The projection of x is G^T c for the nonnegative least-squares solution
    c of min ||G^T c - x|| over c >= 0 (Lawson-Hanson NNLS, one scipy call),
    which is exact for any number of generators.
    """

    tag, about = "cone", "finitely generated polyhedral cone, projected by NNLS"
    generators: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.generators, dtype=float)
        if g.ndim != 2 or g.shape[0] == 0:
            raise DimensionMismatch("generators must be a nonempty (k, d) array")
        if not np.all(np.isfinite(g)):
            raise DomainError("generators must be finite")
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("zero generator ray")
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "dim", g.shape[1])

    def project(self, x):
        x = as_vector(x, self.dim)
        coeff, _ = nnls(self.generators.T, x)
        return self._single(x, self.generators.T @ coeff)

    def normal_generators(self, p):
        if self.dim > 3:
            raise UnsupportedSet("cone normal enumeration supports dimension <= 3")
        p = as_vector(p, self.dim)
        rows = [self.generators]
        if np.linalg.norm(p) > MEMBERSHIP_TOL:
            rows.append(p[None, :])
            rows.append(-p[None, :])
        return _inequality_cone_generators(np.vstack(rows))

    def polar_generators(self):
        """Generating unit rays of the polar cone {v : <v, g_i> <= 0}."""
        if self.dim > 4:
            raise UnsupportedSet("polar enumeration supports dimension <= 4")
        return _inequality_cone_generators(self.generators)

    def hull_points(self, rng):
        return [np.zeros(self.dim)] + list(self.generators)


# ---------------------------------------------------------------------------
# derived variants


@dataclass(frozen=True, eq=False)
class Enlargement(ClosedSet):
    """inner + closed ball of radius tau: {x : dist(x, inner) <= tau}."""

    tag, about = "enlargement", "inner set + ball of radius tau"
    inner: ClosedSet
    tau: float

    def __post_init__(self):
        if not 0.0 <= float(self.tau) < np.inf:  # nan fails too
            raise DomainError("enlargement radius must be finite and >= 0")
        object.__setattr__(self, "tau", float(self.tau))
        object.__setattr__(self, "dim", self.inner.dim)

    def project(self, x):
        x = as_vector(x, self.dim)
        if self.tau == 0.0:
            return self.inner.project(x)
        res = self.inner.project(x)
        if res.distance <= self.tau:
            return self._single(x, x.copy())
        scale = self.tau / res.distance
        mapped = tuple(q + scale * (x - q) for q in res.minimizers)
        canon = res.canonical + scale * (x - res.canonical)
        return ProjectionResult(canon, mapped, res.multivalued, res.distance - self.tau)

    def _nearest_many(self, X):
        Q, dist = self.inner._nearest_many(X)
        if self.tau == 0.0:
            return Q, dist
        out = dist > self.tau
        P = X.copy()
        P[out] = Q[out] + (self.tau / dist[out])[:, None] * (X[out] - Q[out])
        return P, np.where(out, dist - self.tau, 0.0)

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        """The unit vectors p - q over the inner minimizers q of each
        boundary row p; none at an interior row.  One inner `_nearest_many`
        call gives q at the rows the inner set marks as having a sole
        minimizer; the other boundary rows (ties within TIE_TOL, or an inner
        set that marks none) ask the inner `project` for every minimizer."""
        P = as_points(P, self.dim)
        if self.tau == 0.0:
            return self.inner.normal_generators_many(P)
        Q, dist = self.inner._nearest_many(P)
        boundary = ~(dist < self.tau - MEMBERSHIP_TOL)
        tied = np.flatnonzero(boundary & ~self.inner._sole_minimizer_many(P))
        lists = [self.inner.project(P[i]).minimizers for i in tied]
        U = np.zeros((P.shape[0], max(map(len, lists), default=1), self.dim))
        active = np.zeros(U.shape[:2], bool)
        U[:, 0], active[:, 0] = Q, boundary
        for i, qs in zip(tied, lists):
            U[i, :len(qs)], active[i, :len(qs)] = qs, True
        U = P[:, None, :] - U
        nu = row_norms(U)
        active &= nu > TIE_TOL
        U[active] /= nu[active, None]
        return _prefix_rows(U, active)

    def hull_points(self, rng):
        inner_pts = self.inner.hull_points(rng)
        if self.tau == 0.0:
            return inner_pts
        return _full_space_points(inner_pts[0])


@dataclass(frozen=True, eq=False)
class UnionOfSets(ClosedSet):
    """Finite union; ties within TIE_TOL resolve to the lowest member index."""

    tag, about = "union", "finite union, ties -> lowest member index (nonconvex)"
    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise DomainError("union needs at least one member")
        dims = {m.dim for m in members}
        if len(dims) != 1:
            raise DimensionMismatch("union members disagree on dimension")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "dim", members[0].dim)

    def project(self, x):
        x = as_vector(x, self.dim)
        results = [m.project(x) for m in self.members]
        dmin = min(r.distance for r in results)
        tied = [r for r in results if r.distance <= dmin + TIE_TOL]
        minimizers = _dedupe([q for r in tied for q in r.minimizers])
        canon = tied[0].canonical
        multi = len(minimizers) > 1 or any(r.multivalued for r in tied)
        return ProjectionResult(canon, tuple(minimizers), multi, dmin)

    def _nearest_many(self, X):
        found = [m._nearest_many(X) for m in self.members]
        dists = np.stack([d for _, d in found])
        dmin = dists.min(axis=0)
        first = np.argmax(dists <= dmin + TIE_TOL, axis=0)  # lowest tied index
        points = np.stack([q for q, _ in found])
        return points[first, np.arange(X.shape[0])], dmin

    def hull_points(self, rng):
        return [p for m in self.members for p in m.hull_points(rng)]


@dataclass(frozen=True, eq=False)
class FinitePointSet(ClosedSet):
    tag, about = "finite_points", "finite point set, ties -> lexicographically smallest"
    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DimensionMismatch("points must be a nonempty (n, d) array")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", pts.shape[1])

    def project(self, x):
        x = as_vector(x, self.dim)
        dists = np.linalg.norm(self.points - x, axis=1)
        dmin = float(dists.min())
        near = self.points[np.flatnonzero(dists <= dmin + TIE_TOL)]
        # deduped in lexicographic order, so the canonical (smallest) point leads
        tied = _dedupe([q.copy() for q in sorted(near, key=tuple)])
        return ProjectionResult(tied[0], tuple(tied), len(tied) > 1, dmin)

    def _nearest_many(self, X):
        dists = np.linalg.norm(self.points - X[:, None, :], axis=2)
        dmin = dists.min(axis=1)
        k = self.points.shape[0]
        rank = np.empty(k, dtype=int)
        rank[np.lexsort(self.points.T[::-1])] = np.arange(k)  # lexicographic
        tied_rank = np.where(dists <= dmin[:, None] + TIE_TOL, rank, k)
        return self.points[np.argmin(tied_rank, axis=1)], dmin

    def _sole_minimizer_many(self, X):
        dists = np.linalg.norm(self.points - X[:, None, :], axis=2)
        return np.sum(dists <= dists.min(axis=1)[:, None] + TIE_TOL, axis=1) == 1

    def hull_points(self, rng):
        return list(self.points)


@dataclass(frozen=True, eq=False)
class Translate(ClosedSet):
    """inner + shift."""

    tag, about = "translate", "inner set shifted by a vector"
    inner: ClosedSet
    shift: np.ndarray

    def __post_init__(self):
        shift = as_vector(self.shift, self.inner.dim)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "dim", self.inner.dim)

    def project(self, x):
        x = as_vector(x, self.dim)
        res = self.inner.project(x - self.shift)
        mapped = tuple(q + self.shift for q in res.minimizers)
        return ProjectionResult(res.canonical + self.shift, mapped, res.multivalued, res.distance)

    def _nearest_many(self, X):
        Q, dist = self.inner._nearest_many(X - self.shift)
        return Q + self.shift, dist

    normal_generators = _one_row_normals

    def normal_generators_many(self, P):
        return self.inner.normal_generators_many(as_points(P, self.dim) - self.shift)

    def hull_points(self, rng):
        return [p + self.shift for p in self.inner.hull_points(rng)]


# ---------------------------------------------------------------------------
# module-level operation surface


def membership(s: ClosedSet, x, tol=MEMBERSHIP_TOL) -> bool:
    return s.contains(x, tol)


def project(s: ClosedSet, x) -> ProjectionResult:
    return s.project(x)


def distance(s: ClosedSet, x) -> float:
    return s.distance(x)


def proximal_normals(s: ClosedSet, p) -> list:
    """Unit generators of the proximal normal cone of s at p, as direction
    vectors (see ClosedSet.normal_generators).

    p must belong to s (loose tolerance 1e-8 to absorb projection rounding).
    """
    if not s.contains(p, 1e-8):
        raise DomainError("normal cone requested at a point outside the set")
    return s.normal_generators(p)


def _cone_of(s):
    """The cone under any translates, for obtuseness checks."""
    if isinstance(s, Translate):
        return _cone_of(s.inner)
    if isinstance(s, (Orthant, PolyhedralCone)):
        return s
    raise UnsupportedSet("obtuseness is defined for Orthant/PolyhedralCone variants")


def conic_mixtures(rng, G, samples):
    """Unit directions of `samples` random conic combinations c @ G of the
    rows of G, c uniform in [0, 1)^k, in draw order; a combination of norm
    at most 1e-12 is dropped.  One vector-matrix product per draw, as per
    point, so each direction is bit-equal to normalising c @ G alone."""
    coeffs = rng.random((samples, G.shape[0]))
    mixed = np.matmul(coeffs[:, None, :], G)[:, 0, :]
    n = row_norms(mixed)
    keep = n > 1e-12
    return mixed[keep] / n[keep, None]


def is_obtuse_cone(s: ClosedSet, samples=256, seed=0):
    """Sampled check of -polar(K) c K (obtuse cone).

    Directions are drawn from the polar cone: the rays of the cone's
    `polar_generators` and random conic combinations of them.  Returns a
    PropertyReport-like dict; violations count sampled polar directions v
    with -v outside K.
    """
    cone = _cone_of(s)
    rng = np.random.default_rng(seed)
    directions = np.array(cone.polar_generators(), dtype=float).reshape(-1, cone.dim)
    if directions.shape[0]:
        directions = np.vstack([directions, conic_mixtures(rng, directions, samples)])
    d = cone.distance_many(-directions)
    violations = int(np.count_nonzero(d > 1e-9))
    worst, witness = 0.0, None
    if d.size:
        i = int(np.argmax(d))  # the first smallest margin -d
        worst, witness = -float(d[i]), -directions[i]
    return {
        "name": "is_obtuse_cone",
        "samples": directions.shape[0],
        "violations": violations,
        "worst_margin": float(worst),
        "witness": witness,
        "seed": seed,
        "obtuse": violations == 0,
    }


SET_TYPES = {cls.tag: cls for cls in (
    Halfspace, Hyperplane, AffineSubspaceSet, Ball, Sphere, Box, Orthant,
    PolyhedralCone, Enlargement, UnionOfSets, FinitePointSet, Translate)}


def _encode(value):
    if isinstance(value, ClosedSet):
        return value.to_config()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def _decode(value, path):
    """A field value from its config form: a record is a nested set and a
    nonempty list of records a tuple of sets; anything else is left to the
    variant's own validation."""
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return tuple(_decode(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        return value
    with at_key(path):
        return set_from_config(value)


def set_from_config(cfg: dict) -> ClosedSet:
    """Build a catalog set from its tagged-record form."""
    cls = table_entry(cfg, SET_TYPES, "set")
    keys = [f.name for f in fields(cls)]
    check_keys(cfg, "", ["type"] + keys, required=keys)
    kwargs = {key: _decode(cfg[key], key) for key in keys}
    try:
        return cls(**kwargs)
    except (DomainError, DimensionMismatch) as exc:  # at_key prefixes the record's path
        raise ConfigError(str(exc)) from exc
