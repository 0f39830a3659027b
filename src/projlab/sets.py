"""Closed-set catalog: membership, projection, distance and normal-cone oracles.

Every variant describes a nonempty closed subset of R^d exactly.  Projections
return the full nearest-point set whenever it is enumerable, together with a
deterministic canonical selection, so operators built on the catalog replay
bit-identically.  Multivalued ties are broken by the lexicographically
smallest coordinate vector unless a variant documents its own rule
(UnionOfSets prefers the lowest member index, Sphere at its center returns
center + radius * e1).  `project_many` and `distance_many` give the same
canonical points and distances for each row of an (n, d) array.

Every projection is written once, batched, as each row's list of
minimizers in `_minimizers_many`, and every catalog `project` is its
one-row call.  The single-valued sets (halfspace, hyperplane, affine, ball,
box, orthant, and the cone by one NNLS solve per row) write only their
points, in `_canonical_many`.  The finite point set and the union also
write `_nearest_many`, their cheaper canonical point.
Operators and the oracle sweep read points only, through `_canonical_many`,
and `distance` is the one-row call of `_nearest_many`.  A custom subclass
needs only `project`.  No catalog projection shares memory with its input.

Every normal cone is written once, batched, in `normal_generators_many`, and
`normal_generators` is its one-row call.  The union, the finite point set and
a custom subclass that does not define `normal_generators_many` have no
closed-form normal cone: they raise UnsupportedSet on a nonempty batch.

`convex` is True only where the set is known to be convex, and callers may
then use what convexity gives exactly.  The single-valued sets are convex; a
finite point set is when it holds one distinct point, a translate or an
enlargement when its inner set is, and the oracle intersection when its
members are.  Spheres, unions and a custom subclass read False, the safe
answer, unless the subclass sets it.  `_exact_eps` gives the exact
eps-regularity where the geometry does: 0 on a convex set, the cap formula
on a sphere of dimension 2 or more, 0 or 1 on a finite point set, and None
(sample it) elsewhere.  `_normal_space` gives orthonormal rows spanning the
orthogonal complement of an affine set's linear part (a hyperplane, an
affine set, a one-point set, a translate of one, and the oracle
intersection of such members) and None elsewhere.

The cone's NNLS solver comes from `scipy.optimize`, which `_nnls` imports on
first use, so `import projlab` does not load scipy.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DimensionMismatch,
    DomainError,
    UnsupportedSet,
    at_key,
    check_count,
    check_keys,
    check_range,
    check_real,
    check_whole,
    table_entry,
)

MEMBERSHIP_TOL = 1e-10
TIE_TOL = 1e-12
# Relative singular-value cut-off that ranks affine-hull directions.
RANK_TOL = 1e-9


def _nnls():
    """scipy's `nnls`, imported on first use.  `scipy.optimize` is most of the
    time `import projlab` takes, and only cone projections and
    `check_strong_regularity` need it, so a caller that projects onto no
    cone never loads it."""
    from scipy.optimize import nnls

    return nnls


def _check_entries(value, path):
    """The array rule's walk: each entry of `value` (nested lists, tuples and
    arrays other than int or float ones) is a real number by
    `errors.check_real`, else a DomainError naming its key path below `path`."""
    if isinstance(value, np.ndarray):
        if value.dtype.kind in "iuf":
            return
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        for i, entry in enumerate(value):
            if type(entry) is not float:
                _check_entries(entry, f"{path}[{i}]")
    else:
        check_real(path, value)


def _real_entries(x, path):
    """`x` as a float array of real numbers, else a DomainError (a
    DimensionMismatch for ragged nesting) naming `path`.  A float array
    costs one dtype test."""
    if type(x) is not np.ndarray or x.dtype.kind != "f":
        _check_entries(x, path)
    try:
        return np.asarray(x, dtype=float)
    except ValueError as exc:  # nested lists of unequal lengths
        raise DimensionMismatch(f"{path} is not a rectangular array") from exc


def _real_array(x, path):
    """The array rule: `x` as a float array of finite real numbers by
    `_real_entries`, else a DomainError naming `path`."""
    A = _real_entries(x, path)
    if not np.all(np.isfinite(A)):
        raise DomainError(f"{path} entries must be finite")
    return A


def as_vector(x, dim=None) -> np.ndarray:
    """Validate and convert `x` to a finite 1-D float array."""
    v = _real_array(x, "vector")
    if v.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D vector, got shape {v.shape}")
    if dim is not None and v.size != dim:
        raise DimensionMismatch(f"expected dimension {dim}, got {v.size}")
    return v


def as_points(X, dim) -> np.ndarray:
    """Validate and convert `X` to a finite (n, dim) float array, n >= 0."""
    P = _real_array(X, "points")
    if P.ndim != 2 or P.shape[1] != dim:
        raise DimensionMismatch(f"expected an (n, {dim}) array, got shape {P.shape}")
    return P


def row_norms(D) -> np.ndarray:
    """Euclidean norm of each row of D.  np.vecdot reduces each row with the
    BLAS dot kernel, as np.linalg.norm does for one vector, so row i of a
    batch equals the one-row call bit for bit."""
    return np.sqrt(np.vecdot(D, D))


def _rowwise(M, X):
    """M @ x for each row x of X by one gemv per row: a stacked matmul, or
    np.dot on one row, which skips the stack's set-up.  So row i of a batch
    equals the one-row call bit for bit; one matrix product would not."""
    if X.shape[0] == 1:
        return np.dot(M, X[0])[None, :]
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
    rows = np.arange(active.shape[0])[:, None]
    mask = active[rows, order]
    dirs = U[order] if U.ndim == 2 else U[rows, order]
    dirs[~mask] = 0.0
    return dirs, mask


def _one_row_project(self, x):
    """`project` of every catalog set: the one-row call of its
    `_minimizers_many`, x validated once."""
    M, mask, multi, dist = self._minimizers_many(as_vector(x, self.dim)[None, :])
    minimizers = tuple(M[0, mask[0]])
    return ProjectionResult(minimizers[0], minimizers, bool(multi[0]), float(dist[0]))


def _member_tuple(members, owner):
    """`members` as a nonempty tuple of one dimension; errors name `owner`."""
    members = tuple(members)
    if not members:
        raise DomainError(f"{owner} needs at least one member")
    if len({m.dim for m in members}) != 1:
        raise DimensionMismatch(f"{owner} members must share one dimension")
    return members


def _seeded(seed):
    """(seed as an int, its numpy generator), or DomainError unless the seed
    is a nonnegative integer: the one door through which every randomized
    routine seeds numpy."""
    seed = check_count("seed", seed, 0)
    return seed, np.random.default_rng(seed)


def _centered(self, kind, lo_open):
    """Store the checked center, radius and dim of a ball or sphere (`kind`)."""
    c = as_vector(self.center)
    r = check_range(f"{kind} radius", self.radius, 0.0, np.inf, lo_open=lo_open, hi_open=True)
    object.__setattr__(self, "center", c)
    object.__setattr__(self, "radius", r)
    object.__setattr__(self, "dim", c.size)


def _radial(self, X, dist):
    """The point at the radius on the ray from the center through each row of X."""
    return self.center + (self.radius / dist)[:, None] * (X - self.center)


def _dedupe(M, mask, tol=TIE_TOL):
    """The masked points of each row of an (n, k, d) array M less those within
    tol (max-abs) of a point kept before them, moved to a prefix as
    `_prefix_rows` does: a chain a ~ b ~ c with a far from c keeps a and c."""
    M, mask = _prefix_rows(M, mask)
    for j in range(1, M.shape[1]):
        near = np.abs(M[:, :j] - M[:, j, None]).max(axis=2) <= tol
        mask[:, j] &= ~np.any(near & mask[:, :j], axis=1)
    return (M, mask) if M.shape[1] < 2 else _prefix_rows(M, mask)


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
    """Base class for catalog sets; a custom subclass fills in `project`.

    A catalog variant is a frozen dataclass with a `tag` (its config `type`)
    and `about` (its catalog line).  Its config keys are its field names, so
    `to_config` and `set_from_config` need nothing per variant.
    """

    dim: int
    # True only where the set is known to be convex; see the module docstring.
    convex = False

    def project(self, x) -> ProjectionResult:
        raise NotImplementedError

    def distance(self, x) -> float:
        """The one-row call of `_nearest_many`: no minimizer list is built."""
        return float(self._nearest_many(as_vector(x, self.dim)[None, :])[1][0])

    def project_many(self, X) -> np.ndarray:
        """Row i is project(X[i]).canonical, with the same tie rules, for an
        (n, dim) array X."""
        return self._canonical_many(as_points(X, self.dim))

    def distance_many(self, X) -> np.ndarray:
        """Entry i is distance(X[i]), by the same formula, for an (n, dim)
        array X."""
        return self._nearest_many(as_points(X, self.dim))[1]

    def _minimizers_many(self, X):
        """Every minimizer of each row of a validated (n, dim) X: padded
        (n, k, dim) points, the canonical one in slot 0, an (n, k) prefix
        mask, k the longest row, and the (n,) multivalued flags and
        distances.  This default loops over `project` for a custom subclass:
        the canonical point, then the other minimizers in `project`'s order.
        Wrappers call the kernels directly, so X is validated once."""
        results = [self.project(x) for x in X]
        rows = [[r.canonical] + [q for q in r.minimizers if q is not r.canonical]
                for r in results]
        M = np.zeros((X.shape[0], max(map(len, rows), default=1), self.dim))
        mask = np.zeros(M.shape[:2], bool)
        for i, row in enumerate(rows):
            M[i, :len(row)], mask[i, :len(row)] = row, True
        return (M, mask, np.array([r.multivalued for r in results], bool),
                np.array([r.distance for r in results], dtype=float))

    def _nearest_many(self, X):
        """(canonical points, distances) of the rows of a validated X: slot
        0 of `_minimizers_many`.  Sets whose list costs more than their
        canonical point write this kernel too."""
        M, _, _, dist = self._minimizers_many(X)
        return M[:, :1].reshape(X.shape), dist  # k is 0 on an empty batch

    def _canonical_many(self, X):
        """The canonical points of the rows of a validated X, for callers
        that read no distance: by default, `_nearest_many`'s points."""
        return self._nearest_many(X)[0]

    def contains(self, x, tol=MEMBERSHIP_TOL) -> bool:
        return self.distance(x) <= tol

    def normal_generators(self, p) -> list:
        """Unit generators of the proximal normal cone at a member point p,
        as a list of direction vectors in a deterministic order: the one-row
        call of `normal_generators_many`."""
        dirs, mask = self.normal_generators_many(as_vector(p, self.dim)[None, :])
        return list(dirs[0, mask[0]])

    def normal_generators_many(self, P):
        """The normal generators at each row of an (n, dim) array P: padded
        (n, k, dim) directions and an (n, k) mask, k the longest row.  The
        mask is a prefix and the padding is zero.

        Variants with a closed form broadcast it here; this default has
        none, so it raises UnsupportedSet on a nonempty batch.
        """
        if as_points(P, self.dim).shape[0]:
            raise UnsupportedSet(f"{type(self).__name__} has no closed-form normal cone")
        return np.zeros((0, 0, self.dim)), np.zeros((0, 0), bool)

    def _exact_eps(self, w, delta):
        """The exact eps-regularity over B(w, delta), or None when there is
        no closed form.  Every proximal normal u of a convex set at x has
        <u, y - x> <= 0 for every member y, so a convex set reads 0."""
        return 0.0 if self.convex else None

    def _normal_space(self):
        """Orthonormal rows spanning L^perp, L the linear part of an affine
        set, or None when the set is not known to be affine."""
        return None

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


class _SingleValued(ClosedSet):
    """A set with one nearest point everywhere, written in `_canonical_many`:
    the distances ||x - p|| and the one-point lists derive from it.  Such a
    closed set of R^d is convex (Bunt-Motzkin)."""

    convex = True

    def _nearest_many(self, X):
        P = self._canonical_many(X)
        return P, row_norms(X - P)

    def _minimizers_many(self, X):
        P, dist = self._nearest_many(X)
        return P[:, None, :], np.ones((len(X), 1), bool), np.zeros(len(X), bool), dist


# ---------------------------------------------------------------------------
# affine-flavoured variants


@dataclass(frozen=True, eq=False)
class _LinearSet(_SingleValued):
    """Fields and validation shared by halfspaces and hyperplanes."""

    a: np.ndarray
    b: float

    def __post_init__(self):
        a = as_vector(self.a)
        if np.linalg.norm(a) == 0.0:
            raise DomainError(f"{self.tag} normal must be nonzero")
        b = check_range(f"{self.tag} offset b", self.b, -np.inf, np.inf, lo_open=True,
                        hi_open=True)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dim", a.size)


@dataclass(frozen=True, eq=False)
class Halfspace(_LinearSet):
    """{x : <a, x> <= b} with a != 0."""

    tag, about = "halfspace", "{x : <a, x> <= b}, a != 0"

    project = _one_row_project

    def _canonical_many(self, X):
        excess = np.vecdot(X, self.a) - self.b
        out = excess > 0.0
        P = X.copy()
        P[out] = X[out] - (excess[out] / float(self.a @ self.a))[:, None] * self.a
        return P

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

    def _canonical_many(self, X):
        offset = np.vecdot(X, self.a) - self.b
        return X - (offset / float(self.a @ self.a))[:, None] * self.a

    def normal_generators_many(self, P):
        n = as_points(P, self.dim).shape[0]
        u = self.a / float(np.linalg.norm(self.a))
        return _prefix_rows(np.stack([u, -u]), np.ones((n, 2), bool))

    def _normal_space(self):
        return (self.a / float(np.linalg.norm(self.a)))[None, :]

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
class AffineSubspaceSet(_SingleValued):
    """anchor + span(basis rows); basis rows orthonormal, possibly empty."""

    tag, about = "affine", "anchor + span(orthonormal basis rows)"
    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        anchor = as_vector(self.anchor)
        basis = _real_array(self.basis, "basis")
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

    def _canonical_many(self, X):
        coords = _rowwise(self.basis, X - self.anchor)
        return self.anchor + _rowwise(self.basis.T, coords)

    def normal_generators_many(self, P):
        n = as_points(P, self.dim).shape[0]
        comp = _orthonormal_complement(self.basis, self.dim)
        pairs = np.stack([comp, -comp], axis=1).reshape(-1, self.dim)  # u0, -u0, u1, ...
        return _prefix_rows(pairs, np.ones((n, pairs.shape[0]), bool))

    def _normal_space(self):
        return _orthonormal_complement(self.basis, self.dim)

    def hull_points(self, rng):
        return [self.anchor] + [self.anchor + b for b in self.basis]


# ---------------------------------------------------------------------------
# balls, spheres, boxes


@dataclass(frozen=True, eq=False)
class Ball(_SingleValued):
    tag, about = "ball", "closed ball, radius >= 0"
    center: np.ndarray
    radius: float

    def __post_init__(self):
        _centered(self, "ball", lo_open=False)

    project = _one_row_project

    def _canonical_many(self, X):
        dist = row_norms(X - self.center)
        out = dist > self.radius
        P = X.copy()
        P[out] = _radial(self, X[out], dist[out])
        return P

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
        _centered(self, "sphere", lo_open=True)

    project = _one_row_project

    def _minimizers_many(self, X):
        """Every sphere point is nearest to the center, which is multivalued
        and lists its canonical point center + radius * e1 alone."""
        dist = row_norms(X - self.center)
        off = dist > TIE_TOL
        P = np.empty_like(X)
        P[off] = _radial(self, X[off], dist[off])
        P[~off] = self.center
        P[~off, 0] += self.radius
        return (P[:, None, :], np.ones((X.shape[0], 1), bool), ~off,
                np.where(off, row_norms(X - P), self.radius))

    def normal_generators_many(self, P):
        gap = as_points(P, self.dim) - self.center
        rr = row_norms(gap)
        if np.any(rr <= TIE_TOL):
            raise DomainError("sphere normal requested at the center")
        U = gap / rr[:, None]
        return _prefix_rows(np.stack([U, -U], axis=1), np.ones((U.shape[0], 2), bool))

    def _exact_eps(self, w, delta):
        """The normal -(x - c)/r at a member x gives <u, y - x> = ||y - x||^2/(2r)
        for a member y, so eps is the longest chord of the cap over 2r: 1
        once the cap reaches a great sphere (cos phi <= 0), else sin phi =
        sqrt(1 - min(cos phi, 1)^2), where t = ||w - c|| and the cap's
        angular radius phi has cos phi = (r^2 + t^2 - delta^2)/(2rt).  The
        square root takes (2rt)^2 (1 - cos^2 phi) as a product of four
        linear factors, which keeps its digits for a small delta.  In d = 1
        the sphere is two points, and w = c has no cap axis: None."""
        r, t = self.radius, math.dist(w, self.center)
        if self.dim == 1 or t == 0.0:
            return None
        if delta * delta >= r * r + t * t:
            return 1.0
        gap = abs(r - t)
        if delta <= gap:
            return 0.0
        return min(1.0, math.sqrt((delta - gap) * (delta + gap) * (r + t - delta)
                                  * (r + t + delta)) / (2.0 * r * t))

    def hull_points(self, rng):
        if self.center.size == 1:
            return [self.center - self.radius, self.center + self.radius]
        return _full_space_points(self.center)


@dataclass(frozen=True, eq=False)
class Box(_SingleValued):
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

    def _canonical_many(self, X):
        # not np.clip: on a batch with one column it keeps x over an equal
        # bound of the other zero sign, where a single row takes the bound
        return np.minimum(np.maximum(X, self.lower), self.upper)

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
class Orthant(_SingleValued):
    """Sign-pattern orthant {x : s_i * x_i >= 0 for s_i != 0}.

    A sign of 0 leaves the coordinate unconstrained.
    """

    tag, about = "orthant", "sign-constrained orthant, signs in {-1, 0, 1}"
    signs: tuple

    def __post_init__(self):
        signs = tuple(check_whole("orthant sign", s) for s in self.signs)
        if not signs:
            raise DomainError("orthant needs at least one coordinate")
        if any(s not in (-1, 0, 1) for s in signs):
            raise DomainError("orthant signs must be -1, 0 or +1")
        object.__setattr__(self, "signs", signs)
        object.__setattr__(self, "dim", len(signs))

    project = _one_row_project

    def _canonical_many(self, X):
        s = np.array(self.signs, dtype=float)
        return np.where((s != 0.0) & (s * X < 0.0), 0.0, X)

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
        return rays
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
    rays = np.array([r / np.linalg.norm(r) for r in rays if np.linalg.norm(r) > tol])
    rays, kept = _dedupe(rays.reshape(1, -1, d), np.ones((1, len(rays)), bool), tol)
    return list(rays[0, kept[0]])


@dataclass(frozen=True, eq=False)
class PolyhedralCone(_SingleValued):
    """Finitely generated cone {sum t_i g_i : t_i >= 0}.

    The projection of x is G^T c for the nonnegative least-squares solution
    c of min ||G^T c - x|| over c >= 0 (Lawson-Hanson NNLS, one scipy call
    per row), which is exact for any number of generators.
    """

    tag, about = "cone", "finitely generated polyhedral cone, projected by NNLS"
    generators: np.ndarray

    def __post_init__(self):
        g = _real_array(self.generators, "generators")
        if g.ndim != 2 or g.shape[0] == 0:
            raise DimensionMismatch("generators must be a nonempty (k, d) array")
        norms = np.linalg.norm(g, axis=1)
        if np.any(norms == 0.0):
            raise DomainError("zero generator ray")
        object.__setattr__(self, "generators", g)
        object.__setattr__(self, "dim", g.shape[1])

    project = _one_row_project

    def _canonical_many(self, X):
        G, nnls = self.generators.T, _nnls()
        return np.array([G @ nnls(G, x)[0] for x in X]).reshape(X.shape)

    def normal_generators_many(self, P):
        """The normal cone at p is {v in polar(K) : <v, p> = 0}, the face of
        the polar cone that p exposes, so it is generated by the polar rays r
        with |<r, p>| <= 1e-9 ||p||, and at the apex (||p|| <= MEMBERSHIP_TOL)
        by all of them, listed in `polar_generators` order.  The test is
        relative, so p and t p (t > 0) get the same rays."""
        P = as_points(P, self.dim)
        R = np.array(self.polar_generators(), dtype=float).reshape(-1, self.dim)
        norms = row_norms(P)[:, None]
        active = (np.abs(P @ R.T) <= 1e-9 * norms) | (norms <= MEMBERSHIP_TOL)
        return _prefix_rows(R, active)

    def polar_generators(self):
        """Generating unit rays of the polar cone {v : <v, g_i> <= 0}.

        The enumeration decides ranks and signs at fixed cut-offs, which
        near-dependent generators defeat, so every listed ray is checked
        against every unit generator: one that leaves the polar cone by more
        than 1e-9 raises UnsupportedSet."""
        if self.dim > 4:
            raise UnsupportedSet("polar enumeration supports dimension <= 4")
        rays = _inequality_cone_generators(self.generators)
        units = self.generators / row_norms(self.generators)[:, None]
        if rays and np.max(np.array(rays) @ units.T) > 1e-9:
            raise UnsupportedSet("cone generators too close to dependent for the polar "
                                 "enumeration")
        return rays

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
        tau = check_range("enlargement radius", self.tau, 0.0, np.inf, hi_open=True)
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "dim", self.inner.dim)

    project = _one_row_project

    @property
    def convex(self):
        """The inner set's flag: an enlarged convex set is convex, and False
        is the safe answer otherwise."""
        return self.inner.convex

    def _minimizers_many(self, X):
        """A row x outside moves each inner minimizer q by tau towards x,
        to q + (tau / dist) (x - q); a row inside is its own sole minimizer."""
        M, mask, multi, dist = self.inner._minimizers_many(X)
        if self.tau == 0.0:
            return M, mask, multi, dist
        out = dist > self.tau
        Y = np.repeat(X[:, None, :], M.shape[1], axis=1)
        Y[out] = M[out] + (self.tau / dist[out])[:, None, None] * (Y[out] - M[out])
        mask = mask & (out[:, None] | (np.arange(M.shape[1]) == 0))
        return Y, mask, multi & out, np.where(out, dist - self.tau, 0.0)

    def normal_generators_many(self, P):
        """The unit vectors p - q over the inner minimizers q of each
        boundary row p, from one inner `_minimizers_many` call; none at an
        interior row."""
        P = as_points(P, self.dim)
        if self.tau == 0.0:
            return self.inner.normal_generators_many(P)
        Q, active, _, dist = self.inner._minimizers_many(P)
        active = active & ~(dist < self.tau - MEMBERSHIP_TOL)[:, None]
        U = P[:, None, :] - Q
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
        object.__setattr__(self, "members", _member_tuple(self.members, "union"))
        object.__setattr__(self, "dim", self.members[0].dim)

    project = _one_row_project

    def _minimizers_many(self, X):
        """The minimizers of the members within TIE_TOL of the nearest, in
        member order and deduplicated, so the lowest tied member's canonical
        point leads."""
        found = [m._minimizers_many(X) for m in self.members]
        dists = np.stack([dist for *_, dist in found])
        dmin = dists.min(axis=0)
        tied = dists <= dmin + TIE_TOL
        M, mask = _dedupe(np.concatenate([f[0] for f in found], axis=1),
                          np.concatenate([f[1] & t[:, None] for f, t in zip(found, tied)], axis=1))
        multi = np.any([f[2] & t for f, t in zip(found, tied)], axis=0)
        return M, mask, multi | (mask.sum(axis=1) > 1), dmin

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
        pts = _real_array(self.points, "points")
        if pts.ndim != 2 or pts.shape[0] == 0:
            raise DimensionMismatch("points must be a nonempty (n, d) array")
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "dim", pts.shape[1])
        # the point indices in lexicographic order; not a field, so not in to_config
        object.__setattr__(self, "_lex", np.lexsort(pts.T[::-1]))

    project = _one_row_project

    @property
    def convex(self):
        """True when the set holds one distinct point."""
        return bool(np.all(self.points == self.points[0]))

    def _minimizers_many(self, X):
        """The points within TIE_TOL of the nearest, deduplicated in
        lexicographic order, so the canonical (smallest) point leads."""
        dists = self._distances(X)
        dmin = dists.min(axis=1)
        M, mask = _dedupe(np.broadcast_to(self.points[self._lex], (len(X),) + self.points.shape),
                          (dists <= dmin[:, None] + TIE_TOL)[:, self._lex])
        return M, mask, mask.sum(axis=1) > 1, dmin

    def _distances(self, X):
        """(n, k) distances from the rows of a validated X to the k points.
        For real input this is the formula np.linalg.norm(..., axis=2) runs,
        without its dispatch, so the bits are the same."""
        D = self.points - X[:, None, :]
        return np.sqrt(np.add.reduce(D * D, axis=2))

    def _nearest_many(self, X):
        dists = self._distances(X)
        if self._lex.size == 1:  # no ties to break
            return self.points.repeat(X.shape[0], axis=0), dists[:, 0]
        dmin = dists.min(axis=1)
        first = np.argmax((dists <= dmin[:, None] + TIE_TOL)[:, self._lex], axis=1)
        return self.points[self._lex[first]], dmin

    def _exact_eps(self, w, delta):
        """Every unit vector is a proximal normal at an isolated point, so
        eps is 1 when two distinct points lie in B(w, delta), else 0."""
        near = self.points[row_norms(self.points - w) <= delta]
        return 1.0 if np.unique(near, axis=0).shape[0] > 1 else 0.0

    def _normal_space(self):
        """One distinct point is an affine set whose linear part is {0}."""
        return np.eye(self.dim) if self.convex else None

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

    @property
    def convex(self):
        return self.inner.convex

    project = _one_row_project

    def _minimizers_many(self, X):
        M, mask, multi, dist = self.inner._minimizers_many(X - self.shift)
        return M + self.shift, mask, multi, dist

    def normal_generators_many(self, P):
        return self.inner.normal_generators_many(as_points(P, self.dim) - self.shift)

    def _exact_eps(self, w, delta):
        return self.inner._exact_eps(w - self.shift, delta)

    def _normal_space(self):
        return self.inner._normal_space()

    def hull_points(self, rng):
        return [p + self.shift for p in self.inner.hull_points(rng)]


# ---------------------------------------------------------------------------
# module-level functions


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
    at most 1e-12 is dropped.  One vector-matrix product per draw, so row i
    equals the one-row product c_i @ G, normalised, bit for bit."""
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
    samples = check_count("samples", samples, 1)
    cone = _cone_of(s)
    seed, rng = _seeded(seed)
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
    nonempty list of records a tuple of sets; anything else must hold only
    real numbers, and is left to the variant's own validation."""
    if isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
        return tuple(_decode(v, f"{path}[{i}]") for i, v in enumerate(value))
    if not isinstance(value, dict):
        _check_entries(value, path)
        return value
    with at_key(path):
        return set_from_config(value)


def set_from_config(cfg: dict) -> ClosedSet:
    """Build a catalog set from its tagged-record form."""
    cls = table_entry(cfg, SET_TYPES, "set")
    keys = [f.name for f in fields(cls)]
    check_keys(cfg, "", ["type"] + keys, required=keys)
    with at_key(""):  # an enclosing at_key prefixes the record's path
        return cls(**{key: _decode(cfg[key], key) for key in keys})
