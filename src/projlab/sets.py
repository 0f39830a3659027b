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
points, in `_canonical_many`, and the sphere, which lists one point a row,
only `_nearest_many`; their lists derive from these.  The finite point set,
the union and the enlargement also write `_nearest_many`, their canonical
point in one pass over the rows, cheaper than the list; only the translate
reads its points from the list.
Operators and the oracle sweep read points only, through `_canonical_many`,
and `distance` is the one-row call of `_nearest_many`.  A custom subclass
needs only `project`.  No catalog projection shares memory with its input.

Every normal cone is written once.  `_normal_cone(w)` gives the exact cone
at a member w as (lines, rays, reach): orthonormal lineality rows, unit ray
rows, and the distance from w to the nearest face that misses w, or None.
An affine set (hyperplane, affine, one-point set, an oracle of affine
members) gives L^perp with reach inf and writes only this hook, whose lines
the base `normal_generators_many` lists at every row, each as n then -n.
Other sets list their cone, batched, in `normal_generators_many` (a
halfspace's two hooks read one face test; a translate forwards both) or
raise UnsupportedSet.  `normal_generators` is the one-row call.  The
hyperplane and the affine set also give their projection as an affine map
in closed form, `_affine_map`: (P, q) with P_S(x) = P x + q; every other
set gives None.  The affine set's kernel and the operators' maps multiply
by `_rowwise`, one gemv per row, so a one-row call keeps a batch row's bits.

`convex` is True only where the set is known to be convex, and callers may
then use what convexity gives exactly.  The single-valued sets are convex; a
finite point set is when it holds one distinct point, a translate or an
enlargement when its inner set is, and the oracle intersection when its
members are.  Spheres, unions and a custom subclass read False, the safe
answer, unless the subclass sets it.  `approximate` is True where `distance`
may overstate the true one: on the oracle intersection and on a translate,
enlargement or union of one.  Callers use the flags so: eps is exact (0)
on a convex set; `check_injectable` probes only the two ends of each
segment on a convex set that is not approximate, whose distance is a
convex function; and kappa reports `approximate` on its sampled path.
`_exact_eps` gives the exact eps-regularity where the geometry does: 0 on
a convex set, the cap formula on a sphere of dimension 2 or more, 0 or 1
on a finite point set, and None (sample it) elsewhere.  Every set has dim
>= 1, by one rule, `_set_dim`.

The cone's NNLS solver is the compiled Lawson-Hanson routine that
`scipy.optimize.nnls` wraps, called directly with the wrapper's arguments
(the public `nnls` where scipy has no such routine).  `_nnls` imports it on
first use, so `import projlab` does not load scipy.
"""

from __future__ import annotations

import functools
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
# Least norm of a conic mixture of unit rows, relative to its weights.
_MIX_FLOOR = 1e-3


@functools.cache
def _nnls():
    """The NNLS solver (A, b) -> (x, rnorm) of `scipy.optimize.nnls`, imported
    on first use and looked up once.  `scipy.optimize` is most of the time
    `import projlab` takes, and only cone projections and
    `check_strong_regularity` need it, so a caller that projects onto no
    cone never loads it.

    The solver calls the compiled Lawson-Hanson routine that `nnls` wraps,
    with what the wrapper passes it (maxiter = 3 k for k columns) and its
    error on reaching maxiter, so it returns the wrapper's bits without its
    finiteness, shape and deprecation checks, which cost about 6 us a call.
    Both callers pass float64 arrays they have validated, A C-contiguous.
    Where scipy has no such routine, the solver is `nnls` itself."""
    try:
        from scipy.optimize._nnls import _nnls as lawson_hanson
    except ImportError:
        from scipy.optimize import nnls

        return nnls

    def nnls(A, b):
        x, rnorm, info = lawson_hanson(A, b, 3 * A.shape[1])
        if info == 3:
            raise RuntimeError("Maximum number of iterations reached.")
        return x, rnorm

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
    if not np.isfinite(A).all():
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
    """M @ x for each row x of X by a stacked matmul, one gemv per row, so
    row i is np.dot(M, X[i]) bit for bit; a single matrix product would not
    give those bits.  One row, a one-row `project` or `distance` of an
    affine set, takes M.dot(X[0]): the same gemv without the stacked call's
    dispatch."""
    if X.shape[0] == 1:
        return M.dot(X[0])[None, :]
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


def _subspace_cone(lines):
    """The `_normal_cone` answer of a normal cone that is the subspace
    spanned by the orthonormal `lines`: no rays, and every face holds w."""
    return lines, np.zeros((0, lines.shape[1])), np.inf


def _affine_lines(cone):
    """The lines of a `_normal_cone` answer that is a subspace whose faces
    all hold w, as an affine set's is; else None."""
    if cone is None or len(cone[1]) or cone[2] < np.inf:
        return None
    return cone[0]


def _cone_rows(cone):
    """A `_normal_cone`'s generators as rows: each line n as n then -n, then the rays."""
    lines, rays, _ = cone
    return np.vstack([np.stack([lines, -lines], axis=1).reshape(-1, lines.shape[1]), rays])


def _one_row_project(self, x):
    """`project` of every catalog set: the one-row call of its
    `_minimizers_many`, x validated once."""
    M, mask, multi, dist = self._minimizers_many(as_vector(x, self.dim)[None, :])
    minimizers = tuple(M[0, mask[0]])
    return ProjectionResult(minimizers[0], minimizers, bool(multi[0]), float(dist[0]))


def _inner_flag(name):
    """The inner set's flag `name`: a set whose points and distance derive
    from its inner set's is convex, or approximate, when that set is."""
    return property(lambda self: getattr(self.inner, name))


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


def _set_dim(self, dim):
    """Store `dim` on a set being built, or DomainError for dimension 0: the
    one rule that a set lives in R^d with d >= 1."""
    if dim == 0:
        raise DomainError(f"{type(self).__name__} needs dimension at least 1")
    object.__setattr__(self, "dim", dim)


def _centered(self, kind, lo_open):
    """Store the checked center, radius and dim of a ball or sphere (`kind`)."""
    c = as_vector(self.center)
    r = check_range(f"{kind} radius", self.radius, 0.0, np.inf, lo_open=lo_open, hi_open=True)
    object.__setattr__(self, "center", c)
    object.__setattr__(self, "radius", r)
    _set_dim(self, c.size)


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
    # True where known convex, and where `distance` may overstate; see the module docstring
    convex = approximate = False

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
        0 of `_minimizers_many`, which this default reads.  Every catalog
        set but the translate writes or derives its own, which builds no
        list."""
        M, _, _, dist = self._minimizers_many(X)
        return M[:, :1].reshape(X.shape), dist  # k is 0 on an empty batch

    def _canonical_many(self, X):
        """The canonical points of the rows of a validated X, for callers
        that read no distance: by default, `_nearest_many`'s points."""
        return self._nearest_many(X)[0]

    def _point(self, x):
        """The canonical point of one validated 1-D x, the per-step path's
        call: by default the one-row call of `_canonical_many`, so a set
        that writes its own keeps that row's bits."""
        return self._canonical_many(x[None, :])[0]

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

        This default reads `_normal_cone` at the first row: a subspace whose
        faces all hold it is an affine set's cone, the same at every member,
        listed at every row.  Anything else raises UnsupportedSet.
        """
        P = as_points(P, self.dim)
        cone = self._normal_cone(P[0]) if len(P) else _subspace_cone(np.zeros((0, self.dim)))
        if _affine_lines(cone) is None:
            raise UnsupportedSet(f"{type(self).__name__} has no closed-form normal cone")
        rows = _cone_rows(cone)
        return _prefix_rows(rows, np.ones((len(P), len(rows)), bool))

    def _exact_eps(self, w, delta):
        """The exact eps-regularity over B(w, delta), or None when there is
        no closed form.  Every proximal normal u of a convex set at x has
        <u, y - x> <= 0 for every member y, so a convex set reads 0."""
        return 0.0 if self.convex else None

    def _normal_cone(self, w):
        """The normal cone at a member w as (lines, rays, reach): orthonormal
        rows spanning its lineality space, unit rows of its other
        generators, and the least distance from w to a face that does not
        hold w (inf when every face holds it).  None when the set gives no
        exact cone."""
        return None

    def _affine_map(self):
        """(P, q) with P_S(x) = P x + q for every x, in closed form, where the
        projection is an affine map; None when the set gives none."""
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
        with np.errstate(over="ignore", under="ignore"):
            aa = float(a @ a)
        # every projection divides by it: zero, subnormal or inf gives wrong steps
        aa = check_range(f"{self.tag} squared normal norm", aa, np.finfo(float).tiny, np.inf,
                         hi_open=True)
        b = check_range(f"{self.tag} offset b", self.b, -np.inf, np.inf, lo_open=True,
                        hi_open=True)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        _set_dim(self, a.size)
        object.__setattr__(self, "_aa", aa)  # ||a||^2; not a field


@dataclass(frozen=True, eq=False)
class Halfspace(_LinearSet):
    """{x : <a, x> <= b} with a != 0."""

    tag, about = "halfspace", "{x : <a, x> <= b}, a != 0"

    project = _one_row_project

    def _canonical_many(self, X):
        excess = np.vecdot(X, self.a) - self.b
        out = excess > 0.0
        P = X.copy()
        P[out] = X[out] - (excess[out] / self._aa)[:, None] * self.a
        return P

    def _face(self, excess):
        """(||a||, whether excess <a, p> - b puts p on the boundary): both hooks' test."""
        na = float(np.linalg.norm(self.a))
        return na, excess >= -MEMBERSHIP_TOL * max(1.0, na)

    def normal_generators_many(self, P):
        na, face = self._face(np.vecdot(as_points(P, self.dim), self.a) - self.b)
        return _prefix_rows((self.a / na)[None, :], face[:, None])

    def _normal_cone(self, w):
        """A ray on the boundary; inside, {0}, reaching to the boundary."""
        excess = float(np.dot(w, self.a)) - self.b
        na, face = self._face(excess)
        none = np.zeros((0, self.dim))
        return (none, (self.a / na)[None, :], np.inf) if face else (none, none, -excess / na)

    def hull_points(self, rng):
        return _full_space_points(self.a * (self.b / self._aa))


@dataclass(frozen=True, eq=False)
class Hyperplane(_LinearSet):
    """{x : <a, x> = b} with a != 0."""

    tag, about = "hyperplane", "{x : <a, x> = b}, a != 0"

    project = _one_row_project

    def _canonical_many(self, X):
        offset = np.vecdot(X, self.a) - self.b
        return X - (offset / self._aa)[:, None] * self.a

    def _normal_cone(self, w):
        return _subspace_cone((self.a / float(np.linalg.norm(self.a)))[None, :])

    def _affine_map(self):
        """P = I - a a^T / ||a||^2 and q = (b / ||a||^2) a."""
        return np.eye(self.dim) - np.outer(self.a, self.a) / self._aa, (self.b / self._aa) * self.a

    def hull_points(self, rng):
        a, aa = self.a, self._aa
        anchor = a * (self.b / aa)
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
        object.__setattr__(self, "_bt", basis.T)  # B^T, read per row; not a field
        _set_dim(self, anchor.size)

    @property
    def subspace_dim(self) -> int:
        return self.basis.shape[0]

    project = _one_row_project

    def _canonical_many(self, X):
        """anchor + B^T B (x - anchor), each product by `_rowwise`."""
        coords = _rowwise(self.basis, X - self.anchor)
        return self.anchor + _rowwise(self._bt, coords)

    def _normal_cone(self, w):
        return _subspace_cone(_orthonormal_complement(self.basis, self.dim))

    def _affine_map(self):
        """P = B^T B and q = anchor - P anchor."""
        P = self._bt.dot(self.basis)
        return P, self.anchor - P.dot(self.anchor)

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

    def _nearest_many(self, X):
        """The radial point of every row in one pass, the divisor 1 at a
        center row, whose point is then center + radius * e1."""
        dist = row_norms(X - self.center)
        off = dist > TIE_TOL
        P = _radial(self, X, np.where(off, dist, 1.0))
        if not off.all():  # the two gathers cost more than the rest on a few rows
            P[~off] = self.center
            P[~off, 0] += self.radius
        return P, np.where(off, row_norms(X - P), self.radius)

    def _minimizers_many(self, X):
        """Every sphere point is nearest to the center, which is multivalued
        and lists its canonical point alone."""
        P, dist = self._nearest_many(X)
        return (P[:, None, :], np.ones((X.shape[0], 1), bool),
                row_norms(X - self.center) <= TIE_TOL, dist)

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
        _set_dim(self, lo.size)

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
        if any(s not in (-1, 0, 1) for s in signs):
            raise DomainError("orthant signs must be -1, 0 or +1")
        object.__setattr__(self, "signs", signs)
        _set_dim(self, len(signs))

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
    """Generating unit rays of {v : M v <= 0}, including +/- lineality basis,
    for a (k, d) M whose longest row lies in [0.5, 1), as `polar_generators`
    scales a cone's validated generators, so M has rank at least 1.

    Subset enumeration of active constraints; intended for desk-scale cones
    (dimension <= 4, a handful of rows).
    """
    tol = 1e-9
    M = np.asarray(M, dtype=float)
    d = M.shape[1]
    vt, rank = svd_rank(M, tol)
    lin = vt[rank:]  # the lineality space, null(M)
    rays = [row for b in lin for row in (b, -b)]
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
    c of min ||G^T c - x|| over c >= 0 (Lawson-Hanson NNLS, one call of the
    compiled solver per row, on G^T stored C-contiguous once), which is
    exact for any number of generators.
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
        object.__setattr__(self, "_gt", np.ascontiguousarray(g.T))  # NNLS's A; not a field
        _set_dim(self, g.shape[1])

    project = _one_row_project

    def _canonical_many(self, X):
        # the product keeps the strided G^T it has always used: a C-ordered
        # one takes another BLAS kernel, whose sums round differently.  The
        # loop repeats `_point`'s expression, as a call a row costs more
        G, A, nnls = self.generators.T, self._gt, _nnls()
        P = np.empty(X.shape)
        for i, x in enumerate(X):
            P[i] = G @ nnls(A, x)[0]
        return P

    def _point(self, x):
        # G @ c, not G.dot(c): at d = 1 the two differ in the sign of a zero
        return self.generators.T @ _nnls()(self._gt, x)[0]

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
        than 1e-9 raises UnsupportedSet.  The cut-offs are absolute, so the
        generators are first scaled by the power of two that brings the
        longest into [0.5, 1), exactly where no entry underflows: a cone's
        rays do not depend on its scale."""
        if self.dim > 4:
            raise UnsupportedSet("polar enumeration supports dimension <= 4")
        g = self.generators
        rays = _inequality_cone_generators(np.ldexp(g, -np.frexp(row_norms(g).max())[1]))
        units = g / row_norms(g)[:, None]
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
        _set_dim(self, self.inner.dim)

    project = _one_row_project

    convex, approximate = _inner_flag("convex"), _inner_flag("approximate")

    def _nearest_many(self, X):
        """The inner set's canonical point q moved by tau towards each row
        x outside, in one pass over every row; a row inside, its own
        nearest point, divides by tau, a ratio of 1, where a divisor of 1
        could overflow tau (x - q)."""
        Q, dist = self.inner._nearest_many(X)
        if self.tau == 0.0:
            return Q, dist
        out = dist > self.tau
        moved = Q + (self.tau / np.where(out, dist, self.tau))[:, None] * (X - Q)
        return np.where(out[:, None], moved, X), np.where(out, dist - self.tau, 0.0)

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
        _set_dim(self, self.members[0].dim)

    approximate = property(lambda self: any(m.approximate for m in self.members))
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
        _set_dim(self, pts.shape[1])
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

    def _normal_cone(self, w):
        """One distinct point is an affine set whose normal cone is R^d."""
        return _subspace_cone(np.eye(self.dim)) if self.convex else None

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
        _set_dim(self, self.inner.dim)

    convex, approximate = _inner_flag("convex"), _inner_flag("approximate")
    project = _one_row_project

    def _minimizers_many(self, X):
        M, mask, multi, dist = self.inner._minimizers_many(X - self.shift)
        return M + self.shift, mask, multi, dist

    def normal_generators_many(self, P):
        return self.inner.normal_generators_many(as_points(P, self.dim) - self.shift)

    def _exact_eps(self, w, delta):
        return self.inner._exact_eps(w - self.shift, delta)

    def _normal_cone(self, w):
        return self.inner._normal_cone(w - self.shift)

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
    unit rows of G, c uniform in [0, 1)^k, in draw order.  A combination of
    norm at most _MIX_FLOOR * sum(c) is dropped: its terms cancel, and its
    direction would carry their rounding divided by that ratio.  One
    vector-matrix product per draw, so row i equals the one-row product
    c_i @ G, normalised, bit for bit."""
    coeffs = rng.random((samples, G.shape[0]))
    mixed = np.matmul(coeffs[:, None, :], G)[:, 0, :]
    n = row_norms(mixed)
    keep = n > _MIX_FLOOR * coeffs.sum(axis=1)
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
