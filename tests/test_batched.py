"""Batched oracles: project_many, distance_many and apply_many agree row by
row with the scalar project, distance and apply, tie rules included, and
with independent per-point formulas; malformed points and batches raise,
and no projection shares memory with its input."""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

import projlab as P
from projlab import DimensionMismatch, DomainError, UnsupportedSet, analysis, intersection
from projlab.analysis import margin_report
from projlab.sets import TIE_TOL, ProjectionResult

from conftest import FormulaHyperplane, affine_step_bound, given_draws, single_point, underflows

TOL = 1e-12
COORD = st.floats(-4.0, 4.0, allow_nan=False, allow_subnormal=False)


def vectors(d, elements=COORD):
    return arrays(float, d, elements=elements)


def batches(d, extra=()):
    """(n, d) arrays of random rows followed by the rows in `extra`."""
    return arrays(float, st.tuples(st.integers(0, 12), st.just(d)), elements=COORD).map(
        lambda X: np.vstack([X] + [np.reshape(e, (1, d)) for e in extra]))


def nonzero(d):
    return vectors(d).filter(lambda a: np.linalg.norm(a) > 1e-3)


def _orthonormal_rows(seed, d, k):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q[:k].copy()


@st.composite
def halfspace_case(draw):
    d = draw(st.integers(1, 4))
    return P.Halfspace(draw(nonzero(d)), draw(COORD)), draw(batches(d))


@st.composite
def hyperplane_case(draw):
    d = draw(st.integers(1, 4))
    return P.Hyperplane(draw(nonzero(d)), draw(COORD)), draw(batches(d))


@st.composite
def affine_case(draw):
    d = draw(st.integers(1, 4))
    basis = _orthonormal_rows(draw(st.integers(0, 2**16)), d, draw(st.integers(0, d)))
    return P.AffineSubspaceSet(draw(vectors(d)), basis), draw(batches(d))


@st.composite
def ball_case(draw):
    d = draw(st.integers(1, 4))
    center = draw(vectors(d))
    return P.Ball(center, draw(st.floats(0.0, 3.0))), draw(batches(d, [center]))


@st.composite
def sphere_case(draw):
    """Includes the center, where every sphere point is nearest."""
    d = draw(st.integers(1, 4))
    center = draw(vectors(d))
    return P.Sphere(center, draw(st.floats(0.1, 3.0))), draw(batches(d, [center]))


@st.composite
def box_case(draw):
    d = draw(st.integers(1, 4))
    a, b = draw(vectors(d)), draw(vectors(d))
    return P.Box(np.minimum(a, b), np.maximum(a, b)), draw(batches(d))


@st.composite
def orthant_case(draw):
    d = draw(st.integers(1, 4))
    signs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=d, max_size=d))
    return P.Orthant(tuple(signs)), draw(batches(d, [np.zeros(d)]))


@st.composite
def cone_case(draw):
    d = draw(st.integers(1, 4))
    gens = draw(st.lists(nonzero(d), min_size=1, max_size=6))
    return P.PolyhedralCone(np.array(gens)), draw(batches(d, [np.zeros(d)]))


@st.composite
def finite_points_case(draw):
    """Includes the midpoint of two points, a tie between them."""
    d = draw(st.integers(1, 4))
    pts = np.array(draw(st.lists(vectors(d), min_size=1, max_size=5)))
    mid = draw(vectors(d))
    pts = np.vstack([pts, mid + 1.0, mid - 1.0])
    return P.FinitePointSet(pts), draw(batches(d, [mid]))


@st.composite
def enlargement_case(draw):
    """tau = 0 included: the enlargement is then its inner set.  Sphere,
    finite-point and union inners bring their tie rules."""
    inner, X = draw(st.one_of(ball_case(), box_case(), finite_points_case(), halfspace_case(),
                              sphere_case(), union_case()))
    tau = draw(st.one_of(st.just(0.0), st.floats(0.0, 2.0)))
    return P.Enlargement(inner, tau), X


@st.composite
def union_case(draw):
    """Two mirrored balls tie at the origin, which must go to member 0."""
    d = draw(st.integers(1, 4))
    c = draw(nonzero(d))
    r = draw(st.floats(0.0, 0.5))
    members = [P.Ball(c, r), P.Ball(-c, r)]
    if draw(st.booleans()):
        members.append(P.Hyperplane(draw(nonzero(d)), draw(COORD)))
    return P.UnionOfSets(tuple(members)), draw(batches(d, [np.zeros(d)]))


@st.composite
def translate_case(draw):
    inner, X = draw(st.one_of(orthant_case(), sphere_case(), union_case()))
    return P.Translate(inner, draw(vectors(inner.dim))), X


CASES = {
    "halfspace": halfspace_case(), "hyperplane": hyperplane_case(),
    "affine": affine_case(), "ball": ball_case(), "sphere": sphere_case(),
    "box": box_case(), "orthant": orthant_case(), "cone": cone_case(),
    "enlargement": enlargement_case(), "union": union_case(),
    "finite_points": finite_points_case(), "translate": translate_case(),
}


def test_cases_cover_every_set_type():
    assert sorted(CASES) == sorted(P.sets.SET_TYPES)


# ---------------------------------------------------------------------------
# per-point projection references, independent of the batched kernels that
# every catalog `project` now calls: the scalar formulas those kernels replaced


def _dedupe_reference(points, tol=TIE_TOL):
    """Each point unless within tol (max-abs) of a point kept before it."""
    out = []
    for p in points:
        if not any(np.max(np.abs(p - q)) <= tol for q in out):
            out.append(p)
    return out


def _single_reference(x, p):
    p = np.asarray(p, dtype=float)
    return ProjectionResult(p, (p,), False, float(np.linalg.norm(x - p)))


def _halfspace_reference(s, x):
    excess = float(s.a @ x - s.b)
    return _single_reference(x, x if excess <= 0.0 else x - (excess / float(s.a @ s.a)) * s.a)


def _orthant_reference(s, x):
    p = x.copy()
    for i, sign in enumerate(s.signs):
        if sign != 0 and sign * p[i] < 0.0:
            p[i] = 0.0
    return _single_reference(x, p)


def _ball_reference(s, x):
    gap = x - s.center
    dist = float(np.linalg.norm(gap))
    return _single_reference(x, x if dist <= s.radius else s.center + (s.radius / dist) * gap)


def _sphere_reference(s, x):
    gap = x - s.center
    dist = float(np.linalg.norm(gap))
    if dist <= TIE_TOL:
        # every sphere point minimizes; canonical ray is +e1
        canon = s.center.copy()
        canon[0] += s.radius
        return ProjectionResult(canon, (canon,), True, s.radius)
    return _single_reference(x, s.center + (s.radius / dist) * gap)


def _cone_reference(s, x):
    coeff, _ = nnls(s.generators.T, x)
    return _single_reference(x, s.generators.T @ coeff)


def _finite_points_reference(s, x):
    dists = np.linalg.norm(s.points - x, axis=1)
    dmin = float(dists.min())
    near = s.points[np.flatnonzero(dists <= dmin + TIE_TOL)]
    # deduped in lexicographic order, so the canonical (smallest) point leads
    tied = _dedupe_reference([q.copy() for q in sorted(near, key=tuple)])
    return ProjectionResult(tied[0], tuple(tied), len(tied) > 1, dmin)


def _union_reference(s, x):
    results = [_project_reference(m, x) for m in s.members]
    dmin = min(r.distance for r in results)
    tied = [r for r in results if r.distance <= dmin + TIE_TOL]
    minimizers = _dedupe_reference([q for r in tied for q in r.minimizers])
    multi = len(minimizers) > 1 or any(r.multivalued for r in tied)
    return ProjectionResult(tied[0].canonical, tuple(minimizers), multi, dmin)


def _enlargement_reference(s, x):
    res = _project_reference(s.inner, x)
    if s.tau == 0.0:
        return res
    if res.distance <= s.tau:
        return _single_reference(x, x.copy())
    scale = s.tau / res.distance
    mapped = tuple(q + scale * (x - q) for q in res.minimizers)
    canon = res.canonical + scale * (x - res.canonical)
    return ProjectionResult(canon, mapped, res.multivalued, res.distance - s.tau)


def _translate_reference(s, x):
    res = _project_reference(s.inner, x - s.shift)
    mapped = tuple(q + s.shift for q in res.minimizers)
    return ProjectionResult(res.canonical + s.shift, mapped, res.multivalued, res.distance)


PROJECT_REFERENCES = {
    "halfspace": _halfspace_reference,
    "hyperplane": lambda s, x: _single_reference(
        x, x - (float(s.a @ x - s.b) / float(s.a @ s.a)) * s.a),
    "affine": lambda s, x: _single_reference(x, s.anchor + s.basis.T @ (s.basis @ (x - s.anchor))),
    "ball": _ball_reference, "sphere": _sphere_reference,
    "box": lambda s, x: _single_reference(x, np.clip(x, s.lower, s.upper)),
    "orthant": _orthant_reference, "cone": _cone_reference,
    "finite_points": _finite_points_reference, "union": _union_reference,
    "enlargement": _enlargement_reference, "translate": _translate_reference,
}


def _project_reference(s, x):
    """The per-point ProjectionResult of a catalog set, nested sets by their
    own references; a custom set's own `project`."""
    reference = PROJECT_REFERENCES.get(getattr(s, "tag", None))
    return s.project(x) if reference is None else reference(s, x)


def _same_result(got, want):
    """Every ProjectionResult field bit for bit, the minimizers in order,
    the flag a bool and the distance a float."""
    return (_same_bits(got.canonical, want.canonical)
            and len(got.minimizers) == len(want.minimizers)
            and all(_same_bits(a, b) for a, b in zip(got.minimizers, want.minimizers))
            and type(got.multivalued) is bool and got.multivalued == want.multivalued
            and type(got.distance) is float and _same_bits(got.distance, want.distance))


class _PointPair(P.ClosedSet):
    """A custom multivalued set that defines only `project`: the points
    +e1 and -e1 of R^d, both listed where they tie, +e1 first."""

    def __init__(self, dim):
        self.dim = dim

    def project(self, x):
        x = P.sets.as_vector(x, self.dim)
        pts = [np.eye(self.dim)[0], -np.eye(self.dim)[0]]
        dists = [float(np.linalg.norm(x - p)) for p in pts]
        tied = tuple(p for p, dist in zip(pts, dists) if dist <= min(dists) + TIE_TOL)
        return ProjectionResult(tied[0], tied, len(tied) > 1, min(dists))


@st.composite
def custom_case(draw):
    """`_PointPair` alone and inside an enlargement, a translate and a union
    that lists -e1 twice; the rows include a tie of its two points."""
    d = draw(st.integers(1, 4))
    pair, tie = _PointPair(d), draw(vectors(d))
    tie[0] = 0.0
    wrap = draw(st.sampled_from(["bare", "enlargement", "translate", "union"]))
    if wrap == "enlargement":
        return P.Enlargement(pair, draw(st.floats(0.0, 2.0))), draw(batches(d, [tie]))
    if wrap == "translate":
        shift = draw(vectors(d))
        return P.Translate(pair, shift), draw(batches(d, [tie + shift]))
    if wrap == "union":
        return P.UnionOfSets((pair, P.FinitePointSet(-np.eye(d)[:1]))), draw(batches(d, [tie]))
    return pair, draw(batches(d, [tie]))


@pytest.mark.parametrize("tag", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_oracles_match_scalar(tag, data):
    """Bit for bit, for every type: row i of project_many and distance_many,
    and distance(x), give the reference's canonical point and distance."""
    s, X = data.draw(CASES[tag])
    assert type(s).tag == tag
    P_many, D_many = s.project_many(X), s.distance_many(X)
    assert P_many.shape == X.shape and D_many.shape == (X.shape[0],)
    for x, p, dist in zip(X, P_many, D_many):
        ref = _project_reference(s, x)
        assert _same_bits(p, ref.canonical) and _same_bits(dist, ref.distance)
        assert _same_bits(s.distance(x), ref.distance)


@pytest.mark.parametrize("tag", sorted(CASES) + ["custom"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_project_matches_the_reference_bit_for_bit(tag, data):
    """Every field of project(x): the canonical point, each listed minimizer
    and their order, the flag and the distance, for every type and for a
    custom multivalued set inside the wrapping types."""
    s, X = data.draw(custom_case() if tag == "custom" else CASES[tag])
    for x in X:
        got = s.project(x)
        assert _same_result(got, _project_reference(s, x))
        assert got.minimizers[0] is got.canonical


def _assert_one_point_seam(s, X, lam):
    """`_point(x)`, the one-point kernel of `run`'s per-step path, is the
    one-row call of `_canonical_many` byte for byte, signed zeros included;
    and `run` on relaxed projectors onto s and onto a ball, which it steps
    point by point, gives the rows of chained `apply` calls."""
    for x in X:
        assert s._point(x).tobytes() == s._canonical_many(x[None, :])[0].tobytes()
    ops = [P.RelaxedProjector(s, lam), P.RelaxedProjector(P.Ball(np.zeros(s.dim), 1.0), 1.0)]
    far = P.FinitePointSet(np.full((1, s.dim), 100.0))  # never reached: 6 cycles
    for x0 in X[:3]:
        traj = P.run(ops, x0, [s], far, max_cycles=6)
        assert traj.stop_reason == "Budget" and traj.n_points == 13
        x = x0
        for j, row in enumerate(traj.points[1:]):
            x = ops[j % 2].apply(x)
            assert row.tobytes() == x.tobytes()


@pytest.mark.parametrize("tag", sorted(CASES) + ["custom"])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_point_is_the_one_row_call_of_canonical_many(tag, data):
    """For every set type and a custom subclass inside the wrapping types."""
    s, X = data.draw(custom_case() if tag == "custom" else CASES[tag])
    _assert_one_point_seam(s, X, data.draw(st.floats(0.01, 2.0)))


def test_the_line_cone_keeps_the_apex_sign_on_the_one_point_path():
    """The cone of R^1 spanned by -1 sends every x >= 0 to its apex, which
    G @ c reads as 0.0 and G.dot(c) as -0.0: every path reads 0.0."""
    cone = P.PolyhedralCone(np.array([[-1.0]]))
    X = np.array([[0.0], [-0.0], [1.0], [-1.0]])
    _assert_one_point_seam(cone, X, 1.0)
    for x, want in zip(X, [0.0, 0.0, 0.0, -1.0]):
        assert cone._point(x).tobytes() == np.array([want]).tobytes()


@pytest.mark.parametrize("d", [1, 3])
def test_box_takes_an_equal_bound_of_the_other_zero_sign(d):
    """A coordinate equal to a bound of the other zero sign goes to the
    bound, as `np.clip` does on one row; the one-column batch included."""
    zero, neg = np.zeros(d), np.full(d, -0.0)
    for lower, upper, x in ((neg, neg, zero), (zero, zero, neg), (neg, zero + 1.0, zero)):
        s, X = P.Box(lower, upper), np.vstack([x, x])
        ref = np.clip(x, lower, upper)
        assert _same_bits(s.project(x).canonical, ref)
        assert all(_same_bits(p, ref) for p in s.project_many(X))


def _scaled_rows(rng, n, d):
    """n normal rows of R^d, each scaled by 10^u, u uniform in [-6, 6]."""
    return rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-6, 6, (n, 1))


@pytest.mark.parametrize("d", range(2, 17))
def test_one_row_rowwise_is_the_stacked_product_bit_for_bit(d):
    """`_rowwise` on a one-row slice, the call a run's step makes, gives
    row i of its 20-row stacked matmul and np.dot(M, X[i]) bit for bit,
    with the C-ordered basis and its F-ordered transpose."""
    rng = np.random.default_rng(d)
    for k in sorted({1, d // 2, d}):
        basis = _orthonormal_rows(d, d, k)
        for M in (basis, basis.T):
            X = _scaled_rows(rng, 20, M.shape[1])
            stacked = P.sets._rowwise(M, X)
            assert _same_bits(stacked, np.matmul(M, X[:, :, None])[:, :, 0])
            for i in range(X.shape[0]):
                one = P.sets._rowwise(M, X[i:i + 1])
                assert one.shape == (1, M.shape[0])
                assert _same_bits(one, stacked[i:i + 1])
                assert _same_bits(one[0], np.dot(M, X[i]))


@pytest.mark.parametrize("d", range(2, 17))
def test_affine_one_row_kernel_is_a_stacked_row_bit_for_bit(d):
    """The affine kernel's one-row call, which `project`, `apply` and
    `runner.run` take, equals row i of a stacked batch bit for bit, at
    every subspace dimension from the point to the whole space, with a
    nonzero anchor and rows across twelve decades."""
    rng = np.random.default_rng(100 + d)
    for k in sorted({0, 1, d // 2, d}):
        s = P.AffineSubspaceSet(_scaled_rows(rng, 1, d)[0], _orthonormal_rows(d, d, k))
        X = _scaled_rows(rng, 20, d)
        stacked = s._canonical_many(X)
        for i in range(X.shape[0]):
            assert _same_bits(s._canonical_many(X[i:i + 1]), stacked[i:i + 1])
            assert _same_bits(s.project(X[i]).canonical, stacked[i])


def test_reference_covers_the_one_row_projections():
    """Every catalog `project` is the one-row call of the batched minimizer
    list, and every type has its own per-point reference."""
    one_row = {tag for tag, cls in P.sets.SET_TYPES.items()
               if cls.__dict__["project"] is P.sets._one_row_project}
    assert one_row == set(PROJECT_REFERENCES) == set(P.sets.SET_TYPES)
    for s in ONE_OF_EACH:
        x = np.full(s.dim, 3.0)
        assert _same_result(s.project(x), PROJECT_REFERENCES[s.tag](s, x))


def _enlargement_normals_reference(s, p):
    """The per-point enlargement normal cone that normal_generators_many
    replaced: the unit vectors p - q over the minimizers q that the inner
    `project` lists, none in the interior."""
    if s.tau == 0.0:
        return _scalar_normals(s.inner, p)
    res = s.inner.project(p)
    if res.distance < s.tau - P.sets.MEMBERSHIP_TOL:
        return []
    out = []
    for q in res.minimizers:
        u = p - q
        nu = float(np.linalg.norm(u))
        if nu > 1e-12:
            out.append(u / nu)
    return out


def _scalar_normals(s, p):
    """normal_generators(p); an enlargement's by its per-point reference."""
    if isinstance(s, P.Enlargement):
        return _enlargement_normals_reference(s, p)
    return s.normal_generators(p)


def _rows_match_scalar(s, X):
    """normal_generators_many(X) against the per-point normals of each row:
    same directions, bit for bit, in the same order, a prefix mask, zero
    padding and k the longest row."""
    dirs, mask = s.normal_generators_many(X)
    rows = [_scalar_normals(s, x) for x in X]
    k = max(map(len, rows), default=0)
    assert dirs.shape == (X.shape[0], k, s.dim) and mask.shape == (X.shape[0], k)
    for row, got, live in zip(rows, dirs, mask):
        assert np.array_equal(live, np.arange(k) < len(row))
        assert np.array_equal(got[:len(row)].view(np.int64),
                              np.reshape(row, (-1, s.dim)).view(np.int64))
        assert not got[len(row):].any()


@pytest.mark.parametrize("tag", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_normals_match_scalar(tag, data):
    """At member points (interior, face and corner points: the projections
    of the drawn rows), for every set type."""
    s, X = data.draw(CASES[tag])
    members = s.project_many(X)
    try:
        [_scalar_normals(s, x) for x in members]
    except UnsupportedSet:
        if members.shape[0]:
            with pytest.raises(UnsupportedSet):
                s.normal_generators_many(members)
        return
    _rows_match_scalar(s, members)


def _cone_normals_reference(s, p):
    """The per-point cone normal enumeration that the masked polar rays
    replaced: the generating rays of {v : <g, v> <= 0 for each generator g,
    <p, v> = 0}, with the p rows left out at the apex."""
    rows = [s.generators]
    if np.linalg.norm(p) > P.sets.MEMBERSHIP_TOL:
        rows += [p[None, :], -p[None, :]]
    return P.sets._inequality_cone_generators(np.vstack(rows))


def _in_cone_of(A, B):
    """Every row of A lies in the cone of the rows of B (nnls residual at
    most 1e-7); only the empty list lies in the cone of the empty list."""
    if not len(B):
        return not len(A)
    return all(nnls(B.T, a)[1] <= 1e-7 for a in A)


def _rank_decided(M):
    """Whether every set of 2 to d rows of the (m, d) array M has its
    smallest singular value below 1e-13 or above 1e-6 of its largest, so
    that no rank either enumeration takes lies near its 1e-9 cut-offs."""
    for k in range(2, M.shape[1] + 1):
        subsets = list(itertools.combinations(range(M.shape[0]), k))
        if subsets:
            sv = np.linalg.svd(M[np.array(subsets)], compute_uv=False)
            if np.any((sv[:, -1] > 1e-13 * sv[:, 0]) & (sv[:, -1] < 1e-6 * sv[:, 0])):
                return False
    return True


@settings(max_examples=60, deadline=None)
@given(case=cone_case())
def test_cone_normals_match_the_face_enumeration(case):
    """At the projections of the drawn rows, apex included, d = 1-4.  Where
    the generators have rank d the polar cone is pointed, so its face at p
    has unique unit rays and both lists hold the same ones.  Otherwise the
    two enumerations may choose different bases of the polar's lineality
    space, and each list lies in the cone of the other.

    Both enumerations decide ranks and signs at fixed cut-offs near 1e-9,
    so they are compared where the answer does not hang on those cut-offs:
    generators whose row sets are clearly of full rank or clearly not, and
    points p that are the apex or whose rows with the generators are so,
    with every polar ray either orthogonal to p or clearly not."""
    s, X = case
    assume(_rank_decided(s.generators))
    full_rank = P.sets.svd_rank(s.generators, 1e-9)[1] == s.dim
    polar = np.reshape(s.polar_generators(), (-1, s.dim))
    for p in s.project_many(X):
        products = np.abs(polar @ p)
        if np.linalg.norm(p) > P.sets.MEMBERSHIP_TOL and (
                not _rank_decided(np.vstack([s.generators, p]))
                or np.any((products > 1e-12) & (products < 1e-7))):
            continue
        got = np.reshape(s.normal_generators(p), (-1, s.dim))
        want = np.reshape(_cone_normals_reference(s, p), (-1, s.dim))
        if full_rank:
            close = np.abs(got[:, None, :] - want[None, :, :]).max(axis=2, initial=0.0) <= 1e-9
            assert got.shape == want.shape
            assert close.any(axis=0).all() and close.any(axis=1).all()
        else:
            assert _in_cone_of(got, want) and _in_cone_of(want, got)


ONE_OF_EACH = [
    P.Halfspace(np.array([1.0, 2.0]), 1.0), P.Hyperplane(np.array([0.0, 3.0]), 1.0),
    P.AffineSubspaceSet(np.zeros(3), np.eye(3)[:1]), P.Ball(np.zeros(2), 1.0),
    P.Sphere(np.zeros(2), 1.0), P.Box(-np.ones(2), np.ones(2)), P.Orthant((1, 0)),
    P.PolyhedralCone(np.eye(2)), P.Enlargement(P.Ball(np.zeros(2), 1.0), 0.5),
    P.UnionOfSets((P.Ball(np.zeros(2), 1.0),)), P.FinitePointSet(np.eye(2)),
    P.Translate(P.Box(-np.ones(2), np.ones(2)), np.ones(2)),
]


class TestBatchedNormals:
    def test_box_interior_face_and_corner_in_16d(self):
        s = P.Box(-np.ones(16), np.ones(16))
        interior = np.random.default_rng(5).uniform(-0.5, 0.5, (3, 16))
        face = interior.copy()
        face[:, [0, 5, 11]] = [1.0, -1.0, 1.0]
        X = np.vstack([interior, face, np.tile([1.0, -1.0], 8)])
        _rows_match_scalar(s, X)
        assert s.normal_generators_many(X)[1].sum(axis=1).tolist() == [0] * 3 + [3] * 3 + [16]

    def test_orthant_interior_face_and_corner_in_16d(self):
        signs = np.array([1, -1, 0, 1] * 4)
        s = P.Orthant(tuple(signs))
        interior = np.random.default_rng(6).uniform(0.2, 0.8, (3, 16)) * np.where(signs < 0, -1, 1)
        face = interior.copy()
        face[:, [0, 5, 11]] = 0.0
        X = np.vstack([interior, face, np.zeros(16)])
        _rows_match_scalar(s, X)
        assert s.normal_generators_many(X)[1].sum(axis=1).tolist() == [0] * 3 + [3] * 3 + [12]

    def test_flat_box_side_lists_both_signs_in_order(self):
        s = P.Box(np.array([0.0, -1.0]), np.array([0.0, 1.0]))
        dirs, mask = s.normal_generators_many(np.array([[0.0, 1.0], [0.0, 0.0]]))
        assert mask.tolist() == [[True] * 3, [True, True, False]]
        assert dirs[0].tolist() == [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]

    @pytest.mark.parametrize("s", [
        P.UnionOfSets((P.Ball(np.zeros(2), 1.0), P.Ball(np.ones(2), 1.0))),
        P.FinitePointSet(np.eye(2)),
        P.PolyhedralCone(np.eye(5) + 0.1),
        P.Ball(np.zeros(3), 0.0),
    ], ids=["union", "finite_points", "cone_d5", "zero_radius_ball"])
    def test_unsupported_sets_raise(self, s):
        p = s.project(np.full(s.dim, 0.5)).canonical
        with pytest.raises(UnsupportedSet):
            s.normal_generators(p)
        with pytest.raises(UnsupportedSet):
            s.normal_generators_many(np.vstack([p, p]))
        dirs, mask = analysis._closed_form_normals(s, np.vstack([p, p]), 8)
        assert dirs.shape == (2, 0, s.dim) and mask.shape == (2, 0)

    def test_sphere_center_in_a_batch_raises(self):
        s = P.Translate(P.Sphere(np.zeros(3), 2.0), np.ones(3))
        X = np.array([[3.0, 1.0, 1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 1.0]])
        with pytest.raises(DomainError, match="center"):
            s.normal_generators_many(X)
        _rows_match_scalar(s, X[[0, 2]])

    def test_tiny_ball_center_has_no_normal(self):
        """The center is interior however small the radius, not a 0/0."""
        s = P.Ball(np.ones(2), 1e-11)
        assert s.normal_generators(np.ones(2)) == []
        assert len(s.normal_generators(np.ones(2) + [1e-11, 0.0])) == 1

    @pytest.mark.parametrize("s", ONE_OF_EACH, ids=lambda s: s.tag)
    def test_empty_batch(self, s):
        dirs, mask = s.normal_generators_many(np.zeros((0, s.dim)))
        assert dirs.shape == (0, 0, s.dim) and mask.shape == (0, 0)

    def test_one_of_each_covers_every_set_type(self):
        assert sorted(s.tag for s in ONE_OF_EACH) == sorted(P.sets.SET_TYPES)

    def test_cone_answers_up_to_dimension_four(self):
        """A d = 4 cone lists the polar rays its points expose: all four at
        the apex and the three orthogonal to a generator on its edge.  A
        d = 5 cone raises, as its polar enumeration does."""
        s = P.PolyhedralCone(np.eye(4) + 0.1)
        polar = np.array(s.polar_generators())
        dirs, mask = s.normal_generators_many(np.vstack([np.zeros(4), s.generators[0]]))
        assert mask.sum(axis=1).tolist() == [4, 3]
        assert np.array_equal(dirs[0], polar)
        assert np.abs(dirs[1] @ s.generators[0]).max() <= 1e-12
        with pytest.raises(UnsupportedSet, match="dimension <= 4"):
            P.PolyhedralCone(np.eye(5) + 0.1).normal_generators(np.zeros(5))

    def test_cone_normals_do_not_depend_on_the_scale_of_p(self):
        """A cone's normal cone is the same at p and at t p, t > 0: points on
        the ray of (1, 1, 1) expose the same two polar rays from 1e-9 to 1e6,
        and only at the apex (||p|| <= MEMBERSHIP_TOL) are all three listed."""
        s = P.PolyhedralCone(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0], [1 / 128, 0.0, 4.0]]))
        scales = 10.0 ** np.arange(-9, 7)
        dirs, mask = s.normal_generators_many(np.outer(scales, np.ones(3)))
        assert mask.sum(axis=1).tolist() == [2] * len(scales)
        assert all(np.array_equal(d, dirs[0]) for d in dirs)
        assert len(s.normal_generators(1e-11 * np.ones(3))) == len(s.polar_generators()) == 3


# ---------------------------------------------------------------------------
# normal lists derived from `_normal_cone`


def _hyperplane_normals_reference(s, X):
    """The hyperplane kernel that the derived list replaced: u = a / ||a||
    and -u at every row."""
    u = s.a / float(np.linalg.norm(s.a))
    return P.sets._prefix_rows(np.stack([u, -u]), np.ones((X.shape[0], 2), bool))


def _affine_normals_reference(s, X):
    """The affine kernel that the derived list replaced: each complement
    row u_i as u_i then -u_i at every row."""
    comp = P.sets._orthonormal_complement(s.basis, s.dim)
    pairs = np.stack([comp, -comp], axis=1).reshape(-1, s.dim)
    return P.sets._prefix_rows(pairs, np.ones((X.shape[0], pairs.shape[0]), bool))


@pytest.mark.parametrize("case, reference", [
    (hyperplane_case(), _hyperplane_normals_reference),
    (affine_case(), _affine_normals_reference),
], ids=["hyperplane", "affine"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_derived_normals_match_the_deleted_kernels(case, reference, data):
    """Directions and mask bit for bit, in the same shape, at any rows."""
    s, X = data.draw(case)
    dirs, mask = s.normal_generators_many(X)
    want_dirs, want_mask = reference(s, X)
    assert dirs.shape == want_dirs.shape and np.array_equal(mask, want_mask)
    assert _same_bits(dirs, want_dirs)


@st.composite
def one_point_case(draw):
    d = draw(st.integers(1, 4))
    return P.FinitePointSet(draw(vectors(d))[None, :]), draw(batches(d))


@st.composite
def hook_case(draw):
    """A set of any type or a one-point set, as it is, translated, or as an
    oracle alone or with a hyperplane, and the members of the drawn set."""
    s, X = draw(st.one_of(*CASES.values(), one_point_case()))
    members = s.project_many(X)
    wrap = draw(st.sampled_from(["plain", "translate", "oracle", "oracle_pair"]))
    if wrap == "translate":
        shift = draw(vectors(s.dim))
        return P.Translate(s, shift), members + shift
    if wrap == "oracle":
        return P.IntersectionHandle((s,)), members
    if wrap == "oracle_pair":
        return P.IntersectionHandle((s, P.Hyperplane(draw(nonzero(s.dim)), 0.0))), members
    return s, members


@settings(max_examples=200, deadline=None)
@given(case=hook_case())
def test_the_two_normal_hooks_agree(case):
    """Wherever `_normal_cone(w)` answers, `normal_generators(w)` lists its
    lines as (n, -n) pairs and then its rays, bit for bit.  The oracles
    are asked at their first member's points, with no sweep: neither hook
    reads membership."""
    s, W = case
    for w in W:
        cone = s._normal_cone(w)
        if cone is None:
            continue
        lines, rays, _ = cone
        want = np.reshape([row for n in lines for row in (n, -n)] + list(rays), (-1, s.dim))
        got = np.reshape(s.normal_generators(w), (-1, s.dim))
        assert got.shape == want.shape and _same_bits(got, want)


class TestDerivedNormals:
    def test_one_point_set_lists_both_signs_of_each_axis(self):
        s = P.FinitePointSet(np.array([[2.0, -1.0]]))
        e = np.eye(2)
        assert _same_bits(s.normal_generators(np.array([2.0, -1.0])), [e[0], -e[0], e[1], -e[1]])
        dirs, mask = s.normal_generators_many(np.tile([2.0, -1.0], (3, 1)))
        assert dirs.shape == (3, 4, 2) and mask.all()
        assert all(_same_bits(row, dirs[0]) for row in dirs)

    def test_oracle_of_the_coordinate_lines_lists_its_lines(self):
        e = np.eye(2)
        oracle = P.IntersectionHandle((P.Hyperplane(e[1], 0.0), P.Hyperplane(e[0], 0.0)))
        got = np.array(oracle.normal_generators(np.zeros(2)))
        lines = oracle._normal_cone(np.zeros(2))[0]
        assert _same_bits(got, [lines[0], -lines[0], lines[1], -lines[1]])
        assert np.allclose(np.abs(lines), np.fliplr(e)) or np.allclose(np.abs(lines), e)

    @pytest.mark.parametrize("s", [
        P.UnionOfSets((P.Hyperplane(np.array([0.0, 1.0]), 0.0),)),
        P.FinitePointSet(np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 0.0]])),
        P.IntersectionHandle((P.Halfspace(np.array([1.0, 0.0]), 0.0),
                              P.Hyperplane(np.array([0.0, 1.0]), 0.0))),
        P.IntersectionHandle((P.Halfspace(np.array([1.0, 0.0]), 1.0),
                              P.Hyperplane(np.array([0.0, 1.0]), 0.0))),
    ], ids=["union_of_a_line", "two_points", "oracle_halfspace_face",
            "oracle_halfspace_inside"])
    def test_other_sets_still_raise(self, s):
        """A union, even of one line; two distinct points; an oracle with a
        halfspace member, on its face and inside it."""
        with pytest.raises(UnsupportedSet):
            s.normal_generators(np.zeros(2))
        with pytest.raises(UnsupportedSet):
            s.normal_generators_many(np.zeros((2, 2)))
        assert s.normal_generators_many(np.zeros((0, 2)))[0].shape == (0, 0, 2)


class TestTieRules:
    def test_sphere_center_maps_to_e1(self):
        s = P.Sphere(np.array([1.0, -2.0]), 0.5)
        X = np.array([[1.0, -2.0], [3.0, -2.0]])
        np.testing.assert_array_equal(s.project_many(X), [[1.5, -2.0], [1.5, -2.0]])
        np.testing.assert_array_equal(s.distance_many(X), [0.5, 1.5])

    def test_union_tie_goes_to_lowest_member(self):
        u = P.UnionOfSets((P.FinitePointSet(np.array([[1.0, 0.0]])),
                           P.FinitePointSet(np.array([[-1.0, 0.0]]))))
        np.testing.assert_array_equal(u.project_many(np.zeros((1, 2))), [[1.0, 0.0]])

    def test_finite_points_tie_goes_to_lexicographic_min(self):
        s = P.FinitePointSet(np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 5.0]]))
        np.testing.assert_array_equal(s.project_many(np.array([[1.0, 0.0]])), [[1.0, -1.0]])

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("kind", ["finite_points", "union"])
    def test_tie_chain_keeps_both_ends(self, kind, d):
        """a ~ b ~ c within TIE_TOL and a far from c: b goes as a duplicate
        of a, and c stays, as it is far from a, the only point kept before
        it."""
        chain = np.zeros((3, d))
        chain[1:, 0] = [0.8 * TIE_TOL, 1.6 * TIE_TOL]
        s = P.FinitePointSet(chain) if kind == "finite_points" else \
            P.UnionOfSets(tuple(P.FinitePointSet(p[None, :]) for p in chain))
        x = 3.0 * np.eye(d)[1]
        res = s.project(x)
        assert res.multivalued and [q.tolist() for q in res.minimizers] == chain[[0, 2]].tolist()
        assert _same_result(res, _project_reference(s, x))

    def test_finite_points_within_tie_tol_agree_with_scalar(self):
        # Distinct points closer than TIE_TOL: the canonical point is the
        # lexicographic minimum over every tied point, not the one dedupe keeps.
        s = P.FinitePointSet(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        x = np.array([5.0, 0.0])
        res = s.project(x)
        np.testing.assert_array_equal(res.canonical, [0.0, 0.0])
        assert len(res.minimizers) == 1
        np.testing.assert_array_equal(s.project_many(x[None, :]), [res.canonical])

    def test_enlargement_distance_subtracts_tau(self):
        s = P.Enlargement(P.FinitePointSet(np.zeros((1, 2))), 0.5)
        np.testing.assert_array_equal(s.distance_many(np.array([[3.0, 4.0], [0.1, 0.0]])),
                                      [4.5, 0.0])


def _operator(kind, a, b, params):
    lam, alpha, tau = params
    if kind == "relaxed":
        return P.RelaxedProjector(a, lam)
    if kind == "semi_intrepid":
        return P.SemiIntrepidProjector(a, alpha, tau)
    return P.GeneralizedDR(a, b, lam, 2.0 - lam / 2.0, max(alpha, 0.1))


@st.composite
def operator_case(draw):
    d = draw(st.integers(1, 4))
    basis = _orthonormal_rows(draw(st.integers(0, 2**16)), d, draw(st.integers(0, d)))
    pool = [P.Ball(draw(vectors(d)), 1.0), P.Sphere(draw(vectors(d)), 1.5),
            P.Hyperplane(draw(nonzero(d)), 0.5), P.AffineSubspaceSet(draw(vectors(d)), basis),
            P.Orthant(tuple(draw(st.lists(st.sampled_from([-1, 0, 1]),
                                          min_size=d, max_size=d))))]
    a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    params = (draw(st.floats(0.01, 2.0)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0)))
    X = draw(batches(d))
    # rows already in the set: a semi-intrepid step stays put there
    return a, b, params, np.vstack([X, a.project_many(X)])


def _apply_reference(op, x):
    """The per-point step formulas of the three operator families, over
    `_project_reference`.  For GeneralizedDR: (r, s, out), as
    apply_with_trace."""
    def proj(s, y):
        return _project_reference(s, y).canonical

    if isinstance(op, P.RelaxedProjector):
        return x + op.lam * (proj(op.target, x) - x)
    if isinstance(op, P.SemiIntrepidProjector):
        p = proj(op.target, x)
        gap = float(np.linalg.norm(p - x))
        if gap == 0.0:
            return p.copy()
        return p + min(op.alpha, op.tau / gap) * (p - x)
    r = x + op.lam * (proj(op.set_a, x) - x)
    s = r + op.mu * (proj(op.set_b, r) - r)
    return r, s, (1.0 - op.alpha) * x + op.alpha * s


@pytest.mark.parametrize("kind", ["relaxed", "semi_intrepid", "generalized_dr"])
@settings(max_examples=60, deadline=None)
@given(case=operator_case())
def test_apply_many_matches_apply(kind, case):
    """Within 1e-12 of the scalar apply, and both bit for bit equal to
    `_apply_reference`.  A relaxed or DR operator whose sets are all
    hyperplanes and affine sets steps by its affine map: there a batch row
    equals the scalar apply bit for bit, and both lie within
    `affine_step_bound` of the reference wherever neither the map nor the
    reference underflows (the bound's model); `apply_with_trace` keeps the
    reference's bits."""
    a, b, params, X = case
    op = _operator(kind, a, b, params)
    mapped = kind != "semi_intrepid" and all(
        isinstance(s, (P.Hyperplane, P.AffineSubspaceSet))
        for s in ((a,) if kind == "relaxed" else (a, b)))
    Y = op.apply_many(X)
    assert Y.shape == X.shape
    for x, y in zip(X, Y):
        got = op.apply(x)
        np.testing.assert_allclose(y, got, rtol=0.0, atol=TOL)
        ref = _apply_reference(op, x)
        if kind == "generalized_dr":
            assert all(_same_bits(t, r) for t, r in zip(op.apply_with_trace(x), ref))
            ref = ref[2]
        if not mapped:
            assert _same_bits(y, ref) and _same_bits(got, ref)
            continue
        assert _same_bits(y, got)
        if not underflows(lambda: (_operator(kind, a, b, params), _apply_reference(op, x))):
            assert np.all(np.abs(got - ref) <= affine_step_bound(op, x))


@pytest.mark.parametrize("bad, error", [
    (np.zeros(2), DimensionMismatch),
    (np.zeros((3, 3)), DimensionMismatch),
    (np.zeros((2, 2, 2)), DimensionMismatch),
    (np.array([[0.0, np.nan]]), DomainError),
    (np.array([[np.inf, 0.0]]), DomainError),
])
def test_malformed_batches_raise(bad, error):
    s = P.UnionOfSets((P.Ball(np.zeros(2), 1.0), P.Sphere(np.ones(2), 1.0)))
    handle = P.FinitePointSet(np.zeros((1, 2)))
    for call in (s.project_many, s.distance_many, P.RelaxedProjector(s, 1.0).apply_many,
                 P.SemiIntrepidProjector(s, 0.5, 1.0).apply_many,
                 P.GeneralizedDR(s, s, 1.0, 1.0, 0.5).apply_many,
                 P.PolyhedralCone(np.eye(2)).project_many, handle.distance_many,
                 P.IntersectionHandle((s,)).distance_many):
        with pytest.raises(error):
            call(bad)


@pytest.mark.parametrize("make_bad, error", [
    (lambda d: np.zeros(d + 1), DimensionMismatch),
    (lambda d: np.zeros((1, d)), DimensionMismatch),
    (lambda d: np.full(d, np.nan), DomainError),
    (lambda d: np.r_[np.zeros(d - 1), np.inf], DomainError),
], ids=["wrong_dimension", "two_d", "nan", "inf"])
def test_malformed_points_raise(make_bad, error):
    """Each scalar entry validates its point once, at its own boundary."""
    ball, sphere = P.Ball(np.zeros(2), 1.0), P.Sphere(np.ones(2), 1.0)
    calls = [s.project for s in ONE_OF_EACH] + [s.distance for s in ONE_OF_EACH]
    calls += [P.RelaxedProjector(ball, 1.5).apply, P.SemiIntrepidProjector(sphere, 0.5, 1.0).apply,
              P.GeneralizedDR(ball, sphere, 1.0, 2.0, 0.5).apply,
              P.GeneralizedDR(ball, sphere, 1.0, 2.0, 0.5).apply_with_trace]
    descriptor = P.FinitePointSet(np.zeros((1, 2)))
    oracle = P.IntersectionHandle((ball, sphere))
    calls += [descriptor.project, descriptor.distance,
              oracle.project, oracle.nearest, oracle.distance]
    for call in calls:
        dim = getattr(call.__self__, "dim", 2)
        with pytest.raises(error):
            call(make_bad(dim))


def _alias_rows(s, rng):
    """Interior (where the set has one), boundary and exterior rows for s.
    The origin, row 0, is interior to the halfspace, ball, box, enlargement
    and union of ONE_OF_EACH."""
    inner = np.vstack([np.zeros(s.dim), 0.1 * rng.standard_normal((3, s.dim))])
    outer = 5.0 * rng.standard_normal((4, s.dim))
    return np.vstack([inner, outer, s.project_many(np.vstack([inner, outer]))])


@pytest.mark.parametrize("s", ONE_OF_EACH, ids=lambda s: s.tag)
def test_projections_never_share_memory_with_the_input(s):
    X = _alias_rows(s, np.random.default_rng(21))
    oracle = P.IntersectionHandle((s,))
    for i in range(X.shape[0]):
        x = X[i]
        for c in (s, oracle):
            res = c.project(x)
            for q in (res.canonical,) + res.minimizers:
                assert not np.shares_memory(q, X)
        assert not np.shares_memory(oracle.nearest(x), X)
    for c in (s, oracle):
        assert not np.shares_memory(c.project_many(X), X)



def test_intersection_batches_match_scalar():
    a, b = P.Ball(np.zeros(2), 1.0), P.Halfspace(np.array([1.0, 1.0]), 0.0)
    X = np.random.default_rng(3).normal(scale=2.0, size=(20, 2))
    oracle = P.IntersectionHandle((a, b))
    for c in (P.FinitePointSet(np.zeros((1, 2))), oracle):
        np.testing.assert_array_equal(c.distance_many(X), [c.distance(x) for x in X])
        np.testing.assert_array_equal(c.project_many(X), [c.project(x).canonical for x in X])
    np.testing.assert_array_equal(oracle.project_many(X), [oracle.nearest(x) for x in X])


def _fallback_reference(members, x):
    """The per-point cyclic-projection fallback: sweep x through the members
    by scalar `project` until a sweep moves it by at most 1e-12 (at most
    10 000 sweeps).  Returns the landing point and its distance to x."""
    y = x.copy()
    for _ in range(10_000):
        prev = y
        for s in members:
            y = s.project(y).canonical
        if np.linalg.norm(y - prev) <= 1e-12:
            break
    return y, float(np.linalg.norm(x - y))


def _subspace_pair(rng, d):
    """Two subspaces of R^d at a Friedrichs angle in [25, 65] degrees.  From
    d = 3 on they share a line, so C is not just the origin; from d = 4 on A
    has one more direction, orthogonal to B."""
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    theta = np.radians(rng.uniform(25.0, 65.0))
    shared = [Q[:, 2]] if d >= 3 else []
    a_rows = [Q[:, 0]] + shared + ([Q[:, 3]] if d >= 4 else [])
    b_rows = [np.cos(theta) * Q[:, 0] + np.sin(theta) * Q[:, 1]] + shared
    return tuple(P.AffineSubspaceSet(np.zeros(d), np.array(rows)) for rows in (a_rows, b_rows))


def _circles():
    """The two enlarged points of the bundled semi_intrepid_circles scenario."""
    tau = 1.118033988749895
    return tuple(P.Enlargement(P.FinitePointSet(np.array([[c, 0.0]])), tau) for c in (-0.5, 0.5))


class _CountingSet(P.ClosedSet):
    """Delegates to `inner` and records the row count of each batched call."""

    def __init__(self, inner):
        self.inner, self.dim, self.rows = inner, inner.dim, []

    def project(self, x):
        return self.inner.project(x)

    def _nearest_many(self, X):
        self.rows.append(X.shape[0])
        return self.inner._nearest_many(X)


class TestOracleFallback:
    """The batched fallback equals the per-point fallback bit for bit."""

    def assert_matches_reference(self, members, X):
        handle = P.IntersectionHandle(members)
        P_many, d_many = handle.project_many(X), handle.distance_many(X)
        ref = [_fallback_reference(members, x) for x in X]
        np.testing.assert_array_equal(P_many, np.array([y for y, _ in ref]).reshape(X.shape))
        np.testing.assert_array_equal(d_many, [dist for _, dist in ref])
        for x, y, dist in zip(X, P_many, d_many):
            np.testing.assert_array_equal(handle.nearest(x), y)
            assert handle.distance(x) == dist

    @pytest.mark.parametrize("d", range(2, 17))
    def test_subspace_pairs(self, d):
        rng = np.random.default_rng(1000 + d)
        members = _subspace_pair(rng, d)
        self.assert_matches_reference(members, rng.normal(scale=2.0, size=(12, d)))

    def test_circles(self):
        rng = np.random.default_rng(7)
        X = np.vstack([rng.uniform(-3.0, 3.0, size=(40, 2)), [[-0.5, 0.0], [0.5, 0.0]]])
        self.assert_matches_reference(_circles(), X)

    def test_rows_in_c_stop_after_one_sweep(self):
        rng = np.random.default_rng(11)
        a, b = _subspace_pair(rng, 6)
        line = b.basis[1]
        inside = np.outer([0.0, 1.0, -3.0], line)
        far = rng.normal(scale=100.0, size=(2, 6))
        X = np.vstack([inside, far, inside[1:2]])
        self.assert_matches_reference((a, b), X)
        counting = _CountingSet(a)
        P.IntersectionHandle((counting, b)).project_many(X)
        assert counting.rows[0] == 6 and max(counting.rows[1:]) == 2

    def test_empty_batch(self):
        handle = P.IntersectionHandle(_circles())
        assert handle.project_many(np.zeros((0, 2))).shape == (0, 2)
        assert handle.distance_many(np.zeros((0, 2))).shape == (0,)


class TestOracleIsASet:
    """An exact intersection is its descriptor; the cyclic-projection oracle
    is a single-valued ClosedSet whose surface derives from its sweep."""

    def test_exact_returns_its_descriptor(self):
        a, b = P.Hyperplane(np.array([1.0, 0.0]), 0.0), P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        d = P.FinitePointSet(np.zeros((1, 2)))
        assert intersection.exact(d, (a, b)) is d
        assert intersection.exact(d) is d

    def test_project_is_the_one_row_sweep(self):
        oracle = P.IntersectionHandle(_circles())
        assert isinstance(oracle, P.ClosedSet) and oracle.dim == 2
        rng = np.random.default_rng(5)
        for x in np.vstack([rng.uniform(-3.0, 3.0, size=(20, 2)), [[0.5, 0.0]]]):
            res = oracle.project(x)
            assert _same_bits(res.canonical, oracle.nearest(x))
            assert len(res.minimizers) == 1 and res.minimizers[0] is res.canonical
            assert res.multivalued is False
            assert res.distance == oracle.distance(x)

    def test_contains_a_point_of_c(self):
        oracle = P.IntersectionHandle(_circles())
        assert oracle.contains(np.zeros(2))
        assert not oracle.contains(np.array([3.0, 0.0]))

    def test_no_closed_form_normal_cone(self):
        oracle = P.IntersectionHandle(_circles())
        assert oracle.normal_generators_many(np.zeros((0, 2)))[0].shape == (0, 0, 2)
        with pytest.raises(UnsupportedSet):
            oracle.normal_generators_many(np.zeros((1, 2)))

    def test_members_of_mixed_dimension_raise(self):
        with pytest.raises(DimensionMismatch):
            P.IntersectionHandle((P.Ball(np.zeros(2), 1.0), P.Ball(np.zeros(3), 1.0)))
        with pytest.raises(DomainError):
            P.IntersectionHandle(())

    def test_linear_regularity_flags_the_oracle_approximate(self):
        """Halfspace members keep kappa on the sampled path, where the
        oracle's sweep gives d_C; a translate, an enlargement or a union
        that reads the oracle's distance is flagged as the oracle is."""
        halves = tuple(P.Halfspace(a, 0.0) for a in np.eye(2))
        oracle, orthant = P.IntersectionHandle(halves), P.Orthant((-1, -1))
        for c, approximate in ((oracle, True), (orthant, False),
                               (P.Translate(oracle, np.zeros(2)), True),
                               (P.Translate(orthant, np.zeros(2)), False),
                               (P.Enlargement(oracle, 0.0), True),
                               (P.UnionOfSets((orthant, oracle)), True),
                               (P.UnionOfSets((orthant, halves[0])), False)):
            assert c.approximate is approximate
            est = analysis.estimate_linear_regularity(halves, c, np.zeros(2), 0.5, samples=50)
            assert est.bound == "lower" and est.extra["approximate"] is approximate


class TestMarginReport:
    def test_worst_first_witness_and_violations(self):
        rep = margin_report("demo", [0.5, -1.0, -1.0, -2e-10], lambda i: i, 7, 1e-9, {})
        assert (rep.samples, rep.violations, rep.worst_margin, rep.witness) == (4, 2, -1.0, 1)
        assert rep.seed == 7 and not rep.passed

    def test_no_margins(self):
        rep = margin_report("demo", [], lambda i: i, 0, 1e-9, {}, samples=3, empty_margin=0.0)
        assert (rep.samples, rep.violations, rep.worst_margin, rep.witness) == (3, 0, 0.0, None)
        assert margin_report("demo", [], lambda i: i, 0, 1e-9, {}).worst_margin == np.inf

    def test_nan_margins_are_violations(self):
        """A NaN margin holds no inequality, so it counts as a violation."""
        rep = margin_report("demo", [0.5, np.nan, -2e-10, np.nan], lambda i: i, 0, 1e-9, {})
        assert (rep.violations, rep.witness) == (2, 1) and not rep.passed
        assert np.isnan(rep.worst_margin)

    def test_nan_rho_bound_fails_every_live_block(self):
        """A NaN rho_bound made a report failing every block with a NaN
        margin; it now lies outside rho_bound's interval, as inf does."""
        a, b = (P.Hyperplane(np.array([0.0, 1.0]), 0.0), P.Hyperplane(np.array([1.0, -1.0]), 0.0))
        traj = P.run([P.RelaxedProjector(s, 1.0) for s in (a, b)], np.array([3.0, 1.0]), (a, b),
                     P.FinitePointSet(np.zeros((1, 2))),
                     max_cycles=12, tol=1e-300)
        for bound in (np.nan, np.inf):
            with pytest.raises(P.DomainError, match=r"rho_bound must lie in \[0, inf\)"):
                P.check_k_step_reduction(traj, 2, bound)


# ---------------------------------------------------------------------------
# normal pools and the eps site loop against the per-point code they replace


def _closed_form_reference(s, p, k):
    try:
        return _scalar_normals(s, p)[:k]
    except UnsupportedSet:
        return []


def _normal_pool_reference(s, w, delta, rng, budget):
    """The per-point normal pool: each candidate, in order, is normalized
    and kept unless within 1e-9 (in cosine) of a direction kept before it."""
    dirs = []

    def push(u):
        n = float(np.linalg.norm(u))
        if n <= 1e-12:
            return
        u = u / n
        if not any(float(np.dot(u, v)) > 1.0 - 1e-9 for v in dirs):
            dirs.append(u)

    for u in _closed_form_reference(s, w, 16):
        push(u)
    zs = P.uniform_ball(rng, w, delta / 2.0, budget)
    for z, x in zip(zs, s.project_many(zs)):
        push(z - x)
        for u in _closed_form_reference(s, x, 8):
            push(u)
    return dirs


def _eps_reference(s, w, delta, samples, seed, points=None):
    """The per-site, per-normal eps loop: (eps_hat, pairs)."""
    rng = np.random.default_rng(seed)
    zs = P.uniform_ball(rng, w, delta / 2.0, samples) if points is None else points
    xs = s.project_many(zs)
    near = np.linalg.norm(xs - w, axis=1) <= delta + 1e-9
    xs, preimages = xs[near], (zs - xs)[near]
    normal_sites = []
    for x, u in zip(xs, preimages):
        nu = float(np.linalg.norm(u))
        us = ([u / nu] if nu > 1e-12 else []) + _closed_form_reference(s, x, 8)
        if us:
            normal_sites.append((x, us))
    M = np.vstack([w, xs])
    eps_hat, pairs = 0.0, 0
    for x, us in normal_sites:
        diff = M - x
        norms = np.linalg.norm(diff, axis=1)
        mask = norms >= 1e-9
        if not np.any(mask):
            continue
        pairs += int(np.sum(mask)) * len(us)
        for u in us:
            eps_hat = max(eps_hat, float(((diff[mask] @ u) / norms[mask]).max()))
    return min(max(eps_hat, 0.0), 1.0), pairs


def _eps_site_reference(s, w, delta, samples, seed, points=None):
    """The coordinate-major eps kernel one site at a time, unchunked:
    (eps_hat, pairs).  A site's normals U_s are its unit preimage direction
    (a zero row when it has none) and its first 8 closed-form generators,
    zero-padded to the estimator's width; its ratios are U_s @ D over the
    column norms of D = (M - x_s).T, which is C-contiguous as in a chunk."""
    rng = np.random.default_rng(seed)
    zs = P.uniform_ball(rng, w, delta / 2.0, samples) if points is None else points
    xs = s.project_many(zs)
    near = np.linalg.norm(xs - w, axis=1) <= delta + 1e-9
    xs, preimages = xs[near], (zs - xs)[near]
    closed = [_closed_form_reference(s, x, 8) for x in xs]
    width = 1 + max(map(len, closed), default=0)
    M = np.vstack([w, xs])
    eps_hat, pairs = 0.0, 0
    for x, u, c in zip(xs, preimages, closed):
        nu = float(np.linalg.norm(u))
        U = np.zeros((width, s.dim))
        if nu > 1e-12:
            U[0] = u / nu
        U[1:1 + len(c)] = np.reshape(c, (-1, s.dim))
        live = int(nu > 1e-12) + len(c)
        if not live:
            continue
        D = np.ascontiguousarray((M - x).T)
        norms = np.sqrt(np.einsum("dm,dm->m", D, D))
        mask = norms >= 1e-9
        pairs += int(np.sum(mask)) * live
        eps_hat = max(eps_hat, float(((U @ D)[:, mask] / norms[mask]).max(initial=0.0)))
    return min(eps_hat, 1.0), pairs


def _eps_drift_bound(d):
    """The bound (3d + 4) 2^-53 on |eps_hat - _eps_reference's eps_hat|; see
    test_eps_matches_reference."""
    return (3 * d + 4) * 2.0 ** -53


def _normal_cases():
    """(id, set, anchor in the set): halfspaces, spheres, box corners,
    enlarged point pairs and translated spheres in d = 2, 3, 8, 16, and an
    affine set in R^16 with 22 normals (cut to 16 at w and 8 elsewhere)."""
    cases = []
    for d in (2, 3, 8, 16):
        q = _orthonormal_rows(d, d, d)
        cases += [
            (f"halfspace_d{d}", P.Halfspace(q[0], 0.0), np.zeros(d)),
            (f"sphere_d{d}", P.Sphere(np.zeros(d), 1.0), q[0]),
            (f"box_corner_d{d}", P.Box(-np.ones(d), np.ones(d)), np.ones(d)),
            (f"enlarged_points_d{d}",
             P.Enlargement(P.FinitePointSet(np.vstack([np.zeros(d), 1.5 * q[1]])), 0.5),
             0.5 * q[0]),
            (f"translate_d{d}", P.Translate(P.Sphere(np.zeros(d), 1.0), q[-1]), q[-1] + q[0]),
        ]
    cases.append(("affine_d16", P.AffineSubspaceSet(np.zeros(16), _orthonormal_rows(16, 16, 5)),
                  np.zeros(16)))
    return cases


NORMAL_CASES = _normal_cases()
CLOSED_FORM_TYPES = (P.Halfspace, P.Hyperplane, P.AffineSubspaceSet, P.Ball, P.Sphere, P.Box,
                     P.Orthant, P.Translate)


def _sampled(monkeypatch, s):
    """Keep an eps estimate of s on the pair kernel: the exact-eps hook of
    s's class reads None, so the estimator samples s instead of returning
    its exact value (0 on a convex set, the cap formula on a sphere)."""
    monkeypatch.setattr(type(s), "_exact_eps", lambda self, w, delta: None)


def _same_bits(a, b):
    return np.array_equal(np.asarray(a, dtype=float).view(np.int64),
                          np.asarray(b, dtype=float).view(np.int64))


class _ChainSet(P.ClosedSet):
    """All of R^dim with three normals everywhere: b within the duplicate
    threshold of a, c within it of b but not of a."""

    tag = "chain"

    def __init__(self, dim):
        self.dim = dim
        self.chain = [np.r_[np.cos(t), np.sin(t), np.zeros(dim - 2)] for t in (0.0, 3e-5, 6e-5)]

    def project(self, x):
        return single_point(x, x)

    def normal_generators_many(self, X):
        n = X.shape[0]
        return np.tile(self.chain, (n, 1, 1)), np.ones((n, len(self.chain)), bool)


class TestNormalArrays:
    @pytest.mark.parametrize("name, s, w", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_pool_matches_reference(self, name, s, w):
        for budget in (16, 75):
            pool = analysis._normal_pool(s, w, 0.5, np.random.default_rng(budget), budget)
            ref = _normal_pool_reference(s, w, 0.5, np.random.default_rng(budget), budget)
            assert _same_bits(pool, np.reshape(ref, (-1, s.dim)))

    @pytest.mark.parametrize("name, s, w", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_eps_matches_reference(self, name, s, w, monkeypatch):
        """Against the per-site, per-normal loop that the coordinate-major
        kernel replaced: the same pairs, and eps_hat within (3d + 4) 2^-53.

        Both forms subtract y - x with the same bits and differ only in the
        order of their sums.  With u = 2^-53 and unit normals, a dot
        product <n, y - x> in any order is within d u ||y - x|| of the exact
        one (the standard bound, then Cauchy-Schwarz).  A norm, d rounded
        squares summed and a square root, is within (d/2 + 1) u of
        ||y - x|| relatively, and the division rounds once more.  So each
        form's ratio is within d u + (d/2 + 1) u + u = (3d/2 + 2) u of the
        exact ratio, to first order, as the ratios are at most 1 in size;
        the two forms differ by at most twice that.  The max over the same
        pairs and the clamps to [0, 1] move no further."""
        _sampled(monkeypatch, s)
        for samples in (1, 2, 3, 37, 38, 39, 40, 150):
            est = P.estimate_eps_regularity(s, w, 0.6, samples=samples, seed=samples)
            eps, pairs = _eps_reference(s, w, 0.6, samples, samples)
            assert est.extra["pairs"] == pairs
            assert abs(est.value - eps) <= _eps_drift_bound(s.dim)

    @pytest.mark.parametrize("name, s, w", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_eps_matches_site_reference(self, name, s, w, monkeypatch):
        """Chunking and batching keep every bit of the per-site form."""
        _sampled(monkeypatch, s)
        for samples in (1, 2, 3, 37, 38, 39, 40, 150):
            est = P.estimate_eps_regularity(s, w, 0.6, samples=samples, seed=samples)
            eps, pairs = _eps_site_reference(s, w, 0.6, samples, samples)
            assert (est.value.hex(), est.extra["pairs"]) == (eps.hex(), pairs)

    def test_eps_matches_reference_on_given_points(self, monkeypatch):
        s = P.Sphere(np.zeros(3), 1.0)
        _sampled(monkeypatch, s)
        w = np.array([0.0, 0.0, 1.0])
        pts = w + np.random.default_rng(4).normal(scale=0.1, size=(45, 3))
        for n in (1, 2, 3, 4, 5, 45):
            given_draws(monkeypatch, pts[:n])
            est = P.estimate_eps_regularity(s, w, 0.6, samples=n)
            eps, pairs = _eps_reference(s, w, 0.6, n, 0, points=pts[:n])
            assert est.extra["pairs"] == pairs and abs(est.value - eps) <= _eps_drift_bound(3)
            eps, pairs = _eps_site_reference(s, w, 0.6, n, 0, points=pts[:n])
            assert (est.value.hex(), est.extra["pairs"]) == (eps.hex(), pairs)

    def test_chunking_keeps_the_result(self, monkeypatch):
        """Chunks of 1, 2, 3, 5 and 7 sites: 150 sites leave a partial chunk."""
        s, w = P.Sphere(np.zeros(3), 1.0), np.array([1.0, 0.0, 0.0])
        _sampled(monkeypatch, s)
        whole = P.estimate_eps_regularity(s, w, 0.6, samples=150, seed=9)
        assert whole.value > 0.0
        per_site = 8 * 151 * (3 + 3 + 1)  # 151 rows, d = 3, 3 normals
        for sites in (1, 2, 3, 5, 7):
            monkeypatch.setattr(analysis, "_EPS_CHUNK_BYTES", sites * per_site)
            part = P.estimate_eps_regularity(s, w, 0.6, samples=150, seed=9)
            assert (part.value.hex(), part.extra) == (whole.value.hex(), whole.extra)

    def test_near_duplicate_chain_keeps_both_ends(self):
        s = _ChainSet(3)
        a, b, c = s.chain
        assert a @ b > 1.0 - 1e-9 and b @ c > 1.0 - 1e-9 and a @ c <= 1.0 - 1e-9
        pool = analysis._normal_pool(s, np.zeros(3), 0.5, np.random.default_rng(0), 16)
        ref = _normal_pool_reference(s, np.zeros(3), 0.5, np.random.default_rng(0), 16)
        assert _same_bits(pool, ref) and pool.shape == (2, 3)
        np.testing.assert_allclose(pool, [a, c], rtol=0.0, atol=1e-15)

    def test_no_scalar_normal_calls_for_closed_form_types(self, monkeypatch):
        """Nor for an enlargement whose inner projections do not tie: of one
        point, of two points away from their midpoint, of a box, and the
        circles of the bundled semi_intrepid_circles at its anchor.  Their
        finite-point inner sets take no scalar `project`, in the pool or in
        the estimate, whose anchor membership check reads `_nearest_many`."""
        def scalar_call(self, p):
            raise AssertionError(f"scalar normal_generators on {type(self).__name__}")

        for cls in CLOSED_FORM_TYPES + (P.Enlargement,):
            monkeypatch.setattr(cls, "normal_generators", scalar_call)
        projects = []
        project = P.FinitePointSet.project
        monkeypatch.setattr(P.FinitePointSet, "project",
                            lambda self, x: projects.append(x) or project(self, x))
        enlarged = [(P.Enlargement(P.FinitePointSet(np.zeros((1, 3))), 0.5), np.r_[0.5, 0.0, 0.0]),
                    (P.Enlargement(P.Box(-np.ones(3), np.ones(3)), 0.5), np.r_[1.5, 1.0, 0.0])]
        for s, w in [c[1:] for c in NORMAL_CASES] + enlarged:
            _sampled(monkeypatch, s)
            analysis._normal_pool(s, w, 0.5, np.random.default_rng(0), 40)
            assert not projects
            P.estimate_eps_regularity(s, w, 0.6, samples=40)
            assert not projects
        for s in _circles():
            _sampled(monkeypatch, s)
            P.estimate_eps_regularity(s, np.array([0.0, 1.0]), 0.5, seed=20801)
            assert not projects

    @pytest.mark.parametrize("inner, tau", [
        (P.FinitePointSet(np.array([[-1.0, 0.0], [1.0, 0.0]])), 1.0),
        (P.UnionOfSets((P.FinitePointSet(np.array([[1.0, 0.0]])),
                        P.FinitePointSet(np.array([[-1.0, 0.0]])))), 1.0),
        (P.Translate(P.FinitePointSet(np.array([[-2.0, 1.0], [0.0, 1.0]])), np.array([1.0, -1.0])),
         1.0),
        (P.Enlargement(P.FinitePointSet(np.array([[-1.0, 0.0], [1.0, 0.0]])), 0.25), 0.75),
    ], ids=["finite_points", "union", "translate", "enlargement"])
    def test_enlargement_tie_rows_take_the_scalar_call(self, inner, tau, monkeypatch):
        """The inner set is (-1, 0) and (1, 0), or their enlargement, and the
        enlargement reaches the midpoint (row 0), where the inner projection
        ties, and lists both directions there.  Rows 1 and 3 are boundary
        points with one nearest inner point, row 2 is interior.  One inner
        `_minimizers_many` call lists every row's minimizers, so the tie
        rows take no scalar `project` call, of any set."""
        s = P.Enlargement(inner, tau)
        X = np.array([[0.0, 0.0], [-2.0, 0.0], [1.0, 0.5], [1.0, 1.0]])
        calls = []
        for cls in P.sets.SET_TYPES.values():
            project = cls.project
            monkeypatch.setattr(cls, "project", lambda self, x, project=project: (
                calls.append(type(self).__name__) or project(self, x)))
        dirs, mask = s.normal_generators_many(X)
        assert calls == []
        assert mask.sum(axis=1).tolist() == [2, 1, 0, 1]
        monkeypatch.undo()
        _rows_match_scalar(s, X)


class TestEpsKernel:
    """Edge cases of the eps pair kernel, each against both references and
    with warnings raised as errors, so the inf norms of the pairs nearer
    than _PAIR_FLOOR must divide silently."""

    def estimate(self, s, w, points):
        with warnings.catch_warnings(), pytest.MonkeyPatch.context() as mp:
            warnings.simplefilter("error")
            given_draws(mp, points)
            est = P.estimate_eps_regularity(s, w, 0.6, samples=len(points))
        eps, pairs = _eps_site_reference(s, w, 0.6, len(points), 0, points=points)
        assert (est.value.hex(), est.extra["pairs"]) == (eps.hex(), pairs)
        eps, pairs = _eps_reference(s, w, 0.6, len(points), 0, points=points)
        assert est.extra["pairs"] == pairs and abs(est.value - eps) <= _eps_drift_bound(s.dim)
        return est

    def test_mixed_normal_counts(self):
        """Two discs touching at w = 0: the site at w has two closed-form
        normals (its inner projection ties) and no preimage direction, three
        boundary sites one of each, so every site carries zero padding, and
        an interior point is no site."""
        s = P.Enlargement(P.FinitePointSet(np.array([[-1.0, 0.0], [1.0, 0.0]])), 1.0)
        w = np.zeros(2)
        points = np.array([[0.0, 0.0], [0.0, 0.2], [-0.02, 0.3], [0.03, -0.25], [0.3, 0.4]])
        X = s.project_many(points)
        assert analysis._closed_form_normals(s, X, 8)[1].sum(axis=1).tolist() == [2, 1, 1, 1, 0]
        assert self.estimate(s, w, points).value > 0.1

    def test_box_pairs_by_hand(self, monkeypatch):
        """Face, edge and corner sites of a box have 1, 2 and 3 closed-form
        normals besides their preimage direction; an interior point is no
        site.  A site pairs with the rows of M = (w, projections) other
        than itself: 5 of the 6, and 4 for the corner site, which is w."""
        s, w = P.Box(-np.ones(3), np.ones(3)), np.ones(3)
        _sampled(monkeypatch, s)
        points = np.array([[1.2, 0.9, 0.8], [1.1, 1.2, 0.9], [1.1, 1.1, 1.1], [0.9, 0.9, 0.9],
                           [1.2, 0.7, 0.95]])
        est = self.estimate(s, w, points)
        assert est.value == 0.0 and est.extra["pairs"] == 2 * 5 + 3 * 5 + 4 * 4 + 2 * 5

    def test_every_pair_under_the_floor(self, monkeypatch):
        """Every point projects to w, so no pair is far enough apart."""
        s, w = P.Halfspace(np.array([1.0, 0.0]), 0.0), np.zeros(2)
        _sampled(monkeypatch, s)
        est = self.estimate(s, w, np.array([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0]]))
        assert (est.value, est.extra) == (0.0, {"pairs": 0, "vacuous": True})


# ---------------------------------------------------------------------------
# points-only kernels: `_canonical_many` against `_nearest_many`


class _ProjectOnly(P.ClosedSet):
    """A custom set that defines only `project`: the segment [0, e1] of R^d,
    its ends included, projected by clipping the first coordinate."""

    def __init__(self, dim):
        self.dim = dim

    def project(self, x):
        x = P.sets.as_vector(x, self.dim)
        p = np.zeros(self.dim)
        p[0] = min(max(x[0], 0.0), 1.0)
        return single_point(x, p)


@st.composite
def project_only_case(draw):
    d = draw(st.integers(1, 4))
    return _ProjectOnly(d), draw(batches(d, [np.zeros(d)]))


@st.composite
def one_point_case(draw):
    """The point itself is a row, at distance 0."""
    d = draw(st.integers(1, 4))
    point = draw(vectors(d))
    return P.FinitePointSet(point[None, :]), draw(batches(d, [point]))


SPLIT_CASES = dict(CASES, custom=project_only_case(), custom_pair=custom_case(),
                   one_point=one_point_case())
SINGLE_VALUED = ("halfspace", "hyperplane", "affine", "ball", "box", "orthant", "cone")


@pytest.mark.parametrize("tag", sorted(SPLIT_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_canonical_many_is_the_nearest_point_bit_for_bit(tag, data):
    """For every set type and a custom set: `_canonical_many` is
    `_nearest_many`'s points and each row's `project(x).canonical`, and
    shares no memory with X."""
    s, X = data.draw(SPLIT_CASES[tag])
    Q = s._canonical_many(X)
    P_near, dist = s._nearest_many(X)
    assert Q.shape == X.shape and _same_bits(Q, P_near)
    assert all(_same_bits(q, s.project(x).canonical) for q, x in zip(Q, X))
    assert not np.shares_memory(Q, X) and not np.shares_memory(P_near, X)
    if tag in SINGLE_VALUED:
        assert _same_bits(dist, P.sets.row_norms(X - Q))


@pytest.mark.parametrize("tag", sorted(SPLIT_CASES))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_minimizer_lists_lead_with_the_nearest_point(tag, data):
    """`_minimizers_many` and `_nearest_many` cannot drift apart: slot 0
    and the distances are bit-equal, for every set type and a custom set.
    The mask is a prefix that holds slot 0, a row that lists two points is
    multivalued, and no point shares memory with X."""
    s, X = data.draw(SPLIT_CASES[tag])
    M, mask, multi, dist = s._minimizers_many(X)
    Q, D = s._nearest_many(X)
    n, k = mask.shape
    assert M.shape == (n, k, s.dim) and multi.shape == dist.shape == (X.shape[0],) == (n,)
    assert _same_bits(M[:, :1].reshape(X.shape), Q) and _same_bits(dist, D)
    assert mask[:, :1].all() and np.array_equal(mask, np.arange(k) < mask.sum(axis=1)[:, None])
    assert multi.dtype == bool and multi[mask.sum(axis=1) > 1].all()
    assert not np.shares_memory(M, X)


def test_the_closed_forms_derive_their_distances():
    """The seven single-valued sets, the cone included, write only their
    points: one shared base adds the distances and lists each point alone,
    and no other set writes `_canonical_many`."""
    derived = {tag for tag, cls in P.sets.SET_TYPES.items()
               if issubclass(cls, P.sets._SingleValued)
               and not {"_nearest_many", "_minimizers_many"} & set(cls.__dict__)}
    written = {tag for tag, cls in P.sets.SET_TYPES.items() if "_canonical_many" in cls.__dict__}
    assert derived == written == set(SINGLE_VALUED)
    assert not hasattr(P.sets, "_single_many") and not hasattr(P.sets, "_with_distance")


@pytest.mark.parametrize("case", [one_point_case(), finite_points_case()],
                         ids=["one_point", "k_points"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_finite_point_distances_match_linalg_norm(case, data):
    """Bit for bit against np.linalg.norm(points - x, axis=1), ties (the
    midpoint of two points) and a one-point set included, and the points
    returned share no memory with X or the set's points."""
    s, X = data.draw(case)
    D = s._distances(X)
    for x, row in zip(X, D):
        assert _same_bits(row, np.linalg.norm(s.points - x, axis=1))
    Q, dist = s._nearest_many(X)
    assert _same_bits(dist, D.min(axis=1, initial=np.inf))
    assert all(_same_bits(s.project(x).distance, dm) for x, dm in zip(X, dist))
    for out in (Q, s._canonical_many(X), s.project_many(X)):
        assert not np.shares_memory(out, X) and not np.shares_memory(out, s.points)


class _CountingHyperplane(FormulaHyperplane):
    """A test-only closed form that counts the calls of its two batched
    kernels.  It gives no affine map, so an operator on it takes the step
    formula, as on a set that is not affine."""

    def __post_init__(self):
        super().__post_init__()
        object.__setattr__(self, "calls", {"_canonical_many": 0, "_nearest_many": 0})

    def _canonical_many(self, X):
        self.calls["_canonical_many"] += 1
        return super()._canonical_many(X)

    def _nearest_many(self, X):
        self.calls["_nearest_many"] += 1
        return super()._nearest_many(X)


class _CountingMappedHyperplane(_CountingHyperplane):
    """The counting hyperplane with the catalog's affine map."""

    _affine_map = P.Hyperplane._affine_map


class TestPointsOnlyKernels:
    """Operators, the oracle sweep and the run loop read points only: they
    call `_canonical_many` and never `_nearest_many`.  Only a run's
    intersection distances, its cycle-end test and the CSV writer's per-set
    columns ask for distances.  An operator that steps by its affine map
    calls neither kernel."""

    def lines(self):
        return (_CountingHyperplane(np.array([0.0, 1.0]), 0.0),
                _CountingHyperplane(np.array([-np.sin(0.5), np.cos(0.5)]), 0.0))

    def assert_points_only(self, *sets):
        for s in sets:
            assert s.calls["_canonical_many"] > 0 and s.calls["_nearest_many"] == 0, s.calls

    @pytest.mark.parametrize("tag", sorted(P.operators.OPERATOR_TYPES))
    def test_apply_many_of_every_family(self, tag):
        a, b = self.lines()
        op = {"relaxed": P.RelaxedProjector(a, 1.5),
              "semi_intrepid": P.SemiIntrepidProjector(a, 0.5, 1.0),
              "generalized_dr": P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)}[tag]
        op.apply_many(np.random.default_rng(4).normal(size=(5, 2)))
        op.apply(np.ones(2))
        self.assert_points_only(*((a, b) if tag == "generalized_dr" else (a,)))

    def test_an_affine_map_calls_no_kernel(self):
        a, b = (_CountingMappedHyperplane(s.a, s.b) for s in self.lines())
        X = np.random.default_rng(4).normal(size=(5, 2))
        for op in (P.RelaxedProjector(a, 1.5), P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)):
            op.apply_many(X)
            op.apply(np.ones(2))
        P.run([P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0)], np.array([3.0, 1.0]),
              (a, b), P.FinitePointSet(np.zeros((1, 2))), max_cycles=50)
        assert a.calls == b.calls == {"_canonical_many": 0, "_nearest_many": 0}

    def test_oracle_sweep(self):
        a, b = self.lines()
        handle = P.IntersectionHandle((a, b))
        handle.distance_many(np.random.default_rng(5).normal(size=(6, 2)))
        handle.nearest(np.ones(2))
        self.assert_points_only(a, b)

    @pytest.mark.parametrize("oracle", [False, True], ids=["exact", "oracle"])
    def test_run(self, oracle, tmp_path):
        a, b = self.lines()
        inter = P.IntersectionHandle((a, b)) if oracle else \
            P.FinitePointSet(np.zeros((1, 2)))
        ops = [P.RelaxedProjector(a, 1.0), P.SemiIntrepidProjector(b, 0.5, 0.1)]
        traj = P.run(ops, np.array([3.0, 1.0]), (), inter, max_cycles=50)
        assert traj.n_cycles > 1
        self.assert_points_only(a, b)
        traj = P.run(ops, np.array([3.0, 1.0]), (a, b), inter, max_cycles=50)
        self.assert_points_only(a, b)  # run keeps its sets but measures none
        P.export_trajectory_csv(traj, tmp_path / "trajectory.csv")
        assert a.calls["_nearest_many"] == b.calls["_nearest_many"] == 1  # the dC_j columns
