"""Batched oracles: project_many, distance_many and apply_many agree row by
row with the scalar project, distance and apply, tie rules included, and
reject malformed batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import projlab as P
from projlab import DimensionMismatch, DomainError, UnsupportedSet, analysis
from projlab.analysis import margin_report

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
    """tau = 0 included: the enlargement is then its inner set."""
    inner, X = draw(st.one_of(ball_case(), box_case(), finite_points_case(), halfspace_case()))
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


@pytest.mark.parametrize("tag", sorted(CASES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_batched_oracles_match_scalar(tag, data):
    s, X = data.draw(CASES[tag])
    assert type(s).tag == tag
    P_many, D_many = s.project_many(X), s.distance_many(X)
    assert P_many.shape == X.shape and D_many.shape == (X.shape[0],)
    for x, p, dist in zip(X, P_many, D_many):
        np.testing.assert_allclose(p, s.project(x).canonical, rtol=0.0, atol=TOL)
        assert abs(dist - s.distance(x)) <= TOL


def _rows_match_scalar(s, X):
    """normal_generators_many(X) against normal_generators of each row:
    same directions, bit for bit, in the same order, a prefix mask, zero
    padding and k the longest row."""
    dirs, mask = s.normal_generators_many(X)
    rows = [s.normal_generators(x) for x in X]
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
        [s.normal_generators(x) for x in members]
    except UnsupportedSet:
        if members.shape[0]:
            with pytest.raises(UnsupportedSet):
                s.normal_generators_many(members)
        return
    _rows_match_scalar(s, members)


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
        P.PolyhedralCone(np.eye(4) + 0.1),
        P.Ball(np.zeros(3), 0.0),
    ], ids=["union", "finite_points", "cone_d4", "zero_radius_ball"])
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

    def test_default_loop_serves_a_custom_set(self):
        s = _ChainSet(2)
        dirs, mask = s.normal_generators_many(np.zeros((2, 2)))
        assert mask.all() and np.array_equal(dirs[1], np.array(s.chain))


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
    pool = [P.Ball(draw(vectors(d)), 1.0), P.Sphere(draw(vectors(d)), 1.5),
            P.Hyperplane(draw(nonzero(d)), 0.5),
            P.Orthant(tuple(draw(st.lists(st.sampled_from([-1, 0, 1]),
                                          min_size=d, max_size=d))))]
    a, b = draw(st.sampled_from(pool)), draw(st.sampled_from(pool))
    params = (draw(st.floats(0.01, 2.0)), draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 2.0)))
    X = draw(batches(d))
    # rows already in the set: a semi-intrepid step stays put there
    return a, b, params, np.vstack([X, a.project_many(X)])


@pytest.mark.parametrize("kind", ["relaxed", "semi_intrepid", "generalized_dr"])
@settings(max_examples=60, deadline=None)
@given(case=operator_case())
def test_apply_many_matches_apply(kind, case):
    a, b, params, X = case
    op = _operator(kind, a, b, params)
    Y = op.apply_many(X)
    assert Y.shape == X.shape
    for x, y in zip(X, Y):
        np.testing.assert_allclose(y, op.apply(x), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("bad, error", [
    (np.zeros(2), DimensionMismatch),
    (np.zeros((3, 3)), DimensionMismatch),
    (np.zeros((2, 2, 2)), DimensionMismatch),
    (np.array([[0.0, np.nan]]), DomainError),
    (np.array([[np.inf, 0.0]]), DomainError),
])
def test_malformed_batches_raise(bad, error):
    s = P.UnionOfSets((P.Ball(np.zeros(2), 1.0), P.Sphere(np.ones(2), 1.0)))
    handle = P.exact_intersection(P.FinitePointSet(np.zeros((1, 2))))
    for call in (s.project_many, s.distance_many, P.RelaxedProjector(s, 1.0).apply_many,
                 P.PolyhedralCone(np.eye(2)).project_many, handle.distance_many,
                 P.oracle_intersection((s,)).distance_many):
        with pytest.raises(error):
            call(bad)


def test_intersection_batches_match_scalar():
    a, b = P.Ball(np.zeros(2), 1.0), P.Halfspace(np.array([1.0, 1.0]), 0.0)
    X = np.random.default_rng(3).normal(scale=2.0, size=(20, 2))
    for handle in (P.exact_intersection(P.FinitePointSet(np.zeros((1, 2))), (a, b)),
                   P.oracle_intersection((a, b))):
        np.testing.assert_array_equal(handle.distance_many(X),
                                      [handle.distance(x) for x in X])
        np.testing.assert_array_equal(handle.project_many(X), [handle.nearest(x) for x in X])


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
        handle = P.oracle_intersection(members)
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
        P.oracle_intersection((counting, b)).project_many(X)
        assert counting.rows[0] == 6 and max(counting.rows[1:]) == 2

    def test_empty_batch(self):
        handle = P.oracle_intersection(_circles())
        assert handle.project_many(np.zeros((0, 2))).shape == (0, 2)
        assert handle.distance_many(np.zeros((0, 2))).shape == (0,)


class TestMarginReport:
    def test_worst_first_witness_and_violations(self):
        rep = margin_report("demo", [0.5, -1.0, -1.0, -2e-10], lambda i: i, 7, 1e-9, {})
        assert (rep.samples, rep.violations, rep.worst_margin, rep.witness) == (4, 2, -1.0, 1)
        assert rep.seed == 7 and not rep.passed

    def test_no_margins(self):
        rep = margin_report("demo", [], lambda i: i, 0, 1e-9, {}, samples=3, empty_margin=0.0)
        assert (rep.samples, rep.violations, rep.worst_margin, rep.witness) == (3, 0, 0.0, None)
        assert margin_report("demo", [], lambda i: i, 0, 1e-9, {}).worst_margin == np.inf


# ---------------------------------------------------------------------------
# normal pools and the eps site loop against the per-point code they replace


def _closed_form_reference(s, p, k):
    try:
        return s.normal_generators(p)[:k]
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
        return self._single(x, x)

    def normal_generators(self, p):
        return [u.copy() for u in self.chain]


class TestNormalArrays:
    @pytest.mark.parametrize("name, s, w", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_pool_matches_reference(self, name, s, w):
        for budget in (16, 75):
            pool = analysis._normal_pool(s, w, 0.5, np.random.default_rng(budget), budget)
            ref = _normal_pool_reference(s, w, 0.5, np.random.default_rng(budget), budget)
            assert _same_bits(pool, np.reshape(ref, (-1, s.dim)))

    @pytest.mark.parametrize("name, s, w", NORMAL_CASES, ids=[c[0] for c in NORMAL_CASES])
    def test_eps_matches_reference(self, name, s, w):
        """Sample counts 1-3 make one-, two- and three-row products; the
        others cover every pair count mod 4."""
        for samples in (1, 2, 3, 37, 38, 39, 40, 150):
            est = P.estimate_eps_regularity(s, w, 0.6, samples=samples, seed=samples)
            eps, pairs = _eps_reference(s, w, 0.6, samples, samples)
            assert (est.value.hex(), est.extra["pairs"]) == (eps.hex(), pairs)

    def test_eps_matches_reference_on_given_points(self):
        s = P.Sphere(np.zeros(3), 1.0)
        w = np.array([0.0, 0.0, 1.0])
        pts = w + np.random.default_rng(4).normal(scale=0.1, size=(45, 3))
        for n in (1, 2, 3, 4, 5, 45):
            est = P.estimate_eps_regularity(s, w, 0.6, points=pts[:n])
            eps, pairs = _eps_reference(s, w, 0.6, n, 0, points=pts[:n])
            assert (est.value.hex(), est.extra["pairs"]) == (eps.hex(), pairs)

    def test_chunking_keeps_the_result(self, monkeypatch):
        """Chunks of 1, 2, 3, 5 and 7 sites: 150 sites leave a partial chunk."""
        s, w = P.Sphere(np.zeros(3), 1.0), np.array([1.0, 0.0, 0.0])
        whole = P.estimate_eps_regularity(s, w, 0.6, samples=150, seed=9)
        assert whole.value > 0.0
        per_site = 8 * 152 * (3 + 2 * 3)  # 151 rows padded to 152, d = 3, 3 normals
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
        def scalar_call(self, p):
            raise AssertionError(f"scalar normal_generators on {type(self).__name__}")

        for cls in CLOSED_FORM_TYPES:
            monkeypatch.setattr(cls, "normal_generators", scalar_call)
        for name, s, w in NORMAL_CASES:
            if not name.startswith("enlarged"):
                analysis._normal_pool(s, w, 0.5, np.random.default_rng(0), 40)
                P.estimate_eps_regularity(s, w, 0.6, samples=40)
