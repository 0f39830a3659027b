"""Batched oracles: project_many, distance_many and apply_many agree row by
row with the scalar project, distance and apply, tie rules included, and
reject malformed batches."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import projlab as P
from projlab import DimensionMismatch, DomainError
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
        np.testing.assert_array_equal(handle.nearest_many(X), [handle.nearest(x) for x in X])


class TestMarginReport:
    def test_worst_first_witness_and_violations(self):
        rep = margin_report("demo", [0.5, -1.0, -1.0, -2e-10], lambda i: i, 7, 1e-9, {})
        assert (rep.samples, rep.violations, rep.worst_margin, rep.witness) == (4, 2, -1.0, 1)
        assert rep.seed == 7 and not rep.passed

    def test_no_margins(self):
        rep = margin_report("demo", [], lambda i: i, 0, 1e-9, {}, samples=3, empty_margin=0.0)
        assert (rep.samples, rep.violations, rep.worst_margin, rep.witness) == (3, 0, 0.0, None)
        assert margin_report("demo", [], lambda i: i, 0, 1e-9, {}).worst_margin == np.inf
