"""Closed-set catalog: exact projector values, metric invariants, normals.

Grid-oracle expectations below were computed by hand (or against
scipy.optimize.nnls for cones) before the implementations were tested.
"""

import itertools
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import nnls

import projlab as P

RNG_SEED = 777


def _cone_projection_by_faces(gens, x, feas_tol=1e-9):
    """Projection onto the cone of the rows of gens by face enumeration: for
    each generator subset, project onto its span by least squares and keep the
    nearest candidate that lies in the cone (nonnegative least-squares
    residual within feas_tol * (1 + |q|)); the apex when none is nearer."""
    best_q, best_dist = np.zeros(gens.shape[1]), float(np.linalg.norm(x))
    for size in range(1, min(gens.shape) + 1):
        for subset in itertools.combinations(range(gens.shape[0]), size):
            G = gens[list(subset)].T
            q = G @ np.linalg.lstsq(G, x, rcond=None)[0]
            dist = float(np.linalg.norm(x - q))
            if dist < best_dist - 1e-15 and \
                    nnls(gens.T, q)[1] <= feas_tol * (1.0 + np.linalg.norm(q)):
                best_q, best_dist = q, dist
    return best_q


def _catalog(dim=2):
    """Representative instances of every catalog set in R^2."""
    return [
        P.Halfspace(np.array([1.0, 0.0]), 1.0),
        P.Hyperplane(np.array([0.0, 1.0]), 2.0),
        P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]])),
        P.Ball(np.array([0.5, -0.5]), 1.5),
        P.Sphere(np.array([0.0, 0.0]), 2.0),
        P.Box(np.array([0.0, -1.0]), np.array([1.0, 1.0])),
        P.Orthant((1, -1)),
        P.PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]])),
        P.Enlargement(P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0])), 0.5),
        P.UnionOfSets(
            (
                P.Ball(np.array([-2.0, 0.0]), 0.5),
                P.Ball(np.array([2.0, 0.0]), 0.5),
            )
        ),
        P.FinitePointSet(np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 3.0]])),
        P.Translate(P.Orthant((1, 1)), np.array([1.0, 1.0])),
    ]


@pytest.fixture(params=range(12), ids=lambda i: type(_catalog()[i]).__name__)
def catalog_set(request):
    return _catalog()[request.param]


# ---------------------------------------------------------------------------
# Generic metric invariants across the whole catalog
# ---------------------------------------------------------------------------


class TestProjectionInvariants:
    def test_canonical_is_member(self, catalog_set):
        rng = np.random.default_rng(RNG_SEED)
        for x in rng.normal(scale=3.0, size=(200, 2)):
            r = catalog_set.project(x)
            assert catalog_set.contains(r.canonical, tol=1e-9)

    def test_distance_matches_canonical_gap(self, catalog_set):
        rng = np.random.default_rng(RNG_SEED + 1)
        for x in rng.normal(scale=3.0, size=(200, 2)):
            r = catalog_set.project(x)
            assert np.linalg.norm(x - r.canonical) == pytest.approx(
                r.distance, abs=1e-12
            )
            assert catalog_set.distance(x) == pytest.approx(
                r.distance, abs=1e-12
            )

    def test_idempotence(self, catalog_set):
        rng = np.random.default_rng(RNG_SEED + 2)
        for x in rng.normal(scale=3.0, size=(200, 2)):
            p = catalog_set.project(x).canonical
            p2 = catalog_set.project(p).canonical
            assert np.linalg.norm(p2 - p) <= 1e-12

    def test_optimality_against_sampled_members(self, catalog_set):
        """No sampled member of the set may be closer than the projection."""
        rng = np.random.default_rng(RNG_SEED + 3)
        members = np.array(
            [
                catalog_set.project(y).canonical
                for y in rng.normal(scale=4.0, size=(200, 2))
            ]
        )
        for x in rng.normal(scale=3.0, size=(100, 2)):
            d = catalog_set.project(x).distance
            best = np.min(np.linalg.norm(members - x, axis=1))
            assert d <= best + 1e-9

    def test_nonexpansive_distance_map(self, catalog_set):
        """|d(x) - d(y)| <= ||x - y|| (1-Lipschitz distance function)."""
        rng = np.random.default_rng(RNG_SEED + 4)
        xs = rng.normal(scale=3.0, size=(100, 2))
        ys = rng.normal(scale=3.0, size=(100, 2))
        for x, y in zip(xs, ys):
            dx = catalog_set.distance(x)
            dy = catalog_set.distance(y)
            assert abs(dx - dy) <= np.linalg.norm(x - y) + 1e-12


# ---------------------------------------------------------------------------
# Frozen projector values
# ---------------------------------------------------------------------------


class TestFrozenProjections:
    def test_halfspace(self):
        s = P.Halfspace(np.array([1.0, 0.0]), 1.0)
        r = s.project(np.array([2.0, 3.0]))
        assert np.allclose(r.canonical, [1.0, 3.0], atol=1e-15)
        assert r.distance == pytest.approx(1.0, abs=1e-15)
        # interior point is fixed
        r = s.project(np.array([0.2, -9.0]))
        assert np.allclose(r.canonical, [0.2, -9.0], atol=1e-15)
        assert r.distance == 0.0

    def test_hyperplane(self):
        s = P.Hyperplane(np.array([0.0, 1.0]), 2.0)
        r = s.project(np.array([5.0, 7.0]))
        assert np.allclose(r.canonical, [5.0, 2.0], atol=1e-15)
        assert r.distance == pytest.approx(5.0, abs=1e-15)

    def test_affine_subspace(self):
        s = P.AffineSubspaceSet(np.zeros(3), np.array([[1.0, 0.0, 0.0]]))
        r = s.project(np.array([1.0, 2.0, 3.0]))
        assert np.allclose(r.canonical, [1.0, 0.0, 0.0], atol=1e-15)
        assert r.distance == pytest.approx(math.sqrt(13.0), rel=1e-15)

    def test_ball_and_sphere(self):
        b = P.Ball(np.zeros(2), 1.0)
        r = b.project(np.array([3.0, 4.0]))
        assert np.allclose(r.canonical, [0.6, 0.8], atol=1e-15)
        assert r.distance == pytest.approx(4.0, abs=1e-14)
        # interior of the ball is fixed, but not for the sphere
        assert b.project(np.array([0.1, 0.0])).distance == 0.0
        s = P.Sphere(np.zeros(2), 2.0)
        r = s.project(np.array([3.0, 4.0]))
        assert np.allclose(r.canonical, [1.2, 1.6], atol=1e-14)
        assert r.distance == pytest.approx(3.0, abs=1e-14)
        r = s.project(np.array([0.1, 0.0]))
        assert np.allclose(r.canonical, [2.0, 0.0], atol=1e-14)
        assert r.distance == pytest.approx(1.9, abs=1e-14)

    def test_sphere_center_is_multivalued(self):
        s = P.Sphere(np.zeros(2), 2.0)
        r = s.project(np.zeros(2))
        assert r.multivalued
        assert r.distance == pytest.approx(2.0, abs=1e-15)
        assert np.linalg.norm(r.canonical) == pytest.approx(2.0, abs=1e-14)

    def test_box(self):
        s = P.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        r = s.project(np.array([2.0, -1.0]))
        assert np.allclose(r.canonical, [1.0, 0.0], atol=1e-15)
        assert r.distance == pytest.approx(math.sqrt(2.0), rel=1e-15)

    def test_orthant(self):
        s = P.Orthant((1, -1))
        r = s.project(np.array([-1.0, 1.0]))
        assert np.allclose(r.canonical, [0.0, 0.0], atol=1e-15)
        assert r.distance == pytest.approx(math.sqrt(2.0), rel=1e-15)
        r = s.project(np.array([2.0, 1.0]))
        assert np.allclose(r.canonical, [2.0, 0.0], atol=1e-15)

    def test_polyhedral_cone_frozen(self):
        s = P.PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]]))
        r = s.project(np.array([0.0, 1.0]))
        assert np.allclose(r.canonical, [0.5, 0.5], atol=1e-12)
        assert r.distance == pytest.approx(math.sqrt(0.5), rel=1e-12)
        # inside the cone: fixed
        r = s.project(np.array([2.0, 1.0]))
        assert np.allclose(r.canonical, [2.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("gens, error, message", [
        (np.zeros((0, 2)), P.DimensionMismatch, "generators must be a nonempty (k, d) array"),
        (np.array([1.0, 0.0]), P.DimensionMismatch, "generators must be a nonempty (k, d) array"),
        (np.array([[1.0, 0.0], [0.0, 0.0]]), P.DomainError, "zero generator ray"),
    ], ids=["no_rows", "one_dimensional", "zero_ray"])
    def test_polyhedral_cone_rejects_bad_generators(self, gens, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            P.PolyhedralCone(gens)

    def test_polyhedral_cone_against_nnls(self):
        """The NNLS projector agrees with an independent method, face
        enumeration, also beyond 12 generators."""
        rng = np.random.default_rng(99)
        for k, d in ((6, 4), (4, 3), (20, 3)):
            gens = rng.normal(size=(k, d))
            s = P.PolyhedralCone(gens)
            for x in rng.normal(scale=2.0, size=(30, d)):
                r = s.project(x)
                q = _cone_projection_by_faces(gens, x)
                assert r.distance == pytest.approx(np.linalg.norm(x - q), abs=1e-9)
                np.testing.assert_allclose(r.canonical, q, rtol=0.0, atol=1e-7)

    def test_enlargement_distance_law(self):
        inner = P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        tau = 0.5
        s = P.Enlargement(inner, tau)
        rng = np.random.default_rng(5)
        for x in rng.normal(scale=3.0, size=(500, 2)):
            want = max(0.0, inner.distance(x) - tau)
            assert s.distance(x) == pytest.approx(want, abs=1e-12)

    def test_union(self):
        u = P.UnionOfSets(
            (
                P.FinitePointSet(np.array([[0.0, 0.0]])),
                P.FinitePointSet(np.array([[3.0, 0.0]])),
            )
        )
        r = u.project(np.array([1.0, 0.0]))
        assert np.allclose(r.canonical, [0.0, 0.0], atol=1e-15)
        r = u.project(np.array([1.5, 0.0]))
        assert r.multivalued
        assert len(r.minimizers) == 2

    def test_finite_points(self):
        s = P.FinitePointSet(np.array([[0.0, 0.0], [2.0, 0.0]]))
        r = s.project(np.array([0.9, 5.0]))
        assert np.allclose(r.canonical, [0.0, 0.0], atol=1e-15)
        r = s.project(np.array([1.0, 3.0]))
        assert r.multivalued
        assert len(r.minimizers) == 2

    def test_finite_points_tie_keeps_the_canonical_point(self):
        """(0, 1e-13) and (0, 0) tie within TIE_TOL; the tie keeps its
        lexicographically smallest point, which is the canonical one."""
        s = P.FinitePointSet(np.array([[0.0, 1e-13], [0.0, 0.0]]))
        r = s.project(np.array([5.0, 0.0]))
        assert r.canonical.tolist() == [0.0, 0.0]
        assert [m.tolist() for m in r.minimizers] == [[0.0, 0.0]]
        normals = P.Enlargement(s, 1.0).normal_generators(np.array([1.0, 0.0]))
        assert [u.tolist() for u in normals] == [[1.0, 0.0]]

    def test_translate_shift_identity(self):
        inner = P.Ball(np.zeros(2), 1.0)
        shift = np.array([5.0, 0.0])
        s = P.Translate(inner, shift)
        rng = np.random.default_rng(6)
        for x in rng.normal(scale=3.0, size=(100, 2)):
            r = s.project(x)
            want = inner.project(x - shift).canonical + shift
            assert np.allclose(r.canonical, want, atol=1e-12)

    @pytest.mark.parametrize("tag", sorted(P.sets.SET_TYPES))
    def test_one_projection_formula_per_set(self, tag):
        """Each class body binds `project` to the one-row call of its batched
        minimizer list, and `distance` and `contains` stay the base class's,
        where code that wraps each set type's methods finds them; the per-set
        tie masks and the shared distance alias are gone."""
        cls = P.sets.SET_TYPES[tag]
        assert cls.__dict__["project"] is P.sets._one_row_project
        assert {"distance", "contains"} <= set(P.sets.ClosedSet.__dict__)
        assert not hasattr(cls, "_sole_minimizer_many")
        assert not hasattr(P.sets, "_with_distance")


# The convex flag of _catalog()'s instance of each type.  A new set type
# fails test_every_type_declares_its_flag until it is listed here.
CONVEX_BY_TAG = {
    "halfspace": True, "hyperplane": True, "affine": True, "ball": True, "sphere": False,
    "box": True, "orthant": True, "cone": True,
    "enlargement": True,     # of a box
    "union": False,          # of two disjoint balls
    "finite_points": False,  # three points
    "translate": True,       # of an orthant
}


class TestConvexFlag:
    def test_every_type_declares_its_flag(self):
        assert sorted(CONVEX_BY_TAG) == sorted(P.sets.SET_TYPES)
        assert {s.tag: s.convex for s in _catalog()} == CONVEX_BY_TAG

    def test_derived_flags(self):
        e = np.eye(2)
        sphere, ball = P.Sphere(np.zeros(2), 1.0), P.Ball(np.zeros(2), 1.0)
        point, two = P.FinitePointSet(e[:1]), P.FinitePointSet(e)
        cases = [
            (P.FinitePointSet(np.vstack([e[0], e[0], e[0]])), True),  # one distinct point
            (P.Enlargement(point, 0.5), True),
            (P.Enlargement(two, 0.5), False),
            (P.Enlargement(sphere, 0.5), False),
            (P.Translate(sphere, e[0]), False),
            (P.Translate(P.Translate(ball, e[0]), e[1]), True),
            (P.UnionOfSets((ball,)), False),
            (P.IntersectionHandle((ball, P.Halfspace(e[0], 0.0))), True),
            (P.IntersectionHandle((ball, sphere)), False),
        ]
        for s, convex in cases:
            assert s.convex is convex, s

    def test_custom_subclass_defaults_to_false(self):
        class Line(P.ClosedSet):
            dim = 2

        assert P.ClosedSet.convex is False and Line().convex is False


# ---------------------------------------------------------------------------
# Proximal normals
# ---------------------------------------------------------------------------


class TestProximalNormals:
    @pytest.mark.parametrize(
        "s, p",
        [
            (P.Halfspace(np.array([1.0, 0.0]), 1.0), np.array([1.0, 3.0])),
            (P.Ball(np.zeros(2), 1.0), np.array([0.0, 1.0])),
            (P.Sphere(np.zeros(2), 1.0), np.array([0.0, 1.0])),
            (
                P.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0])),
                np.array([1.0, 1.0]),
            ),
            (P.Orthant((1, 1)), np.array([0.0, 0.0])),
        ],
        ids=["halfspace", "ball", "sphere", "box-corner", "orthant-origin"],
    )
    def test_normals_project_back(self, s, p):
        """Stepping from p along a proximal normal u and projecting returns p."""
        normals = P.proximal_normals(s, p)
        assert normals
        for u in normals:
            assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)
            for t in (1e-6, 1e-3):
                back = s.project(p + t * u).canonical
                assert np.linalg.norm(back - p) <= 10.0 * t * 1e-3 + 1e-12

    def test_box_corner_in_16d_lists_every_normal(self):
        """All 16 generators at a corner, in coordinate order; the sampled
        analyses take the first k of the same list."""
        corner = np.array([1.0, -1.0] * 8)
        box = P.Box(-np.ones(16), np.ones(16))
        assert np.array_equal(np.array(P.proximal_normals(box, corner)), np.diag(corner))
        first, mask = P.analysis._closed_form_normals(box, corner[None, :], 8)
        assert mask.all() and np.array_equal(first[0], np.diag(corner)[:8])

    def test_sphere_normal_at_center_raises(self):
        s = P.Sphere(np.array([1.0, -2.0]), 1.5)
        with pytest.raises(P.DomainError, match="center"):
            s.normal_generators(np.array([1.0, -2.0]))

    def test_interior_point_has_no_normals(self):
        s = P.Ball(np.zeros(2), 1.0)
        assert P.proximal_normals(s, np.array([0.1, 0.0])) == []

    @pytest.mark.parametrize("tag", sorted(P.sets.SET_TYPES))
    def test_one_normal_formula_per_set(self, tag):
        """Each normal cone is written once: no variant defines the scalar
        `normal_generators`, which stays the base class's one-row call.  A
        variant whose cone changes from member to member lists it, batched,
        in `normal_generators_many` (a translate forwards it); an affine
        variant writes only `_normal_cone`, from which the base class derives
        the list; a union writes neither."""
        cls = P.sets.SET_TYPES[tag]
        assert "normal_generators" not in cls.__dict__
        listed = {"halfspace", "ball", "sphere", "box", "orthant", "cone", "enlargement",
                  "translate"}
        derived = {"hyperplane", "affine", "finite_points"}
        assert ("normal_generators_many" in cls.__dict__) == (tag in listed)
        assert ("_normal_cone" in cls.__dict__) == (tag in derived | {"halfspace", "translate"})


# ---------------------------------------------------------------------------
# Obtuse-cone classification
# ---------------------------------------------------------------------------


class TestBareClosedSet:
    def test_project_is_left_to_subclasses(self):
        class Bare(P.ClosedSet):
            dim = 2

        with pytest.raises(NotImplementedError):
            Bare().project(np.zeros(2))


class TestObtuseCone:
    def test_orthant_is_obtuse(self):
        out = P.is_obtuse_cone(P.Orthant((1, 1)))
        assert out["obtuse"]
        assert out["violations"] == 0

    def test_halfplane_cone_is_obtuse(self):
        halfplane = P.PolyhedralCone(
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, -1.0]])
        )
        out = P.is_obtuse_cone(halfplane)
        assert out["obtuse"]
        assert out["violations"] == 0

    def test_translated_orthant_unwraps(self):
        out = P.is_obtuse_cone(
            P.Translate(P.Orthant((1, 1)), np.array([2.0, -1.0]))
        )
        assert out["obtuse"]

    def test_ray_is_not_obtuse(self):
        out = P.is_obtuse_cone(P.PolyhedralCone(np.array([[1.0, 0.0]])))
        assert not out["obtuse"]
        assert out["violations"] > 0

    def test_orthant_polar_rays_skip_free_coordinates(self):
        """The polar of an orthant is spanned by -(s_i e_i) over s_i != 0, each
        built with the signed zeros of that product; a free coordinate adds
        no ray."""
        signs = (1, 0, -1, 0)
        want = []
        for i, s in enumerate(signs):
            if s != 0:
                e = np.zeros(4)
                e[i] = float(s)
                want.append(-e)
        got = P.Orthant(signs).polar_generators()
        assert len(got) == len(want) == 2
        for g, w in zip(got, want):
            assert np.array_equal(g, w) and np.array_equal(np.signbit(g), np.signbit(w))
        assert P.Orthant((0, 0)).polar_generators() == []

    @pytest.mark.parametrize("signs, drawn", [((1, 0), 11), ((0, 0), 0), ((1, -1), 12)],
                             ids=["one_free", "all_free", "none_free"])
    def test_orthant_draws_only_polar_directions(self, signs, drawn):
        """samples=10 draws the polar rays plus 10 mixtures of them: one ray
        for (1, 0), none for (0, 0), whose polar is {0}."""
        out = P.is_obtuse_cone(P.Orthant(signs), samples=10)
        assert out["samples"] == drawn
        assert out["obtuse"] and out["violations"] == 0

    def test_cone_polar_enumeration_is_bounded_to_dimension_four(self):
        cone = P.PolyhedralCone(np.eye(5))
        with pytest.raises(P.UnsupportedSet, match="dimension <= 4"):
            cone.polar_generators()
        with pytest.raises(P.UnsupportedSet, match="dimension <= 4"):
            P.is_obtuse_cone(cone)
        assert len(P.PolyhedralCone(np.eye(4)).polar_generators()) == 4

    def test_near_dependent_generators_raise(self):
        """For G = (1e-8, 3, 0), (0, 1, 0), (1, 0, 1) the enumeration's fixed
        cut-offs list (-0.7071, 2.1e-9, 0.7071), which leaves the polar cone
        (<r, g_2> = 2.1e-9), and miss (0, 0, -1); the normal cone at
        (1, 1, 1) came out empty.  Every entry that reads the rays raises."""
        cone = P.PolyhedralCone(np.array([[1e-8, 3.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 1.0]]))
        for call in (cone.polar_generators, lambda: cone.normal_generators(np.ones(3)),
                     lambda: P.is_obtuse_cone(cone)):
            with pytest.raises(P.UnsupportedSet, match="too close to dependent"):
                call()

    @pytest.mark.parametrize("scale", [1e-10, 0.75, 1e10])
    def test_polar_rays_do_not_depend_on_the_cone_scale(self, scale):
        """The quadrant generated by scale e_1 and scale e_2 has the unit
        quadrant's polar rays (0, -1) and (-1, 0), bit for bit, however
        small its generators: the enumeration's absolute cut-offs read them
        scaled to a longest generator in [0.5, 1)."""
        cone = P.PolyhedralCone(scale * np.eye(2))
        rays, unit = (np.array(c.polar_generators()) for c in (cone, P.PolyhedralCone(np.eye(2))))
        assert rays.tobytes() == unit.tobytes() and np.array_equal(rays, [[0.0, -1.0], [-1.0, 0.0]])
        assert np.array_equal(cone.normal_generators(np.array([0.0, 1.0])), [[-1.0, 0.0]])
        assert P.is_obtuse_cone(cone)["obtuse"]

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda d: st.lists(
        arrays(float, d, elements=st.floats(-4.0, 4.0, allow_subnormal=False)).filter(
            lambda g: np.linalg.norm(g) > 1e-3), min_size=1, max_size=6)))
    def test_listed_polar_rays_lie_in_the_polar_cone(self, gens):
        """Each listed ray r has <r, g> <= 1e-9 for every unit generator g,
        or the enumeration raises."""
        G = np.array(gens)
        try:
            rays = np.reshape(P.PolyhedralCone(G).polar_generators(), (-1, G.shape[1]))
        except P.UnsupportedSet:
            return
        units = G / np.linalg.norm(G, axis=1)[:, None]
        assert np.all(rays @ units.T <= 1e-9)
        assert np.allclose(np.linalg.norm(rays, axis=1), 1.0)


# ---------------------------------------------------------------------------
# Membership and config round-trip
# ---------------------------------------------------------------------------


class TestMembershipAndConfig:
    def test_membership_examples(self):
        assert P.Ball(np.zeros(2), 1.0).contains(np.array([0.5, 0.0]))
        assert not P.Ball(np.zeros(2), 1.0).contains(np.array([2.0, 0.0]))
        assert P.Sphere(np.zeros(2), 1.0).contains(np.array([0.0, 1.0]))
        assert not P.Sphere(np.zeros(2), 1.0).contains(np.array([0.0, 0.5]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        pytest.param(lambda v: P.Ball(np.zeros(2), v), id="ball_radius"),
        pytest.param(lambda v: P.Sphere(np.zeros(2), v), id="sphere_radius"),
        pytest.param(lambda v: P.Halfspace(np.array([1.0, 0.0]), v), id="halfspace_b"),
        pytest.param(lambda v: P.Hyperplane(np.array([1.0, 0.0]), v), id="hyperplane_b"),
        pytest.param(lambda v: P.Enlargement(P.Ball(np.zeros(2), 1.0), v), id="enlargement_tau"),
    ])
    def test_nonfinite_scalars_are_rejected(self, build, bad):
        with pytest.raises(P.DomainError, match=r"must lie in .*inf\), got"):
            build(bad)

    @pytest.mark.parametrize("scale, got", [(1e200, "inf"), (1e-160, "1e-320")],
                             ids=["overflow", "subnormal"])
    @pytest.mark.parametrize("cls", [P.Halfspace, P.Hyperplane], ids=["halfspace", "hyperplane"])
    def test_normal_with_an_unusable_squared_norm_is_rejected(self, cls, scale, got):
        """Every projection divides by ||a||^2.  Overflowed, it read (1, 1)
        as a member of {x = 0}; subnormal, it projected (1, 1) to
        (-1.1e-5, 1), no member.  The check raises no warning, and from a
        config it is a ConfigError at the set's key path."""
        message = (rf"{cls.tag} squared normal norm must lie in \[2.225073858507201e-308, "
                   rf"inf\), got {got}$")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(P.DomainError, match="^" + message):
                cls(np.array([scale, 0.0]), 0.0)
        cfg = {"type": "translate", "shift": [0.0, 0.0],
               "inner": {"type": cls.tag, "a": [scale, 0.0], "b": 0.0}}
        with pytest.raises(P.ConfigError, match="^inner: " + message):
            P.set_from_config(cfg)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    @pytest.mark.parametrize("cls", [P.Halfspace, P.Hyperplane], ids=["halfspace", "hyperplane"])
    def test_normals_near_the_float_range_still_project(self, cls, scale):
        s = cls(np.array([scale, 0.0]), 0.0)
        res = s.project(np.ones(2))
        assert res.canonical == pytest.approx([0.0, 1.0], abs=1e-15)
        assert res.distance == pytest.approx(1.0, rel=1e-15)
        assert s.contains(res.canonical) and not s.contains(np.ones(2))

    @pytest.mark.parametrize("signs", [(0.5, 1), (-1.9, 1), (1, math.nan)],
                             ids=["half", "minus_1_9", "nan"])
    def test_orthant_signs_are_not_truncated(self, signs):
        """int() read 0.5 as a free coordinate and -1.9 as -1."""
        with pytest.raises(P.DomainError, match=r"orthant sign must be a whole number"):
            P.Orthant(signs)

    @pytest.mark.parametrize("build", [
        pytest.param(lambda: P.Ball(np.zeros(0), 1.0), id="ball"),
        pytest.param(lambda: P.Sphere(np.zeros(0), 1.0), id="sphere"),
        pytest.param(lambda: P.Box([], []), id="box"),
        pytest.param(lambda: P.AffineSubspaceSet(np.zeros(0), np.zeros((0, 0))), id="affine"),
        pytest.param(lambda: P.FinitePointSet(np.zeros((1, 0))), id="finite_points"),
        pytest.param(lambda: P.Orthant(()), id="orthant"),
    ])
    def test_zero_dimensional_sets_are_rejected(self, build):
        """Each constructor stores its dimension through one rule that
        rejects 0."""
        with pytest.raises(P.DomainError, match=r"needs dimension at least 1$"):
            build()

    def test_uniform_ball_needs_a_center(self):
        with pytest.raises(P.DomainError, match=r"needs dimension at least 1$"):
            P.uniform_ball(np.random.default_rng(0), [], 1.0, 3)

    def test_whole_float_signs_parse(self):
        assert P.Orthant((1.0, -1.0, 0.0)).signs == (1, -1, 0)

    @pytest.mark.parametrize("call, error, message", [
        pytest.param(lambda: P.Box([0.0, 1.0], [1.0, 0.0]), P.DomainError,
                     "box lower bound exceeds upper bound", id="box_bounds"),
        pytest.param(lambda: P.Orthant((1, 2)), P.DomainError,
                     "orthant signs must be -1, 0 or +1", id="orthant_signs"),
        pytest.param(lambda: P.AffineSubspaceSet(np.zeros(2), np.ones((1, 3))), P.DimensionMismatch,
                     "basis rows must match anchor dimension", id="affine_basis_shape"),
        pytest.param(lambda: P.AffineSubspaceSet(np.zeros(2), np.ones((1, 2))), P.DomainError,
                     "basis rows must be orthonormal", id="affine_basis_orthonormal"),
        pytest.param(lambda: P.FinitePointSet(np.zeros((0, 2))), P.DimensionMismatch,
                     "points must be a nonempty (n, d) array", id="finite_points_shape"),
        pytest.param(lambda: P.proximal_normals(P.Ball(np.zeros(2), 1.0), [2.0, 0.0]),
                     P.DomainError, "normal cone requested at a point outside the set",
                     id="proximal_normals_off_the_set"),
        pytest.param(lambda: P.is_obtuse_cone(P.Ball(np.zeros(2), 1.0)), P.UnsupportedSet,
                     "obtuseness is defined for Orthant/PolyhedralCone variants",
                     id="obtuse_ball"),
    ])
    def test_errors_name_what_is_wrong(self, call, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            call()

    def test_set_config_round_trip(self, catalog_set):
        cfg = catalog_set.to_config()
        rebuilt = P.set_from_config(cfg)
        rng = np.random.default_rng(11)
        for x in rng.normal(scale=3.0, size=(50, 2)):
            a = catalog_set.project(x)
            b = rebuilt.project(x)
            assert np.allclose(a.canonical, b.canonical, atol=1e-14)
            assert a.distance == pytest.approx(b.distance, abs=1e-14)


# ---------------------------------------------------------------------------
# Hot kernels call the compiled routines: the same bits as the public calls
# ---------------------------------------------------------------------------


def _cone_problem(rng):
    """A cone projection's NNLS problem: A = G^T, C-contiguous, for k
    standard normal generators in R^d (d 1-8, k 1-10), b scaled by 1e-6 to
    1e6."""
    d, k = int(rng.integers(1, 9)), int(rng.integers(1, 11))
    A = np.ascontiguousarray(rng.standard_normal((k, d)).T)
    return A, rng.standard_normal(d) * 10.0 ** rng.uniform(-6.0, 6.0)


def _simplex_problem(rng):
    """`_simplex_min_norm`'s weighted (d + 1, k) problem for unit columns."""
    d, k = int(rng.integers(1, 9)), int(rng.integers(1, 11))
    G = rng.standard_normal((d, k))
    G /= np.linalg.norm(G, axis=0)
    w = P.analysis._SIMPLEX_WEIGHT
    return np.vstack([G, np.full(k, w)]), np.append(np.zeros(d), w)


@pytest.fixture
def fresh_solver():
    """Look the NNLS routine up again inside the test and once more after it,
    so a monkeypatched scipy reaches `_nnls` and leaves it afterwards."""
    P.sets._nnls.cache_clear()
    yield
    P.sets._nnls.cache_clear()


class TestCompiledKernels:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from([_cone_problem, _simplex_problem]))
    def test_direct_nnls_matches_scipy_bit_for_bit(self, seed, problem):
        """The solver `_nnls` returns gives `scipy.optimize.nnls`'s solution
        and residual bits, on cone-shaped and simplex-shaped problems."""
        rng = np.random.default_rng(seed)
        for _ in range(20):
            A, b = problem(rng)
            x, rnorm = P.sets._nnls()(A, b)
            want_x, want_rnorm = nnls(A, b)
            assert x.tobytes() == want_x.tobytes() and rnorm == want_rnorm

    def test_without_the_routine_the_public_nnls_keeps_the_bits(self, monkeypatch,
                                                                fresh_solver):
        """Where scipy has no compiled routine to call, `_nnls` is the public
        `nnls`, and cone projections and simplex minima keep their bits."""
        import scipy.optimize

        rng = np.random.default_rng(RNG_SEED)
        cones = [P.PolyhedralCone(rng.standard_normal((k, d)))
                 for d, k in ((2, 3), (3, 1), (5, 8))]
        points = [rng.standard_normal((7, c.dim)) * 10.0 ** rng.uniform(-3, 3, (7, 1))
                  for c in cones]
        mats = [_simplex_problem(rng)[0][:-1] for _ in range(20)]

        def outputs():
            return ([c.project_many(X).tobytes() for c, X in zip(cones, points)]
                    + [c.project(X[0]).canonical.tobytes() for c, X in zip(cones, points)]
                    + [(t.tobytes(), low) for t, low in map(P.analysis._simplex_min_norm, mats)])

        assert P.sets._nnls() is not scipy.optimize.nnls
        direct = outputs()
        monkeypatch.setitem(sys.modules, "scipy.optimize._nnls", None)  # import fails
        P.sets._nnls.cache_clear()
        assert P.sets._nnls() is scipy.optimize.nnls
        assert outputs() == direct

    def test_reaching_maxiter_raises_scipys_error(self, monkeypatch, fresh_solver):
        """A routine that reports info 3 raises the wrapper's RuntimeError."""
        import scipy.optimize._nnls as scipy_nnls

        monkeypatch.setattr(scipy_nnls, "_nnls", lambda A, b, maxiter: (np.zeros(A.shape[1]),
                                                                       0.0, 3))
        A, b = np.eye(2), np.ones(2)
        with pytest.raises(RuntimeError) as public:
            nnls(A, b)
        with pytest.raises(RuntimeError, match=r"^Maximum number of iterations reached\.$") \
                as direct:
            P.sets._nnls()(A, b)
        assert str(direct.value) == str(public.value)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_one_row_dots_equal_their_np_dot_forms(self, seed):
        """A one-row affine projection and `run`'s iterate norm give the bits
        of their np.dot forms."""
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 17))
        basis = np.linalg.qr(rng.standard_normal((d, int(rng.integers(0, d + 1)))))[0].T
        s = P.AffineSubspaceSet(rng.standard_normal(d), basis)
        x = rng.standard_normal(d) * 10.0 ** rng.uniform(-6.0, 6.0)
        v = x - s.anchor
        want = s.anchor + np.dot(s.basis.T, np.dot(s.basis, v))
        assert s._canonical_many(x[None, :])[0].tobytes() == want.tobytes()
        assert math.sqrt(x.dot(x)) == math.sqrt(np.dot(x, x)) == P.sets.row_norms(x[None, :])[0]
