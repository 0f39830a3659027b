"""Sampled property checks and regularity estimators.

Closed-form oracles: two lines meeting at angle theta have linear-regularity
modulus 1/sin(theta/2) and normal-cone alignment cos(theta); for pairs of
halfspaces through the origin the degeneracy constant is sin of half the
angle between the outward normals.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import projlab as P
from projlab import DomainError
from projlab import analysis
from projlab.sets import row_norms

from conftest import given_draws, two_lines


# ---------------------------------------------------------------------------
# quasi firm Fejer monotonicity
# ---------------------------------------------------------------------------


class TestQuasiFirmFejer:
    def test_projector_onto_halfspace(self):
        s = P.Halfspace(np.array([1.0, 0.0]), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        rep = P.check_quasi_firm_fejer(
            op, s, 1.0, 1.0, np.array([1.0, 0.0]), 1.0, samples=800, seed=0
        )
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-9

    def test_reflector_constants(self):
        s = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        op = P.RelaxedProjector(s, 2.0)
        rep = P.check_quasi_firm_fejer(
            op, s, 1.0, 0.0, np.array([0.3, 0.0]), 1.0, samples=800, seed=1
        )
        assert rep.violations == 0

    def test_overstated_beta_is_caught(self):
        """beta = 3 overstates the projector's contraction: must fail."""
        s = P.Halfspace(np.array([1.0, 0.0]), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        rep = P.check_quasi_firm_fejer(
            op, s, 1.0, 3.0, np.array([1.0, 0.0]), 1.0, samples=800, seed=0
        )
        assert rep.violations > 0
        assert rep.worst_margin < 0
        assert rep.witness is not None

    def test_constant_domains(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        with pytest.raises(DomainError):
            P.check_quasi_firm_fejer(op, s, 0.0, 1.0, np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            P.check_quasi_firm_fejer(op, s, 1.0, -0.1, np.zeros(2), 1.0)

    def test_oracle_intersection_as_refset(self):
        """Reference points may come from the cyclic-projection fallback: two
        planes of R^3 sharing the z-axis, projector onto the first."""
        c, s = math.cos(math.pi / 4), math.sin(math.pi / 4)
        a = P.AffineSubspaceSet(np.zeros(3), np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        b = P.AffineSubspaceSet(np.zeros(3), np.array([[c, s, 0.0], [0.0, 0.0, 1.0]]))
        op = P.RelaxedProjector(a, 1.0)
        handle = P.IntersectionHandle((a, b))
        w = np.array([0.0, 0.0, 0.5])
        rep = P.check_quasi_firm_fejer(op, handle, 1.0, 1.0, w, 1.0, samples=400, seed=3)
        assert rep.samples == 400 and rep.violations == 0
        assert P.check_quasi_firm_fejer(op, handle, 1.0, 3.0, w, 1.0, samples=400,
                                        seed=3).violations > 0

    def test_deterministic_given_seed(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.5)
        a = P.check_quasi_firm_fejer(
            op, s, 1.0, 1.0 / 3.0, np.zeros(2), 1.0, samples=300, seed=7
        )
        b = P.check_quasi_firm_fejer(
            op, s, 1.0, 1.0 / 3.0, np.zeros(2), 1.0, samples=300, seed=7
        )
        assert a.worst_margin == b.worst_margin
        assert a.violations == b.violations


# ---------------------------------------------------------------------------
# quasi coercivity
# ---------------------------------------------------------------------------


class TestQuasiCoercive:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
    def test_relaxed_projector_step_equals_lambda_distance(self, lam):
        s = P.Halfspace(np.array([1.0, 0.0]), 0.0)
        op = P.RelaxedProjector(s, lam)
        rep = P.check_quasi_coercive(
            op, s, lam, np.zeros(2), 2.0, samples=500, seed=3
        )
        assert rep.violations == 0
        assert rep.extra["max_abs_gap"] <= 1e-12

    def test_overstated_nu_is_caught(self):
        s = P.Halfspace(np.array([1.0, 0.0]), 0.0)
        op = P.RelaxedProjector(s, 1.0)
        rep = P.check_quasi_coercive(
            op, s, 1.5, np.zeros(2), 2.0, samples=500, seed=3
        )
        assert rep.violations > 0

    def test_nu_domain(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        with pytest.raises(DomainError):
            P.check_quasi_coercive(op, s, 0.0, np.zeros(2), 1.0)


# ---------------------------------------------------------------------------
# injectability
# ---------------------------------------------------------------------------


def _grid_injectable(s, tau, w, delta, samples, seed):
    """The injectability check with 20 evenly spaced probes per segment on
    every set: the reference the two-end rule must match."""
    xs = analysis.uniform_ball(np.random.default_rng(seed), w, delta, samples)
    ps = s.project_many(xs)
    gaps = ps - xs
    n = row_norms(gaps)
    moved = n > 1e-12
    units = gaps[moved] / n[moved, None]
    depths = np.linspace(0.0, 1.0, 20) * tau
    probes = ps[moved, None, :] + depths[:, None] * units[:, None, :]
    dists = s.distance_many(probes.reshape(-1, s.dim)).reshape(probes.shape[:2])
    margins = np.zeros(samples)
    margins[moved] = -dists.max(axis=1)
    return analysis.margin_report("injectable", margins, lambda i: (xs[i].copy(), ps[i].copy()),
                                  seed, analysis.CHECK_TOL, {"tau": tau})


def _assert_same_report(rep, ref):
    assert (rep.name, rep.samples, rep.violations, rep.seed, rep.extra) == \
        (ref.name, ref.samples, ref.violations, ref.seed, ref.extra)
    assert np.float64(rep.worst_margin).tobytes() == np.float64(ref.worst_margin).tobytes()
    assert all(a.tobytes() == b.tobytes() for a, b in zip(rep.witness, ref.witness))


def _injectable_args(rng, d, samples=120):
    """(tau, w, delta, samples, seed): tau 0 now and then, w near the origin."""
    tau = 0.0 if rng.random() < 0.1 else float(rng.uniform(0.01, 3.0))
    return tau, rng.normal(size=d), float(rng.uniform(0.2, 3.0)), samples, int(rng.integers(1000))


def _wrapped(s, wrap, rng):
    if wrap == "translate":
        return P.Translate(s, rng.normal(size=s.dim))
    if wrap == "enlargement":
        return P.Enlargement(s, float(rng.uniform(0.0, 1.0)))
    return s


def _orthonormal_rows(rng, k, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0][:, :k].T.copy()


def _box(rng, d):
    lower = rng.normal(size=d)
    widths = rng.uniform(0.0, 2.0, size=d) * (rng.random(d) < 0.8)  # some flat sides
    return P.Box(lower, lower + widths)


# A random convex, non-approximate set of R^d for each catalog type.
_CONVEX_KINDS = {
    "ball": lambda rng, d: P.Ball(rng.normal(size=d), float(rng.uniform(0.0, 2.0))),
    "box": _box,
    "halfspace": lambda rng, d: P.Halfspace(rng.normal(size=d), float(rng.normal())),
    "hyperplane": lambda rng, d: P.Hyperplane(rng.normal(size=d), float(rng.normal())),
    "affine": lambda rng, d: P.AffineSubspaceSet(
        rng.normal(size=d), _orthonormal_rows(rng, int(rng.integers(0, d + 1)), d)),
    "orthant": lambda rng, d: P.Orthant(tuple(int(v) for v in rng.integers(-1, 2, size=d))),
    "one_point": lambda rng, d: P.FinitePointSet(np.repeat(rng.normal(size=(1, d)),
                                                           int(rng.integers(1, 3)), axis=0)),
}


class TestInjectable:
    def test_enlargement_is_two_tau_injectable(self):
        segment = P.Box(np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        s = P.Enlargement(segment, 0.1)
        rep = P.check_injectable(
            s, 0.2, np.array([0.5, 0.0]), 1.0, samples=500, seed=0
        )
        assert rep.violations == 0

    def test_translated_orthant_is_arbitrarily_injectable(self):
        s = P.Translate(P.Orthant((1, 1)), np.array([1.0, 1.0]))
        rep = P.check_injectable(
            s, 10.0, np.array([1.5, 1.5]), 1.0, samples=500, seed=0
        )
        assert rep.violations == 0
        assert rep.worst_margin >= -1e-12

    def test_hyperplane_fails(self):
        """Negative control: the inward segment leaves a hyperplane at once."""
        s = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        rep = P.check_injectable(
            s, 0.5, np.zeros(2), 1.0, samples=400, seed=0
        )
        assert rep.violations > 0
        assert rep.worst_margin == pytest.approx(-0.5, abs=1e-9)

    def test_tau_domain(self):
        with pytest.raises(DomainError):
            P.check_injectable(P.Ball(np.zeros(2), 1.0), -1.0, np.zeros(2), 1.0)

    @pytest.mark.parametrize("wrap", ["bare", "translate", "enlargement"])
    @pytest.mark.parametrize("kind", sorted(_CONVEX_KINDS))
    def test_two_end_probes_match_the_grid_bit_for_bit(self, kind, wrap):
        """On a convex set that is not approximate, the two end probes give
        the 20-probe grid's report bit for bit: d_C is convex along each
        segment, and the ends are the grid's first and last rows."""
        rng = np.random.default_rng([ord(c) for c in kind + wrap])
        for d in (1, 2, 3, 8, 16):
            for _ in range(3):
                s = _wrapped(_CONVEX_KINDS[kind](rng, d), wrap, rng)
                assert s.convex and not s.approximate
                args = _injectable_args(rng, d)
                _assert_same_report(P.check_injectable(s, *args), _grid_injectable(s, *args))

    def test_cones_match_the_grid_to_rounding(self):
        """A cone's distance comes from one NNLS solve per row, whose
        rounding can lift an interior probe of a segment inside the cone a
        few ulps above its ends.  The verdict holds, the worst margin moves
        by at most 1e-12, and where a segment leaves the cone the witness is
        the same; inside, the worst margin is rounding and picks any sample."""
        rng = np.random.default_rng(30)
        failed = 0
        for d in (1, 2, 3, 4):
            for wrap in ("bare", "translate", "enlargement"):
                for _ in range(4):
                    gens = rng.normal(size=(int(rng.integers(1, 2 * d + 1)), d))
                    s = _wrapped(P.PolyhedralCone(gens), wrap, rng)
                    args = _injectable_args(rng, d, samples=60)
                    rep, ref = P.check_injectable(s, *args), _grid_injectable(s, *args)
                    assert (rep.samples, rep.violations) == (ref.samples, ref.violations)
                    assert abs(rep.worst_margin - ref.worst_margin) <= 1e-12
                    if ref.violations:
                        failed += 1
                        assert all(np.array_equal(a, b)
                                   for a, b in zip(rep.witness, ref.witness))
        assert failed >= 10

    def test_sphere_still_fails_through_its_interior_probes(self, monkeypatch):
        """An inward segment of length 2r from outside the unit circle runs
        through the center to the antipode: both ends lie on the sphere, so
        only the grid's interior probes see it leave.  The sphere is not
        convex and keeps the grid; read as convex, it would pass."""
        s, w = P.Sphere(np.zeros(2), 1.0), np.array([2.0, 0.0])
        rep = P.check_injectable(s, 2.0, w, 0.5, samples=200, seed=0)
        assert rep.violations == 200
        assert rep.worst_margin < -0.9
        monkeypatch.setattr(P.Sphere, "convex", True)
        assert P.check_injectable(s, 2.0, w, 0.5, samples=200, seed=0).violations == 0

    @pytest.mark.parametrize("s, probes", [
        (P.IntersectionHandle((P.Ball(np.zeros(2), 1.0),
                               P.Halfspace(np.array([1.0, 0.0]), 0.5))), 20),
        (P.Translate(P.IntersectionHandle((P.Ball(np.zeros(2), 1.0),)), np.zeros(2)), 20),
        (P.Ball(np.zeros(2), 1.0), 2),
        (P.Enlargement(P.Box(np.zeros(2), np.ones(2)), 0.1), 2),
    ], ids=["oracle", "translated_oracle", "ball", "enlarged_box"])
    def test_rows_sent_to_the_oracle(self, monkeypatch, s, probes):
        """An approximate set keeps 20 probes per moved sample, whose
        overstated distance need not be convex along a segment; a convex set
        that is not approximate sends 2.  Every sample here moves."""
        sent = []
        distance_many = type(s).distance_many

        def counted(self, X):
            sent.append(len(X))
            return distance_many(self, X)

        monkeypatch.setattr(type(s), "distance_many", counted)
        P.check_injectable(s, 0.5, np.array([3.0, 3.0]), 1.0, samples=50, seed=0)
        assert sent == [probes * 50]



_CIRCLE = P.Sphere(np.zeros(2), 1.0)


@pytest.mark.parametrize("call", [
    lambda w: P.check_injectable(_CIRCLE, 0.5, w, 0.2),
    lambda w: P.check_quasi_firm_fejer(P.RelaxedProjector(_CIRCLE, 1.0), _CIRCLE, 1.0, 1.0,
                                       w, 0.2),
    lambda w: P.check_quasi_coercive(P.RelaxedProjector(_CIRCLE, 1.0), _CIRCLE, 1.0, w, 0.2),
    lambda w: P.estimate_linear_regularity([_CIRCLE], _CIRCLE, w, 0.2),
], ids=["injectable", "quasi_firm_fejer", "quasi_coercive", "linear_regularity"])
def test_anchor_of_another_dimension_is_named(call):
    """The ball-sampled analyses check w against the sets' dimension before
    drawing, not in the batch of samples."""
    with pytest.raises(P.DimensionMismatch, match=r"^expected dimension 2, got 3$"):
        call([1.0, 0.0, 0.0])


# ---------------------------------------------------------------------------
# epsilon-regularity estimator
# ---------------------------------------------------------------------------


def _sampled_spheres(monkeypatch):
    """The sphere's exact-eps hook reads None, so eps on a sphere (or a
    translate of one) goes through the pair kernel."""
    monkeypatch.setattr(P.Sphere, "_exact_eps", lambda self, w, delta: None)


class TestEpsRegularity:
    def test_convex_sets_have_zero_eps(self, monkeypatch):
        """On the sampled path: the estimator's convex shortcut is off."""
        for cls in (P.Halfspace, P.Ball, P.Box):
            monkeypatch.setattr(cls, "convex", False)
        for s, w in [
            (P.Halfspace(np.array([1.0, 0.0]), 1.0), np.array([1.0, 0.0])),
            (P.Ball(np.zeros(2), 1.0), np.array([0.0, 1.0])),
            (P.Box(np.zeros(2), np.ones(2)), np.array([1.0, 0.5])),
        ]:
            e = P.estimate_eps_regularity(s, w, 1.0, samples=400, seed=0)
            assert e.value <= 1e-9

    def test_sphere_eps_scales_with_delta(self, monkeypatch):
        """On B(w, 0.2) the unit sphere's sampled eps sits near 0.1 (half the
        arc angle subtended by the ball)."""
        s = P.Sphere(np.zeros(2), 1.0)
        _sampled_spheres(monkeypatch)
        e = P.estimate_eps_regularity(
            s, np.array([1.0, 0.0]), 0.2, samples=600, seed=0
        )
        assert 0.05 <= e.value <= 0.11
        assert not e.extra["vacuous"]

    def test_anchor_must_belong(self):
        s = P.Sphere(np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            P.estimate_eps_regularity(s, np.array([0.5, 0.0]), 0.2)

    def test_deterministic_and_monotone_in_pool(self, monkeypatch):
        s = P.Sphere(np.zeros(2), 1.0)
        _sampled_spheres(monkeypatch)
        w = np.array([1.0, 0.0])
        a = P.estimate_eps_regularity(s, w, 0.3, samples=300, seed=5)
        b = P.estimate_eps_regularity(s, w, 0.3, samples=300, seed=5)
        assert a.value == b.value
        # growing the sample pool can only raise the sampled lower bound
        rng = np.random.default_rng(17)
        pool = P.uniform_ball(rng, w, 0.15, 400)
        given_draws(monkeypatch, pool[:100])
        small = P.estimate_eps_regularity(s, w, 0.3, samples=100)
        given_draws(monkeypatch, pool)
        large = P.estimate_eps_regularity(s, w, 0.3, samples=400)
        assert large.value >= small.value - 1e-15


def _convex_instances(d):
    """(name, set, anchor in the set) in R^d for every type flagged convex,
    turned and moved off the origin by a seeded orthogonal matrix: the
    catalog's seven, a translate and an enlargement of convex inner sets, a
    one-point finite set (its point listed twice) and an oracle of two
    halfspaces with orthogonal normals, whose sweep lands on the nearest
    point."""
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    e = np.eye(d)
    box = P.Box(-np.ones(d), np.ones(d))
    return [
        ("halfspace", P.Halfspace(q[0], 0.5), 0.5 * q[0] + 0.3 * q[-1]),
        ("hyperplane", P.Hyperplane(q[0], -0.2), -0.2 * q[0]),
        ("affine", P.AffineSubspaceSet(q[-1], q[:max(1, d // 2)]), q[-1]),
        ("ball", P.Ball(q[-1], 1.0), q[-1] + q[0]),
        ("box", box, np.ones(d)),
        ("orthant", P.Orthant(((1, -1, 0) * d)[:d]), np.zeros(d)),
        ("cone", P.PolyhedralCone(np.abs(q[:min(3, d)]) + 0.1), np.zeros(d)),
        ("translate", P.Translate(box, q[0]), q[0] + np.ones(d)),
        ("enlargement", P.Enlargement(box, 0.5), np.r_[1.5, np.zeros(d - 1)]),
        ("one_point", P.FinitePointSet(np.vstack([q[0], q[0]])), q[0]),
        ("oracle", P.IntersectionHandle((P.Halfspace(e[0], 0.0), P.Halfspace(e[1], 0.0))),
         np.zeros(d)),
    ]


CONVEX_CASES = [(d, *case) for d in (2, 3, 8) for case in _convex_instances(d)]
# The pair kernel's reading on a convex set: 0 up to rounding.  On the flat
# sets (halfspace, hyperplane, affine, cone) it read up to 3.5e-9 over 40
# seeds, from pairs under 1e-7 apart and preimages under 1e-5 long, where a
# coordinate's last-bit error is divided by that length; the curved and
# polyhedral-corner instances read exactly 0.
SAMPLED_CONVEX_TOL = 1e-7


def _sampled_everywhere(monkeypatch):
    """Every set reads convex False and the finite point set's own hook is
    off, so eps goes through the pair kernel."""
    for cls in (*P.sets.SET_TYPES.values(), P.IntersectionHandle):
        monkeypatch.setattr(cls, "convex", False)
    monkeypatch.setattr(P.FinitePointSet, "_exact_eps", lambda self, w, delta: None)


class TestEpsOnConvexSets:
    @pytest.mark.parametrize("d, name, s, w", CONVEX_CASES,
                             ids=[f"{c[1]}_d{c[0]}" for c in CONVEX_CASES])
    def test_exact_zero_without_sampling(self, d, name, s, w, monkeypatch):
        def refuse(*args):
            raise AssertionError("sampled on a convex set")

        monkeypatch.setattr(analysis, "uniform_ball", refuse)
        monkeypatch.setattr(analysis, "_max_normal_ratio", refuse)
        monkeypatch.setattr(type(s), "project_many", refuse)
        assert s.convex
        est = P.estimate_eps_regularity(s, w, 0.6, samples=37, seed=5)
        assert (est.value, est.bound, est.extra) == (0.0, "exact", {"convex": True})
        assert (est.kind, est.delta, est.samples, est.seed) == ("eps_regularity", 0.6, 37, 5)
        assert np.array_equal(est.anchor, w)
        assert P.estimate_eps_regularity(s, w, 0.6, samples=11).samples == 11

    @pytest.mark.parametrize("d, name, s, w", CONVEX_CASES,
                             ids=[f"{c[1]}_d{c[0]}" for c in CONVEX_CASES])
    def test_sampled_eps_vanishes(self, d, name, s, w, monkeypatch):
        """The flag is right: with it off, the pair kernel finds no pair
        (u, y) with <u, y - x> > 0 beyond rounding, over 3 seeds."""
        _sampled_everywhere(monkeypatch)
        for seed in range(3):
            est = P.estimate_eps_regularity(s, w, 0.6, seed=seed)
            assert est.bound == "lower"
            assert est.extra["pairs"] > 0 or name == "one_point"
            assert est.value <= SAMPLED_CONVEX_TOL

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_nonconvex_sets_stay_sampled(self, d, monkeypatch):
        """The same reading is well above SAMPLED_CONVEX_TOL on sets the
        flag leaves False: a sphere, an enlargement of two points, a union
        of two balls, a translated sphere and an oracle with a sphere
        member.  The spheres' exact hook is off."""
        _sampled_spheres(monkeypatch)
        e = np.eye(d)
        sphere = P.Sphere(np.zeros(d), 1.0)
        two = P.FinitePointSet(np.vstack([np.zeros(d), 0.4 * e[0]]))
        for s, w in [
            (sphere, e[0]),
            (P.Enlargement(two, 0.25), 0.2 * e[0] + 0.15 * e[1]),
            (P.UnionOfSets((P.Ball(np.zeros(d), 0.5), P.Ball(1.2 * e[0], 0.5))), 0.5 * e[0]),
            (P.Translate(sphere, e[-1]), e[-1] + e[0]),
            (P.IntersectionHandle((sphere, P.Halfspace(e[1], 0.0))), e[0]),
        ]:
            assert not s.convex
            est = P.estimate_eps_regularity(s, w, 0.6)
            assert est.bound == "lower" and est.value > 0.05, type(s).__name__

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_finite_points_are_exact(self, d, monkeypatch):
        """Every unit vector is a proximal normal at an isolated point, so
        eps is 1 once two distinct points lie in the closed ball B(w, delta)
        and 0 otherwise (a repeated point is one point), with nothing
        drawn; a translate forwards.  With the hook off, the pair kernel
        reads below 1 on two points in the ball (0.997 in d = 3, 0.80 in
        d = 8 at seed 0)."""
        e = np.eye(d)
        two = P.FinitePointSet(np.vstack([np.zeros(d), 0.4 * e[0]]))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(P.FinitePointSet, "_exact_eps", lambda self, w, delta: None)
            sampled = P.estimate_eps_regularity(two, np.zeros(d), 0.6)
        assert sampled.bound == "lower" and 0.5 < sampled.value <= 1.0
        _refuse_draws(monkeypatch)
        doubled = P.FinitePointSet(np.vstack([np.zeros(d), np.zeros(d), 2.0 * e[1]]))
        for s, w, delta, want in [
            (two, np.zeros(d), 0.6, 1.0),
            (two, np.zeros(d), 0.4, 1.0),         # the second point on the sphere
            (two, np.zeros(d), 0.39, 0.0),
            (two, 0.4 * e[0], 0.1, 0.0),
            (doubled, np.zeros(d), 1.0, 0.0),     # one distinct point in the ball
            (doubled, np.zeros(d), 2.0, 1.0),
            (P.Translate(two, e[-1]), e[-1], 0.6, 1.0),
            (P.Translate(two, e[-1]), e[-1], 0.3, 0.0),
        ]:
            est = P.estimate_eps_regularity(s, w, delta, samples=9, seed=4)
            assert (est.value, est.bound, est.samples, est.seed) == (want, "exact", 9, 4)
            assert est.extra == {"convex": False}

    def test_arguments_are_checked_in_order(self):
        """delta, samples, the anchor's dimension, the seed, then the
        anchor's membership, on the exact path as on the sampled one."""
        for s, w, off in [(P.Ball(np.zeros(2), 1.0), np.array([1.0, 0.0]), np.array([2.0, 0.0])),
                          (P.Sphere(np.zeros(2), 1.0), np.array([1.0, 0.0]), np.zeros(2))]:
            with pytest.raises(DomainError, match="delta"):
                P.estimate_eps_regularity(s, off, 0.0, samples=0)
            with pytest.raises(DomainError, match="samples"):
                P.estimate_eps_regularity(s, off, 0.6, samples=0)
            with pytest.raises(P.DimensionMismatch):
                P.estimate_eps_regularity(s, np.zeros(3), 0.6, seed=-1)
            with pytest.raises(DomainError, match="seed"):
                P.estimate_eps_regularity(s, off, 0.6, seed=-1)
            with pytest.raises(DomainError, match="anchor"):
                P.estimate_eps_regularity(s, off, 0.6)
            assert P.estimate_eps_regularity(s, w, 0.6, samples=20).samples == 20

    @settings(max_examples=40, deadline=None)
    @given(d=st.sampled_from([2, 3, 8]), r=st.floats(0.25, 4.0),
           frac=st.floats(0.01, 1.0), seed=st.integers(0, 2**32 - 1))
    def test_sphere_eps_stays_under_the_exact_value(self, d, r, frac, seed):
        """ROADMAP item 3: on a sphere of radius r, eps over B(w, delta) is
        delta sqrt(1 - delta^2 / (4 r^2)) / r, the ratio ||x - y|| / (2r)
        on the longest chord in the ball.  The sampled lower bound (the
        exact hook off) stays under it, and under the exact estimate, which
        this formula for w on the sphere reaches by another route than the
        hook's cap formula; 1e-9 covers the site filter's slack and
        rounding."""
        rng = np.random.default_rng(seed)
        u = rng.standard_normal(d)
        center = rng.uniform(-1.0, 1.0, d)
        w = center + r * u / np.linalg.norm(u)
        delta = frac * r
        formula = delta * math.sqrt(1.0 - delta ** 2 / (4.0 * r ** 2)) / r
        exact = P.estimate_eps_regularity(P.Sphere(center, r), w, delta, seed=seed)
        with pytest.MonkeyPatch.context() as mp:
            _sampled_spheres(mp)
            est = P.estimate_eps_regularity(P.Sphere(center, r), w, delta, seed=seed)
        assert est.value <= formula + 1e-9
        assert exact.bound == "exact" and exact.value == pytest.approx(formula, rel=1e-12)
        assert est.value <= exact.value + 1e-9


class _CustomCircle(P.ClosedSet):
    """The unit circle of R^2 as a custom subclass: only `project`."""

    dim = 2

    def project(self, x):
        return P.Sphere(np.zeros(2), 1.0).project(x)


class TestEpsOnSpheres:
    """The sphere's exact eps (its `_exact_eps` cap formula) against other
    routes: the pair kernel, a translate, and the chord geometry."""

    @pytest.mark.parametrize("d", [2, 3, 8])
    def test_sampled_over_the_whole_ball_reaches_it(self, d, monkeypatch):
        """Sites projected from 3000 points over all of B(w, delta): the pair
        kernel's eps_hat stays under the exact value and comes within 0.01
        of it (0.0069 the most seen in d = 8 over 10 seeds)."""
        s, w, delta = P.Sphere(np.zeros(d), 1.0), np.eye(d)[0], 0.3
        exact = P.estimate_eps_regularity(s, w, delta)
        _sampled_spheres(monkeypatch)
        given_draws(monkeypatch, P.uniform_ball(np.random.default_rng(d), w, delta, 3000))
        est = P.estimate_eps_regularity(s, w, delta, samples=3000)
        assert (exact.bound, exact.extra, est.bound) == ("exact", {"convex": False}, "lower")
        assert est.value <= exact.value + 1e-12
        assert exact.value - est.value <= 0.01

    def test_translate_is_the_sphere_at_the_shifted_anchor(self):
        sphere = P.Sphere(np.array([0.5, -1.0, 2.0]), 1.5)
        shift = np.array([0.25, 3.0, -1.0])
        w = sphere.center + np.array([0.0, 1.5, 0.0])
        for delta in (0.1, 0.7, 1.9, 2.5):
            moved = P.estimate_eps_regularity(P.Translate(sphere, shift), w + shift, delta)
            est = P.estimate_eps_regularity(sphere, w, delta)
            assert (moved.value, moved.bound) == (est.value, "exact")

    def test_anchor_just_off_the_sphere(self):
        """A w 1e-9 off the sphere passes the membership check, and the cap
        formula at its distance t = r +- 1e-9 is the on-sphere value to
        about 1e-9."""
        s, delta = P.Sphere(np.zeros(3), 2.0), 0.5
        on = delta * math.sqrt(1.0 - delta ** 2 / 16.0) / 2.0
        for t in (2.0 - 1e-9, 2.0 + 1e-9):
            est = P.estimate_eps_regularity(s, np.array([0.0, t, 0.0]), delta)
            assert est.bound == "exact" and abs(est.value - on) <= 1e-8

    @pytest.mark.parametrize("r", [0.5, 1.0, 3.0])
    def test_a_ball_past_sqrt2_r_reaches_a_great_sphere(self, r):
        """From delta = sqrt(2) r the cap holds a great sphere, whose
        antipodal points make the chord 2r: eps 1."""
        w = np.array([r, 0.0])
        for delta in (math.sqrt(2.0) * r, 1.5 * r, 2.0 * r, 10.0 * r):
            assert P.estimate_eps_regularity(P.Sphere(np.zeros(2), r), w, delta).value == 1.0

    def test_one_dimensional_and_custom_spheres_stay_sampled(self):
        """A sphere of R^1 is two points, and a custom subclass has no hook
        of its own."""
        one = P.estimate_eps_regularity(P.Sphere(np.zeros(1), 1.0), np.array([1.0]), 2.5)
        assert (one.bound, one.value) == ("lower", 1.0)
        est = P.estimate_eps_regularity(_CustomCircle(), np.array([1.0, 0.0]), 0.2, samples=100)
        assert est.bound == "lower" and est.value > 0.05


# ---------------------------------------------------------------------------
# linear-regularity estimator
# ---------------------------------------------------------------------------


class TestLinearRegularity:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_two_lines_against_closed_form(self, theta):
        a, b, inter = two_lines(theta)
        est = P.estimate_linear_regularity(
            [a, b], inter, np.zeros(2), 1.0, samples=2000, seed=0
        )
        oracle = 1.0 / math.sin(theta / 2.0)
        assert est.value <= oracle + 1e-9
        assert est.value >= 0.95 * oracle

    def test_identical_sets_give_one(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        inter = a
        est = P.estimate_linear_regularity(
            [a, a], inter, np.zeros(2), 1.0, samples=500, seed=0
        )
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.value >= 1.0

    def test_empty_system_raises(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        with pytest.raises(DomainError, match="^system needs at least one member$"):
            P.estimate_linear_regularity([], a, np.zeros(2), 1.0)


def _subspace(rng, d, k, anchor):
    """anchor + a seeded k-dimensional subspace of R^d (QR of a Gaussian)."""
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0].T if k else np.zeros((0, d))
    return P.AffineSubspaceSet(anchor, basis)


def _friedrichs_cosine(a, b):
    """cos theta_F of two subspaces: the largest singular value of Q_A Q_B^T
    below 1 - 1e-9, those at 1 spanning the intersection (0 if none)."""
    s = np.linalg.svd(a.basis @ b.basis.T, compute_uv=False)
    return float(np.max(s[s < 1.0 - 1e-9], initial=0.0))


def _refuse_draws(monkeypatch, sampler="uniform_ball"):
    def refuse(*args):
        raise AssertionError("sampled where the value is exact")

    monkeypatch.setattr(analysis, sampler, refuse)


def _no_normal_cones(mp):
    """The exact-path readers of the sets' normal-cone hooks read None, so
    kappa, zeta and theta are sampled.  The hooks stay on, and with them the
    normal lists that affine sets derive from theirs."""
    for reader in ("_affine_kappa", "_exact_theta", "_exact_pools"):
        mp.setattr(analysis, reader, lambda *args: None)


def _subspace_pairs(n):
    """The first n seeds whose pair of subspaces of R^4 to R^8, of dimensions
    1 to d - 1, meet at a Friedrichs angle of 10 degrees or more, with the
    pairs."""
    found = []
    for seed in itertools.count():
        rng = np.random.default_rng(seed)
        d = int(rng.integers(4, 9))
        pair = tuple(_subspace(rng, d, int(k), np.zeros(d)) for k in rng.integers(1, d, 2))
        if math.degrees(math.acos(_friedrichs_cosine(*pair))) >= 10.0:
            found.append((seed, pair))
        if len(found) == n:
            return found


SUBSPACE_PAIRS = _subspace_pairs(12)


class TestExactLinearRegularity:
    """Exact kappa on affine systems, checked by routes other than the
    eigenvalues of Q: the principal angles, the 2-D closed form and the
    sampler."""

    @pytest.mark.parametrize("seed, pair", SUBSPACE_PAIRS, ids=[c[0] for c in SUBSPACE_PAIRS])
    def test_subspace_pairs_match_the_friedrichs_angle(self, seed, pair, monkeypatch):
        """kappa = 1/sin(theta_F/2), theta_F from the SVD of Q_A Q_B^T, on
        pairs in R^4 to R^8 that meet in {0} or in a subspace, the
        intersection declared as a point or given by the oracle."""
        _refuse_draws(monkeypatch)
        a, b = pair
        d = a.dim
        want = 1.0 / math.sin(math.acos(_friedrichs_cosine(a, b)) / 2.0)
        meet = a.subspace_dim + b.subspace_dim > d
        cs = [P.IntersectionHandle(pair)] + ([] if meet else [P.FinitePointSet(np.zeros((1, d)))])
        for c in cs:
            est = P.estimate_linear_regularity(pair, c, np.zeros(d), 1.0)
            assert est.bound == "exact" and est.value == pytest.approx(want, rel=1e-12)
            assert est.extra["used"] == 0 and not est.extra["approximate"]
            assert est.extra["lambda_min"] == pytest.approx(1.0 / want ** 2, rel=1e-12)

    @pytest.mark.parametrize("deg", [3, 30, 45, 60, 90, 120, 177])
    def test_two_lines_closed_form(self, deg, monkeypatch):
        """Lines at angle theta meet at Friedrichs angle min(theta, pi -
        theta), so kappa = 1/sin of half of it, whichever line type."""
        _refuse_draws(monkeypatch)
        theta = math.radians(deg)
        want = 1.0 / math.sin(min(theta, math.pi - theta) / 2.0)
        a, b, inter = two_lines(theta)
        h = P.Hyperplane(np.array([-math.sin(theta), math.cos(theta)]), 0.0)
        for system in ([a, b], [a, h], [h, a]):
            est = P.estimate_linear_regularity(system, inter, np.zeros(2), 1.0, samples=7, seed=3)
            assert est.value == pytest.approx(want, rel=1e-12)
            assert (est.bound, est.samples, est.seed, est.delta) == ("exact", 7, 3, 1.0)

    def test_translates_and_oracles_take_the_exact_path(self, monkeypatch):
        """A translate of an affine set, a shifted hyperplane and their
        oracle, all through p: the value of the pair at the origin.  The
        oracle's hook stacks its members' rows without a sweep."""
        rng = np.random.default_rng(7)
        p = rng.standard_normal(4)
        a, b = (_subspace(rng, 4, k, np.zeros(4)) for k in (2, 1))
        n = np.linalg.qr(rng.standard_normal((4, 4)))[0][0]
        h = P.Hyperplane(n, 0.0)
        origin = P.estimate_linear_regularity([a, b, h], P.FinitePointSet(np.zeros((1, 4))),
                                              np.zeros(4), 1.0)
        moved = [P.Translate(a, p), P.Translate(b, p), P.Hyperplane(n, float(n @ p))]
        oracle = P.IntersectionHandle(moved)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(P.IntersectionHandle, "_canonical_many", None)  # no sweep
            assert oracle._normal_cone(p)[0].shape == (4, 4)
        _refuse_draws(monkeypatch)
        for c in (oracle, P.FinitePointSet(p[None, :]), P.Translate(oracle, np.zeros(4))):
            est = P.estimate_linear_regularity(moved, c, p, 1.0)
            assert est.bound == origin.bound == "upper"
            assert est.value == pytest.approx(origin.value, rel=1e-12)

    def test_other_systems_stay_sampled(self):
        """A w off C, a declared point or line that is not the sets'
        intersection (two planes of R^3 meet in a line), a halfspace member,
        and an intersection C that differs from the oracle of the sets."""
        a, b, inter = two_lines(math.pi / 3)
        e = np.eye(3)
        planes = [P.Hyperplane(e[0], 0.0), P.Hyperplane(e[1] + e[0], 0.0)]
        half = P.Halfspace(np.array([0.0, 1.0]), 0.0)
        for system, c, w in [
            ([a, b], inter, np.array([0.5, 0.0])),
            ([a, b], P.FinitePointSet(np.array([[0.5, 0.0]])), np.array([0.5, 0.0])),
            (planes, P.FinitePointSet(np.zeros((1, 3))), np.zeros(3)),
            (planes, P.AffineSubspaceSet(np.zeros(3), e[:1]), np.zeros(3)),
            ([a, half], inter, np.zeros(2)),
            ([a, b], P.IntersectionHandle((half, b)), np.zeros(2)),
            ([a, b], P.IntersectionHandle((a,)), np.zeros(2)),
        ]:
            est = P.estimate_linear_regularity(system, c, w, 1.0, samples=50)
            assert est.bound == "lower" and "lambda_min" not in est.extra
            assert est.extra["used"] > 0

    def test_strictly_nested_pairs_read_upper(self):
        """When one set strictly contains the other, C is the smaller set and
        kappa is 1, where the formula reads sqrt 2: the bound is not
        attained, so it reads "upper".  Equal sets read exact 1."""
        line = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        point = P.FinitePointSet(np.zeros((1, 2)))
        e = np.eye(3)
        plane, axis = P.Hyperplane(e[2], 0.0), P.AffineSubspaceSet(np.zeros(3), e[:1])
        for system, c in [([line, point], point), ([point, line], point), ([plane, axis], axis)]:
            w = np.zeros(c.dim)
            est = P.estimate_linear_regularity(system, c, w, 1.0)
            assert (est.bound, est.value) == ("upper", pytest.approx(math.sqrt(2.0), rel=1e-12))
            with pytest.MonkeyPatch.context() as mp:
                _no_normal_cones(mp)
                assert P.estimate_linear_regularity(system, c, w, 1.0).value == 1.0
        for system in ([line], [line, line]):
            est = P.estimate_linear_regularity(system, line, np.zeros(2), 1.0)
            assert (est.bound, est.value) == ("exact", 1.0)

    def test_three_lines_read_upper(self):
        """Three lines of R^2 at 60 degrees: Q = I/2, so the bound is sqrt 2,
        above the sampled reading."""
        lines = [P.Hyperplane(np.array([math.cos(t), math.sin(t)]), 0.0)
                 for t in (0.0, math.pi / 3, 2 * math.pi / 3)]
        inter = P.FinitePointSet(np.zeros((1, 2)))
        est = P.estimate_linear_regularity(lines, inter, np.zeros(2), 1.0)
        assert est.bound == "upper" and est.value == pytest.approx(math.sqrt(2.0), rel=1e-12)
        with pytest.MonkeyPatch.context() as mp:
            _no_normal_cones(mp)
            sampled = P.estimate_linear_regularity(lines, inter, np.zeros(2), 1.0)
        assert 1.0 < sampled.value <= est.value

    def test_near_the_cut_off_is_sampled(self):
        """Two lines 1e-4 rad apart have lambda_min 2.5e-9, within
        _KAPPA_MARGIN of RANK_TOL, so kappa is sampled; 1e-2 rad is exact."""
        for theta, bound in ((1e-4, "lower"), (1e-2, "exact")):
            a, b, inter = two_lines(theta)
            est = P.estimate_linear_regularity([a, b], inter, np.zeros(2), 1.0, samples=50)
            assert est.bound == bound

    @settings(max_examples=40, deadline=None)
    @given(m=st.sampled_from([2, 3]), d=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_sampled_kappa_stays_under_the_exact_path(self, m, d, seed):
        """With the hooks off, the sampled kappa of m affine sets through a
        point p stays at or below the exact value (m = 2) or the upper one
        (m = 3), which bounds every ratio."""
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(d)
        dims = rng.integers(0, d, m)
        if sum(d - k for k in dims) < d:  # the sets meet in more than p
            dims[0] = 0
        system = [_subspace(rng, d, int(k), p) for k in dims]
        inter = P.FinitePointSet(p[None, :])
        exact = P.estimate_linear_regularity(system, inter, p, 1.0, seed=seed)
        assume(exact.bound != "lower")  # lambda_min too near the cut-off
        assert exact.bound in (("exact", "upper") if m == 2 else ("upper",))
        with pytest.MonkeyPatch.context() as mp:
            _no_normal_cones(mp)
            est = P.estimate_linear_regularity(system, inter, p, 1.0, samples=200, seed=seed)
        assert est.bound == "lower"
        assert est.value <= exact.value + 1e-12


# ---------------------------------------------------------------------------
# normal-cone alignment estimator
# ---------------------------------------------------------------------------


class TestThetaBar:
    @pytest.mark.parametrize("theta", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_two_lines_alignment_is_cos_theta(self, theta):
        a, b, _ = two_lines(theta)
        est = P.estimate_theta_bar(a, b, np.zeros(2), samples=256, seed=0)
        assert est.value == pytest.approx(math.cos(theta), abs=1e-12)

    def test_trivial_normal_cone_flags(self):
        ball = P.Ball(np.zeros(2), 1.0)
        line = P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]]))
        est = P.estimate_theta_bar(ball, line, np.zeros(2), samples=64, seed=0)
        assert est.value == 0.0
        assert est.extra["trivial"]

    def test_cancelling_mixtures_are_dropped(self):
        """Weights 0.5 and 0.5 + 1e-9 on u and -u leave a combination of
        norm 1e-9 whose direction carries their rounding over 1e-9; it is
        dropped, and the kept combination is -u to the last bits."""
        u = np.array([0.6, -0.8, 0.0]) + 1e-3 * np.arange(1.0, 4.0)
        u /= np.linalg.norm(u)

        class Weights:
            def random(self, shape):
                return np.array([[0.5, 0.5 + 1e-9], [0.3, 0.7]])

        dirs = P.sets.conic_mixtures(Weights(), np.stack([u, -u]), 2)
        assert dirs.shape == (1, 3)
        assert np.max(np.abs(dirs[0] + u)) <= 4e-16

    def test_anchor_must_belong_to_both(self):
        a, b, _ = two_lines(math.pi / 4)
        with pytest.raises(DomainError):
            P.estimate_theta_bar(a, b, np.array([0.0, 1.0]))


# ---------------------------------------------------------------------------
# strong-regularity degeneracy constant
# ---------------------------------------------------------------------------


def _three_halfspaces():
    return [
        P.Halfspace(np.array([1.0, 1.0]), 0.0),
        P.Halfspace(np.array([1.0, -1.0]), 0.0),
        P.Halfspace(np.array([-1.0, 0.0]), 0.0),
    ]


class TestStrongRegularity:
    def test_degenerate_triple(self):
        """The normals of the triple positively span 0, so the sampled
        degeneracy constant collapses to ~0 and the system is flagged."""
        hs = _three_halfspaces()
        est = P.check_strong_regularity(
            hs, np.zeros(2), 1.0, samples=4000, seed=0
        )
        assert est.value <= 1e-6
        assert not est.extra["strong"]

    @pytest.mark.parametrize(
        "i, j, want",
        [
            (0, 1, math.sin(math.pi / 4)),
            (0, 2, math.sin(math.pi / 8)),
            (1, 2, math.sin(math.pi / 8)),
        ],
    )
    def test_pairs_match_half_angle_sines(self, i, j, want):
        hs = _three_halfspaces()
        est = P.check_strong_regularity(
            [hs[i], hs[j]], np.zeros(2), 1.0, samples=4000, seed=0
        )
        assert est.value == pytest.approx(want, abs=1e-9)
        assert est.extra["strong"]

    def test_deterministic_given_seed(self):
        hs = _three_halfspaces()
        a = P.check_strong_regularity(hs[:2], np.zeros(2), 1.0, samples=500, seed=9)
        b = P.check_strong_regularity(hs[:2], np.zeros(2), 1.0, samples=500, seed=9)
        assert a.value == b.value

    def test_empty_system_raises(self):
        """An empty system has no normals to pool; it is not strongly regular."""
        with pytest.raises(DomainError, match="^system needs at least one member$"):
            P.check_strong_regularity([], np.zeros(2), 1.0)

    def test_anchor_must_belong_to_every_set(self):
        """w up to 1e-8 outside a set passes, as in the eps and theta
        estimators; further out it raises before anything is drawn."""
        hs = _three_halfspaces()
        P.check_strong_regularity(hs, np.array([-1e-9, 0.0]), 1.0, samples=100)
        with pytest.raises(DomainError, match="^anchor w must belong to every set$"):
            P.check_strong_regularity(hs, np.array([-1e-6, 0.0]), 1.0, samples=100)


def _kkt_min_norm(G):
    """Exact min of ||G t|| over the simplex {t >= 0, sum t = 1} by support
    enumeration: one KKT lstsq solve per nonempty column subset (G has few
    columns)."""
    d, k = G.shape
    best = np.inf
    for size in range(1, k + 1):
        for subset in itertools.combinations(range(k), size):
            GS = G[:, list(subset)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * GS.T @ GS
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.zeros(size + 1)
            rhs[size] = 1.0
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            t = np.clip(sol[:size], 0.0, None)
            if t.sum() > 0.0:
                best = min(best, float(np.linalg.norm(GS @ (t / t.sum()))))
    return best


def _vertex_reference(system, w, delta, samples, seed):
    """The exact vertex search over the pools check_strong_regularity draws:
    min over one generator per pool (at most 4096 assignments) of
    _kkt_min_norm."""
    rng = np.random.default_rng(seed)
    budget = max(16, samples // (4 * max(1, len(system))))
    pools = [analysis._normal_pool(s, w, delta, rng, budget) for s in system]
    active = [p for p in pools if len(p)]
    assignments = itertools.islice(itertools.product(*active), 4096)
    return min(_kkt_min_norm(np.column_stack(combo)) for combo in assignments)


def _singleton_pool_systems():
    """Halfspaces through the origin, anchored at the origin: each pool is
    the one outward normal."""
    hs = _three_halfspaces()
    eye = np.eye(8)
    a = np.random.default_rng(4).standard_normal(16)
    return {
        "triple": hs,
        "pair01": hs[:2],
        "pair02": [hs[0], hs[2]],
        "pair12": hs[1:],
        "orthonormal_r8": [P.Halfspace(eye[i], 0.0) for i in range(3)],
        "opposite_r16": [P.Halfspace(a, 0.0), P.Halfspace(-a, 0.0)],
    }


def _box_corner():
    return P.Box(np.zeros(3), np.ones(3))


def _multi_generator_systems():
    """Two degenerate systems (zeta = 0) whose first pool holds many
    directions: a pointed cone above the plane z = 0 with the orthant
    {z <= 0}, and the corner (1, 1, 1) of the unit box with the halfspace
    {x + y + z >= 3}."""
    cone = P.PolyhedralCone(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]]))
    return {
        "cone_orthant": ([cone, P.Orthant((0, 0, -1))], np.zeros(3)),
        "box_halfspace": ([_box_corner(), P.Halfspace(-np.ones(3), -3.0)], np.ones(3)),
    }


class TestStrongRegularityDraws:
    @pytest.mark.parametrize("name", sorted(_singleton_pool_systems()))
    def test_singleton_pools_match_the_reference_bits(self, name):
        """The vertex search's one assignment is the whole system, so `value`
        and the KKT reference minimize the same ||G t|| and differ only by
        rounding.  Each side solves for the weights of at most three unit
        columns and sums at most three products, so where zeta_ref is not
        small (here it is sin(pi/8) = 0.38 or more) each is within a few
        units of 2^-53 of the exact minimum, relative; 16 * 2^-53 * zeta_ref
        leaves room for both (1.8 units is the largest seen).  Where
        zeta_ref = 0 there is no relative scale, and the cancelling sum
        stays at or below 1e-12."""
        system = _singleton_pool_systems()[name]
        w = np.zeros(system[0].dim)
        for seed in [0] + list(range(101, 122)):
            est = P.check_strong_regularity(system, w, 1.0, samples=2000, seed=seed)
            assert est.extra["pools"] == [1] * len(system)
            ref = _vertex_reference(system, w, 1.0, 2000, seed)
            if ref > analysis.STRONG_TOL:
                assert abs(est.value - ref) <= 16 * 2.0**-53 * ref, seed
            else:
                assert est.value <= 1e-12, seed
            assert est.extra["zeta_lower"] <= est.value, seed

    @pytest.mark.parametrize("samples", [10, 10_000])
    def test_empty_pools_are_skipped(self, samples):
        # the ball holds the sampled ball B(0, 1/2), so its pool is empty
        system = [P.Ball(np.zeros(2), 2.0)] + _three_halfspaces()
        est = P.check_strong_regularity(system, np.zeros(2), 1.0, samples=samples, seed=0)
        assert est.extra["pools"] == [0, 1, 1, 1]
        assert est.extra["strong"] is False

    @pytest.mark.parametrize("name", sorted(_multi_generator_systems()))
    def test_multi_generator_pools_stay_within_sampling_noise(self, name):
        """zeta = 0 on both systems, and the all-directions solve finds it
        however the pools fall, so `strong` is False at every seed."""
        system, w = _multi_generator_systems()[name]
        for seed in range(40):
            est = P.check_strong_regularity(system, w, 1.0, seed=seed)
            again = P.check_strong_regularity(system, w, 1.0, seed=seed)
            assert est.value.hex() == again.value.hex()
            assert min(est.extra["pools"]) == 1 and max(est.extra["pools"]) > 1
            assert est.value <= analysis.STRONG_TOL, seed
            assert est.extra["strong"] is False, seed


class TestStrongRegularityBracket:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("name", sorted(_multi_generator_systems()))
    def test_degenerate_multi_generator_systems_are_not_strong(self, name, seed):
        system, w = _multi_generator_systems()[name]
        est = P.check_strong_regularity(system, w, 1.0, samples=2000, seed=seed)
        assert max(est.extra["pools"]) > 1
        assert 0.0 <= est.extra["zeta_lower"] <= est.value <= analysis.STRONG_TOL
        assert est.extra["strong"] is False

    def test_box_corner_with_a_face_halfspace_is_strong(self):
        """The box's normal cone at its corner (1, 1, 1) is the nonnegative
        orthant and {x <= 1} adds e1, so zeta = 1/sqrt(2), attained by
        u_1 = e2/2, u_2 = e1/2; the bracket holds it."""
        system = [_box_corner(), P.Halfspace(np.array([1.0, 0.0, 0.0]), 1.0)]
        est = P.check_strong_regularity(system, np.ones(3), 1.0, samples=2000, seed=0)
        assert max(est.extra["pools"]) > 1
        assert est.extra["strong"] is True
        assert analysis.STRONG_TOL < est.extra["zeta_lower"] <= 1 / math.sqrt(2) <= est.value

    def test_cancelling_pool_is_undetermined(self):
        """The line span(e3) of R^3 has the normal plane span(e1, e2), which
        the exact path leaves to the sampler; its pool holds opposite
        directions that cancel inside it, so the lower bound is 0 while the
        upper bound is zeta = 1/sqrt(2)."""
        e = np.eye(3)
        system = [P.AffineSubspaceSet(np.zeros(3), e[2:]), P.Halfspace(e[2], 0.0)]
        est = P.check_strong_regularity(system, np.zeros(3), 1.0, samples=2000, seed=0)
        assert est.bound == "upper" and est.extra["pools"] == [253, 1]
        assert est.extra["zeta_lower"] <= analysis.STRONG_TOL < est.value
        assert est.extra["strong"] is None


def _flat_system(rng, d, m, w, codims):
    """m sets through w, each a halfspace with w on its boundary, a halfspace
    with w inside at distance 0.55 to 2 from its boundary, a hyperplane or
    an affine set of a codimension in `codims`, and each a translate of
    such a set half the time."""
    system = []
    for _ in range(m):
        shift = rng.standard_normal(d) if rng.random() < 0.5 else None
        v = w if shift is None else w - shift
        a = rng.standard_normal(d)
        kind = rng.integers(4)
        if kind == 0:
            s = P.Halfspace(a, float(np.dot(v, a)))
        elif kind == 1:
            s = P.Halfspace(a, float(np.dot(v, a)) + rng.uniform(0.55, 2.0) * np.linalg.norm(a))
        elif kind == 2:
            s = P.Hyperplane(a, float(np.dot(v, a)))
        else:
            s = _subspace(rng, d, d - int(rng.choice(codims)), v)
        system.append(s if shift is None else P.Translate(s, shift))
    return system


class TestExactNormalCones:
    """zeta and theta-bar from the sets' `_normal_cone` hooks, checked
    against the sampled path with the hooks switched off."""

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_sampled_zeta_bracket_holds_the_exact_value(self, d, m, seed):
        """Rays, lines and {0} cones whose reach exceeds delta/2 give zeta
        with nothing drawn; the sampled bracket holds it."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(d)
        system = _flat_system(rng, d, m, w, (1,))
        with pytest.MonkeyPatch.context() as mp:
            _refuse_draws(mp)
            exact = P.check_strong_regularity(system, w, 1.0, seed=seed)
        assert exact.bound == "exact"
        assert exact.extra["zeta_lower"] <= exact.value + 1e-12
        with pytest.MonkeyPatch.context() as mp:
            _no_normal_cones(mp)
            est = P.check_strong_regularity(system, w, 1.0, seed=seed)
        assert est.bound == "upper"
        assert est.extra["zeta_lower"] - 1e-12 <= exact.value <= est.value + 1e-12

    @settings(max_examples=40, deadline=None)
    @given(d=st.integers(2, 8), seed=st.integers(0, 2**32 - 1))
    def test_sampled_theta_stays_under_the_exact_value(self, d, seed):
        """Subspaces of any dimension, rays and {0} cones give theta-bar
        with nothing drawn; the sampled value stays at or below it."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal(d)
        a, b = _flat_system(rng, d, 2, w, range(1, d + 1))
        with pytest.MonkeyPatch.context() as mp:
            _refuse_draws(mp, "conic_mixtures")
            exact = P.estimate_theta_bar(a, b, w, seed=seed)
        assert exact.bound == "exact"
        with pytest.MonkeyPatch.context() as mp:
            _no_normal_cones(mp)
            est = P.estimate_theta_bar(a, b, w, seed=seed)
        assert est.bound == "lower" and est.extra == exact.extra
        assert est.value <= exact.value + 1e-12

    @pytest.mark.parametrize("r", [0.25, 0.5, 0.5 + 1e-9, 2.0])
    def test_a_face_within_half_delta_is_sampled(self, r, monkeypatch):
        """A halfspace whose boundary lies r from w, with a line through w:
        past delta/2 its cone is {0} and zeta is the line's 1; within
        delta/2 the report is the sampled one, bit for bit."""
        system = [P.Halfspace(np.array([0.0, 1.0]), r), P.Hyperplane(np.array([1.0, 1.0]), 0.0)]
        w = np.zeros(2)
        est = P.check_strong_regularity(system, w, 1.0, seed=5)
        with pytest.MonkeyPatch.context() as mp:
            _no_normal_cones(mp)
            sampled = P.check_strong_regularity(system, w, 1.0, seed=5)
        if r > 0.5:
            assert (est.bound, est.extra["pools"]) == ("exact", [0, 2])
            assert est.value == pytest.approx(1.0, rel=1e-15)
            assert est.extra["strong"] is True
        else:
            assert est.bound == sampled.bound == "upper"
            assert est.value.hex() == sampled.value.hex()
            assert est.extra == sampled.extra

    def test_which_sets_answer(self):
        """Halfspaces, hyperplanes, affine sets, one-point sets, their
        translates and the oracle of subspaces answer; every other type,
        and an oracle with a member that has a ray, reads None."""
        e = np.eye(2)
        half = P.Halfspace(e[0], 0.0)
        line = P.Hyperplane(e[1], 0.0)
        ball = P.Ball(np.zeros(2), 1.0)
        answers = {
            half: ([], [[1.0, 0.0]], np.inf),
            P.Halfspace(e[0], 3.0): ([], [], 3.0),
            line: ([[0.0, 1.0]], [], np.inf),
            P.AffineSubspaceSet(np.zeros(2), e[:1]): ([[0.0, 1.0]], [], np.inf),
            P.FinitePointSet(np.zeros((1, 2))): (e, [], np.inf),
            P.Translate(half, np.array([2.0, 0.0])): ([], [], 2.0),
            P.IntersectionHandle((line, P.Hyperplane(e[0], 0.0))): (e, [], np.inf),
        }
        for s, (lines, rays, reach) in answers.items():
            got = s._normal_cone(np.zeros(2))
            assert np.allclose(np.abs(got[0]), np.reshape(lines, (-1, 2)), atol=1e-15), s
            assert np.array_equal(got[1], np.reshape(rays, (-1, 2))) and got[2] == reach, s
        silent = (ball, P.Sphere(e[0], 1.0), P.Box(-e[0], e[1]), P.Orthant((1, -1)),
                  P.PolyhedralCone(np.array([[1.0, 0.0], [1.0, 1.0]])),
                  P.Enlargement(half, 0.5), P.UnionOfSets((half, ball)),
                  P.FinitePointSet(np.array([[0.0, 0.0], [1.0, 0.0]])),
                  P.Translate(ball, e[0]), P.IntersectionHandle((half, line)))
        for s in silent:
            assert s._normal_cone(np.zeros(2)) is None, s
        tags = {getattr(s, "tag", None) for s in (*answers, *silent)}
        assert tags - {None} == set(P.sets.SET_TYPES)

    def test_one_point_set_is_all_of_rd(self, monkeypatch):
        """A one-point set's normal cone is R^d: theta-bar is 1 against a
        nonzero cone and 0 (trivial) against {0}."""
        _refuse_draws(monkeypatch, "conic_mixtures")
        point = P.FinitePointSet(np.zeros((1, 2)))
        line = P.Hyperplane(np.array([1.0, 2.0]), 0.0)
        for a, b in ((point, line), (line, point),
                     (point, P.Halfspace(np.array([1.0, 0.0]), 0.0))):
            est = P.estimate_theta_bar(a, b, np.zeros(2))
            assert (est.value, est.bound, est.extra["trivial"]) == (1.0, "exact", False)

    def test_one_point_set_and_a_line_are_not_strongly_regular(self):
        """A one-point set's cone R^d holds -n for the line's normal n, so
        zeta is 0.  Its pool now starts with the derived lines +-e1, +-e2,
        and the vertex search finds e2 and -e2; without them the sampled
        pool left the report undetermined (value 0.0034)."""
        point = P.FinitePointSet(np.zeros((1, 2)))
        line = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        for system in ([point, line], [line, point]):
            est = P.check_strong_regularity(system, np.zeros(2), 0.5)
            assert est.bound == "upper" and est.extra["strong"] is False
            assert est.value <= 1e-15 and est.extra["zeta_lower"] == 0.0

    def test_one_point_set_against_the_zero_cone(self, monkeypatch):
        _refuse_draws(monkeypatch, "conic_mixtures")
        point = P.FinitePointSet(np.zeros((1, 2)))
        inside = P.Halfspace(np.array([1.0, 0.0]), 1.0)
        for a, b in ((point, inside), (inside, point)):
            est = P.estimate_theta_bar(a, b, np.zeros(2))
            assert (est.value, est.bound, est.extra["trivial"]) == (0.0, "exact", True)


# ---------------------------------------------------------------------------
# sampling helper
# ---------------------------------------------------------------------------


class TestUniformBall:
    def test_within_radius_and_deterministic(self):
        rng = np.random.default_rng(0)
        pts = P.uniform_ball(rng, np.array([1.0, -1.0, 0.5]), 2.0, 500)
        assert pts.shape == (500, 3)
        assert np.all(
            np.linalg.norm(pts - np.array([1.0, -1.0, 0.5]), axis=1) <= 2.0 + 1e-12
        )
        pts2 = P.uniform_ball(
            np.random.default_rng(0), np.array([1.0, -1.0, 0.5]), 2.0, 500
        )
        assert np.array_equal(pts, pts2)

    def test_fills_the_ball(self):
        rng = np.random.default_rng(1)
        pts = P.uniform_ball(rng, np.zeros(2), 1.0, 2000)
        # mean near the center, a decent share beyond half radius
        assert np.linalg.norm(pts.mean(axis=0)) < 0.1
        assert np.mean(np.linalg.norm(pts, axis=1) > 0.5) > 0.5
