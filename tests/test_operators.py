"""Operator algebra: relaxation identities, compositions, inclusions."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import projlab as P
from projlab import ConfigError, DomainError
from projlab.operators import OPERATOR_TYPES

from conftest import FormulaHyperplane, affine_step_bound, underflows


def _convex_sets():
    return [
        P.Halfspace(np.array([1.0, 0.0]), 1.0),
        P.Ball(np.array([0.5, -0.5]), 1.5),
        P.Box(np.array([0.0, -1.0]), np.array([1.0, 1.0])),
        P.Hyperplane(np.array([0.0, 1.0]), 2.0),
        P.AffineSubspaceSet(np.zeros(2), np.array([[1.0, 0.0]])),
    ]


class TestRelaxedProjector:
    @pytest.mark.parametrize("lam", [0.5, 1.0, 1.5, 2.0])
    def test_relaxation_identity(self, lam):
        rng = np.random.default_rng(31)
        for s in _convex_sets():
            op = P.RelaxedProjector(s, lam)
            for x in rng.normal(scale=3.0, size=(100, 2)):
                p = s.project(x).canonical
                want = (1.0 - lam) * x + lam * p
                assert np.linalg.norm(op.apply(x) - want) <= 1e-14

    def test_lambda_one_is_projector(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.RelaxedProjector(s, 1.0)
        x = np.array([3.0, 4.0])
        assert np.allclose(op.apply(x), [0.6, 0.8], atol=1e-15)

    def test_reflect_identity(self):
        rng = np.random.default_rng(32)
        for s in _convex_sets():
            for x in rng.normal(scale=3.0, size=(50, 2)):
                p = s.project(x).canonical
                reflected = P.RelaxedProjector(s, 2.0).apply(x)
                assert np.linalg.norm(reflected - (2.0 * p - x)) <= 1e-14

    @pytest.mark.parametrize("lam", [0.0, -1.0, 2.0001])
    def test_lambda_domain(self, lam):
        with pytest.raises(DomainError):
            P.RelaxedProjector(P.Ball(np.zeros(2), 1.0), lam)

    def test_replay_is_bit_exact(self):
        s = P.Sphere(np.zeros(2), 2.0)
        op = P.RelaxedProjector(s, 1.5)
        x = np.array([0.3, -0.7])
        a = op.apply(x)
        b = op.apply(x)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0])
    def test_overrelaxed_obtuse_cone_inclusion(self, lam):
        """Up-to-reflection relaxations of an obtuse cone land in the cone."""
        rng = np.random.default_rng(33)
        for cone in (
            P.Orthant((1, 1)),
            P.Translate(P.Orthant((1, 1)), np.array([2.0, -1.0])),
        ):
            op = P.RelaxedProjector(cone, lam)
            for x in rng.normal(scale=3.0, size=(200, 2)):
                assert cone.contains(op.apply(x), tol=1e-9)


class TestSemiIntrepidProjector:
    def test_alpha_zero_is_projector(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.SemiIntrepidProjector(s, 0.0, 5.0)
        rng = np.random.default_rng(41)
        for x in rng.normal(scale=3.0, size=(100, 2)):
            p = s.project(x).canonical
            assert np.linalg.norm(op.apply(x) - p) <= 1e-14

    def test_tau_zero_is_projector(self):
        s = P.Box(np.array([0.0, 0.0]), np.array([1.0, 1.0]))
        op = P.SemiIntrepidProjector(s, 0.7, 0.0)
        rng = np.random.default_rng(42)
        for x in rng.normal(scale=3.0, size=(100, 2)):
            p = s.project(x).canonical
            assert np.linalg.norm(op.apply(x) - p) <= 1e-14

    def test_overshoot_formula(self):
        """T(x) = p + min(alpha, tau/||p-x||) (p - x)."""
        s = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        op = P.SemiIntrepidProjector(s, 0.5, 0.3)
        # far point: overshoot capped at tau
        x = np.array([1.0, 2.0])
        out = op.apply(x)
        assert np.allclose(out, [1.0, -0.3], atol=1e-14)
        # near point: overshoot alpha * gap
        x = np.array([1.0, 0.4])
        out = op.apply(x)
        assert np.allclose(out, [1.0, -0.2], atol=1e-14)

    def test_fixed_on_members(self):
        s = P.Ball(np.zeros(2), 1.0)
        op = P.SemiIntrepidProjector(s, 0.9, 1.0)
        x = np.array([0.3, 0.2])
        assert np.allclose(op.apply(x), x, atol=1e-14)

    def test_effective_relaxation(self):
        x = np.array([1.0, 2.0])
        p = np.array([1.0, 0.0])
        lam = P.semi_intrepid_effective_relaxation(x, p, 0.5, 0.3)
        assert lam == pytest.approx(1.0 + 0.3 / 2.0, rel=1e-15)
        lam = P.semi_intrepid_effective_relaxation(x, p, 0.05, 0.3)
        assert lam == pytest.approx(1.05, rel=1e-15)
        assert P.semi_intrepid_effective_relaxation(p, p, 0.5, 0.3) == 1.0

    @pytest.mark.parametrize("p", [np.zeros(3), np.zeros(1)], ids=["longer", "shorter"])
    def test_effective_relaxation_needs_one_dimension(self, p):
        """A p of another dimension is a DimensionMismatch: a longer one
        leaked numpy's ValueError and a one-entry p broadcast to 1.1."""
        with pytest.raises(P.DimensionMismatch, match=f"expected dimension 2, got {p.size}"):
            P.semi_intrepid_effective_relaxation(np.array([1.0, 0.0]), p, 0.1, 1.0)

    def test_inclusion_for_enlargement(self):
        """For a tau-enlarged set the semi-intrepid step with matching tau
        lands inside the set (the inward segment stays within the set)."""
        disk = P.Enlargement(P.FinitePointSet(np.zeros((1, 2))), 1.0)
        op = P.SemiIntrepidProjector(disk, 0.8, 1.0)
        rng = np.random.default_rng(43)
        for x in rng.normal(scale=4.0, size=(300, 2)):
            assert disk.contains(op.apply(x), tol=1e-9)

    def test_parameter_domains(self):
        s = P.Ball(np.zeros(2), 1.0)
        with pytest.raises(DomainError):
            P.SemiIntrepidProjector(s, -0.1, 1.0)
        with pytest.raises(DomainError):
            P.SemiIntrepidProjector(s, 1.1, 1.0)
        with pytest.raises(DomainError):
            P.SemiIntrepidProjector(s, 0.5, -1.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf])
    def test_nonfinite_tau_is_rejected(self, tau):
        with pytest.raises(DomainError, match=r"tau must lie in \[0, inf\)"):
            P.SemiIntrepidProjector(P.Ball(np.zeros(2), 1.0), 0.5, tau)


class TestGeneralizedDR:
    def test_alpha_one_unit_relaxations_is_composition(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        b = P.Ball(np.array([0.0, 2.0]), 1.0)
        op = P.GeneralizedDR(a, b, 1.0, 1.0, 1.0)
        rng = np.random.default_rng(51)
        for x in rng.normal(scale=3.0, size=(100, 2)):
            pa = a.project(x).canonical
            want = b.project(pa).canonical
            assert np.linalg.norm(op.apply(x) - want) <= 1e-14

    def test_blend_of_double_reflection(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)
        op = P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)
        ra, rb = P.RelaxedProjector(a, 2.0), P.RelaxedProjector(b, 2.0)
        rng = np.random.default_rng(52)
        for x in rng.normal(scale=3.0, size=(100, 2)):
            want = 0.5 * x + 0.5 * rb.apply(ra.apply(x))
            assert np.linalg.norm(op.apply(x) - want) <= 1e-14

    def test_apply_with_trace(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)
        op = P.GeneralizedDR(a, b, 1.5, 0.5, 0.25)
        x = np.array([2.0, 4.0])
        r, s, out = op.apply_with_trace(x)
        pa = a.project(x).canonical
        assert np.allclose(r, x + 1.5 * (pa - x), atol=1e-15)
        pb = b.project(r).canonical
        assert np.allclose(s, r + 0.5 * (pb - r), atol=1e-15)
        assert np.allclose(out, 0.75 * x + 0.25 * s, atol=1e-15)
        assert np.allclose(op.apply(x), out, atol=1e-15)

    def test_parameter_domains(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)
        with pytest.raises(DomainError, match=r"^lambda must lie in \(0, 2\], got 0.0$"):
            P.GeneralizedDR(a, b, 0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            P.GeneralizedDR(a, b, 1.0, 2.5, 0.5)
        with pytest.raises(DomainError):
            P.GeneralizedDR(a, b, 1.0, 1.0, 0.0)
        c = P.Hyperplane(np.array([1.0, 0.0, 0.0]), 0.0)
        with pytest.raises(DomainError, match="^DR operator needs two sets of equal dimension$"):
            P.GeneralizedDR(a, c, 1.0, 1.0, 0.5)

    def test_fixed_point_on_intersection(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)
        b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)
        op = P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)
        x = np.zeros(2)
        assert np.allclose(op.apply(x), x, atol=1e-15)


class TestCyclicTuple:
    def test_applies_in_order(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)  # x-axis
        b = P.Hyperplane(np.array([1.0, -1.0]), 0.0)  # diagonal y = x
        ops = (P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0))
        cyc = P.CyclicTuple(ops)
        x = np.array([1.0, 2.0])
        manual = ops[1].apply(ops[0].apply(x))
        assert cyc.apply(x).tobytes() == manual.tobytes()
        assert len(cyc) == 2
        # order matters for these two sets
        other = P.CyclicTuple((ops[1], ops[0])).apply(x)
        assert np.linalg.norm(other - manual) > 1e-3

    def test_rejects_empty_and_nested(self):
        with pytest.raises(DomainError, match="^cyclic tuple needs at least one member$"):
            P.CyclicTuple(())
        inner = P.CyclicTuple(
            (P.RelaxedProjector(P.Ball(np.zeros(2), 1.0), 1.0),)
        )
        with pytest.raises(DomainError):
            P.CyclicTuple((inner,))

    def test_rejects_a_non_catalog_member(self):
        with pytest.raises(DomainError, match="catalog operators, got object"):
            P.CyclicTuple((P.RelaxedProjector(P.Ball(np.zeros(2), 1.0), 1.0), object()))


def _family_cases():
    """One operator of each family, in R^3, on sets with closed forms."""
    ball, half = P.Ball(np.array([0.2, 0.0, -0.1]), 1.0), P.Halfspace(np.ones(3), 0.5)
    cone = P.PolyhedralCone(np.eye(3) + 0.2)
    return {
        "relaxed": P.RelaxedProjector(cone, 1.5),
        "semi_intrepid": P.SemiIntrepidProjector(ball, 0.7, 0.3),
        "generalized_dr": P.GeneralizedDR(half, ball, 2.0, 1.0, 0.5),
    }


FAMILY_CASES = _family_cases()


class TestLayout:
    """Each family writes its step on rows, `_rows`, and on one point,
    `_step`, which `apply` calls: its bits are the one-row call of `_rows`."""

    @pytest.mark.parametrize("tag", sorted(OPERATOR_TYPES))
    def test_each_family_defines_rows_and_dim(self, tag):
        cls = OPERATOR_TYPES[tag].cls
        assert {"_rows", "_step", "dim"} <= set(cls.__dict__)
        assert FAMILY_CASES[tag].dim == 3

    @settings(max_examples=60, deadline=None)
    @given(x=arrays(float, 3, elements=st.floats(-5.0, 5.0, allow_subnormal=False)),
           tag=st.sampled_from(sorted(OPERATOR_TYPES)))
    def test_apply_is_the_one_row_call_of_rows(self, x, tag):
        op = FAMILY_CASES[tag]
        assert op.apply(x).tobytes() == op._rows(x[None, :])[0].tobytes()
        assert op.apply_many(x[None, :]).tobytes() == op._rows(x[None, :]).tobytes()


class TestOperatorConfig:
    def test_round_trip(self):
        sets = [
            P.Hyperplane(np.array([0.0, 1.0]), 0.0),
            P.Ball(np.zeros(2), 1.0),
        ]
        ops = [
            P.RelaxedProjector(sets[0], 1.5),
            P.SemiIntrepidProjector(sets[1], 0.5, 0.3),
            P.GeneralizedDR(sets[0], sets[1], 2.0, 1.0, 0.5),
        ]
        rng = np.random.default_rng(61)
        for op in ops:
            cfg = P.operator_to_config(op, sets)
            rebuilt = P.operator_from_config(cfg, sets)
            for x in rng.normal(scale=2.0, size=(20, 2)):
                assert np.allclose(
                    op.apply(x), rebuilt.apply(x), atol=1e-15
                )

    def test_bad_records(self):
        sets = [P.Ball(np.zeros(2), 1.0)]
        with pytest.raises(ConfigError):
            P.operator_from_config({"type": "unknown"}, sets)
        with pytest.raises(ConfigError):
            P.operator_from_config({"type": "relaxed", "set": 3, "lambda": 1.0}, sets)
        with pytest.raises(ConfigError):
            P.operator_from_config({"type": "relaxed"}, sets)
        with pytest.raises(ConfigError):
            P.operator_from_config("not a dict", sets)

    @pytest.mark.parametrize("idx", [True, False])
    def test_boolean_set_index_is_rejected(self, idx):
        """JSON true and false are not the set indices 1 and 0."""
        sets = [P.Ball(np.zeros(2), 1.0), P.Ball(np.ones(2), 1.0)]
        with pytest.raises(ConfigError, match="set: must index the scenario sets"):
            P.operator_from_config({"type": "relaxed", "set": idx, "lambda": 1.0}, sets)

    def test_constructor_errors_become_config_errors(self):
        sets = [P.Ball(np.zeros(2), 1.0)]
        with pytest.raises(ConfigError, match=r"lambda must lie in \(0, 2\]"):
            P.operator_from_config({"type": "relaxed", "set": 0, "lambda": 3.0}, sets)

    def test_only_catalog_operators_have_a_config_form(self):
        sets = [P.Ball(np.zeros(2), 1.0)]
        cycle = P.CyclicTuple((P.RelaxedProjector(sets[0], 1.0),))
        with pytest.raises(ConfigError, match="^no config form for operator CyclicTuple$"):
            P.operator_to_config(cycle, sets)

    def test_a_set_outside_the_list_has_no_index(self):
        op = P.RelaxedProjector(P.Ball(np.zeros(2), 1.0), 1.0)
        with pytest.raises(ConfigError,
                           match="^operator references a set outside the scenario list$"):
            P.operator_to_config(op, [P.Ball(np.zeros(2), 1.0)])


FAR = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)
STEP = st.floats(0.0, 2.0, exclude_min=True, allow_subnormal=False)


@st.composite
def affine_target(draw, d):
    """A hyperplane through a point, or an affine set with its anchor, up to
    1e3 from the origin."""
    point = draw(arrays(float, d, elements=FAR))
    if draw(st.booleans()):
        a = draw(arrays(float, d, elements=st.floats(-4.0, 4.0, allow_subnormal=False))
                 .filter(lambda a: np.linalg.norm(a) > 1e-3))
        return P.Hyperplane(a, float(a @ point))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    return P.AffineSubspaceSet(point, q[:draw(st.integers(0, d))].copy())


@st.composite
def affine_operator(draw):
    """A relaxed or generalized DR operator on affine sets and a batch.  The
    bound holds in the standard model, where nothing underflows: a draw
    whose map underflows as it is built is rejected."""
    d = draw(st.integers(1, 8))
    a = draw(affine_target(d))
    if draw(st.booleans()):
        cls, args = P.RelaxedProjector, (a, draw(STEP))
    else:
        cls, args = P.GeneralizedDR, (a, draw(affine_target(d)), draw(STEP), draw(STEP),
                                      draw(st.floats(0.0, 1.0, exclude_min=True,
                                                     allow_subnormal=False)))
    assume(not underflows(lambda: cls(*args)))
    return cls(*args), draw(arrays(float, st.tuples(st.integers(1, 6), st.just(d)), elements=FAR))


def _step_formula(op, x):
    """The step as the operators wrote it before they stepped by their map."""
    if isinstance(op, P.GeneralizedDR):
        return op.apply_with_trace(x)[2]
    return x + op.lam * (op.target.project(x).canonical - x)


class TestAffineMap:
    """A relaxed or generalized DR operator whose sets are all affine steps
    by its map x -> M x + c, built once: a batch row keeps the one-row
    bits, M is nonexpansive, and every step lies within the rounding bound
    of the step formula (conftest.affine_step_bound derives it)."""

    @settings(max_examples=150, deadline=None)
    @given(case=affine_operator())
    def test_map_steps_match_the_formula(self, case):
        op, X = case
        M, c = op._map
        assert np.linalg.norm(M, 2) <= 1.0 + 1e-12
        Y = op.apply_many(X)
        for x, y in zip(X, Y):
            got = op.apply(x)
            assert got.tobytes() == y.tobytes()
            if not underflows(lambda: _step_formula(op, x)):
                assert np.all(np.abs(got - _step_formula(op, x)) <= affine_step_bound(op, x))

    def test_only_affine_sets_give_a_map(self):
        line, ball = P.Hyperplane(np.array([0.0, 1.0]), 0.5), P.Ball(np.zeros(2), 1.0)
        assert P.RelaxedProjector(line, 1.5)._map is not None
        assert P.GeneralizedDR(line, line, 2.0, 2.0, 0.5)._map is not None
        for op in (P.RelaxedProjector(ball, 1.5), P.SemiIntrepidProjector(line, 0.5, 1.0),
                   P.GeneralizedDR(line, ball, 2.0, 2.0, 0.5),
                   P.RelaxedProjector(FormulaHyperplane(line.a, line.b), 1.5)):
            assert getattr(op, "_map", None) is None

    def test_closed_forms(self):
        """P_S(x) = P x + q in the closed forms, not differences of steps."""
        a = np.array([3.0, 4.0])
        P_h, q_h = P.Hyperplane(a, 10.0)._affine_map()
        np.testing.assert_array_equal(P_h, np.eye(2) - np.outer(a, a) / 25.0)
        np.testing.assert_array_equal(q_h, 0.4 * a)
        B = np.array([[0.6, 0.8]])
        P_a, q_a = P.AffineSubspaceSet(np.array([1.0, 2.0]), B)._affine_map()
        np.testing.assert_array_equal(P_a, B.T @ B)
        np.testing.assert_array_equal(q_a, np.array([1.0, 2.0]) - P_a @ np.array([1.0, 2.0]))
        assert P.Ball(np.zeros(2), 1.0)._affine_map() is None


def _far_lines(s, theta_deg, cls):
    """Two lines of R^2 meeting at w = (s, -0.7 s) at theta_deg degrees, the
    point w, and x0 = w + (1, 1)."""
    w, t = np.array([s, -0.7 * s]), np.radians(theta_deg)
    a, b = (cls(n, float(n @ w)) for n in (np.array([0.0, 1.0]),
                                           np.array([-np.sin(t), np.cos(t)])))
    return a, b, P.FinitePointSet(w[None, :]), w + 1.0


@pytest.mark.parametrize("path", [P.Hyperplane, FormulaHyperplane], ids=["map", "formula"])
@pytest.mark.parametrize("method", ["ap", "dr"])
@pytest.mark.parametrize("theta", [30.0, 3.0])
@pytest.mark.parametrize("s", [1.0, 1e3])
def test_far_anchor_reach(s, theta, method, path):
    """Alternating projections and DR (lambda = mu = 2, alpha = 1/2) reach
    tol 1e-9 within 20 000 cycles, by the map and by the step formula, with
    the lines' meeting point up to 1e3 from the origin.  Rounding leaves d_C
    a floor of order eps |w| / (1 - rho); at s = 1e5 and 3 degrees (rho
    cos^2 3 or cos 3 per cycle) it reaches 1e-9, and runs there stop at the
    budget or reach tol by chance, so the pinned range ends at 1e3."""
    a, b, inter, x0 = _far_lines(s, theta, path)
    ops = ([P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0)] if method == "ap"
           else [P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)])
    traj = P.run(ops, x0, (a, b), inter, max_cycles=20_000, tol=1e-9)
    assert traj.stop_reason == "Converged" and traj.c_dist[-1] <= 1e-9
