"""Operator algebra: relaxation identities, compositions, inclusions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import projlab as P
from projlab import ConfigError, DomainError
from projlab.operators import OPERATOR_TYPES


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
        with pytest.raises(DomainError):
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
    """Each family writes its step once, in `_rows`, and `apply` is its
    one-row call."""

    @pytest.mark.parametrize("tag", sorted(OPERATOR_TYPES))
    def test_each_family_defines_rows_and_dim(self, tag):
        cls = OPERATOR_TYPES[tag].cls
        assert "_rows" in cls.__dict__ and "dim" in cls.__dict__
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
