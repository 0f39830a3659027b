"""Trajectory engine: runs, cycle detection, rate fits, certificate checks."""

import dataclasses
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import projlab as P
from projlab import DimensionMismatch, DomainError, InsufficientData
from projlab.errors import check_range, check_whole
from projlab.operators import OPERATOR_TYPES, operator_type
from projlab.runner import DIVERGENCE_NORM, ERROR_FLOOR, TAIL_FRACTION_RANGE, RateFit
from projlab.sets import ProjectionResult, _real_entries

from conftest import (FormulaHyperplane, affine_block_bound, formula_counterpart, two_lines,
                      underflows)


def _orthogonal_lines_run(x0=(3.0, 4.0), **kw):
    a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)  # x-axis
    b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)  # y-axis
    inter = P.FinitePointSet(np.zeros((1, 2)))
    ops = [P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.0)]
    kw.setdefault("max_cycles", 50)
    kw.setdefault("tol", 1e-10)
    return P.run(ops, np.array(x0), [a, b], inter, **kw)


def _two_lines_run(theta, x0=(0.9, 0.35), lam=(1.0, 1.0), **kw):
    a, b, inter = two_lines(theta)
    ops = [P.RelaxedProjector(a, lam[0]), P.RelaxedProjector(b, lam[1])]
    kw.setdefault("max_cycles", 300)
    kw.setdefault("tol", 1e-12)
    return P.run(ops, np.array(x0), [a, b], inter, **kw)


def _reflector_pair_run(max_cycles=30):
    a = P.Orthant((1, 1))
    b = P.Orthant((-1, -1))
    inter = P.FinitePointSet(np.zeros((1, 2)))
    ops = [P.RelaxedProjector(a, 2.0), P.RelaxedProjector(b, 2.0)]
    return P.run(
        ops, np.array([1.0, 2.0]), [a, b], inter,
        max_cycles=max_cycles, tol=1e-12, seed=0,
    )


class TestRun:
    def test_orthogonal_lines_converge_in_one_cycle(self):
        traj = _orthogonal_lines_run()
        assert traj.stop_reason == "Converged"
        assert traj.n_cycles == 1
        assert np.allclose(traj.final, [0.0, 0.0], atol=1e-12)
        assert traj.points.shape == (3, 2)
        # op_index: -1 marks the starting point, then operator slots
        assert list(traj.op_index) == [-1, 0, 1]
        assert np.allclose(traj.cycle_errors(), [5.0, 0.0], atol=1e-12)

    def test_budget_stop(self):
        traj = _two_lines_run(math.pi / 6, max_cycles=3, tol=1e-15)
        assert traj.stop_reason == "Budget"
        assert traj.n_cycles == 3

    def test_replay_is_bit_exact(self):
        t1 = _two_lines_run(math.pi / 4)
        t2 = _two_lines_run(math.pi / 4)
        assert np.array_equal(t1.points, t2.points)
        assert np.array_equal(t1.c_dist, t2.c_dist)

    def test_intersection_distance_dominates_members(self):
        traj = _two_lines_run(math.pi / 6)
        members = np.column_stack([s.distance_many(traj.points) for s in traj.sets])
        assert np.all(traj.c_dist >= members.max(axis=1) - 1e-12)

    def test_divergence_guard(self):
        """Two point reflectors act as a huge translation per cycle; the
        run must stop with the divergence flag once the norm blows up."""
        pa = P.FinitePointSet(np.array([[0.0, 0.0]]))
        pb = P.FinitePointSet(np.array([[6e10, 0.0]]))
        inter = P.FinitePointSet(np.zeros((1, 2)))
        ops = [P.RelaxedProjector(pa, 2.0), P.RelaxedProjector(pb, 2.0)]
        traj = P.run(
            ops, np.array([1.0, 1.0]), [pa, pb], inter,
            max_cycles=100, tol=1e-10, seed=0,
        )
        assert traj.stop_reason == "Diverged"
        assert np.linalg.norm(traj.final) > 1e12

    def test_cycle_iterates_stride(self):
        traj = _two_lines_run(math.pi / 4)
        pts = traj.cycle_iterates()
        assert pts.shape[0] == traj.n_cycles + 1
        assert np.array_equal(pts[0], traj.points[0])
        assert np.array_equal(pts[1], traj.points[traj.cycle_len])


def _reference_run(operators, x0, sets, intersection, max_cycles=10_000, tol=1e-10):
    """The per-point loop `run` replaced, kept as its reference: one `apply`
    and one `distance` per step, each validating its point.  Returns the
    fields of a Trajectory that the loop decides; `sets`, which the loop
    does not read, keeps `run`'s signature."""
    members = operators.members if isinstance(operators, P.CyclicTuple) else tuple(operators)
    x = np.asarray(x0, dtype=float)
    points = [x.copy()]
    op_index = [-1]
    stop = "Budget"
    for _ in range(max_cycles):
        diverged = False
        for j, op in enumerate(members):
            x = op.apply(x)
            points.append(x.copy())
            op_index.append(j)
            if np.linalg.norm(x) > DIVERGENCE_NORM:
                diverged = True
                break
        if diverged:
            stop = "Diverged"
            break
        if intersection.distance(x) <= tol:
            stop = "Converged"
            break
    pts = np.array(points)
    return pts, np.array(op_index, dtype=int), intersection.distance_many(pts), stop


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _by_blocks(ops):
    """Whether `run` steps this cycle by blocks: every member steps by an
    affine map, in a dimension up to the block limit."""
    return (all(getattr(op, "_map", None) is not None for op in ops)
            and ops[0].dim <= P.operators._BLOCK_DIM)


def _assert_run_matches_reference(ops, x0, sets, inter, **kw):
    """`run` against the per-point loop: the stop reason and op_index
    exactly; the points and distances bit for bit, or, where `run` steps by
    blocks and nothing underflows, each point within `affine_block_bound`
    of the loop's and each distance within that bound plus the rounding of
    the two distance evaluations, 8 units of 2^-53 of the larger point
    norm (the distance is 1-Lipschitz)."""
    traj = P.run(ops, x0, sets, inter, **kw)
    pts, op_index, cd, stop = _reference_run(ops, x0, sets, inter, **kw)
    assert traj.stop_reason == stop
    assert _same_bits(traj.op_index, op_index)
    if not _by_blocks(ops):
        assert _same_bits(traj.points, pts) and _same_bits(traj.c_dist, cd)
    elif not underflows(lambda: (P.run(ops, x0, sets, inter, **kw),
                                 _reference_run(ops, x0, sets, inter, **kw))):
        bound = affine_block_bound(ops, pts, traj.points)
        assert np.all(np.linalg.norm(traj.points - pts, axis=1) <= bound)
        scale = np.maximum(np.linalg.norm(traj.points, axis=1), np.linalg.norm(pts, axis=1))
        assert np.all(np.abs(traj.c_dist - cd) <= bound + 8 * 2.0 ** -53 * scale)
    return traj


def _formula_case(case):
    """A case with each hyperplane and affine set replaced by its formula
    counterpart, so `run` takes its per-step loop there."""
    ops, x0, sets, inter, kw, stop = case
    ops = [dataclasses.replace(op, **{f.name: formula_counterpart(getattr(op, f.name))
                                      for f in dataclasses.fields(op)
                                      if isinstance(getattr(op, f.name), P.ClosedSet)})
           for op in ops]
    return ops, x0, tuple(map(formula_counterpart, sets)), inter, kw, stop


def _line(angle):
    return P.Hyperplane(np.array([-math.sin(angle), math.cos(angle)]), 0.0)


def _origin(d=2):
    return P.FinitePointSet(np.zeros((1, d)))


class _FailsBeyond(P.ClosedSet):
    """A test-only line y = 0 in R^2 whose projection of a point of norm
    above `radius` is NaN, or raises `error` when one is given."""

    def __init__(self, radius, error=None):
        self.dim, self.radius, self.error = 2, radius, error

    def project(self, x):
        if np.linalg.norm(x) > self.radius:
            if self.error is not None:
                raise self.error("projection failed")
            p = np.full(2, np.nan)
        else:
            p = np.array([x[0], 0.0])
        return ProjectionResult(p, (p,), False, float(np.linalg.norm(x - p)))


def _walk(b, last=None, cycle_ends_at=None):
    """Reflect through 0, reflect through (b, 0), project onto y = 0: from
    x0 = (1, 1) the end of cycle k is (1 + 2bk, 0), exactly for these b.
    `last` replaces the projection; the intersection is the origin, or the
    point where cycle `cycle_ends_at` ends."""
    pa, pb = P.FinitePointSet(np.zeros((1, 2))), P.FinitePointSet(np.array([[b, 0.0]]))
    line = _line(0.0)
    ops = [P.RelaxedProjector(pa, 2.0), P.RelaxedProjector(pb, 2.0),
           P.RelaxedProjector(line if last is None else last, 1.0)]
    end = [0.0, 0.0] if cycle_ends_at is None else [1.0 + 2.0 * b * cycle_ends_at, 0.0]
    return ops, np.array([1.0, 1.0]), (pa, pb, line), P.FinitePointSet(np.array([end]))


# round ends 1, 2, 4, 8 and 16 by steps and cycles between, all in the first
# round by blocks, whose rounds are 256 cycles (two lines of R^2); 300 stops
# in the second round by blocks and 600 in the third
STOP_CYCLES = (1, 2, 3, 5, 8, 9, 16, 17, 300, 600)


def _stop_at(cycles, counterpart=None):
    """Alternating projections on two lines whose tol is the intersection
    distance after `cycles` cycles, where the run must stop, with a budget
    of 20 cycles, or of twice `cycles` past 20.  With `counterpart` None
    the lines are the catalog's, which `run` steps by blocks, and the
    distance is `run`'s own; else they are the lines `counterpart` gives
    and the distance is the per-point loop's."""
    lines = (_line(0.0), _line(math.pi / 9))
    if counterpart is not None:
        lines = tuple(map(counterpart, lines))
    ops, x0 = [P.RelaxedProjector(s, 1.0) for s in lines], np.array([0.9, 0.35])
    exact, kw = _origin(), {"max_cycles": 2 * cycles if cycles > 20 else 20, "tol": 1e-300}
    errors = (P.run(ops, x0, lines, exact, **kw).c_dist if counterpart is None
              else _reference_run(ops, x0, lines, exact, **kw)[2])[::2]
    return ops, x0, lines, exact, dict(kw, tol=errors[cycles]), "Converged"


def _planes_ap(d):
    """Alternating projections onto two (d/2)-planes of R^d through 0 at
    principal angles of 30 degrees, from a point off both: (ops, x0, sets,
    the origin)."""
    q, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    t = math.radians(30.0)
    sets = (P.AffineSubspaceSet(np.zeros(d), q[:d // 2]),
            P.AffineSubspaceSet(np.zeros(d), math.cos(t) * q[:d // 2] + math.sin(t) * q[d // 2:]))
    return [P.RelaxedProjector(s, 1.0) for s in sets], q.sum(axis=0), sets, _origin(d)


def _affine_pair(d, seed):
    """Two affine sets of R^d with nonzero anchors, of dimensions 2 and 2
    (d = 4) or 5 and 4 (d = 8), whose linear parts meet at principal angles
    of 35 and 60 degrees, and their intersection: a point or a line."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    c = rng.standard_normal(d)

    def turned(i, j, degrees):  # q[i] turned towards q[j]
        t = math.radians(degrees)
        return math.cos(t) * q[i] + math.sin(t) * q[j]

    if d == 4:
        basis_a, basis_c = q[:2], q[:0]
        basis_b = np.stack([turned(0, 2, 35), turned(1, 3, 60)])
    else:
        basis_a, basis_c = q[:5], q[:1]
        basis_b = np.stack([q[0], turned(1, 5, 35), turned(2, 6, 60), turned(3, 7, 35)])
    return (P.AffineSubspaceSet(c + 0.7 * basis_a[1], basis_a),
            P.AffineSubspaceSet(c - 1.3 * basis_b[1], basis_b), P.AffineSubspaceSet(c, basis_c))


def _affine_case(d, ops, seed=0):
    """An affine pair of R^d stepped by ops(A, B) from a point off both, to
    their intersection within 1e-12."""
    a, b, inter = _affine_pair(d, seed)
    x0 = inter.anchor + np.random.default_rng(seed + 1).standard_normal(d)
    return ops(a, b), x0, (a, b), inter, {"max_cycles": 500, "tol": 1e-12}, "Converged"


def _equivalence_cases():
    """(ops, x0, sets, intersection, run keywords, expected stop) per case."""
    a, b = _line(0.0), _line(math.pi / 6)
    lines = (a, b)
    exact = _origin()
    disc, half = P.Ball(np.zeros(2), 1.0), P.Halfspace(np.array([1.0, 1.0]), 0.5)
    lens = (disc, P.Ball(np.array([1.2, 0.0]), 1.0))
    pa, pb = P.FinitePointSet(np.array([[0.0, 0.0]])), P.FinitePointSet(np.array([[6e10, 0.0]]))
    cone = P.PolyhedralCone(np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0], [-1.0, -1.0, 1.0]]))
    plane = P.Hyperplane(np.array([0.2, 0.0, 1.0]), 0.0)
    cases = {
        "relaxed_lam1_exact": (
            [P.RelaxedProjector(s, 1.0) for s in lines], np.array([0.9, 0.35]), lines, exact,
            {"max_cycles": 300, "tol": 1e-12}, "Converged"),
        "relaxed_lam2_budget": (
            [P.RelaxedProjector(P.Orthant((1, 1)), 2.0),
             P.RelaxedProjector(P.Orthant((-1, -1)), 2.0)], np.array([1.0, 2.0]),
            (P.Orthant((1, 1)), P.Orthant((-1, -1))),
            _origin(), {"max_cycles": 30, "tol": 1e-12}, "Budget"),
        "relaxed_lam2_diverged": (
            [P.RelaxedProjector(pa, 2.0), P.RelaxedProjector(pb, 2.0)], np.array([1.0, 1.0]),
            (pa, pb), _origin(), {"max_cycles": 100}, "Diverged"),
        "relaxed_oracle_budget": (
            [P.RelaxedProjector(a, 1.5), P.RelaxedProjector(b, 1.0)], np.array([3.0, -2.0]),
            lines, P.IntersectionHandle(lines), {"max_cycles": 12, "tol": 1e-300}, "Budget"),
        "semi_intrepid_oracle": (
            [P.SemiIntrepidProjector(s, 0.5, 0.1) for s in lens], np.array([0.6, 2.0]), lens,
            P.IntersectionHandle(lens), {"max_cycles": 200}, "Converged"),
        "semi_intrepid_oracle_lines": (
            [P.SemiIntrepidProjector(s, 0.3, 0.05) for s in lines], np.array([1.0, -2.5]),
            lines, P.IntersectionHandle(lines), {"max_cycles": 500}, "Converged"),
        "semi_intrepid_exact": (
            [P.SemiIntrepidProjector(s, 0.3, 0.05) for s in lines], np.array([-2.0, 1.5]),
            lines, exact, {"max_cycles": 500, "tol": 1e-12}, "Converged"),
        "dr_exact": (
            [P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)], np.array([0.9, 0.35]), lines, exact,
            {"max_cycles": 500, "tol": 1e-12}, "Converged"),
        "dr_oracle": (
            [P.GeneralizedDR(disc, half, 1.0, 1.5, 0.7)], np.array([-1.5, 2.5]), (disc, half),
            P.IntersectionHandle((disc, half)), {"max_cycles": 200}, "Converged"),
        "mixed_families_cone": (
            [P.RelaxedProjector(cone, 1.0), P.SemiIntrepidProjector(plane, 0.5, 0.2),
             P.GeneralizedDR(cone, plane, 1.0, 1.0, 0.5)], np.array([0.8, 0.8, -0.5]),
            (cone, plane), _origin(3),
            {"max_cycles": 50, "tol": 1e-300}, "Converged"),
        "relaxed_budget_between_batch_ends": (
            [P.RelaxedProjector(s, 1.0) for s in lines], np.array([0.9, 0.35]), lines, exact,
            {"max_cycles": 11, "tol": 1e-300}, "Budget"),
        # the norm passes 1e12 at the second step of cycle 6, after cycle
        # end 5 and before the batch ends at cycle 8
        "diverged_inside_a_batch": (*_walk(9e10), {"max_cycles": 100}, "Diverged"),
        # cycle end 3 converges untested; cycle 4 diverges
        "converged_before_divergence": (*_walk(1.5e11, cycle_ends_at=3),
                                        {"max_cycles": 100, "tol": 0.5}, "Converged"),
        # cycle end 3 converges untested; a projection in cycle 4 raises
        "converged_before_a_raise": (*_walk(1.0, _FailsBeyond(8.0, RuntimeError), 3),
                                     {"max_cycles": 100, "tol": 0.5}, "Converged"),
        **{f"relaxed_stop_at_cycle_{c}": _stop_at(c) for c in STOP_CYCLES},
        # the affine kernel's one-row form
        **{f"affine_relaxed_lam{lam}_d{d}": _affine_case(
            d, lambda a, b, lam=lam: [P.RelaxedProjector(a, lam), P.RelaxedProjector(b, lam)])
           for d in (4, 8) for lam in (1, 1.5)},
        **{f"affine_dr_d{d}": _affine_case(d, lambda a, b: [P.GeneralizedDR(a, b, 2.0, 2.0, 0.5)])
           for d in (4, 8)},
    }
    # each case `run` steps by blocks keeps a counterpart on the step
    # formula, whose per-step loop matches the reference bit for bit
    cases.update({f"{name}_formula": (_stop_at(int(name.rsplit("_", 1)[1]), formula_counterpart)
                                      if name.startswith("relaxed_stop_at_cycle_")
                                      else _formula_case(case))
                  for name, case in cases.items() if _by_blocks(case[0])})
    return cases


EQUIVALENCE_CASES = _equivalence_cases()


BLOCK_CASES = {"relaxed_lam1_exact", "dr_exact", "relaxed_oracle_budget",
               "relaxed_budget_between_batch_ends",
               *(f"relaxed_stop_at_cycle_{c}" for c in STOP_CYCLES),
               *(name for name in EQUIVALENCE_CASES
                 if name.startswith("affine_") and not name.endswith("_formula"))}


class TestRunMatchesPerPointLoop:
    """Every field the loop decides matches the per-point loop's.  `run`
    steps a (1, d) row through private kernels, bit for bit, except where
    every member steps by an affine map: there it steps by blocks, and its
    points lie within the rounding bound of the loop's; each such case has
    a counterpart on the step formula, which keeps the bits."""

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_case_matches_reference(self, name):
        ops, x0, sets, inter, kw, stop = EQUIVALENCE_CASES[name]
        traj = _assert_run_matches_reference(ops, x0, sets, inter, **kw)
        assert traj.stop_reason == stop

    @pytest.mark.parametrize("name", sorted(EQUIVALENCE_CASES))
    def test_distance_table_is_distance_many(self, name):
        """`run` measures its points by the intersection's kernel, without
        validating them again: the table is distance_many's, bit for bit."""
        ops, x0, sets, inter, kw, _ = EQUIVALENCE_CASES[name]
        traj = P.run(ops, x0, sets, inter, **kw)
        assert _same_bits(traj.c_dist, inter.distance_many(traj.points))

    @pytest.mark.parametrize("line", [P.Hyperplane, FormulaHyperplane], ids=["blocks", "formula"])
    def test_an_overflowing_entry_raises_as_the_loop_did(self, line):
        """The reflection in the point 6e307 of R^1 sends -1.7e308 to inf:
        the run stops Diverged at its first step, and the distance table
        refuses the point as distance_many does in the per-point loop."""
        far = line(np.array([1.0]), 6e307)
        ops = [P.RelaxedProjector(far, 2.0)]
        for call in (P.run, _reference_run):
            with np.errstate(over="ignore"), pytest.raises(
                    DomainError, match="^points entries must be finite$"):
                call(ops, np.array([-1.7e308]), [far], _origin(1))

    def test_cases_cover_every_family_stop_and_intersection(self):
        cases = EQUIVALENCE_CASES.values()
        ops = [op for case in cases for op in case[0]]
        assert {operator_type(op) for op in ops} == set(OPERATOR_TYPES)
        assert {op.lam for op in ops if isinstance(op, P.RelaxedProjector)} >= {1.0, 2.0}
        assert {case[5] for case in cases} == {"Converged", "Budget", "Diverged"}
        assert {isinstance(case[3], P.IntersectionHandle) for case in cases} == {False, True}
        assert {(len(case[1]), type(op).__name__) for case in cases for op in case[0]
                if isinstance(case[2][0], P.AffineSubspaceSet)} == {
            (d, family) for d in (4, 8) for family in ("RelaxedProjector", "GeneralizedDR")}

    def test_cases_on_lines_and_affine_sets_step_by_blocks(self):
        """The cases `run` steps by blocks are those on lines, hyperplanes
        and affine sets, each with its counterpart on the step formula."""
        blocks = {name for name, case in EQUIVALENCE_CASES.items() if _by_blocks(case[0])}
        assert blocks == BLOCK_CASES
        assert {name for name in EQUIVALENCE_CASES if name.endswith("_formula")} == {
            f"{name}_formula" for name in BLOCK_CASES}

    @pytest.mark.parametrize("cycles", STOP_CYCLES)
    def test_stops_at_the_first_converged_cycle_end(self, cycles):
        """By blocks and on the step formula."""
        for suffix in ("", "_formula"):
            ops, x0, sets, inter, kw, _ = EQUIVALENCE_CASES[f"relaxed_stop_at_cycle_{cycles}{suffix}"]
            assert P.run(ops, x0, sets, inter, **kw).n_cycles == cycles

    def test_each_cycle_end_is_tested_once_in_batches(self):
        def batches(case, max_cycles):
            ops, x0, sets, inter, _, _ = EQUIVALENCE_CASES[case]
            counted = _CountingSet(inter)
            traj = P.run(ops, x0, sets, counted, max_cycles=max_cycles, tol=1e-300)
            return counted.batches[:-1], counted.batches[-1] == traj.n_points

        # by blocks every round is the cap, 256 cycles of 2 steps in R^2,
        # the 1024 rows of operators._BLOCK_ROWS, the last cut to the
        # budget: cycle ends 1-20, then the table of every point
        assert batches("relaxed_lam1_exact", 20) == ([20], True)
        assert batches("relaxed_lam1_exact", 1000) == ([256, 256, 256, 232], True)
        # by steps the rounds open with 1 cycle and stop at 8 (operators._TEST_BATCH):
        # cycle ends 1, 2, 3-4, 5-8, 9-16, 17-20
        assert batches("relaxed_lam1_exact_formula", 20) == ([1, 1, 2, 4, 8, 4], True)
        assert batches("relaxed_lam1_exact_formula", 1000) == ([1, 1, 2, 4] + [8] * 124, True)

    def test_member_sets_are_kept_but_not_measured(self, tmp_path):
        """`run` checks and keeps its sets but asks none of them for a
        distance; only the CSV writer does, one batch of every point each."""
        ops, x0, sets, inter, kw, _ = EQUIVALENCE_CASES["relaxed_lam1_exact"]
        counted = tuple(_CountingSet(s) for s in sets)
        traj = P.run(ops, x0, counted, inter, **kw)
        assert traj.sets == counted and not hasattr(traj, "set_dists")
        assert [(s.rows, s.batches) for s in counted] == [(0, [])] * len(counted)
        P.export_trajectory_csv(traj, tmp_path / "trajectory.csv")
        assert [s.batches for s in counted] == [[traj.n_points]] * len(counted)

    @settings(max_examples=40, deadline=None)
    @given(x0=arrays(float, 2, elements=st.floats(-4.0, 4.0, allow_subnormal=False)),
           family=st.sampled_from(["relaxed_lam1_exact", "relaxed_oracle_budget",
                                   "semi_intrepid_oracle_lines", "dr_exact", "dr_oracle",
                                   "relaxed_lam1_exact_formula", "dr_exact_formula"]))
    def test_any_start_matches_reference(self, x0, family):
        ops, _, sets, inter, kw, _ = EQUIVALENCE_CASES[family]
        _assert_run_matches_reference(ops, x0, sets, inter, **dict(kw, max_cycles=20))


def _affine_cycle(seed, dim=None):
    """A seeded cycle of 1-4 relaxed and generalized DR members in R^d, d
    1-8 or `dim`, on hyperplanes and affine sets through one point w up to
    1e3 from the origin, with their anchors up to 1e3 from w; lambda and mu in
    (0, 2] and alpha in (0, 1].  Returns (ops, x0, sets, C, max_cycles), C
    the sets' exact intersection, w plus the common part of their linear
    parts."""
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 9)) if dim is None else dim
    w = rng.standard_normal(d) * 10.0 ** rng.uniform(-1.0, 3.0)
    sets, normals = [], [np.zeros((1, d))]

    def target():
        if rng.random() < 0.5:
            a = rng.standard_normal(d)
            sets.append(P.Hyperplane(a, float(a @ w)))
            normals.append(a[None, :])
        else:
            q, _ = np.linalg.qr(rng.standard_normal((d, d)))
            k = int(rng.integers(0, d + 1))
            sets.append(P.AffineSubspaceSet(w + rng.uniform(-1e3, 1e3, k) @ q[:k], q[:k].copy()))
            normals.append(q[k:])
        return sets[-1]

    def step():
        return 2.0 - rng.uniform(0.0, 2.0)

    ops = [P.RelaxedProjector(target(), step()) if rng.random() < 0.5
           else P.GeneralizedDR(target(), target(), step(), step(), 1.0 - rng.uniform(0.0, 1.0))
           for _ in range(int(rng.integers(1, 5)))]
    vt, rank = P.sets.svd_rank(np.vstack(normals), P.sets.RANK_TOL)
    x0 = w + rng.standard_normal(d) * 10.0 ** rng.uniform(-2.0, 2.0)
    return ops, x0, sets, P.AffineSubspaceSet(w, vt[rank:]), int(rng.integers(1, 41))


# The reference: `run` grew its stack with this builder, verbatim, round by
# round as the rounds first read it, before the cycle built the stack whole;
# asked for the cap's cycles at once, a power of two, it cuts no doubling.
def _parent_cycle_prefixes(maps, cycles, built):
    """The stacked prefix maps of at least `cycles` cycles of the affine
    steps `maps`, a list of (M_i, c_i), as (A, b): block j of d rows of A
    and of b is the map x -> A_j x + b_j of the first j steps, A_j = M_j
    A_(j-1) and b_j = M_j b_(j-1) + c_j, member j taken cyclically.
    Block m is the cycle's own map.  With `built` None the first cycle is
    that chain; `built`, this function's result for fewer cycles, is
    extended by doubling, c cycles to 2c: A_(cm+i) = A_i A_cm and
    b_(cm+i) = A_i b_cm + b_i, the last doubling only up to `cycles`."""
    if built is None:
        A, b = [maps[0][0]], [maps[0][1]]
        for M, c in maps[1:]:
            A.append(M.dot(A[-1]))
            b.append(M.dot(b[-1]) + c)
        built = np.concatenate(A), np.concatenate(b)
    A, b = built
    d, rows = A.shape[1], cycles * len(maps) * A.shape[1]
    while A.shape[0] < rows:
        r = min(A.shape[0], rows - A.shape[0])
        A, b = (np.concatenate([A, A[:r].dot(A[-d:])]),
                np.concatenate([b, A[:r].dot(b[-d:]) + b[:r]]))
    return A, b


class TestRunByBlocks:
    """Where every member steps by an affine map, `run` steps a round of
    cycles by one product over the cycle's stacked prefix maps; the
    decided fields are the per-point loop's and the points lie within
    `affine_block_bound` of its points."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_seeded_affine_cycles_match_the_reference(self, seed):
        ops, x0, sets, inter, max_cycles = _affine_cycle(seed)
        assert _by_blocks(ops)
        traj = _assert_run_matches_reference(ops, x0, sets, inter,
                                             max_cycles=max_cycles, tol=1e-5)
        assert traj.n_cycles == (len(traj.op_index) - 1) // len(ops)

    @pytest.mark.parametrize("line", [P.Hyperplane, FormulaHyperplane], ids=["blocks", "formula"])
    def test_translation_diverges_at_the_same_step(self, line):
        """Reflections in the parallel lines y = 0 and y = 1 translate by
        (0, 2) a cycle: from x0 just below 1e12 the norm passes 1e12 at the
        second step of cycle 3, on both paths as in the per-point loop."""
        lines = (line(np.array([0.0, 1.0]), 0.0), line(np.array([0.0, 1.0]), 1.0))
        ops = [P.RelaxedProjector(s, 2.0) for s in lines]
        x0 = np.array([0.0, DIVERGENCE_NORM - 5.0])
        traj = _assert_run_matches_reference(ops, x0, lines, _origin(), max_cycles=100)
        assert traj.stop_reason == "Diverged" and traj.n_points == 7
        assert traj.final[1] == DIVERGENCE_NORM + 1.0

    def test_above_the_dimension_limit_the_steps_keep_their_bits(self):
        d = P.operators._BLOCK_DIM + 1
        rng = np.random.default_rng(3)
        a, b = (P.Hyperplane(rng.standard_normal(d), 0.0) for _ in range(2))
        ops = [P.RelaxedProjector(a, 1.0), P.RelaxedProjector(b, 1.5)]
        assert not _by_blocks(ops)
        pts, _, cd, stop = _reference_run(ops, rng.standard_normal(d), (a, b), _origin(d),
                                          max_cycles=30)
        traj = P.run(ops, pts[0], (a, b), _origin(d), max_cycles=30)
        assert traj.stop_reason == stop
        assert _same_bits(traj.points, pts) and _same_bits(traj.c_dist, cd)

    @pytest.mark.parametrize("d", [2, 3, 8, 9, 16, 32])
    @pytest.mark.parametrize("seed", range(3))
    def test_the_stack_is_the_reference_doubled_to_the_cap(self, d, seed):
        """A cycle's stacked prefix maps are, bit for bit, the reference's
        stack for the cap's cycles built from nothing: one cycle, then
        doublings straight to the cap."""
        ops = _affine_cycle(seed, d)[0]
        rows = len(ops) * d
        cap = max(8, 2 ** int(math.log2(1024 / rows)))
        built = _parent_cycle_prefixes([op._map for op in ops], cap, None)
        A, b = P.CyclicTuple(ops)._prefixes
        assert _same_bits(A, built[0]) and _same_bits(b, built[1])
        assert A.shape == (cap * rows, d) and not (A.flags.writeable or b.flags.writeable)

    @pytest.mark.parametrize("case", ["semi_intrepid", "cone", "d33"])
    def test_off_the_block_path_the_cycle_holds_no_stack(self, case):
        """A semi-intrepid member, a member on a set with no affine map, or a
        dimension above operators._BLOCK_DIM leaves the stack None."""
        d = 33 if case == "d33" else 2
        line = P.Hyperplane(np.ones(d), 0.0)
        other = {"semi_intrepid": P.SemiIntrepidProjector(line, 0.5, 1.0),
                 "cone": P.RelaxedProjector(P.PolyhedralCone(np.eye(2)), 1.0),
                 "d33": P.RelaxedProjector(P.Hyperplane(np.arange(1.0, d + 1), 0.0), 1.0)}[case]
        ops = [P.RelaxedProjector(line, 1.0), other]
        assert P.CyclicTuple(ops)._prefixes is None and not _by_blocks(ops)

    @pytest.mark.parametrize("d, m, cycles", [(2, 2, 256), (32, 2, 16), (32, 5, 8)])
    def test_the_stack_holds_the_caps_rows(self, d, m, cycles):
        """The stack holds the cap's cycles: as many as 1024 rows hold, a
        power of two and at least 8, so max(1024, 8 m d) rows at most:
        1024 rows of two members in R^2 and in R^32, 1280 of five in R^32.
        A run of any length reads slices of it and leaves it as built."""
        ops = [P.RelaxedProjector(P.Hyperplane(np.arange(1.0, d + 1) ** j, 0.0), 1.0)
               for j in range(m)]
        cycle = P.CyclicTuple(ops)
        A, b = cycle._prefixes
        assert A.shape == (cycles * m * d, d) and b.shape == (cycles * m * d,)
        before = A.tobytes(), b.tobytes()
        P.run(cycle, np.ones(d), [], _origin(d), max_cycles=3 * cycles + 1, tol=1e-300)
        assert cycle._prefixes[0] is A and (A.tobytes(), b.tobytes()) == before

    @pytest.mark.parametrize("d", [2, 8, 9, 16, 32])
    @pytest.mark.parametrize("seed", range(3))
    def test_long_rounds_match_the_reference(self, d, seed):
        """A seeded cycle of m steps in R^d runs rounds of its cap, each
        from the row where the last ended: three of the cap and a cut one
        of half of it.  `run` is handed a point off the sets as its
        intersection, so no cycle end converges and both runs take the
        whole budget; every row is within the bound, as nothing
        underflows."""
        ops, x0, sets, inter, _ = _affine_cycle(seed, d)
        rows = len(ops) * d
        cap = max(8, 2 ** int(math.log2(P.operators._BLOCK_ROWS / rows)))
        rounds = [cap, cap, cap, cap // 2]
        kw = {"max_cycles": sum(rounds), "tol": 1e-300}
        assert list(P.operators._rounds(kw["max_cycles"], rows)) == rounds
        off = P.FinitePointSet(inter.anchor[None, :] + 1.0)
        assert not underflows(lambda: (P.run(ops, x0, sets, off, **kw),
                                       _reference_run(ops, x0, sets, off, **kw)))
        traj = _assert_run_matches_reference(ops, x0, sets, off, **kw)
        assert traj.stop_reason == "Budget" and traj.n_cycles == kw["max_cycles"]

    def test_the_cycle_map_is_the_mth_prefix(self):
        """Block m of the stacked maps is the cycle's own map: its product
        with x is one cycle of the members' maps, to rounding."""
        ops, x0, _, _, _, _ = EQUIVALENCE_CASES["affine_relaxed_lam1.5_d8"]
        A, b = P.CyclicTuple(ops)._prefixes
        d = len(x0)
        np.testing.assert_allclose(A[d:2 * d].dot(x0) + b[d:2 * d], P.CyclicTuple(ops).apply(x0),
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("line", [P.Hyperplane, FormulaHyperplane], ids=["blocks", "formula"])
    def test_an_overflowing_norm_reads_as_diverged(self, line):
        """From x0 = (1e160, 1e160) the first step's squared norm
        overflows: the run stops Diverged with no overflow warning, and a
        distance whose square overflows reads inf."""
        lines = (line(np.array([0.0, 1.0]), 0.0), line(np.array([1.0, -1.0]), 0.0))
        ops = [P.RelaxedProjector(s, 1.0) for s in lines]
        traj = P.run(ops, np.array([1e160, 1e160]), lines, _origin())
        assert traj.stop_reason == "Diverged" and traj.n_points == 2
        assert traj.points[1].tolist() == [1e160, 0.0]
        assert traj.c_dist.tolist() == [math.inf, math.inf]


class _CountingSet(P.ClosedSet):
    """A test-only wrapper that counts the rows its oracle is asked for."""

    def __init__(self, inner):
        self.inner, self.dim, self.rows, self.batches = inner, inner.dim, 0, []

    def project(self, x):
        self.rows += 1
        return self.inner.project(x)

    def _nearest_many(self, X):
        self.rows += X.shape[0]
        self.batches.append(X.shape[0])
        return self.inner._nearest_many(X)


class _NanSet(P.ClosedSet):
    """A test-only set whose projection is NaN everywhere."""

    def __init__(self, dim):
        self.dim, self.rows = dim, 0

    def project(self, x):
        self.rows += 1
        p = np.full(self.dim, np.nan)
        return ProjectionResult(p, (p,), False, math.nan)


class TestRunErrors:
    """`run` validates once: a bad input raises before any step, and a NaN
    iterate raises where the per-point loop raised."""

    def _counted_line(self):
        line = _CountingSet(_line(0.0))
        return line, [P.RelaxedProjector(line, 1.0)]

    def test_x0_of_the_wrong_dimension(self):
        line, ops = self._counted_line()
        with pytest.raises(DimensionMismatch, match="expected dimension 2, got 3"):
            P.run(ops, np.ones(3), [line], _origin())
        assert line.rows == 0

    def test_members_of_different_dimensions(self):
        line, ops = self._counted_line()
        other = P.RelaxedProjector(P.Ball(np.zeros(3), 1.0), 1.0)
        with pytest.raises(DimensionMismatch, match="share one dimension"):
            P.CyclicTuple((ops[0], other))
        for make in (P.UnionOfSets, P.IntersectionHandle):
            with pytest.raises(DimensionMismatch, match="share one dimension"):
                make((line, other.target))
        with pytest.raises(DimensionMismatch):
            P.run(ops + [other], np.ones(2), [line], _origin())
        assert line.rows == 0

    def test_a_set_of_another_dimension(self):
        """Every set of the distance tables is checked against x0 before
        any step, not in the tables after the loop."""
        line, ops = self._counted_line()
        with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
            P.run(ops, np.ones(2), [line, P.Ball(np.zeros(3), 1.0)], _origin())
        assert line.rows == 0

    @pytest.mark.parametrize("where", ["set", "intersection"])
    def test_a_non_set_is_named(self, where):
        """A set or an intersection that is not a ClosedSet is a DomainError
        naming its type, raised before any step."""
        line, ops = self._counted_line()
        sets, inter = ([line, object()], _origin()) if where == "set" else ([line], object())
        with pytest.raises(DomainError, match=r"^run.s sets must be ClosedSets, got object$"):
            P.run(ops, np.ones(2), sets, inter)
        assert line.rows == 0

    def test_intersection_of_another_dimension(self):
        line, ops = self._counted_line()
        with pytest.raises(DimensionMismatch, match="expected dimension 3, got 2"):
            P.run(ops, np.ones(2), [line], _origin(3))
        assert line.rows == 0  # the per-point loop stepped once, then raised

    @pytest.mark.parametrize("first", [False, True], ids=["last_member", "first_member"])
    def test_nan_projection_raises_where_the_loop_raised(self, first):
        def setup():
            nan = _NanSet(2)
            line = _CountingSet(_line(0.0))
            ops = [P.RelaxedProjector(nan, 1.0), P.RelaxedProjector(line, 1.0)]
            return nan, line, ops[::1 if first else -1]

        for call in (P.run, _reference_run):
            nan, line, ops = setup()
            with pytest.raises(DomainError, match="vector entries must be finite"):
                call(ops, np.array([1.0, 2.0]), [line], _origin())
            assert (nan.rows, line.rows) == ((1, 0) if first else (1, 1))

    @pytest.mark.parametrize("error, exc, match", [
        (None, DomainError, "vector entries must be finite"),
        (RuntimeError, RuntimeError, "projection failed"),
    ], ids=["nan", "raise"])
    def test_failure_after_untested_cycle_ends_raises(self, error, exc, match):
        """The projection fails in cycle 10, two cycles into the batch of
        cycle ends 9-16; cycle end 9 is tested first and is not converged."""
        ops, x0, sets, inter = _walk(1.0, _FailsBeyond(20.0, error))
        for call in (P.run, _reference_run):
            with pytest.raises(exc, match=match):
                call(ops, x0, sets, inter, max_cycles=100)

    def test_non_catalog_member_is_a_domain_error(self):
        with pytest.raises(DomainError, match="catalog operators, got function"):
            P.CyclicTuple((lambda x: x,))
        with pytest.raises(DomainError, match="catalog operators"):
            P.run([object()], np.ones(2), [], _origin())


class TestDetectCycle:
    def test_reflector_pair_two_cycle(self):
        traj = _reflector_pair_run()
        assert traj.stop_reason == "Budget"
        rep = P.detect_cycle(traj, tol=1e-12)
        assert rep is not None
        assert rep.period == 2
        assert rep.start_index == 1
        got = {tuple(np.round(s, 9)) for s in rep.states}
        assert got == {(1.0, 2.0), (-1.0, -2.0)}
        assert rep.max_deviation <= 1e-12

    def test_reflection_projection_four_pattern(self):
        a = P.Hyperplane(np.array([0.0, 1.0]), 0.0)  # x-axis
        b = P.Hyperplane(np.array([1.0, 0.0]), 0.0)  # y-axis
        inter = P.FinitePointSet(np.zeros((1, 2)))
        ops = [P.RelaxedProjector(a, 2.0), P.RelaxedProjector(b, 1.0)]
        traj = P.run(
            ops, np.array([0.0, 1.0]), [a, b], inter,
            max_cycles=30, tol=1e-12, seed=0,
        )
        rep = P.detect_cycle(traj)
        assert rep is not None
        assert rep.period == 4
        assert rep.start_index == 0
        want = np.array([[0.0, 1.0], [0.0, -1.0], [0.0, -1.0], [0.0, 1.0]])
        assert np.allclose(rep.states, want, atol=1e-12)

    def test_no_cycle_on_convergent_run(self):
        assert P.detect_cycle(_orthogonal_lines_run()) is None
        assert P.detect_cycle(_two_lines_run(math.pi / 3)) is None

    def test_deviation_tolerance(self):
        traj = _reflector_pair_run()
        assert P.detect_cycle(traj, tol=0.0) is not None  # exact recurrence


def _fit_rlinear_reference(errors, tail_fraction=0.5, burn_in=10) -> RateFit:
    """`fit_rlinear` as written before its calls were trimmed, kept verbatim
    as its reference."""
    e = _real_entries(errors, "errors")  # a bool or a string is not an error
    if e.ndim != 1:
        raise DomainError("errors must be a flat sequence")
    if not np.all((e >= 0.0) & (e < np.inf)):  # NaN fails both
        raise DomainError("errors must be finite and nonnegative")
    if e.size < 10:
        raise InsufficientData(f"need at least 10 error entries, got {e.size}")
    tail_fraction = check_range("tail_fraction", tail_fraction, *TAIL_FRACTION_RANGE)
    burn_in = check_whole("burn_in", check_range("burn_in", burn_in, 0.0, np.inf))
    burn_in = min(burn_in, e.size)
    idx = np.arange(e.size)[burn_in:]
    tail = e[burn_in:]
    start = idx.size - max(1, int(np.ceil(tail_fraction * idx.size)))
    idx = idx[start:]
    tail = tail[start:]
    keep = tail > ERROR_FLOOR
    censored = int(np.sum(~keep))
    idx = idx[keep]
    tail = tail[keep]
    if idx.size < 5:
        raise InsufficientData(
            f"only {idx.size} points above the floor in the fit window")
    logs = np.log(tail)
    A = np.column_stack([idx.astype(float), np.ones(idx.size)])
    coef, *_ = np.linalg.lstsq(A, logs, rcond=None)
    slope, intercept = coef
    pred = A @ coef
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rho = float(np.exp(slope))
    return RateFit(rho, float(np.exp(intercept)),
                   (int(idx[0]), int(idx[-1]) + 1), int(idx.size), r2,
                   censored, rho >= 1.0)


@st.composite
def _error_sequences(draw):
    """Noisy geometric error sequences of 0 to 80 entries, as a float array
    or a list, with up to 5 entries replaced by a zero or a value at or near
    the floor and, in about one draw of eight, one by a NaN, an infinity or
    a negative value."""
    n = draw(st.integers(0, 80))
    noise = draw(arrays(float, n, elements=st.floats(-1.0, 1.0)))
    e = draw(st.floats(1e-2, 1e2)) * draw(st.floats(0.6, 1.2)) ** np.arange(n) * np.exp(noise)
    for i in draw(st.lists(st.integers(0, n - 1), max_size=5)) if n else []:
        e[i] = draw(st.sampled_from([0.0, -0.0, 1e-15, ERROR_FLOOR, 2e-14]))
    bad = draw(st.sampled_from([None] * 21 + [math.nan, math.inf, -1.0]))
    if n and bad is not None:
        e[draw(st.integers(0, n - 1))] = bad
    return e if draw(st.booleans()) else e.tolist()


class TestFitRlinear:
    def test_exact_geometric(self):
        fit = P.fit_rlinear([0.5 ** n for n in range(40)])
        assert fit.rho == pytest.approx(0.5, rel=1e-12)
        assert fit.sigma == pytest.approx(1.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.non_convergent

    def test_modulated_geometric(self):
        errs = [3.0 * 0.9 ** n * (1.0 + 0.01 * (-1) ** n) for n in range(40)]
        fit = P.fit_rlinear(errs)
        assert 0.899 <= fit.rho <= 0.901

    def test_constant_sequence_flags_non_convergent(self):
        fit = P.fit_rlinear([1.0] * 40)
        assert fit.rho == pytest.approx(1.0, abs=1e-12)
        assert fit.non_convergent

    def test_doubling_errors_report_the_fitted_rho(self):
        """A divergent sequence reports its fitted rate, not a clamped one."""
        fit = P.fit_rlinear([2.0 ** n for n in range(40)])
        assert fit.rho == pytest.approx(2.0, abs=1e-12)
        assert fit.non_convergent

    def test_too_few_entries(self):
        with pytest.raises(InsufficientData):
            P.fit_rlinear([0.5] * 8)

    def test_fully_floored_window(self):
        with pytest.raises(InsufficientData):
            P.fit_rlinear([0.1 ** n for n in range(30)])

    def test_partial_floor_censoring(self):
        errs = [0.5 ** n for n in range(40)]
        errs[30] = 1e-16
        fit = P.fit_rlinear(errs)
        assert fit.censored == 1
        assert 0.45 <= fit.rho <= 0.55

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_nan_infinite_or_negative_entries_raise(self, bad):
        """A NaN entry was counted as censored, and an infinite one reached
        lstsq's RuntimeWarning."""
        errs = 0.9 ** np.arange(40.0)
        errs[30] = bad
        with pytest.raises(DomainError, match="errors must be finite and nonnegative"):
            P.fit_rlinear(errs)

    @pytest.mark.parametrize("errs, entry", [
        ([str(0.5 ** k) for k in range(20)], "errors[0] must be a real number, got '1.0'"),
        ([True] * 20, "errors[0] must be a real number, got True"),
        (np.array([0.5] * 19 + [True], dtype=object), "errors[19] must be a real number"),
        (np.ones(20, dtype=bool), "errors[0] must be a real number, got True"),
    ], ids=["strings", "bools", "object_array", "bool_array"])
    def test_strings_and_bools_are_not_errors(self, errs, entry):
        """The array rule's entry walk: a string read as 0.5 and a bool as
        1.0."""
        with pytest.raises(DomainError, match="^" + re.escape(entry)):
            P.fit_rlinear(errs)

    def test_a_float_array_skips_the_entry_walk(self, monkeypatch):
        """`trajectory` fits float arrays: they cost one dtype test."""
        def refuse(*args):
            raise AssertionError("walked a float array")

        monkeypatch.setattr(P.sets, "_check_entries", refuse)
        assert P.fit_rlinear(0.5 ** np.arange(20.0)).rho == pytest.approx(0.5, rel=1e-12)

    def test_window_controls(self):
        errs = [1.0] * 20 + [0.5 ** n for n in range(30)]
        fit = P.fit_rlinear(errs, burn_in=25, tail_fraction=0.4)
        assert fit.rho == pytest.approx(0.5, rel=1e-9)

    @settings(max_examples=400, deadline=None)
    @given(errors=_error_sequences(),
           tail_fraction=st.one_of(
               st.floats(0.1, 1.0), st.floats(0.1, 1.0), st.floats(0.0, 1.0),
               st.sampled_from([5e-324, 1e-300, 1e-3, 0.5, 1.0 - 2.0 ** -53, 1.0,
                                0.0, -0.5, 1.5, math.nan, "0.5"])),
           burn_in=st.one_of(st.integers(0, 15), st.integers(0, 15), st.integers(-2, 90),
                             st.sampled_from([3.0, 2.5, math.inf, True])))
    def test_fit_matches_its_reference_bit_for_bit(self, errors, tail_fraction, burn_in):
        """The fit takes fewer calls than its reference but returns the same
        RateFit, field for field and bit for bit, and rejects the same inputs
        with the same exception and message."""
        def outcome(fit):
            try:
                return dataclasses.astuple(fit(errors, tail_fraction, burn_in))
            except Exception as exc:
                return type(exc), str(exc)

        # a float's repr round-trips, and names np.float64 and np.int64
        assert repr(outcome(P.fit_rlinear)) == repr(outcome(_fit_rlinear_reference))


class TestKStepAndTraceChecks:
    def test_k_step_reduction_holds_for_certificate(self):
        traj = _two_lines_run(math.pi / 3)
        kap = 1.0 / math.sin(math.pi / 6) + 0.05
        cert = P.rate_convex_cyclic([1.0, 1.0], kap)
        rep = P.check_k_step_reduction(traj, cert.block_len, cert.rho_block)
        assert rep.violations == 0

    def test_k_step_reduction_needs_two_blocks(self):
        traj = _orthogonal_lines_run()  # one cycle: 2 applications
        assert traj.n_points == 3
        with pytest.raises(DomainError, match="^trajectory must contain at least 2k applications$"):
            P.check_k_step_reduction(traj, 2, 0.5)

    def test_k_step_reduction_catches_overclaim(self):
        traj = _two_lines_run(math.pi / 3)
        rep = P.check_k_step_reduction(traj, 2, 0.1)
        assert rep.violations > 0
        assert rep.worst_margin < 0

    def test_fejer_trace_projectors(self):
        traj = _two_lines_run(math.pi / 4)
        rep = P.check_fejer_trace(traj, (1.0, 1.0), np.zeros(2))
        assert rep.violations == 0

    def test_fejer_trace_overstated_beta(self):
        traj = _two_lines_run(math.pi / 4)
        rep = P.check_fejer_trace(traj, (1.0, 3.0), np.zeros(2))
        assert rep.violations > 0

    def test_fejer_trace_per_phase_table(self):
        traj = _two_lines_run(math.pi / 4)
        rep = P.check_fejer_trace(traj, [(1.0, 1.0), (1.0, 1.0)], np.zeros(2))
        assert rep.violations == 0

    @pytest.mark.parametrize("pair, table", [
        (np.array([1.0, 3.0]), [(1.0, 3.0), (1.0, 3.0)]),
        ([np.float64(1.0), np.float64(1.0)], [(1.0, 1.0), (1.0, 1.0)]),
        (np.array([[1.0, 1.0], [1.0, 3.0]]), [(1.0, 1.0), (1.0, 3.0)]),
        (np.array([[1.0, 3.0], [1.0, 1.0]]), ((1.0, 3.0), (1.0, 1.0))),
    ], ids=["array_pair", "list_of_numpy_scalars", "array_table", "array_table_rev"])
    def test_fejer_trace_reads_an_array_as_a_pair_or_a_table(self, pair, table):
        """An array of two numbers is one (gamma, beta) pair and an (m, 2)
        array is a per-phase table: the report equals the list form's."""
        traj = _two_lines_run(math.pi / 4)
        got = P.check_fejer_trace(traj, pair, np.zeros(2))
        assert repr(got) == repr(P.check_fejer_trace(traj, table, np.zeros(2)))

    @pytest.mark.parametrize("bad", [None, 1.0, np.float64(1.0), 2, np.array(1.0),
                                     [1.0, 0.5, 0.3], [(1.0, 0.5), (1.0, 0.5, 0.2)],
                                     [(1.0, 0.5)] * 3],
                             ids=["none", "float", "numpy_scalar", "int", "zero_d_array",
                                  "table_of_numbers", "table_entry_of_three",
                                  "table_of_three_pairs"])
    def test_fejer_trace_rejects_constants_that_are_no_pair(self, bad):
        """A table entry that is no pair raised TypeError or ValueError
        from unpacking it; a table needs one pair per phase of the cycle."""
        with pytest.raises(DomainError, match="constants"):
            P.check_fejer_trace(_two_lines_run(math.pi / 4), bad, np.zeros(2))

    def test_rlinear_envelope(self):
        traj = _two_lines_run(math.pi / 4)
        a, b, inter = two_lines(math.pi / 4)
        kap = P.estimate_linear_regularity(
            [a, b], inter, np.zeros(2), 1.0, samples=2000, seed=0
        )
        cert = P.rate_cyclic_projections(2, 0.0, kap.value)
        rep = P.check_rlinear_envelope(traj, cert)
        assert rep.violations == 0
        assert rep.extra["xbar_quality"] <= 1e-9

    def test_rlinear_envelope_needs_an_applicable_certificate(self):
        weak = P.rate_cyclic_projections(2, 0.5, 1.0)
        assert not weak.applicable
        with pytest.raises(DomainError,
                           match=r"^certificate is not applicable \(rho_block >= 1\)$"):
            P.check_rlinear_envelope(_two_lines_run(math.pi / 4), weak)


class TestCompareCertificate:
    def test_certificate_dominates_fit(self):
        traj = _two_lines_run(math.pi / 3)
        cert = P.rate_convex_cyclic([1.0, 1.0], 1.0 / math.sin(math.pi / 6))
        rep = P.compare_certificate(traj, cert)
        assert rep["ok"]
        assert rep["rho_fit_per_iterate"] <= rep["rho_cert_per_iterate"]
        # the empirical per-cycle rate for projectors onto two lines is
        # cos^2(theta); per iterate that is cos(theta)
        assert rep["rho_fit_per_iterate"] == pytest.approx(
            math.cos(math.pi / 3), abs=1e-6
        )

    def test_overclaimed_certificate_is_not_ok(self):
        traj = _two_lines_run(math.pi / 3)
        bad = P.rate_cyclic_projections(2, 0.0, 1.05)
        rep = P.compare_certificate(traj, bad)
        assert not rep["ok"]
        assert rep["margin"] < 0

    def test_non_applicable_certificate_is_vacuous(self):
        traj = _two_lines_run(math.pi / 3)
        weak = P.rate_cyclic_projections(2, 0.5, 1.0)
        if not weak.applicable:
            rep = P.compare_certificate(traj, weak)
            assert rep["ok"]
            assert rep["vacuous"]

    def test_a_short_run_above_tol_has_no_fit(self):
        """A run that stops at its budget of 3 cycles above tol has 4 cycle
        errors, too few to fit, and did not converge: the fit's
        InsufficientData reaches the caller."""
        traj = _two_lines_run(math.pi / 3, max_cycles=3)
        assert traj.stop_reason == "Budget" and traj.c_dist[-1] > traj.tol
        cert = P.rate_convex_cyclic([1.0, 1.0], 1.0 / math.sin(math.pi / 6))
        with pytest.raises(InsufficientData, match="^need at least 10 error entries, got 4$"):
            P.compare_certificate(traj, cert)

    def test_finite_convergence_is_trivially_ok(self):
        traj = _orthogonal_lines_run()
        cert = P.rate_convex_cyclic([1.0, 1.0], 1.5)
        rep = P.compare_certificate(traj, cert)
        assert rep["ok"]
        assert rep["finite_convergence"]


class TestTrajectoryCsv:
    def test_layout_and_round_trip(self, tmp_path):
        traj = _two_lines_run(math.pi / 4)
        path = tmp_path / "trajectory.csv"
        P.export_trajectory_csv(traj, path)
        raw = path.read_bytes()
        assert b"\r\n" in raw
        lines = raw.decode("ascii").split("\r\n")
        assert lines[0] == "n,op_index,x_1,x_2,dC_1,dC_2,dC"
        body = [ln for ln in lines[1:] if ln]
        assert len(body) == traj.points.shape[0]
        first = body[0].split(",")
        assert first[0] == "0"
        assert first[1] == "-1"
        assert float(first[2]) == pytest.approx(0.9, abs=0)
        # every numeric field parses back to the exact stored double
        k = 5
        row = body[k].split(",")
        assert float(row[2]) == traj.points[k][0]
        assert float(row[6]) == traj.c_dist[k]
