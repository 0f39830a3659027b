"""The three benchmark workloads: inputs from a seed, items, exact checks.

Every workload builds one pass of items from a pass seed.  An item is one
closed-loop call into projlab's public API (`call`), a check of its output
against an exact reference that returns a witness string on failure
(`check`), and a fingerprint of its non-timing output for the determinism
rerun (`fingerprint`).  The amount of work in a pass does not depend on the
seed: the seed moves rotations, signs, sample draws and sampling seeds, never
sizes, sample counts or the geometry that sets iteration counts.

Items reach projlab through module attributes (`runner.run`, not a name
bound at import), looked up when the pass is built or called, so that the
traced run's wrappers see every call of a pass built after they went in.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

import reference as ref
from projlab import analysis, cli, rates, runner, scenario
from projlab import intersection as inter_mod
from projlab import sets as sets_mod
from projlab.operators import RelaxedProjector, SemiIntrepidProjector


@dataclass
class Item:
    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    fingerprint: Callable[[object], str]


def pass_seed(seed, index):
    """Seed of timed pass `index` (and of its determinism rerun)."""
    return int(np.random.SeedSequence([int(seed), int(index)]).generate_state(1)[0])


def _digest(*parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.tobytes() if isinstance(p, np.ndarray) else repr(p).encode())
    return h.hexdigest()


def _failed(witnesses):
    """Join failed-condition witnesses; None when every condition held."""
    bad = [w for ok, w in witnesses if not ok]
    return "; ".join(bad) if bad else None


# ---------------------------------------------------------------------------
# suite: the 13 bundled scenarios through execute_scenario


# Stop reason and cycle count of each bundled scenario.  Trajectories start
# from the scenario's fixed x0, so these do not depend on the seed override.
SUITE_REFERENCE = {
    "degenerate_three_halfspaces": ("Converged", 1),
    "dr_affine_blend": ("Converged", 82),
    "dr_affine_reflect": ("Budget", 200),
    "dr_two_lines": ("Converged", 49),
    "enlargement_injectability": ("Converged", 1),
    "qff_suite": ("Converged", 1),
    "reflection_projection_axes": ("Budget", 30),
    "reflection_projection_orthant": ("Converged", 1),
    "reflector_cycle_counterexample": ("Budget", 30),
    "semi_intrepid_circles": ("Converged", 1),
    "two_lines_angle_30": ("Converged", 97),
    "two_lines_angle_45": ("Converged", 41),
    "two_lines_angle_60": ("Converged", 21),
}


def _suite_check(name):
    want_stop, want_cycles = SUITE_REFERENCE[name]

    def check(report):
        sc = report["scenario"]
        failing = [c["name"] for c in report["checks"] if not c.get("passed", True)]
        failing += [c["name"] for c in report["comparisons"] if not c.get("ok", True)]
        return _failed([
            (report["passed"], f"{name}: report failed {failing}"),
            (sc["stop_reason"] == want_stop,
             f"{name}: stop {sc['stop_reason']} != {want_stop}"),
            (sc["n_cycles"] == want_cycles,
             f"{name}: cycles {sc['n_cycles']} != {want_cycles}"),
        ])
    return check


def _suite_fingerprint(report):
    body = {k: v for k, v in report.items() if k != "timing"}
    return json.dumps(body, sort_keys=True, default=repr)


def build_suite(seed):
    override = seed % (2 ** 31)
    items = []
    for name in scenario.bundled_scenario_names():
        sc = scenario.load_bundled(name)
        if name not in SUITE_REFERENCE:
            raise KeyError(f"bundled scenario {name!r} has no reference entry")
        items.append(Item(
            name,
            lambda sc=sc: cli.execute_scenario(sc, seed_override=override),
            _suite_check(name), _suite_fingerprint))
    if len(items) != len(SUITE_REFERENCE):
        raise KeyError("bundled scenarios and the reference table disagree")
    return items


# ---------------------------------------------------------------------------
# trajectory: long runs of runner.run on generated problems

TRAJ_TOL = 1e-10
# The face-enumeration cone projector accepts candidates within an absolute
# feasibility tolerance of 1e-9, so near the apex it is exact only to ~1e-9
# and alternating projections stall at d_C ~ 1e-9.  The cone family stops
# at 1e-8, above that documented tolerance.  Each cone step must still be
# within 2e-9 * (1 + |x|) of the NNLS projection of its input x: just above
# the projector's documented error, so a larger error shows as a failure.
CONE_TOL = 1e-8
CONE_NNLS_TOL = 2e-9
RATE_TOL = 1e-9          # fitted rho against cos^2 / cos of theta_F
SUBSPACE_DIMS = (4, 8, 16)
FRIEDRICHS_DEG = (20.0, 30.0)
CONE_ITEMS = 3


def _subspace_pair(rng, d, theta_f):
    """Two (d/2)-dimensional subspaces with principal angles theta_f < others.

    Canonical frame: A0 = span(e_i), B0 = span(cos t_i e_i + sin t_i e_{k+i}).
    The other angles sit at least 30 degrees above theta_f so that the tail
    of the error sequence is a clean geometric series.  Only the rotation Q
    and the per-plane signs of x0 come from the seed.
    """
    k = d // 2
    thetas = np.radians(np.r_[theta_f, np.linspace(theta_f + 30.0, 85.0, k - 1)])
    a0 = np.zeros((k, d))
    b0 = np.zeros((k, d))
    for i, t in enumerate(thetas):
        a0[i, i] = 1.0
        b0[i, i], b0[i, k + i] = np.cos(t), np.sin(t)
    q = ref.random_rotation(rng, d)
    signs = rng.choice([-1.0, 1.0], k)
    z = np.r_[signs, 0.6 * signs]
    return a0 @ q.T, b0 @ q.T, q @ z


def _config(name, d, sets, operators, x0, tol, intersection):
    return {
        "name": name, "dimension": d, "seed": 0, "sets": sets,
        "intersection": intersection, "anchor": [0.0] * d, "delta": 1.0,
        "operators": operators, "x0": list(map(float, x0)),
        "max_cycles": 5000, "tol": tol,
    }


def _subspace_item(rng, d, theta_f, method, seed):
    basis_a, basis_b, x0 = _subspace_pair(rng, d, theta_f)
    if method == "ap":
        ops = [{"type": "relaxed", "set": 0, "lambda": 1.0},
               {"type": "relaxed", "set": 1, "lambda": 1.0}]
    else:
        ops = [{"type": "generalized_dr", "set_a": 0, "set_b": 1,
                "lambda": 2.0, "mu": 2.0, "alpha": 0.5}]
    origin = [0.0] * d
    cfg = _config(f"{method}_d{d}_{theta_f:g}", d,
                  [{"type": "affine", "anchor": origin, "basis": basis_a.tolist()},
                   {"type": "affine", "anchor": origin, "basis": basis_b.tolist()}],
                  ops, x0, TRAJ_TOL, {"type": "finite_points", "points": [origin]})
    sc = scenario.scenario_from_config(cfg)
    cos_f = ref.friedrichs_cosine(basis_a, basis_b)
    # Per cycle: alternating projections contract d_C by cos^2(theta_F)
    # asymptotically and by cos(theta_F) from the first cycle on; the
    # lambda = mu = 2, alpha = 1/2 DR step contracts it by cos(theta_F).
    want_rho = cos_f ** 2 if method == "ap" else cos_f
    k = len(sc.operators)
    block_bound = cos_f * (1.0 + 1e-9) + 1e-15

    def call():
        traj = runner.run(sc.operators, sc.x0, sc.sets, sc.intersection,
                          max_cycles=sc.max_cycles, tol=sc.tol, seed=seed)
        fit = runner.fit_rlinear(traj.cycle_errors())
        block = runner.check_k_step_reduction(traj, k, block_bound)
        return traj, fit, block

    def check(out):
        traj, fit, block = out
        return _failed([
            (traj.stop_reason == "Converged" and traj.c_dist[-1] <= TRAJ_TOL,
             f"{cfg['name']}: stop {traj.stop_reason} final d_C {traj.c_dist[-1]:.3e}"),
            (abs(fit.rho - want_rho) <= RATE_TOL,
             f"{cfg['name']}: fitted rho {fit.rho:.12f} != reference {want_rho:.12f}"),
            (block.passed,
             f"{cfg['name']}: {block.violations} blocks exceed cos(theta_F) "
             f"{cos_f:.12f}, witness {block.witness}"),
        ])

    def fingerprint(out):
        traj, fit, block = out
        return _digest(traj.points, traj.stop_reason, fit.rho, block.worst_margin)

    return Item(cfg["name"], call, check, fingerprint)


def _cone_item(rng, index, seed):
    """Cyclic projections onto a 4-ray cone in R^4 and a hyperplane that
    meets it only at the apex; rotation only from the seed."""
    d, k, edge = 4, 4, np.radians(60.0)
    axis = np.eye(d)[d - 1]
    gens = np.zeros((k, d))
    for i in range(k):
        phi = 2.0 * np.pi * i / k
        u = np.array([np.cos(phi), np.sin(phi), 0.3 * np.cos(2.0 * phi), 0.0])
        gens[i] = np.cos(edge) * axis + np.sin(edge) * u / np.linalg.norm(u)
    normal = axis + 0.2 * np.eye(d)[0]      # <normal, g_i> > 0: K n H = {0}
    q = ref.random_rotation(rng, d)
    gens = gens @ q.T
    origin = [0.0] * d
    cfg = _config(f"cone_{index}", d,
                  [{"type": "cone", "generators": gens.tolist()},
                   {"type": "hyperplane", "a": (q @ normal).tolist(), "b": 0.0}],
                  [{"type": "relaxed", "set": 0, "lambda": 1.0},
                   {"type": "relaxed", "set": 1, "lambda": 1.0}],
                  q @ np.r_[0.8, 0.8, 0.8, -0.5], CONE_TOL,
                  {"type": "finite_points", "points": [origin]})
    sc = scenario.scenario_from_config(cfg)

    def call():
        return runner.run(sc.operators, sc.x0, sc.sets, sc.intersection,
                          max_cycles=sc.max_cycles, tol=sc.tol, seed=seed)

    def check(traj):
        steps = np.flatnonzero(traj.op_index == 0)
        gaps = [np.linalg.norm(ref.nnls_cone_projection(gens, traj.points[i - 1])
                               - traj.points[i]) / (1.0 + np.linalg.norm(traj.points[i - 1]))
                for i in steps]
        worst = int(np.argmax(gaps))
        return _failed([
            (traj.stop_reason == "Converged" and traj.c_dist[-1] <= CONE_TOL,
             f"{cfg['name']}: stop {traj.stop_reason} final d_C {traj.c_dist[-1]:.3e}"),
            (gaps[worst] <= CONE_NNLS_TOL,
             f"{cfg['name']}: cone step {steps[worst]} is {gaps[worst]:.3e} * (1 + |x|) "
             f"from the NNLS projection of x = {traj.points[steps[worst] - 1]}"),
        ])

    return Item(cfg["name"], call, check,
                lambda traj: _digest(traj.points, traj.stop_reason))


def build_trajectory(seed):
    rng = np.random.default_rng(seed)
    items = []
    for d in SUBSPACE_DIMS:
        for theta in FRIEDRICHS_DEG:
            for method in ("ap", "dr"):
                items.append(_subspace_item(rng, d, theta, method, seed))
    items += [_cone_item(rng, i, seed) for i in range(CONE_ITEMS)]
    return items


# ---------------------------------------------------------------------------
# sampling: bulk calls of the sampled analyses on generated sets


def _report_print(rep):
    return _digest(rep.samples, rep.violations, rep.worst_margin, rep.extra)


def _estimate_print(est):
    return _digest(est.value, est.samples, sorted(est.extra.items()))


def _obtuse_print(res):
    return _digest(sorted((k, v) for k, v in res.items() if k != "witness"))


def _unit(rng, d):
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _pyramid(edge_deg, q):
    """Square pyramid in R^3 around q e_3, edges at edge_deg from the axis."""
    edge = np.radians(edge_deg)
    e = np.eye(3)
    gens = [np.cos(edge) * e[2] + np.sin(edge) * u for u in (e[0], e[1], -e[0], -e[1])]
    return sets_mod.set_from_config({"type": "cone",
                                     "generators": (np.array(gens) @ q.T).tolist()})


class _Sampler:
    """Builds the sampling items of one pass; each draws its own call seed."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.items = []

    def add(self, label, fn, args, kwargs, conditions, fingerprint):
        kwargs = dict(kwargs, seed=int(self.rng.integers(0, 2 ** 31)))
        self.items.append(Item(label, lambda: fn(*args, **kwargs),
                               lambda out: _failed(conditions(out)), fingerprint))

    def injectable(self, label, s, tau, w, samples, expect_pass):
        # B(w, 0.5) lies outside s, so every sample projects and probes its
        # whole segment: the work does not depend on the draw.
        self.add(label, analysis.check_injectable, (s, tau, w, 0.5),
                 {"samples": samples},
                 lambda rep: [(rep.passed == expect_pass,
                               f"{label}: injectable passed={rep.passed}, expected "
                               f"{expect_pass}; {rep.violations}/{rep.samples} violations, "
                               f"witness {rep.witness}")],
                 _report_print)

    def firm(self, label, op, refset, consts, w, delta, samples):
        self.add(label, analysis.check_quasi_firm_fejer,
                 (op, refset, consts.gamma, consts.beta, w, delta), {"samples": samples},
                 lambda rep: [(rep.passed, f"{label}: {rep.violations} violations, "
                                           f"witness {rep.witness}")],
                 _report_print)

    def coercive(self, label, s, lam, samples):
        # ||x - x+|| = lam d_S(x) exactly for a relaxed projector.
        w = np.zeros(s.dim)
        self.add(label, analysis.check_quasi_coercive,
                 (RelaxedProjector(s, lam), s, lam, w, 1.0), {"samples": samples},
                 lambda rep: [(rep.passed and rep.extra["max_abs_gap"] <= 1e-12,
                               f"{label}: {rep.violations} violations, max gap "
                               f"{rep.extra['max_abs_gap']:.3e}")],
                 _report_print)

    def eps(self, label, s, w, samples, lo, hi):
        self.add(label, analysis.estimate_eps_regularity, (s, w, 0.5), {"samples": samples},
                 lambda est: [(lo <= est.value <= hi,
                               f"{label}: eps {est.value!r} outside [{lo}, {hi}]")],
                 _estimate_print)

    def kappa(self, label, d, theta, samples, exact):
        """kappa_hat of two subspaces <= 1/sin(theta_F/2), exact or oracle C."""
        basis_a, basis_b, _ = _subspace_pair(self.rng, d, theta)
        origin = [0.0] * d
        mk = sets_mod.set_from_config
        pair = tuple(mk({"type": "affine", "anchor": origin, "basis": b.tolist()})
                     for b in (basis_a, basis_b))
        handle = (inter_mod.exact(mk({"type": "finite_points", "points": [origin]}), pair)
                  if exact else inter_mod.oracle(pair))
        bound = ref.kappa_bound(ref.friedrichs_cosine(basis_a, basis_b))
        self.add(label, analysis.estimate_linear_regularity,
                 (pair, handle, np.zeros(d), 1.0), {"samples": samples},
                 lambda est: [(1.0 <= est.value <= bound * (1.0 + 1e-9),
                               f"{label}: kappa {est.value:.12f} above "
                               f"1/sin(theta_F/2) = {bound:.12f}")],
                 _estimate_print)

    def theta(self, label, a, b, w, lo, hi):
        self.add(label, analysis.estimate_theta_bar, (a, b, w), {"samples": 256},
                 lambda est: [(lo <= est.value <= hi,
                               f"{label}: theta {est.value!r} outside [{lo!r}, {hi!r}]")],
                 _estimate_print)

    def strong(self, label, system, zeta):
        """Halfspaces through 0; zeta is the exact min-norm of their normals'
        convex hull (0: not strongly regular)."""
        d = system[0].dim
        self.add(label, analysis.check_strong_regularity, (system, np.zeros(d), 1.0),
                 {"samples": 2000},
                 lambda est: [(est.extra["strong"] == (zeta > 0.0)
                               and abs(est.value - zeta) <= 1e-9,
                               f"{label}: zeta {est.value:.12f} strong="
                               f"{est.extra['strong']}, reference {zeta:.12f}")],
                 _estimate_print)

    def obtuse(self, label, cone, samples, want):
        self.add(label, sets_mod.is_obtuse_cone, (cone,), {"samples": samples},
                 lambda res: [(res["obtuse"] == want,
                               f"{label}: obtuse={res['obtuse']}, expected {want}; "
                               f"witness {res['witness']}")],
                 _obtuse_print)


def build_sampling(seed):
    """25 analysis calls in d = 3, 8, 16.  An odd count that puts p50 and p90
    mid-way through an item's cluster of times, not between two items."""
    b = _Sampler(seed)
    rng = b.rng
    mk = sets_mod.set_from_config

    u = _unit(rng, 16)
    ball = mk({"type": "ball", "center": (-2.0 * u).tolist(), "radius": 1.0})
    b.injectable("injectable_ball_d16", ball, 1.5, u, 300, True)
    u = _unit(rng, 16)
    sphere = mk({"type": "sphere", "center": (-2.0 * u).tolist(), "radius": 1.0})
    b.injectable("injectable_sphere_d16", sphere, 0.5, u, 300, False)
    u, v = np.linalg.qr(rng.standard_normal((8, 2)))[0].T
    union = mk({"type": "union", "members": [
        {"type": "ball", "center": (3.0 * v).tolist(), "radius": 1.0},
        {"type": "ball", "center": (-3.0 * v).tolist(), "radius": 1.0}]})
    b.injectable("injectable_union_d8", union, 1.5, 4.0 * u, 150, True)
    u = _unit(rng, 3)
    b.injectable("injectable_hyperplane_d3", mk({"type": "hyperplane", "a": u.tolist(),
                                                 "b": 0.0}), 0.1, u, 300, False)

    # Quasi-firm Fejer constants of relaxed and semi-intrepid projectors onto
    # convex sets are exact (eps = 0), so every sample must hold.
    box = mk({"type": "box", "lower": [-1.0] * 16, "upper": [1.0] * 16})
    b.firm("qff_box_d16", RelaxedProjector(box, 1.5), box,
           rates.relaxed_projector_constants(1.5, 0.0), np.zeros(16), 1.0, 2000)
    cone = _pyramid(50.0, ref.random_rotation(rng, 3))
    b.firm("qff_cone_d3", RelaxedProjector(cone, 1.0), cone,
           rates.relaxed_projector_constants(1.0, 0.0), np.zeros(3), 1.0, 100)
    u = _unit(rng, 8)
    ball = mk({"type": "ball", "center": (0.7 * u).tolist(), "radius": 0.5})
    b.firm("qff_semi_intrepid_ball_d8", SemiIntrepidProjector(ball, 0.5, 0.3), ball,
           rates.semi_intrepid_constants(0.5, 0.0), 0.2 * u, 1.0, 1500)

    b.coercive("coercive_halfspace_d8", mk({"type": "halfspace",
                                            "a": _unit(rng, 8).tolist(), "b": 0.0}), 0.5, 2000)
    b.coercive("coercive_box_d16", box, 1.5, 1500)

    # eps-regularity: 0 (to rounding) on a convex set, in (0, delta/r] on a
    # sphere through w.
    q = ref.random_rotation(rng, 16)
    flat = mk({"type": "affine", "anchor": [0.0] * 16, "basis": q[:5].tolist()})
    b.eps("eps_affine_d16", flat, np.zeros(16), 400, 0.0, 1e-12)
    for d, samples in ((16, 400), (3, 600)):
        u = _unit(rng, d)
        ring = mk({"type": "sphere", "center": (-u).tolist(), "radius": 1.0})
        b.eps(f"eps_sphere_d{d}", ring, np.zeros(d), samples, 1e-12,
              ref.sphere_eps_bound(0.5, 1.0) + 1e-12)

    b.kappa("kappa_exact_d8", 8, 40.0, 2000, True)
    # The five slowest items, alike but for rotation and draws: p90 falls
    # mid-way through their pooled times, not on one item's tail.
    for i in range(5):
        b.kappa(f"kappa_oracle_d16_{i}", 16, 45.0, 160, False)

    # theta_bar: two halfspaces give <a1, -a2> exactly; two subspaces give at
    # most cos(theta_F) (their complements share the Friedrichs angle).
    a1, a2 = _unit(rng, 16), _unit(rng, 16)
    want = float(a1 @ -a2)
    b.theta("theta_halfspaces_d16", mk({"type": "halfspace", "a": a1.tolist(), "b": 0.0}),
            mk({"type": "halfspace", "a": a2.tolist(), "b": 0.0}), np.zeros(16),
            want - 1e-12, want + 1e-12)
    basis_a, basis_b, _ = _subspace_pair(rng, 8, 35.0)
    b.theta("theta_subspaces_d8",
            mk({"type": "affine", "anchor": [0.0] * 8, "basis": basis_a.tolist()}),
            mk({"type": "affine", "anchor": [0.0] * 8, "basis": basis_b.tolist()}),
            np.zeros(8), -1.0, ref.friedrichs_cosine(basis_a, basis_b) + 1e-12)

    # Strong regularity: m orthonormal normals give zeta = 1/sqrt(m); a
    # normal and its negative give 0.
    q = ref.random_rotation(rng, 8)
    b.strong("strong_halfspaces_d8",
             [mk({"type": "halfspace", "a": q[i].tolist(), "b": 0.0}) for i in range(3)],
             ref.min_norm_in_hull_of_orthonormal(3))
    a = _unit(rng, 16)
    b.strong("strong_degenerate_d16",
             [mk({"type": "halfspace", "a": (s * a).tolist(), "b": 0.0}) for s in (1, -1)],
             0.0)

    # Obtuseness: square pyramids on either side of the 45-degree rule, and a
    # sign orthant (self-dual, hence obtuse).
    for edge in (20.0, 70.0):
        b.obtuse(f"obtuse_pyramid_{edge:g}", _pyramid(edge, ref.random_rotation(rng, 3)),
                 200, ref.pyramid_is_obtuse(np.radians(edge)))
    signs = [int(s) for s in rng.permutation([1] * 6 + [-1] * 6 + [0] * 4)]
    b.obtuse("obtuse_orthant_d16", mk({"type": "orthant", "signs": signs}), 1500, True)
    return b.items


WORKLOADS = {
    "suite": build_suite,
    "trajectory": build_trajectory,
    "sampling": build_sampling,
}
