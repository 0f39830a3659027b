"""L0/L1 micro-timings: one `project`/`distance` call per catalog type at
d = 2 and d = 16, and one `apply` per operator family.

Each figure is the median over repeats of the mean per-call time over a
fixed batch of points, measured with the tracer uninstalled.
"""

from __future__ import annotations

import time

import numpy as np

from projlab import operators
from projlab import sets as sets_mod

DIMS = (2, 16)
POINTS = 64
REPEATS = 5
SEED = 0                 # fixed: the micro inputs do not follow --seed


def _configs(d, rng):
    """One record per catalog type; four cone generators in every d."""
    e = np.eye(d)
    basis = np.linalg.qr(rng.standard_normal((d, d)))[0][:, : max(1, d // 2)].T
    gens = np.abs(rng.standard_normal((4, d))) + e[0]
    ball = {"type": "ball", "center": [0.0] * d, "radius": 1.0}
    return {
        "halfspace": {"type": "halfspace", "a": e[0].tolist(), "b": 0.5},
        "hyperplane": {"type": "hyperplane", "a": e[0].tolist(), "b": 0.5},
        "affine": {"type": "affine", "anchor": [0.0] * d, "basis": basis.tolist()},
        "ball": ball,
        "sphere": {"type": "sphere", "center": [0.0] * d, "radius": 1.0},
        "box": {"type": "box", "lower": [-0.5] * d, "upper": [0.5] * d},
        "orthant": {"type": "orthant", "signs": [(-1, 0, 1)[i % 3] for i in range(d)]},
        "cone": {"type": "cone", "generators": gens.tolist()},
        "enlargement": {"type": "enlargement", "inner": {
            "type": "box", "lower": [-0.5] * d, "upper": [0.5] * d}, "tau": 0.2},
        "union": {"type": "union", "members": [
            {"type": "ball", "center": (1.5 * e[0]).tolist(), "radius": 1.0},
            {"type": "ball", "center": (-1.5 * e[0]).tolist(), "radius": 1.0}]},
        "finite_points": {"type": "finite_points",
                          "points": rng.standard_normal((8, d)).tolist()},
        "translate": {"type": "translate", "inner": ball, "shift": [0.3] * d},
    }


def _per_call_us(fn, points):
    runs = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for x in points:
            fn(x)
        runs.append((time.perf_counter() - t0) / len(points))
    return float(np.median(runs) * 1e6)


def micro_timings():
    """{metric name: microseconds per call}."""
    rng = np.random.default_rng(SEED)
    out = {}
    for d in DIMS:
        points = 2.0 * rng.standard_normal((POINTS, d))
        for tag, cfg in _configs(d, rng).items():
            s = sets_mod.set_from_config(cfg)
            out[f"micro.project_us.{tag}.d{d}"] = _per_call_us(s.project, points)
            out[f"micro.distance_us.{tag}.d{d}"] = _per_call_us(s.distance, points)
    points = 2.0 * rng.standard_normal((POINTS, 2))
    ball = sets_mod.set_from_config({"type": "ball", "center": [0.0, 0.0], "radius": 1.0})
    line = sets_mod.set_from_config({"type": "hyperplane", "a": [1.0, 1.0], "b": 0.0})
    family = {
        "relaxed": operators.RelaxedProjector(ball, 1.5),
        "semi_intrepid": operators.SemiIntrepidProjector(ball, 0.5, 0.3),
        "generalized_dr": operators.GeneralizedDR(ball, line, 2.0, 2.0, 0.5),
    }
    for name, op in family.items():
        out[f"micro.apply_us.{name}"] = _per_call_us(op.apply, points)
    return out
