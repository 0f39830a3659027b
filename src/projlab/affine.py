"""Affine-hull reduction for blended relaxed-projection iterations.

When both target sets live inside an affine subspace L, relaxed projectors
commute with P_L and the iteration splits into a shadow sequence inside L plus
a gap component that evolves by the scalar factor
eta = (1 - alpha) + alpha (1 - lambda)(1 - mu).  |eta| = 1 means the gap never
decays and only the shadow converges (FixedPointShadow); |eta| < 1 means the
full sequence inherits the shadow limit (Intersection).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import PropertyReport, margin_report
from .errors import ContainmentViolated, DomainError, ShadowRecursionViolated, check_count
from .operators import GeneralizedDR, RelaxedProjector
from .rates import _dr_domain
from .runner import Trajectory, _write_csv
from .sets import RANK_TOL, AffineSubspaceSet, ClosedSet, _seeded, row_norms, svd_rank

# Largest deviation of the commutation identities and of shadow_run's steps.
_AFFINE_TOL = 1e-10


def affine_hull(sets, seed=0) -> AffineSubspaceSet:
    """Affine hull of the union of the given sets, as an affine subspace.

    Uses closed forms per catalog variant and falls back to projecting 64
    random probes; directions are ranked by SVD with tolerance 1e-9.
    """
    _, rng = _seeded(seed)
    pts = [p for s in sets for p in s.hull_points(rng)]
    if not pts:
        raise DomainError("no points available to span a hull")
    P = np.array(pts)
    anchor = P[0]
    D = P[1:] - anchor
    if D.size == 0:
        basis = np.zeros((0, anchor.size))
    else:
        vt, rank = svd_rank(D, RANK_TOL, full_matrices=False)
        basis = vt[:rank]
    return AffineSubspaceSet(anchor=anchor, basis=basis)


def verify_affine_identities(s: ClosedSet, L: AffineSubspaceSet, lam,
                             samples=200, seed=0) -> PropertyReport:
    """Check the two commutation identities of a relaxed projector with P_L:

        (Id - P_L) P^lam x = (1 - lambda) (Id - P_L) x
        P_L P^lam x = P^lam P_L x

    Requires s to be contained in L (ContainmentViolated otherwise).
    """
    samples = check_count("samples", samples, 1)
    seed, rng = _seeded(seed)
    dim = L.anchor.size
    op = RelaxedProjector(s, lam)
    probes = rng.standard_normal((max(16, samples // 8), dim)) * 3.0
    gaps = L.distance_many(s.project_many(probes))
    if np.any(gaps > 1e-8):
        raise ContainmentViolated(
            f"set sample at distance {gaps[np.argmax(gaps > 1e-8)]:.3e} from the subspace")
    xs = rng.standard_normal((samples, dim)) * 3.0
    pxs = op.apply_many(xs)
    plxs = L.project_many(xs)
    plpxs = L.project_many(pxs)
    dev1 = row_norms((pxs - plpxs) - (1.0 - lam) * (xs - plxs))
    dev2 = row_norms(plpxs - op.apply_many(plxs))
    return margin_report("affine_identities", -np.maximum(dev1, dev2),
                         lambda i: (xs[i].copy(), float(dev1[i]), float(dev2[i])), seed,
                         _AFFINE_TOL, {"lambda": float(lam)})


def eta(lam, mu, alpha) -> float:
    """Gap decay factor of the blended two-set iteration:
    eta = (1 - alpha) + alpha (1 - lambda)(1 - mu)."""
    lam, mu, alpha = _dr_domain(lam, mu, alpha)
    return float((1.0 - alpha) + alpha * (1.0 - lam) * (1.0 - mu))


@dataclass(frozen=True, eq=False)
class AffineReductionReport:
    """Shadow decomposition of a trajectory relative to a subspace L."""

    eta: float
    classification: str          # FixedPointShadow | Intersection
    gap_ratios: np.ndarray
    recursion_residual: float
    gap_law_residual: float
    shadow_limit: np.ndarray
    full_limit: np.ndarray
    limit_detected: bool
    fix_residual: float          # ||T xbar - xbar|| at the full limit
    extra: dict


def shadow_run(traj: Trajectory, L: AffineSubspaceSet):
    """Project the iterates of a blended two-set trajectory onto L and
    validate the reduction.

    The trajectory must have been produced by a single GeneralizedDR operator
    with constant parameters.  Returns (shadow_points, report) after checking
    that the shadow obeys the same recursion (ShadowRecursionViolated beyond
    1e-10), that the gap contracts stepwise by eta (componentwise within
    1e-10), and that its norm follows |eta|^n ||x0 - y0|| to relative
    1e-9.  lambda = mu = 2 classifies as FixedPointShadow (only the shadow
    converges); anything else as Intersection.
    """
    if len(traj.operators.members) != 1 or \
            not isinstance(traj.operators.members[0], GeneralizedDR):
        raise DomainError(
            "shadow_run needs a trajectory driven by one GeneralizedDR operator")
    op = traj.operators.members[0]
    eta_value = eta(op.lam, op.mu, op.alpha)
    x = traj.cycle_iterates()
    y = L.project_many(x)
    gaps = x - y
    recursion_residual = float(np.max(row_norms(op.apply_many(y[:-1]) - y[1:]), initial=0.0))
    if recursion_residual > _AFFINE_TOL:
        raise ShadowRecursionViolated(
            f"shadow recursion residual {recursion_residual:.3e} "
            f"exceeds {_AFFINE_TOL:.1e}")
    step_dev = float(np.max(np.abs(gaps[1:] - eta_value * gaps[:-1]), initial=0.0))
    norms = row_norms(gaps)
    target = float(norms[0])
    # Python-float powers: numpy's power may differ from ** in the last bit.
    decay = np.array([abs(eta_value) ** n for n in range(norms.size)])
    gap_law_residual = float(np.max(np.abs(norms - decay * target) / (1.0 + target)))
    live = norms[:-1] > 1e-14
    ratios = norms[1:][live] / norms[:-1][live]
    classification = ("FixedPointShadow"
                      if op.lam == 2.0 and op.mu == 2.0 else "Intersection")
    limit_detected = bool(
        y.shape[0] >= 2
        and np.linalg.norm(y[-1] - y[-2]) <= 1e-10)
    fix_residual = float(np.linalg.norm(op.apply(x[-1]) - x[-1]))
    extra = {
        "step_gap_residual": step_dev,
        "lambda": op.lam, "mu": op.mu, "alpha": op.alpha,
        "pa_pb_gap": float(np.linalg.norm(
            op.set_a.project(x[-1]).canonical
            - op.set_b.project(x[-1]).canonical)),
    }
    if step_dev > _AFFINE_TOL:
        raise ShadowRecursionViolated(
            f"gap step residual {step_dev:.3e} exceeds {_AFFINE_TOL:.1e}")
    report = AffineReductionReport(float(eta_value), classification, ratios,
                                   recursion_residual, gap_law_residual,
                                   y[-1].copy(), x[-1].copy(),
                                   limit_detected, fix_residual, extra)
    return y, report


def export_shadow_csv(traj: Trajectory, shadow: np.ndarray, path) -> None:
    """Write shadow iterates next to their gaps as RFC-4180 CSV
    (columns n, y_1..y_d, gap_1..gap_d, gap_norm)."""
    x = traj.cycle_iterates()
    d = x.shape[1]
    header = (["n"] + [f"y_{i + 1}" for i in range(d)]
              + [f"gap_{i + 1}" for i in range(d)] + ["gap_norm"])
    gaps = [x[n] - shadow[n] for n in range(x.shape[0])]
    _write_csv(path, header, (((n,), np.concatenate([shadow[n], gap, [np.linalg.norm(gap)]]))
                              for n, gap in enumerate(gaps)))
