"""Iteration driver, empirical rate fitting, and certificate comparison.

A trajectory records one point per operator application.  Cycle-end iterates
(every ``cycle_len``-th point) form the observable sequence used for rate
fitting and cycle detection; k-step reduction checks work in units of single
operator applications.  Certificates speak in blocks of single applications;
comparisons convert both sides to per-iterate rates before applying slack.
"""

from __future__ import annotations

import csv
import math
import time
from dataclasses import dataclass

import numpy as np

from .analysis import CHECK_TOL, PropertyReport, _fejer_margins, _fejer_pair, margin_report
from .errors import DomainError, InsufficientData, check_count, check_range, check_whole
from .operators import CyclicTuple
from .rates import RateCertificate
from .sets import ClosedSet, _real_entries, as_vector, row_norms

DIVERGENCE_NORM = 1e12
ERROR_FLOOR = 1e-14
_K_STEP_TOL = 1e-12     # slack of the k-step reduction
_TEST_BATCH = 8         # most cycle ends `run` tests in one call
# The intervals of run's tolerance, fit_rlinear's tail fraction,
# detect_cycle's tolerance, check_k_step_reduction's rho_bound and
# compare_certificate's slack, as check_range's (lo, hi, lo_open, hi_open).
TOL_RANGE = (0.0, np.inf, True, True)
TAIL_FRACTION_RANGE = (0.0, 1.0, True, False)
CYCLE_TOL_RANGE = (0.0, np.inf, False, True)
RHO_BOUND_RANGE = (0.0, np.inf, False, True)
SLACK_RANGE = (0.0, np.inf, False, True)


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Iterates of a cyclic operator tuple with their distances to the
    intersection."""

    points: np.ndarray          # (N+1, d); row 0 is x0
    op_index: np.ndarray        # (N+1,); -1 for x0, else operator position
    c_dist: np.ndarray          # (N+1,) distance to the intersection
    cycle_len: int
    stop_reason: str            # Converged | Budget | Diverged
    tol: float
    seed: int
    wall_time_s: float
    operators: CyclicTuple
    sets: tuple                 # the member sets run was given

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def cycle_end_indices(self) -> np.ndarray:
        return np.arange(0, self.n_points, self.cycle_len)

    def cycle_iterates(self) -> np.ndarray:
        return self.points[self.cycle_end_indices()]

    def cycle_errors(self) -> np.ndarray:
        """Distance to the intersection at each cycle end (x0 included)."""
        return self.c_dist[self.cycle_end_indices()]

    @property
    def n_cycles(self) -> int:
        return (self.n_points - 1) // self.cycle_len

    @property
    def final(self) -> np.ndarray:
        return self.points[-1]


def run(operators, x0, sets, intersection: ClosedSet,
        max_cycles=10_000, tol=1e-10, seed=0) -> Trajectory:
    """Iterate the cyclic tuple from x0 until the intersection distance at a
    cycle end drops to tol, the cycle budget runs out, or the iterate norm
    exceeds 1e12 (stop_reason Diverged, never an exception).

    x0 is validated once, against the cycle's, the intersection's and every
    set's dimension; the loop then steps a (1, d) row through the operators'
    `_rows` kernels, whose one-row forms keep a batch row's bits, and reads
    its norm as math.sqrt(x.dot(x)), the BLAS dot of `row_norms` called
    without np.dot's dispatch (a NaN iterate raises DomainError).  It tests
    the cycle ends after cycles 1, 2, 4, 8, every 8 more and max_cycles, by
    one `_nearest_many` call on the ends not yet tested.  The first end at
    or below tol stops the run, dropping at most min(c - 1, 7) computed
    cycles for a stop at cycle c.  A step that diverges or raises tests the
    ends before it first; its exception is raised again only if none
    converged.  The intersection distance of every point is then one
    `distance_many` call; the member sets are checked and kept, and only
    `export_trajectory_csv` measures distances to them.
    """
    cycle = operators if isinstance(operators, CyclicTuple) else CyclicTuple(operators)
    members = cycle.members
    m = len(members)
    x = as_vector(x0)
    sets = tuple(sets)
    max_cycles = check_whole("max_cycles", check_range("max_cycles", max_cycles, 1.0, np.inf))
    tol = check_range("tol", tol, *TOL_RANGE)
    seed = check_count("seed", seed, 0)
    as_vector(x, cycle.dim)
    for s in (intersection, *sets):
        if not isinstance(s, ClosedSet):
            raise DomainError(f"run's sets must be ClosedSets, got {type(s).__name__}")
        as_vector(x, s.dim)

    def first_converged(tested, last):
        """The first cycle end in tested+1..last at or below tol, or None."""
        if last <= tested:
            return None
        ends = np.concatenate(points[(tested + 1) * m:last * m + 1:m])
        hits = np.flatnonzero(intersection._nearest_many(ends)[1] <= tol)
        return tested + 1 + int(hits[0]) if hits.size else None

    t0 = time.perf_counter()
    X = x[None, :].copy()
    points = [X]
    stop, hit, tested, due = "Budget", None, 0, 1
    for c in range(1, max_cycles + 1):
        try:
            for op in members:
                X = op._rows(X)
                points.append(X)
                x = X[0]
                norm = math.sqrt(x.dot(x))
                if norm > DIVERGENCE_NORM:
                    stop = "Diverged"
                    break
                if math.isnan(norm):  # where the next apply or distance would raise
                    raise DomainError("vector entries must be finite")
        except Exception:  # a loop testing every cycle end stopped before this step
            if (hit := first_converged(tested, c - 1)) is None:
                raise
            break
        if stop == "Diverged" or c == due or c == max_cycles:
            hit = first_converged(tested, c - 1 if stop == "Diverged" else c)
            if hit is not None or stop == "Diverged":
                break
            tested, due = c, c + min(c, _TEST_BATCH)
    if hit is not None:
        stop = "Converged"
        del points[hit * m + 1:]
    wall = time.perf_counter() - t0
    P = np.concatenate(points)
    return Trajectory(P, np.r_[-1, np.arange(P.shape[0] - 1) % m],
                      intersection.distance_many(P), m, stop, tol, seed, wall, cycle, sets)


# ---------------------------------------------------------------------------
# rate fitting


@dataclass(frozen=True, eq=False)
class RateFit:
    """Least-squares R-linear fit log e_n = log sigma + n log rho."""

    rho: float
    sigma: float
    window: tuple          # (start, stop) indices into the error sequence
    n_points: int
    r_squared: float
    censored: int          # entries dropped for sitting at the error floor
    non_convergent: bool   # rho >= 1


def fit_rlinear(errors, tail_fraction=0.5, burn_in=10) -> RateFit:
    """Fit a geometric envelope to an error sequence by log-linear least
    squares over the trailing window (after dropping the burn-in prefix);
    entries at or below ERROR_FLOOR are censored.  Raises InsufficientData for
    sequences shorter than 10 or with fewer than 5 usable points."""
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


# ---------------------------------------------------------------------------
# trajectory checks


@dataclass(frozen=True, eq=False)
class CycleReport:
    """A periodic state recurrence in the raw application sequence."""

    period: int             # in single operator applications
    start_index: int        # first point index of the periodic tail
    states: np.ndarray      # (period, d): one full period, in visit order
    max_deviation: float


def detect_cycle(traj: Trajectory, tol=1e-12) -> CycleReport | None:
    """Find the smallest period p <= 8 (in single applications) such that the
    point sequence satisfies x[n + p] == x[n] within tol from some start
    index onward, with at least two full periods observed."""
    tol = check_range("tol", tol, *CYCLE_TOL_RANGE)
    y = traj.points
    n = y.shape[0]
    for p in range(1, 9):
        if n < 2 * p + 1:
            break
        gaps = np.linalg.norm(y[p:] - y[:-p], axis=1)
        bad = np.nonzero(gaps > tol)[0]
        s = 0 if bad.size == 0 else int(bad[-1]) + 1
        if (n - 1) - s >= 2 * p:
            dev = float(np.max(gaps[s:])) if gaps[s:].size else 0.0
            return CycleReport(p, s, y[s:s + p].copy(), dev)
    return None


def check_k_step_reduction(traj: Trajectory, k, rho_bound) -> PropertyReport:
    """Verify d_C(x_{k(n+1)}) <= rho_bound * d_C(x_{kn}) + 1e-12 over
    k-step blocks of single operator applications.

    Blocks whose start sits at the error floor pass trivially.
    """
    k = check_whole("k", check_range("k", k, 1.0, np.inf))
    rho_bound = check_range("rho_bound", rho_bound, *RHO_BOUND_RANGE)
    if traj.n_points - 1 < 2 * k:
        raise DomainError("trajectory must contain at least 2k applications")
    e = traj.c_dist
    starts = np.arange(0, e.size - k, k)
    live = starts[e[starts] > ERROR_FLOOR]
    ratios = e[live + k] / e[live]
    return margin_report(
        "k_step_reduction", rho_bound * e[live] - e[live + k],
        lambda i: (int(live[i]), float(e[live[i]]), float(e[live[i] + k])),
        traj.seed, _K_STEP_TOL,
        {"k": k, "rho_bound": rho_bound,
         "worst_ratio": float(np.max(ratios, initial=0.0))},
        samples=int(starts.size), empty_margin=0.0)


def check_fejer_trace(traj: Trajectory, constants, xbar) -> PropertyReport:
    """Verify the quasi-firm inequality along consecutive trajectory points.

    `constants` is one (gamma, beta) pair applied to every step, or a list of
    per-phase pairs matching the cycle length; each pair is checked as
    `check_quasi_firm_fejer` checks its constants.
    """
    xbar = as_vector(xbar)
    if isinstance(constants, (tuple, list)) and len(constants) == 2 \
            and np.ndim(constants[0]) == 0:
        table = [_fejer_pair(*constants)] * traj.cycle_len
    else:
        table = [_fejer_pair(g, b) for g, b in constants]
        if len(table) != traj.cycle_len:
            raise DomainError("need one (gamma, beta) pair per cycle phase")
    gammas, betas = np.array(table).T[:, traj.op_index[1:]]
    x, xp = traj.points[:-1], traj.points[1:]
    return margin_report("fejer_trace", _fejer_margins(x, xp, xbar, gammas, betas),
                         lambda n: (n, x[n], xp[n]), traj.seed, CHECK_TOL, {})


def check_rlinear_envelope(traj: Trajectory, cert: RateCertificate) -> PropertyReport:
    """Verify ||x_n - xbar|| <= prefactor * sigma * rho_block^floor(n/k) along
    the trajectory, with sigma built from d_C(x0).

    xbar is the final iterate, a proxy for the limit; its intersection
    distance is reported as xbar_quality.
    """
    if not cert.applicable:
        raise DomainError("certificate is not applicable (rho_block >= 1)")
    d0 = float(traj.c_dist[0])
    sigma = cert.start_prefactor * cert.sigma(d0)
    k = cert.block_len
    env = sigma * np.array([cert.rho_block ** (n // k) for n in range(traj.n_points)])
    err = row_norms(traj.points - traj.final)
    return margin_report("rlinear_envelope", env - err,
                         lambda n: (n, float(err[n]), float(env[n])), traj.seed, CHECK_TOL,
                         {"sigma": sigma, "rho_block": cert.rho_block,
                          "block_len": k, "xbar_quality": float(traj.c_dist[-1])})


def compare_certificate(traj: Trajectory, cert: RateCertificate, slack=0.02) -> dict:
    """Compare the fitted contraction against the certificate; the result's
    `ok` is the verdict.

    The cycle-end error sequence is fitted by fit_rlinear with its defaults
    and converted to a per-iterate (single application) rate, which must not
    exceed the certified per-iterate rate plus `slack`.  Finite convergence (all errors at the
    floor) passes trivially; a certificate that is not applicable makes no
    claim and the comparison is vacuous.
    """
    slack = check_range("slack", slack, *SLACK_RANGE)
    result = {
        "theorem": cert.theorem,
        "applicable": cert.applicable,
        "slack": slack,
        "vacuous": False,
        "finite_convergence": False,
        "ok": True,
        "rho_fit_per_cycle": None,
        "rho_fit_per_iterate": None,
        "rho_cert_per_iterate": float(cert.rho_per_iterate),
        "rho_block": cert.rho_block,
        "block_len": cert.block_len,
    }
    if not cert.applicable:
        result["vacuous"] = True
        return result
    try:
        fit = fit_rlinear(traj.cycle_errors())
    except InsufficientData:
        if traj.c_dist[-1] <= traj.tol:
            result["finite_convergence"] = True
            result["rho_fit_per_cycle"] = 0.0
            result["rho_fit_per_iterate"] = 0.0
            result["margin"] = float(cert.rho_per_iterate + slack)
            return result
        raise
    rho_iter_fit = fit.rho ** (1.0 / traj.cycle_len)
    result["rho_fit_per_cycle"] = fit.rho
    result["rho_fit_per_iterate"] = float(rho_iter_fit)
    result["fit_r_squared"] = fit.r_squared
    result["fit_points"] = fit.n_points
    result["non_convergent_fit"] = fit.non_convergent
    result["margin"] = float(cert.rho_per_iterate + slack - rho_iter_fit)
    result["ok"] = rho_iter_fit <= cert.rho_per_iterate + slack
    return result


# ---------------------------------------------------------------------------
# CSV export


def export_trajectory_csv(traj: Trajectory, path) -> None:
    """Write the trajectory as RFC-4180 CSV with 17 significant digits.

    Columns: n, op_index, x_1..x_d, dC_1..dC_m, dC; dC_j, the distance to the
    j-th of the run's sets, is computed here, as no other reader needs it.
    """
    header = (["n", "op_index"]
              + [f"x_{i + 1}" for i in range(traj.dim)]
              + [f"dC_{j + 1}" for j in range(len(traj.sets))]
              + ["dC"])
    numbers = np.column_stack([traj.points, *(s.distance_many(traj.points) for s in traj.sets),
                               traj.c_dist])
    _write_csv(path, header, zip(enumerate(traj.op_index.tolist()), numbers))


def _write_csv(path, header, rows):
    """Write `header` and `rows` as RFC-4180 CSV, each row a pair (labels,
    numbers): the labels by str, the numbers to 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for labels, numbers in rows:
            writer.writerow([str(v) for v in labels] + ["%.17g" % v for v in numbers])
