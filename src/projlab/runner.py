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

from .analysis import CHECK_TOL, PropertyReport, _fejer_margins, margin_report
from .errors import (DimensionMismatch, DomainError, InsufficientData, check_count, check_range,
                     check_whole)
from .operators import _TEST_BATCH, CyclicTuple
from .rates import RateCertificate, _fejer_pair
from .sets import ClosedSet, _real_array, _real_entries, as_vector, row_norms

DIVERGENCE_NORM = 1e12
ERROR_FLOOR = 1e-14
_K_STEP_TOL = 1e-12     # slack of the k-step reduction
_CYCLE_TOL = 1e-12      # default tolerance of detect_cycle
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
    set's dimension.  The run goes in rounds of cycles, the last cut to
    max_cycles: a round takes as many cycles as the run has so far, at
    least the first round and at most the cap.  Each round's cycle ends are
    tested by one `_nearest_many` call, and the first end at or below tol
    stops the run, dropping the round's later cycles.  A round's rows come
    one of two ways:

    - where the cycle holds stacked prefix maps (A, b) (every member steps
      by an affine map, in at most 32 dimensions; built with the cycle),
      the first round and the cap are the cycles the stack holds: as many
      as 1024 rows of maps hold, a power of two and at least 8, so for two
      members 256 cycles at d = 2 and 16 at d = 32.  A round from x is one
      product over the whole stack, A x + b, whatever the budget, which
      only cuts the rows kept, so a run's rows do not depend on
      max_cycles; a stop or the budget drops at most cap - 1 computed
      cycles.  The rows differ from the per-step chain of maps in their
      last bits: that product rounds the terms of the chain in another
      order, so each is within gamma_K of the exact value times the sum of
      its terms' magnitudes, K = j (d + 1) for the j-th step of a round
      (the tests' `affine_block_bound` derives it);
    - everywhere else one member's one-point kernel `_step` a step on the
      1-D iterate, the call `apply` makes, so the iterates are `apply`'s
      bit for bit, and a `_rows` row's.
      The rounds are 1, 1, 2, 4 and then 8 cycles, so a stop at cycle c
      drops at most min(c - 1, 7) computed cycles.  A step that raises ends
      the round, and its exception is raised after the cycle ends before it
      are tested, unless one of them converged.

    One rule ends a run on both paths: the first row whose norm, the BLAS
    dot of `row_norms`, exceeds 1e12 or is NaN is the last kept; its cycle
    ends before it are tested first, and then the run stops as Diverged,
    or raises DomainError on a NaN.  The intersection distance of every
    point is then one `_nearest_many` call; only the last point, where a
    Diverged stop can leave an entry that overflowed, is checked for
    finiteness again, so such a run raises the DomainError of
    `distance_many`.  The run steps and measures with numpy's overflow
    warning silenced: a norm that overflows reads inf, and so does an
    entry of the distance table whose square overflows.
    The member sets are checked and kept; only `export_trajectory_csv`
    measures distances to them.
    """
    cycle = operators if isinstance(operators, CyclicTuple) else CyclicTuple(operators)
    m = len(cycle)
    x = as_vector(x0, cycle.dim)
    sets = tuple(sets)
    max_cycles = check_whole("max_cycles", check_range("max_cycles", max_cycles, 1.0, np.inf))
    tol = check_range("tol", tol, *TOL_RANGE)
    seed = check_count("seed", seed, 0)
    for s in (intersection, *sets):
        if not isinstance(s, ClosedSet):
            raise DomainError(f"run's sets must be ClosedSets, got {type(s).__name__}")
        if s.dim != x.size:
            raise DimensionMismatch(f"expected dimension {s.dim}, got {x.size}")
    A, b = cycle._prefixes or (None, None)  # the stacked prefix maps, if any
    # a round's cycles: as many as so far, at least the first round, at most
    # the cap; by steps 1, 1, 2, 4, 8, 8, ..., by blocks every round the cap
    first, cap = (1, _TEST_BATCH) if A is None else (len(A) // (m * x.size),) * 2

    t0 = time.perf_counter()
    points, stop, done = [x[None, :]], "Budget", 0
    with np.errstate(over="ignore"):
        while done < max_cycles:
            k = min(max(done, first), cap, max_cycles - done)
            done += k
            if A is not None:  # the whole stack's product, whatever the budget
                rows = (A.dot(points[-1][-1]) + b).reshape(-1, x.size)[:k * m]
                norms, error = row_norms(rows), None
            else:
                rows, norms, error = _steps(cycle.members, points[-1][-1], k * m)
            keep = rows.shape[0]
            if not norms.max(initial=0.0) <= DIVERGENCE_NORM:  # NaN fails too
                keep = int(np.argmax(~(norms <= DIVERGENCE_NORM)))
                rows = rows[:keep + 1]
                if math.isnan(norms[keep]):  # where the next apply or distance would raise
                    error = DomainError("vector entries must be finite")
                else:
                    stop = "Diverged"
            ends = rows[m - 1:keep:m]
            if ends.size:
                converged = intersection._nearest_many(ends)[1] <= tol
                if converged[hit := int(converged.argmax())]:
                    stop = "Converged"
                    points.append(rows[:(hit + 1) * m])
                    break
            if error is not None:
                raise error
            points.append(rows)
            if stop == "Diverged":
                break
        wall = time.perf_counter() - t0
        P = np.concatenate(points)
        _real_array(P[-1], "points")  # the one row a Diverged stop can leave non-finite
        c_dist = intersection._nearest_many(P)[1]
    op_index = np.arange(-1, P.shape[0] - 1)
    op_index[1:] %= m
    return Trajectory(P, op_index, c_dist, m, stop, tol, seed, wall, cycle, sets)


def _steps(members, x, n):
    """(rows, norms, error): the rows of n steps of the cycle from the 1-D
    point x, one member's `_step` a step on the point, stacked by np.array,
    with each row's norm math.sqrt(x.dot(x)), the BLAS dot of `row_norms`
    without np.dot's dispatch.  The rows stop after the first whose norm
    exceeds 1e12 or is NaN, or before a step that raises; `error` is its
    exception, or None."""
    rows, norms, error = [], [], None
    try:
        for j in range(n):
            x = members[j % len(members)]._step(x)
            rows.append(x)
            norms.append(math.sqrt(x.dot(x)))
            if not norms[-1] <= DIVERGENCE_NORM:
                break
    except Exception as exc:  # raised after the cycle ends before it are tested
        error = exc
    return (np.array(rows) if rows else np.empty((0, x.size)), np.array(norms), error)


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
    # the window: the last ceil(tail_fraction n) of the n entries after the
    # burn-in, at least one where n > 0 as tail_fraction > 0
    start = e.size - math.ceil(tail_fraction * max(e.size - burn_in, 0))
    tail = e[start:]
    keep = tail > ERROR_FLOOR
    n = int(np.count_nonzero(keep))
    if n < 5:
        raise InsufficientData(f"only {n} points above the floor in the fit window")
    censored = tail.size - n
    A = np.ones((n, 2))  # the design matrix [index, 1]
    A[:, 0] = np.flatnonzero(keep) + start
    logs = np.log(tail[keep])
    coef = np.linalg.lstsq(A, logs, rcond=None)[0]
    slope, intercept = coef
    pred = A @ coef
    ss_res = float(((logs - pred) ** 2).sum())
    ss_tot = float(((logs - logs.sum() / n) ** 2).sum())  # the sum over n is logs.mean()
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    rho = float(np.exp(slope))
    return RateFit(rho, float(np.exp(intercept)), (int(A[0, 0]), int(A[-1, 0]) + 1), n, r2,
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


def detect_cycle(traj: Trajectory, tol=_CYCLE_TOL) -> CycleReport | None:
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
    starts = e[:-k:k]  # d_C at the block starts 0, k, 2k, ...; e[k::k] at their ends
    live = starts > ERROR_FLOOR
    before, after = starts[live], e[k::k][live]
    return margin_report(
        "k_step_reduction", rho_bound * before - after,
        lambda i: (k * int(np.flatnonzero(live)[i]), float(before[i]), float(after[i])),
        traj.seed, _K_STEP_TOL,
        {"k": k, "rho_bound": rho_bound,
         "worst_ratio": float((after / before).max(initial=0.0))},
        samples=starts.size, empty_margin=0.0)


def check_fejer_trace(traj: Trajectory, constants, xbar) -> PropertyReport:
    """Verify the quasi-firm inequality along consecutive trajectory points.

    `constants` is one (gamma, beta) pair applied to every step, or a list of
    per-phase pairs matching the cycle length; either may be an array, so
    an array of two numbers is one pair and an (m, 2) array a table.  Each
    pair is checked as `check_quasi_firm_fejer` checks its constants.
    """
    xbar = as_vector(xbar)
    pairs = (tuple, list, np.ndarray)
    table = list(constants) if np.iterable(constants) else [constants]  # None, a number, 0-d
    if isinstance(constants, pairs) and len(table) == 2 and np.ndim(table[0]) == 0:
        table = [constants] * traj.cycle_len
    if len(table) != traj.cycle_len or not all(
            isinstance(c, pairs) and np.iterable(c) and len(c) == 2 for c in table):
        raise DomainError("constants must be a (gamma, beta) pair or one pair per cycle phase")
    gammas, betas = np.array([_fejer_pair(g, b) for g, b in table]).T[:, traj.op_index[1:]]
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
    with np.errstate(over="ignore"):  # a distance whose square overflows reads inf, as in run
        dists = [s.distance_many(traj.points) for s in traj.sets]
    numbers = np.column_stack([traj.points, *dists, traj.c_dist])
    _write_csv(path, header, zip(enumerate(traj.op_index.tolist()), numbers))


def _write_csv(path, header, rows):
    """Write `header` and `rows` as RFC-4180 CSV, each row a pair (labels,
    numbers): the labels by str, the numbers to 17 significant digits."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        for labels, numbers in rows:
            writer.writerow([str(v) for v in labels] + ["%.17g" % v for v in numbers])
