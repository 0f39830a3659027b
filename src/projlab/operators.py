"""Projection-based fixed-point operators.

Selections are inherited from the canonical projections of the set catalog,
so repeated application replays exactly.  Each family has two private
kernels, `_rows` on validated (n, d) rows and `_step` on one validated 1-D
point, with a `_rows` row's bits, and reports its `dim`.  The kernels read
points only: `_rows` calls the catalog's `_canonical_many` and `_step` its
one-point `_point`, so no step computes a distance.  A relaxed or
generalized DR operator whose sets all give their projection as an affine
map (`_affine_map`: the hyperplane and the affine set) builds its own map
x -> M x + c once, at construction, and steps by it, calling no oracle;
the semi-intrepid step, which is not affine, and operators on any other set
keep the step formula, as `apply_with_trace` does.  The relaxation is one
helper, `_relax`, that both kernels call.  A relaxed step with a map takes
M.dot(x) + c on a point, and `sets._rowwise`, the same gemv, on each row.
The semi-intrepid and DR steps are the one-row call of `_rows`: no workload
steps them one point at a time.  `apply` is `_step` and `apply_many` is
`_rows` on every row of an (n, d) array; both validate their input once.
`CyclicTuple.apply` validates one point and then chains the members'
`_step`s.
`runner.run` steps that way where a member has no map.  Where every member
has one and d is at most _BLOCK_DIM, the `CyclicTuple` builds its stacked
prefix maps once, at construction, for the cycles of `run`'s longest round,
and `run` steps each round by one product over the whole stack, cut only
by `max_cycles`, which rounds differently.  `_rounds` states the round
sizes of both paths.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import rates
from .errors import ConfigError, DomainError, at_key, check_keys, check_range, table_entry
from .sets import ClosedSet, _member_tuple, _rowwise, as_points, as_vector, row_norms


def _relax(lam, X, P):
    """x + lam (p - x), the relaxed step from x and its projection p: for
    one point, or for each row of X and P alike, with the same bits."""
    return X + lam * (P - X)


def _relaxed_map(s: ClosedSet, lam):
    """(M, c) with x + lam (P_s(x) - x) = M x + c, from the set's projection
    map P_s(x) = P x + q: M = I + lam (P - I) and c = lam q; None when s
    gives no map."""
    pq, eye = s._affine_map(), np.eye(s.dim)
    return None if pq is None else (eye + lam * (pq[0] - eye), lam * pq[1])


def _map_rows(affine_map, X):
    """M x + c for each row x of a validated (n, d) array X, by `_rowwise`."""
    M, c = affine_map
    return _rowwise(M, X) + c


_TEST_BATCH = 8         # cycles of `run`'s longest round by steps, its shortest cap by blocks
# The most rows k m d of stacked prefix maps that one round of `run` by
# blocks reads, k cycles of m steps in R^d.  Building the stack, once with
# the cycle, costs about k m d^3, some 38 us for two members in R^2 and
# 72 us in R^32, and a round's product k m d^2, against some 15 us of fixed
# calls a round.  Against rounds of 8 cycles by blocks (AP on two
# d/2-planes, d = 2..32, one core), a run that stopped within 5 cycles took
# up to 1.6 times as long, as it computes a whole round, and a run of 20 to
# 400 cycles 0.16 to 0.91 times as long.
_BLOCK_ROWS = 1024
# The largest dimension in which `run` steps an affine cycle by blocks: with
# the stack's build, a 10-cycle run handed a list by blocks took up to 1.13
# times as long as by steps at d = 48 and 4.2 to 4.4 times at d = 64, at
# d <= 32 at most 0.9 times (AP on two d/2-planes, one core).
_BLOCK_DIM = 32


def _schedule(block_rows):
    """(first, cap), the first and the longest round of `_rounds` in cycles.
    On the per-step path (`block_rows` 0) they are 1 and _TEST_BATCH; by
    blocks, with `block_rows` the m d rows of stacked maps a cycle, both are
    the cap, the largest power of two of cycles that read at most
    _BLOCK_ROWS rows, and at least _TEST_BATCH."""
    cap = _TEST_BATCH
    while block_rows and 2 * cap * block_rows <= _BLOCK_ROWS:
        cap *= 2
    return (cap if block_rows else 1), cap


def _rounds(max_cycles, block_rows):
    """The cycles of each round of `run`, in order: as many as so far, at
    least the first round, up to the cap (`_schedule`), the last cut to
    `max_cycles`.  By steps that is 1, 1, 2, 4, 8, 8 and so on; by blocks
    every round is the cap, so each reads the cycle's whole stack."""
    (first, cap), tested = _schedule(block_rows), 0
    while tested < max_cycles:
        k = min(max(tested, first), cap, max_cycles - tested)
        yield k
        tested += k


def _cycle_prefixes(maps):
    """The stacked prefix maps of the cycle of affine steps `maps`, a list
    of (M_i, c_i), for the cycles of a block-path round of `_rounds`, its
    cap, as read-only (A, b): block j of d rows of A and of b is the map
    x -> A_j x + b_j of the first j steps, A_j = M_j A_(j-1) and b_j =
    M_j b_(j-1) + c_j, member j taken cyclically.  Block m is the cycle's
    own map.  The first cycle is that chain; the stack then doubles, c
    cycles to 2c, A_(cm+i) = A_i A_cm and b_(cm+i) = A_i b_cm + b_i, until
    it holds the cap, a power of two of cycles."""
    A, b = [maps[0][0]], [maps[0][1]]
    for M, c in maps[1:]:
        A.append(M.dot(A[-1]))
        b.append(M.dot(b[-1]) + c)
    A, b = np.concatenate(A), np.concatenate(b)
    d, rows = A.shape[1], _schedule(A.shape[0])[1] * A.shape[0]
    while A.shape[0] < rows:
        A, b = np.concatenate([A, A.dot(A[-d:])]), np.concatenate([b, A.dot(b[-d:]) + b])
    A.flags.writeable = b.flags.writeable = False
    return A, b


def _one_point(self, x):
    """The operator at one point: its `_step`, x validated once."""
    return self._step(as_vector(x, self.dim))


def _row_step(self, x):
    """The step of one validated 1-D point x as the one-row call of `_rows`,
    for a step with no one-point formula."""
    return self._rows(x[None, :])[0]


def _each_row(self, X):
    """Row i is apply(X[i]) for an (n, dim) array X."""
    return self._rows(as_points(X, self.dim))


@dataclass(frozen=True, eq=False)
class RelaxedProjector:
    """x -> (1 - lam) x + lam P(x) with lam in (0, 2]; lam = 2 is the reflector."""

    target: ClosedSet
    lam: float

    def __post_init__(self):
        object.__setattr__(self, "lam", check_range("lambda", self.lam, *rates.LAMBDA_RANGE))
        object.__setattr__(self, "_map", _relaxed_map(self.target, self.lam))  # not a field

    apply = _one_point
    apply_many = _each_row

    @property
    def dim(self) -> int:
        return self.target.dim

    def _rows(self, X):
        """The step of each row of a validated (n, d) array X."""
        if self._map is not None:
            return _map_rows(self._map, X)
        return _relax(self.lam, X, self.target._canonical_many(X))

    def _step(self, x):
        """The step of one validated 1-D point x, with a `_rows` row's bits:
        M.dot(x) + c is the gemv `_rowwise` takes a row."""
        if self._map is not None:
            M, c = self._map
            return M.dot(x) + c
        return _relax(self.lam, x, self.target._point(x))


def _semi_intrepid_domain(alpha, tau):
    """The semi-intrepid step's alpha in [0, 1] and tau in [0, inf)."""
    return (check_range("alpha", alpha, *rates.ALPHA_RANGE),
            check_range("tau", tau, *rates.TAU_RANGE))


@dataclass(frozen=True, eq=False)
class SemiIntrepidProjector:
    """x -> p + (p - x) * min(alpha, tau / ||p - x||), with p = P(x).

    At p = x the overshoot is empty and the operator returns p.
    """

    target: ClosedSet
    alpha: float
    tau: float

    def __post_init__(self):
        for name, v in zip(("alpha", "tau"), _semi_intrepid_domain(self.alpha, self.tau)):
            object.__setattr__(self, name, v)

    apply = _one_point
    apply_many = _each_row
    _step = _row_step

    @property
    def dim(self) -> int:
        return self.target.dim

    def _rows(self, X):
        """The step of each row of a validated (n, d) array X."""
        P = self.target._canonical_many(X)
        step = P - X
        gap = row_norms(step)
        moved = gap != 0.0
        factor = np.minimum(self.alpha, self.tau / np.where(moved, gap, 1.0))
        return np.where(moved[:, None], P + factor[:, None] * step, P)


@dataclass(frozen=True, eq=False)
class GeneralizedDR:
    """x -> (1 - alpha) x + alpha P_B^mu P_A^lam x.

    lam, mu in (0, 2]; alpha in (0, 1].  alpha = 1 degenerates to the plain
    composition of the two relaxed projectors.
    """

    set_a: ClosedSet
    set_b: ClosedSet
    lam: float
    mu: float
    alpha: float

    def __post_init__(self):
        if self.set_a.dim != self.set_b.dim:
            raise DomainError("DR operator needs two sets of equal dimension")
        for name, v in zip(("lam", "mu", "alpha"), rates._dr_domain(self.lam, self.mu, self.alpha)):
            object.__setattr__(self, name, v)
        object.__setattr__(self, "_map", self._affine_map())  # not a field

    @property
    def dim(self) -> int:
        return self.set_a.dim

    def apply_with_trace(self, x):
        """Return (r, s, out): the two relaxed steps and the averaged point,
        by the step formula.  Where both sets are affine, `apply` steps by
        the operator's map instead, and out matches it to rounding, not bit
        for bit: where nothing underflows, each entry is within 2 gamma_K A,
        gamma_K = K u / (1 - K u) with u = 2^-53 and K = 4 dim + 16, and A
        the sum of the magnitudes of the terms the step adds up (the tests'
        `affine_step_bound` derives it)."""
        return tuple(Y[0] for Y in self._steps_many(as_vector(x, self.dim)[None, :]))

    apply = _one_point
    apply_many = _each_row

    def _affine_map(self):
        """(M, c) with the step x -> M x + c where both sets give a map:
        M = (1 - alpha) I + alpha M_B M_A and c = alpha (M_B c_A + c_B) from
        the two relaxed steps' maps; else None."""
        ma, mb = _relaxed_map(self.set_a, self.lam), _relaxed_map(self.set_b, self.mu)
        if ma is None or mb is None:
            return None
        (Ma, ca), (Mb, cb) = ma, mb
        return ((1.0 - self.alpha) * np.eye(self.dim) + self.alpha * Mb.dot(Ma),
                self.alpha * (Mb.dot(ca) + cb))

    def _rows(self, X):
        """The step of each row of a validated (n, d) array X."""
        if self._map is not None:
            return _map_rows(self._map, X)
        return self._steps_many(X)[2]

    _step = _row_step

    def _steps_many(self, X):
        """(R, S, out) for the rows of a validated (n, d) array X."""
        R = _relax(self.lam, X, self.set_a._canonical_many(X))
        S = _relax(self.mu, R, self.set_b._canonical_many(R))
        return R, S, (1.0 - self.alpha) * X + self.alpha * S


@dataclass(frozen=True, eq=False)
class CyclicTuple:
    """A flat, nonempty tuple of catalog operators of one dimension, applied
    in order (one full cycle).  Where every member steps by an affine map
    (`_map`) and the dimension is at most _BLOCK_DIM, it builds its stacked
    prefix maps (`_cycle_prefixes`) for the cap's cycles once and keeps them
    as `_prefixes`, the stack every block-path round of `run` reads whole;
    elsewhere `_prefixes` is None."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        for m in members:
            if type(m) not in _TAGS:  # a CyclicTuple is none, so tuples do not nest
                raise DomainError(f"cyclic tuple members must be catalog operators, "
                                  f"got {type(m).__name__}")
        object.__setattr__(self, "members", _member_tuple(members, "cyclic tuple"))
        maps = [getattr(op, "_map", None) for op in self.members]
        block = None not in maps and self.dim <= _BLOCK_DIM  # every member affine, d small
        # not a field: the stacked prefix maps, None off the block path
        object.__setattr__(self, "_prefixes", _cycle_prefixes(maps) if block else None)

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def apply(self, x):
        x = as_vector(x, self.dim)
        for op in self.members:
            x = op._step(x)
        return x

    def __len__(self):
        return len(self.members)


def semi_intrepid_effective_relaxation(x, p, alpha, tau) -> float:
    """Relaxation 1 + min(alpha, tau / ||x - p||) realised by a semi-intrepid step.

    Equals 1 when x = p (pure projection step).
    """
    alpha, tau = _semi_intrepid_domain(alpha, tau)
    x = as_vector(x)
    gap = float(np.linalg.norm(x - as_vector(p, x.size)))
    if gap == 0.0:
        return 1.0
    return 1.0 + min(alpha, tau / gap)


@dataclass(frozen=True)
class OperatorType:
    """One operator family as configs name it.

    `sets` are the config keys holding set indices and `params` the scalar
    keys, both in constructor order, so they pair up with the dataclass
    fields of `cls`.  `fejer(op, *eps)` gives the quasi-firm Fejér constants
    of an operator from the error levels named by `fejer_keys`.
    """

    cls: type
    sets: tuple
    params: tuple
    fejer_keys: tuple
    fejer: Callable
    about: str

    @property
    def keys(self):
        return self.sets + self.params


OPERATOR_TYPES = {
    "relaxed": OperatorType(
        RelaxedProjector, ("set",), ("lambda",), ("eps",),
        lambda op, eps: rates.relaxed_projector_constants(op.lam, eps),
        "relaxed projector (lambda in (0,2]); 1 = projector, 2 = reflector"),
    "semi_intrepid": OperatorType(
        SemiIntrepidProjector, ("set",), ("alpha", "tau"), ("eps",),
        lambda op, eps: rates.semi_intrepid_constants(op.alpha, eps),
        "projection extrapolated into the set (alpha in [0,1], tau >= 0)"),
    "generalized_dr": OperatorType(
        GeneralizedDR, ("set_a", "set_b"), ("lambda", "mu", "alpha"), ("eps1", "eps2"),
        lambda op, eps1, eps2: rates.dr_constants(op.lam, op.mu, op.alpha, eps1, eps2),
        "lambda, mu in (0,2], alpha in (0,1]; blended two-set step"),
}
_TAGS = {spec.cls: tag for tag, spec in OPERATOR_TYPES.items()}


def operator_type(op) -> str:
    """The config tag of an operator's family."""
    if type(op) not in _TAGS:
        raise ConfigError(f"no config form for operator {type(op).__name__}")
    return _TAGS[type(op)]


def operator_from_config(record: dict, sets) -> object:
    """Build an operator from a tagged record, resolving set indices; the
    operator checks each parameter, named by its key, by the number rule and
    its interval."""
    spec = table_entry(record, OPERATOR_TYPES, "operator")
    check_keys(record, "", ("type",) + spec.keys, required=spec.keys)
    args = []
    for key in spec.sets:
        idx = record[key]
        if type(idx) is not int or not 0 <= idx < len(sets):  # a bool is no index
            raise ConfigError(f"{key}: must index the scenario sets, got {idx!r}")
        args.append(sets[idx])
    with at_key(""):  # an enclosing at_key prefixes the record's path
        return spec.cls(*args, *(record[key] for key in spec.params))


def operator_to_config(op, sets) -> dict:
    """Serialize an operator back to its tagged record (set-index form)."""
    tag = operator_type(op)
    spec = OPERATOR_TYPES[tag]
    index = {id(s): i for i, s in enumerate(sets)}
    cfg = {"type": tag}
    for key, f in zip(spec.keys, fields(op)):
        value = getattr(op, f.name)
        if key in spec.sets:
            if id(value) not in index:
                raise ConfigError("operator references a set outside the scenario list")
            value = index[id(value)]
        cfg[key] = value
    return cfg
