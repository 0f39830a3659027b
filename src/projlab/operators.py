"""Projection-based fixed-point operators.

Selections are inherited from the canonical projections of the set catalog,
so repeated application replays exactly.  Each family writes its step once,
in a private kernel `_rows` on validated (n, d) rows, and reports its `dim`.
The kernels read points only: they call the catalog's `_canonical_many`, so
no step computes a distance.  A relaxed or generalized DR operator whose
sets all give their projection as an affine map (`_affine_map`: the
hyperplane and the affine set) builds its own map x -> M x + c once, at
construction, and its `_rows` is M x + c, calling no oracle; the
semi-intrepid step, which is not affine, and operators on any other set
keep the step formula, as `apply_with_trace` does.  `apply` is the one-row
call of `_rows` and `apply_many` its call on every row of an (n, d) array;
both validate their input once.  `CyclicTuple.apply` validates one point
and then steps a (1, d) row through the members' kernels; the affine
set's and the map's products go through `sets._rowwise`, so that row keeps
a batch row's bits.
`runner.run` steps that way where a member has no map; where every member
has one, it steps a round of cycles by one product over the cycle's
stacked prefix maps (`_cycle_prefixes`, doubled as the rounds grow to as
many cycles as 1024 rows of maps hold, and at least 8), which rounds
differently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import rates
from .errors import ConfigError, DomainError, at_key, check_keys, check_range, table_entry
from .sets import ClosedSet, _member_tuple, _rowwise, as_points, as_vector, row_norms


def _relax(s: ClosedSet, lam, X):
    """x + lam (P_s(x) - x) for each row x of a validated (n, d) array X."""
    return X + lam * (s._canonical_many(X) - X)


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


def _cycle_prefixes(maps, cycles, built):
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


def _one_row(self, x):
    """The operator at one point: the one-row call of `_rows`, x validated once."""
    return self._rows(as_vector(x, self.dim)[None, :])[0]


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

    apply = _one_row
    apply_many = _each_row

    @property
    def dim(self) -> int:
        return self.target.dim

    def _rows(self, X):
        """The step of each row of a validated (n, d) array X."""
        if self._map is not None:
            return _map_rows(self._map, X)
        return _relax(self.target, self.lam, X)


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

    apply = _one_row
    apply_many = _each_row

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

    apply = _one_row
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

    def _steps_many(self, X):
        """(R, S, out) for the rows of a validated (n, d) array X."""
        R = _relax(self.set_a, self.lam, X)
        S = _relax(self.set_b, self.mu, R)
        return R, S, (1.0 - self.alpha) * X + self.alpha * S


@dataclass(frozen=True, eq=False)
class CyclicTuple:
    """A flat, nonempty tuple of catalog operators of one dimension, applied
    in order (one full cycle)."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        for m in members:
            if type(m) not in _TAGS:  # a CyclicTuple is none, so tuples do not nest
                raise DomainError(f"cyclic tuple members must be catalog operators, "
                                  f"got {type(m).__name__}")
        object.__setattr__(self, "members", _member_tuple(members, "cyclic tuple"))

    @property
    def dim(self) -> int:
        return self.members[0].dim

    def apply(self, x):
        X = as_vector(x, self.dim)[None, :]
        for op in self.members:
            X = op._rows(X)
        return X[0]

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
