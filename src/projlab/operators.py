"""Projection-based fixed-point operators.

All operators act on a single point and return a new array; selections are
inherited from the canonical projections of the set catalog, so repeated
application replays exactly.  Each family writes its step once, in a kernel
on validated (n, d) rows that calls the catalog's `_nearest_many`: `apply`
is its one-row call and `apply_many` maps each row of an (n, d) array.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from . import rates
from .errors import ConfigError, DimensionMismatch, DomainError, check_keys, table_entry
from .sets import ClosedSet, as_points, as_vector, row_norms


def _relax(s: ClosedSet, lam, X):
    """x + lam (P_s(x) - x) for each row x of a validated (n, d) array X."""
    return X + lam * (s._nearest_many(X)[0] - X)


@dataclass(frozen=True, eq=False)
class RelaxedProjector:
    """x -> (1 - lam) x + lam P(x) with lam in (0, 2]; lam = 2 is the reflector."""

    target: ClosedSet
    lam: float

    def __post_init__(self):
        lam = float(self.lam)
        if not 0.0 < lam <= 2.0:
            raise DomainError(f"relaxation parameter must lie in (0, 2], got {lam}")
        object.__setattr__(self, "lam", lam)

    def apply(self, x):
        return _relax(self.target, self.lam, as_vector(x, self.target.dim)[None, :])[0]

    def apply_many(self, X):
        return _relax(self.target, self.lam, as_points(X, self.target.dim))


@dataclass(frozen=True, eq=False)
class SemiIntrepidProjector:
    """x -> p + (p - x) * min(alpha, tau / ||p - x||), with p = P(x).

    At p = x the overshoot is empty and the operator returns p.
    """

    target: ClosedSet
    alpha: float
    tau: float

    def __post_init__(self):
        alpha = float(self.alpha)
        tau = float(self.tau)
        if not 0.0 <= alpha <= 1.0:
            raise DomainError(f"intrepidity parameter must lie in [0, 1], got {alpha}")
        if not 0.0 <= tau < np.inf:  # nan fails too
            raise DomainError(f"injectability radius must be finite and >= 0, got {tau}")
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "tau", tau)

    def apply(self, x):
        return self._rows(as_vector(x, self.target.dim)[None, :])[0]

    def apply_many(self, X):
        return self._rows(as_points(X, self.target.dim))

    def _rows(self, X):
        """The step of each row of a validated (n, d) array X."""
        P = self.target._nearest_many(X)[0]
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
        for name in ("lam", "mu"):
            v = float(getattr(self, name))
            if not 0.0 < v <= 2.0:
                raise DomainError(f"{name} must lie in (0, 2], got {v}")
            object.__setattr__(self, name, v)
        alpha = float(self.alpha)
        if not 0.0 < alpha <= 1.0:
            raise DomainError(f"averaging parameter must lie in (0, 1], got {alpha}")
        object.__setattr__(self, "alpha", alpha)

    def apply_with_trace(self, x):
        """Return (r, s, out): the two relaxed steps and the averaged point."""
        return tuple(Y[0] for Y in self._steps_many(as_vector(x, self.set_a.dim)[None, :]))

    def apply(self, x):
        return self.apply_with_trace(x)[2]

    def apply_many(self, X):
        return self._steps_many(as_points(X, self.set_a.dim))[2]

    def _steps_many(self, X):
        """(R, S, out) for the rows of a validated (n, d) array X."""
        R = _relax(self.set_a, self.lam, X)
        S = _relax(self.set_b, self.mu, R)
        return R, S, (1.0 - self.alpha) * X + self.alpha * S


@dataclass(frozen=True, eq=False)
class CyclicTuple:
    """A flat, nonempty tuple of operators applied in order (one full cycle)."""

    members: tuple

    def __post_init__(self):
        members = tuple(self.members)
        if not members:
            raise DomainError("cyclic tuple must be nonempty")
        if any(isinstance(m, CyclicTuple) for m in members):
            raise DomainError("cyclic tuples do not nest")
        object.__setattr__(self, "members", members)

    def apply(self, x):
        for op in self.members:
            x = op.apply(x)
        return x

    def __len__(self):
        return len(self.members)


def reflect(s: ClosedSet, x):
    """R(x) = 2 P(x) - x."""
    return RelaxedProjector(s, 2.0).apply(x)


def semi_intrepid_effective_relaxation(x, p, alpha, tau) -> float:
    """Relaxation 1 + min(alpha, tau / ||x - p||) realised by a semi-intrepid step.

    Equals 1 when x = p (pure projection step).
    """
    gap = float(np.linalg.norm(as_vector(x) - as_vector(p)))
    if gap == 0.0:
        return 1.0
    return 1.0 + min(float(alpha), float(tau) / gap)


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
    """Build an operator from a tagged record, resolving set indices."""
    spec = table_entry(record, OPERATOR_TYPES, "operator")
    check_keys(record, "", ("type",) + spec.keys, required=spec.keys)
    args = []
    for key in spec.sets:
        idx = record[key]
        if type(idx) is not int or not 0 <= idx < len(sets):  # a bool is no index
            raise ConfigError(f"{key}: must index the scenario sets, got {idx!r}")
        args.append(sets[idx])
    try:
        return spec.cls(*args, *(record[key] for key in spec.params))
    except (DomainError, DimensionMismatch) as exc:  # at_key prefixes the record's path
        raise ConfigError(str(exc)) from exc


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
