"""Distance-to-intersection oracles.

The intersection C of a scenario's sets is itself a closed set.  A scenario
either declares it as a catalog set, used as it is, or asks for the
cyclic-projection fallback, `IntersectionHandle(members)`: iterate
projections from the query point until the cycle stabilises and use the
landing point as a surrogate nearest member.  The fallback overestimates the
true distance and is flagged approximate wherever it is reported.  `exact`
and `oracle` are kept only for the benchmark's workloads, which call them.

The fallback is a single-valued set: its `_canonical_many` sweeps every live
row of a batch through the members' `_canonical_many` at once, reading no
member distance, and the rest of the set surface derives from it.  A row
drops out after the first sweep that moves it by at most `_FALLBACK_TOL`,
so each row gets the same sweeps it would get on its own.
"""

from dataclasses import dataclass

import numpy as np

from .sets import (
    RANK_TOL,
    ClosedSet,
    _member_tuple,
    _one_row_project,
    _SingleValued,
    as_vector,
    row_norms,
    svd_rank,
)

_FALLBACK_ITERS = 10_000
_FALLBACK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IntersectionHandle(_SingleValued):
    """The cyclic-projection surrogate of the intersection of `members`."""

    members: tuple

    def __post_init__(self):
        object.__setattr__(self, "members", _member_tuple(self.members, "oracle"))
        object.__setattr__(self, "dim", self.members[0].dim)

    @property
    def convex(self):
        """True when every member is convex.  The sweep's landing point is
        not the nearest one, so single-valuedness does not make it so."""
        return all(m.convex for m in self.members)

    project = _one_row_project
    # Bound here, not inherited, so the intersection's own calls can be
    # patched apart from every catalog set's.
    distance = ClosedSet.distance

    def nearest(self, x) -> np.ndarray:
        return self._canonical_many(as_vector(x, self.dim)[None, :])[0]

    def _canonical_many(self, X):
        """The landing points of the sweeps from the rows of a validated X."""
        Y = X.copy()
        live = np.arange(X.shape[0])
        for _ in range(_FALLBACK_ITERS):
            if not live.size:
                break
            prev = Y[live]
            Z = prev
            for s in self.members:
                Z = s._canonical_many(Z)
            Y[live] = Z
            live = live[row_norms(Z - prev) > _FALLBACK_TOL]
        return Y

    def _normal_space(self):
        """The row space of the members' stacked normal spaces, with no
        sweep: the affine members meet in a set whose L^perp is the sum of
        theirs.  None when a member is not known to be affine."""
        spaces = [m._normal_space() for m in self.members]
        if any(n is None for n in spaces):
            return None
        vt, rank = svd_rank(np.vstack(spaces), RANK_TOL)
        return vt[:rank]


def exact(descriptor: ClosedSet, members=()) -> ClosedSet:
    """The descriptor itself; kept only for the benchmark's workloads."""
    return descriptor


def oracle(members) -> IntersectionHandle:
    return IntersectionHandle(members)
