"""Distance-to-intersection oracles.

A scenario either declares the intersection as a catalog set (exact) or asks
for the cyclic-projection fallback: iterate projections from the query point
until the cycle stabilises and use the landing point as a surrogate nearest
member.  The fallback overestimates the true distance and is flagged
approximate wherever it is reported.

A handle answers `project_many`/`distance_many` as a catalog set does, and
`nearest`/`distance` are their one-row calls, for exact and oracle handles
alike.  The fallback sweeps every live row of a batch through the members'
`_canonical_many` at once, reading no member distance; a row drops out after
the first sweep that moves it by at most `_FALLBACK_TOL`, so each row gets
the same sweeps it would get on its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sets import ClosedSet, as_points, as_vector, row_norms

_FALLBACK_ITERS = 10_000
_FALLBACK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class IntersectionHandle:
    """Wraps either an exact descriptor of the intersection or its members."""

    descriptor: ClosedSet | None
    members: tuple

    def __post_init__(self):
        if self.descriptor is None and not self.members:
            raise DomainError("need a descriptor or the member sets")
        object.__setattr__(self, "members", tuple(self.members))

    @property
    def approximate(self) -> bool:
        return self.descriptor is None

    @property
    def dim(self) -> int:
        if self.descriptor is not None:
            return self.descriptor.dim
        return self.members[0].dim

    def nearest(self, x) -> np.ndarray:
        return self._canonical_many(as_vector(x, self.dim)[None, :])[0]

    def distance(self, x) -> float:
        return float(self._nearest_many(as_vector(x, self.dim)[None, :])[1][0])

    def project_many(self, X) -> np.ndarray:
        """Row i is nearest(X[i]) for an (n, dim) array X."""
        return self._canonical_many(as_points(X, self.dim))

    def distance_many(self, X) -> np.ndarray:
        """Entry i is distance(X[i]) for an (n, dim) array X."""
        return self._nearest_many(as_points(X, self.dim))[1]

    def _nearest_many(self, X):
        """(nearest points, distances) of the rows of a validated X."""
        if self.descriptor is not None:
            return self.descriptor._nearest_many(X)
        Y = self._canonical_many(X)
        return Y, row_norms(X - Y)

    def _canonical_many(self, X):
        """The nearest points of the rows of a validated X."""
        if self.descriptor is not None:
            return self.descriptor._canonical_many(X)
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


def exact(descriptor: ClosedSet, members=()) -> IntersectionHandle:
    return IntersectionHandle(descriptor, tuple(members))


def oracle(members) -> IntersectionHandle:
    return IntersectionHandle(None, tuple(members))
