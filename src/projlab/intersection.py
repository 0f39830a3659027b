"""Distance-to-intersection oracles.

A scenario either declares the intersection as a catalog set (exact) or asks
for the cyclic-projection fallback: iterate projections from the query point
until the cycle stabilises and use the landing point as a surrogate nearest
member.  The fallback overestimates the true distance and is flagged
approximate wherever it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .sets import ClosedSet, as_points, as_vector

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
        x = as_vector(x, self.dim)
        if self.descriptor is not None:
            return self.descriptor.project(x).canonical
        y = x.copy()
        for _ in range(_FALLBACK_ITERS):
            prev = y
            for s in self.members:
                y = s.project(y).canonical
            if np.linalg.norm(y - prev) <= _FALLBACK_TOL:
                break
        return y

    def distance(self, x) -> float:
        x = as_vector(x, self.dim)
        if self.descriptor is not None:
            return self.descriptor.distance(x)
        return float(np.linalg.norm(x - self.nearest(x)))

    def nearest_many(self, X) -> np.ndarray:
        """nearest(x) for each row of an (n, dim) array; batched for an exact
        descriptor, one point at a time for the fallback."""
        if self.descriptor is not None:
            return self.descriptor.project_many(X)
        X = as_points(X, self.dim)
        return np.array([self.nearest(x) for x in X]).reshape(X.shape)

    def distance_many(self, X) -> np.ndarray:
        """distance(x) for each row of an (n, dim) array; batched for an exact
        descriptor, one point at a time for the fallback."""
        if self.descriptor is not None:
            return self.descriptor.distance_many(X)
        return np.array([self.distance(x) for x in as_points(X, self.dim)], dtype=float)


def exact(descriptor: ClosedSet, members=()) -> IntersectionHandle:
    return IntersectionHandle(descriptor, tuple(members))


def oracle(members) -> IntersectionHandle:
    return IntersectionHandle(None, tuple(members))
