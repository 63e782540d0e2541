"""Geometric degree buckets shared by the estimator and its exact test oracles."""

from __future__ import annotations

import math
import numbers

import numpy as np

from .graph import checked_int, checked_ints, top_value

# Degrees below this are looked up by bucket_indices in a dense per-degree
# table, and counted by bucket_counts in a per-degree tally, 512 KiB of intp
# at most each; the rare larger ones are binary-searched in ``powers``, so no
# table is sized by the largest degree.
DENSE_DEGREES = 2**16

# Most buckets bucket_count gives: 8 MiB per float64 table. Within MAX_PLAN_QUERIES
# the default sample-size constants never need more than about 6 * 10**4.
MAX_BUCKETS = 2**20


def gamma_for(epsilon: float) -> float:
    """The bucket growth rate for accuracy target ``epsilon``: ``epsilon / 10``."""
    # not epsilon * 0.1, which rounds differently at some epsilon
    return epsilon / 10.0


def bucket_count(n: int, gamma: float) -> int:
    """Number of geometric degree buckets needed to cover degrees up to ``n``, at most :data:`MAX_BUCKETS`."""
    n = checked_int(n, "n")
    if n < 2:
        raise ValueError("bucket_count requires n >= 2")
    # NaN fails every comparison; a bool or a string is no growth rate
    if isinstance(gamma, bool) or not isinstance(gamma, numbers.Real) or not 0 < gamma < math.inf:
        raise ValueError("bucket_count requires a finite gamma > 0")
    width = math.log(n) / math.log1p(gamma)  # inf at a subnormal gamma
    if width + 1 > MAX_BUCKETS:
        raise ValueError(f"bucket_count at n={n}, gamma={gamma} needs more than MAX_BUCKETS={MAX_BUCKETS} buckets")
    return math.ceil(width) + 1


class BucketConfig:
    """Degree bucket ``i`` holds degrees in ``(powers[i-1], powers[i]]``.

    The boundary table ``powers[i] = (1 + gamma)^i`` is built once by repeated
    multiplication, and every consumer (index lookup, sampled mass estimate,
    exact mass oracle) compares against this same table, so a degree can never
    land in different buckets in different code paths. Degree 1 sits in bucket
    0; degree-0 vertices belong to no bucket.
    """

    __slots__ = ("n", "gamma", "t", "powers")

    def __init__(self, n: int, gamma: float):
        t = bucket_count(n, gamma)
        # accumulate multiplies in sequence, so each entry is the same
        # rounded product as ``powers[i - 1] * (1 + gamma)`` in a loop
        factors = np.full(t, 1.0 + gamma)
        factors[0] = 1.0
        powers = np.multiply.accumulate(factors)
        # the formula already overshoots by one bucket; this guard only fires
        # if float rounding ever leaves the top degree uncovered
        while powers[-1] < n:
            powers = np.append(powers, powers[-1] * (1.0 + gamma))
            t += 1
        powers.setflags(write=False)
        self.n = n
        self.gamma = gamma
        self.t = t
        self.powers = powers

    @classmethod
    def from_epsilon(cls, n: int, epsilon: float) -> "BucketConfig":
        return cls(n, gamma_for(epsilon))

    def bucket_index(self, degree: int) -> int:
        """Index of the unique bucket containing ``degree``, as :meth:`bucket_indices` finds it."""
        degree = min(max(checked_int(degree, "degree"), 0), self.n + 1)  # into int64, refused all the same
        return int(self.bucket_indices(np.array([degree]))[0])

    def bucket_indices(self, degrees: np.ndarray) -> np.ndarray:
        """Index of the bucket containing each of ``degrees``; every degree must be in ``1..n``.

        Each distinct degree below :data:`DENSE_DEGREES` is searched in the
        boundary table once, into a lookup table that the degrees then index,
        so a long array of repeated degrees costs one gather instead of one
        binary search per element. Degrees at or above it are searched one by
        one, so the table never outgrows the cutoff.
        """
        degrees = checked_ints(degrees, None, "degrees")
        if degrees.size == 0:
            return np.empty(0, dtype=np.intp)
        top = int(degrees.max())
        if degrees.min() < 1 or top > self.n:
            raise ValueError("degrees must lie in 1..n")
        if top >= DENSE_DEGREES:
            indices = np.empty(degrees.shape, dtype=np.intp)
            dense = degrees < DENSE_DEGREES
            indices[dense] = self.bucket_indices(degrees[dense])
            indices[~dense] = np.searchsorted(self.powers, degrees[~dense], side="left")
            return indices
        present = np.zeros(top + 1, dtype=bool)
        present[degrees] = True
        distinct = np.flatnonzero(present)
        table = np.empty(present.shape[0], dtype=np.intp)
        table[distinct] = np.searchsorted(self.powers, distinct, side="left")
        return table[degrees]

    def bucket_counts(self, degrees: np.ndarray) -> np.ndarray:
        """Per-bucket counts of ``degrees``, length ``t``; degree 0 joins no bucket and any other outside ``1..n`` is refused."""
        degrees = checked_ints(degrees, None, "degrees").ravel()
        if top_value(degrees) < DENSE_DEGREES:  # a negative degree reads as 2**64
            # bincount casts to intp, which older numpy refuses to do for uint64
            return self.fold(np.bincount(degrees.astype(np.intp, copy=False)))
        # the rare others, negatives included, are looked up one by one
        wide = (degrees < 0) | (degrees >= DENSE_DEGREES)
        return np.bincount(self.bucket_indices(degrees[wide]), minlength=self.t) + self.bucket_counts(degrees[~wide])

    def fold(self, per_degree: np.ndarray) -> np.ndarray:
        """Per-bucket counts, length ``t``, from ``per_degree[d]`` degrees ``d`` each; degree 0 joins no bucket."""
        distinct = np.flatnonzero(per_degree[1:]) + 1  # one bucket lookup per distinct degree
        counts = np.zeros(self.t, dtype=np.intp)
        np.add.at(counts, self.bucket_indices(distinct), per_degree[distinct])
        return counts
