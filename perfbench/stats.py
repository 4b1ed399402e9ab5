"""The benchmark's own statistics helpers.

Kept separate from ``repro.bench.experiments`` on purpose: that module
defines ``_geomean`` twice and the second definition (which keeps
non-positive ratios and returns 0.0 on empty input) shadows the first.
Here a percentile always says how many samples it rests on, and a
geometric mean refuses inputs it cannot be defined on.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

__all__ = ["Percentile", "geomean", "median", "percentile", "spread"]


@dataclass(frozen=True)
class Percentile:
    """A nearest-rank percentile together with its sample count."""

    q: float
    value: float
    count: int

    @property
    def beyond(self) -> int:
        """Samples strictly above the percentile's rank."""
        return self.count - nearest_rank(self.q, self.count)


def nearest_rank(q: float, count: int) -> int:
    """1-based nearest rank of percentile ``q`` (0 < q <= 100)."""
    if not 0 < q <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {q}")
    if count < 1:
        raise ValueError("percentile of an empty sample")
    return max(1, math.ceil(q / 100.0 * count))


def percentile(values, q: float) -> Percentile:
    """Nearest-rank percentile: the smallest sample with at least
    ``q`` percent of the samples at or below it."""
    ordered = sorted(values)
    rank = nearest_rank(q, len(ordered))
    return Percentile(q, float(ordered[rank - 1]), len(ordered))


def median(values) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def geomean(values) -> float:
    """Geometric mean; raises on empty input or any value <= 0."""
    values = list(values)
    if not values:
        raise ValueError("geometric mean of an empty sample")
    bad = [v for v in values if not v > 0]
    if bad:
        raise ValueError(f"geometric mean needs positive values, got {bad}")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def spread(values) -> float:
    """Interquartile distance as a share of the median, the way
    ``statistics.quantiles(values, n=4)`` places the quartiles."""
    q1, q2, q3 = statistics.quantiles(list(values), n=4)
    if q2 == 0:
        return math.inf if q3 != q1 else 0.0
    return (q3 - q1) / abs(q2)
