"""Summary statistics shared by run.py, spread.py and
its tests."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as
    ``statistics.quantiles(values, n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the first and third quartile as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2)


def tail_rank(n: int) -> int:
    """Highest whole percentile of ``n`` samples that has at least
    ``MIN_BEYOND`` of them beyond it, by the nearest-rank rule; 100 when no
    percentile from the median up qualifies (fewer than ``2 * MIN_BEYOND``)."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= MIN_BEYOND:
            return p
    return 100


def nearest_rank(values, p: int) -> tuple[float, int]:
    """The ``p``-th percentile by the nearest-rank rule, and the number of
    samples beyond it."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(p * len(xs) / 100))
    return float(xs[rank - 1]), len(xs) - rank

