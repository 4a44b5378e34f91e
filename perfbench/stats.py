"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many ops above it.
TAIL_OPS_BEYOND = 10


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least TAIL_OPS_BEYOND ops above it.

    Returns (value, percentile, sample count).  The value is the order
    statistic with exactly TAIL_OPS_BEYOND larger samples, and its
    percentile is the share of samples at or below it.  With
    TAIL_OPS_BEYOND samples or fewer no percentile qualifies; the minimum is
    returned then, and its percentile shows that the rule could not be met.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    k = max(0, n - TAIL_OPS_BEYOND - 1)
    return float(ordered[k]), 100.0 * (k + 1) / n, n


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
