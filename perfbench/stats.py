"""Order statistics shared by the runner, the comparison tool and the
trajectory tool."""

from __future__ import annotations

import statistics
from typing import Sequence


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple:
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def tail(values: Sequence[float], beyond: int = 10) -> tuple:
    """(value, percentile) at the highest percentile that still has at least
    `beyond` samples above it.

    With N sorted samples that is the (N - beyond)-th smallest, which has
    exactly `beyond` samples after it.  Fewer than beyond + 1 samples give
    the maximum at the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= beyond:
        return float(ordered[-1]), 100.0
    rank = n - beyond
    return float(ordered[rank - 1]), 100.0 * rank / n
