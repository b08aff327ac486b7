"""Order statistics shared by the child, the runner and ``--compare``
(percentiles themselves are ``repro.obs.metrics.percentile``)."""

from __future__ import annotations

import statistics
from typing import Sequence


def tail_percentile(n: int) -> int:
    """The highest of p99/p95/p90 that leaves at least ten samples
    beyond it."""
    if n >= 1000:
        return 99
    if n >= 200:
        return 95
    return 90


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
