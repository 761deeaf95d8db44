"""Percentiles and summary arithmetic shared by every workload."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: The tail percentile aimed for.
TARGET = 99.0
#: A tail percentile is only reported where this many samples lie beyond it.
MIN_BEYOND = 10


class Percentile(NamedTuple):
    value: float
    #: the percentile actually reported (may be lower than the one asked for)
    pct: float
    #: how many samples it was taken from
    count: int


def tail_percentile(samples: Sequence[float]) -> Percentile:
    """The highest percentile up to ``TARGET`` with ``MIN_BEYOND`` samples above it.

    With ``n`` sorted samples, the sample at 1-based rank ``r`` has ``n - r``
    samples beyond it, so the rank is capped at ``n - MIN_BEYOND``.  When that
    cap is not above the median (``n <= 2 * MIN_BEYOND``) no tail is
    resolvable and the maximum is reported instead, labelled as p100.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    rank = min(max(1, math.ceil(TARGET / 100.0 * n)), n - MIN_BEYOND)
    if rank <= n / 2:
        return Percentile(ordered[-1], 100.0, n)
    return Percentile(ordered[rank - 1], 100.0 * rank / n, n)


def median(samples: Sequence[float]) -> Percentile:
    if not samples:
        raise ValueError("no samples")
    return Percentile(statistics.median(samples), 50.0, len(samples))


def share_pct(part: float, whole: float) -> float:
    return 100.0 * part / whole if whole else 0.0
