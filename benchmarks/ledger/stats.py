"""Percentiles that count failures, medians, and run-to-run spread."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence


def percentile(ordered: Sequence[float], failed: int, q: float) -> Optional[float]:
    """Nearest-rank ``q`` quantile of ``ordered`` (ascending, finite) plus
    ``failed`` samples of +inf: a delivery that never happened misses every
    latency limit.  ``None`` without samples."""
    total = len(ordered) + failed
    if total == 0:
        return None
    rank = max(0, math.ceil(q * total) - 1)
    return ordered[rank] if rank < len(ordered) else math.inf


def median(values: Sequence[float]) -> Optional[float]:
    return statistics.median(values) if values else None


def spread(values: Sequence[float]) -> Optional[float]:
    """Distance between the first and third quartile as a share of the
    median — the steadiness measure the benchmark contract uses."""
    if len(values) < 2:
        return None
    q1, __, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None
