"""Counting and the metrics registry: counters, gauges, histograms.

A component counts in its own :class:`Counter` (its ``stats``); the
registry reads attached owners at snapshot time, so ``net.sends`` is the
network's ``stats["sends"]`` (:meth:`MetricsRegistry.attach`).

Unlike :class:`repro.sim.monitor.Summary` (which keeps every sample for
exact quantiles in bounded experiments), the histogram here is a
fixed-bucket accumulator: observation is O(log buckets), memory is
constant, and percentiles are estimated by linear interpolation inside
the covering bucket — the right trade for an always-on instrumentation
layer that may see millions of observations.

Everything in the registry snapshots to one :class:`MetricsSnapshot`
record (:meth:`MetricsRegistry.snapshot`): ``write_metrics`` dumps it,
and the CLI's ``repro metrics`` pretty-printer and the CI checker
script load it back closed.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..records import omitted

__all__ = [
    "DEFAULT_BUCKETS",
    "Counter",
    "GaugeReading",
    "Histogram",
    "HistogramSummary",
    "MetricsRegistry",
    "MetricsSnapshot",
]


class Counter:
    """A bag of named monotonic counters: one owner's ``stats``."""

    __slots__ = ("_counts",)

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to counter ``name`` (creating it at zero)."""
        self._counts[name] = self._counts.get(name, 0) + amount

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (zero if never incremented)."""
        return self._counts.get(name, 0)

    def as_dict(self) -> Dict[str, int]:
        """Snapshot of all counters (a copy)."""
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self._counts!r})"


def _default_buckets() -> Tuple[float, ...]:
    # 1-2-5 per decade from 1 microsecond to 10,000 seconds: wide enough
    # for sub-millisecond token hops and multi-second settle times alike.
    bounds: List[float] = []
    for exp in range(-6, 5):
        for mantissa in (1.0, 2.0, 5.0):
            bounds.append(mantissa * (10.0 ** exp))
    return tuple(bounds)


#: Default histogram bucket upper bounds (seconds-flavoured, but unitless).
DEFAULT_BUCKETS = _default_buckets()


@dataclass
class HistogramSummary:
    """A histogram's snapshot: just ``count`` while empty; the sum,
    mean, exact min/max and occupied ``[upper bound, count]`` buckets
    (None bounds the overflow bucket) once it has an observation; and
    p50/p90/p99 once it has two."""

    count: int
    sum: Optional[float] = omitted(default=None)
    mean: Optional[float] = omitted(default=None)
    min: Optional[float] = omitted(default=None)
    max: Optional[float] = omitted(default=None)
    p50: Optional[float] = omitted(default=None)
    p90: Optional[float] = omitted(default=None)
    p99: Optional[float] = omitted(default=None)
    buckets: Optional[List[Tuple[Optional[float], int]]] = omitted(default=None)


@dataclass
class GaugeReading:
    """A gauge's latest value and the time it was observed."""

    value: float
    time: float


@dataclass
class MetricsSnapshot:
    """Everything a registry recorded, plus the header a run writes it
    under (``command``/``seed``/``runtime``, absent while unset)."""

    counters: Dict[str, int]
    gauges: Dict[str, GaugeReading]
    histograms: Dict[str, HistogramSummary]
    command: Optional[str] = omitted(default=None)
    seed: Optional[int] = omitted(default=None)
    runtime: Optional[str] = omitted(default=None)


class Histogram:
    """Fixed-bucket histogram with interpolated percentile summaries.

    ``bounds`` are the inclusive upper edges of the buckets; one implicit
    overflow bucket catches everything above the last edge.  Exact min and
    max are tracked so interpolation never reports a value outside the
    observed range.
    """

    __slots__ = ("bounds", "counts", "count", "total", "minimum", "maximum")

    def __init__(self, bounds: Sequence[float] = DEFAULT_BUCKETS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("histogram bounds must be a sorted non-empty list")
        self.bounds: Tuple[float, ...] = tuple(float(b) for b in bounds)
        self.counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value

    @property
    def mean(self) -> float:
        if not self.count:
            raise ValueError("no observations")
        return self.total / self.count

    def quantile(self, q: float) -> Optional[float]:
        """Estimated quantile by linear interpolation within the bucket.

        Returns None for empty and single-observation histograms: one
        sample carries no distribution, and reporting a bucket edge (or
        the sample itself) as "p99" misleads every downstream consumer.
        Callers that want the raw sample have ``min``/``max``.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count < 2:
            return None
        target = q * self.count
        cumulative = 0
        for index, bucket_count in enumerate(self.counts):
            if cumulative + bucket_count >= target and bucket_count:
                lo = self.bounds[index - 1] if index > 0 else 0.0
                hi = (
                    self.bounds[index]
                    if index < len(self.bounds)
                    else self.maximum
                )
                lo = max(lo, self.minimum)
                hi = min(hi, self.maximum)
                if hi < lo:
                    hi = lo
                frac = (target - cumulative) / bucket_count
                return lo + (hi - lo) * frac
            cumulative += bucket_count
        return self.maximum

    def snapshot(self) -> HistogramSummary:
        """The summary (percentiles included when count >= 2)."""
        if not self.count:
            return HistogramSummary(0)
        occupied: List[Tuple[Optional[float], int]] = [
            (self.bounds[i] if i < len(self.bounds) else None, c)
            for i, c in enumerate(self.counts)
            if c
        ]
        return HistogramSummary(
            self.count,
            self.total,
            self.mean,
            self.minimum,
            self.maximum,
            self.quantile(0.50),
            self.quantile(0.90),
            self.quantile(0.99),
            occupied,
        )


class MetricsRegistry:
    """Named counters, gauges, and histograms behind one snapshot."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._owners: List[Tuple[str, str, Counter]] = []  # (prefix, suffix, stats)
        self._gauges: Dict[str, Tuple[float, float]] = {}  # name -> (value, t)
        self._histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def attach(self, prefix: str, stats: Counter, suffix: str = "") -> None:
        """Read ``stats`` as ``<prefix>.<key><suffix>``; owners sharing
        a name (one per rank, say) sum."""
        self._owners.append((prefix, suffix, stats))

    def incr(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the registry's own counter ``name``."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float, time: float = 0.0) -> None:
        """Record the latest value (and observation time) of gauge ``name``."""
        self._gauges[name] = (float(value), time)

    def observe(
        self,
        name: str,
        value: float,
        bounds: Optional[Sequence[float]] = None,
    ) -> None:
        """Fold ``value`` into histogram ``name`` (created on first use)."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = Histogram(bounds if bounds is not None else DEFAULT_BUCKETS)
            self._histograms[name] = histogram
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Every counter's current value by name, owners summed in."""
        totals = dict(self._counters)
        for prefix, suffix, stats in self._owners:
            for key, value in stats._counts.items():
                name = f"{prefix}.{key}{suffix}"
                totals[name] = totals.get(name, 0) + value
        return dict(sorted(totals.items()))

    def gauge(self, name: str) -> Optional[float]:
        """Latest value of gauge ``name``, or None."""
        entry = self._gauges.get(name)
        return entry[0] if entry is not None else None

    def histogram(self, name: str) -> Optional[Histogram]:
        """The named histogram, or None if nothing was observed."""
        return self._histograms.get(name)

    @property
    def empty(self) -> bool:
        return not (
            self._counters or self._owners or self._gauges or self._histograms
        )

    def snapshot(self) -> MetricsSnapshot:
        """One record of everything recorded so far."""
        return MetricsSnapshot(
            self.counters(),
            {
                name: GaugeReading(value, time)
                for name, (value, time) in sorted(self._gauges.items())
            },
            {
                name: histogram.snapshot()
                for name, histogram in sorted(self._histograms.items())
            },
        )

    def clear(self) -> None:
        """Forget everything recorded so far, attached owners included."""
        self._counters.clear()
        self._owners.clear()
        self._gauges.clear()
        self._histograms.clear()
