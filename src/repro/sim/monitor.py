"""Measurement primitives for simulated experiments.

These are deliberately simple, allocation-light accumulators: experiments
in this library run hundreds of thousands of simulated events and probes
are on the hot path.

* :func:`quantile` — the exact quantile of a sorted sample list, shared
  by :class:`Summary` and the telemetry plane's window roll.
* :class:`Summary` — streaming mean plus full sample retention for
  exact quantiles (experiments are small enough to afford keeping
  samples; this keeps percentile math exact and honest).
"""

from __future__ import annotations

from typing import List, Sequence

__all__ = ["Summary", "quantile"]


def quantile(ordered: Sequence[float], q: float) -> float:
    """Exact quantile of ascending ``ordered`` by linear interpolation,
    q in [0, 1]."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not ordered:
        raise ValueError("no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    if low == position:
        return ordered[low]
    fraction = position - low
    return ordered[low] * (1 - fraction) + ordered[low + 1] * fraction


class Summary:
    """Streaming mean with exact quantiles.

    Keeps all samples (sorted lazily) so quantiles are exact rather than
    sketch-approximate; experiment sample counts in this library are in the
    tens of thousands at most.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sorted = True
        self._sum = 0.0

    def observe(self, sample: float) -> None:
        """Record one sample."""
        sample = float(sample)
        self._samples.append(sample)
        self._sorted = False
        self._sum += sample

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def mean(self) -> float:
        if not self._samples:
            raise ValueError("no samples")
        return self._sum / len(self._samples)

    def quantile(self, q: float) -> float:
        """Exact quantile by linear interpolation, q in [0, 1]."""
        if not self._sorted:
            self._samples.sort()
            self._sorted = True
        return quantile(self._samples, q)

    @property
    def median(self) -> float:
        return self.quantile(0.5)
