"""Observability: instrumentation bus, metrics registry, trace exporters.

The paper's headline numbers — the Figure 2 crossover, the ~31 ms
switching overhead, the oscillation fix — are all *measurement* claims.
This package is the measurement layer that backs them up on live runs:

* :mod:`repro.obs.bus` — a cheap structured-event bus with clock-stamped
  spans.  Timestamps come from the :class:`~repro.runtime.api.Clock`
  interface, so the same instrumentation yields virtual-time traces on
  :class:`~repro.runtime.sim_runtime.SimRuntime` and wall-clock traces on
  :class:`~repro.runtime.aio.AsyncioRuntime`.
* :mod:`repro.obs.metrics` — the :class:`Counter` components count in,
  gauges, and fixed-bucket histograms (p50/p90/p99 summaries),
  snapshot-able to JSON.
* :mod:`repro.obs.export` — JSONL event logs and Chrome trace-event
  files loadable in Perfetto / ``chrome://tracing``.

Instrumentation is **off by default**: the process-wide default bus is
disabled, every emit site is guarded by ``enabled``, and a disabled bus
allocates no events and fires no callbacks — the figure-reproduction
pipelines stay bit-for-bit identical (see
``tests/integration/test_runtime_parity.py``).

See ``docs/OBSERVABILITY.md`` for the span taxonomy and metric names.
"""

from .bus import (
    Bus,
    BusScope,
    Event,
    PhaseTracker,
    Span,
    default_bus,
    null_scope,
    set_default_bus,
)
from .export import (
    chrome_trace_events,
    events_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from .metrics import DEFAULT_BUCKETS, Counter, Histogram, MetricsRegistry

__all__ = [
    "Bus",
    "BusScope",
    "Counter",
    "DEFAULT_BUCKETS",
    "Event",
    "Histogram",
    "MetricsRegistry",
    "PhaseTracker",
    "Span",
    "chrome_trace_events",
    "default_bus",
    "events_to_jsonl",
    "null_scope",
    "set_default_bus",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
]
