"""The streaming telemetry plane: watch a fleet's drift live.

The PR 3 obs layer records *artifacts* — a traced run dumps Perfetto
JSON after the fact.  The fleet runtime multiplexes thousands of groups
through one process, and the paper's whole premise is that the run's
meta-properties (load, loss, latency) drift *while it runs*; this
package is the layer that makes the drift visible before the run ends:

* :mod:`repro.obs.telemetry.aggregate` — :class:`TelemetryPlane`, the
  per-group aggregation pipeline: windowed snapshots (delivered msgs/s,
  p50/p99 delivery latency, switch counts/durations, stray-group drops,
  sequencer-pool occupancy) with bounded memory per group.
* :mod:`repro.obs.telemetry.slo` — :class:`SLOEngine`, declarative
  targets (delivery-latency budget, time-to-switch budget, delivery-
  ratio floor) evaluated per window, emitting ``slo/burn`` events onto
  the bus and counting burn minutes.
* :mod:`repro.obs.telemetry.recorder` — :class:`FlightRecorder`, a
  fixed-size ring of recent spans/events per group, frozen to a JSONL
  "black box" when a switch aborts, an SLO starts burning, or a
  teardown is dirty.
* :mod:`repro.obs.telemetry.expo` — the Prometheus-style text endpoint
  and JSON snapshot endpoint served from the asyncio runtime's loop
  (under sim, :meth:`TelemetryPlane.snapshot` is the poll API).
* :mod:`repro.obs.telemetry.top` — the ``repro top`` terminal
  dashboard (hottest groups, protocol, rates, SLO state).
* :mod:`repro.obs.telemetry.merge` — fold per-shard plane snapshots
  (``repro.fleet.sharding``) into one fleet view; also powers
  multi-source ``repro top``.
* :mod:`repro.obs.telemetry.payload` — :class:`TelemetryPayload`, the
  envelope every telemetry file and endpoint body shares.

Like the rest of ``repro.obs``, all of it is **off by default**: a
fleet run grows a telemetry plane only when asked
(``FleetConfig(telemetry=True)`` / ``repro fleet --telemetry``), and an
unasked run is byte-identical to one built before this package existed.
"""

from .aggregate import WINDOW_SAMPLE_CAP, TelemetryConfig, TelemetryPlane
from .merge import merge_payloads, merge_snapshots
from .payload import TelemetryPayload
from .recorder import Capture, FlightRecorder, RingEntry
from .slo import SLO_SIGNALS, SLOEngine, SLOTarget

__all__ = [
    "Capture",
    "FlightRecorder",
    "RingEntry",
    "WINDOW_SAMPLE_CAP",
    "SLOEngine",
    "SLOTarget",
    "SLO_SIGNALS",
    "TelemetryConfig",
    "TelemetryPayload",
    "TelemetryPlane",
    "merge_payloads",
    "merge_snapshots",
]
