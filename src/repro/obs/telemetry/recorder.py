"""The flight recorder: bounded per-group rings, frozen on incident.

Full tracing on a thousand-group fleet is a non-starter (the disabled
bus *is* the hot-path contract), so post-incident forensics get the
aviation treatment instead: every group keeps a fixed-size ring of its
most recent instrumentation records, and an incident — a switch abort,
an SLO starting to burn, a dirty teardown — **freezes** a copy of that
ring into a :class:`Capture`.  Captures export as a JSONL "black box":
one line per incident, the capture with its ring entries oldest first.

Records arrive two ways:

* :meth:`attach` subscribes to a live bus and rings every event/span it
  streams (routing by the ``group`` event arg; group-less producers —
  the single-group chaos harness — land in ring 0).  Because the bus
  streams past its retention cap, this works on the fleet's
  ``max_events=0`` metrics-only bus too.
* :meth:`record` takes synthetic entries directly — the telemetry
  plane rings its own window summaries, oracle decisions, and switch
  lifecycle notes this way (their figures in ``args``), so a fleet
  black box is useful even though fleet member stacks run
  uninstrumented.

Memory is bounded everywhere: rings are ``deque(maxlen=capacity)``,
captures are capped (``max_captures``; overflow counted, not stored),
and repeat freezes of one (group, trigger) pair are deduplicated.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ...errors import TelemetryError
from ...records import dump, omitted
from ..bus import Bus, Event

__all__ = ["Capture", "FlightRecorder", "RingEntry"]


@dataclass
class RingEntry:
    """One ring entry: a bus event's time, name, kind, rank, span
    duration and args, or one of the plane's own notes."""

    t: float
    name: str
    kind: str
    rank: Optional[int] = omitted(default=None)
    dur: Optional[float] = omitted(default=None)
    args: Optional[Dict[str, Any]] = omitted(default=None)


@dataclass
class Capture:
    """One frozen ring: the black-box contents for one incident."""

    group: int
    trigger: str
    time: float
    detail: Optional[str]
    records: List[RingEntry]


class FlightRecorder:
    """Per-group rings of recent records, frozen to captures on incident."""

    def __init__(self, capacity: int = 64, max_captures: int = 32) -> None:
        if capacity < 1:
            raise TelemetryError("flight recorder capacity must be >= 1")
        if max_captures < 1:
            raise TelemetryError("flight recorder needs max_captures >= 1")
        self.capacity = capacity
        self.max_captures = max_captures
        self.captures: List[Capture] = []
        self.captures_dropped = 0
        self.records_seen = 0
        self._rings: Dict[int, Deque[RingEntry]] = {}
        self._frozen: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _ring(self, group: int) -> Deque[RingEntry]:
        ring = self._rings.get(group)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[group] = ring
        return ring

    def record(self, group: int, entry: RingEntry) -> None:
        """Append one entry to ``group``'s ring (evicting the oldest)."""
        self._ring(group).append(entry)
        self.records_seen += 1

    def record_event(self, event: Event) -> None:
        """Ring one bus event, routed by its ``group`` arg (default 0)."""
        group = event.args.get("group")
        entry = RingEntry(
            event.time,
            event.name,
            event.kind,
            event.rank,
            event.dur or None,
            dict(event.args) or None,
        )
        self.record(group if isinstance(group, int) else 0, entry)

    def attach(self, bus: Bus, freeze_on_abort: bool = True) -> None:
        """Subscribe to ``bus``: ring every event, freeze on switch aborts."""

        def on_event(event: Event) -> None:
            self.record_event(event)
            if freeze_on_abort and event.name == "switch/abort":
                group = event.args.get("group")
                self.freeze(
                    group if isinstance(group, int) else 0,
                    "switch_abort",
                    detail=str(event.args.get("reason", "")) or None,
                )

        bus.subscribe(on_event)

    # ------------------------------------------------------------------
    # Freezing + export
    # ------------------------------------------------------------------
    def freeze(
        self,
        group: int,
        trigger: str,
        time: float = 0.0,
        detail: Optional[str] = None,
    ) -> Optional[Capture]:
        """Snapshot ``group``'s ring as a capture.

        Returns the capture, or None when nothing was stored: an empty
        ring records nothing, one (group, trigger) pair freezes at most
        once (the *first* incident is the interesting one), and capture
        storage is capped (overflow counted in ``captures_dropped``).
        """
        ring = self._rings.get(group)
        if not ring or (group, trigger) in self._frozen:
            return None
        self._frozen.add((group, trigger))
        if len(self.captures) >= self.max_captures:
            self.captures_dropped += 1
            return None
        records = list(ring)
        capture = Capture(group, trigger, time or records[-1].t, detail, records)
        self.captures.append(capture)
        return capture

    def lines(self) -> List[str]:
        """The JSONL black box: one capture per line.  An event arg JSON
        cannot hold is written as its ``str``."""
        return [
            json.dumps(dump(capture), sort_keys=True, default=str, allow_nan=False)
            for capture in self.captures
        ]

    def write_jsonl(self, path: str) -> int:
        """Write the black box to ``path``; returns the line count."""
        lines = self.lines()
        with open(path, "w") as handle:
            for line in lines:
                handle.write(line + "\n")
        return len(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder groups={len(self._rings)} "
            f"captures={len(self.captures)}>"
        )
