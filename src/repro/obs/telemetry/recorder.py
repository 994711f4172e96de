"""The flight recorder: bounded per-group rings, frozen on incident.

Full tracing on a thousand-group fleet is a non-starter (the disabled
bus *is* the hot-path contract), so post-incident forensics get the
aviation treatment instead: every group keeps a fixed-size ring of its
most recent instrumentation records, and an incident — a switch abort,
an SLO starting to burn, a dirty teardown — **freezes** a copy of that
ring into a :class:`Capture`.  Captures export as a JSONL "black box":
one ``{"type": "capture", ...}`` header line per incident followed by
its ``{"type": "record", ...}`` lines, oldest first.

Records arrive two ways:

* :meth:`attach` subscribes to a live bus and rings every event/span it
  streams (routing by the ``group`` event arg; group-less producers —
  the single-group chaos harness — land in ring 0).  Because the bus
  streams past its retention cap, this works on the fleet's
  ``max_events=0`` metrics-only bus too.
* :meth:`record` takes synthetic records directly — the telemetry
  plane rings its own window summaries, oracle decisions, and switch
  lifecycle notes this way, so a fleet black box is useful even though
  fleet member stacks run uninstrumented.

Memory is bounded everywhere: rings are ``deque(maxlen=capacity)``,
captures are capped (``max_captures``; overflow counted, not stored),
and repeat freezes of one (group, trigger) pair are deduplicated.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from ...errors import TelemetryError
from ..bus import Bus, Event

__all__ = ["Capture", "FlightRecorder"]


class Capture:
    """One frozen ring: the black-box contents for one incident."""

    __slots__ = ("group", "trigger", "time", "detail", "records")

    def __init__(
        self,
        group: int,
        trigger: str,
        time: float,
        detail: Optional[str],
        records: List[Dict[str, Any]],
    ) -> None:
        self.group = group
        self.trigger = trigger
        self.time = time
        self.detail = detail
        self.records = records

    def header(self) -> Dict[str, Any]:
        return {
            "type": "capture",
            "group": self.group,
            "trigger": self.trigger,
            "time": self.time,
            "detail": self.detail,
            "records": len(self.records),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Capture g{self.group} {self.trigger!r} "
            f"records={len(self.records)}>"
        )


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
        self._rings: Dict[int, Deque[Dict[str, Any]]] = {}
        self._frozen: Set[Tuple[int, str]] = set()

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _ring(self, group: int) -> Deque[Dict[str, Any]]:
        ring = self._rings.get(group)
        if ring is None:
            ring = deque(maxlen=self.capacity)
            self._rings[group] = ring
        return ring

    def record(self, group: int, record: Dict[str, Any]) -> None:
        """Append one record to ``group``'s ring (evicting the oldest)."""
        self._ring(group).append(record)
        self.records_seen += 1

    def record_event(self, event: Event) -> None:
        """Ring one bus event, routed by its ``group`` arg (default 0)."""
        group = event.args.get("group")
        record: Dict[str, Any] = {
            "t": event.time,
            "name": event.name,
            "kind": event.kind,
        }
        if event.rank is not None:
            record["rank"] = event.rank
        if event.dur:
            record["dur"] = event.dur
        if event.args:
            record["args"] = dict(event.args)
        self.record(group if isinstance(group, int) else 0, record)

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
        if not time and records:
            last_t = records[-1].get("t")
            if isinstance(last_t, (int, float)):
                time = float(last_t)
        capture = Capture(group, trigger, time, detail, records)
        self.captures.append(capture)
        return capture

    def lines(self) -> List[str]:
        """The JSONL black box: header + record lines per capture."""
        out: List[str] = []
        for capture in self.captures:
            out.append(json.dumps(capture.header(), sort_keys=True, allow_nan=False))
            for record in capture.records:
                line = {"type": "record", "group": capture.group}
                line.update(record)
                out.append(json.dumps(line, sort_keys=True, default=str, allow_nan=False))
        return out

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
