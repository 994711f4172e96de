"""Exporters: JSONL event logs and Chrome trace-event (Perfetto) files.

The Chrome trace-event JSON array format is understood by Perfetto
(https://ui.perfetto.dev) and the legacy ``chrome://tracing`` viewer:

* one **process** per rank (``pid = rank + 1``; unranked/global events —
  the network models, the harness — live on ``pid 0``), named via
  ``process_name`` metadata records;
* one **thread track** per switch generation: span/instant events whose
  args carry a ``gen`` (the resilient token protocol's ``(counter,
  rank)`` generation) are routed onto a per-generation track, so every
  regeneration/takeover gets its own swimlane and overlapping switch
  attempts never visually merge.  Everything else rides track 0.

Timestamps are exported in microseconds (``ts``/``dur``), as the format
requires: simulated seconds × 1e6 on the ``Simulator``, wall seconds × 1e6
on ``AsyncioRuntime`` — the schema is identical either way.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional

from .bus import COMPLETE, Event
from .metrics import MetricsRegistry

__all__ = [
    "chrome_trace_events",
    "events_to_jsonl",
    "write_chrome_trace",
    "write_jsonl",
    "write_metrics",
]

#: pid used for events with no producing rank (network models, harness).
GLOBAL_PID = 0


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of event args to JSON-able values."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    return repr(value)


def chrome_trace_events(
    events: Iterable[Event], label: str = "repro"
) -> List[Dict[str, Any]]:
    """Convert bus events to a Chrome trace-event array (list of dicts)."""
    out: List[Dict[str, Any]] = []
    seen_pids: Dict[int, str] = {}
    gen_tracks: Dict[int, Dict[Any, int]] = {}  # pid -> gen key -> tid
    track_meta: List[Dict[str, Any]] = []

    def pid_of(rank: Optional[int]) -> int:
        pid = GLOBAL_PID if rank is None else rank + 1
        if pid not in seen_pids:
            seen_pids[pid] = (
                f"{label} global" if rank is None else f"{label} rank {rank}"
            )
        return pid

    def tid_of(pid: int, args: Dict[str, Any]) -> int:
        gen = args.get("gen")
        if gen is None:
            return 0
        key = tuple(gen) if isinstance(gen, (list, tuple)) else gen
        tracks = gen_tracks.setdefault(pid, {})
        tid = tracks.get(key)
        if tid is None:
            tid = len(tracks) + 1
            tracks[key] = tid
            track_meta.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "ts": 0,
                    "args": {"name": f"switch gen {key}"},
                }
            )
        return tid

    for event in events:
        pid = pid_of(event.rank)
        record: Dict[str, Any] = {
            "name": event.name,
            "ph": COMPLETE if event.kind == COMPLETE else "i",
            "ts": event.time * 1e6,
            "pid": pid,
            "tid": tid_of(pid, event.args),
            "args": _jsonable(event.args),
        }
        if event.kind == COMPLETE:
            record["dur"] = event.dur * 1e6
        else:
            record["s"] = "t"  # instant scope: thread
        out.append(record)

    meta: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "ts": 0,
            "args": {"name": name},
        }
        for pid, name in sorted(seen_pids.items())
    ]
    return meta + track_meta + out


def write_chrome_trace(
    path: str, events: Iterable[Event], label: str = "repro"
) -> int:
    """Write a Perfetto-loadable trace file; returns records written."""
    records = chrome_trace_events(events, label=label)
    with open(path, "w") as handle:
        json.dump(records, handle, allow_nan=False)
    return len(records)


def events_to_jsonl(events: Iterable[Event]) -> List[str]:
    """One compact JSON object per event, in record order."""
    lines = []
    for event in events:
        record: Dict[str, Any] = {
            "name": event.name,
            "kind": event.kind,
            "time": event.time,
            "rank": event.rank,
            "args": _jsonable(event.args),
        }
        if event.kind == COMPLETE:
            record["dur"] = event.dur
        lines.append(json.dumps(record, allow_nan=False))
    return lines


def write_jsonl(path: str, events: Iterable[Event]) -> int:
    """Write the JSONL event log; returns the number of lines."""
    lines = events_to_jsonl(events)
    with open(path, "w") as handle:
        for line in lines:
            handle.write(line)
            handle.write("\n")
    return len(lines)


def write_metrics(
    path: str,
    metrics: MetricsRegistry,
    **header: Any,
) -> Dict[str, Any]:
    """Write a metrics snapshot JSON (plus header fields); returns it."""
    snapshot = dict(header)
    snapshot.update(metrics.snapshot())
    with open(path, "w") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    return snapshot
