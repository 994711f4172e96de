"""Merging telemetry views: many shard snapshots, one fleet.

A process-sharded fleet (``repro.fleet.sharding``) grows one
:class:`~repro.obs.telemetry.aggregate.TelemetryPlane` per shard — each
plane watches only the groups its process hosts.  This module folds
those partial views back into a single fleet snapshot with the same
shape :meth:`TelemetryPlane.snapshot` emits, so everything downstream
(``repro top``, the Prometheus renderer, ``check_telemetry.py``) works
on a merged view without knowing shards exist.

The same machinery powers multi-source ``repro top``: point it at
several snapshot files or live endpoints (one per shard) and it renders
the merged fleet.

Merge semantics, per field class:

* **counts** (delivered, casts, switches, aborts, strays, escalations,
  captures, SLO alerts/burn, the bus's ``counters`` by name) — summed;
  shards partition the fleet, so sums are the fleet totals.
* **clocks** (``time``, ``uptime_s``, ``windows_rolled``) — maximum;
  shards share one virtual/wall timeline, they do not accumulate it.
* **groups** — dict union.  Shard group sets are disjoint by
  construction; when two sources *do* carry the same group (divergent
  snapshots of one fleet taken at different times), the one whose
  group has seen more deliveries wins — the fresher view.
* **pool loads** — per-rank sums (each shard records only its own
  slice of the global sequencer plan).
* **fleet windows** — aligned by window timestamp ``t`` and summed,
  so the merged history is what one process-wide plane would have
  rolled.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ...errors import TelemetryError
from ...records import dump
from .payload import TelemetryPayload

__all__ = ["merge_payloads", "merge_snapshots"]

#: fleet-level fields summed across sources.
_FLEET_SUMS = (
    "groups",
    "casts",
    "delivered",
    "rate",
    "switches",
    "aborts",
    "strays",
    "escalations",
    "captures",
)
#: fleet-level fields where the furthest-along source wins.
_FLEET_MAXES = ("time", "uptime_s", "windows_rolled")
#: per-window fields summed when windows align on ``t``.
_WINDOW_SUMS = ("groups", "casts", "delivered", "rate", "switches", "aborts", "strays")


def _merge_pool(pools: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    loads: Dict[str, int] = {}
    for pool in pools:
        for rank, load in (pool.get("loads") or {}).items():
            loads[rank] = loads.get(rank, 0) + load
    loads = {rank: loads[rank] for rank in sorted(loads, key=int)}
    return {
        "nodes": len(loads),
        "loads": loads,
        "min": min(loads.values()) if loads else 0,
        "max": max(loads.values()) if loads else 0,
    }


def _merge_slo(slos: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    targets: List[Dict[str, Any]] = []
    seen = set()
    for slo in slos:
        for target in slo.get("targets", []):
            name = target.get("name")
            if name not in seen:
                seen.add(name)
                targets.append(target)
    return {
        "targets": targets,
        "alerts": sum(slo.get("alerts", 0) for slo in slos),
        "burn_minutes": sum(slo.get("burn_minutes", 0.0) for slo in slos),
        "groups_burning": sum(slo.get("groups_burning", 0) for slo in slos),
    }


def _merge_windows(
    histories: Sequence[List[Dict[str, Any]]]
) -> List[Dict[str, Any]]:
    by_t: Dict[float, Dict[str, Any]] = {}
    for history in histories:
        for window in history:
            t = window.get("t")
            merged = by_t.get(t)
            if merged is None:
                by_t[t] = dict(window)
            else:
                for key in _WINDOW_SUMS:
                    if key in window or key in merged:
                        merged[key] = merged.get(key, 0) + window.get(key, 0)
    return [by_t[t] for t in sorted(by_t)]


def merge_snapshots(snapshots: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold shard-plane snapshots into one fleet-shaped snapshot."""
    if not snapshots:
        raise TelemetryError("nothing to merge: no snapshots given")
    if len(snapshots) == 1:
        return dict(snapshots[0])

    groups: Dict[str, Dict[str, Any]] = {}
    for snapshot in snapshots:
        for gid, group in (snapshot.get("groups") or {}).items():
            held = groups.get(gid)
            if held is None or group.get("delivered", 0) >= held.get(
                "delivered", 0
            ):
                groups[gid] = group
    groups = {gid: groups[gid] for gid in sorted(groups, key=int)}

    fleets = [snapshot.get("fleet", {}) for snapshot in snapshots]
    fleet: Dict[str, Any] = {}
    for key in _FLEET_SUMS:
        fleet[key] = sum(f.get(key, 0) for f in fleets)
    for key in _FLEET_MAXES:
        fleet[key] = max(f.get(key, 0) for f in fleets)
    fleet["window_s"] = fleets[0].get("window_s")
    # The union is authoritative for the group count: duplicate gids
    # across divergent sources collapse to one row.
    fleet["groups"] = len(groups)
    uptime = fleet.get("uptime_s") or 0.0
    fleet["rate_cumulative"] = (
        fleet["delivered"] / uptime if uptime > 0 else 0.0
    )
    fleet["pool"] = _merge_pool([f.get("pool", {}) for f in fleets])
    fleet["slo"] = _merge_slo([f.get("slo", {}) for f in fleets])
    counters: Dict[str, int] = {}
    for f in fleets:
        for name, value in (f.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + value
    fleet["counters"] = dict(sorted(counters.items()))

    return {
        "fleet": fleet,
        "groups": groups,
        "fleet_windows": _merge_windows(
            [snapshot.get("fleet_windows", []) for snapshot in snapshots]
        ),
    }


def merge_payloads(
    payloads: Sequence[Dict[str, Any]],
    sources: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """Merge full telemetry *payloads* (the ``repro top`` file/URL shape).

    Each payload is ``{"snapshot": ..., ...}``; the result carries the
    merged snapshot, the escalation records of every payload ordered by
    ``(time, group_id)``, and a re-rendered Prometheus text body.
    """
    if not payloads:
        raise TelemetryError("nothing to merge: no payloads given")
    if len(payloads) == 1:
        return dict(payloads[0])
    snapshot = merge_snapshots(
        [payload.get("snapshot", payload) for payload in payloads]
    )
    escalations: List[Dict[str, Any]] = []
    for payload in payloads:
        escalations.extend(payload.get("escalations", []))
    escalations.sort(
        key=lambda rec: (rec.get("time", 0.0), rec.get("group_id", 0))
    )
    from .expo import render_prometheus

    return dump(
        TelemetryPayload(
            "merge",
            snapshot,
            merged_from=len(payloads),
            prometheus=render_prometheus(snapshot),
            escalations=escalations,
            sources=None if sources is None else list(sources),
        )
    )
