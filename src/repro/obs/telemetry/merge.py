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

from dataclasses import fields, replace
from typing import Dict, List, Optional, Sequence

from ...errors import TelemetryError
from .aggregate import FleetView, FleetWindow, GroupView, Pool, TelemetrySnapshot
from .payload import TelemetryPayload
from .slo import SLORollup, SLOTarget

__all__ = ["merge_payloads", "merge_snapshots"]


def _merge_slo(slos: Sequence[SLORollup]) -> SLORollup:
    targets: Dict[str, SLOTarget] = {}
    for slo in slos:
        for target in slo.targets:
            targets.setdefault(target.name, target)
    return SLORollup(
        targets=list(targets.values()),
        alerts=sum(slo.alerts for slo in slos),
        burn_minutes=sum(slo.burn_minutes for slo in slos),
        groups_burning=sum(slo.groups_burning for slo in slos),
    )


def _merge_windows(windows: Sequence[FleetWindow]) -> List[FleetWindow]:
    """Sum the windows that share a ``t``; every count sums, the first
    window's ``window_s`` stands."""
    by_t: Dict[float, FleetWindow] = {}
    for window in windows:
        held = by_t.get(window.t)
        by_t[window.t] = window if held is None else replace(
            held,
            **{
                f.name: getattr(held, f.name) + getattr(window, f.name)
                for f in fields(FleetWindow)
                if f.name not in ("t", "window_s")
            },
        )
    return [by_t[t] for t in sorted(by_t)]


def merge_snapshots(snapshots: Sequence[TelemetrySnapshot]) -> TelemetrySnapshot:
    """Fold shard-plane snapshots into one fleet snapshot."""
    if not snapshots:
        raise TelemetryError("nothing to merge: no snapshots given")
    if len(snapshots) == 1:
        return snapshots[0]

    groups: Dict[int, GroupView] = {}
    for snapshot in snapshots:
        for gid, group in snapshot.groups.items():
            held = groups.get(gid)
            if held is None or group.delivered >= held.delivered:
                groups[gid] = group
    fleets = [snapshot.fleet for snapshot in snapshots]
    loads: Dict[int, int] = {}
    counters: Dict[str, int] = {}
    for f in fleets:
        for rank, load in f.pool.loads.items():
            loads[rank] = loads.get(rank, 0) + load
        for name, value in f.counters.items():
            counters[name] = counters.get(name, 0) + value
    delivered = sum(f.delivered for f in fleets)
    uptime = max(f.uptime_s for f in fleets)
    fleet = FleetView(
        time=max(f.time for f in fleets),
        uptime_s=uptime,
        window_s=fleets[0].window_s,
        windows_rolled=max(f.windows_rolled for f in fleets),
        # The union is authoritative for the group count: duplicate
        # gids across divergent sources collapse to one row.
        groups=len(groups),
        casts=sum(f.casts for f in fleets),
        delivered=delivered,
        rate=sum(f.rate for f in fleets),
        rate_cumulative=delivered / uptime if uptime > 0 else 0.0,
        switches=sum(f.switches for f in fleets),
        aborts=sum(f.aborts for f in fleets),
        strays=sum(f.strays for f in fleets),
        pool=Pool.of(loads),
        escalations=sum(f.escalations for f in fleets),
        captures=sum(f.captures for f in fleets),
        slo=_merge_slo([f.slo for f in fleets]),
        counters=dict(sorted(counters.items())),
    )
    return TelemetrySnapshot(
        fleet=fleet,
        groups={gid: groups[gid] for gid in sorted(groups)},
        fleet_windows=_merge_windows(
            [window for snapshot in snapshots for window in snapshot.fleet_windows]
        ),
    )


def merge_payloads(
    payloads: Sequence[TelemetryPayload],
    sources: Optional[Sequence[str]] = None,
) -> TelemetryPayload:
    """Merge full telemetry payloads (the ``repro top`` file/URL shape).

    The result carries the merged snapshot, the escalation records of
    every payload ordered by ``(time, group_id)``, and a re-rendered
    Prometheus text body.
    """
    if not payloads:
        raise TelemetryError("nothing to merge: no payloads given")
    if len(payloads) == 1:
        return payloads[0]
    snapshot = merge_snapshots([payload.snapshot for payload in payloads])
    escalations = sorted(
        (record for payload in payloads for record in payload.escalations or ()),
        key=lambda record: (record.time, record.group_id),
    )
    from .expo import render_prometheus

    return TelemetryPayload(
        "merge",
        snapshot,
        merged_from=len(payloads),
        prometheus=render_prometheus(snapshot),
        escalations=escalations,
        sources=None if sources is None else list(sources),
    )
