#!/usr/bin/env python
"""Validate the telemetry artifacts the fleet runner and CLI emit.

Usage::

    python scripts/check_telemetry.py PAYLOAD.json [FLEET.json]
    python scripts/check_telemetry.py --blackbox BLACKBOX.jsonl
    python scripts/check_telemetry.py --overhead OVERHEAD.json

Payload mode checks a telemetry payload (``repro fleet
--telemetry-json`` / ``--scrape-out``):

* the payload, read closed as a ``TelemetryPayload``
  (``repro.obs.telemetry.payload``) down to every field of its
  snapshot (``repro.obs.telemetry.aggregate.TelemetrySnapshot``):
  integer schema version, ``telemetry`` kind, a known source, fleet +
  per-group views and ``DecisionRecord`` escalations of the declared
  types; then Prometheus exposition text carrying the core series;
* the snapshot's internal consistency: one group view per counted
  group, each filed under its own id, per-group delivered counts sum
  to the fleet total, every group view names a protocol, fleet windows
  were rolled, every recorded escalation carries its justifying snapshot,
  and the escalations are in decision-time order (a sharded run's
  merged list too);
* with a fleet artifact (``repro fleet --json``, read closed as a
  ``FleetResult``) alongside: the telemetry aggregate agrees with the
  artifact's delivered count to within 1% (the live plane must not
  drift from ground truth), and — while the plane's escalation list
  is under its cap — each switched group was escalated exactly once
  and no other group was.

Blackbox mode checks a flight-recorder JSONL (``repro chaos
--blackbox``): every line reads closed as a ``Capture`` of
``RingEntry`` records (``repro.obs.telemetry.recorder``), there is at
least one, and each names its trigger and holds a non-empty ring.

Overhead mode checks the telemetry-overhead benchmark artifact
(``benchmarks/bench_obs.py``), read closed as its ``OverheadArtifact``:
identical sim outcomes with the plane off and on, and best-of overhead
within the pinned threshold.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import sys
from collections import Counter
from pathlib import Path
from typing import List

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE), str(_HERE.parent / "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _lib import ArtifactError, read_record, report_problems, usage
from bench_obs import OverheadArtifact
from repro.fleet.runner import FleetResult
from repro.obs.telemetry import Capture
from repro.obs.telemetry.aggregate import MAX_ESCALATIONS
from repro.obs.telemetry.payload import TelemetryPayload

PROM_SERIES = (
    "repro_fleet_groups",
    "repro_fleet_delivered_total",
    "repro_fleet_delivered_per_s",
    "repro_slo_burn_minutes",
    "repro_group_delivered_total",
    "repro_counter_total",
)
AGREEMENT = 0.01  # telemetry vs. artifact delivered-count drift ceiling


def check_snapshot(snapshot, problems):
    fleet, groups = snapshot.fleet, snapshot.groups
    if not groups:
        problems.append("snapshot.groups: empty")
        return
    if fleet.groups != len(groups):
        problems.append(
            f"snapshot.fleet counts {fleet.groups} groups but "
            f"{len(groups)} group snapshots present"
        )
    for gid, group in groups.items():
        label = f"snapshot.groups[{gid}]"
        if group.group != gid:
            problems.append(f"{label}: group id mismatch ({group.group})")
        if not group.protocol:
            problems.append(f"{label}: no protocol recorded")
    total = sum(group.delivered for group in groups.values())
    if total != fleet.delivered:
        problems.append(
            f"per-group delivered sums to {total}, fleet total says "
            f"{fleet.delivered}"
        )
    if not snapshot.fleet_windows:
        problems.append("snapshot.fleet_windows: empty")
    if fleet.delivered <= 0:
        problems.append("snapshot.fleet: no deliveries recorded")


def check_escalations(payload, problems):
    escalations = payload.escalations
    if escalations is None:
        return  # scrape payloads carry the snapshot only
    previous = None
    for index, record in enumerate(escalations):
        label = f"escalations[{index}]"
        if previous is not None and record.time < previous:
            problems.append(
                f"{label}: decided at {record.time}, before the record "
                f"ahead of it ({previous})"
            )
        else:
            previous = record.time
        if record.snapshot is None:
            problems.append(f"{label}: decision carries no snapshot")
            continue
        if "window_partial" not in record.snapshot:
            problems.append(f"{label}: snapshot lacks the partial window")
        if record.signal is None:
            problems.append(f"{label}: decision carries no signal value")


def check_payload(payload, fleet_artifact, problems):
    """Check a payload, and the fleet artifact when given."""
    check_snapshot(payload.snapshot, problems)
    if payload.prometheus is None:
        problems.append("prometheus exposition text missing")
    else:
        for series in PROM_SERIES:
            if f"# TYPE {series} " not in payload.prometheus:
                problems.append(f"prometheus: series {series} missing")
    check_escalations(payload, problems)

    if fleet_artifact is None:
        return
    truth = fleet_artifact.delivered
    observed = payload.snapshot.fleet.delivered
    if abs(observed - truth) > AGREEMENT * max(1.0, truth):
        problems.append(
            f"telemetry saw {observed} deliveries, the fleet artifact "
            f"recorded {truth} (>{AGREEMENT:.0%} drift)"
        )
    check_one_escalation_per_switch(payload, fleet_artifact, problems)


def check_one_escalation_per_switch(payload, fleet_artifact, problems):
    escalations = payload.escalations
    if escalations is None:
        problems.append("cannot match escalations to the fleet's per_group")
        return
    escalated = Counter(record.group_id for record in escalations)
    repeated = [gid for gid, count in escalated.items() if count > 1]
    if repeated:
        problems.append(f"groups {repeated} escalated more than once")
    if len(escalations) >= MAX_ESCALATIONS:
        return  # capped: the list no longer names every escalation
    switched = {g.group_id for g in fleet_artifact.per_group if g.switched}
    if set(escalated) != switched:
        problems.append(
            f"escalated groups {sorted(set(escalated) - switched, key=str)} "
            f"did not switch; switched groups "
            f"{sorted(switched - set(escalated), key=str)} were never "
            f"escalated"
        )


def check_blackbox(captures, problems):
    if not captures:
        problems.append("blackbox: no captures frozen")
    for index, capture in enumerate(captures):
        if not capture.trigger:
            problems.append(f"blackbox[{index}]: no trigger named")
        if not capture.records:
            problems.append(f"blackbox[{index}]: an empty ring")


def check_overhead(artifact, problems):
    if artifact.benchmark != "telemetry_overhead":
        problems.append(f"benchmark name is {artifact.benchmark!r}")
    threshold, overhead = artifact.threshold_pct, artifact.overhead_pct
    if threshold <= 0:
        problems.append(f"threshold_pct {threshold!r} is not positive")
        return
    if overhead > threshold:
        problems.append(
            f"telemetry overhead {overhead:.2f}% exceeds the pinned "
            f"{threshold:.2f}% budget"
        )
    if not artifact.identical_outcome:
        problems.append("telemetry changed the sim outcome (must be inert)")
    for leg in ("off", "on"):
        if getattr(artifact, leg).best_s <= 0:
            problems.append(f"{leg}: no positive best time")


def main_blackbox(path):
    problems = []
    captures = read_record(
        path, List[Capture], "blackbox", problems, lines=True
    )
    if captures is not None:
        check_blackbox(captures, problems)
    if report_problems(problems):
        return 1
    print(f"blackbox: {len(captures)} capture(s) with intact rings")
    print("all telemetry checks passed")
    return 0


def main_overhead(path):
    problems = []
    artifact = read_record(path, OverheadArtifact, "overhead", problems)
    if artifact is not None:
        check_overhead(artifact, problems)
    if report_problems(problems):
        return 1
    print(
        f"overhead: telemetry costs {artifact.overhead_pct:.2f}% "
        f"(budget {artifact.threshold_pct:.2f}%)"
    )
    print("all telemetry checks passed")
    return 0


def main_payload(path, fleet_path):
    problems = []
    payload = read_record(path, TelemetryPayload, "payload", problems)
    fleet_artifact = None
    if fleet_path is not None:
        fleet_artifact = read_record(fleet_path, FleetResult, "fleet", problems)
    if payload is not None:
        check_payload(payload, fleet_artifact, problems)
    if report_problems(problems):
        return 1
    fleet = payload.snapshot.fleet
    print(
        f"telemetry: {fleet.groups} groups, {fleet.delivered} "
        f"deliveries over {fleet.windows_rolled} windows"
    )
    if fleet_artifact is not None:
        print(
            f"telemetry: aggregate agrees with the fleet artifact "
            f"({fleet_artifact.delivered} delivered) within "
            f"{AGREEMENT:.0%}"
        )
    print(
        f"telemetry: {len(fleet.slo.targets)} SLO target(s), "
        f"{fleet.slo.burn_minutes:.2f} burn minutes, "
        f"{fleet.captures} capture(s)"
    )
    print("all telemetry checks passed")
    return 0


def main(argv):
    try:
        if len(argv) == 3 and argv[1] == "--blackbox":
            return main_blackbox(argv[2])
        if len(argv) == 3 and argv[1] == "--overhead":
            return main_overhead(argv[2])
        if len(argv) not in (2, 3):
            return usage(__doc__)
        return main_payload(argv[1], argv[2] if len(argv) == 3 else None)
    except ArtifactError as exc:
        print(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
