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
  per-group views of the declared types; then Prometheus exposition
  text carrying the core series;
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
--blackbox``): at least one capture, every capture header followed by
exactly its declared record lines, records carry timestamps and names.

Overhead mode checks the telemetry-overhead benchmark artifact
(``benchmarks/bench_obs.py``): identical sim outcomes with the plane
off and on, and median overhead within the pinned threshold.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import json
import sys
from collections import Counter
from pathlib import Path

_SCRIPTS = str(Path(__file__).resolve().parent)
if _SCRIPTS not in sys.path:
    sys.path.insert(0, _SCRIPTS)

from _lib import ArtifactError, load_artifact, report_problems, usage
from repro.errors import RecordError
from repro.fleet.runner import FleetResult
from repro.obs.telemetry.aggregate import MAX_ESCALATIONS
from repro.obs.telemetry.payload import TelemetryPayload
from repro.records import load

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
        time = record.get("time")
        if not isinstance(time, (int, float)):
            problems.append(f"{label}: decision carries no time")
        elif previous is not None and time < previous:
            problems.append(
                f"{label}: decided at {time}, before the record ahead of "
                f"it ({previous})"
            )
        else:
            previous = time
        snapshot = record.get("snapshot")
        if not isinstance(snapshot, dict):
            problems.append(f"{label}: decision carries no snapshot")
            continue
        if "window_partial" not in snapshot:
            problems.append(f"{label}: snapshot lacks the partial window")
        if record.get("signal") is None:
            problems.append(f"{label}: decision carries no signal value")


def check_payload(data, fleet_data, problems):
    """Check a payload's JSON, and the fleet artifact's JSON when given;
    returns the payload's :class:`TelemetryPayload`, or None when it
    does not even read."""
    try:
        payload = load(TelemetryPayload, data, "payload")
    except RecordError as exc:
        problems.append(str(exc))
        return None
    check_snapshot(payload.snapshot, problems)
    if payload.prometheus is None:
        problems.append("prometheus exposition text missing")
    else:
        for series in PROM_SERIES:
            if f"# TYPE {series} " not in payload.prometheus:
                problems.append(f"prometheus: series {series} missing")
    check_escalations(payload, problems)

    if fleet_data is None:
        return payload
    try:
        fleet_artifact = load(FleetResult, fleet_data, "fleet")
    except RecordError as exc:
        problems.append(str(exc))
        return payload
    truth = fleet_artifact.delivered
    observed = payload.snapshot.fleet.delivered
    if abs(observed - truth) > AGREEMENT * max(1.0, truth):
        problems.append(
            f"telemetry saw {observed} deliveries, the fleet artifact "
            f"recorded {truth} (>{AGREEMENT:.0%} drift)"
        )
    check_one_escalation_per_switch(payload, fleet_artifact, problems)
    return payload


def check_one_escalation_per_switch(payload, fleet_artifact, problems):
    escalations = payload.escalations
    if escalations is None:
        problems.append("cannot match escalations to the fleet's per_group")
        return
    escalated = Counter(record.get("group_id") for record in escalations)
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


def check_blackbox(path, problems):
    try:
        with open(path) as handle:
            lines = [json.loads(line) for line in handle if line.strip()]
    except (OSError, json.JSONDecodeError) as exc:
        raise ArtifactError(f"cannot load {path!r}: {exc}") from exc
    if not lines:
        problems.append("blackbox: no lines at all")
        return 0
    captures = 0
    index = 0
    while index < len(lines):
        header = lines[index]
        if not isinstance(header, dict) or header.get("type") != "capture":
            problems.append(f"line {index + 1}: expected a capture header")
            return captures
        captures += 1
        declared = header.get("records")
        if not isinstance(declared, int) or declared < 1:
            problems.append(
                f"capture {captures}: declares {declared!r} records"
            )
            return captures
        if not header.get("trigger"):
            problems.append(f"capture {captures}: no trigger named")
        records = lines[index + 1 : index + 1 + declared]
        if len(records) != declared:
            problems.append(
                f"capture {captures}: {len(records)} record lines for "
                f"{declared} declared"
            )
            return captures
        for offset, record in enumerate(records):
            label = f"capture {captures} record {offset + 1}"
            if not isinstance(record, dict):
                problems.append(f"{label}: not a record line")
                continue
            if record.get("type") != "record":
                problems.append(f"{label}: not a record line")
            if "t" not in record or "name" not in record:
                problems.append(f"{label}: missing timestamp or name")
            if record.get("group") != header.get("group"):
                problems.append(f"{label}: group differs from its header")
        index += 1 + declared
    if captures == 0:
        problems.append("blackbox: no captures frozen")
    return captures


def check_overhead(artifact, problems):
    if artifact.get("benchmark") != "telemetry_overhead":
        problems.append(f"benchmark name is {artifact.get('benchmark')!r}")
    if not isinstance(artifact.get("schema_version"), int):
        problems.append("schema_version missing or non-integer")
    threshold = artifact.get("threshold_pct")
    overhead = artifact.get("overhead_pct")
    if not isinstance(threshold, (int, float)) or threshold <= 0:
        problems.append(f"threshold_pct {threshold!r} is not positive")
        return
    if not isinstance(overhead, (int, float)):
        problems.append(f"overhead_pct {overhead!r} is not a number")
        return
    if overhead > threshold:
        problems.append(
            f"telemetry overhead {overhead:.2f}% exceeds the pinned "
            f"{threshold:.2f}% budget"
        )
    if artifact.get("identical_outcome") is not True:
        problems.append("telemetry changed the sim outcome (must be inert)")
    for leg in ("off", "on"):
        run = artifact.get(leg)
        if not isinstance(run, dict) or run.get("best_s", 0) <= 0:
            problems.append(f"{leg}: missing timing leg")


def main(argv):
    if len(argv) == 3 and argv[1] == "--blackbox":
        problems = []
        try:
            captures = check_blackbox(argv[2], problems)
        except ArtifactError as exc:
            print(exc)
            return 1
        if report_problems(problems):
            return 1
        print(f"blackbox: {captures} capture(s) with intact record runs")
        print("all telemetry checks passed")
        return 0

    if len(argv) == 3 and argv[1] == "--overhead":
        try:
            artifact = load_artifact(argv[2])
        except ArtifactError as exc:
            print(exc)
            return 1
        problems = []
        check_overhead(artifact, problems)
        if report_problems(problems):
            return 1
        print(
            f"overhead: telemetry costs {artifact['overhead_pct']:.2f}% "
            f"(budget {artifact['threshold_pct']:.2f}%)"
        )
        print("all telemetry checks passed")
        return 0

    if len(argv) not in (2, 3):
        return usage(__doc__)
    try:
        payload = load_artifact(argv[1])
        fleet_artifact = load_artifact(argv[2]) if len(argv) == 3 else None
    except ArtifactError as exc:
        print(exc)
        return 1
    problems = []
    payload = check_payload(payload, fleet_artifact, problems)
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
            f"({fleet_artifact['delivered']} delivered) within "
            f"{AGREEMENT:.0%}"
        )
    print(
        f"telemetry: {len(fleet.slo.targets)} SLO target(s), "
        f"{fleet.slo.burn_minutes:.2f} burn minutes, "
        f"{fleet.captures} capture(s)"
    )
    print("all telemetry checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
