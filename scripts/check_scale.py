#!/usr/bin/env python
"""Validate the scaling-benchmark artifact bench_scale.py produces.

Usage::

    python scripts/check_scale.py benchmarks/results/scale.json

Checks the acceptance contract for ``benchmarks/bench_scale.py``
(either the full sweep or a ``--quick`` artifact):

* top level carries the ``bench_scale`` schema: benchmark name, schema
  version, config, a non-empty ``points`` array, ``switch_runs``, and an
  ``acceptance`` verdict;
* every sweep point has the full measurement record (protocol, group
  size, batch setting, offered/delivered throughput, frame and
  utilization figures) with sane value ranges;
* the sweep covers both total-order protocols, at least two group
  sizes, and both an unbatched and a batched setting;
* every switch run completed with the whole group on the target
  protocol and members agreeing on the delivery count;
* the acceptance verdict passes: batched sequencer throughput >= 2x
  unbatched at a group of >= 50.

Every check reads simulated-time results, which are deterministic for
a given seed: nothing here judges a wall-clock ratio, so the verdict
does not depend on how loaded the machine that ran the sweep was.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import sys
from pathlib import Path

_SCRIPTS = str(Path(__file__).resolve().parent)
if _SCRIPTS not in sys.path:
    sys.path.insert(0, _SCRIPTS)

from _lib import ArtifactError, load_artifact, report_problems, usage

POINT_KEYS = {
    "protocol",
    "group_size",
    "max_batch",
    "offered_msgs_per_s",
    "delivered_msgs_per_s",
    "mean_latency_ms",
    "p90_latency_ms",
    "latency_samples",
    "wire_frames",
    "medium_utilization",
    "rank0_cpu_utilization",
    "batching",
}
SWITCH_KEYS = {
    "group_size",
    "max_batch",
    "switch_completed",
    "switch_duration_ms",
    "all_on_target",
    "members_agree_on_delivery_count",
}
PROTOCOLS = {"sequencer", "tokenring"}


def check_points(points, problems):
    if not isinstance(points, list) or not points:
        problems.append("points: missing or empty")
        return
    for index, point in enumerate(points):
        missing = POINT_KEYS - set(point)
        if missing:
            problems.append(f"points[{index}]: missing keys {sorted(missing)}")
            continue
        if point["protocol"] not in PROTOCOLS:
            problems.append(
                f"points[{index}]: unknown protocol {point['protocol']!r}"
            )
        if point["delivered_msgs_per_s"] <= 0:
            problems.append(f"points[{index}]: no delivered throughput")
        if not 0.0 <= point["medium_utilization"] <= 1.0:
            problems.append(f"points[{index}]: medium_utilization out of range")
        if point["max_batch"] > 1:
            batching = point["batching"]
            if batching.get("batches", 0) <= 0:
                problems.append(
                    f"points[{index}]: batched point recorded no batches"
                )

    protocols = {p["protocol"] for p in points if "protocol" in p}
    if protocols != PROTOCOLS:
        problems.append(f"points: protocols covered {sorted(protocols)}, "
                        f"expected {sorted(PROTOCOLS)}")
    sizes = {p["group_size"] for p in points if "group_size" in p}
    if len(sizes) < 2:
        problems.append(f"points: only one group size swept ({sorted(sizes)})")
    batches = {p["max_batch"] for p in points if "max_batch" in p}
    if 1 not in batches or not any(b > 1 for b in batches):
        problems.append(
            f"points: need batch=1 and batch>1 settings, got {sorted(batches)}"
        )


def check_switch_runs(runs, problems):
    if not isinstance(runs, list) or not runs:
        problems.append("switch_runs: missing or empty")
        return
    for index, run in enumerate(runs):
        missing = SWITCH_KEYS - set(run)
        if missing:
            problems.append(
                f"switch_runs[{index}]: missing keys {sorted(missing)}"
            )
            continue
        for flag in (
            "switch_completed", "all_on_target",
            "members_agree_on_delivery_count",
        ):
            if run[flag] is not True:
                problems.append(f"switch_runs[{index}]: {flag} is {run[flag]}")
        if not run["switch_duration_ms"] or run["switch_duration_ms"] <= 0:
            problems.append(
                f"switch_runs[{index}]: no positive switch duration"
            )


def check_acceptance(verdict, problems):
    if not isinstance(verdict, dict):
        problems.append("acceptance: missing")
        return
    if verdict.get("group_size") is None:
        problems.append("acceptance: no eligible >=50 group in the sweep")
        return
    if verdict.get("group_size", 0) < 50:
        problems.append(
            f"acceptance: evaluated at group {verdict['group_size']}, "
            "criterion requires >= 50"
        )
    speedup = verdict.get("speedup")
    if not isinstance(speedup, (int, float)) or speedup < 2.0:
        problems.append(f"acceptance: speedup {speedup!r} below the 2x bar")
    if verdict.get("pass") is not True:
        problems.append("acceptance: verdict did not pass")


def main(argv):
    if len(argv) != 2:
        return usage(__doc__)
    try:
        artifact = load_artifact(argv[1])
    except ArtifactError as exc:
        print(exc)
        return 1
    problems = []
    if artifact.get("benchmark") != "bench_scale":
        problems.append(f"benchmark name is {artifact.get('benchmark')!r}")
    if not isinstance(artifact.get("schema_version"), int):
        problems.append("schema_version missing or non-integer")
    if not isinstance(artifact.get("config"), dict):
        problems.append("config section missing")
    check_points(artifact.get("points"), problems)
    check_switch_runs(artifact.get("switch_runs"), problems)
    check_acceptance(artifact.get("acceptance"), problems)

    if report_problems(problems):
        return 1
    verdict = artifact["acceptance"]
    print(f"scale:   {len(artifact['points'])} sweep points, "
          f"{len(artifact['switch_runs'])} switch runs ({argv[1]})")
    print(f"scale:   batched sequencer speedup {verdict['speedup']}x at "
          f"n={verdict['group_size']} (bar: 2x)")
    print("all scale-benchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
