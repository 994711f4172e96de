#!/usr/bin/env python
"""Validate the fleet-benchmark artifacts.

Usage::

    python scripts/check_fleet.py benchmarks/results/fleet.json
    python scripts/check_fleet.py benchmarks/results/fleet_sharded.json \\
        [benchmarks/results/fleet.json]

Dispatches on the artifact's ``benchmark`` name and reads the artifact
closed as that bench's record (``ShardedArtifact`` or
``FleetArtifact``).  For the shard-scaling artifact
(``benchmarks/bench_fleet_sharded.py``) it additionally checks:

* every ``shardsN`` run meets the same contract as the in-process sim
  run, plus per-shard stats (positive cpu/wall per worker, worker count
  matching the run's shard count);
* **partition parity** — every shard count's outcome projection (the
  run record minus execution-dependent keys) is byte-identical, and,
  when the in-process baseline artifact is given, identical to its
  ``sim`` run too;
* **scaling** — the recorded speedup at the top shard count (critical-
  path cpu-seconds, ``delivered / max(shard cpu_s)``) meets the
  profile's floor: >= 2.5x at 4 shards for the full 1000-group profile.

For the plain fleet artifact it checks the acceptance contract for
``benchmarks/bench_fleet.py``:

* the benchmark is ``bench_fleet``, the profile ``full`` or ``quick``,
  the runs are named by runtime, and the top-level verdict passes;
* the ``sim`` run is present and meets the profile's scale floor —
  ``full`` artifacts must cover >= 1000 groups and >= 100000 simulated
  clients (the tentpole claim), ``quick`` ones >= 16 groups;
* an ``asyncio`` run, when present, covers >= 32 groups (the UDP smoke
  floor);
* every run record reads closed as a ``FleetResult`` plus the bench's
  ``BenchRun`` fields (``bench_fleet.load_run``);
* every run's oracle verdicts hold: all hot groups escalated to the
  token ring, zero cold groups switched, zero stray packets, no
  recorded violations;
* every run reports positive aggregate throughput and one report per
  group, each with at least two distinct members, its pooled sequencer
  among them, deliveries, a positive per-group p99 latency, and a final
  protocol consistent with its hot/cold role.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE), str(_HERE.parent / "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from typing import Any, Dict

from _lib import ArtifactError, read_record, report_problems, usage
from bench_fleet import FleetArtifact, load_run, outcome_projection
from bench_fleet_sharded import ShardedArtifact
from repro.errors import RecordError
from repro.records import load

PROTOCOLS = {"sequencer", "tokenring"}

#: Scale floors per (profile, run name): the artifact must prove the
#: tentpole claim at full size, and stay honest at smoke size.
GROUP_FLOORS = {
    ("full", "sim"): 1000,
    ("quick", "sim"): 16,
    ("full", "asyncio"): 32,
    ("quick", "asyncio"): 32,
}
FULL_SIM_CLIENT_FLOOR = 100_000

#: Sharded artifact: speedup floors at the sweep's top shard count.
SHARDED_SPEEDUP_FLOORS = {"full": 2.5, "quick": 1.2}
#: Full artifacts must sweep through at least this many shards.
SHARDED_MAX_SHARDS_FLOOR = {"full": 4, "quick": 2}


def check_group(run_name, report, problems):
    label = f"{run_name}.per_group[{report.group_id}]"
    if report.final_protocol not in PROTOCOLS:
        problems.append(
            f"{label}: unknown final protocol {report.final_protocol!r}"
        )
    if report.switched != (report.final_protocol == "tokenring"):
        problems.append(f"{label}: switched flag contradicts final protocol")
    if report.hot != report.switched:
        role = "hot" if report.hot else "cold"
        problems.append(
            f"{label}: {role} group ended on {report.final_protocol!r}"
        )
    if report.delivered <= 0:
        problems.append(f"{label}: no deliveries recorded")
    p99 = report.p99_ms
    if p99 is None or p99 <= 0:
        problems.append(f"{label}: p99_ms {p99!r} is not a positive latency")
    if len(set(report.members)) < 2:
        problems.append(f"{label}: fewer than two distinct members")
    if report.sequencer not in report.members:
        problems.append(
            f"{label}: sequencer {report.sequencer} is not a member"
        )


def check_run(name, run, profile, problems, runtime=None):
    """Check one run record; returns its ``FleetResult``, or None when
    the record does not even read."""
    runtime = runtime or name
    try:
        result, bench = load_run(run, name)
    except RecordError as exc:
        problems.append(str(exc))
        return None
    if result.runtime != runtime:
        problems.append(f"{name}: run records runtime {result.runtime!r}")
    floor = GROUP_FLOORS.get((profile, runtime))
    if floor is not None and result.groups < floor:
        problems.append(
            f"{name}: {result.groups} groups below the {profile}-profile "
            f"floor of {floor}"
        )
    if profile == "full" and runtime == "sim":
        if result.clients < FULL_SIM_CLIENT_FLOOR:
            problems.append(
                f"{name}: {result.clients} clients below the full-profile "
                f"floor of {FULL_SIM_CLIENT_FLOOR}"
            )
    if not bench.ok:
        problems.append(f"{name}: run verdict did not pass")
    if result.violations:
        problems.append(f"{name}: violations recorded {result.violations}")
    if result.msgs_per_s <= 0 or result.delivered <= 0:
        problems.append(f"{name}: no delivered throughput")
    if result.hot_switched != result.hot_groups:
        problems.append(
            f"{name}: only {result.hot_switched}/{result.hot_groups} hot "
            f"groups escalated"
        )
    if result.cold_switched != 0:
        problems.append(f"{name}: {result.cold_switched} cold groups switched")
    if result.stray_packets != 0:
        problems.append(f"{name}: {result.stray_packets} stray packets")
    if len(result.per_group) != result.groups:
        problems.append(
            f"{name}: per_group has {len(result.per_group)} reports for "
            f"{result.groups} groups"
        )
        return result
    for report in result.per_group:
        check_group(name, report, problems)
    return result


def check_sharded_stats(name, result, problems):
    shards, stats = result.shards, result.shard_stats
    if shards < 1:
        problems.append(f"{name}: shards {shards!r} is not a count")
        return
    if len(stats) != shards:
        problems.append(
            f"{name}: shard_stats has {len(stats)} entries for {shards} "
            f"shards"
        )
        return
    if sum(s.groups for s in stats) != result.groups:
        problems.append(f"{name}: shard group counts do not sum to the fleet")
    if sum(s.delivered for s in stats) != result.delivered:
        problems.append(f"{name}: shard delivered does not sum to the fleet")
    for stat in stats:
        if not (stat.cpu_s > 0 and stat.wall_s > 0):
            problems.append(
                f"{name}: shard {stat.shard} reports non-positive cpu/wall"
            )


def check_baseline(baseline_path, profile, projection, problems):
    """The in-process artifact's ``sim`` outcome must be the sharded
    runs' common outcome."""
    try:
        baseline = read_record(
            baseline_path, FleetArtifact, "baseline", problems
        )
    except ArtifactError as exc:
        problems.append(f"baseline: {exc}")
        return
    if baseline is None:
        return
    if baseline.profile != profile:
        problems.append(
            f"baseline profile {baseline.profile!r} does not match "
            f"{profile!r}"
        )
        return
    try:
        sim, __ = load_run(baseline.runs.get("sim"), "baseline sim")
    except RecordError as exc:
        problems.append(f"baseline: {exc}")
        return
    if outcome_projection(sim) != projection:
        problems.append(
            "shards=1 outcomes differ from the in-process baseline"
        )


def check_sharded(artifact, baseline_path, problems):
    profile, counts, runs = artifact.profile, artifact.shard_counts, artifact.runs
    if profile not in ("full", "quick"):
        problems.append(f"unknown profile {profile!r}")
        return {}
    if not counts:
        problems.append("shard_counts empty")
        return {}
    floor = SHARDED_MAX_SHARDS_FLOOR[profile]
    if max(counts) < floor:
        problems.append(
            f"sweep tops out at {max(counts)} shards; the {profile} "
            f"profile must reach {floor}"
        )
    names = [f"shards{shards}" for shards in counts]
    for name in sorted(set(runs) - set(names)):
        problems.append(f"runs: {name!r} is not in shard_counts")
    results = {}
    for shards, name in zip(counts, names):
        if name not in runs:
            problems.append(f"runs: missing {name!r}")
            continue
        result = check_run(name, runs[name], profile, problems, runtime="sim")
        if result is None:
            continue
        results[name] = result
        check_sharded_stats(name, result, problems)
        if result.shards != shards:
            problems.append(f"{name}: run records shards={result.shards!r}")

    # Partition parity: recomputed here, never trusted from the file.
    projections = {
        name: outcome_projection(result) for name, result in results.items()
    }
    if len(set(projections.values())) > 1:
        problems.append(
            "outcomes differ across shard counts (partition parity broken)"
        )
    if baseline_path is not None and projections:
        check_baseline(
            baseline_path, profile, next(iter(projections.values())), problems
        )

    by_shards = {point.shards: point for point in artifact.scaling.points}
    base = by_shards.get(min(counts))
    top = by_shards.get(max(counts))
    if base is None or top is None:
        problems.append("scaling: points missing the sweep endpoints")
    else:
        # Recompute the speedup from the recorded critical paths.
        speedup = base.critical_path_cpu_s / top.critical_path_cpu_s
        speedup_floor = SHARDED_SPEEDUP_FLOORS[profile]
        if speedup < speedup_floor:
            problems.append(
                f"scaling: {speedup:.2f}x at {max(counts)} shards is "
                f"below the {profile}-profile floor of {speedup_floor}x"
            )
    if not artifact.passed:
        problems.append("top-level verdict did not pass")
    return results


def main_sharded(artifact, baseline_path):
    problems = []
    results = check_sharded(artifact, baseline_path, problems)
    if report_problems(problems):
        return 1
    for shards in artifact.shard_counts:
        result = results[f"shards{shards}"]
        cpu = max(s.cpu_s for s in result.shard_stats)
        print(
            f"sharded: {shards} shards -> critical path {cpu:.2f}s cpu, "
            f"{result.delivered / cpu:.0f} msgs per cpu-s"
        )
    scaling = artifact.scaling
    print(
        f"sharded: speedup {scaling.speedup_at_max:.2f}x at "
        f"{max(artifact.shard_counts)} shards (floor {scaling.floor}x)"
    )
    print("all sharded-fleet checks passed")
    return 0


def main(argv):
    if len(argv) not in (2, 3):
        return usage(__doc__)
    problems = []
    try:
        image = read_record(argv[1], Dict[str, Any], "artifact", problems)
    except ArtifactError as exc:
        print(exc)
        return 1
    if image is None:
        return report_problems(problems)
    sharded = image.get("benchmark") == "bench_fleet_sharded"
    try:
        artifact = load(
            ShardedArtifact if sharded else FleetArtifact, image, "artifact"
        )
    except RecordError as exc:
        return report_problems([str(exc)])
    if sharded:
        return main_sharded(artifact, argv[2] if len(argv) == 3 else None)
    if len(argv) == 3:
        return usage(__doc__)
    if artifact.benchmark != "bench_fleet":
        problems.append(f"benchmark name is {artifact.benchmark!r}")
    if artifact.profile not in ("full", "quick"):
        problems.append(f"unknown profile {artifact.profile!r}")
    runs = artifact.runs
    if "sim" not in runs:
        problems.append("runs: missing the required 'sim' run")
    results = {}
    for name in sorted(runs):
        if name not in ("sim", "asyncio"):
            problems.append(f"runs: unknown runtime {name!r}")
            continue
        results[name] = check_run(name, runs[name], artifact.profile, problems)
    if not artifact.passed:
        problems.append("top-level verdict did not pass")

    if report_problems(problems):
        return 1
    for name, result in results.items():
        print(
            f"fleet:   {name} {result.groups} groups / {result.clients} "
            f"clients -> {result.msgs_per_s:.0f} msgs/s aggregate"
        )
        print(
            f"fleet:   {name} oracle {result.hot_switched}/"
            f"{result.hot_groups} hot switched, {result.cold_switched} cold"
        )
    print("all fleet-benchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
