#!/usr/bin/env python
"""Shard-scaling sweep: the fleet benchmark across worker processes.

Runs the pinned fleet profile at several shard counts through
:func:`repro.fleet.sharding.run_fleet_sharded` and writes one scaling
artifact (``benchmarks/results/fleet_sharded.json``).  Two claims, both
validated by ``scripts/check_fleet.py`` in CI:

* **parity** — sharding changes *where* groups run, never *what* they
  do: every shard count produces byte-identical per-group outcomes, and
  ``--shards 1`` reproduces the in-process artifact
  (``benchmarks/results/fleet.json``) exactly.
* **scaling** — the run's critical path shrinks near-linearly with the
  shard count.  The honest metric on a machine with fewer cores than
  shards is **per-shard CPU seconds**: each worker measures its own
  ``time.process_time()``, and the sweep scores
  ``delivered / max(shard_cpu_s)`` — the aggregate throughput the shard
  layout sustains once one core per shard exists.  Elapsed wall time is
  recorded alongside so a many-core machine can confirm the two
  converge; on this repo's single-core CI they cannot, and the artifact
  says so (``cores``).

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_sharded.py          # 1/2/4
    PYTHONPATH=src python benchmarks/bench_fleet_sharded.py --quick  # CI: 1/2
    PYTHONPATH=src python benchmarks/bench_fleet_sharded.py --shards 1,2,4,8

Exit code 0 when every run's verdicts hold, outcomes agree across all
shard counts (and with the baseline artifact when present), and the
speedup floor is met.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_fleet  # noqa: E402
from bench_fleet import (  # noqa: E402
    FleetArtifact,
    PassKey,
    load_run,
    outcome_projection,
)
from repro.errors import RecordError  # noqa: E402
from repro.records import dump, load  # noqa: E402

SCHEMA_VERSION = 1

#: Speedup floor at the sweep's top shard count, per profile.  Full:
#: the tentpole claim (>= 2.5x at 4 shards on the 1000-group profile).
#: Quick: the 64-group smoke's hot groups hash 2:1 across two shards,
#: so its ideal speedup is ~1.6x; 1.2x proves scaling without flaking.
SPEEDUP_FLOORS = {"full": 2.5, "quick": 1.2}


@dataclass
class ScalingPoint:
    """One shard count's cost: the critical path (the busiest shard's
    CPU seconds), the total, and the speedup over the first count."""

    shards: int
    critical_path_cpu_s: float
    total_cpu_s: float
    wall_s: float
    delivered: int
    msgs_per_cpu_s: float
    speedup: float


@dataclass
class Scaling(PassKey):
    """The scaling verdict: the speedup at the top shard count against
    the profile's floor."""

    metric: str
    points: List[ScalingPoint]
    speedup_at_max: float
    floor: float
    passed: bool


@dataclass
class ShardedArtifact(PassKey):
    """``fleet_sharded.json``: one run record per shard count (named
    ``shards{N}``, read by :func:`load_run`), the parity notes, the
    scaling verdict and the verdict over all of them."""

    benchmark: str
    schema_version: int
    profile: str
    cores: Optional[int]
    shard_counts: List[int]
    runs: Dict[str, Dict[str, Any]]
    parity: Dict[str, Any]
    scaling: Scaling
    passed: bool


def critical_path_cpu_s(run: Dict[str, Any]) -> float:
    return max(stat["cpu_s"] for stat in run["shard_stats"])


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: the 64-group profile at 1 and 2 shards",
    )
    parser.add_argument(
        "--shards",
        default=None,
        help="comma-separated shard counts (default 1,2,4; quick: 1,2)",
    )
    parser.add_argument(
        "--baseline",
        default="benchmarks/results/fleet.json",
        metavar="FILE",
        help="in-process fleet artifact the shards=1 run must reproduce "
        "(skipped with a note when absent or profile-mismatched)",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/fleet_sharded.json",
        metavar="FILE",
        help="artifact path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    profile = "quick" if args.quick else "full"
    config = (
        bench_fleet.quick_sim_config()
        if args.quick
        else bench_fleet.full_sim_config()
    )
    if args.shards:
        shard_counts = [int(s) for s in args.shards.split(",")]
    else:
        shard_counts = [1, 2] if args.quick else [1, 2, 4]

    runs: Dict[str, Dict[str, Any]] = {}
    for shards in shard_counts:
        name = f"shards{shards}"
        runs[name] = bench_fleet.run_one(
            name, replace(config, shards=shards)
        )

    # ------------------------------------------------------------------
    # Parity: outcomes must not depend on the partition.
    # ------------------------------------------------------------------
    projections = {
        name: outcome_projection(load_run(run, name)[0])
        for name, run in runs.items()
    }
    reference = projections[f"shards{shard_counts[0]}"]
    self_parity = all(p == reference for p in projections.values())

    baseline_parity: Optional[bool] = None
    baseline_note = None
    try:
        with open(args.baseline) as handle:
            baseline = load(FleetArtifact, json.load(handle), "baseline")
        sim, __ = load_run(baseline.runs.get("sim"), "baseline sim")
    except (OSError, ValueError, RecordError):
        baseline = None
        baseline_note = f"baseline {args.baseline!r} not readable; skipped"
    if baseline is not None:
        if baseline.profile != profile:
            baseline_note = (
                f"baseline profile {baseline.profile!r} != {profile!r}; "
                f"skipped"
            )
        else:
            baseline_parity = outcome_projection(sim) == reference

    # ------------------------------------------------------------------
    # Scaling: critical-path CPU seconds per shard count.
    # ------------------------------------------------------------------
    base_cpu = critical_path_cpu_s(runs[f"shards{shard_counts[0]}"])
    points: List[ScalingPoint] = []
    for shards in shard_counts:
        run = runs[f"shards{shards}"]
        cpu = critical_path_cpu_s(run)
        points.append(
            ScalingPoint(
                shards=shards,
                critical_path_cpu_s=round(cpu, 3),
                total_cpu_s=round(
                    sum(s["cpu_s"] for s in run["shard_stats"]), 3
                ),
                wall_s=run["wall_s"],
                delivered=run["delivered"],
                msgs_per_cpu_s=round(run["delivered"] / cpu, 1),
                speedup=round(base_cpu / cpu, 3),
            )
        )
    floor = SPEEDUP_FLOORS[profile]
    speedup_at_max = points[-1].speedup
    scaling_ok = speedup_at_max >= floor

    verdicts_ok = all(run["ok"] for run in runs.values())
    passed = (
        verdicts_ok
        and self_parity
        and baseline_parity is not False
        and scaling_ok
    )
    artifact = ShardedArtifact(
        benchmark="bench_fleet_sharded",
        schema_version=SCHEMA_VERSION,
        profile=profile,
        cores=os.cpu_count(),
        shard_counts=shard_counts,
        runs=runs,
        parity={
            "self": self_parity,
            "baseline": baseline_parity,
            "baseline_note": baseline_note,
        },
        scaling=Scaling(
            "delivered / max(shard cpu_s)", points, speedup_at_max, floor,
            scaling_ok,
        ),
        passed=passed,
    )
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as handle:
        json.dump(
            dump(artifact), handle, indent=2, sort_keys=True, allow_nan=False
        )
        handle.write("\n")
    print(f"artifact: {args.out}")

    for point in points:
        print(
            f"  shards={point.shards}: critical path "
            f"{point.critical_path_cpu_s}s cpu -> "
            f"{point.msgs_per_cpu_s:.0f} msgs per cpu-s "
            f"(speedup {point.speedup:.2f}x, wall {point.wall_s}s)"
        )
    print(
        f"parity: self={'ok' if self_parity else 'MISMATCH'} "
        f"baseline={baseline_parity if baseline_parity is not None else baseline_note}"
    )
    print(
        f"scaling: {speedup_at_max:.2f}x at {shard_counts[-1]} shards "
        f"(floor {floor}x) -> {'ok' if scaling_ok else 'FAIL'}"
    )
    if not passed:
        print("FAILED")
        return 1
    print("all sharded-fleet checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
