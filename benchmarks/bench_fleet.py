#!/usr/bin/env python
"""Fleet benchmark: thousands of switching groups through one process.

Where ``bench_scale.py`` grows one group, this sweep grows the *number
of groups*: a sharded :class:`~repro.fleet.manager.GroupManager`
multiplexes every group over one set of per-node ports (one network
attach per node, group-id-tagged wire frames), pool-balances the
sequencers, and runs a :class:`~repro.core.oracle.FleetOracle` that
escalates hot groups — and only hot groups — from sequencer to token
ring mid-run.

Two runs feed one artifact (``benchmarks/results/fleet.json``):

* ``sim`` — the headline sweep: 1000 groups / 100k simulated clients on
  the deterministic virtual-time runtime (client populations folded
  into compound-rate Poisson senders by superposition);
* ``asyncio`` — a 32-group smoke over real localhost UDP, proving the
  group-id wire format against the kernel's network stack.

Each run's record is its :class:`~repro.fleet.FleetResult` plus the
:class:`BenchRun` fields, read back closed by :func:`load_run`.
``scripts/check_fleet.py`` validates the artifact's schema and verdict
bars in CI.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_fleet.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet.py --no-asyncio
    PYTHONPATH=src python benchmarks/bench_fleet.py --out my.json

Exit code 0 when every run's verdicts hold (all hot groups switched,
no cold group switched, no stray packets), 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import RecordError
from repro.fleet import FleetConfig, FleetResult, run_fleet, run_fleet_sharded
from repro.records import dump, load

SCHEMA_VERSION = 1


def full_sim_config() -> FleetConfig:
    """The headline sweep: every default — 1000 groups, 100k clients."""
    return FleetConfig()


def quick_sim_config() -> FleetConfig:
    """The CI smoke variant: same shape and margins, 1/16th the size."""
    return FleetConfig(
        groups=64,
        clients=6_400,
        nodes=16,
        duration=6.0,
    )


def asyncio_smoke_config(base_port: int) -> FleetConfig:
    """32 groups over real localhost UDP.

    Wall-clock Poisson rates over short poll windows are noisy, so the
    escalation threshold sits far above the cold delivered-rate (15/s
    vs. 100) — a latching oracle must never fire on variance alone.
    """
    return FleetConfig(
        runtime="asyncio",
        groups=32,
        members=3,
        nodes=8,
        clients=320,
        client_rate=0.5,
        hot_fraction=0.125,
        hot_multiplier=40.0,
        duration=3.0,
        warmup=0.5,
        settle=2.0,
        oracle_poll=0.5,
        high_threshold=100.0,
        base_port=base_port,
    )


class PassKey:
    """A record whose verdict field ``passed`` is written under the JSON
    key ``pass``, a Python keyword."""

    def _json_out(self, data: Dict[str, Any]) -> Dict[str, Any]:
        data["pass"] = data.pop("passed")
        return data

    @classmethod
    def _json_in(cls, data: Dict[str, Any], where: str) -> Dict[str, Any]:
        if "passed" in data:
            raise RecordError(f"{where}: unknown keys ['passed']")
        return {("passed" if k == "pass" else k): v for k, v in data.items()}


@dataclass
class FleetArtifact(PassKey):
    """``fleet.json``: the run records by runtime name (``sim``, and
    ``asyncio`` unless skipped), each read by :func:`load_run`, and the
    verdict over all of them."""

    benchmark: str
    schema_version: int
    profile: str
    runs: Dict[str, Dict[str, Any]]
    passed: bool


@dataclass
class BenchRun:
    """What a run record adds to its :class:`FleetResult`: the verdict,
    the wall time and the config.  They vary with the execution, never
    with the outcome."""

    ok: bool
    wall_s: float
    config: FleetConfig


def load_run(run: Any, where: str) -> Tuple[FleetResult, BenchRun]:
    """A run record read closed: each key is a :class:`BenchRun` field
    or a :class:`FleetResult` field.  Raises ``RecordError``."""
    if not isinstance(run, dict):
        raise RecordError(f"{where}: missing or not an object")
    names = {field.name for field in fields(BenchRun)}
    bench = {key: value for key, value in run.items() if key in names}
    rest = {key: value for key, value in run.items() if key not in names}
    return load(FleetResult, rest, where), load(BenchRun, bench, where)


def outcome_projection(result: FleetResult) -> str:
    """A run's outcome, canonicalised: its result without the shard
    bookkeeping, the only part that varies with the partition."""
    return json.dumps(
        dump(replace(result, shards=0, shard_stats=[])), sort_keys=True,
        allow_nan=False,
    )


def run_one(label: str, config: FleetConfig) -> Dict[str, Any]:
    """Drive one sweep; returns its artifact record (result + wall time)."""
    sharded = f", {config.shards} shards" if config.shards else ""
    print(
        f"[{label}] {config.groups} groups x {config.members} members "
        f"over {config.nodes} nodes, {config.clients} clients "
        f"({config.runtime} runtime{sharded})..."
    )
    start = time.perf_counter()
    result = (
        run_fleet_sharded(config) if config.shards else run_fleet(config)
    )
    wall = time.perf_counter() - start
    print(result.summary())
    print(f"  wall: {wall:.1f}s\n")
    return {
        **result.as_dict(),
        **dump(BenchRun(result.ok, round(wall, 3), config)),
    }


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 64-group sim sweep instead of the full 1000",
    )
    parser.add_argument(
        "--no-asyncio",
        action="store_true",
        help="skip the UDP smoke (e.g. sandboxes without loopback sockets)",
    )
    parser.add_argument(
        "--base-port",
        type=int,
        default=47310,
        help="first UDP port for the asyncio smoke",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the sim sweep across this many worker processes "
        "(0 = in-process; outcomes are identical either way)",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/fleet.json",
        metavar="FILE",
        help="artifact path (default: %(default)s)",
    )
    args = parser.parse_args(argv)

    profile = "quick" if args.quick else "full"
    sim_config = quick_sim_config() if args.quick else full_sim_config()
    if args.shards:
        # replace() re-runs validation (shards vs groups, sim-only).
        sim_config = replace(sim_config, shards=args.shards)

    runs: Dict[str, Dict[str, Any]] = {}
    runs["sim"] = run_one("sim", sim_config)
    if not args.no_asyncio:
        runs["asyncio"] = run_one(
            "asyncio", asyncio_smoke_config(args.base_port)
        )

    passed = all(run["ok"] for run in runs.values())
    artifact = FleetArtifact(
        "bench_fleet", SCHEMA_VERSION, profile, runs, passed
    )
    with open(args.out, "w") as handle:
        json.dump(
            dump(artifact), handle, indent=2, sort_keys=True, allow_nan=False
        )
        handle.write("\n")
    print(f"artifact: {args.out}")

    if not passed:
        failing = [name for name, run in runs.items() if not run["ok"]]
        print(f"FAILED runs: {failing}")
        return 1
    print("all fleet verdicts hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
