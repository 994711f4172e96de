#!/usr/bin/env python
"""Scaling benchmark: group size x batch size, both total-order protocols.

Where Figure 2 sweeps *active senders* at a fixed group of 10, this sweep
holds the offered load fixed and grows the *group* (10 -> 100+), with and
without the batching layer, for both total-order protocols — plus a
mid-run sequencer->tokenring switch at scale.  It emits a JSON artifact
(`benchmarks/results/scale.json`) that is the first real entry in the
bench trajectory; `scripts/check_scale.py` validates its schema in CI.

What the sweep isolates
-----------------------

On the shared-Ethernet model every frame pays per-packet host CPU at the
sender, a wire slot, and per-packet CPU at *every* receiver; the
sequencer additionally pays receive + ordering + forward CPU per frame.
With small application payloads those per-frame costs dominate, so the
unbatched sequencer saturates near ``1 / (cpu_recv + order_cost +
cpu_send)`` aggregate messages per second no matter how large the group
is.  Batching coalesces B casts into one frame and amortizes every one
of those costs by ~B, which is what moves the crossover.

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full sweep
    PYTHONPATH=src python benchmarks/bench_scale.py --quick    # CI smoke
    PYTHONPATH=src python benchmarks/bench_scale.py --out my.json

Exit code 0 when the acceptance criterion holds — batched sequencer
throughput >= 2x unbatched at the largest swept group >= 50 — 1 when it
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.net.ethernet import EthernetNetwork, EthernetParams
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.runtime import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.seeding import scale_point_seed, scale_switch_seed
from repro.stack.batching import BatchingLayer
from repro.stack.layer import Layer
from repro.stack.membership import Group
from repro.stack.stack import build_group
from repro.workloads.generator import PoissonSender
from repro.workloads.latency import LatencyProbe

SCHEMA_VERSION = 1
PROTOCOLS = ("sequencer", "tokenring")

#: How long (simulated seconds) a switch run may settle past its workload.
SETTLE_LIMIT = 25.0


@dataclass
class ScaleConfig:
    """Parameters shared by every point of the sweep."""

    group_sizes: List[int] = field(default_factory=lambda: [10, 25, 50, 100])
    batch_sizes: List[int] = field(default_factory=lambda: [1, 4, 16])
    offered: float = 1200.0  # aggregate casts/s across the senders
    active_senders: int = 6
    body_size: int = 64
    duration: float = 2.0
    warmup: float = 0.6
    linger: float = 0.02
    order_cost: float = 0.9e-3
    switch_group_size: int = 50
    switch_offered: float = 600.0
    switch_at: float = 1.5
    switch_duration: float = 3.0
    seed: int = 42

    @classmethod
    def quick(cls) -> "ScaleConfig":
        """The CI smoke variant: two sizes, two batch settings, short runs."""
        return cls(
            group_sizes=[10, 50],
            batch_sizes=[1, 8],
            offered=1000.0,
            active_senders=5,
            duration=1.5,
            warmup=0.5,
            switch_group_size=50,
            switch_offered=400.0,
            switch_at=0.8,
            switch_duration=1.6,
        )


def _data_layers(protocol: str, max_batch: int, cfg: ScaleConfig) -> List[Layer]:
    """One member's top-to-bottom data stack for a sweep point."""
    layers: List[Layer] = []
    if max_batch > 1:
        layers.append(BatchingLayer(max_batch, cfg.linger))
    if protocol == "sequencer":
        layers.append(SequencerLayer(order_cost=cfg.order_cost))
    else:
        layers.append(TokenRingLayer())
    return layers


def _start_senders(runtime, stacks, group, cfg: ScaleConfig, offered: float):
    """Poisson senders on the *last* ranks, so rank 0 — the sequencer and
    ring coordinator — never pays send-side CPU for the workload."""
    members = list(group)
    active = min(cfg.active_senders, len(members))
    senders = []
    for rank in members[-active:]:
        sender = PoissonSender(
            runtime,
            stacks[rank],
            rate=offered / active,
            rng=stacks[rank].ctx.streams.stream(f"workload{rank}"),
            body_size=cfg.body_size,
        )
        sender.start()
        senders.append(sender)
    return senders


def _batching_totals(layers) -> Dict[str, float]:
    batches = sum(l.stats.get("batches") for l in layers)
    msgs = sum(l.stats.get("batched_msgs") for l in layers)
    return {
        "batches": batches,
        "batched_msgs": msgs,
        "mean_batch_size": (msgs / batches) if batches else 0.0,
    }


def run_point(protocol: str, group_size: int, max_batch: int,
              cfg: ScaleConfig) -> dict:
    """One sweep point: fixed offered load, measure delivered throughput."""
    runtime = Simulator()
    streams = RandomStreams(scale_point_seed(cfg.seed, group_size, max_batch))
    network = EthernetNetwork(runtime, group_size, EthernetParams(), rng=streams)
    group = Group.of_size(group_size)
    stacks = build_group(
        runtime,
        network,
        group,
        lambda rank: _data_layers(protocol, max_batch, cfg),
        streams=streams,
    )

    window_counts = {r: 0 for r in group}

    def count(rank: int):
        def on_deliver(msg) -> None:
            if runtime.now >= cfg.warmup:
                window_counts[rank] += 1

        return on_deliver

    for rank, stack in stacks.items():
        stack.on_deliver(count(rank))
    probe = LatencyProbe(runtime, warmup=cfg.warmup)
    probe.attach_all(stacks)
    _start_senders(runtime, stacks, group, cfg, cfg.offered)
    runtime.run_until(cfg.duration)

    window = cfg.duration - cfg.warmup
    per_member = [window_counts[r] / window for r in group]
    throughput = sum(per_member) / len(per_member)
    batchers = [
        s.layers[0] for s in stacks.values()
        if s.layers and isinstance(s.layers[0], BatchingLayer)
    ]
    has_samples = probe.latency.count > 0
    return {
        "protocol": protocol,
        "group_size": group_size,
        "max_batch": max_batch,
        "offered_msgs_per_s": cfg.offered,
        "delivered_msgs_per_s": round(throughput, 2),
        "mean_latency_ms": round(probe.mean_ms, 3) if has_samples else None,
        "p90_latency_ms": round(probe.quantile_ms(0.90), 3) if has_samples else None,
        "latency_samples": probe.latency.count,
        "wire_frames": network.medium.transmissions,
        "medium_utilization": round(network.medium.utilization(cfg.duration), 4),
        "rank0_cpu_utilization": round(network.cpus[0].utilization(cfg.duration), 4),
        "batching": _batching_totals(batchers),
    }


def run_switch_point(max_batch: int, cfg: ScaleConfig) -> dict:
    """A mid-run sequencer->tokenring switch at scale, batched or not."""
    runtime = Simulator()
    streams = RandomStreams(scale_switch_seed(cfg.seed, max_batch))
    group_size = cfg.switch_group_size
    network = EthernetNetwork(runtime, group_size, EthernetParams(), rng=streams)
    group = Group.of_size(group_size)
    specs = [
        ProtocolSpec(
            "sequencer", lambda r: _data_layers("sequencer", max_batch, cfg)
        ),
        ProtocolSpec(
            "tokenring", lambda r: _data_layers("tokenring", max_batch, cfg)
        ),
    ]
    stacks = build_group_handle(
        runtime,
        network,
        group,
        specs,
        initial="sequencer",
        variant="token",
        streams=streams,
    ).stacks
    delivered: Dict[int, int] = {r: 0 for r in group}
    for rank, stack in stacks.items():
        stack.on_deliver(lambda msg, rank=rank: delivered.__setitem__(
            rank, delivered[rank] + 1
        ))
    senders = _start_senders(runtime, stacks, group, cfg, cfg.switch_offered)

    durations: List[float] = []
    manager = stacks[group.coordinator]
    manager.protocol.on_global_complete(
        lambda __, duration: durations.append(duration)
    )
    runtime.schedule_at(
        cfg.switch_at, lambda: manager.request_switch("tokenring")
    )
    runtime.run_until(cfg.switch_duration)
    for sender in senders:
        sender.stop()
    # Let the group settle: a saturated unbatched sequencer has a deep
    # backlog to drain before the SWITCH vector check passes, the FLUSH
    # rotation closes after the last member drained, and casts in
    # flight when the senders stopped still have to land everywhere.
    settle_deadline = cfg.switch_duration + SETTLE_LIMIT
    while runtime.now < settle_deadline and (
        not durations
        or any(stacks[r].switching for r in group)
        or len(set(delivered.values())) > 1
    ):
        runtime.run_for(0.25)

    finals = {stacks[r].current_protocol for r in group}
    counts = set(delivered.values())
    return {
        "group_size": group_size,
        "max_batch": max_batch,
        "offered_msgs_per_s": cfg.switch_offered,
        "switch_completed": manager.core.switches_completed >= 1,
        "switch_duration_ms": round(durations[0] * 1e3, 3) if durations else None,
        "settled_at_s": round(runtime.now, 3),
        "final_protocols": sorted(finals),
        "all_on_target": finals == {"tokenring"},
        "members_agree_on_delivery_count": len(counts) == 1,
        "delivered_per_member": min(counts),
    }


def evaluate_acceptance(points: List[dict]) -> dict:
    """Batched vs. unbatched sequencer at the largest group >= 50."""
    eligible = [
        p for p in points
        if p["protocol"] == "sequencer" and p["group_size"] >= 50
    ]
    verdict = {
        "criterion": (
            "batched sequencer delivers >= 2x the unbatched throughput "
            "at a group of >= 50 on the sim runtime"
        ),
        "group_size": None,
        "unbatched_msgs_per_s": None,
        "best_batched_msgs_per_s": None,
        "best_max_batch": None,
        "speedup": None,
        "pass": False,
    }
    for size in sorted({p["group_size"] for p in eligible}, reverse=True):
        at_size = [p for p in eligible if p["group_size"] == size]
        base = [p for p in at_size if p["max_batch"] == 1]
        batched = [p for p in at_size if p["max_batch"] > 1]
        if not base or not batched:
            continue
        best = max(batched, key=lambda p: p["delivered_msgs_per_s"])
        unbatched = base[0]["delivered_msgs_per_s"]
        # No unbatched throughput leaves the speedup undefined: null.
        speedup = best["delivered_msgs_per_s"] / unbatched if unbatched else None
        verdict.update(
            group_size=size,
            unbatched_msgs_per_s=unbatched,
            best_batched_msgs_per_s=best["delivered_msgs_per_s"],
            best_max_batch=best["max_batch"],
            speedup=None if speedup is None else round(speedup, 3),
        )
        verdict["pass"] = speedup is not None and speedup >= 2.0
        break
    return verdict


def _row(p: dict) -> str:
    lat = (
        f"mean={p['mean_latency_ms']:8.2f}ms p90={p['p90_latency_ms']:8.2f}ms"
        if p["mean_latency_ms"] is not None
        else "no latency samples"
    )
    return (
        f"{p['protocol']:<10} n={p['group_size']:<4} B={p['max_batch']:<3} "
        f"delivered={p['delivered_msgs_per_s']:8.1f}/s {lat} "
        f"frames={p['wire_frames']:<6} medium={p['medium_utilization']:.0%}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="tiny sweep for CI smoke (two sizes, two batch settings)",
    )
    parser.add_argument(
        "--out", default=None,
        help="artifact path (default benchmarks/results/scale.json)",
    )
    parser.add_argument("--seed", type=int, default=None, help="master seed")
    parser.add_argument(
        "--sizes", default=None,
        help="comma-separated group sizes overriding the default sweep",
    )
    parser.add_argument(
        "--batches", default=None,
        help="comma-separated max_batch values overriding the default sweep",
    )
    args = parser.parse_args(argv)

    cfg = ScaleConfig.quick() if args.quick else ScaleConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.sizes:
        cfg.group_sizes = [int(s) for s in args.sizes.split(",")]
    if args.batches:
        cfg.batch_sizes = [int(b) for b in args.batches.split(",")]
    out = args.out
    if out is None:
        out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "results", "scale.json"
        )

    points = []
    for protocol in PROTOCOLS:
        for size in cfg.group_sizes:
            for batch in cfg.batch_sizes:
                point = run_point(protocol, size, batch, cfg)
                points.append(point)
                print(_row(point), flush=True)

    switch_runs = []
    for batch in (min(cfg.batch_sizes), max(cfg.batch_sizes)):
        run = run_switch_point(batch, cfg)
        switch_runs.append(run)
        print(
            f"switch     n={run['group_size']:<4} B={run['max_batch']:<3} "
            f"completed={run['switch_completed']} "
            f"duration={run['switch_duration_ms']}ms "
            f"settled_at={run['settled_at_s']}s",
            flush=True,
        )

    verdict = evaluate_acceptance(points)
    artifact = {
        "benchmark": "bench_scale",
        "schema_version": SCHEMA_VERSION,
        "quick": bool(args.quick),
        "config": {
            "group_sizes": cfg.group_sizes,
            "batch_sizes": cfg.batch_sizes,
            "offered_msgs_per_s": cfg.offered,
            "active_senders": cfg.active_senders,
            "body_size": cfg.body_size,
            "duration_s": cfg.duration,
            "warmup_s": cfg.warmup,
            "linger_s": cfg.linger,
            "order_cost_s": cfg.order_cost,
            "seed": cfg.seed,
        },
        "points": points,
        "switch_runs": switch_runs,
        "acceptance": verdict,
    }
    with open(out, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")

    print(f"\nartifact: {out}")
    if verdict["group_size"] is None:
        print("acceptance: sweep had no >=50 group with both batch settings")
        return 1
    print(
        f"acceptance: n={verdict['group_size']} sequencer "
        f"{verdict['unbatched_msgs_per_s']}/s unbatched vs "
        f"{verdict['best_batched_msgs_per_s']}/s at B="
        f"{verdict['best_max_batch']} -> {verdict['speedup']}x "
        f"({'PASS' if verdict['pass'] else 'FAIL'})"
    )
    return 0 if verdict["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
