#!/usr/bin/env python3
"""The paper's headline use case: adaptive total order (§7).

A ten-member group on the simulated 10 Mbit Ethernet.  The number of
active senders ramps 2 → 8 → 2 over the run.  A hysteresis oracle at the
coordinator watches the active-sender count and switches between the
sequencer protocol (best at low load) and the token ring (best at high
load) — "the best of both worlds".

The script prints a timeline of oracle decisions and per-phase latency,
showing the hybrid tracking whichever specialist is currently better.

Run:  python examples/adaptive_total_order.py
"""

from repro import Simulator
from repro.core import (
    AdaptiveController,
    HysteresisOracle,
    ProtocolSpec,
    SignalTracker,
    build_group_handle,
)
from repro.net import EthernetNetwork, EthernetParams
from repro.protocols import SequencerLayer, TokenRingLayer
from repro.sim import RandomStreams
from repro.stack import Group
from repro.workloads import LatencyProbe, Payload, PoissonSender

GROUP_SIZE = 10
RATE = 50.0  # msgs/sec per active sender, as in the paper
PHASES = [
    # (start, end, active senders)
    (0.0, 3.0, 2),
    (3.0, 6.0, 8),
    (6.0, 9.0, 2),
]


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(7)
    network = EthernetNetwork(
        sim,
        GROUP_SIZE,
        EthernetParams(cpu_send=0.7e-3, cpu_recv=0.7e-3),
        rng=streams,
    )
    group = Group.of_size(GROUP_SIZE)
    protocols = [
        ProtocolSpec(
            "sequencer", lambda rank: [SequencerLayer(order_cost=0.9e-3)]
        ),
        ProtocolSpec("token", lambda rank: [TokenRingLayer()]),
    ]
    handle = build_group_handle(
        sim, network, group, protocols, initial="sequencer"
    )
    stacks = handle.stacks

    # The adaptive loop lives at the coordinator.
    manager = stacks[group.coordinator]
    tracker = SignalTracker(sim, window=0.5)

    def observe(msg):
        latency = sim.now - Payload.read(msg.body).sent_at
        tracker.record_delivery(msg.sender, latency)

    manager.on_deliver(observe)
    oracle = HysteresisOracle(
        metric=tracker.delivering_senders,
        low_threshold=4.5,
        high_threshold=5.5,
        low_protocol="sequencer",
        high_protocol="token",
        min_dwell=0.5,
    )
    controller = AdaptiveController()
    controller.watch(handle, oracle)
    controller.start(sim, 0.1)

    probe = LatencyProbe(sim, warmup=0.5)
    probe.attach_all(stacks)

    # Workload: per-phase sender populations.
    for start, end, count in PHASES:
        for rank in list(group)[:count]:
            PoissonSender(
                sim,
                stacks[rank],
                rate=RATE,
                rng=streams.stream(f"w{rank}@{start}"),
                start=start,
                stop=end,
            ).start()

    # Sample latency per phase by snapshotting the probe between phases.
    phase_stats = []

    def snapshot(label):
        def take():
            phase_stats.append(
                (label, probe.latency.count, probe.mean_ms if probe.latency.count else 0.0)
            )
        return take

    for start, end, count in PHASES:
        sim.schedule_at(end - 0.01, snapshot(f"{count} senders until t={end}"))

    sim.run_until(9.5)

    print("Oracle decision timeline:")
    for decision in controller.decisions:
        print(
            f"  t={decision.time:6.2f}s  "
            f"{decision.current} -> {decision.target}"
        )
    print()
    print("Cumulative mean latency at phase boundaries:")
    for label, count, mean in phase_stats:
        print(f"  {label:<24} samples={count:<6} mean={mean:6.2f} ms")
    print()
    print(f"Final protocol: {manager.current_protocol}")
    print(f"Switches completed: {manager.core.switches_completed}")

    # The ramp up and the ramp down each trigger exactly one switch.
    assert manager.core.switches_completed == 2
    assert manager.current_protocol == "sequencer"


if __name__ == "__main__":
    main()
