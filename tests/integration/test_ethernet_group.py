"""Integration tests on the shared-Ethernet model — the Figure 2
substrate, exercised at test scale."""

import pytest

from repro.core.signals import SignalTracker
from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.net.ethernet import EthernetNetwork, EthernetParams
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group
from repro.stack.stack import build_group
from repro.workloads.generator import PoissonSender
from repro.workloads.latency import LatencyProbe


def ethernet_group(n, layer_factory, seed=41, **params):
    sim = Simulator()
    streams = RandomStreams(seed)
    net = EthernetNetwork(sim, n, EthernetParams(**params), rng=streams)
    group = Group.of_size(n)
    stacks = build_group(sim, net, group, layer_factory, streams=streams)
    return sim, net, stacks


def test_sequencer_latency_grows_with_load():
    """The left curve of Figure 2 in miniature: more senders, more
    sequencer queueing, higher latency."""

    def run(k):
        sim, net, stacks = ethernet_group(
            6, lambda r: [SequencerLayer(order_cost=1e-3)]
        )
        probe = LatencyProbe(sim, warmup=0.5)
        probe.attach_all(stacks)
        streams = RandomStreams(5)
        for rank in range(k):
            PoissonSender(
                sim, stacks[rank], rate=60.0, rng=streams.stream(f"s{rank}")
            ).start()
        sim.run_until(2.0)
        return probe.mean_ms

    assert run(6) > run(1) * 1.5


def test_token_latency_is_flat_under_load():
    def run(k):
        sim, net, stacks = ethernet_group(6, lambda r: [TokenRingLayer()])
        probe = LatencyProbe(sim, warmup=0.5)
        probe.attach_all(stacks)
        streams = RandomStreams(5)
        for rank in range(k):
            PoissonSender(
                sim, stacks[rank], rate=60.0, rng=streams.stream(f"s{rank}")
            ).start()
        sim.run_until(2.0)
        return probe.mean_ms

    assert run(6) < run(1) * 2.0


def test_switch_over_ethernet_with_cpu_contention():
    sim = Simulator()
    streams = RandomStreams(43)
    net = EthernetNetwork(sim, 6, EthernetParams(), rng=streams)
    group = Group.of_size(6)
    specs = [
        ProtocolSpec("seq", lambda r: [SequencerLayer(order_cost=1e-3)]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer()]),
    ]
    stacks = build_group_handle(
        sim, net, group, specs, initial="seq", streams=streams
    ).stacks
    bodies = {r: [] for r in group}
    for rank, stack in stacks.items():
        stack.on_deliver(lambda m, rank=rank: bodies[rank].append(m.body))
    for i in range(30):
        sim.schedule_at(0.01 * (i + 1), lambda i=i: stacks[i % 6].cast(i, 512))
    sim.schedule_at(0.15, lambda: stacks[3].request_switch("tok"))
    sim.run_until(3.0)
    assert all(s.current_protocol == "tok" for s in stacks.values())
    reference = bodies[0]
    assert len(reference) == 30
    assert all(bodies[r] == reference for r in group)


def test_ethernet_loss_with_reliable_layer():
    sim, net, stacks = ethernet_group(
        4, lambda r: [ReliableLayer()], loss_rate=0.2
    )
    got = {r: [] for r in range(4)}
    for rank, stack in stacks.items():
        stack.on_deliver(lambda m, rank=rank: got[rank].append(m.body))
    for i in range(20):
        sim.schedule_at(0.01 * (i + 1), lambda i=i: stacks[i % 4].cast(i, 256))
    sim.run_until(10.0)
    for rank in range(4):
        assert sorted(got[rank]) == list(range(20))


def test_delivering_senders_tracks_workload_phase():
    sim, net, stacks = ethernet_group(6, lambda r: [])
    tracker = SignalTracker(sim, window=0.4)
    stacks[0].on_deliver(
        lambda msg: tracker.record_delivery(msg.sender, 0.0)
    )
    streams = RandomStreams(5)
    for rank in range(4):
        PoissonSender(
            sim, stacks[rank], rate=50.0, rng=streams.stream(f"s{rank}"),
            stop=1.0,
        ).start()
    sim.run_until(0.9)
    assert tracker.delivering_senders() == 4
    sim.run_until(2.5)
    assert tracker.delivering_senders() == 0


def test_wire_utilization_reflects_load():
    sim, net, stacks = ethernet_group(4, lambda r: [])
    streams = RandomStreams(5)
    for rank in range(4):
        PoissonSender(
            sim, stacks[rank], rate=100.0, rng=streams.stream(f"s{rank}"),
            body_size=1024,
        ).start()
    sim.run_until(2.0)
    utilization = net.medium.utilization(2.0)
    # 400 msg/s x ~0.86 ms serialization ~= 0.35
    assert 0.2 < utilization < 0.6
    for cpu in net.cpus:
        assert cpu.utilization(2.0) < 0.9
