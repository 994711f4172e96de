"""Edge cases across the whole composition: tiny groups, non-contiguous
ranks, physical-size accounting, bit-for-bit determinism."""

from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.net.ethernet import EthernetNetwork, EthernetParams
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.protocols.integrity import IntegrityLayer
from repro.protocols.crypto import GroupKey
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group
from repro.stack.stack import build_group
from repro.traces.recorder import TraceRecorder


def test_singleton_group_full_stack():
    """A group of one: every protocol degenerates gracefully."""
    for layer_factory in (
        lambda r: [SequencerLayer()],
        lambda r: [TokenRingLayer()],
        lambda r: [FifoLayer()],
    ):
        sim = Simulator()
        net = PointToPointNetwork(sim, 1)
        stacks = build_group(sim, net, Group.of_size(1), layer_factory)
        got = []
        stacks[0].on_deliver(lambda m: got.append(m.body))
        stacks[0].cast("solo", 8)
        sim.run_until(0.1)
        assert got == ["solo"]


def test_switching_in_a_two_member_group_of_noncontiguous_ranks():
    """Group ranks need not be 0..n-1: nodes 2 and 5 of a larger net."""
    sim = Simulator()
    net = PointToPointNetwork(sim, 7, rng=RandomStreams(91))
    group = Group([2, 5])
    specs = [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [SequencerLayer(sequencer=2)]),
    ]
    stacks = build_group_handle(sim, net, group, specs, initial="A",
                                variant="broadcast").stacks
    got = {2: [], 5: []}
    for rank in group:
        stacks[rank].on_deliver(lambda m, rank=rank: got[rank].append(m.body))
    stacks[2].cast("one", 8)
    sim.schedule_at(0.01, lambda: stacks[5].request_switch("B"))
    sim.schedule_at(0.1, lambda: stacks[5].cast("two", 8))
    sim.run_until(2.0)
    assert all(s.current_protocol == "B" for s in stacks.values())
    assert got[2] == ["one", "two"]
    assert got[5] == ["one", "two"]


def test_header_bytes_cost_wire_time():
    """Physical consistency: stacking layers grows the on-wire size and
    therefore the serialization time on the Ethernet model."""

    def one_hop_latency(layer_factory):
        sim = Simulator()
        net = EthernetNetwork(
            sim, 2,
            EthernetParams(cpu_send=0, cpu_recv=0, propagation=0),
            rng=RandomStreams(0),
        )
        stacks = build_group(sim, net, Group.of_size(2), layer_factory)
        times = []
        stacks[1].on_deliver(lambda m: times.append(sim.now))
        stacks[0].cast("x", 1000)
        sim.run_until(1.0)
        return times[0]

    bare = one_hop_latency(lambda r: [])
    keyed = GroupKey("k")
    stacked = one_hop_latency(
        lambda r: [FifoLayer(), IntegrityLayer(keyed)]
    )
    assert stacked > bare  # MAC (32 B) + fifo (4 B) headers cost wire time


def test_recorded_switch_execution_is_deterministic():
    """The same seeds produce the identical global trace, event for
    event — the reproducibility claim, end to end."""

    def run():
        sim = Simulator()
        net = PointToPointNetwork(sim, 4, rng=RandomStreams(17))
        group = Group.of_size(4)
        specs = [
            ProtocolSpec("seq", lambda r: [SequencerLayer()]),
            ProtocolSpec("tok", lambda r: [TokenRingLayer()]),
        ]
        stacks = build_group_handle(
            sim, net, group, specs, initial="seq", variant="token",
            token_interval=0.002, streams=RandomStreams(17),
        ).stacks
        recorder = TraceRecorder(sim)
        recorder.attach_all(stacks)
        for i in range(12):
            sim.schedule_at(0.003 * (i + 1), lambda i=i: stacks[i % 4].cast(i, 32))
        sim.schedule_at(0.015, lambda: stacks[1].request_switch("tok"))
        sim.run_until(2.0)
        return recorder.timed_events()

    first = run()
    second = run()
    assert len(first) == len(second)
    for (t1, e1), (t2, e2) in zip(first, second):
        assert t1 == t2
        assert repr(e1) == repr(e2)


def test_three_protocol_round_robin():
    sim = Simulator()
    net = PointToPointNetwork(sim, 3, rng=RandomStreams(19))
    group = Group.of_size(3)
    specs = [
        ProtocolSpec("x", lambda r: [FifoLayer()]),
        ProtocolSpec("y", lambda r: [SequencerLayer()]),
        ProtocolSpec("z", lambda r: [TokenRingLayer()]),
    ]
    stacks = build_group_handle(
        sim, net, group, specs, initial="x", variant="token",
        token_interval=0.002,
    ).stacks
    got = {r: [] for r in group}
    for rank in group:
        stacks[rank].on_deliver(lambda m, rank=rank: got[rank].append(m.body))
    for n, target in enumerate(("y", "z", "x")):
        sim.schedule_at(0.05 * (n + 1), lambda t=target: stacks[0].request_switch(t))
        sim.schedule_at(0.05 * (n + 1) + 0.02, lambda n=n: stacks[1].cast(n, 16))
    sim.run_until(3.0)
    assert all(s.current_protocol == "x" for s in stacks.values())
    assert all(s.core.switches_completed == 3 for s in stacks.values())
    for rank in group:
        assert got[rank] == [0, 1, 2]
