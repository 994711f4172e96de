"""Unit tests for the view-based switching extension (section 8)."""

from repro.core.switchable import ProtocolSpec
from repro.core.view_switch import ViewSwitchStack
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group, View
from repro.stack.port import NodePort
from repro.traces.properties import VirtualSynchrony
from repro.traces.recorder import TraceRecorder


def build(n=3, variant="broadcast"):
    sim = Simulator()
    net = PointToPointNetwork(sim, n, rng=RandomStreams(19))
    group = Group.of_size(n)
    specs = [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [FifoLayer()]),
    ]
    stacks = {
        rank: ViewSwitchStack(
            sim, NodePort(net, rank), group, rank, specs, initial="A", variant=variant,
            streams=RandomStreams(19).fork(f"r{rank}"),
        )
        for rank in group
    }
    logs = {r: [] for r in group}
    for rank, stack in stacks.items():
        stack.on_deliver(lambda m, rank=rank: logs[rank].append(m.body))
    return sim, stacks, logs


def views_of(log):
    return [b.view_id for b in log if isinstance(b, View)]


def test_initial_view_delivered():
    sim, stacks, logs = build()
    sim.run_until(0.1)
    for rank in range(3):
        assert views_of(logs[rank]) == [0]


def test_switch_delivers_next_view():
    sim, stacks, logs = build()
    sim.schedule_at(0.01, lambda: stacks[0].request_switch("B"))
    sim.run_until(1.0)
    for rank in range(3):
        assert views_of(logs[rank]) == [0, 1]
    assert stacks[0].current_view_id == 1


def test_view_sits_exactly_between_epochs():
    sim, stacks, logs = build()
    for i in range(4):
        sim.schedule_at(0.001 * (i + 1), lambda i=i: stacks[i % 3].cast(("old", i), 16))
    sim.schedule_at(0.01, lambda: stacks[0].request_switch("B"))
    for i in range(4):
        sim.schedule_at(0.05 + 0.001 * i, lambda i=i: stacks[i % 3].cast(("new", i), 16))
    sim.run_until(1.0)
    for rank in range(3):
        kinds = [
            "view" if isinstance(b, View) else b[0] for b in logs[rank]
        ]
        assert kinds == ["view"] + ["old"] * 4 + ["view"] + ["new"] * 4


def test_vs_property_holds_on_recorded_trace():
    sim = Simulator()
    net = PointToPointNetwork(sim, 3, rng=RandomStreams(23))
    group = Group.of_size(3)
    specs = [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [FifoLayer()]),
    ]
    stacks = {
        rank: ViewSwitchStack(sim, NodePort(net, rank), group, rank, specs,
                              initial="A", variant="broadcast")
        for rank in group
    }
    recorder = TraceRecorder(sim)
    for stack in stacks.values():
        recorder.attach(stack)
    for i in range(6):
        sim.schedule_at(0.002 * (i + 1), lambda i=i: stacks[i % 3].cast(i, 16))
    sim.schedule_at(0.02, lambda: stacks[1].request_switch("B"))
    sim.run_until(1.0)
    assert VirtualSynchrony().holds(recorder.trace())


def test_multiple_switches_increment_views():
    sim, stacks, logs = build()
    sim.schedule_at(0.01, lambda: stacks[0].request_switch("B"))
    sim.schedule_at(0.2, lambda: stacks[0].request_switch("A"))
    sim.run_until(1.0)
    for rank in range(3):
        assert views_of(logs[rank]) == [0, 1, 2]
