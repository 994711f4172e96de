"""GroupHandle: the build/start/drain/teardown lifecycle.

A single-group run is a fleet of size one — every workload builds its
stacks through ``build_group_handle`` — so the lifecycle contract tested
here underwrites every workload in the repo.
"""

import pytest

from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.errors import SwitchError
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.protocols.sequencer import SequencerLayer
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group


def specs():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [SequencerLayer()]),
    ]


def make_handle(members=3, auto_start=True, seed=1):
    runtime = SimRuntime()
    net = PointToPointNetwork(runtime, members)
    handle = build_group_handle(
        runtime,
        net,
        Group.of_size(members),
        specs(),
        initial="A",
        streams=RandomStreams(seed),
        auto_start=auto_start,
    )
    return runtime, net, handle


class TestLifecycle:
    def test_auto_start_lands_in_started(self):
        __, __, handle = make_handle()
        assert handle.state == "started"

    def test_deferred_start(self):
        runtime, __, handle = make_handle(auto_start=False)
        assert handle.state == "built"
        with pytest.raises(SwitchError, match="does not accept casts"):
            handle.cast(0, "early")
        handle.start()
        assert handle.state == "started"
        got = []
        handle.on_deliver(lambda rank, msg: got.append((rank, msg.body)))
        handle.cast(0, "hello")
        runtime.run_for(1.0)
        assert sorted(got) == [(0, "hello"), (1, "hello"), (2, "hello")]

    def test_start_is_idempotent(self):
        __, __, handle = make_handle()
        handle.start()
        assert handle.state == "started"

    def test_drain_refuses_new_casts(self):
        __, __, handle = make_handle()
        handle.drain()
        assert handle.state == "draining"
        with pytest.raises(SwitchError, match="does not accept casts"):
            handle.cast(0, "late")

    def test_teardown_is_idempotent_and_final(self):
        __, __, handle = make_handle()
        handle.teardown()
        assert handle.state == "torn_down"
        handle.teardown()  # second call is a no-op
        with pytest.raises(SwitchError, match="torn down"):
            handle.start()
        with pytest.raises(SwitchError, match="torn down"):
            handle.drain()

    def test_switch_request_before_start_is_served_at_start(self):
        runtime, __, handle = make_handle(auto_start=False)
        handle.request_switch("B")
        handle.request_switch("B", rank=2)
        runtime.run_for(1.0)
        assert set(handle.current_protocols.values()) == {"A"}  # not started
        handle.start()
        runtime.run_for(2.0)
        assert set(handle.current_protocols.values()) == {"B"}
        assert handle.token_holder == 0

    def test_drain_refuses_switch_requests(self):
        runtime, __, handle = make_handle()
        handle.drain()
        with pytest.raises(SwitchError, match="does not accept switch requests"):
            handle.request_switch("B")
        runtime.run_for(1.0)
        assert set(handle.current_protocols.values()) == {"A"}
        assert all(
            s.protocol.pending_request is None for s in handle.stacks.values()
        )

    def test_teardown_refuses_switch_requests(self):
        __, __, handle = make_handle()
        handle.teardown()
        with pytest.raises(SwitchError, match="does not accept switch requests"):
            handle.request_switch("B", rank=1)

    def test_teardown_frees_the_network_nodes(self):
        runtime, net, handle = make_handle()
        handle.teardown()
        # Rebuild on the same nodes: the transports detached cleanly.
        rebuilt = build_group_handle(
            runtime,
            net,
            Group.of_size(3),
            specs(),
            initial="A",
            streams=RandomStreams(2),
        )
        got = []
        rebuilt.on_deliver(lambda rank, msg: got.append(rank))
        rebuilt.cast(1, "fresh")
        runtime.run_for(1.0)
        assert sorted(got) == [0, 1, 2]


class TestConveniences:
    def test_request_switch_defaults_to_coordinator(self):
        runtime, __, handle = make_handle()
        handle.request_switch("B")
        runtime.run_for(2.0)
        assert set(handle.current_protocols.values()) == {"B"}

    def test_token_holder_follows_the_last_initiator(self):
        runtime, __, handle = make_handle()
        assert handle.token_holder == 0
        assert handle.stacks[0].holds_token
        handle.request_switch("B", rank=2)
        runtime.run_for(0.0015)  # the hand-over is on its way to rank 2
        assert handle.token_holder is None
        runtime.run_for(2.0)
        assert set(handle.current_protocols.values()) == {"B"}
        assert handle.token_holder == 2

    def test_current_protocols_per_member(self):
        __, __, handle = make_handle()
        assert handle.current_protocols == {0: "A", 1: "A", 2: "A"}

    def test_dormant_protocols_follow_the_switch(self):
        runtime, __, handle = make_handle()
        assert handle.dormant_protocols == {0: ["B"], 1: ["B"], 2: ["B"]}
        handle.request_switch("B")
        runtime.run_for(2.0)
        assert handle.dormant_protocols == {0: ["A"], 1: ["A"], 2: ["A"]}
