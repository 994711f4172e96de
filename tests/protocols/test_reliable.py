"""Unit tests for the reliable multicast layer."""

import pytest

from helpers import ptp_group
from repro.errors import ProtocolError
from repro.net.faults import FaultDecision, FaultPlan
from repro.protocols.reliable import ReliableConfig, ReliableLayer
from repro.stack.message import Message


def reliable_group(n, faults=None, seed=1, config=None):
    return ptp_group(
        n, lambda r: [ReliableLayer(config)], faults=faults, seed=seed
    )


def test_lossless_delivery():
    sim, stacks, log = reliable_group(3)
    for i in range(5):
        stacks[i % 3].cast(i, 10)
    sim.run_until(0.5)
    for rank in range(3):
        assert sorted(log.bodies(rank)) == list(range(5))


def test_recovers_from_heavy_loss():
    sim, stacks, log = reliable_group(
        3, faults=FaultPlan(loss_rate=0.35), seed=2
    )
    for i in range(30):
        stacks[i % 3].cast(i, 10)
    sim.run_until(5.0)
    for rank in range(3):
        assert sorted(log.bodies(rank)) == list(range(30))


def test_exactly_once_under_duplication():
    sim, stacks, log = reliable_group(
        3, faults=FaultPlan(duplicate_rate=0.5), seed=3
    )
    for i in range(20):
        stacks[0].cast(i, 10)
    sim.run_until(2.0)
    for rank in range(3):
        assert log.bodies(rank) == list(range(20))  # once each, in order


def test_per_stream_fifo_under_reordering():
    sim, stacks, log = reliable_group(
        3, faults=FaultPlan(reorder_jitter=5e-3), seed=4
    )
    for i in range(15):
        stacks[1].cast(i, 10)
    sim.run_until(2.0)
    for rank in range(3):
        assert log.bodies(rank) == list(range(15))


def test_combined_faults():
    sim, stacks, log = reliable_group(
        4,
        faults=FaultPlan(loss_rate=0.2, duplicate_rate=0.2, reorder_jitter=3e-3),
        seed=5,
    )
    for i in range(40):
        stacks[i % 4].cast(i, 10)
    sim.run_until(6.0)
    for rank in range(4):
        assert sorted(log.bodies(rank)) == list(range(40))


def test_last_message_loss_recovered_by_heartbeat():
    """The classic NAK weakness: nothing after the lost tail to reveal
    the gap — heartbeats close it."""
    sim, stacks, log = reliable_group(
        2, faults=FaultPlan(loss_rate=0.8), seed=6
    )
    stacks[0].cast("tail", 10)
    sim.run_until(20.0)
    assert log.bodies(1) == ["tail"]


def test_stability_garbage_collection():
    sim, stacks, log = reliable_group(3)
    for i in range(10):
        stacks[0].cast(i, 10)
    sim.run_until(2.0)
    layer = stacks[0].find_layer(ReliableLayer)
    assert layer.unstable_messages == 0  # everything acknowledged


def test_buffer_retained_until_all_ack():
    sim, stacks, log = reliable_group(
        3, faults=FaultPlan(loss_rate=0.4), seed=7
    )
    for i in range(5):
        stacks[0].cast(i, 10)
    sim.run_until(0.01)  # before ACK timers fire
    assert stacks[0].find_layer(ReliableLayer).unstable_messages > 0


def test_unicast_streams_are_reliable_too():
    sim, stacks, log = reliable_group(
        3, faults=FaultPlan(loss_rate=0.3), seed=8
    )
    for i in range(10):
        msg = stacks[0].ctx.make_message(i, 10, dest=(2,))
        stacks[0].find_layer(ReliableLayer).send(msg)
    sim.run_until(3.0)
    assert log.bodies(2) == list(range(10))
    assert log.bodies(1) == []


def test_self_delivery_included():
    sim, stacks, log = reliable_group(3)
    stacks[1].cast("mine", 10)
    sim.run_until(0.5)
    assert log.bodies(1) == ["mine"]


def test_config_validation():
    with pytest.raises(ProtocolError):
        ReliableConfig(tick_interval=0)
    with pytest.raises(ProtocolError):
        ReliableConfig(nak_batch=0)


def test_retransmit_counters():
    sim, stacks, log = reliable_group(
        2, faults=FaultPlan(loss_rate=0.5), seed=9
    )
    for i in range(20):
        stacks[0].cast(i, 10)
    sim.run_until(5.0)
    assert log.bodies(1) == list(range(20))
    sender = stacks[0].find_layer(ReliableLayer)
    receiver = stacks[1].find_layer(ReliableLayer)
    assert sender.stats.get("retransmits") > 0
    assert receiver.stats.get("naks_sent") > 0


def test_holdback_drains():
    sim, stacks, log = reliable_group(
        3, faults=FaultPlan(loss_rate=0.3), seed=10
    )
    for i in range(20):
        stacks[0].cast(i, 10)
    sim.run_until(5.0)
    for rank in range(3):
        assert stacks[rank].find_layer(ReliableLayer).holdback_size == 0


def test_hostile_heartbeat_top_cannot_stall_the_tick():
    """``known_top`` comes off the wire.  One heartbeat advertising an
    absurd top used to make the next tick walk (and allocate) every
    sequence number up to it before slicing to ``nak_batch``."""
    sim, stacks, log = reliable_group(2, config=ReliableConfig(nak_batch=8))
    layer = stacks[0].find_layer(ReliableLayer)
    naks = []
    down = layer._down
    layer._down = lambda msg: (
        naks.append(msg) if msg.header("rel") == {"k": "nak"} else down(msg)
    )
    stacks[1].cast("real", 10)
    sim.run_until(0.01)  # seq 0 delivered: expected is 1
    hostile = Message(
        sender=1, mid=(1, 999), body=("G", 2**40), body_size=16, dest=(0,)
    ).with_header("rel", {"k": "hb"}, 10)
    layer.receive(hostile)
    layer._tick()  # returns promptly instead of iterating 2**40 times
    assert len(naks) == 1
    dest_key, missing = naks[0].body
    assert dest_key == "G"
    assert missing == list(range(1, 9))


# ----------------------------------------------------------------------
# The maintenance tick runs only while the layer has work
# ----------------------------------------------------------------------
TICK = ReliableConfig().tick_interval


def test_a_quiet_group_ticks_once_per_layer_then_schedules_nothing():
    sim, stacks, log = reliable_group(3)
    sim.run_until(10.0)
    assert sim.events_processed == 3  # each layer's first tick, no more
    assert sim.pending() == 0
    layers = [s.find_layer(ReliableLayer) for s in stacks.values()]
    assert all(layer._ticker is None for layer in layers)


def test_an_unacked_message_keeps_its_origin_ticking_until_the_ack_lands():
    sim, stacks, log = reliable_group(2)
    origin = stacks[0].find_layer(ReliableLayer)
    receiver = stacks[1].find_layer(ReliableLayer)
    held = []
    down = receiver._down
    receiver._down = lambda msg: (
        held.append(msg) if msg.header("rel") == {"k": "ack"} else down(msg)
    )
    stacks[0].cast("x", 10)
    sim.run_until(0.5)
    assert log.bodies(1) == ["x"] and len(held) == 1
    assert origin.unstable_messages == 1
    # One heartbeat per tick but the first (data flowed in that one).
    assert origin.stats.get("heartbeats") >= int(0.5 / TICK) - 2
    assert origin._ticker is not None

    receiver._down = down
    down(held.pop())  # the ack lands
    sim.run_until(1.0)
    assert origin.unstable_messages == 0
    heartbeats = origin.stats.get("heartbeats")
    sim.run_until(5.0)
    assert origin.stats.get("heartbeats") == heartbeats
    assert origin._ticker is None and receiver._ticker is None
    assert sim.pending() == 0


def test_a_heartbeat_rearms_a_quiet_receiver_and_its_gap_is_naked():
    lost = []

    def drop_first_copy_to_rank_1(time, src, dst, channel, payload):
        if dst == 1 and not lost and payload.header("rel")["k"] == "data":
            lost.append(payload)
            return FaultDecision(drop=True)
        return None

    sim, stacks, log = reliable_group(
        2, faults=FaultPlan(intercept=drop_first_copy_to_rank_1)
    )
    receiver = stacks[1].find_layer(ReliableLayer)
    stacks[0].cast("tail", 10)
    sim.run_until(1.5 * TICK)  # the receiver's first tick has fired
    assert lost and receiver._ticker is None  # it saw nothing: quiet
    assert receiver.stats.get("naks_sent") == 0
    sim.run_until(1.0)
    assert receiver.stats.get("naks_sent") >= 1
    assert log.bodies(1) == ["tail"]
    sim.run_until(3.0)
    assert sim.pending() == 0


class TickAudit(ReliableLayer):
    """Fails the moment a tick is armed while another is still pending."""

    def bind(self, ctx):
        super().bind(ctx)
        self.pending_ticks = self.armed = 0
        after = ctx.after

        def audited(delay, callback):
            if callback != self._tick:
                return after(delay, callback)
            assert self.pending_ticks == 0, "a second tick armed"
            self.pending_ticks += 1
            self.armed += 1

            def fire():
                self.pending_ticks -= 1
                callback()

            return after(delay, fire)

        ctx.after = audited


def test_never_more_than_one_pending_tick_per_layer():
    sim, stacks, log = ptp_group(
        4,
        lambda r: [TickAudit()],
        faults=FaultPlan(loss_rate=0.3, duplicate_rate=0.2, reorder_jitter=3e-3),
        seed=12,
    )
    for i in range(60):
        sim.schedule_at(i * 0.01, lambda i=i: stacks[i % 4].cast(i, 10))
    sim.run_until(8.0)
    for rank in range(4):
        assert sorted(log.bodies(rank)) == list(range(60))
    layers = [s.find_layer(TickAudit) for s in stacks.values()]
    assert all(layer.stats.get("naks_sent") for layer in layers)
    assert all(layer.armed > 10 for layer in layers)


def test_a_stopped_layer_never_rearms():
    sim, stacks, log = reliable_group(2)
    layer = stacks[0].find_layer(ReliableLayer)
    stacks[0].cast("x", 10)
    sim.run_until(0.001)  # a tick is pending: unstable data
    assert layer._ticker is not None
    layer.stop()
    assert layer._ticker is None
    gap = Message(
        sender=1, mid=(1, 99), body=("G", 5), body_size=16, dest=(0,)
    ).with_header("rel", {"k": "hb"}, 10)
    layer.receive(gap)  # an open gap, announced to a stopped layer
    layer.send(stacks[0].ctx.make_message("y", 10))
    assert layer._ticker is None
    sim.run_until(5.0)
    assert layer.stats.get("naks_sent") == 0
    assert layer.stats.get("heartbeats") == 0
