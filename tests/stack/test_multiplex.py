"""Unit tests for the MULTIPLEX layer."""

import pytest

from repro.errors import StackError
from repro.stack.multiplex import Multiplexer
from repro.stack.message import Message


def make_msg(body="x"):
    return Message(sender=0, mid=(0, 0), body=body, body_size=10)


def test_downward_tagging():
    wire = []
    mux = Multiplexer(wire.append)
    channel = mux.channel(3)
    channel.send(make_msg())
    assert len(wire) == 1
    assert wire[0].header("mux") == 3


def test_upward_routing():
    mux = Multiplexer(lambda m: None)
    got_a, got_b = [], []
    mux.channel(1).on_deliver(got_a.append)
    mux.channel(2).on_deliver(got_b.append)
    mux.receive(make_msg().with_header("mux", 2, 2))
    assert got_a == []
    assert len(got_b) == 1
    assert not got_b[0].has_header("mux")  # tag popped


def test_round_trip():
    wire = []
    mux = Multiplexer(wire.append)
    received = []
    channel = mux.channel(0)
    channel.on_deliver(received.append)
    channel.send(make_msg("payload"))
    mux.receive(wire[0])
    assert received[0].body == "payload"


def test_channel_is_cached():
    mux = Multiplexer(lambda m: None)
    assert mux.channel(1) is mux.channel(1)


def test_unknown_channel_rejected():
    mux = Multiplexer(lambda m: None)
    mux.channel(1).on_deliver(lambda m: None)
    with pytest.raises(StackError):
        mux.receive(make_msg().with_header("mux", 9, 2))


def test_untagged_message_rejected():
    mux = Multiplexer(lambda m: None)
    with pytest.raises(StackError):
        mux.receive(make_msg())


def test_traffic_before_wiring_rejected():
    mux = Multiplexer(lambda m: None)
    mux.channel(1)
    with pytest.raises(StackError):
        mux.receive(make_msg().with_header("mux", 1, 2))


def test_double_deliver_registration_rejected():
    mux = Multiplexer(lambda m: None)
    channel = mux.channel(1)
    channel.on_deliver(lambda m: None)
    with pytest.raises(StackError):
        channel.on_deliver(lambda m: None)


def test_negative_channel_rejected():
    mux = Multiplexer(lambda m: None)
    with pytest.raises(StackError):
        mux.channel(-1)


def test_stats_track_both_directions():
    wire = []
    mux = Multiplexer(wire.append)
    channel = mux.channel(5)
    channel.on_deliver(lambda m: None)
    channel.send(make_msg())
    mux.receive(wire[0])
    assert mux.stats.get("tx[5]") == 1
    assert mux.stats.get("rx[5]") == 1


# ---------------------------------------------------------------------------
# Teardown: channel detach and removal
# ---------------------------------------------------------------------------
def test_detach_allows_rewiring():
    mux = Multiplexer(lambda m: None)
    channel = mux.channel(1)
    channel.on_deliver(lambda m: None)
    assert channel.wired
    channel.detach()
    assert not channel.wired
    got = []
    channel.on_deliver(got.append)  # no StackError: detach cleared the slot
    mux.receive(make_msg().with_header("mux", 1, 2))
    assert len(got) == 1


def test_detached_channel_rejects_traffic():
    mux = Multiplexer(lambda m: None)
    channel = mux.channel(1)
    channel.on_deliver(lambda m: None)
    channel.detach()
    with pytest.raises(StackError, match="before wiring"):
        mux.receive(make_msg().with_header("mux", 1, 2))


def test_remove_channel_drops_routing():
    mux = Multiplexer(lambda m: None)
    mux.channel(1).on_deliver(lambda m: None)
    mux.remove_channel(1)
    with pytest.raises(StackError, match="unknown mux channel"):
        mux.receive(make_msg().with_header("mux", 1, 2))


def test_remove_channel_unknown_id_raises():
    mux = Multiplexer(lambda m: None)
    with pytest.raises(StackError, match="no mux channel"):
        mux.remove_channel(9)


def test_removed_channel_can_be_recreated_fresh():
    mux = Multiplexer(lambda m: None)
    old = mux.channel(1)
    old.on_deliver(lambda m: None)
    mux.remove_channel(1)
    fresh = mux.channel(1)
    assert fresh is not old
    assert not fresh.wired
