"""Unit tests for packets."""

import pytest

from repro.net.packet import BROADCAST, Packet


def test_fields():
    packet = Packet(src=1, dst=2, payload="x", size_bytes=100, sent_at=0.5)
    assert packet.src == 1
    assert packet.dst == 2
    assert packet.payload == "x"
    assert packet.size_bits == 800


def test_zero_size_rejected():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, payload=None, size_bytes=0)


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        Packet(src=0, dst=1, payload=None, size_bytes=-5)


def test_broadcast_constant_is_not_a_node():
    assert BROADCAST < 0


def test_equality_ignores_sent_at():
    a = Packet(0, 1, "p", 10, sent_at=0.0)
    b = Packet(0, 1, "p", 10, sent_at=9.0)
    assert a == b


def test_equality_and_hash_ignore_group_too():
    a = Packet(0, 1, "p", 10, sent_at=0.0, group=0)
    b = Packet(0, 1, "p", 10, sent_at=9.0, group=4)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Packet(0, 2, "p", 10)
    assert a != (0, 1, "p", 10)


def test_slotted_with_defaults():
    packet = Packet(0, 1, "p", 10)
    assert (packet.sent_at, packet.group) == (0.0, 0)
    assert not hasattr(packet, "__dict__")
    with pytest.raises(AttributeError):
        packet.colour = "red"
