"""Unit tests for the integrity (MAC) layer."""

from helpers import ptp_group
from repro.protocols.crypto import GroupKey
from repro.protocols.integrity import IntegrityLayer

KEY = GroupKey("test-key")


def test_trusted_traffic_flows():
    sim, stacks, log = ptp_group(3, lambda r: [IntegrityLayer(KEY)])
    stacks[0].cast("signed", 10)
    sim.run()
    for rank in range(3):
        assert log.bodies(rank) == ["signed"]


def test_keyless_sender_rejected_by_trusted_receivers():
    def factory(rank):
        return [IntegrityLayer(KEY if rank != 2 else None)]

    sim, stacks, log = ptp_group(3, factory)
    stacks[2].cast("unsigned", 10)
    sim.run()
    assert log.bodies(0) == []
    assert log.bodies(1) == []
    assert stacks[0].find_layer(IntegrityLayer).stats.get("rejected") == 1


def test_forged_tag_rejected():
    sim, stacks, log = ptp_group(2, lambda r: [IntegrityLayer(KEY)])
    forged = (
        stacks[0]
        .ctx.make_message("forged", 10, dest=(1,))
        .with_header("mac", "bogus-tag", 32)
    )
    stacks[0].port.send(0, forged)
    sim.run()
    assert log.bodies(1) == []


def test_deliver_unverified_mode():
    def factory(rank):
        return [IntegrityLayer(None, deliver_unverified=True)]

    sim, stacks, log = ptp_group(2, factory)
    stacks[0].cast("untagged", 10)
    sim.run()
    assert log.bodies(1) == ["untagged"]


def test_tag_covers_body():
    """A message whose body was altered in flight fails verification."""
    sim, stacks, log = ptp_group(2, lambda r: [IntegrityLayer(KEY)])
    layer = stacks[0].find_layer(IntegrityLayer)
    msg = stacks[0].ctx.make_message("original", 10, dest=(1,))
    # Capture what the layer would transmit, then tamper with the body.
    captured = []
    layer._down = captured.append
    layer.send(msg)
    tampered = captured[0].with_body("tampered")
    stacks[0].port.send(0, tampered)
    sim.run()
    assert log.bodies(1) == []


def test_wrong_group_key_rejected():
    def factory(rank):
        return [IntegrityLayer(KEY if rank == 0 else GroupKey("other"))]

    sim, stacks, log = ptp_group(2, factory)
    stacks[0].cast("cross-group", 10)
    sim.run()
    assert log.bodies(1) == []


def test_passthrough_without_header():
    sim, stacks, log = ptp_group(2, lambda r: [IntegrityLayer(KEY)])
    msg = stacks[0].ctx.make_message("bare", 10, dest=(1,))
    stacks[0].port.send(0, msg)
    sim.run()
    assert log.bodies(1) == ["bare"]
