"""Unit tests for the confidentiality layer."""

from helpers import ptp_group
from repro.protocols.confidentiality import ConfidentialityLayer
from repro.protocols.crypto import Ciphertext, GroupKey

KEY = GroupKey("conf-key")


def test_trusted_to_trusted_flows():
    sim, stacks, log = ptp_group(3, lambda r: [ConfidentialityLayer(KEY)])
    stacks[0].cast("secret", 10)
    sim.run()
    for rank in range(3):
        assert log.bodies(rank) == ["secret"]


def test_bodies_are_sealed_on_the_wire():
    sim, stacks, log = ptp_group(2, lambda r: [ConfidentialityLayer(KEY)])
    wire = []
    layer = stacks[0].find_layer(ConfidentialityLayer)
    original_down = layer._down
    layer._down = lambda m: (wire.append(m), original_down(m))
    stacks[0].cast("secret", 10)
    sim.run()
    assert isinstance(wire[0].body, Ciphertext)
    assert log.bodies(1) == ["secret"]  # receiver still gets plaintext


def test_keyless_receiver_sees_nothing():
    def factory(rank):
        return [ConfidentialityLayer(KEY if rank != 2 else None)]

    sim, stacks, log = ptp_group(3, factory)
    stacks[0].cast("secret", 10)
    sim.run()
    assert log.bodies(1) == ["secret"]
    assert log.bodies(2) == []
    untrusted = stacks[2].find_layer(ConfidentialityLayer)
    assert untrusted.stats.get("undecryptable") == 1


def test_keyless_sender_broadcasts_clear():
    def factory(rank):
        return [ConfidentialityLayer(KEY if rank != 2 else None)]

    sim, stacks, log = ptp_group(3, factory)
    stacks[2].cast("public", 10)
    sim.run()
    assert log.bodies(0) == ["public"]
    assert log.bodies(1) == ["public"]
    assert log.bodies(2) == ["public"]


def test_wrong_key_cannot_decrypt():
    def factory(rank):
        return [ConfidentialityLayer(KEY if rank == 0 else GroupKey("other"))]

    sim, stacks, log = ptp_group(2, factory)
    stacks[0].cast("secret", 10)
    sim.run()
    assert log.bodies(1) == []


def test_size_overhead_accounted():
    sim, stacks, log = ptp_group(2, lambda r: [ConfidentialityLayer(KEY)])
    sizes = []
    layer = stacks[0].find_layer(ConfidentialityLayer)
    original_down = layer._down
    layer._down = lambda m: (sizes.append(m.body_size), original_down(m))
    stacks[0].cast("secret", 100)
    sim.run()
    assert sizes[0] > 100  # framing overhead added


def test_passthrough_without_header():
    sim, stacks, log = ptp_group(2, lambda r: [ConfidentialityLayer(KEY)])
    msg = stacks[0].ctx.make_message("bare", 10, dest=(1,))
    stacks[0].port.send(0, msg)
    sim.run()
    assert log.bodies(1) == ["bare"]
