"""Unit tests for token-ring total order."""

import pytest

from helpers import ptp_group
from repro.errors import ProtocolError
from repro.net.faults import FaultPlan
from repro.protocols.reliable import ReliableLayer
from repro.protocols.tokenring import TokenRingLayer


def test_total_order_across_senders():
    sim, stacks, log = ptp_group(4, lambda r: [TokenRingLayer()])
    for i in range(12):
        stacks[i % 4].cast(f"t{i}", 10)
    sim.run_until(1.0)
    assert log.all_agree()
    assert len(log.bodies(0)) == 12


def test_sender_waits_for_token():
    """A cast is queued until the token arrives; nothing is multicast
    before the first token reaches the sender."""
    sim, stacks, log = ptp_group(4, lambda r: [TokenRingLayer()])
    stacks[2].cast("queued", 10)
    layer = stacks[2].find_layer(TokenRingLayer)
    assert layer.queued == 1
    sim.run_until(1.0)
    assert layer.queued == 0
    assert log.bodies(2) == ["queued"]


def test_max_burst_limits_per_hold():
    sim, stacks, log = ptp_group(3, lambda r: [TokenRingLayer(max_burst=1)])
    for i in range(4):
        stacks[1].cast(i, 10)
    sim.run_until(1.0)
    assert log.bodies(1) == [0, 1, 2, 3]
    layer = stacks[1].find_layer(TokenRingLayer)
    # Four messages over at least four separate holds.
    assert layer.stats.get("multicasts") == 4


def test_token_keeps_circulating_when_idle():
    sim, stacks, log = ptp_group(3, lambda r: [TokenRingLayer()])
    sim.run_until(0.3)
    holds = stacks[0].find_layer(TokenRingLayer).stats.get("holds")
    assert holds > 10  # many rotations with no data


def test_own_delivery_in_global_order():
    sim, stacks, log = ptp_group(3, lambda r: [TokenRingLayer()])
    stacks[0].cast("a", 10)
    stacks[1].cast("b", 10)
    stacks[2].cast("c", 10)
    sim.run_until(1.0)
    assert log.all_agree()
    assert sorted(log.bodies(0)) == ["a", "b", "c"]


def test_validation():
    with pytest.raises(ProtocolError):
        TokenRingLayer(max_burst=0)
    with pytest.raises(ProtocolError):
        TokenRingLayer(hold_cost=-1)


def test_singleton_group():
    sim, stacks, log = ptp_group(1, lambda r: [TokenRingLayer()])
    stacks[0].cast("solo", 10)
    sim.run_until(0.05)
    assert log.bodies(0) == ["solo"]


def test_token_loss_recovered_over_reliable_layer():
    """Composed above the reliable layer, a lost token is retransmitted
    by the NAK machinery — total order survives loss."""
    sim, stacks, log = ptp_group(
        3,
        lambda r: [TokenRingLayer(), ReliableLayer()],
        faults=FaultPlan(loss_rate=0.25),
        seed=12,
    )
    for i in range(10):
        stacks[i % 3].cast(i, 10)
    sim.run_until(10.0)
    assert log.all_agree()
    assert len(log.bodies(0)) == 10


def test_watchdog_regenerates_token_on_bare_stack():
    """With total token loss and no reliable layer, the coordinator's
    watchdog regenerates the token after the timeout."""
    from repro.net.faults import Partition

    # Black out all communication briefly so the in-flight token dies.
    plan = FaultPlan(
        partitions=[Partition.split(0.010, 0.012, [0], [1], [2])]
    )
    sim, stacks, log = ptp_group(
        3,
        lambda r: [TokenRingLayer(watchdog_timeout=0.05)],
        faults=plan,
        seed=13,
    )
    sim.run_until(0.5)
    stacks[0].cast("after-regen", 10)
    sim.run_until(1.0)
    assert log.bodies(0) == ["after-regen"]
    regens = stacks[0].find_layer(TokenRingLayer).stats.get("regenerations")
    assert regens >= 1


# ----------------------------------------------------------------------
# Dormancy: quiesce() parks the token, resume() releases it
# ----------------------------------------------------------------------
def ring_layers(stacks):
    return [stack.find_layer(TokenRingLayer) for stack in stacks.values()]


def test_standalone_ring_never_parks():
    """Nobody tells a ProcessStack's layers anything: the static ring
    (Figure 2's right-hand curve) free-runs exactly as before."""
    sim, stacks, log = ptp_group(3, lambda r: [TokenRingLayer()])
    stacks[1].cast("x", 10)
    sim.run_until(0.5)
    for layer in ring_layers(stacks):
        assert layer.stats.get("parked") == 0
        assert not layer.parked
        assert layer.stats.get("holds") > 10


def test_quiesced_ring_parks_one_token_and_resumes():
    sim, stacks, log = ptp_group(3, lambda r: [TokenRingLayer()])
    sim.run_until(0.1)
    layers = ring_layers(stacks)
    for layer in layers:
        layer.quiesce()
    sim.run_until(0.2)
    holds = [layer.stats.get("holds") for layer in layers]
    sim.run_until(1.0)
    assert [layer.stats.get("holds") for layer in layers] == holds
    assert sum(layer.parked for layer in layers) == 1
    # A cast made while dormant waits for the token, then goes out.
    stacks[2].cast("late", 10)
    sim.run_until(1.5)
    assert log.bodies(0) == []
    for layer in layers:
        layer.resume()
    sim.run_until(2.0)
    assert log.bodies(0) == log.bodies(1) == log.bodies(2) == ["late"]
    assert sum(layer.stats.get("resumed") for layer in layers) == 1
    assert not any(layer.parked for layer in layers)


def test_dormant_member_with_pending_casts_still_multicasts():
    """Parking needs an empty queue: a dormant member the token reaches
    sends what it accepted, forwards, and parks on the next visit."""
    sim, stacks, log = ptp_group(3, lambda r: [TokenRingLayer()])
    layers = ring_layers(stacks)
    layers[1].quiesce()
    stacks[1].cast("owed", 10)
    sim.run_until(0.5)
    assert log.bodies(0) == log.bodies(2) == ["owed"]
    assert [layer.parked for layer in layers] == [False, True, False]
    assert layers[1].stats.get("holds") == 2


def test_parked_ring_regenerates_nothing_and_wakes_up():
    """A parked ring is silent by design: the coordinator's watchdog
    must not mistake it for a lost token, and only the coordinator keeps
    a watchdog timer at all."""
    timeout = 0.05
    sim, stacks, log = ptp_group(
        3, lambda r: [TokenRingLayer(watchdog_timeout=timeout)]
    )
    layers = ring_layers(stacks)
    for layer in layers:
        layer.quiesce()
    sim.run_until(0.01)
    before = sim.events_processed
    sim.run_until(0.01 + 10 * timeout)
    # One watchdog tick per timeout, at the coordinator only.
    assert sim.events_processed - before <= 11
    for layer in layers:
        assert layer.stats.get("regenerations") == 0
        assert layer._epoch == 0
    for layer in layers:
        layer.resume()
    stacks[1].cast("first", 10)
    sim.run_until(sim.now + 0.04)  # inside the fresh silence window
    assert log.bodies(0) == log.bodies(1) == log.bodies(2) == ["first"]
    assert all(layer.stats.get("regenerations") == 0 for layer in layers)
