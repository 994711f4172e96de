"""Unit tests for the FIFO layer."""

from helpers import ptp_group
from repro.net.faults import FaultPlan
from repro.protocols.fifo import FifoLayer


def test_in_order_on_quiet_network():
    sim, stacks, log = ptp_group(3, lambda r: [FifoLayer()])
    for i in range(5):
        stacks[0].cast(f"m{i}", 10)
    sim.run()
    for rank in range(3):
        assert log.bodies(rank) == [f"m{i}" for i in range(5)]


def test_reordering_repaired():
    sim, stacks, log = ptp_group(
        3, lambda r: [FifoLayer()], faults=FaultPlan(reorder_jitter=5e-3), seed=3
    )
    for i in range(20):
        stacks[0].cast(i, 10)
    sim.run()
    for rank in range(3):
        assert log.bodies(rank) == list(range(20))


def test_per_sender_streams_are_independent():
    sim, stacks, log = ptp_group(
        3, lambda r: [FifoLayer()], faults=FaultPlan(reorder_jitter=5e-3), seed=4
    )
    for i in range(10):
        stacks[0].cast(("a", i), 10)
        stacks[1].cast(("b", i), 10)
    sim.run()
    for rank in range(3):
        a_stream = [b for b in log.bodies(rank) if b[0] == "a"]
        b_stream = [b for b in log.bodies(rank) if b[0] == "b"]
        assert a_stream == [("a", i) for i in range(10)]
        assert b_stream == [("b", i) for i in range(10)]


def test_duplicates_suppressed():
    sim, stacks, log = ptp_group(
        2, lambda r: [FifoLayer()], faults=FaultPlan(duplicate_rate=0.9), seed=5
    )
    for i in range(10):
        stacks[0].cast(i, 10)
    sim.run()
    assert log.bodies(1) == list(range(10))
    assert stacks[1].find_layer(FifoLayer).stats.get("duplicates") > 0


def test_gap_stalls_holdback():
    """Without a reliability layer a loss stalls the stream (documented)."""
    sim, stacks, log = ptp_group(
        2, lambda r: [FifoLayer()], faults=FaultPlan(loss_rate=0.4), seed=6
    )
    for i in range(20):
        stacks[0].cast(i, 10)
    sim.run()
    delivered = log.bodies(1)
    # Whatever was delivered is a gapless prefix, in order.
    assert delivered == list(range(len(delivered)))


def test_foreign_traffic_passes_through():
    """Messages without our header (e.g. control of a lower layer that
    bypassed us) are delivered untouched."""
    sim, stacks, log = ptp_group(2, lambda r: [FifoLayer()])
    msg = stacks[0].ctx.make_message("alien", 10, dest=(1,))
    stacks[0].port.send(0, msg)
    sim.run()
    assert log.bodies(1) == ["alien"]
