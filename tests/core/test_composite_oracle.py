"""Unit tests for the composite (priority) oracle."""

import pytest

from helpers import switch_group
from repro.core.oracle import (
    AdaptiveController,
    CompositeOracle,
    ManualOracle,
    ScheduledOracle,
    ThresholdOracle,
)
from repro.core.switchable import GroupHandle, ProtocolSpec
from repro.errors import SwitchError
from repro.protocols.fifo import FifoLayer
from repro.stack.membership import Group


def test_empty_rejected():
    with pytest.raises(SwitchError):
        CompositeOracle([])


def test_priority_order():
    security = ManualOracle()
    performance = ThresholdOracle(lambda: 10.0, 5.0, "low", "high")
    oracle = CompositeOracle([security, performance])
    # Performance wants "high"; security is quiet -> performance wins.
    assert oracle.decide(0.0, "low") == "high"
    # Security escalates; it outranks performance.
    security.escalate("secure")
    assert oracle.decide(1.0, "low") == "secure"


def test_falls_through_quiet_children():
    quiet = ManualOracle()
    scheduled = ScheduledOracle([(1.0, "v2")])
    oracle = CompositeOracle([quiet, scheduled])
    assert oracle.decide(0.5, "v1") is None
    assert oracle.decide(1.5, "v1") == "v2"


def test_security_plus_upgrade_end_to_end():
    """All three §1 use cases coexisting on one controller."""
    specs = [
        ProtocolSpec("plain", lambda r: [FifoLayer()]),
        ProtocolSpec("v2", lambda r: [FifoLayer()]),
        ProtocolSpec("secure", lambda r: [FifoLayer()]),
    ]
    sim, stacks, log = switch_group(3, specs, "plain", "token")
    security = ManualOracle()
    upgrade = ScheduledOracle([(0.05, "v2")])
    oracle = CompositeOracle([security, upgrade])
    controller = AdaptiveController()
    controller.watch(GroupHandle(0, Group.of_size(3), stacks), oracle)
    controller.start(sim, 0.01)
    # The scheduled upgrade fires first; then an intrusion at t=0.5.
    sim.schedule_at(0.5, lambda: security.escalate("secure"))
    sim.run_until(3.0)
    assert all(s.current_protocol == "secure" for s in stacks.values())
    targets = [d.target for d in controller.decisions]
    assert targets == ["v2", "secure"]
