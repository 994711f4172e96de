"""Unit tests for the adaptive controller on a single group."""

import pytest

from helpers import switch_group
from repro.core.oracle import (
    AdaptiveController,
    HysteresisOracle,
    ManualOracle,
    Oracle,
    ScheduledOracle,
)
from repro.core.switchable import GroupHandle, ProtocolSpec
from repro.errors import SwitchError
from repro.protocols.fifo import FifoLayer
from repro.stack.membership import Group


def specs():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [FifoLayer()]),
    ]


def controlled(stacks, oracle):
    """A controller watching the group of ``stacks`` (a fleet of one)."""
    controller = AdaptiveController()
    controller.watch(GroupHandle(0, Group.of_size(len(stacks)), stacks), oracle)
    return controller


class CountingOracle(Oracle):
    def __init__(self):
        self.polls = 0

    def decide(self, now, current):
        self.polls += 1
        return None


class TestAdaptiveController:
    def test_scheduled_upgrade_executes(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        controller = controlled(stacks, ScheduledOracle([(0.1, "B")]))
        controller.start(sim, 0.02)
        sim.run_until(1.0)
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert len(controller.decisions) == 1
        decision = controller.decisions[0]
        assert (decision.current, decision.target) == ("A", "B")
        assert decision.signal is None  # a schedule samples no metric

    def test_manual_escalation(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        oracle = ManualOracle()
        controller = controlled(stacks, oracle)
        controller.start(sim, 0.01)
        sim.schedule_at(0.05, lambda: oracle.escalate("B"))
        sim.run_until(1.0)
        assert all(s.current_protocol == "B" for s in stacks.values())

    def test_stop_halts_polling(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        controller = controlled(stacks, ScheduledOracle([(0.5, "B")]))
        controller.start(sim, 0.02)
        sim.run_until(0.1)
        controller.stop()
        sim.run_until(2.0)
        assert all(s.current_protocol == "A" for s in stacks.values())

    def test_start_is_idempotent(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        oracle = CountingOracle()
        controller = controlled(stacks, oracle)
        controller.start(sim, 0.05)
        controller.start(sim, 0.05)
        sim.run_until(0.32)
        assert oracle.polls == 6  # one polling chain, not two

    def test_poll_interval_validation(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        controller = controlled(stacks, ManualOracle())
        for interval in (0, -0.1):
            with pytest.raises(SwitchError, match="positive"):
                controller.start(sim, interval)

    def test_defer_while_switching(self):
        """Polls during an in-flight switch do not queue extra requests."""
        sim, stacks, log = switch_group(
            3, specs(), "A", "token", token_interval=0.05
        )
        oracle = ManualOracle()
        controller = controlled(stacks, oracle)
        controller.start(sim, 0.005)
        sim.schedule_at(0.01, lambda: oracle.escalate("B"))
        sim.schedule_at(0.012, lambda: oracle.escalate("B"))
        sim.run_until(2.0)
        assert len(controller.decisions) == 1
        assert all(s.current_protocol == "B" for s in stacks.values())

    def test_decision_carries_the_sampled_signal(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        samples = iter([1.0, 2.0, 9.5, 0.5])
        oracle = HysteresisOracle(lambda: next(samples), None, 5.0, "A", "B")
        controller = controlled(stacks, oracle)
        controller.start(sim, 0.05)
        sim.run_until(0.16)
        assert [d.signal for d in controller.decisions] == [9.5]
