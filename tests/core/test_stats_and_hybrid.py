"""Unit tests for the adaptive controller."""

import pytest

from helpers import switch_group
from repro.core.hybrid import AdaptiveController
from repro.core.oracle import ManualOracle, ScheduledOracle
from repro.core.switchable import ProtocolSpec
from repro.errors import SwitchError
from repro.protocols.fifo import FifoLayer


def specs():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [FifoLayer()]),
    ]


class TestAdaptiveController:
    def test_scheduled_upgrade_executes(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        oracle = ScheduledOracle([(0.1, "B")])
        controller = AdaptiveController(stacks[0], oracle, poll_interval=0.02)
        controller.start()
        sim.run_until(1.0)
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert controller.switch_request_count == 1
        decision = controller.decisions[0]
        assert (decision.from_protocol, decision.to_protocol) == ("A", "B")

    def test_manual_escalation(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        oracle = ManualOracle()
        controller = AdaptiveController(stacks[1], oracle, poll_interval=0.01)
        controller.start()
        sim.schedule_at(0.05, lambda: oracle.escalate("B"))
        sim.run_until(1.0)
        assert all(s.current_protocol == "B" for s in stacks.values())

    def test_stop_halts_polling(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        oracle = ScheduledOracle([(0.5, "B")])
        controller = AdaptiveController(stacks[0], oracle, poll_interval=0.02)
        controller.start()
        sim.run_until(0.1)
        controller.stop()
        sim.run_until(2.0)
        assert all(s.current_protocol == "A" for s in stacks.values())

    def test_start_is_idempotent(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        controller = AdaptiveController(
            stacks[0], ManualOracle(), poll_interval=0.05
        )
        controller.start()
        controller.start()
        sim.run_until(0.3)
        # One polling chain, not two: at most ~6 polls' worth of events.

    def test_poll_interval_validation(self):
        sim, stacks, log = switch_group(3, specs(), "A", "token")
        with pytest.raises(SwitchError):
            AdaptiveController(stacks[0], ManualOracle(), poll_interval=0)

    def test_defer_while_switching(self):
        """Polls during an in-flight switch do not queue extra requests."""
        sim, stacks, log = switch_group(
            3, specs(), "A", "token", token_interval=0.05
        )
        oracle = ManualOracle()
        controller = AdaptiveController(stacks[0], oracle, poll_interval=0.005)
        controller.start()
        sim.schedule_at(0.01, lambda: oracle.escalate("B"))
        sim.schedule_at(0.012, lambda: oracle.escalate("B"))
        sim.run_until(2.0)
        assert controller.switch_request_count <= 2
        assert all(s.current_protocol == "B" for s in stacks.values())
