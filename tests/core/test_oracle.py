"""Unit tests for switching oracles."""

import pytest

from repro.core.oracle import (
    HysteresisOracle,
    ManualOracle,
    ScheduledOracle,
    ThresholdOracle,
)
from repro.errors import SwitchError


class TestThresholdOracle:
    def make(self, values):
        it = iter(values)
        return ThresholdOracle(lambda: next(it), 5.0, "low", "high")

    def test_above_threshold_selects_high(self):
        oracle = self.make([7.0])
        assert oracle.decide(0.0, "low") == "high"

    def test_below_threshold_selects_low(self):
        oracle = self.make([3.0])
        assert oracle.decide(0.0, "high") == "low"

    def test_no_change_returns_none(self):
        oracle = self.make([7.0])
        assert oracle.decide(0.0, "high") is None

    def test_exact_threshold_is_low(self):
        oracle = self.make([5.0])
        assert oracle.decide(0.0, "high") == "low"

    def test_oscillates_around_threshold(self):
        """The defect the paper calls out: values fluttering around the
        threshold flip the decision every poll."""
        values = [5.1, 4.9, 5.1, 4.9]
        it = iter(values)
        oracle = ThresholdOracle(lambda: next(it), 5.0, "low", "high")
        current = "low"
        flips = 0
        for t in range(4):
            target = oracle.decide(float(t), current)
            if target:
                current = target
                flips += 1
        assert flips == 4


class TestHysteresisOracle:
    def test_band_inversion_rejected(self):
        with pytest.raises(SwitchError):
            HysteresisOracle(lambda: 0, 6.0, 4.0, "low", "high")

    def test_negative_dwell_rejected(self):
        with pytest.raises(SwitchError):
            HysteresisOracle(lambda: 0, 1.0, 2.0, "low", "high", min_dwell=-1)

    def test_inside_band_no_switch(self):
        oracle = HysteresisOracle(lambda: 5.0, 4.5, 5.5, "low", "high")
        assert oracle.decide(0.0, "low") is None
        assert oracle.decide(0.0, "high") is None

    def test_fluttering_inside_band_never_switches(self):
        values = iter([4.9, 5.1, 4.9, 5.1, 5.4, 4.6])
        oracle = HysteresisOracle(lambda: next(values), 4.5, 5.5, "low", "high")
        assert all(
            oracle.decide(float(t), "low") is None for t in range(6)
        )

    def test_crossing_high_switches_up(self):
        oracle = HysteresisOracle(lambda: 6.0, 4.5, 5.5, "low", "high")
        assert oracle.decide(0.0, "low") == "high"

    def test_crossing_low_switches_down(self):
        oracle = HysteresisOracle(lambda: 3.0, 4.5, 5.5, "low", "high")
        assert oracle.decide(0.0, "high") == "low"

    def test_dwell_time_suppresses_rapid_flips(self):
        values = iter([6.0, 3.0, 3.0])
        oracle = HysteresisOracle(
            lambda: next(values), 4.5, 5.5, "low", "high", min_dwell=1.0
        )
        assert oracle.decide(0.0, "low") == "high"
        assert oracle.decide(0.5, "high") is None  # within dwell
        assert oracle.decide(1.5, "high") == "low"  # dwell elapsed


class TestScheduledOracle:
    def test_fires_at_time(self):
        oracle = ScheduledOracle([(5.0, "v2")])
        assert oracle.decide(4.9, "v1") is None
        assert oracle.decide(5.0, "v1") == "v2"
        assert oracle.remaining == 0

    def test_multiple_entries_in_order(self):
        oracle = ScheduledOracle([(2.0, "b"), (1.0, "a")])
        assert oracle.decide(1.5, "x") == "a"
        assert oracle.decide(2.5, "a") == "b"

    def test_skipped_polls_collapse_to_latest(self):
        oracle = ScheduledOracle([(1.0, "a"), (2.0, "b")])
        assert oracle.decide(10.0, "x") == "b"

    def test_no_op_when_already_current(self):
        oracle = ScheduledOracle([(1.0, "a")])
        assert oracle.decide(2.0, "a") is None


class TestManualOracle:
    def test_idle_until_escalated(self):
        oracle = ManualOracle()
        assert oracle.decide(0.0, "plain") is None

    def test_escalation_fires_once(self):
        oracle = ManualOracle()
        oracle.escalate("secure")
        assert oracle.decide(0.0, "plain") == "secure"
        assert oracle.decide(1.0, "plain") is None

    def test_escalation_to_current_is_noop(self):
        oracle = ManualOracle()
        oracle.escalate("secure")
        assert oracle.decide(0.0, "secure") is None


class TestRateMeter:
    def test_rate_over_one_window(self):
        from repro.core.oracle import RateMeter

        clock = iter([0.0, 2.0])
        count = iter([0.0, 10.0])
        meter = RateMeter(lambda: next(clock), lambda: next(count))
        assert meter() == pytest.approx(5.0)

    def test_same_instant_poll_does_not_swallow_counts(self):
        """Regression: two polls at the same instant (routine on the
        simulator, where many timers share one tick) must not advance
        the baselines — the zero-width poll returns 0.0 and the next
        real window still sees every count since the last real poll."""
        from repro.core.oracle import RateMeter
        from repro.runtime import Simulator

        runtime = Simulator()
        counter = [0.0]
        meter = RateMeter(lambda: runtime.now, lambda: counter[0])
        rates = []

        def traffic():
            counter[0] += 100.0

        def poll():
            rates.append(meter())

        runtime.schedule(1.0, traffic)
        # Two polls armed for the same instant: the first has a real
        # 1 s window, the second is zero-width.
        runtime.schedule(1.0, poll)
        runtime.schedule(1.0, poll)
        runtime.schedule(2.0, traffic)
        runtime.schedule(2.0, poll)
        runtime.run()
        # Invariant: total counts equal the integral of reported rates
        # (100 + 100 over two 1 s windows); the zero-width poll in the
        # middle reports 0 without eating either window.
        assert rates == [pytest.approx(100.0), 0.0, pytest.approx(100.0)]

    def test_poll_before_traffic_at_same_instant_keeps_the_window(self):
        """The ordering that actually lost counts: a zero-width poll
        lands after traffic within one tick; advancing the baseline
        there made the next window under-report."""
        from repro.core.oracle import RateMeter
        from repro.runtime import Simulator

        runtime = Simulator()
        counter = [0.0]
        meter = RateMeter(lambda: runtime.now, lambda: counter[0])
        rates = []
        runtime.schedule(1.0, lambda: rates.append(meter()))
        runtime.run_for(1.0)
        # t=1: poll sees 0 counts over 1 s.
        counter[0] += 50.0
        rates.append(meter())  # same instant as now=1.0 -> zero-width
        runtime.schedule(1.0, lambda: rates.append(meter()))
        runtime.run_for(1.0)
        assert rates[0] == 0.0
        assert rates[1] == 0.0  # zero-width window reports nothing
        # The 50 counts were NOT swallowed: they show up in the t=2 window.
        assert rates[2] == pytest.approx(50.0)
