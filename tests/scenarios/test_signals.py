"""SignalTracker unit tests: each signal over a controlled fake clock."""

import pytest

from repro.core.signals import SignalTracker
from repro.errors import ScenarioError


class FakeClock:
    def __init__(self):
        self.now = 0.0


class FakeSender:
    def __init__(self, active):
        self.active = active


class FakeStats:
    def __init__(self):
        self.counts = {"sends": 0, "drops": 0}

    def get(self, name):
        return self.counts.get(name, 0)


class FakeNetwork:
    def __init__(self):
        self.stats = FakeStats()


def test_rejects_nonpositive_window():
    with pytest.raises(ScenarioError, match="window must be positive"):
        SignalTracker(FakeClock(), 0.0)


def test_unknown_signal_raises():
    tracker = SignalTracker(FakeClock(), 1.0)
    with pytest.raises(ScenarioError, match="unknown signal"):
        tracker.metric("vibes")


def test_active_senders_counts_running_generators():
    senders = [FakeSender(True), FakeSender(False), FakeSender(True)]
    tracker = SignalTracker(FakeClock(), 1.0, senders=senders)
    assert tracker.value("active_senders") == 2.0
    senders[1].active = True
    assert tracker.value("active_senders") == 3.0


def test_delivering_senders_counts_distinct_senders_in_window():
    tracker = SignalTracker(FakeClock(), 1.0)
    for sender in (1, 2, 1):
        tracker.record_delivery(sender, 0.001)
    assert tracker.value("delivering_senders") == 2.0


def test_delivering_senders_window_expiry():
    clock = FakeClock()
    tracker = SignalTracker(clock, window=0.5)
    tracker.record_delivery(1, 0.001)
    clock.now = 0.5
    tracker.record_delivery(2, 0.001)
    # The window is closed: a delivery exactly one window old still counts.
    assert tracker.value("delivering_senders") == 2.0
    clock.now = 1.0
    assert tracker.value("delivering_senders") == 1.0


def test_offered_rate_is_windowed():
    clock = FakeClock()
    tracker = SignalTracker(clock, window=2.0)
    for t in (0.0, 0.5, 1.0, 1.5):
        clock.now = t
        tracker.record_cast()
    clock.now = 2.0
    assert tracker.value("offered_rate") == pytest.approx(4 / 2.0)
    # Advance past the window: the early casts age out.
    clock.now = 3.2
    assert tracker.value("offered_rate") == pytest.approx(1 / 2.0)
    clock.now = 10.0
    assert tracker.value("offered_rate") == 0.0


def test_delivery_latency_is_windowed_mean_in_ms():
    clock = FakeClock()
    tracker = SignalTracker(clock, window=1.0)
    assert tracker.value("delivery_latency_ms") == 0.0  # no samples yet
    clock.now = 0.5
    tracker.record_delivery(1, 0.010)
    tracker.record_delivery(2, 0.030)
    assert tracker.value("delivery_latency_ms") == pytest.approx(20.0)
    assert tracker.value("delivered_rate") == pytest.approx(2 / 1.0)
    # Old samples fall out of the mean.
    clock.now = 2.0
    tracker.record_delivery(1, 0.100)
    assert tracker.value("delivery_latency_ms") == pytest.approx(100.0)


def test_loss_ratio_requires_network():
    tracker = SignalTracker(FakeClock(), 1.0)
    with pytest.raises(ScenarioError, match="needs a simulated network"):
        tracker.value("loss_ratio")


def test_loss_ratio_reads_counters_differentially():
    network = FakeNetwork()
    tracker = SignalTracker(FakeClock(), 1.0, network=network)
    assert tracker.value("loss_ratio") == 0.0

    network.stats.counts.update(sends=100, drops=25)
    assert tracker.value("loss_ratio") == pytest.approx(0.25)

    # A clean stretch pulls the ratio straight down (not a run average).
    network.stats.counts.update(sends=200, drops=25)
    assert tracker.value("loss_ratio") == pytest.approx(0.0)

    # Idle (no new sends): the last ratio is retained.
    network.stats.counts.update(sends=200, drops=25)
    assert tracker.value("loss_ratio") == pytest.approx(0.0)
    network.stats.counts.update(sends=250, drops=50)
    assert tracker.value("loss_ratio") == pytest.approx(0.5)
