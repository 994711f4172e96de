"""Windowed signals feeding the switching oracle.

The paper leaves *what the oracle watches* open ("we assume that some
kind of oracle decides when a switch is necessary", §1), and its §7
oracle reads one load signal through a hysteresis band: how many
members are sending (the x-axis of Figure 2).  :class:`SignalTracker`
computes that signal and the scenario catalog's others over one
trailing time window, and the oracle thresholds are expressed in their
units.

The tracker is fed by delivery/send hooks and — on the simulated mesh —
the network's drop counters.  All state lives in deques pruned lazily
at read time, so the tracker adds no scheduled events of its own and
stays deterministic on the sim runtime (reads happen only at the
oracle's fixed poll times).

Signals (:data:`SIGNALS`):

* ``active_senders`` — how many workload generators are currently
  running (the subgroup size a scenario scripts).
* ``delivering_senders`` — distinct senders among the deliveries in the
  window (what the §7 hybrid can observe of the subgroup size).
* ``offered_rate`` — casts/second group-wide over the window.
* ``delivered_rate`` — deliveries/second at the observer rank.
* ``delivery_latency_ms`` — mean end-to-end latency (ms) of workload
  payloads delivered at the observer rank during the window.
* ``loss_ratio`` — fraction of copies the simulated network dropped
  among those sent since the previous read (sim runtime only).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Sequence, Tuple

from ..errors import ScenarioError
from ..runtime.api import Clock

__all__ = ["SIGNALS", "SignalTracker"]

#: Every signal :meth:`SignalTracker.metric` can read, by method name.
SIGNALS = (
    "active_senders",
    "delivering_senders",
    "offered_rate",
    "delivered_rate",
    "delivery_latency_ms",
    "loss_ratio",
)


class SignalTracker:
    """Computes the oracle signals over a trailing window."""

    def __init__(
        self,
        clock: Clock,
        window: float,
        senders: Sequence = (),
        network=None,
    ) -> None:
        if window <= 0:
            raise ScenarioError(f"signal window must be positive, got {window}")
        self.clock = clock
        self.window = window
        self.senders = list(senders)
        self.network = network
        self._casts: Deque[float] = deque()
        # (time, sender, latency) per delivery at the observer.
        self._deliveries: Deque[Tuple[float, int, float]] = deque()
        # loss_ratio EWMA-free state: counter values at the last read.
        self._last_sends = 0
        self._last_drops = 0
        self._loss_ratio = 0.0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def record_cast(self) -> None:
        """One workload cast left some member's stack."""
        self._casts.append(self.clock.now)

    def record_delivery(self, sender: int, latency: float) -> None:
        """One workload payload from ``sender`` arrived at the observer."""
        self._deliveries.append((self.clock.now, sender, latency))

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def metric(self, name: str) -> Callable[[], float]:
        """A zero-argument callable for :class:`~repro.core.oracle.Oracle`."""
        if name not in SIGNALS:
            raise ScenarioError(
                f"unknown signal {name!r}; known: {sorted(SIGNALS)}"
            )
        return getattr(self, name)

    def value(self, name: str) -> float:
        """Read signal ``name`` right now."""
        return self.metric(name)()

    def active_senders(self) -> float:
        return float(sum(1 for sender in self.senders if sender.active))

    def delivering_senders(self) -> float:
        return float(len({entry[1] for entry in self._recent()}))

    def offered_rate(self) -> float:
        casts = self._casts
        horizon = self.clock.now - self.window
        while casts and casts[0] < horizon:
            casts.popleft()
        return len(casts) / self.window

    def delivered_rate(self) -> float:
        return len(self._recent()) / self.window

    def delivery_latency_ms(self) -> float:
        deliveries = self._recent()
        if not deliveries:
            return 0.0
        total = sum(latency for __, __, latency in deliveries)
        return total / len(deliveries) * 1e3

    def loss_ratio(self) -> float:
        """Drops / sends since the previous read (decayed when idle).

        Reading the network's cumulative counters differentially keeps
        the signal responsive: a lossy phase shows up within one poll,
        and a later clean phase pulls the ratio back down instead of
        averaging over the whole run.  When no copies were sent between
        reads the last ratio is retained.
        """
        if self.network is None:
            raise ScenarioError(
                "loss_ratio needs a simulated network with drop counters"
            )
        sends = self.network.stats.get("sends")
        drops = self.network.stats.get("drops")
        delta_sends = sends - self._last_sends
        delta_drops = drops - self._last_drops
        if delta_sends > 0:
            self._loss_ratio = delta_drops / delta_sends
            self._last_sends = sends
            self._last_drops = drops
        return self._loss_ratio

    # ------------------------------------------------------------------
    def _recent(self) -> Deque[Tuple[float, int, float]]:
        """The delivery window, with entries older than it dropped."""
        deliveries = self._deliveries
        horizon = self.clock.now - self.window
        while deliveries and deliveries[0][0] < horizon:
            deliveries.popleft()
        return deliveries
