"""Switching oracles: deciding *when* to switch.

"We assume that some kind of oracle decides when a switch is necessary"
(§1) — which protocol is best is an orthogonal problem to preserving
properties under switching.  This module supplies the oracle interface
plus the policies the paper's use cases call for:

* :class:`ThresholdOracle` — the naive policy: one threshold on a load
  metric.  §7 reports that switching this aggressively makes the hybrid
  *oscillate* around the crossover.
* :class:`HysteresisOracle` — the paper's fix: separate up/down
  thresholds plus a minimum dwell time between switches.
* :class:`ScheduledOracle` — switch at predetermined times (the on-line
  upgrade use case: swap protocols without restarting applications).
* :class:`ManualOracle` — externally triggered (the security use case:
  escalate when the intrusion detector fires, "or when it gets close to
  April 1st").

:class:`AdaptiveController` is the one loop that polls them: it turns
each group's decisions into switch requests and records every one as a
:class:`DecisionRecord` carrying the signal it acted on.
:class:`FleetOracle` is that loop with a per-group hysteresis policy.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import SwitchError
from ..runtime.api import Runtime, TimerHandle

if TYPE_CHECKING:
    from .switchable import GroupHandle

__all__ = [
    "Oracle",
    "CompositeOracle",
    "ThresholdOracle",
    "HysteresisOracle",
    "ScheduledOracle",
    "ManualOracle",
    "RateMeter",
    "DecisionRecord",
    "AdaptiveController",
    "FleetOracle",
]


class Oracle(ABC):
    """Decides which protocol should be running."""

    #: The metric value the last :meth:`decide` sampled (None for
    #: policies that sample no metric).
    signal: Optional[float] = None

    @abstractmethod
    def decide(self, now: float, current: str) -> Optional[str]:
        """Return the protocol to switch to, or None to stay put.

        Called periodically by the :class:`AdaptiveController` with the
        runtime's time and the currently-running protocol's name.
        """


class ThresholdOracle(Oracle):
    """Single-threshold policy: aggressive, oscillation-prone.

    Args:
        metric: zero-argument callable returning the current load signal
            (e.g. ``SignalTracker.delivering_senders``).
        threshold: values strictly above select ``high_protocol``.
        low_protocol / high_protocol: protocol names per regime.
    """

    def __init__(
        self,
        metric: Callable[[], float],
        threshold: float,
        low_protocol: str,
        high_protocol: str,
    ) -> None:
        self.metric = metric
        self.threshold = threshold
        self.low_protocol = low_protocol
        self.high_protocol = high_protocol

    def decide(self, now: float, current: str) -> Optional[str]:
        value = self.signal = self.metric()
        target = self.high_protocol if value > self.threshold else self.low_protocol
        return target if target != current else None


class HysteresisOracle(Oracle):
    """Two thresholds plus dwell time: the §7 oscillation fix.

    Switches up only above ``high_threshold``, down only below
    ``low_threshold``, and never within ``min_dwell`` seconds of its last
    decision.

    ``low_threshold=None`` makes the oracle *latching*: it can escalate
    to ``high_protocol`` but never returns on its own.  The scenario
    catalog uses this for drift that should trigger exactly one switch
    (e.g. escalating loss) without the signal's recovery flapping the
    group back.
    """

    def __init__(
        self,
        metric: Callable[[], float],
        low_threshold: Optional[float],
        high_threshold: float,
        low_protocol: str,
        high_protocol: str,
        min_dwell: float = 0.0,
    ) -> None:
        if low_threshold is not None and low_threshold > high_threshold:
            raise SwitchError(
                f"hysteresis band inverted: {low_threshold} > {high_threshold}"
            )
        if min_dwell < 0:
            raise SwitchError("min_dwell must be non-negative")
        self.metric = metric
        self.low_threshold = low_threshold
        self.high_threshold = high_threshold
        self.low_protocol = low_protocol
        self.high_protocol = high_protocol
        self.min_dwell = min_dwell
        self._last_decision_at: Optional[float] = None

    def decide(self, now: float, current: str) -> Optional[str]:
        if (
            self._last_decision_at is not None
            and now - self._last_decision_at < self.min_dwell
        ):
            return None
        value = self.signal = self.metric()
        target: Optional[str] = None
        if value > self.high_threshold and current != self.high_protocol:
            target = self.high_protocol
        elif (
            self.low_threshold is not None
            and value < self.low_threshold
            and current != self.low_protocol
        ):
            target = self.low_protocol
        if target is not None:
            self._last_decision_at = now
        return target


class ScheduledOracle(Oracle):
    """Switch to given protocols at given times (on-line upgrade)."""

    def __init__(self, schedule: Sequence[Tuple[float, str]]) -> None:
        self._schedule: List[Tuple[float, str]] = sorted(schedule)

    def decide(self, now: float, current: str) -> Optional[str]:
        due: Optional[str] = None
        while self._schedule and self._schedule[0][0] <= now:
            due = self._schedule.pop(0)[1]
        if due is not None and due != current:
            return due
        return None

    @property
    def remaining(self) -> int:
        return len(self._schedule)


class CompositeOracle(Oracle):
    """Priority composition of oracles.

    The paper's §1 lists three concurrent reasons to switch —
    performance, on-line upgrading, and security.  A real deployment has
    all of them at once; this oracle consults its children in priority
    order and returns the first decision.  Put the security oracle first:
    an escalation must not be overridden by a performance tweak.
    """

    def __init__(self, oracles: Sequence[Oracle]) -> None:
        if not oracles:
            raise SwitchError("composite oracle needs at least one child")
        self.oracles = list(oracles)

    def decide(self, now: float, current: str) -> Optional[str]:
        """First non-None child decision, in priority order."""
        for oracle in self.oracles:
            target = oracle.decide(now, current)
            if target is not None:
                self.signal = oracle.signal
                return target
        return None


class RateMeter:
    """Turns a monotonically increasing counter into a rate signal.

    Each call reads the counter, diffs it against the previous reading,
    and returns the change per second of clock time.  This is how the
    fleet oracle derives per-group message rates from cumulative
    per-group delivery counts without anything windowing them.

    Args:
        clock: zero-argument callable returning the current time (use the
            runtime clock, so the meter works identically on the
            simulator and on wall time).
        read: zero-argument callable returning the cumulative count.
    """

    def __init__(
        self, clock: Callable[[], float], read: Callable[[], float]
    ) -> None:
        self.clock = clock
        self.read = read
        self._last_time = clock()
        self._last_value = read()

    def __call__(self) -> float:
        now = self.clock()
        value = self.read()
        elapsed = now - self._last_time
        if elapsed <= 0:
            # Same-instant poll (routine on the simulator, where many
            # timers share one tick): no window to rate over.  Keep the
            # baselines — advancing them here would swallow every count
            # accrued since the last real poll, under-reporting the
            # next window's rate.
            return 0.0
        rate = (value - self._last_value) / elapsed
        self._last_time = now
        self._last_value = value
        return rate


class DecisionRecord:
    """One oracle decision, annotated with its justification.

    ``signal`` is the metric value the deciding oracle actually sampled
    (None for policies that sample none: scheduled, manual);
    ``snapshot`` is whatever the wired telemetry plane reported for the
    group at decision time (None when no plane is attached) — together
    they make every switch request explainable from live data.
    """

    __slots__ = ("time", "group_id", "current", "target", "signal", "snapshot")

    def __init__(
        self,
        time: float,
        group_id: int,
        current: str,
        target: str,
        signal: Optional[float],
        snapshot: Optional[Dict[str, object]],
    ) -> None:
        self.time = time
        self.group_id = group_id
        self.current = current
        self.target = target
        self.signal = signal
        self.snapshot = snapshot

    def as_dict(self) -> Dict[str, object]:
        return {
            "time": self.time,
            "group_id": self.group_id,
            "from": self.current,
            "to": self.target,
            "signal": self.signal,
            "snapshot": self.snapshot,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DecisionRecord g{self.group_id} {self.current}->{self.target} "
            f"t={self.time:.3f} signal={self.signal}>"
        )


class AdaptiveController:
    """The decision loop: SP + oracle = "the best of both worlds" (§7).

    Watches ``{group_id: (GroupHandle, Oracle)}``.  Each :meth:`poll`
    asks every started group's oracle for a decision — skipping a group
    whose coordinator is mid-switch, so one drift is decided once —
    appends a :class:`DecisionRecord` to :attr:`decisions`, fires
    :attr:`on_decision`, and requests the switch at the group's
    coordinator.  A single group is a fleet of one: the §7 hybrid, the
    oscillation experiment and the scenario runner each watch one
    handle, and :class:`FleetOracle` watches a whole fleet.  The
    decision history is what the §7 oscillation/hysteresis benchmark
    reports.
    """

    def __init__(self) -> None:
        self._groups: Dict[int, Tuple["GroupHandle", Oracle]] = {}
        self._timer: Optional[TimerHandle] = None
        #: Optional ``provider(group_id) -> dict``: the live telemetry
        #: snapshot to annotate each decision with (a plane wires this).
        self.snapshot_provider: Optional[
            Callable[[int], Dict[str, object]]
        ] = None
        #: Optional observer fired with every :class:`DecisionRecord`.
        self.on_decision: Optional[Callable[[DecisionRecord], None]] = None
        #: Every decision made, in order, with its justification.
        self.decisions: List[DecisionRecord] = []

    def watch(self, handle: "GroupHandle", oracle: Oracle) -> None:
        """Begin deciding for ``handle``'s group with ``oracle``
        (idempotent: a watched group keeps its oracle)."""
        self._groups.setdefault(handle.group_id, (handle, oracle))

    def unwatch(self, group_id: int) -> None:
        """Stop deciding for ``group_id`` (teardown; unknown ids tolerated)."""
        self._groups.pop(group_id, None)

    @property
    def watched(self) -> Tuple[int, ...]:
        return tuple(self._groups)

    def poll(self) -> Dict[int, str]:
        """One pass over the watched groups; returns {group_id: target}
        for the switches requested."""
        requested: Dict[int, str] = {}
        for group_id, (handle, oracle) in self._groups.items():
            if handle.state != "started":
                continue
            stack = handle.stacks[handle.group.coordinator]
            if stack.switching:
                continue
            now = stack.ctx.now
            current = stack.current_protocol
            target = oracle.decide(now, current)
            if target is None or target == current:
                continue
            snapshot = (
                self.snapshot_provider(group_id)
                if self.snapshot_provider is not None
                else None
            )
            record = DecisionRecord(
                now, group_id, current, target, oracle.signal, snapshot
            )
            self.decisions.append(record)
            if self.on_decision is not None:
                self.on_decision(record)
            handle.request_switch(target)
            requested[group_id] = target
        return requested

    def start(self, runtime: Runtime, interval: float) -> None:
        """Poll every ``interval`` seconds of ``runtime`` until stopped.

        Restart-safe: calling again (a shard restart re-arming its
        control loop) cancels the previous chain's pending timer first,
        so exactly one poll chain is ever live — repeated start/stop
        cycles leave no orphaned timers behind.
        """
        if interval <= 0:
            raise SwitchError("poll interval must be positive")
        self.stop()

        def tick() -> None:
            fired = self._timer
            self.poll()
            if self._timer is fired:  # not stopped or restarted meanwhile
                self._timer = runtime.schedule(interval, tick)

        self._timer = runtime.schedule(interval, tick)

    def stop(self) -> None:
        """Stop the poll chain (idempotent) and cancel its armed timer."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None


class FleetOracle(AdaptiveController):
    """The decision loop with the fleet's default per-group policy.

    Each watched group gets its own :class:`HysteresisOracle`, fed its
    own per-group load signal (typically a :class:`RateMeter` over the
    group-labelled delivery counter).  Hot groups cross the high
    threshold and escalate; cold groups never do.  With the default
    ``low_threshold=None`` the per-group policy is latching: a group
    switches up at most once and a hot signal cooling off does not flap
    it back.

    Args:
        metric_factory: ``metric_factory(group_id)`` returns the
            zero-argument load signal for that group.
        high_threshold: signal above this escalates to ``high_protocol``.
        low_protocol / high_protocol: protocol names per regime.
        low_threshold: de-escalation threshold; ``None`` (default) latches.
        min_dwell: minimum seconds between decisions for one group.

    Wiring a telemetry plane (``plane.attach_oracle(oracle)``) sets
    :attr:`snapshot_provider` so each record also carries the group
    snapshot that justified it, and :attr:`on_decision` so the plane
    can start its time-to-switch stopwatch.
    """

    def __init__(
        self,
        metric_factory: Callable[[int], Callable[[], float]],
        high_threshold: float,
        low_protocol: str,
        high_protocol: str,
        low_threshold: Optional[float] = None,
        min_dwell: float = 0.0,
    ) -> None:
        super().__init__()
        self.metric_factory = metric_factory
        self.high_threshold = high_threshold
        self.low_threshold = low_threshold
        self.low_protocol = low_protocol
        self.high_protocol = high_protocol
        self.min_dwell = min_dwell

    def watch(self, handle: "GroupHandle") -> None:  # type: ignore[override]
        """Begin deciding for ``handle``'s group (idempotent) with its own
        :class:`HysteresisOracle` over ``metric_factory(group_id)``."""
        if handle.group_id in self._groups:
            return
        super().watch(
            handle,
            HysteresisOracle(
                self.metric_factory(handle.group_id),
                self.low_threshold,
                self.high_threshold,
                self.low_protocol,
                self.high_protocol,
                min_dwell=self.min_dwell,
            ),
        )


class ManualOracle(Oracle):
    """Externally triggered switching (security escalation)."""

    def __init__(self) -> None:
        self._target: Optional[str] = None

    def escalate(self, target: str) -> None:
        """Request a switch to ``target`` at the next poll."""
        self._target = target

    def decide(self, now: float, current: str) -> Optional[str]:
        target, self._target = self._target, None
        if target is not None and target != current:
            return target
        return None
