"""The per-group aggregation pipeline: windowed fleet snapshots.

:class:`TelemetryPlane` is the live layer between the raw obs bus and
anything that wants to *watch* a fleet: it rolls per-group counts into
fixed-length windows on the runtime's clock, keeps a bounded history of
windows per group, folds a fleet-wide rollup (delivered msgs/s, switch
counts, stray-group drops, sequencer-pool occupancy) every window, and
feeds the :class:`~repro.obs.telemetry.slo.SLOEngine` and
:class:`~repro.obs.telemetry.recorder.FlightRecorder` as it goes.

Memory is bounded per group by construction: a handful of window
accumulators, one capped raw-sample latency buffer per open window
(exact quantiles are computed once, at roll time — appending a float is
far cheaper per delivery than folding a histogram, which is what keeps
the plane inside its overhead budget), and a ``deque(maxlen=history)``
of rolled windows.  Watching 1000 groups costs ~1000x a small
constant, never ~messages.

Hook sites (the fleet runner wires these; any harness can):

* ``cast_hook(gid)`` / ``delivery_hook(gid)`` — per message: each
  returns a closure bound to the group's accumulators, called as
  ``note()`` per cast and ``note(latency_s)`` per delivery.
* ``attach_oracle(oracle)`` — decisions are annotated with the group's
  snapshot (the "why" of every escalation) and start the time-to-switch
  stopwatch; ``note_switch`` stops it.
* ``note_switch(gid, old, new)`` / ``note_abort(gid, reason, phase)`` —
  switch lifecycle; aborts freeze the flight recorder.
* ``attach_manager(manager)`` — the fleet rollup reads stray-group
  drops off the manager's ports and occupancy off its sequencer pool,
  and dirty teardowns freeze the recorder.

Under sim, :meth:`snapshot` / :meth:`prometheus` are the poll API; the
asyncio runtime additionally serves them over HTTP
(:class:`~repro.obs.telemetry.expo.TelemetryServer`).  A snapshot is a
:class:`TelemetrySnapshot`: the records below are the one declaration
of its JSON, which :func:`repro.records.load` reads back closed.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence

from ...core.oracle import DecisionRecord
from ...errors import TelemetryError
from ...records import dump
from ...sim.monitor import quantile
from ..bus import Bus
from .recorder import FlightRecorder, RingEntry
from .slo import SLOEngine, SLORollup, SLOStatus, SLOTarget

__all__ = [
    "WINDOW_SAMPLE_CAP",
    "FleetView",
    "FleetWindow",
    "GroupView",
    "Pool",
    "TelemetryConfig",
    "TelemetryPlane",
    "TelemetrySnapshot",
]

#: Latency samples retained per group per open window.  At paper-scale
#: hot rates (~300 deliveries/s, 1 s windows) a window holds a few
#: hundred samples; the cap only engages under pathological rates, where
#: overflow samples still count as deliveries but drop out of that
#: window's quantile estimate.
WINDOW_SAMPLE_CAP = 4096


#: Escalation-record storage cap: latching fleets record at most one
#: per group, so hitting this means a flapping oracle, not normal load.
MAX_ESCALATIONS = 10_000


class TelemetryConfig:
    """Shape of one telemetry plane.

    Args:
        window: aggregation window length, in runtime seconds.
        history: rolled windows retained per group (and fleet-wide).
        recorder_capacity: flight-recorder ring size per group.
        slos: declarative :class:`SLOTarget` budgets (may be empty).
    """

    __slots__ = ("window", "history", "recorder_capacity", "slos")

    def __init__(
        self,
        window: float = 1.0,
        history: int = 60,
        recorder_capacity: int = 64,
        slos: Sequence[SLOTarget] = (),
    ) -> None:
        if window <= 0.0:
            raise TelemetryError("telemetry window must be positive")
        if history < 1:
            raise TelemetryError("telemetry history must be >= 1")
        self.window = float(window)
        self.history = int(history)
        self.recorder_capacity = int(recorder_capacity)
        self.slos = tuple(slos)


class _GroupState:
    """One group's accumulators: open window + bounded history + totals."""

    __slots__ = (
        "gid",
        "members",
        "hot",
        "protocol_reader",
        "sequencer",
        "win_casts",
        "win_delivered",
        "win_latency",
        "win_switches",
        "win_aborts",
        "win_max_switch",
        "casts",
        "delivered",
        "switches",
        "aborts",
        "switch_requested_at",
        "last_switch_s",
        "windows",
        "torn_down",
    )

    def __init__(
        self,
        gid: int,
        members: int,
        hot: Optional[bool],
        protocol_reader: Optional[Callable[[], str]],
        sequencer: Optional[int],
        history: int,
    ) -> None:
        self.gid = gid
        self.members = members
        self.hot = hot
        self.protocol_reader = protocol_reader
        self.sequencer = sequencer
        self.win_casts = 0
        self.win_delivered = 0
        self.win_latency: List[float] = []
        self.win_switches = 0
        self.win_aborts = 0
        self.win_max_switch: Optional[float] = None
        self.casts = 0
        self.delivered = 0
        self.switches = 0
        self.aborts = 0
        self.switch_requested_at: Optional[float] = None
        self.last_switch_s: Optional[float] = None
        self.windows: Deque[Dict[str, Any]] = deque(maxlen=history)
        self.torn_down = False

    def protocol(self) -> Optional[str]:
        reader = self.protocol_reader
        return reader() if reader is not None else None


@dataclass
class Pool:
    """Sequencer-pool occupancy: assignments per node rank."""

    nodes: int
    loads: Dict[int, int]
    min: int
    max: int

    @classmethod
    def of(cls, loads: Dict[int, int]) -> "Pool":
        values = loads.values()
        return cls(
            len(loads),
            dict(sorted(loads.items())),
            min(values, default=0),
            max(values, default=0),
        )


@dataclass
class FleetWindow:
    """One rolled fleet-wide window: counts over ``window_s`` ending at
    ``t``."""

    t: float
    window_s: float
    groups: int
    casts: int
    delivered: int
    rate: float
    switches: int
    aborts: int
    strays: int


@dataclass
class GroupView:
    """One group's totals, its last rolled window's rate and latency,
    and its SLO verdict."""

    group: int
    hot: Optional[bool]
    protocol: Optional[str]
    sequencer: Optional[int]
    members: int
    torn_down: bool
    casts: int
    delivered: int
    rate: float
    p50_ms: Optional[float]
    p99_ms: Optional[float]
    switches: int
    aborts: int
    last_switch_s: Optional[float]
    slo: SLOStatus


@dataclass
class FleetView:
    """The fleet rollup: totals, clocks, the last window's rate, the
    sequencer pool, SLOs and the bus's counters."""

    time: float
    uptime_s: float
    window_s: float
    windows_rolled: int
    groups: int
    casts: int
    delivered: int
    rate: float
    rate_cumulative: float
    switches: int
    aborts: int
    strays: int
    pool: Pool
    escalations: int
    captures: int
    slo: SLORollup
    counters: Dict[str, int]


@dataclass
class TelemetrySnapshot:
    """The fleet rollup, every watched group by id, and the rolled fleet
    window history, oldest first."""

    fleet: FleetView
    groups: Dict[int, GroupView]
    fleet_windows: List[FleetWindow]


class TelemetryPlane:
    """Windowed per-group + fleet-wide aggregation over one runtime clock."""

    def __init__(
        self,
        runtime: Any,
        bus: Bus,
        config: Optional[TelemetryConfig] = None,
    ) -> None:
        self.runtime = runtime
        self.bus = bus
        self.config = config or TelemetryConfig()
        self.slo = SLOEngine(self.config.slos, bus=bus)
        self.recorder = FlightRecorder(capacity=self.config.recorder_capacity)
        self.recorder.attach(bus)
        self.escalations: List[DecisionRecord] = []
        self.escalations_dropped = 0
        self.started_at = runtime.now
        self._groups: Dict[int, _GroupState] = {}
        self._fleet_windows: Deque[FleetWindow] = deque(
            maxlen=self.config.history
        )
        self._manager: Any = None
        self._running = False
        self._timer: Any = None

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def watch_group(
        self,
        gid: int,
        members: int = 0,
        hot: Optional[bool] = None,
        protocol: Optional[Callable[[], str]] = None,
        sequencer: Optional[int] = None,
    ) -> None:
        """Begin aggregating for ``gid`` (idempotent)."""
        if gid not in self._groups:
            self._groups[gid] = _GroupState(
                gid, members, hot, protocol, sequencer, self.config.history
            )

    def attach_manager(self, manager: Any) -> None:
        """Read stray drops + pool occupancy off a GroupManager; freeze
        the flight recorder when one of its teardowns is dirty."""
        self._manager = manager
        manager.on_teardown(self._on_teardown)

    def attach_oracle(self, oracle: Any) -> None:
        """Annotate the oracle's decisions with the justifying snapshot
        and start the per-group time-to-switch stopwatch on each one."""
        oracle.snapshot_provider = self.justification
        oracle.on_decision = self._on_decision

    # ------------------------------------------------------------------
    # Note hooks (the hot ones: integer bumps + one sample append)
    # ------------------------------------------------------------------
    def cast_hook(self, gid: int) -> Callable[[], None]:
        """A closure counting one cast of watched group ``gid``.

        The returned closure captures the group's accumulator directly —
        no per-message dict lookup, no method dispatch — which is what
        keeps the plane inside its overhead budget on the send path.
        """
        state = self._groups[gid]

        def note() -> None:
            state.win_casts += 1
            state.casts += 1

        return note

    def delivery_hook(self, gid: int) -> Callable[[Optional[float]], None]:
        """A closure counting one delivery of watched group ``gid``, with
        its latency in seconds when known."""
        state = self._groups[gid]

        def note(latency_s: Optional[float] = None) -> None:
            state.win_delivered += 1
            state.delivered += 1
            if latency_s is not None and latency_s >= 0.0:
                samples = state.win_latency
                if len(samples) < WINDOW_SAMPLE_CAP:
                    samples.append(latency_s)

        return note

    def note_escalation(self, gid: int) -> None:
        """Start the time-to-switch stopwatch (oracle attach does this)."""
        state = self._groups.get(gid)
        if state is not None:
            state.switch_requested_at = self.runtime.now

    def note_switch(
        self, gid: int, old: Optional[str] = None, new: Optional[str] = None
    ) -> None:
        """A switch completed at the group's coordinator."""
        state = self._groups.get(gid)
        if state is None:
            return
        now = self.runtime.now
        state.win_switches += 1
        state.switches += 1
        duration: Optional[float] = None
        if state.switch_requested_at is not None:
            duration = max(0.0, now - state.switch_requested_at)
            state.switch_requested_at = None
            state.last_switch_s = duration
            if state.win_max_switch is None or duration > state.win_max_switch:
                state.win_max_switch = duration
        self.recorder.record(
            gid,
            RingEntry(
                now,
                "switch/complete",
                "i",
                args={"old": old, "new": new, "duration_s": duration},
            ),
        )

    def note_abort(self, gid: int, reason: str = "", phase: str = "") -> None:
        """A switch aborted; ring it and freeze the black box."""
        state = self._groups.get(gid)
        if state is None:
            return
        now = self.runtime.now
        state.win_aborts += 1
        state.aborts += 1
        state.switch_requested_at = None
        self.recorder.record(
            gid,
            RingEntry(
                now, "switch/abort", "i", args={"reason": reason, "phase": phase}
            ),
        )
        self.recorder.freeze(gid, "switch_abort", time=now, detail=reason or None)

    # ------------------------------------------------------------------
    # Oracle + manager callbacks
    # ------------------------------------------------------------------
    def justification(self, gid: int) -> Dict[str, Any]:
        """The live snapshot an oracle decision is judged against: the
        last rolled window plus the open window's partial counts."""
        snap = dump(self.group_snapshot(gid))
        state = self._groups.get(gid)
        if state is not None:
            snap["window_partial"] = {
                "casts": state.win_casts,
                "delivered": state.win_delivered,
            }
        return snap

    def _on_decision(self, record: DecisionRecord) -> None:
        gid = record.group_id
        self.note_escalation(gid)
        self.recorder.record(
            gid,
            RingEntry(
                record.time,
                "oracle/decision",
                "i",
                args={
                    "from": record.current,
                    "to": record.target,
                    "signal": record.signal,
                },
            ),
        )
        if len(self.escalations) < MAX_ESCALATIONS:
            self.escalations.append(record)
        else:
            self.escalations_dropped += 1

    def _on_teardown(self, gid: int, dirty: bool) -> None:
        state = self._groups.get(gid)
        if state is None:
            return
        state.torn_down = True
        self.recorder.record(
            gid,
            RingEntry(
                self.runtime.now, "group/teardown", "i", args={"dirty": dirty}
            ),
        )
        if dirty:
            self.recorder.freeze(
                gid, "dirty_teardown", time=self.runtime.now
            )

    # ------------------------------------------------------------------
    # Window rolling
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the repeating window-roll timer on the runtime."""
        if self._running:
            return
        self._running = True

        def tick() -> None:
            if not self._running:
                return
            self.roll()
            self._timer = self.runtime.schedule(self.config.window, tick)

        self._timer = self.runtime.schedule(self.config.window, tick)

    def stop(self) -> None:
        self._running = False
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _roll_group(self, state: _GroupState, now: float) -> Dict[str, Any]:
        samples = state.win_latency
        casts = state.win_casts
        delivered = state.win_delivered
        # One sample is not a distribution: quantiles need >= 2, the
        # same contract as Histogram.quantile.
        if len(samples) >= 2:
            samples.sort()
            p50: Optional[float] = quantile(samples, 0.50) * 1e3
            p99: Optional[float] = quantile(samples, 0.99) * 1e3
        else:
            p50 = p99 = None
        window: Dict[str, Any] = {
            "t": now,
            "window_s": self.config.window,
            "casts": casts,
            "delivered": delivered,
            "rate": delivered / self.config.window,
            "p50_ms": p50,
            "p99_ms": p99,
            "switches": state.win_switches,
            "aborts": state.win_aborts,
            "max_switch_s": state.win_max_switch,
            "delivery_ratio": (
                delivered / (casts * state.members)
                if casts and state.members
                else None
            ),
        }
        state.windows.append(window)
        self.recorder.record(
            state.gid, RingEntry(now, "telemetry/window", "w", args=window)
        )
        state.win_casts = 0
        state.win_delivered = 0
        state.win_latency = []
        state.win_switches = 0
        state.win_aborts = 0
        state.win_max_switch = None
        for name in self.slo.evaluate(state.gid, window):
            self.recorder.freeze(state.gid, f"slo:{name}", time=now)
        return window

    def roll(self) -> FleetWindow:
        """Close every group's open window and fold the fleet rollup.

        Called by the armed timer every ``window`` seconds; callers may
        also invoke it directly (the sim poll API, or a final flush).
        Returns the fleet window just rolled.
        """
        now = self.runtime.now
        delivered = casts = switches = aborts = 0
        rate = 0.0
        for state in self._groups.values():
            window = self._roll_group(state, now)
            delivered += window["delivered"]
            casts += window["casts"]
            switches += window["switches"]
            aborts += window["aborts"]
            rate += window["rate"]
        fleet_window = FleetWindow(
            t=now,
            window_s=self.config.window,
            groups=len(self._groups),
            casts=casts,
            delivered=delivered,
            rate=rate,
            switches=switches,
            aborts=aborts,
            strays=self._stray_drops(),
        )
        self._fleet_windows.append(fleet_window)
        return fleet_window

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def _stray_drops(self) -> int:
        if self._manager is None:
            return 0
        return sum(
            port.stats.get("stray_group")
            for port in self._manager.ports.values()
        )

    def group_windows(self, gid: int) -> List[Dict[str, Any]]:
        """The rolled window history for one group, oldest first."""
        state = self._groups.get(gid)
        return list(state.windows) if state is not None else []

    def group_snapshot(self, gid: int) -> GroupView:
        """One group's live view: totals + the last rolled window."""
        state = self._groups.get(gid)
        if state is None:
            raise TelemetryError(f"group {gid} is not watched")
        last = state.windows[-1] if state.windows else None
        return GroupView(
            group=gid,
            hot=state.hot,
            protocol=state.protocol(),
            sequencer=state.sequencer,
            members=state.members,
            torn_down=state.torn_down,
            casts=state.casts,
            delivered=state.delivered,
            rate=last["rate"] if last else 0.0,
            p50_ms=last["p50_ms"] if last else None,
            p99_ms=last["p99_ms"] if last else None,
            switches=state.switches,
            aborts=state.aborts,
            last_switch_s=state.last_switch_s,
            slo=self.slo.status(gid),
        )

    def snapshot(self) -> TelemetrySnapshot:
        """The full snapshot: fleet rollup + every group."""
        now = self.runtime.now
        uptime = max(0.0, now - self.started_at)
        groups = self._groups.values()
        delivered = sum(s.delivered for s in groups)
        last = self._fleet_windows[-1] if self._fleet_windows else None
        fleet = FleetView(
            time=now,
            uptime_s=uptime,
            window_s=self.config.window,
            windows_rolled=len(self._fleet_windows),
            groups=len(self._groups),
            casts=sum(s.casts for s in groups),
            delivered=delivered,
            rate=last.rate if last else 0.0,
            rate_cumulative=delivered / uptime if uptime > 0 else 0.0,
            switches=sum(s.switches for s in groups),
            aborts=sum(s.aborts for s in groups),
            strays=self._stray_drops(),
            pool=Pool.of(
                {} if self._manager is None else self._manager.pool.loads
            ),
            escalations=len(self.escalations),
            captures=len(self.recorder.captures),
            slo=self.slo.snapshot(),
            counters=self.bus.metrics.counters(),
        )
        return TelemetrySnapshot(
            fleet=fleet,
            groups={
                gid: self.group_snapshot(gid) for gid in sorted(self._groups)
            },
            fleet_windows=list(self._fleet_windows),
        )

    def prometheus(self) -> str:
        """The snapshot rendered in Prometheus text exposition format."""
        from .expo import render_prometheus

        return render_prometheus(self.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TelemetryPlane groups={len(self._groups)} "
            f"window={self.config.window}s running={self._running}>"
        )
