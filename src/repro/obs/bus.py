"""The instrumentation bus: structured events and clock-stamped spans.

One :class:`Bus` serves a whole run.  Producers — the switch protocols,
the stacks, the network models — hold a :class:`BusScope` (the bus plus
the producer's rank) and emit through it; consumers either subscribe live
or export the recorded event list afterwards (:mod:`repro.obs.export`).

Timestamps come from the :class:`~repro.runtime.api.Clock` interface, so
the same instrumentation yields deterministic virtual-time traces on
:class:`~repro.runtime.sim_runtime.SimRuntime` and wall-clock traces on
:class:`~repro.runtime.aio.AsyncioRuntime` without a single call-site
changing.

**The disabled fast path is the contract.**  Instrumentation ships
enabled in the code but *off* in every default configuration: the
process-wide default bus (:func:`default_bus`) is disabled, and a
disabled bus records no events, updates no metrics, and invokes no
subscribers.  Hot call sites guard with ``if obs.enabled:`` before
building keyword arguments, so a disabled run allocates nothing on the
instrumented paths.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from .metrics import Counter, MetricsRegistry

__all__ = [
    "Bus",
    "BusScope",
    "Event",
    "PhaseTracker",
    "Span",
    "default_bus",
    "null_scope",
    "set_default_bus",
]

#: Event kinds, matching the Chrome trace-event phase letters they map to.
INSTANT = "i"
COMPLETE = "X"


class Event:
    """One recorded instrumentation event.

    Attributes:
        name: hierarchical event name (e.g. ``"switch/prepare"``).
        kind: :data:`INSTANT` or :data:`COMPLETE` (a finished span).
        time: clock timestamp (span start time for complete spans).
        rank: producing process rank, or None for global producers.
        dur: span duration in clock seconds (0.0 for instants).
        args: free-form JSON-able payload.
    """

    __slots__ = ("name", "kind", "time", "rank", "dur", "args")

    def __init__(
        self,
        name: str,
        kind: str,
        time: float,
        rank: Optional[int],
        dur: float = 0.0,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.name = name
        self.kind = kind
        self.time = time
        self.rank = rank
        self.dur = dur
        self.args = args or {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = f"r{self.rank}" if self.rank is not None else "global"
        return f"<Event {self.name} {self.kind} t={self.time:.6f} {where}>"


class Span:
    """An open span; :meth:`end` records it as one complete event."""

    __slots__ = ("_bus", "name", "rank", "start", "args", "_ended")

    def __init__(
        self,
        bus: "Bus",
        name: str,
        rank: Optional[int],
        start: float,
        args: Dict[str, Any],
    ) -> None:
        self._bus = bus
        self.name = name
        self.rank = rank
        self.start = start
        self.args = args
        self._ended = False

    def annotate(self, **extra: Any) -> "Span":
        """Attach extra args to the eventual event."""
        self.args.update(extra)
        return self

    def end(self, **extra: Any) -> float:
        """Close the span; returns its duration.  Idempotent."""
        if self._ended:
            return 0.0
        self._ended = True
        if extra:
            self.args.update(extra)
        end_time = self._bus.now
        dur = max(0.0, end_time - self.start)
        self._bus._append(
            Event(self.name, COMPLETE, self.start, self.rank, dur, self.args)
        )
        return dur

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.end()


class _NullSpan:
    """The span handed out by a disabled bus: every method is a no-op."""

    __slots__ = ()

    def annotate(self, **extra: Any) -> "_NullSpan":
        return self

    def end(self, **extra: Any) -> float:
        return 0.0

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        return None


NULL_SPAN = _NullSpan()


class Bus:
    """Collects events and metrics for one run.

    Args:
        clock: time source for stamps (anything with ``.now``); without
            one, every event is stamped 0.0 — fine for unit tests, wrong
            for real traces.
        enabled: master switch.  Disabled buses record nothing.
        max_events: optional cap on *retained* events; once reached, new
            events are dropped from the recorded list (counted in the
            ``obs.events_dropped`` metric) instead of growing without
            bound.  Live subscribers still see every event — retention
            bounds memory, it does not mute the stream, so a
            ``max_events=0`` bus is a pure pub/sub + metrics plane.
    """

    def __init__(
        self,
        clock: Optional[Any] = None,
        enabled: bool = True,
        max_events: Optional[int] = None,
    ) -> None:
        self.clock = clock
        self.enabled = enabled
        self.max_events = max_events
        self.metrics = MetricsRegistry()
        self.events: List[Event] = []
        self._subscribers: List[Callable[[Event], None]] = []

    # ------------------------------------------------------------------
    # Time
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        clock = self.clock
        return clock.now if clock is not None else 0.0

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def emit(
        self, name: str, rank: Optional[int] = None, **args: Any
    ) -> None:
        """Record one instant event (no-op when disabled)."""
        if not self.enabled:
            return
        self._append(Event(name, INSTANT, self.now, rank, 0.0, args))

    def span(self, name: str, rank: Optional[int] = None, **args: Any):
        """Open a span (records on ``end``); a no-op span when disabled."""
        if not self.enabled:
            return NULL_SPAN
        return Span(self, name, rank, self.now, args)

    def count(self, name: str, amount: int = 1) -> None:
        """Bump one of the bus's own counters (no-op when disabled)."""
        if self.enabled:
            self.metrics.incr(name, amount)

    def gauge(self, name: str, value: float) -> None:
        """Record the latest value of a gauge (no-op when disabled)."""
        if self.enabled:
            self.metrics.set_gauge(name, value, self.now)

    def observe(self, name: str, value: float) -> None:
        """Fold a sample into a metrics histogram (no-op when disabled)."""
        if self.enabled:
            self.metrics.observe(name, value)

    def _append(self, event: Event) -> None:
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.count("obs.events_dropped")
        else:
            self.events.append(event)
        for subscriber in self._subscribers:
            subscriber(event)

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    def subscribe(self, callback: Callable[[Event], None]) -> None:
        """``callback(event)`` fires for every event recorded live."""
        self._subscribers.append(callback)

    def clear(self) -> None:
        """Discard events, metrics and attachments (subscribers stay)."""
        self.events.clear()
        self.metrics.clear()

    # ------------------------------------------------------------------
    # Scoping
    # ------------------------------------------------------------------
    def scoped(
        self, rank: Optional[int], group: Optional[int] = None
    ) -> "BusScope":
        """A producer handle that stamps every event with ``rank``.

        ``group`` labels the scope with a fleet group id: metric names
        gain a ``[g<id>]`` suffix and events a ``group`` arg, so one bus
        can keep thousands of groups' signals apart.  ``None`` (the
        single-group default) leaves names untouched.
        """
        return BusScope(self, rank, group)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "enabled" if self.enabled else "disabled"
        return f"<Bus {state} events={len(self.events)}>"


class BusScope:
    """A (bus, rank[, group]) tuple: the handle instrumented code holds.

    Components count in their own ``stats`` and :meth:`attach` it once;
    counters and histograms aggregate across ranks (one group-wide
    number); gauges are per-producer state, so :meth:`gauge` qualifies
    the metric name with the rank (``name[r2]``).

    A group-labelled scope (``group`` not None) additionally suffixes
    every metric name with ``[g<id>]`` and stamps events with a
    ``group`` arg, so per-group signals stay separable on a shared bus.
    The unlabelled path is byte-for-byte the pre-fleet behaviour.
    """

    __slots__ = ("bus", "rank", "group", "_suffix")

    def __init__(
        self, bus: Bus, rank: Optional[int], group: Optional[int] = None
    ) -> None:
        self.bus = bus
        self.rank = rank
        self.group = group
        self._suffix = "" if group is None else f"[g{group}]"

    @property
    def enabled(self) -> bool:
        return self.bus.enabled

    def emit(self, name: str, **args: Any) -> None:
        if self.group is not None:
            args.setdefault("group", self.group)
        self.bus.emit(name, rank=self.rank, **args)

    def span(self, name: str, **args: Any):
        if self.group is not None:
            args.setdefault("group", self.group)
        return self.bus.span(name, rank=self.rank, **args)

    def attach(self, prefix: str, stats: Counter) -> None:
        """Publish ``stats`` as the counters ``<prefix>.<key>`` (no-op on
        a disabled bus, so the process-wide default keeps no owners)."""
        if self.bus.enabled:
            self.bus.metrics.attach(prefix, stats, self._suffix)

    def gauge(self, name: str, value: float) -> None:
        if self.rank is not None:
            name = f"{name}[r{self.rank}]"
        if self._suffix:
            name += self._suffix
        self.bus.gauge(name, value)

    def observe(self, name: str, value: float) -> None:
        if self._suffix:
            name += self._suffix
        self.bus.observe(name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<BusScope rank={self.rank} group={self.group} of {self.bus!r}>"


class PhaseTracker:
    """Span bookkeeping for one switch choreography at one member.

    Every SP variant shares the same phase shape — a total span from
    initiation to global completion, subdivided into PREPARE / SWITCH /
    FLUSH — so the span plumbing lives here once.  Phase durations are
    also folded into ``switch.phase.<name>_s`` histograms and the total
    into ``switch.duration_s``, which is where the BENCH artifacts and
    the CLI pretty-printer get their switch-timing breakdowns.

    All methods are safe no-ops on a disabled bus, and tolerate joining
    mid-choreography (a takeover member opens its first span at the
    phase it learned about).
    """

    __slots__ = ("obs", "_total", "_phase", "_phase_name")

    def __init__(self, obs: BusScope) -> None:
        self.obs = obs
        self._total: Optional[Span] = None
        self._phase: Optional[Span] = None
        self._phase_name: Optional[str] = None

    def begin(self, switch_id: Tuple[int, int], old: str, new: str) -> None:
        """The member became the initiator: open total + PREPARE spans."""
        obs = self.obs
        if not obs.enabled:
            return
        self._total = obs.span(
            "switch/total", switch=list(switch_id), old=old, new=new
        )
        self._open_phase(switch_id, "prepare")

    def phase(self, switch_id: Tuple[int, int], name: str) -> None:
        """Advance to phase ``name``, closing the current phase span."""
        obs = self.obs
        if not obs.enabled:
            return
        self._close_phase()
        self._open_phase(switch_id, name)

    def complete(self, switch_id: Tuple[int, int], duration: float) -> None:
        """The switch finished everywhere: close all spans, record timing."""
        obs = self.obs
        if not obs.enabled:
            return
        self._close_phase()
        if self._total is not None:
            self._total.end(outcome="completed")
            self._total = None
        obs.observe("switch.duration_s", duration)
        obs.emit("switch/complete", switch=list(switch_id), duration=duration)

    def abort(self, switch_id: Tuple[int, int], reason: str, phase: str) -> None:
        """The switch was abandoned: close spans with the abort verdict."""
        obs = self.obs
        if not obs.enabled:
            return
        self._close_phase()
        if self._total is not None:
            self._total.end(outcome="aborted", reason=reason)
            self._total = None
        obs.emit(
            "switch/abort", switch=list(switch_id), reason=reason, phase=phase
        )

    def _open_phase(self, switch_id: Tuple[int, int], name: str) -> None:
        self._phase = self.obs.span(f"switch/{name}", switch=list(switch_id))
        self._phase_name = name

    def _close_phase(self) -> None:
        if self._phase is not None:
            dur = self._phase.end()
            self.obs.observe(f"switch.phase.{self._phase_name}_s", dur)
            self._phase = None
            self._phase_name = None


# ----------------------------------------------------------------------
# Process-wide default
# ----------------------------------------------------------------------

#: The process-wide bus layers fall back to when none is injected.
#: Disabled by construction: unconfigured runs record nothing.
_DEFAULT_BUS = Bus(clock=None, enabled=False)
_NULL_SCOPE = BusScope(_DEFAULT_BUS, None)


def default_bus() -> Bus:
    """The process-wide default bus (disabled unless someone enables it)."""
    return _DEFAULT_BUS


def set_default_bus(bus: Bus) -> Bus:
    """Swap the process-wide default bus; returns the previous one."""
    global _DEFAULT_BUS
    previous, _DEFAULT_BUS = _DEFAULT_BUS, bus
    return previous


def null_scope() -> BusScope:
    """A scope over the (disabled) original default bus: a safe no-op."""
    return _NULL_SCOPE
