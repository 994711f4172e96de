"""Discrete-event simulation engine.

Everything in the library — network transmission, protocol timers,
workload generators — runs as callbacks scheduled on a single
:class:`Simulator`.  Simulated time is a ``float`` number of seconds; it
only advances when the engine pops the next event, so a run is fully
deterministic given deterministic callbacks.

The queue is one binary heap of ``(time, seq, handle)`` entries, so
firing order is exactly ``(time, seq)``: ties fire in scheduling order
(FIFO).  Cancellation is lazy and counted — a cancelled entry stays in
the heap until it pops or a compaction drops it — so ``pending()`` is
O(1).  Why a heap: a calendar queue with O(1) schedule and cancel
stood here once, and measured end to end on the cost ledger it stopped
paying for its extra code ("The event queue" in
``docs/ARCHITECTURE.md`` has the numbers).
``tests/sim/test_engine_differential.py`` replays this engine against
the frozen reference heap beside it.

Usage::

    sim = Simulator()
    sim.schedule(0.5, lambda: print("half a second in"))
    sim.run()

Handles returned by :meth:`Simulator.schedule` can be cancelled, which is
how protocol retransmission timers are implemented; a deadline refresh
is ``handle.cancel()`` followed by a fresh ``schedule``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Callable, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["EventHandle", "Simulator"]


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is O(1): the handle is flagged and skipped when it
    pops.  The owning simulator counts lazy cancellations so
    ``pending()`` stays O(1) and the heap is compacted when dead
    entries pile up (the armed-then-cancelled retransmit-timer pattern
    of long chaos runs).  Handles are built only by the simulator.
    """

    __slots__ = ("time", "_seq", "_callback", "_cancelled", "_sim")

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = _NOOP
        # Only a not-yet-fired event still counts against the live total;
        # the simulator detaches itself when the event fires.
        sim, self._sim = self._sim, None
        if sim is not None:
            sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"


def _noop() -> None:
    return None


_NOOP = _noop

#: Bare allocation for the schedule fast path (attributes are stored by
#: the caller, so there is no ``__init__`` to run).
_NEW_HANDLE = object.__new__


class Simulator:
    """A deterministic discrete-event simulator on a binary heap.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which the tie-breaking sequence number guarantees.  Callbacks take no
    arguments; bind state with closures or ``functools.partial``.
    """

    #: Compaction triggers once at least this many cancelled entries sit
    #: in the heap AND they outnumber the live ones.  Small enough to
    #: keep long timer-churn runs lean, large enough that compaction
    #: cost is amortized over many cancellations.
    COMPACT_MIN_DEAD = 256

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._live = 0  # scheduled, not yet fired, not cancelled
        self._dead = 0  # cancelled entries still sitting in the heap
        self._queue: List[Tuple[float, int, EventHandle]] = []

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total number of events that have fired so far."""
        return self._events_processed

    def pending(self) -> int:
        """Number of not-yet-fired, not-cancelled events.  O(1)."""
        return self._live

    def footprint(self) -> int:
        """Entries (live + dead) currently stored in the heap.

        Diagnostics only: the compaction tests and benchmarks assert the
        queue's memory stays bounded under cancellation churn.
        """
        return len(self._queue)

    # ------------------------------------------------------------------
    # Cancellation accounting (called by EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        self._live -= 1
        self._dead += 1
        if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from the heap, in place.

        Safe at any point, even from a callback inside a drain loop that
        holds the list: entry ordering keys ``(time, seq)`` are
        untouched, so firing order after compaction is identical to the
        lazy path — only the footprint changes.
        """
        queue = self._queue
        queue[:] = [entry for entry in queue if not entry[2]._cancelled]
        heapify(queue)
        self._dead = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        A zero delay is allowed and fires after all currently-queued events
        for the present instant.  Negative (and NaN) delays raise
        :class:`SimulationError`.

        This is the hottest call in the engine (every packet hop is one),
        so it inlines :meth:`schedule_at` rather than delegating.
        """
        if not delay >= 0:  # written so that NaN fails too
            raise SimulationError(f"cannot schedule {delay!r}s from now")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = _NEW_HANDLE(EventHandle)
        handle.time = time
        handle._seq = seq
        handle._callback = callback
        handle._cancelled = False
        handle._sim = self
        heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if not time >= self._now:  # written so that NaN fails too
            raise SimulationError(f"cannot schedule at t={time!r} (now={self._now!r})")
        seq = self._seq
        self._seq = seq + 1
        handle = _NEW_HANDLE(EventHandle)
        handle.time = time
        handle._seq = seq
        handle._callback = callback
        handle._cancelled = False
        handle._sim = self
        heappush(self._queue, (time, seq, handle))
        self._live += 1
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        queue = self._queue
        while queue:
            time, __, handle = heappop(queue)
            if handle._cancelled:
                self._dead -= 1
                continue
            self._now = time
            self._events_processed += 1
            self._live -= 1
            handle._sim = None  # fired: a late cancel() must not re-count
            callback = handle._callback
            handle._callback = _NOOP  # break reference cycles early
            callback()
            return True
        return False

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[float] = None,
    ) -> int:
        """Run until the event queue drains (or ``max_events`` fire).

        Returns the number of events fired by this call.

        ``until`` is a **runaway guard**, not a horizon: if the queue
        still holds events once simulated time passes ``until``, the run
        raises :class:`SimulationError` instead of spinning forever — a
        buggy self-rearming timer can otherwise hang a test run
        indefinitely.  Use :meth:`run_until` for a normal bounded run.
        (``max_events`` keeps its historical soft semantics: it breaks
        out and returns rather than raising, so incremental drivers can
        use it to run in slices.)
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until:.6f}) is before now={self._now:.6f}"
            )
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        fired = 0
        try:
            while True:
                if until is not None:
                    next_time = self._peek_time()
                    if next_time is not None and next_time > until:
                        raise SimulationError(
                            f"runaway simulation: {self.pending()} event(s) "
                            f"still queued past the t={until:.6f} deadline "
                            f"after {fired} fired (next at t={next_time:.6f})"
                        )
                if not self.step():
                    break
                fired += 1
                if max_events is not None and fired >= max_events:
                    break
        finally:
            self._running = False
        return fired

    def run_until(self, time: float) -> int:
        """Run all events up to and including simulated ``time``.

        The clock is advanced to exactly ``time`` afterwards even if the
        queue drained earlier, so back-to-back ``run_until`` calls compose.
        """
        if time < self._now:
            raise SimulationError(
                f"run_until({time:.6f}) is before now={self._now:.6f}"
            )
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        fired = 0
        queue = self._queue  # compaction rewrites this list in place
        try:
            # :meth:`step`'s body with the horizon test fused in: every
            # packet hop is one trip round this loop, so it looks at the
            # head of the heap once instead of peeking and stepping.
            while queue:
                when, __, handle = queue[0]
                if handle._cancelled:
                    heappop(queue)
                    self._dead -= 1
                elif when > time:
                    break
                else:
                    heappop(queue)
                    self._now = when
                    self._events_processed += 1
                    self._live -= 1
                    handle._sim = None
                    callback = handle._callback
                    handle._callback = _NOOP
                    callback()
                    fired += 1
            self._now = max(self._now, time)
        finally:
            self._running = False
        return fired

    def run_for(self, duration: float) -> int:
        """Run for ``duration`` simulated seconds from the current instant."""
        return self.run_until(self._now + duration)

    def _peek_time(self) -> Optional[float]:
        """The next live event's time without firing it (or None)."""
        queue = self._queue
        while queue:
            time, __, handle = queue[0]
            if handle._cancelled:
                heappop(queue)
                self._dead -= 1
                continue
            return time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f} pending={self.pending()} "
            f"fired={self._events_processed}>"
        )

