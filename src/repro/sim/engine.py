"""Discrete-event simulation engine.

The engine is a **hashed timer wheel** (a calendar queue): scheduled
events hash into time-width buckets, the bucket currently being drained
keeps an exact ``(time, seq)``-ordered due-heap, and the wheel advances
bucket by bucket, jumping directly to the next occupied one when the
queue goes sparse.  Everything in the library — network transmission,
protocol timers, workload generators — runs as callbacks scheduled on a
single :class:`Simulator`.  Simulated time is a ``float`` number of
seconds; it only advances when the engine pops the next event, so a run
is fully deterministic given deterministic callbacks.

Why a wheel and not a heap: ``schedule`` and ``cancel`` are O(1) —
scheduling inserts into a bucket dict, cancelling a not-yet-due entry
deletes it on the spot, and only entries that already reached the
due-heap fall back to lazy flagging (dropped on pop, or at compaction).
A binary-heap engine is less than half the code and was measured in
this one's place on the cost ledger: it loses where the queue is deep
("Timer wheel slotting" in ``docs/ARCHITECTURE.md`` has the numbers).

Firing order is **exactly** ``(time, seq)`` — identical to the heap
engine, as the differential tests in ``tests/sim/`` replay:

* bucket index is ``int(time * inv_width)``, a monotonic map from time,
  so every event in bucket *b* precedes every event in bucket *b + k*;
* within the draining bucket, events live in a small binary heap keyed
  by ``(time, seq)``, so ties fire in scheduling order (FIFO).

Usage::

    sim = Simulator()
    sim.schedule(0.5, lambda: print("half a second in"))
    sim.run()

Handles returned by :meth:`Simulator.schedule` can be cancelled, which is
how protocol retransmission timers are implemented; a deadline refresh
is ``handle.cancel()`` followed by a fresh ``schedule``.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SimulationError

__all__ = ["EventHandle", "Simulator", "Timeline"]


class EventHandle:
    """A cancellable reference to a scheduled event.

    Cancellation is O(1) either way the wheel resolves it: a handle
    still sitting in a future bucket is unlinked on the spot (a dict
    delete), one that already reached the due-heap is flagged and
    skipped when it pops.  The owning simulator counts
    lazy cancellations so ``pending()`` stays O(1) and the due-heap is
    compacted when dead entries pile up (the armed-then-cancelled
    retransmit-timer pattern of long chaos runs).
    """

    __slots__ = ("time", "_seq", "_callback", "_cancelled", "_sim", "_bucket")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sim: "Optional[Simulator]" = None,
    ):
        self.time = time
        self._seq = seq
        self._callback = callback
        self._cancelled = False
        self._sim = sim
        self._bucket = 0

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
            sim._note_cancel(self)

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<EventHandle t={self.time:.6f} {state}>"


def _noop() -> None:
    return None


_NOOP = _noop

#: Smallest (and initial) bucket count; always a power of two.
_MIN_BUCKETS = 256

#: Bucket index for times whose product with ``inv_width`` overflows a
#: float (``inf`` horizons).  Larger than any finite index: a finite
#: ``time * inv_width`` is < 1e309, far below 10**400.
_FAR_BUCKET = 10 ** 400

#: Adaptive width aims for this many events per bucket, so one bucket
#: drain (a Python-level scan) feeds this many C-level heappop fires.
#: One-per-bucket minimizes due-heap size but pays an ``_advance`` call
#: per event; a small batch amortizes it without letting slots (or the
#: due-heap) grow enough to matter.
_TARGET_PER_BUCKET = 16


def _pow2(n: int) -> int:
    """The smallest power of two >= max(n, 1)."""
    return 1 << max(n - 1, 0).bit_length()


#: Bare allocation for the schedule fast path (attributes are stored by
#: the caller, so running ``__init__`` would just repeat the work).
_NEW_HANDLE = object.__new__


class Simulator:
    """A deterministic discrete-event simulator on a hashed timer wheel.

    Events scheduled for the same instant fire in scheduling order (FIFO),
    which the tie-breaking sequence number guarantees.  Callbacks take no
    arguments; bind state with closures or ``functools.partial``.

    Internals (see the module docstring for the invariants):

    * ``_buckets[i]`` is an insertion-ordered dict (handle -> None) of
      live entries whose absolute bucket index hashes to slot ``i``
      (``index & mask``) — a dict so cancel unlinks in O(1) by
      identity regardless of how crowded the slot is;
    * ``_due`` is a small ``(time, seq, handle)`` heap holding every
      pending event with absolute bucket index <= ``_cur``;
    * ``_width`` adapts on resize so the live population spreads to
      roughly one event per bucket.
    """

    #: Compaction triggers once at least this many cancelled entries sit
    #: in the wheel AND they outnumber the live ones.  Small enough to
    #: keep long timer-churn runs lean, large enough that compaction
    #: cost is amortized over many cancellations.
    COMPACT_MIN_DEAD = 256

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._running = False
        self._events_processed = 0
        self._live = 0  # scheduled, not yet fired, not cancelled
        self._dead = 0  # cancelled entries still sitting in the wheel
        self._width = 1e-3  # ms-scale: the substrate's native tick
        self._inv_width = 1e3
        self._nbuckets = _MIN_BUCKETS
        self._mask = _MIN_BUCKETS - 1
        self._buckets: List[Dict[EventHandle, None]] = [
            {} for __ in range(_MIN_BUCKETS)
        ]
        self._cur = -1  # all buckets <= _cur have drained into _due
        self._due: List[Tuple[float, int, EventHandle]] = []

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
        """Entries (live + dead) currently stored in the wheel.

        Diagnostics only: the compaction tests and benchmarks assert the
        wheel's memory stays bounded under cancellation churn.
        """
        return sum(len(slot) for slot in self._buckets) + len(self._due)

    # ------------------------------------------------------------------
    # Cancellation accounting (called by EventHandle.cancel)
    # ------------------------------------------------------------------
    def _note_cancel(self, handle: EventHandle) -> None:
        self._live -= 1
        bucket = handle._bucket
        if bucket > self._cur:
            # Still in a future slot (never in the due-heap): unlink it
            # on the spot — an O(1) dict delete however crowded the slot
            # is, so steady-state timer churn leaves no debris behind.
            try:
                del self._buckets[bucket & self._mask][handle]
                return
            except KeyError:  # pragma: no cover - invariant guard
                pass
        self._dead += 1
        if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries and rebuild the wheel in place.

        Safe at any point: entry ordering keys ``(time, seq)`` are
        untouched, so firing order after compaction is identical to the
        lazy path — only the wheel's footprint (and its adaptive bucket
        width) changes.
        """
        self._rebuild(self._nbuckets)

    # ------------------------------------------------------------------
    # Wheel maintenance
    # ------------------------------------------------------------------
    def _rebuild(self, nbuckets: int) -> None:
        """Re-bin every live entry into ``nbuckets`` buckets.

        Recomputes the adaptive bucket width from the live population's
        span (aiming at ~1 event per bucket), purges cancelled entries,
        and resets the drain cursor just below the present instant.
        Determinism: bucket assignment is a pure function of event times
        and the (deterministically chosen) width, and relative firing
        order never depends on bucket boundaries.
        """
        entries: List[EventHandle] = []
        for slot in self._buckets:
            for handle in slot:
                if not handle._cancelled:
                    entries.append(handle)
        for __, __s, handle in self._due:
            if not handle._cancelled:
                entries.append(handle)
        self._dead = 0
        live = len(entries)
        if live >= 2:
            lo = min(h.time for h in entries)
            hi = max(h.time for h in entries)
            span = hi - lo
            if span > 0.0:
                width = span * _TARGET_PER_BUCKET / live
                self._width = min(max(width, 1e-9), 60.0)
                self._inv_width = 1.0 / self._width
        self._nbuckets = nbuckets
        self._mask = mask = nbuckets - 1
        self._buckets = buckets = [{} for __ in range(nbuckets)]
        inv = self._inv_width
        self._cur = int(self._now * inv) - 1
        self._due = []
        for handle in entries:
            try:
                bucket = int(handle.time * inv)
            except (OverflowError, ValueError):
                bucket = _FAR_BUCKET
            handle._bucket = bucket
            buckets[bucket & mask][handle] = None

    def _advance(self) -> bool:
        """Drain the next occupied bucket into the due-heap.

        Scans forward from the cursor; after a fruitless full
        revolution (a sparse wheel) it computes the minimum occupied
        bucket in one pass over the slots and jumps straight there.
        Returns False when no live events remain.
        """
        live = self._live
        if live == 0:
            return False
        if self._nbuckets > _MIN_BUCKETS and live < (self._nbuckets >> 2):
            self._rebuild(max(_MIN_BUCKETS, _pow2(live << 1)))
        # The due-heap is empty here (that is the only reason to advance),
        # so no drained bucket has outstanding events: snap the cursor
        # back to the present.  Without this, draining a far-future
        # bucket would leave ``_cur`` ahead of ``now`` and every nearer
        # schedule would degrade into the due-heap's lazy path.
        self._cur = int(self._now * self._inv_width) - 1
        due = self._due
        buckets = self._buckets
        mask = self._mask
        nbuckets = self._nbuckets
        bucket = self._cur + 1
        scanned = 0
        while True:
            index = bucket & mask
            slot = buckets[index]
            if slot:
                found = False
                keep: Dict[EventHandle, None] = {}
                for handle in slot:
                    if handle._bucket == bucket:
                        heappush(due, (handle.time, handle._seq, handle))
                        found = True
                    else:
                        # A later revolution's entry sharing this slot.
                        keep[handle] = None
                buckets[index] = keep
                if found:
                    self._cur = bucket
                    return True
            bucket += 1
            scanned += 1
            if scanned > nbuckets:
                bucket = self._min_bucket()
                scanned = 0

    def _min_bucket(self) -> int:
        """The smallest occupied absolute bucket index."""
        best: Optional[int] = None
        for slot in self._buckets:
            for handle in slot:
                if best is None or handle._bucket < best:
                    best = handle._bucket
        if best is None:  # pragma: no cover - guarded by _live > 0
            raise SimulationError("internal: live count and wheel disagree")
        return best

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` to fire ``delay`` seconds from now.

        A zero delay is allowed and fires after all currently-queued events
        for the present instant.  Negative delays raise
        :class:`SimulationError`.

        This is the hottest call in the engine (every packet hop is one),
        so it inlines :meth:`schedule_at` rather than delegating.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        time = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        handle = _NEW_HANDLE(EventHandle)
        handle.time = time
        handle._seq = seq
        handle._callback = callback
        handle._cancelled = False
        handle._sim = self
        try:
            bucket = int(time * self._inv_width)
        except (OverflowError, ValueError):
            bucket = _FAR_BUCKET
        handle._bucket = bucket
        if bucket <= self._cur:
            heappush(self._due, (time, seq, handle))
        else:
            self._buckets[bucket & self._mask][handle] = None
        self._live += 1
        if self._live > (self._nbuckets << 1):
            self._rebuild(_pow2(self._live))
        return handle

    def schedule_at(self, time: float, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time.  O(1)."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = _NEW_HANDLE(EventHandle)
        handle.time = time
        handle._seq = seq
        handle._callback = callback
        handle._cancelled = False
        handle._sim = self
        try:
            bucket = int(time * self._inv_width)
        except (OverflowError, ValueError):
            bucket = _FAR_BUCKET
        handle._bucket = bucket
        if bucket <= self._cur:
            heappush(self._due, (time, seq, handle))
        else:
            self._buckets[bucket & self._mask][handle] = None
        self._live += 1
        if self._live > (self._nbuckets << 1):
            self._rebuild(_pow2(self._live))
        return handle

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Fire the single next event.  Returns False if the queue is empty."""
        while True:
            due = self._due
            if not due:
                if not self._advance():
                    return False
                continue
            time, __, handle = heappop(due)
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
        try:
            # :meth:`step`'s body with the horizon test fused in: every
            # packet hop is one trip round this loop, so it looks at the
            # head of the due-heap once instead of peeking and stepping.
            while True:
                due = self._due  # reloaded: a callback may rebuild the wheel
                if not due:
                    if not self._advance():
                        break
                    continue
                when, __, handle = due[0]
                if handle._cancelled:
                    heappop(due)
                    self._dead -= 1
                elif when > time:
                    break
                else:
                    heappop(due)
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
        due = self._due
        while due:
            time, __, handle = due[0]
            if handle._cancelled:
                heappop(due)
                self._dead -= 1
                continue
            return time
        if self._advance():
            return self._due[0][0]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={self._now:.6f} pending={self.pending()} "
            f"fired={self._events_processed}>"
        )


class Timeline:
    """A deterministic, labelled script of events.

    Chaos and fault-injection runs need their perturbations — crashes,
    recoveries, switch requests, bursts of traffic — expressed as *data*
    so a run is reproducible from its plan alone.  A :class:`Timeline`
    collects ``(time, label, callback)`` entries, installs them onto a
    :class:`Simulator` in one shot, and records which entries actually
    fired (an entry scheduled past the horizon of ``run_until`` simply
    never fires).

    Entries may be added in any order; installation sorts by time, with
    insertion order breaking ties.  ``install`` may be called once.
    """

    def __init__(self) -> None:
        self._entries: List[Tuple[float, int, str, Callable[[], None]]] = []
        self._installed = False
        #: (time, label) of every entry that has fired, in firing order.
        self.fired: List[Tuple[float, str]] = []

    def at(
        self, time: float, callback: Callable[[], None], label: str = ""
    ) -> "Timeline":
        """Add an event at absolute simulated ``time``; returns self."""
        if time < 0:
            raise SimulationError(f"timeline entry at negative time {time}")
        if self._installed:
            raise SimulationError("timeline is already installed")
        self._entries.append((time, len(self._entries), label, callback))
        return self

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> List[Tuple[float, str]]:
        """The scripted (time, label) pairs in execution order."""
        return [(t, label) for t, __, label, __cb in sorted(self._entries)]

    def install(self, sim: Simulator) -> List[EventHandle]:
        """Schedule every entry onto ``sim``; returns the event handles."""
        if self._installed:
            raise SimulationError("timeline is already installed")
        self._installed = True
        handles = []
        for time, __, label, callback in sorted(self._entries):

            def fire(time=time, label=label, callback=callback) -> None:
                self.fired.append((time, label))
                callback()

            handles.append(sim.schedule_at(time, fire))
        return handles

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Timeline entries={len(self._entries)} fired={len(self.fired)}>"
