"""Frozen binary-heap event engine, kept as a differential reference.

This is :class:`~repro.sim.engine.Simulator` in its plainest form
(binary heap with counted lazy cancellation and compaction, no inlined
fast paths, no fused drain loop), preserved verbatim so that
``test_engine_differential.py`` can replay identical random
schedule/cancel/reschedule workloads on both engines and assert
bit-identical firing order and ``pending()`` counts.  Nothing outside
the tests imports it.

Do not "fix" or optimize this file — its value is that it does not move.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError

__all__ = ["HeapEventHandle", "HeapSimulator"]


class HeapEventHandle:
    """A cancellable reference to an event scheduled on the heap engine."""

    __slots__ = ("time", "_seq", "_callback", "_cancelled", "_sim")

    def __init__(
        self,
        time: float,
        seq: int,
        callback: Callable[[], None],
        sim: "Optional[HeapSimulator]" = None,
    ):
        self.time = time
        self._seq = seq
        self._callback = callback
        self._cancelled = False
        self._sim = sim

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        if self._cancelled:
            return
        self._cancelled = True
        self._callback = _NOOP
        sim, self._sim = self._sim, None
        if sim is not None:
            sim._note_cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<HeapEventHandle t={self.time:.6f} {state}>"


def _noop() -> None:
    return None


_NOOP = _noop


class HeapSimulator:
    """The heap-based deterministic discrete-event simulator (frozen)."""

    COMPACT_MIN_DEAD = 256

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: List[Tuple[float, int, HeapEventHandle]] = []
        self._seq = itertools.count()
        self._running = False
        self._events_processed = 0
        self._live = 0
        self._dead = 0

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def pending(self) -> int:
        return self._live

    def _note_cancel(self) -> None:
        self._live -= 1
        self._dead += 1
        if self._dead >= self.COMPACT_MIN_DEAD and self._dead > self._live:
            self._compact()

    def _compact(self) -> None:
        self._queue = [e for e in self._queue if not e[2]._cancelled]
        heapq.heapify(self._queue)
        self._dead = 0

    def schedule(self, delay: float, callback: Callable[[], None]) -> HeapEventHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return self.schedule_at(self._now + delay, callback)

    def schedule_at(self, time: float, callback: Callable[[], None]) -> HeapEventHandle:
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at t={time:.6f} before now={self._now:.6f}"
            )
        handle = HeapEventHandle(time, next(self._seq), callback, sim=self)
        heapq.heappush(self._queue, (time, handle._seq, handle))
        self._live += 1
        return handle

    def step(self) -> bool:
        while self._queue:
            time, __, handle = heapq.heappop(self._queue)
            if handle.cancelled:
                self._dead -= 1
                continue
            self._now = time
            self._events_processed += 1
            self._live -= 1
            handle._sim = None
            callback = handle._callback
            handle._callback = _NOOP
            callback()
            return True
        return False

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[float] = None,
    ) -> int:
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
        if time < self._now:
            raise SimulationError(
                f"run_until({time:.6f}) is before now={self._now:.6f}"
            )
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        fired = 0
        try:
            while self._queue:
                next_time = self._peek_time()
                if next_time is None or next_time > time:
                    break
                self.step()
                fired += 1
            self._now = max(self._now, time)
        finally:
            self._running = False
        return fired

    def run_for(self, duration: float) -> int:
        return self.run_until(self._now + duration)

    def _peek_time(self) -> Optional[float]:
        while self._queue:
            time, __, handle = self._queue[0]
            if handle.cancelled:
                heapq.heappop(self._queue)
                self._dead -= 1
                continue
            return time
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<HeapSimulator now={self._now:.6f} pending={self.pending()} "
            f"fired={self._events_processed}>"
        )
