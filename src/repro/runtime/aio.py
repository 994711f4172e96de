"""The real-time runtime: a :class:`Runtime` over an asyncio event loop.

Where :class:`~repro.runtime.sim_runtime.SimRuntime` advances a virtual
clock event by event, :class:`AsyncioRuntime` reads the loop's monotonic
clock (re-based so a fresh runtime starts near ``t=0``, matching the
simulated convention) and arms timers with ``loop.call_later``.  The
entire layered system — stacks, switch protocol, workload generators —
is callback-shaped, so it runs on a real loop unmodified; only the
network underneath changes (:mod:`repro.net.udp` sends real datagrams).

Per-process stacks become tasks of one loop in one OS process.  That is
exactly the right fidelity for the localhost experiments this runtime
exists for: messages really traverse the kernel's UDP stack (serialized,
copied, queued, droppable), while the test harness keeps one-process
observability over every stack.

The runtime owns its loop.  Drive it with :meth:`run_for` /
:meth:`run_until` (synchronous, from outside the loop) or hand a
coroutine to :meth:`run_task`; :meth:`close` releases the loop and any
transports registered via :meth:`on_close`.

Timer precision: a callback fires at its deadline plus the OS wake-up
(about 0.1 ms on an idle host), never early.  asyncio's default
selector on Linux waits in ``epoll_wait``, whose timeout is whole
milliseconds, so it rounds every timed wait *up* to the next
millisecond and a timer armed 0.3 ms ahead fired about 0.9 ms late.
The runtime's own loop therefore waits on a :class:`_PreciseEpollSelector`:
the timed wait goes through ``select()`` (microsecond timeout) on the
epoll fd itself, then the ready events are collected without blocking.
A loop passed in by the caller keeps whatever selector it was built on.
"""

from __future__ import annotations

import asyncio
import select
import selectors
from typing import Any, Awaitable, Callable, List, Optional

from ..errors import SimulationError
from .api import Runtime, TimerHandle

__all__ = ["AsyncioTimerHandle", "AsyncioRuntime"]


if hasattr(selectors, "EpollSelector"):

    class _PreciseEpollSelector(selectors.EpollSelector):
        """An epoll selector whose timed waits are not rounded to 1 ms.

        epoll still holds every registration (no ``FD_SETSIZE`` limit on
        sockets); only the selector's own fd is passed to ``select()``.
        """

        def select(self, timeout=None):
            if timeout is not None and timeout > 0:
                select.select([self.fileno()], [], [], timeout)
                timeout = 0
            return super().select(timeout)

    def _new_loop() -> asyncio.AbstractEventLoop:
        return asyncio.SelectorEventLoop(_PreciseEpollSelector())

else:  # kqueue's (and the proactor's) timed waits are already precise
    _new_loop = asyncio.new_event_loop


class AsyncioTimerHandle(TimerHandle):
    """Wraps an ``asyncio.TimerHandle`` behind the runtime interface."""

    __slots__ = ("_handle", "_cancelled")

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle
        self._cancelled = False

    def cancel(self) -> None:
        self._cancelled = True
        self._handle.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self._cancelled else "pending"
        return f"<AsyncioTimerHandle {state}>"


class AsyncioRuntime(Runtime):
    """Wall-clock runtime on a private asyncio event loop."""

    name = "asyncio"

    def __init__(self, loop: Optional[asyncio.AbstractEventLoop] = None) -> None:
        self._loop = loop if loop is not None else _new_loop()
        self._epoch = self._loop.time()
        self._stopped = False
        self._closed = False
        self._closers: List[Callable[[], None]] = []

    @property
    def loop(self) -> asyncio.AbstractEventLoop:
        """The underlying event loop (for transports and tasks)."""
        return self._loop

    # ------------------------------------------------------------------
    # Clock / Scheduler
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Seconds since this runtime was created (monotonic)."""
        return self._loop.time() - self._epoch

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> AsyncioTimerHandle:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay:.6f}s in the past")
        return AsyncioTimerHandle(self._loop.call_later(delay, callback))

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> AsyncioTimerHandle:
        # Unlike virtual time, the wall clock moved while the caller
        # computed `time`; clamp instead of raising so "at now" works.
        return AsyncioTimerHandle(
            self._loop.call_later(max(0.0, time - self.now), callback)
        )

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def spawn(self, task: Any) -> Any:
        """Schedule a callable soon, or a coroutine as an asyncio task."""
        if asyncio.iscoroutine(task):
            return self._loop.create_task(task)
        if callable(task):
            return self._loop.call_soon(task)
        raise SimulationError(
            f"AsyncioRuntime.spawn needs a callable or coroutine, got "
            f"{type(task).__name__}"
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> None:
        """Run the loop for ``duration`` wall seconds (synchronous)."""
        self._check_open()
        self._stopped = False

        async def _sleep() -> None:
            try:
                await asyncio.sleep(duration)
            except asyncio.CancelledError:
                pass

        self._run(_sleep())

    def run_until(self, time: float) -> None:
        """Run the loop until the runtime clock reaches ``time``."""
        self.run_for(max(0.0, time - self.now))

    def run_task(self, coro: Awaitable[Any]) -> Any:
        """Run one coroutine to completion and return its result."""
        self._check_open()
        return self._run(coro)

    def _run(self, coro: Awaitable[Any]) -> Any:
        main = self._loop.create_task(
            coro if asyncio.iscoroutine(coro) else _wrap(coro)
        )
        # A stop() from inside a callback cancels the driver task.
        def watch() -> None:
            nonlocal stopper
            if self._stopped and not main.done():
                main.cancel()
            elif not main.done():
                stopper = self._loop.call_later(0.01, watch)

        stopper: Optional[asyncio.TimerHandle] = self._loop.call_later(
            0.01, watch
        )
        try:
            return self._loop.run_until_complete(main)
        except asyncio.CancelledError:
            return None
        finally:
            if stopper is not None:
                stopper.cancel()

    def stop(self) -> None:
        """Make the current ``run_*`` return shortly.  Idempotent."""
        self._stopped = True

    def on_close(self, closer: Callable[[], None]) -> None:
        """Register a resource to tear down in :meth:`close`."""
        self._closers.append(closer)

    def close(self) -> None:
        """Tear down registered resources and the loop.  Idempotent."""
        if self._closed:
            return
        self._closed = True
        for closer in reversed(self._closers):
            closer()
        # Let transports flush their close packets before the loop dies.
        pending = [
            t for t in asyncio.all_tasks(self._loop) if not t.done()
        ]
        for task in pending:
            task.cancel()
        if pending:
            self._loop.run_until_complete(
                asyncio.gather(*pending, return_exceptions=True)
            )
        self._loop.run_until_complete(self._loop.shutdown_asyncgens())
        self._loop.close()

    def _check_open(self) -> None:
        if self._closed:
            raise SimulationError("runtime is closed")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else f"t={self.now:.3f}"
        return f"<AsyncioRuntime {state}>"


async def _wrap(awaitable: Awaitable[Any]) -> Any:
    return await awaitable
