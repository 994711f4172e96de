"""The simulated runtime: a :class:`Runtime` over the discrete-event engine.

:class:`SimRuntime` is a thin, zero-overhead-in-spirit adapter — every
call delegates straight to the wrapped :class:`~repro.sim.engine.Simulator`,
so a run through the runtime boundary is *bit-for-bit identical* to a run
against the bare engine (the parity tests in
``tests/integration/test_runtime_parity.py`` pin this down).

It also carries the engine-only extras that experiments legitimately
need — ``run`` with the runaway guard, ``step``, ``events_processed`` —
so callers holding a ``SimRuntime`` never need to import the engine.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

from ..errors import SimulationError
from ..sim.engine import EventHandle, Simulator
from .api import Runtime, TimerHandle

__all__ = ["SimRuntime"]

# The engine's EventHandle is the simulated TimerHandle.
TimerHandle.register(EventHandle)


class SimRuntime(Runtime):
    """Deterministic virtual-time runtime over a :class:`Simulator`.

    Args:
        sim: an existing engine to wrap; a fresh one is created if
            omitted.  Wrapping is the common migration path: code that
            still owns a raw simulator can hand it to layers expecting
            the runtime interface without changing its own run loop.
    """

    name = "sim"

    def __init__(self, sim: Optional[Simulator] = None) -> None:
        self.sim = sim if sim is not None else Simulator()
        self._stopped = False

    # ------------------------------------------------------------------
    # Clock / Scheduler
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.sim.now

    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> EventHandle:
        return self.sim.schedule(delay, callback)

    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> EventHandle:
        return self.sim.schedule_at(time, callback)

    # ------------------------------------------------------------------
    # Tasks
    # ------------------------------------------------------------------
    def spawn(self, task: Any) -> EventHandle:
        """Run a callable at the current instant (after queued events).

        Coroutines are rejected: simulated components are written as
        callbacks, and silently iterating a coroutine on virtual time
        would break determinism guarantees.
        """
        if not callable(task):
            raise SimulationError(
                f"SimRuntime.spawn needs a zero-argument callable, got "
                f"{type(task).__name__} (coroutines run only on "
                f"AsyncioRuntime)"
            )
        return self.sim.schedule(0.0, task)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run_for(self, duration: float) -> int:
        """Advance ``duration`` simulated seconds; returns events fired."""
        return self.sim.run_for(duration)

    def run_until(self, time: float) -> int:
        """Advance to simulated ``time``; returns events fired."""
        return self.sim.run_until(time)

    def run(
        self,
        max_events: Optional[int] = None,
        until: Optional[float] = None,
    ) -> int:
        """Drain the queue (with the engine's runaway guard available)."""
        return self.sim.run(max_events=max_events, until=until)

    def step(self) -> bool:
        """Fire the single next event (engine passthrough)."""
        return self.sim.step()

    def stop(self) -> None:
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def events_processed(self) -> int:
        return self.sim.events_processed

    def pending(self) -> int:
        return self.sim.pending()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SimRuntime {self.sim!r}>"
