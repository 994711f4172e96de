"""The runtime boundary: what every layer may assume about time.

The paper's model (§3) defines protocols over abstract Send/Deliver
events; nothing in a protocol layer, network model, workload generator or
monitor should care whether time is simulated or real.  This module pins
that contract down as an interface:

* :class:`Clock` — read the current time (``now``), a monotonic float
  number of seconds with an arbitrary epoch.
* :class:`Scheduler` — arm one-shot timers (``schedule`` /
  ``schedule_at``) returning cancellable :class:`TimerHandle`\\ s.
* :class:`Runtime` — the full runtime: clock + scheduler + driving
  (``run_for`` / ``run_until``).

Two implementations ship with the library:

* the discrete-event :class:`~repro.sim.engine.Simulator` itself is the
  simulated runtime; time is virtual and runs are bit-for-bit
  deterministic.
* :class:`~repro.runtime.aio.AsyncioRuntime` wraps an asyncio event
  loop; time is wall-clock and networks send real UDP datagrams
  (:mod:`repro.net.udp`).

**The contract** (see docs/ARCHITECTURE.md for the long form):

1. Layers may read ``now`` and compare/subtract the values they read.
   They may **not** assume a particular epoch, nor that time only
   advances when an event fires.
2. Timers are *one-shot* and fire **at or after** their deadline — with
   equality and FIFO tie-breaking guaranteed only on the simulator.
   Repeating behaviour is built by re-arming from the callback.
3. Callbacks must be non-blocking and must not recurse into ``run_*``.
4. Two timers armed for the same instant fire in arming order on the
   simulated runtime; real runtimes only promise "close together".
   Protocol correctness must never hinge on same-instant ordering.
5. Everything else — sockets, processes, determinism — belongs to the
   concrete runtime, not to the interface.

Both implementations are registered as virtual subclasses (in
:mod:`repro.runtime`), so neither the engine nor asyncio's handles
carry an adapter: ``Simulator`` is a ``Runtime``, and ``EventHandle``
and ``asyncio.TimerHandle`` are both ``TimerHandle``.  Every run in
``src/`` gets its runtime from :class:`repro.workloads.session.Session`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

__all__ = ["TimerHandle", "Clock", "Scheduler", "Runtime"]


class TimerHandle(ABC):
    """A cancellable reference to a scheduled timer.

    The simulator's :class:`~repro.sim.engine.EventHandle` and asyncio's
    own ``TimerHandle`` are the two implementations.
    """

    @abstractmethod
    def cancel(self) -> None:
        """Prevent the timer from firing.  Idempotent."""


class Clock(ABC):
    """Read-only time source."""

    @property
    @abstractmethod
    def now(self) -> float:
        """Current time in seconds (monotonic, arbitrary epoch)."""


class Scheduler(Clock):
    """A clock that can also arm one-shot timers."""

    @abstractmethod
    def schedule(
        self, delay: float, callback: Callable[[], None]
    ) -> TimerHandle:
        """Arm ``callback`` to fire ``delay`` seconds from now."""

    @abstractmethod
    def schedule_at(
        self, time: float, callback: Callable[[], None]
    ) -> TimerHandle:
        """Arm ``callback`` at absolute runtime time ``time``."""


class Runtime(Scheduler):
    """Clock + scheduler + driving.

    This is the only time surface the layered system is allowed to
    touch; see the module docstring for the contract.
    """

    #: Short stable name ("sim", "asyncio") recorded in benchmark and
    #: experiment artifacts so result trajectories stay comparable.
    name = "abstract"

    @abstractmethod
    def run_for(self, duration: float) -> None:
        """Drive the runtime ``duration`` seconds forward from now."""

    @abstractmethod
    def run_until(self, time: float) -> None:
        """Drive the runtime until ``now`` reaches absolute ``time``."""
