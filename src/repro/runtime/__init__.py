"""Runtime boundary: pluggable time, timers, and task execution.

Every layer of the system — protocol stacks, the switching core, network
models, workloads, monitors — programs against :class:`Runtime` and never
against a concrete engine.  Two runtimes ship:

* :class:`SimRuntime` — discrete-event virtual time, deterministic;
* :class:`AsyncioRuntime` — asyncio wall-clock time, real UDP sockets
  (see :mod:`repro.net.udp`).

This package is also the sanctioned home of the engine re-exports
(:class:`Simulator`, :class:`EventHandle`): modules outside
``repro/runtime/`` and ``repro/sim/`` must not import the engine
directly (enforced by ``tests/test_runtime_boundary.py``).
"""

from ..errors import SimulationError
from ..sim.engine import EventHandle, Simulator
from .aio import AsyncioRuntime, AsyncioTimerHandle
from .api import Clock, Runtime, Scheduler, TimerHandle
from .sim_runtime import SimRuntime

__all__ = [
    "AsyncioRuntime",
    "AsyncioTimerHandle",
    "Clock",
    "EventHandle",
    "Runtime",
    "Scheduler",
    "SimRuntime",
    "Simulator",
    "TimerHandle",
    "make_runtime",
]

#: Registry used by the CLI's ``--runtime`` flag.
RUNTIME_NAMES = ("sim", "asyncio")


def make_runtime(name: str) -> Runtime:
    """Instantiate a runtime by its registry name ("sim" or "asyncio")."""
    if name == "sim":
        return SimRuntime()
    if name == "asyncio":
        return AsyncioRuntime()
    raise SimulationError(
        f"unknown runtime {name!r}; known: {', '.join(RUNTIME_NAMES)}"
    )
