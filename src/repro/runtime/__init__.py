"""Runtime boundary: pluggable time and timers.

Every layer of the system — protocol stacks, the switching core, network
models, workloads, monitors — programs against :class:`Runtime` and never
against a concrete engine.  Two runtimes ship:

* :class:`Simulator` — the discrete-event engine itself: virtual time,
  deterministic;
* :class:`AsyncioRuntime` — asyncio wall-clock time, real UDP sockets
  (see :mod:`repro.net.udp`).

Neither is wrapped: both are registered below as implementations of the
interface, and so are their timer handles.

This package is also the sanctioned home of the engine re-exports
(:class:`Simulator`, :class:`EventHandle`): modules outside
``repro/runtime/`` and ``repro/sim/`` must not import the engine
directly (enforced by ``tests/test_runtime_boundary.py``).
"""

import asyncio

from ..errors import SimulationError
from ..sim.engine import EventHandle, Simulator
from .aio import AsyncioRuntime
from .api import Clock, Runtime, Scheduler, TimerHandle

# Registered rather than inherited, so that repro.sim need not import
# repro.runtime (which imports repro.sim).
Runtime.register(Simulator)
TimerHandle.register(EventHandle)
TimerHandle.register(asyncio.TimerHandle)

#: A second name for :class:`Simulator`, kept only because the cost
#: ledger (``benchmarks/ledger/adapter.py``) imports and subclasses it.
SimRuntime = Simulator

__all__ = [
    "AsyncioRuntime",
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
        return Simulator()
    if name == "asyncio":
        return AsyncioRuntime()
    raise SimulationError(
        f"unknown runtime {name!r}; known: {', '.join(RUNTIME_NAMES)}"
    )
