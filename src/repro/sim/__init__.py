"""Discrete-event simulation substrate.

This package replaces the paper's physical testbed (SparcStation-20s on a
10 Mbit Ethernet) with a deterministic simulator:

* :mod:`repro.sim.engine` — the event loop and simulated clock.
* :mod:`repro.sim.rng` — named, seeded random streams.
* :mod:`repro.sim.seeding` — the pinned per-cell seed recipes every
  partitioned run (sweep workers, fleet shards) derives from.
* :mod:`repro.sim.monitor` — exact-quantile sample summaries.
"""

from .engine import EventHandle, Simulator
from .monitor import Summary
from .rng import RandomStreams

__all__ = [
    "EventHandle",
    "Simulator",
    "Summary",
    "RandomStreams",
]
