"""Deterministic chaos testing for the switching protocol.

:mod:`repro.testing.chaos` compiles a seeded storm of control-channel
faults, crashes and concurrent switch requests into a scenario spec;
:func:`repro.scenarios.runner.run_scenario` runs it on
:class:`repro.workloads.session.Session` and checks the §2 oracle
properties on what came out the other side.
"""

from .chaos import ChaosConfig

__all__ = ["ChaosConfig"]
