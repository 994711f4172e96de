"""Deterministic chaos testing for the switching protocol.

:mod:`repro.testing.chaos` drives a switchable group through a seeded
storm of control-channel faults, crashes and concurrent switch requests,
then checks the §2 oracle properties on what came out the other side.
The run is built on :class:`repro.workloads.session.Session` (network,
group, recording, settle loop, order oracle); the chaos module adds the
seeded timeline, the crash script and the quiet-run completeness check.
"""

from .chaos import ChaosConfig, ChaosResult, CrashWindow, run_chaos

__all__ = ["ChaosConfig", "ChaosResult", "CrashWindow", "run_chaos"]
