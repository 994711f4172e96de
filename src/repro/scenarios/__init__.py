"""The scenario catalog: scored, JSON-driven chaos/oracle stories.

Each catalog entry (``catalog/*.json``) scripts a network or load drift
— the *reason* a deployment would switch protocols — and declares the
adaptation a correct oracle must produce.  A ``repro chaos`` run is a
spec too (:mod:`repro.testing.chaos`), run by the same runner.  The runner executes any
entry on the deterministic sim runtime or (for clean-network entries)
the real asyncio/UDP runtime, and the scorer turns the outcome into a
:class:`~repro.scenarios.runner.ScenarioVerdict`.

``repro scenario <name>`` runs one entry; ``repro scenario --all``
sweeps the catalog.  See ``docs/SCENARIOS.md``.
"""

from .runner import ScenarioVerdict, run_scenario
from .spec import (
    CrashSpec,
    ExpectSpec,
    GroupSpec,
    OracleSpec,
    PhaseNet,
    PhaseSpec,
    ScenarioSpec,
    SettleSpec,
    catalog_dir,
    load_catalog,
    load_scenario,
)

__all__ = [
    "CrashSpec",
    "ExpectSpec",
    "GroupSpec",
    "OracleSpec",
    "PhaseNet",
    "PhaseSpec",
    "ScenarioSpec",
    "ScenarioVerdict",
    "SettleSpec",
    "catalog_dir",
    "load_catalog",
    "load_scenario",
    "run_scenario",
]
