"""The fault-tolerant SP's chaos scoreboard: a fixed sweep, pinned as JSON.

Thirty ``repro chaos`` runs of the fault-tolerant switching protocol
(``ResilientTokenSwitchProtocol``): 5 members for 6 s, member 2 crashed
from 1.0 s to 2.5 s and member 4 from 3.0 s for good, control-channel
loss 0.1 and 0.3, seeds 0-14.  The verdicts are written as one
``ScenarioSuite`` to ``benchmarks/results/chaos_sweep.json``, and
``tests/scenarios/test_chaos_sweep.py`` regenerates it and compares it
byte for byte, so a change to the FT SP's behaviour under faults shows
as a diff of exact counts (completed and aborted switches, stalls,
reconciles, splits) rather than as prose.

Run from the repository root (about 10 s in one process on a 2-vCPU host)::

    PYTHONPATH=src python benchmarks/chaos_sweep.py
    PYTHONPATH=src python benchmarks/chaos_sweep.py --out /tmp/sweep.json --table
"""

from __future__ import annotations

import argparse
import json
from dataclasses import replace
from pathlib import Path
from typing import Dict, List

from repro.records import dump
from repro.scenarios.runner import ScenarioSuite, ScenarioVerdict, run_scenario_cell
from repro.scenarios.spec import CrashSpec, ScenarioSpec
from repro.testing.chaos import ChaosConfig
from repro.workloads.parallel import run_cells

ARTIFACT = Path(__file__).resolve().parent / "results" / "chaos_sweep.json"

MEMBERS = 5
DURATION = 6.0
CRASHES = (CrashSpec(2, 1.0, 2.5), CrashSpec(4, 3.0))
CONTROL_LOSSES = (0.1, 0.3)
SEEDS = tuple(range(15))


def specs() -> List[ScenarioSpec]:
    """The sweep's runs, each named ``loss{loss}_seed{seed}``."""
    return [
        replace(
            ChaosConfig(
                members=MEMBERS,
                duration=DURATION,
                seed=seed,
                control_loss=loss,
                crashes=CRASHES,
            ).spec(),
            name=f"loss{loss}_seed{seed}",
        )
        for loss in CONTROL_LOSSES
        for seed in SEEDS
    ]


def run_sweep(workers: int = 1) -> ScenarioSuite:
    """Every run's verdict; a process pool gives the same bytes."""
    cells = [{"spec": spec} for spec in specs()]
    verdicts = run_cells(cells, run_scenario_cell, workers)
    return ScenarioSuite("sim", {v.scenario: v for v in verdicts})


def write(suite: ScenarioSuite, path: Path) -> None:
    with open(path, "w") as handle:
        json.dump(dump(suite), handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


def scoreboard(verdicts: List[ScenarioVerdict]) -> Dict[str, int]:
    """The sweep's totals: the row ROADMAP item 16's table tracks.

    ``completed`` sums the ``globally_complete`` counter, which a
    takeover can report twice for one switch; ``verdict_completed`` sums
    the verdicts' own count.  A run "splits" when the whole-trace Total
    Order note is present.
    """
    aborting = [v for v in verdicts if v.switches_aborted]
    clean = [v for v in verdicts if not v.switches_aborted]
    return {
        "completed": sum(v.counters.get("globally_complete", 0) for v in verdicts),
        "verdict_completed": sum(v.switches_completed for v in verdicts),
        "aborted": sum(v.switches_aborted for v in verdicts),
        "stalls": sum(v.counters.get("stalls_detected", 0) for v in verdicts),
        "reconciled": sum(v.counters.get("reconciled", 0) for v in verdicts),
        "aborting_runs": len(aborting),
        "aborting_runs_split": sum(v.total_order is not None for v in aborting),
        "no_abort_runs": len(clean),
        "no_abort_runs_split": sum(v.total_order is not None for v in clean),
        "violating_runs": sum(not v.ok for v in verdicts),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=ARTIFACT)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--table", action="store_true", help="print the totals")
    args = parser.parse_args(argv)
    suite = run_sweep(args.workers)
    write(suite, args.out)
    if args.table:
        for key, value in scoreboard(list(suite.scenarios.values())).items():
            print(f"{key:>20} {value}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
