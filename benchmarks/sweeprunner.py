#!/usr/bin/env python
"""Parallel sweep runner: fan sweep cells across worker processes.

Both the Figure 2 sweep and the scaling benchmark are grids of
independent simulated runs — every cell builds its own ``Simulator``
and seeds its RNG purely from the cell parameters.  This runner fans
those cells across a process pool (``repro.workloads.parallel``) and
merges the results back in cell-definition order, so the merged JSON
artifact is **byte-identical** for any ``--workers`` value.  That
property is asserted by ``tests/workloads/test_parallel.py`` and is the
reason the artifact records the seed but never the worker count, wall
time, or anything else execution-dependent.

Usage::

    PYTHONPATH=src python benchmarks/sweeprunner.py --workers 8
    PYTHONPATH=src python benchmarks/sweeprunner.py --sweep figure2 \\
        --senders 1,2,3,4,5,6 --duration 2.0 --workers 4
    PYTHONPATH=src python benchmarks/sweeprunner.py --sweep scale --quick

Exit code 0 on success (and, when the scale sweep ran, when its
batching acceptance criterion holds).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Dict, List

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bench_scale  # noqa: E402
from repro.records import dump  # noqa: E402
from repro.workloads.experiment import Figure2Config  # noqa: E402
from repro.workloads.parallel import (  # noqa: E402
    default_workers,
    figure2_cells,
    run_cells,
    run_figure2_cell,
)

SCHEMA_VERSION = 1

FIGURE2_PROTOCOLS = ("sequencer", "token")


# ---------------------------------------------------------------------------
# Scale cells (the grid of bench_scale.main, flattened)
# ---------------------------------------------------------------------------
def scale_cells(cfg: bench_scale.ScaleConfig) -> List[Dict[str, Any]]:
    cells: List[Dict[str, Any]] = [
        {
            "kind": "point",
            "protocol": protocol,
            "group_size": size,
            "max_batch": batch,
            "cfg": cfg,
        }
        for protocol in bench_scale.PROTOCOLS
        for size in cfg.group_sizes
        for batch in cfg.batch_sizes
    ]
    for batch in (min(cfg.batch_sizes), max(cfg.batch_sizes)):
        cells.append({"kind": "switch", "max_batch": batch, "cfg": cfg})
    return cells


def run_scale_cell(cell: Dict[str, Any]) -> Any:
    """One scale cell; the executor's (picklable) worker function."""
    cfg = cell["cfg"]
    if cell["kind"] == "point":
        return bench_scale.run_point(
            cell["protocol"], cell["group_size"], cell["max_batch"], cfg
        )
    return bench_scale.run_switch_point(cell["max_batch"], cfg)


# ---------------------------------------------------------------------------
# Chaos cells (a seed grid through the fault-tolerant SP)
# ---------------------------------------------------------------------------
def chaos_cells(seeds, members: int, duration: float) -> List[Dict[str, Any]]:
    """One inline-spec scenario cell per seed, named ``chaos_seed{N}``."""
    from dataclasses import replace

    from repro.testing.chaos import ChaosConfig

    return [
        {
            "spec": replace(
                ChaosConfig(
                    members=members,
                    seed=seed,
                    duration=duration,
                    control_loss=0.05,
                    control_dup=0.02,
                    control_jitter=0.004,
                ).spec(),
                name=f"chaos_seed{seed}",
            )
        }
        for seed in seeds
    ]


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------
def run_figure2(args: argparse.Namespace, workers: int) -> Dict[str, Any]:
    config = Figure2Config(duration=args.duration, seed=args.seed)
    counts = (
        [int(s) for s in args.senders.split(",")]
        if args.senders
        else list(range(1, config.group_size + 1))
    )
    protocols = (
        tuple(args.protocols.split(","))
        if args.protocols
        else FIGURE2_PROTOCOLS
    )
    cells = figure2_cells(protocols, counts, config)
    print(f"figure2: {len(cells)} cells ({len(protocols)} protocols x "
          f"{len(counts)} sender counts), workers={workers}", flush=True)
    results = run_cells(cells, run_figure2_cell, workers)
    for result in results:
        print("  " + result.row(), flush=True)
    return {
        "config": {
            "group_size": config.group_size,
            "rate_msgs_per_s": config.rate,
            "body_size": config.body_size,
            "duration_s": config.duration,
            "warmup_s": config.warmup,
            "seed": config.seed,
            "protocols": list(protocols),
            "sender_counts": counts,
        },
        "points": [asdict(result) for result in results],
    }


def run_scale(args: argparse.Namespace, workers: int) -> Dict[str, Any]:
    cfg = (
        bench_scale.ScaleConfig.quick()
        if args.quick
        else bench_scale.ScaleConfig()
    )
    cfg.seed = args.seed
    if args.sizes:
        cfg.group_sizes = [int(s) for s in args.sizes.split(",")]
    if args.batches:
        cfg.batch_sizes = [int(b) for b in args.batches.split(",")]
    cells = scale_cells(cfg)
    print(f"scale: {len(cells)} cells, workers={workers}", flush=True)
    results = run_cells(cells, run_scale_cell, workers)
    points = [r for c, r in zip(cells, results) if c["kind"] == "point"]
    switch_runs = [r for c, r in zip(cells, results) if c["kind"] == "switch"]
    for point in points:
        print("  " + bench_scale._row(point), flush=True)
    return {
        "config": {
            "group_sizes": cfg.group_sizes,
            "batch_sizes": cfg.batch_sizes,
            "offered_msgs_per_s": cfg.offered,
            "active_senders": cfg.active_senders,
            "body_size": cfg.body_size,
            "duration_s": cfg.duration,
            "warmup_s": cfg.warmup,
            "seed": cfg.seed,
        },
        "points": dump(points),
        "switch_runs": dump(switch_runs),
        "acceptance": dump(bench_scale.evaluate_acceptance(points)),
    }


def run_scenarios(args: argparse.Namespace, workers: int) -> Dict[str, Any]:
    from repro.scenarios import load_catalog
    from repro.scenarios.runner import (
        ScenarioSuite,
        run_scenario_cell,
        scenario_cells,
    )

    catalog = load_catalog()
    names = [
        name for name, spec in catalog.items() if "sim" in spec.runtimes
    ]
    cells = scenario_cells(names, "sim")
    print(f"scenarios: {len(cells)} cells, workers={workers}", flush=True)
    verdicts = run_cells(cells, run_scenario_cell, workers)
    for verdict in verdicts:
        print("  " + verdict.summary().splitlines()[0], flush=True)
    return dump(ScenarioSuite("sim", {v.scenario: v for v in verdicts}))


def chaos_suite(args: argparse.Namespace, workers: int) -> Dict[str, Any]:
    from repro.scenarios.runner import ScenarioSuite, run_scenario_cell

    seeds = (
        [int(s) for s in args.chaos_seeds.split(",")]
        if args.chaos_seeds
        else list(range(8))
    )
    cells = chaos_cells(seeds, members=4, duration=4.0)
    print(f"chaos: {len(cells)} seeds, workers={workers}", flush=True)
    verdicts = run_cells(cells, run_scenario_cell, workers)
    for verdict in verdicts:
        print("  " + verdict.summary().splitlines()[0], flush=True)
    return dump(ScenarioSuite("sim", {v.scenario: v for v in verdicts}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--sweep",
        choices=("figure2", "scale", "scenarios", "chaos", "all"),
        default="all",
        help="which sweep(s) to fan out (default: all = figure2 + scale + "
        "scenarios; the chaos seed grid only runs when asked for)",
    )
    parser.add_argument(
        "--workers", type=int, default=0,
        help="worker processes; 0 = one per CPU core, 1 = inline/serial",
    )
    parser.add_argument(
        "--out", default=None,
        help="artifact path (default benchmarks/results/sweep.json)",
    )
    parser.add_argument("--seed", type=int, default=42, help="master seed")
    parser.add_argument(
        "--quick", action="store_true",
        help="scale sweep: use the CI smoke config",
    )
    parser.add_argument(
        "--duration", type=float, default=4.0,
        help="figure2: simulated seconds per cell",
    )
    parser.add_argument(
        "--senders", default=None,
        help="figure2: comma-separated active-sender counts",
    )
    parser.add_argument(
        "--protocols", default=None,
        help="figure2: comma-separated protocols (default sequencer,token)",
    )
    parser.add_argument(
        "--sizes", default=None,
        help="scale: comma-separated group sizes",
    )
    parser.add_argument(
        "--batches", default=None,
        help="scale: comma-separated max_batch values",
    )
    parser.add_argument(
        "--chaos-seeds", default=None,
        help="chaos: comma-separated seeds (default 0-7)",
    )
    args = parser.parse_args(argv)
    workers = 1 if args.workers == 1 else default_workers(args.workers or None)

    sweeps: Dict[str, Any] = {}
    if args.sweep in ("figure2", "all"):
        sweeps["figure2"] = run_figure2(args, workers)
    if args.sweep in ("scale", "all"):
        sweeps["scale"] = run_scale(args, workers)
    if args.sweep in ("scenarios", "all"):
        sweeps["scenarios"] = run_scenarios(args, workers)
    if args.sweep == "chaos":
        sweeps["chaos"] = chaos_suite(args, workers)

    artifact = {
        "benchmark": "sweeprunner",
        "schema_version": SCHEMA_VERSION,
        "seed": args.seed,
        "sweeps": sweeps,
    }
    out = args.out
    if out is None:
        out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "results", "sweep.json"
        )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")
    print(f"\nartifact: {out}")

    verdict = sweeps.get("scale", {}).get("acceptance")
    if verdict is not None and not verdict["pass"]:
        print("scale acceptance: FAIL")
        return 1
    for sweep in ("scenarios", "chaos"):
        failed = [
            name
            for name, entry in sweeps.get(sweep, {})
            .get("scenarios", {})
            .items()
            if not entry["ok"]
        ]
        if failed:
            print(f"{sweep} sweep: FAIL ({failed})")
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
