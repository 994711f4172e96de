"""Command-line interface: regenerate the paper's results.

::

    repro figure2        latency vs. active senders (Figure 2)
    repro table2         the property x meta-property matrix (Table 2)
    repro overhead       switching overhead near the crossover (section 7)
    repro oscillation    aggressive vs. hysteresis oracle (section 7)
    repro preservation   per-property preservation under live switching
    repro chaos          seeded fault-injection run with oracle checks
    repro scenario       scored scenarios from the catalog (drift + oracle)
    repro run            one live switch on a chosen runtime (sim or asyncio)
    repro fleet          many switching groups multiplexed in one process
    repro top            live terminal dashboard over fleet telemetry
    repro metrics        pretty-print a metrics snapshot JSON

Every command prints the paper's claim next to the measured result.

``run`` and ``chaos`` accept ``--trace out.trace.json`` (Chrome
trace-event file, loadable in Perfetto / ``chrome://tracing``),
``--events out.jsonl`` (raw event log) and ``--metrics metrics.json``
(counters/gauges/histogram snapshot).  Without these flags the
instrumentation bus stays disabled and the runs are byte-identical to
the uninstrumented seed.

``fleet --telemetry`` grows the live telemetry plane (windowed
per-group aggregation, SLO engine, flight recorder); ``--expo-port``
additionally serves ``/metrics`` + ``/snapshot`` over localhost HTTP on
the asyncio runtime, and ``repro top`` watches either a live endpoint
or a ``--telemetry-json`` payload.  ``chaos --blackbox`` rides the
flight recorder on a chaos run and dumps the black box as JSONL.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from ._version import __version__

__all__ = ["main"]


def _make_bus(args: argparse.Namespace):
    """An enabled Bus when any instrumentation flag was given, else None."""
    if not (args.trace or args.metrics or args.events):
        return None
    from .obs.bus import Bus

    return Bus(enabled=True)


def _export_bus(bus, args: argparse.Namespace, **header) -> None:
    """Write whichever artifacts the flags requested; prints the paths."""
    if bus is None:
        return
    from .obs.export import write_chrome_trace, write_jsonl, write_metrics

    if args.trace:
        records = write_chrome_trace(args.trace, bus.events)
        print(f"trace:    {args.trace} ({records} records, Perfetto-loadable)")
    if args.events:
        lines = write_jsonl(args.events, bus.events)
        print(f"events:   {args.events} ({lines} events)")
    if args.metrics:
        write_metrics(args.metrics, bus.metrics, **header)
        print(f"metrics:  {args.metrics}")


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome trace-event JSON (open in ui.perfetto.dev)",
    )
    parser.add_argument(
        "--events", metavar="FILE", help="write the raw event log as JSONL"
    )
    parser.add_argument(
        "--metrics",
        metavar="FILE",
        help="write the metrics snapshot (counters/gauges/histograms) JSON",
    )


def _cmd_figure2(args: argparse.Namespace) -> int:
    from .workloads.experiment import (
        Figure2Config,
        find_crossover,
        run_figure2_sweep,
    )

    config = Figure2Config(duration=args.duration, seed=args.seed)
    protocols = ("sequencer", "token", "hybrid") if args.hybrid else (
        "sequencer",
        "token",
    )
    counts = list(range(1, config.group_size + 1))
    print("Figure 2: message latency vs. number of active senders")
    print(f"(group of {config.group_size}, {config.rate:.0f} msgs/sec each, "
          f"{config.body_size} B payloads, 10 Mbit Ethernet model)\n")
    if args.workers != 1:
        from .workloads.parallel import default_workers, run_figure2_sweep_parallel

        results = run_figure2_sweep_parallel(
            protocols, counts, config,
            workers=default_workers(args.workers or None),
        )
    else:
        results = run_figure2_sweep(protocols, counts, config)
    header = "senders  " + "".join(f"{p:>12}" for p in protocols)
    print(header)
    print("-" * len(header))
    for index, k in enumerate(counts):
        row = f"{k:<9}"
        for protocol in protocols:
            row += f"{results[protocol][index].mean_ms:>10.2f}ms"
        print(row)
    crossover = find_crossover(results["sequencer"], results["token"])
    print(f"\nmeasured crossover: between {crossover[0]} and {crossover[1]} "
          f"active senders" if crossover else "\nno crossover found")
    print("paper:              between 5 and 6 active senders")
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from .traces.meta import ALL_META_PROPERTIES
    from .traces.report import PAPER_TABLE_2, matrix_agreement, render_matrix
    from .traces.universes import table2_universes
    from .traces.verify import compute_matrix

    depth = "thorough" if args.thorough else "fast"
    print(f"Computing Table 2 by bounded exhaustive model checking "
          f"(depth={depth})...\n")
    universes = table2_universes(depth)
    cells = compute_matrix(universes, list(ALL_META_PROPERTIES), PAPER_TABLE_2)
    print(render_matrix(cells))
    agreeing, pinned = matrix_agreement(cells)
    print(f"\nagreement with the paper's pinned cells: {agreeing}/{pinned}")
    return 0 if agreeing == pinned else 1


def _cmd_overhead(args: argparse.Namespace) -> int:
    from .workloads.experiment import (
        Figure2Config,
        run_switch_overhead_experiment,
    )

    config = Figure2Config(seed=args.seed)
    print("Section 7: switching overhead near the crossover\n")
    for senders, direction in (
        (5, "sequencer->token"),
        (6, "sequencer->token"),
        (6, "token->sequencer"),
    ):
        result = run_switch_overhead_experiment(senders, direction, config)
        print(
            f"{direction:<22} senders={senders}: switch took "
            f"{result.switch_duration_ms:6.1f}ms end to end; perceived "
            f"hiccup {result.max_hiccup_ms:5.1f}ms "
            f"(baseline {result.baseline_hiccup_ms:5.1f}ms); "
            f"senders blocked: {result.sends_blocked}"
        )
    print("\npaper: overhead of switching near the cross-over point is about"
          " 31 msecs;")
    print("       processes are never blocked from sending, so the perceived")
    print("       hiccup is often less than that.")
    return 0


def _cmd_oscillation(args: argparse.Namespace) -> int:
    from .workloads.experiment import Figure2Config, run_oscillation_experiment

    config = Figure2Config(seed=args.seed)
    print("Section 7: aggressive switching oscillates; hysteresis fixes it\n")
    for policy in ("aggressive", "hysteresis"):
        result = run_oscillation_experiment(policy, config)
        print(
            f"{policy:<11} switch requests={result.switch_requests:<3} "
            f"completed={result.switches_completed:<3} "
            f"mean latency={result.mean_latency_ms:.2f}ms"
        )
    print("\npaper: 'If switching too aggressively, the resulting protocol"
          " starts oscillating.'")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from .traces.meta import ALL_META_PROPERTIES, Composable
    from .traces.render import render_trace
    from .traces.universes import table2_universes
    from .traces.verify import (
        check_composability,
        check_preservation,
        shrink_counterexample,
    )

    universes = {prop.name: (prop, traces) for prop, traces in table2_universes("fast")}
    if args.property is None:
        print("auditable properties:")
        for name in universes:
            print(f"  {name}")
        print("\nusage: repro audit --property 'Total Order'")
        return 0
    if args.property not in universes:
        print(f"unknown property {args.property!r}; known: {sorted(universes)}")
        return 1
    prop, traces = universes[args.property]
    print(f"meta-property audit of {prop.name!r} "
          f"(exhaustive universe of {len(traces)} traces):\n")
    failing = []
    for meta in ALL_META_PROPERTIES:
        if isinstance(meta, Composable):
            verdict = check_composability(prop, traces, max_pairs=500_000)
        else:
            verdict = check_preservation(prop, meta, traces)
        mark = "preserved" if verdict.preserved else "REFUTED"
        print(f"  {meta.name:<14} {mark}")
        if verdict.counterexample is not None:
            ce = verdict.counterexample
            if not isinstance(meta, Composable):
                ce = shrink_counterexample(prop, meta, ce)
            print("      below (holds):")
            for line in (render_trace(ce.below, legend=False) or "(empty)").splitlines():
                print(f"        {line}")
            print("      above (fails):")
            for line in (render_trace(ce.above, legend=False) or "(empty)").splitlines():
                print(f"        {line}")
            failing.append(meta.name)
    print()
    if failing:
        print(f"{prop.name} fails {', '.join(failing)}: the switching")
        print("protocol does not guarantee it in general.")
    else:
        print(f"{prop.name} satisfies all six meta-properties: the paper's")
        print("theorem (section 6.3) says the switching protocol preserves it.")
    return 0


def _cmd_preservation(args: argparse.Namespace) -> int:
    from .workloads.preservation import run_preservation_suite

    print("Experiment S6: property preservation under live switching\n")
    outcomes = run_preservation_suite()
    mismatches = 0
    for outcome in outcomes:
        print(outcome.row())
        if outcome.explanation and not outcome.expected_holds:
            print(f"    violation: {outcome.explanation}")
        if not outcome.as_expected:
            mismatches += 1
    print(f"\n{len(outcomes) - mismatches}/{len(outcomes)} scenarios match "
          f"the paper's claims")
    return 0 if mismatches == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    import math

    from .testing.chaos import ChaosConfig, CrashWindow, run_chaos

    crashes = []
    for spec in args.crash or []:
        parts = spec.split(":")
        if len(parts) not in (2, 3):
            print(f"bad --crash spec {spec!r}; want RANK:AT[:UNTIL]")
            return 2
        crashes.append(
            CrashWindow(
                int(parts[0]),
                float(parts[1]),
                float(parts[2]) if len(parts) == 3 else math.inf,
            )
        )
    from .errors import NetworkError, SimulationError

    try:
        config = ChaosConfig(
            members=args.members,
            seed=args.seed,
            duration=args.duration,
            settle=args.settle,
            cast_rate=args.cast_rate,
            switch_every=args.switch_every,
            control_loss=args.control_loss,
            control_dup=args.control_dup,
            control_jitter=args.control_jitter,
            crashes=crashes,
        )
        print("Chaos run: fault-tolerant token SP under a seeded storm\n")
        bus = _make_bus(args)
        recorder = None
        if args.blackbox:
            from .obs.bus import Bus
            from .obs.telemetry import FlightRecorder

            if bus is None:
                # Recorder-only instrumentation: stream events to the
                # ring without retaining any (max_events=0).
                bus = Bus(enabled=True, max_events=0)
            recorder = FlightRecorder()
            recorder.attach(bus)
        result = run_chaos(config, bus=bus)
    except (SimulationError, NetworkError) as exc:
        print(f"bad chaos configuration: {exc}")
        return 2
    print(result.summary())
    _export_bus(bus, args, command="chaos", seed=args.seed, runtime="sim")
    if recorder is not None:
        lines = recorder.write_jsonl(args.blackbox)
        print(
            f"blackbox: {args.blackbox} ({len(recorder.captures)} captures, "
            f"{lines} lines)"
        )
    return 0 if result.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError, ScenarioError
    from .scenarios import load_catalog
    from .scenarios.runner import run_scenario_cell, scenario_cells

    try:
        catalog = load_catalog(args.catalog)
    except ScenarioError as exc:
        print(f"bad scenario catalog: {exc}")
        return 2

    if args.list:
        width = max(len(name) for name in catalog)
        for name, spec in catalog.items():
            runtimes = ",".join(spec.runtimes)
            print(f"{name:<{width}}  [{runtimes}]  {spec.summary}")
        return 0

    if args.all:
        names = [
            name
            for name, spec in catalog.items()
            if args.runtime in spec.runtimes
        ]
        if not names:
            print(f"no catalog scenario declares the {args.runtime!r} runtime")
            return 2
    elif args.name:
        if args.name not in catalog:
            print(
                f"unknown scenario {args.name!r}; known: {sorted(catalog)} "
                f"(see also: repro scenario --list)"
            )
            return 2
        if args.runtime not in catalog[args.name].runtimes:
            print(
                f"scenario {args.name!r} declares runtimes "
                f"{list(catalog[args.name].runtimes)}, not {args.runtime!r}"
            )
            return 2
        names = [args.name]
    else:
        print("pick a scenario by name, or pass --all / --list")
        return 2

    workers = args.workers
    if workers != 1 and args.runtime != "sim":
        print("parallel sweeps bind real UDP ports; forcing --workers 1")
        workers = 1
    print(
        f"Scenario sweep: {len(names)} scenario(s) on the "
        f"{args.runtime!r} runtime\n"
    )
    try:
        from .workloads.parallel import default_workers, run_cells

        verdicts = run_cells(
            scenario_cells(names, args.runtime, args.catalog),
            run_scenario_cell,
            workers=default_workers(workers or None) if workers != 1 else 1,
        )
    except ReproError as exc:
        print(f"scenario run failed: {exc}")
        return 2
    for verdict in verdicts:
        print(verdict.summary())
        print()
    failed = [v.scenario for v in verdicts if not v.ok]
    print(f"{len(verdicts) - len(failed)}/{len(verdicts)} scenarios passed")
    if failed:
        print(f"failing: {failed}")

    if args.json:
        payload = {
            "schema_version": 1,
            "suite": "scenarios",
            "runtime": args.runtime,
            "scenarios": {v.scenario: v.to_dict() for v in verdicts},
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"verdicts: {args.json}")
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .workloads.switchrun import SwitchRunConfig, run_switch_demo

    try:
        config = SwitchRunConfig(
            runtime=args.runtime,
            members=args.members,
            duration=args.duration,
            rate=args.rate,
            seed=args.seed,
            switch_at=args.switch_at,
            base_port=args.base_port,
            max_batch=args.batch,
            linger=args.linger,
        )
        print(
            f"Live sequencer->tokenring switch on the {args.runtime!r} "
            f"runtime\n"
        )
        bus = _make_bus(args)
        result = run_switch_demo(config, bus=bus)
    except ReproError as exc:
        print(f"bad run configuration: {exc}")
        return 2
    print(result.summary())
    _export_bus(
        bus, args, command="run", seed=args.seed, runtime=args.runtime
    )
    return 0 if result.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    import json

    from .errors import ReproError
    from .fleet import FleetConfig, run_fleet, run_fleet_sharded

    try:
        config = FleetConfig(
            runtime=args.runtime,
            shards=args.shards,
            groups=args.groups,
            members=args.members,
            nodes=args.nodes,
            clients=args.clients,
            client_rate=args.client_rate,
            hot_fraction=args.hot_fraction,
            hot_multiplier=args.hot_multiplier,
            duration=args.duration,
            seed=args.seed,
            high_threshold=args.high_threshold,
            oracle_poll=args.oracle_poll,
            settle=args.settle,
            base_port=args.base_port,
            telemetry=(
                args.telemetry
                or bool(args.telemetry_json)
                or bool(args.scrape_out)
                or args.expo_port is not None
            ),
            telemetry_window=args.telemetry_window,
            telemetry_history=args.telemetry_history,
            expo_port=args.expo_port,
            slo_p99_ms=args.slo_p99_ms,
            slo_switch_s=args.slo_switch_s,
            slo_ratio=args.slo_ratio,
        )
    except ReproError as exc:
        print(f"bad fleet configuration: {exc}")
        return 2
    sharded = f" across {config.shards} shards" if config.shards else ""
    print(
        f"Fleet sweep: {config.groups} groups x {config.members} members "
        f"over {config.nodes} nodes on the {config.runtime!r} "
        f"runtime{sharded}\n"
    )
    try:
        result = (
            run_fleet_sharded(config) if config.shards else run_fleet(config)
        )
    except ReproError as exc:
        print(f"fleet run failed: {exc}")
        return 2
    print(result.summary())
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(result.as_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"result: {args.json}")
    if args.telemetry_json:
        if result.telemetry is None:
            print("no telemetry collected; nothing to write")
            return 2
        with open(args.telemetry_json, "w") as handle:
            json.dump(result.telemetry, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"telemetry: {args.telemetry_json}")
    if args.scrape_out:
        scraped = (result.telemetry or {}).get("scrape")
        if scraped is None:
            print(
                "no scrape captured; --scrape-out needs --expo-port "
                "(asyncio runtime)"
            )
            return 2
        with open(args.scrape_out, "w") as handle:
            json.dump(scraped, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"scrape:   {args.scrape_out}")
    return 0 if result.ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.telemetry.top import run_top

    return run_top(
        args.source,
        interval=args.interval,
        limit=args.limit,
        once=args.once,
        as_json=args.json,
    )


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    try:
        with open(args.file) as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read metrics file {args.file!r}: {exc}")
        return 2

    header = {
        k: v
        for k, v in snapshot.items()
        if k not in ("counters", "gauges", "histograms")
    }
    if header:
        print("  ".join(f"{k}={v}" for k, v in sorted(header.items())))
        print()

    counters = snapshot.get("counters", {})
    if counters:
        print("counters:")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            print(f"  {name:<{width}}  {value}")
        print()

    gauges = snapshot.get("gauges", {})
    if gauges:
        print("gauges (latest value @ time):")
        width = max(len(name) for name in gauges)
        for name, entry in sorted(gauges.items()):
            print(
                f"  {name:<{width}}  {entry['value']:g} "
                f"@ t={entry['time']:.6f}"
            )
        print()

    histograms = snapshot.get("histograms", {})
    if histograms:
        print("histograms:")
        width = max(len(name) for name in histograms)
        head = (
            f"  {'name':<{width}}  {'count':>7} {'mean':>12} {'p50':>12} "
            f"{'p90':>12} {'p99':>12} {'max':>12}"
        )
        print(head)
        print("  " + "-" * (len(head) - 2))
        for name, h in sorted(histograms.items()):
            if not h.get("count"):
                print(f"  {name:<{width}}  {0:>7}")
                continue

            def cell(key: str) -> str:
                # Single-observation histograms carry no quantiles.
                value = h.get(key)
                return f"{value:>12.6g}" if value is not None else f"{'-':>12}"

            print(
                f"  {name:<{width}}  {h['count']:>7} {cell('mean')} "
                f"{cell('p50')} {cell('p90')} {cell('p99')} {cell('max')}"
            )

    if not (counters or gauges or histograms):
        print("(no metrics recorded)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Protocol Switching: Exploiting "
        "Meta-Properties' (WARGC/ICDCS 2001)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure2", help="latency vs. active senders")
    p_fig.add_argument("--duration", type=float, default=4.0)
    p_fig.add_argument("--seed", type=int, default=42)
    p_fig.add_argument(
        "--workers", type=int, default=1,
        help="fan sweep points across N processes (0 = one per core); "
        "results are identical for any worker count",
    )
    p_fig.add_argument(
        "--hybrid", action="store_true", help="include the adaptive hybrid"
    )
    p_fig.set_defaults(func=_cmd_figure2)

    p_tab = sub.add_parser("table2", help="meta-property matrix")
    p_tab.add_argument(
        "--thorough", action="store_true", help="enumerate one event deeper"
    )
    p_tab.set_defaults(func=_cmd_table2)

    p_ovh = sub.add_parser("overhead", help="switching overhead")
    p_ovh.add_argument("--seed", type=int, default=42)
    p_ovh.set_defaults(func=_cmd_overhead)

    p_osc = sub.add_parser("oscillation", help="oracle policy comparison")
    p_osc.add_argument("--seed", type=int, default=42)
    p_osc.set_defaults(func=_cmd_oscillation)

    p_pre = sub.add_parser("preservation", help="live preservation suite")
    p_pre.set_defaults(func=_cmd_preservation)

    p_chaos = sub.add_parser(
        "chaos", help="seeded fault-injection run with oracle checks"
    )
    p_chaos.add_argument("--members", type=int, default=4)
    p_chaos.add_argument("--seed", type=int, default=0)
    p_chaos.add_argument("--duration", type=float, default=6.0)
    p_chaos.add_argument("--cast-rate", type=float, default=120.0)
    p_chaos.add_argument("--switch-every", type=float, default=0.7)
    p_chaos.add_argument("--control-loss", type=float, default=0.0)
    p_chaos.add_argument("--control-dup", type=float, default=0.0)
    p_chaos.add_argument("--control-jitter", type=float, default=0.0)
    p_chaos.add_argument(
        "--crash",
        action="append",
        metavar="RANK:AT[:UNTIL]",
        help="crash RANK at time AT (recovering at UNTIL); repeatable",
    )
    p_chaos.add_argument(
        "--settle",
        type=int,
        default=20,
        help="convergence grace windows after the workload stops "
        "(0 = none: any in-flight switch at the horizon is a violation)",
    )
    p_chaos.add_argument(
        "--blackbox",
        metavar="FILE",
        help="ride the flight recorder on the run and write the black "
        "box (captures frozen on switch aborts) as JSONL",
    )
    _add_obs_flags(p_chaos)
    p_chaos.set_defaults(func=_cmd_chaos)

    p_scn = sub.add_parser(
        "scenario",
        help="run scored scenarios from the catalog (chaos/oracle testbed)",
    )
    p_scn.add_argument(
        "name", nargs="?", default=None, help="catalog entry to run"
    )
    p_scn.add_argument(
        "--all", action="store_true", help="run every catalog scenario"
    )
    p_scn.add_argument(
        "--list", action="store_true", help="list the catalog and exit"
    )
    p_scn.add_argument(
        "--runtime",
        choices=("sim", "asyncio"),
        default="sim",
        help="sim = deterministic virtual time; asyncio = real localhost UDP",
    )
    p_scn.add_argument(
        "--workers",
        type=int,
        default=1,
        help="fan the sweep across N processes (0 = one per core); "
        "verdicts are identical for any worker count (sim only)",
    )
    p_scn.add_argument(
        "--json", metavar="FILE", help="write all verdicts as one JSON file"
    )
    p_scn.add_argument(
        "--catalog",
        metavar="DIR",
        default=None,
        help="load scenarios from DIR instead of the built-in catalog",
    )
    p_scn.set_defaults(func=_cmd_scenario)

    p_run = sub.add_parser(
        "run", help="one live switch on a chosen runtime (sim or asyncio)"
    )
    p_run.add_argument(
        "--runtime",
        choices=("sim", "asyncio"),
        default="sim",
        help="sim = deterministic virtual time; asyncio = real localhost UDP",
    )
    p_run.add_argument("--members", type=int, default=4)
    p_run.add_argument("--duration", type=float, default=3.0)
    p_run.add_argument("--rate", type=float, default=50.0)
    p_run.add_argument("--seed", type=int, default=42)
    p_run.add_argument("--switch-at", type=float, default=1.5)
    p_run.add_argument(
        "--base-port",
        type=int,
        default=47310,
        help="first UDP port (asyncio runtime only)",
    )
    p_run.add_argument(
        "--batch",
        type=int,
        default=1,
        help="casts coalesced per wire frame (1 disables batching)",
    )
    p_run.add_argument(
        "--linger",
        type=float,
        default=0.0,
        help="seconds an incomplete batch waits before flushing",
    )
    _add_obs_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_fleet = sub.add_parser(
        "fleet",
        help="many switching groups multiplexed in one process",
        description="Drive a fleet of switching groups over shared "
        "per-node ports; the FleetOracle escalates hot groups from "
        "sequencer to token ring mid-run. Defaults reproduce the "
        "headline 1000-group / 100k-client sim sweep.",
    )
    p_fleet.add_argument(
        "--runtime",
        choices=("sim", "asyncio"),
        default="sim",
        help="sim = deterministic virtual time; asyncio = real localhost UDP",
    )
    p_fleet.add_argument("--groups", type=int, default=1000)
    p_fleet.add_argument("--members", type=int, default=3)
    p_fleet.add_argument("--nodes", type=int, default=48)
    p_fleet.add_argument(
        "--clients",
        type=int,
        default=100_000,
        help="simulated clients, folded into compound-rate Poisson senders",
    )
    p_fleet.add_argument("--client-rate", type=float, default=0.02)
    p_fleet.add_argument("--hot-fraction", type=float, default=0.05)
    p_fleet.add_argument("--hot-multiplier", type=float, default=50.0)
    p_fleet.add_argument("--duration", type=float, default=10.0)
    p_fleet.add_argument("--seed", type=int, default=42)
    p_fleet.add_argument(
        "--high-threshold",
        type=float,
        default=50.0,
        help="per-group delivered-rate above which the oracle escalates",
    )
    p_fleet.add_argument("--oracle-poll", type=float, default=0.5)
    p_fleet.add_argument("--settle", type=float, default=2.0)
    p_fleet.add_argument(
        "--shards",
        type=int,
        default=0,
        help="partition the fleet across this many worker processes by "
        "group-id hash (sim runtime only; 0 = in-process)",
    )
    p_fleet.add_argument(
        "--base-port",
        type=int,
        default=47310,
        help="first UDP port (asyncio runtime only)",
    )
    p_fleet.add_argument(
        "--json", metavar="FILE", help="write the full result as JSON"
    )
    p_fleet.add_argument(
        "--telemetry",
        action="store_true",
        help="grow the live telemetry plane (windowed per-group "
        "aggregation, SLO engine, flight recorder); off by default",
    )
    p_fleet.add_argument(
        "--telemetry-window",
        type=float,
        default=1.0,
        help="aggregation window seconds",
    )
    p_fleet.add_argument(
        "--telemetry-history",
        type=int,
        default=60,
        help="rolled windows retained per group",
    )
    p_fleet.add_argument(
        "--telemetry-json",
        metavar="FILE",
        help="write the final telemetry payload (snapshot + Prometheus "
        "text + escalations) as JSON; implies --telemetry",
    )
    p_fleet.add_argument(
        "--expo-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve /metrics + /snapshot over localhost HTTP "
        "(asyncio runtime only; 0 = kernel-picked); implies --telemetry",
    )
    p_fleet.add_argument(
        "--scrape-out",
        metavar="FILE",
        help="self-scrape the live endpoint at the end of the run and "
        "write the scraped payload as JSON (needs --expo-port)",
    )
    p_fleet.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        help="SLO: delivery-latency p99 ceiling per window (ms)",
    )
    p_fleet.add_argument(
        "--slo-switch-s",
        type=float,
        default=None,
        help="SLO: time-to-switch ceiling (seconds)",
    )
    p_fleet.add_argument(
        "--slo-ratio",
        type=float,
        default=None,
        help="SLO: delivery-ratio floor (delivered / (casts x members))",
    )
    p_fleet.set_defaults(func=_cmd_fleet)

    p_top = sub.add_parser(
        "top",
        help="live terminal dashboard over fleet telemetry",
        description="Watch a fleet: point at a live exposition endpoint "
        "(http://host:port from fleet --expo-port) or a telemetry "
        "payload file (fleet --telemetry-json). Several sources — one "
        "per shard — merge into a single fleet view. Redraws every "
        "--interval seconds; --once renders a single frame, --once "
        "--json prints the raw payload for scripts.",
    )
    p_top.add_argument(
        "source",
        nargs="+",
        help="http://host:port of a live endpoint, or a telemetry JSON "
        "file; repeat for per-shard sources to watch the merged fleet",
    )
    p_top.add_argument("--interval", type=float, default=2.0)
    p_top.add_argument(
        "--limit", type=int, default=15, help="groups shown (hottest first)"
    )
    p_top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    p_top.add_argument(
        "--json",
        action="store_true",
        help="with --once: print the raw payload instead of the dashboard",
    )
    p_top.set_defaults(func=_cmd_top)

    p_met = sub.add_parser(
        "metrics", help="pretty-print a metrics snapshot JSON"
    )
    p_met.add_argument("file", help="metrics JSON written by --metrics")
    p_met.set_defaults(func=_cmd_metrics)

    p_audit = sub.add_parser(
        "audit", help="audit a property against the six meta-properties"
    )
    p_audit.add_argument(
        "--property", default=None, help='e.g. "Total Order" (omit to list)'
    )
    p_audit.set_defaults(func=_cmd_audit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
