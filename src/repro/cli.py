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
    repro audit          audit a property against the six meta-properties

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
import dataclasses
import sys
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from ._version import __version__

__all__ = ["main"]


def _config(cls, args: argparse.Namespace, **extra: Any):
    """*cls* built from the flags the user gave; the rest keep the field
    defaults (a ``from_config`` command's flags are absent unless given)."""
    fields = {field.name for field in dataclasses.fields(cls)}
    given = {k: v for k, v in vars(args).items() if k in fields}
    return cls(**given, **extra)


def _make_bus(args: argparse.Namespace):
    """An enabled Bus when any instrumentation flag was given, else None."""
    if not (args.trace or args.metrics or args.events):
        return None
    from .obs.bus import Bus

    return Bus(enabled=True)


def _write_json(path: str, payload) -> None:
    """Write one JSON artifact; a NaN or Infinity in it is refused."""
    import json

    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")


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


def _cmd_figure2(args: argparse.Namespace) -> int:
    from .workloads.experiment import (
        Figure2Config,
        find_crossover,
        run_figure2_sweep,
    )

    config = _config(Figure2Config, args)
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

    config = _config(Figure2Config, args)
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

    config = _config(Figure2Config, args)
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
    from .errors import ReproError
    from .scenarios.runner import run_scenario
    from .scenarios.spec import CrashSpec
    from .testing.chaos import ChaosConfig

    windows = []
    for text in args.crash or []:
        parts = text.split(":")
        try:
            if len(parts) not in (2, 3):
                raise ValueError(text)
            windows.append((int(parts[0]), *map(float, parts[1:])))
        except ValueError:
            print(f"bad --crash spec {text!r}; want RANK:AT[:UNTIL]")
            return 2
    try:
        crashes = tuple(CrashSpec(*window) for window in windows)
        config = _config(ChaosConfig, args, crashes=crashes)
        spec = config.spec()
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
        verdict = run_scenario(spec, bus=bus)
    except ReproError as exc:
        print(f"bad chaos configuration: {exc}")
        return 2
    print(verdict.summary())
    _export_bus(bus, args, command="chaos", seed=config.seed, runtime="sim")
    if recorder is not None:
        lines = recorder.write_jsonl(args.blackbox)
        print(
            f"blackbox: {args.blackbox} ({len(recorder.captures)} captures, "
            f"{lines} lines)"
        )
    return 0 if verdict.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .errors import ReproError, ScenarioError
    from .scenarios import load_catalog
    from .records import dump
    from .scenarios.runner import (
        ScenarioSuite,
        run_scenario_cell,
        scenario_cells,
    )

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
        suite = ScenarioSuite(args.runtime, {v.scenario: v for v in verdicts})
        _write_json(args.json, dump(suite))
        print(f"verdicts: {args.json}")
    return 1 if failed else 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .workloads.switchrun import SwitchRunConfig, run_switch_demo

    try:
        config = _config(SwitchRunConfig, args)
        print(
            f"Live sequencer->tokenring switch on the {config.runtime!r} "
            f"runtime\n"
        )
        bus = _make_bus(args)
        result = run_switch_demo(config, bus=bus)
    except ReproError as exc:
        print(f"bad run configuration: {exc}")
        return 2
    print(result.summary())
    _export_bus(
        bus, args, command="run", seed=config.seed, runtime=config.runtime
    )
    return 0 if result.ok else 1


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .errors import ReproError
    from .fleet import FleetConfig, run_fleet, run_fleet_sharded
    from .records import dump

    if args.telemetry_json or args.scrape_out or "expo_port" in args:
        args.telemetry = True  # each of these implies --telemetry
    try:
        config = _config(FleetConfig, args)
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
        _write_json(args.json, result.as_dict())
        print(f"result: {args.json}")
    if args.telemetry_json:
        if result.telemetry is None:
            print("no telemetry collected; nothing to write")
            return 2
        _write_json(args.telemetry_json, dump(result.telemetry))
        print(f"telemetry: {args.telemetry_json}")
    if args.scrape_out:
        scraped = result.telemetry and result.telemetry.scrape
        if scraped is None:
            print(
                "no scrape captured; --scrape-out needs --expo-port "
                "(asyncio runtime)"
            )
            return 2
        _write_json(args.scrape_out, dump(scraped))
        print(f"scrape:   {args.scrape_out}")
    return 0 if result.ok else 1


def _cmd_top(args: argparse.Namespace) -> int:
    from .obs.telemetry.top import run_top

    # --interval/--limit reach run_top only when given: their defaults
    # live in its signature.
    given = {k: v for k, v in vars(args).items() if k in ("interval", "limit")}
    return run_top(args.source, once=args.once, as_json=args.json, **given)


def _cmd_metrics(args: argparse.Namespace) -> int:
    import json

    from .errors import RecordError
    from .obs.metrics import MetricsSnapshot
    from .records import load

    try:
        with open(args.file) as handle:
            snapshot = load(MetricsSnapshot, json.load(handle), "metrics")
    except (OSError, ValueError, RecordError) as exc:
        print(f"cannot read metrics file {args.file!r}: {exc}")
        return 2
    print("\n".join(_metrics_lines(snapshot)))
    return 0


def _metrics_lines(snapshot) -> List[str]:
    """The ``repro metrics`` report of a :class:`MetricsSnapshot`."""
    lines: List[str] = []
    header = {
        name: value
        for name, value in (
            ("command", snapshot.command),
            ("runtime", snapshot.runtime),
            ("seed", snapshot.seed),
        )
        if value is not None
    }
    if header:
        lines.append("  ".join(f"{k}={v}" for k, v in header.items()))
        lines.append("")

    counters = snapshot.counters
    if counters:
        lines.append("counters:")
        width = max(len(name) for name in counters)
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<{width}}  {value}")
        lines.append("")

    gauges = snapshot.gauges
    if gauges:
        lines.append("gauges (latest value @ time):")
        width = max(len(name) for name in gauges)
        for name, entry in sorted(gauges.items()):
            lines.append(
                f"  {name:<{width}}  {entry.value:g} @ t={entry.time:.6f}"
            )
        lines.append("")

    histograms = snapshot.histograms
    if histograms:
        lines.append("histograms:")
        width = max(len(name) for name in histograms)
        head = (
            f"  {'name':<{width}}  {'count':>7} {'mean':>12} {'p50':>12} "
            f"{'p90':>12} {'p99':>12} {'max':>12}"
        )
        lines.append(head)
        lines.append("  " + "-" * (len(head) - 2))
        for name, h in sorted(histograms.items()):
            if not h.count:
                lines.append(f"  {name:<{width}}  {0:>7}")
                continue
            # Single-observation histograms carry no quantiles.
            cells = [
                f"{'-':>12}" if value is None else f"{value:>12.6g}"
                for value in (h.mean, h.p50, h.p90, h.p99, h.max)
            ]
            lines.append(f"  {name:<{width}}  {h.count:>7} {' '.join(cells)}")

    if not (counters or gauges or histograms):
        lines.append("(no metrics recorded)")
    return lines


Flag = Tuple[Tuple[str, ...], Dict[str, Any]]


def _flag(*names: str, **kwargs: Any) -> Flag:
    """One ``add_argument`` call, kept as data for the command table."""
    return names, kwargs


class Command(NamedTuple):
    """One subcommand.  A ``from_config`` command's handler builds a
    config dataclass with :func:`_config`, so its field flags declare no
    default and only its other flags state one."""

    name: str
    help: str
    handler: Callable[[argparse.Namespace], int]
    flags: Tuple[Flag, ...] = ()
    from_config: bool = False
    description: Optional[str] = None


_RUNTIME = dict(
    choices=("sim", "asyncio"),
    help="sim = deterministic virtual time; asyncio = real localhost UDP",
)
_SEED = _flag("--seed", type=int)
_BASE_PORT = _flag("--base-port", type=int,
                   help="first UDP port (asyncio runtime only)")
_OBS_FLAGS = (
    _flag("--trace", metavar="FILE", default=None,
          help="write a Chrome trace-event JSON (open in ui.perfetto.dev)"),
    _flag("--events", metavar="FILE", default=None,
          help="write the raw event log as JSONL"),
    _flag("--metrics", metavar="FILE", default=None,
          help="write the metrics snapshot (counters/gauges/histograms) "
          "JSON"),
)

COMMANDS: Tuple[Command, ...] = (
    Command("figure2", "latency vs. active senders", _cmd_figure2, (
        _flag("--duration", type=float),
        _SEED,
        _flag("--workers", type=int, default=1,
              help="fan sweep points across N processes (0 = one per "
              "core); results are identical for any worker count"),
        _flag("--hybrid", action="store_true", default=False,
              help="include the adaptive hybrid"),
    ), from_config=True),
    Command("table2", "meta-property matrix", _cmd_table2, (
        _flag("--thorough", action="store_true",
              help="enumerate one event deeper"),
    )),
    Command("overhead", "switching overhead", _cmd_overhead, (_SEED,),
            from_config=True),
    Command("oscillation", "oracle policy comparison", _cmd_oscillation,
            (_SEED,), from_config=True),
    Command("preservation", "live preservation suite", _cmd_preservation),
    Command("chaos", "seeded fault-injection run with oracle checks",
            _cmd_chaos, (
        _flag("--members", type=int),
        _SEED,
        _flag("--duration", type=float),
        _flag("--cast-rate", type=float),
        _flag("--switch-every", type=float),
        _flag("--control-loss", type=float),
        _flag("--control-dup", type=float),
        _flag("--control-jitter", type=float),
        _flag("--crash", action="append", default=None,
              metavar="RANK:AT[:UNTIL]",
              help="crash RANK at time AT (recovering at UNTIL); "
              "repeatable"),
        _flag("--settle", type=int,
              help="convergence grace windows after the workload stops "
              "(0 = none: any in-flight switch at the horizon is a "
              "violation)"),
        _flag("--blackbox", metavar="FILE", default=None,
              help="ride the flight recorder on the run and write the "
              "black box (captures frozen on switch aborts) as JSONL"),
        *_OBS_FLAGS,
    ), from_config=True),
    Command("scenario",
            "run scored scenarios from the catalog (chaos/oracle testbed)",
            _cmd_scenario, (
        _flag("name", nargs="?", help="catalog entry to run"),
        _flag("--all", action="store_true",
              help="run every catalog scenario"),
        _flag("--list", action="store_true",
              help="list the catalog and exit"),
        _flag("--runtime", default="sim", **_RUNTIME),
        _flag("--workers", type=int, default=1,
              help="fan the sweep across N processes (0 = one per core); "
              "verdicts are identical for any worker count (sim only)"),
        _flag("--json", metavar="FILE",
              help="write all verdicts as one JSON file"),
        _flag("--catalog", metavar="DIR",
              help="load scenarios from DIR instead of the built-in "
              "catalog"),
    )),
    Command("run", "one live switch on a chosen runtime (sim or asyncio)",
            _cmd_run, (
        _flag("--runtime", **_RUNTIME),
        _flag("--members", type=int),
        _flag("--duration", type=float),
        _flag("--rate", type=float),
        _SEED,
        _flag("--switch-at", type=float),
        _BASE_PORT,
        _flag("--batch", dest="max_batch", metavar="BATCH", type=int,
              help="casts coalesced per wire frame (1 disables batching)"),
        _flag("--linger", type=float,
              help="seconds an incomplete batch waits before flushing"),
        *_OBS_FLAGS,
    ), from_config=True),
    Command("fleet", "many switching groups multiplexed in one process",
            _cmd_fleet, (
        _flag("--runtime", **_RUNTIME),
        _flag("--groups", type=int),
        _flag("--members", type=int),
        _flag("--nodes", type=int),
        _flag("--clients", type=int,
              help="simulated clients, folded into compound-rate Poisson "
              "senders"),
        _flag("--client-rate", type=float),
        _flag("--hot-fraction", type=float),
        _flag("--hot-multiplier", type=float),
        _flag("--duration", type=float),
        _SEED,
        _flag("--high-threshold", type=float,
              help="per-group delivered-rate above which the oracle "
              "escalates"),
        _flag("--oracle-poll", type=float),
        _flag("--settle", type=float),
        _flag("--shards", type=int,
              help="partition the fleet across this many worker processes "
              "by group-id hash (sim runtime only; 0 = in-process)"),
        _BASE_PORT,
        _flag("--json", metavar="FILE", default=None,
              help="write the full result as JSON"),
        _flag("--telemetry", action="store_true",
              help="grow the live telemetry plane (windowed per-group "
              "aggregation, SLO engine, flight recorder); off by default"),
        _flag("--telemetry-window", type=float,
              help="aggregation window seconds"),
        _flag("--telemetry-history", type=int,
              help="rolled windows retained per group"),
        _flag("--telemetry-json", metavar="FILE", default=None,
              help="write the final telemetry payload (snapshot + "
              "Prometheus text + escalations) as JSON; implies "
              "--telemetry"),
        _flag("--expo-port", type=int, metavar="PORT",
              help="serve /metrics + /snapshot over localhost HTTP "
              "(asyncio runtime only; 0 = kernel-picked); implies "
              "--telemetry"),
        _flag("--scrape-out", metavar="FILE", default=None,
              help="self-scrape the live endpoint at the end of the run "
              "and write the scraped payload as JSON (needs --expo-port)"),
        _flag("--slo-p99-ms", type=float,
              help="SLO: delivery-latency p99 ceiling per window (ms)"),
        _flag("--slo-switch-s", type=float,
              help="SLO: time-to-switch ceiling (seconds)"),
        _flag("--slo-ratio", type=float,
              help="SLO: delivery-ratio floor (delivered / (casts x "
              "members))"),
    ), from_config=True,
       description="Drive a fleet of switching groups over shared "
       "per-node ports; the FleetOracle escalates hot groups from "
       "sequencer to token ring mid-run. Defaults reproduce the "
       "headline 1000-group / 100k-client sim sweep."),
    Command("top", "live terminal dashboard over fleet telemetry",
            _cmd_top, (
        _flag("source", nargs="+",
              help="http://host:port of a live endpoint, or a telemetry "
              "JSON file; repeat for per-shard sources to watch the "
              "merged fleet"),
        _flag("--interval", type=float, default=argparse.SUPPRESS),
        _flag("--limit", type=int, default=argparse.SUPPRESS,
              help="groups shown (hottest first)"),
        _flag("--once", action="store_true",
              help="render one frame and exit"),
        _flag("--json", action="store_true",
              help="with --once: print the raw payload instead of the "
              "dashboard"),
    ), description="Watch a fleet: point at a live exposition endpoint "
       "(http://host:port from fleet --expo-port) or a telemetry "
       "payload file (fleet --telemetry-json). Several sources — one "
       "per shard — merge into a single fleet view. Redraws every "
       "--interval seconds; --once renders a single frame, --once "
       "--json prints the raw payload for scripts."),
    Command("metrics", "pretty-print a metrics snapshot JSON", _cmd_metrics,
            (_flag("file", help="metrics JSON written by --metrics"),)),
    Command("audit", "audit a property against the six meta-properties",
            _cmd_audit, (
        _flag("--property", help='e.g. "Total Order" (omit to list)'),
    )),
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the repro argument parser from :data:`COMMANDS`."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce 'Protocol Switching: Exploiting "
        "Meta-Properties' (WARGC/ICDCS 2001)",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        p = sub.add_parser(
            command.name,
            help=command.help,
            description=command.description,
            argument_default=(
                argparse.SUPPRESS if command.from_config else None
            ),
        )
        for names, kwargs in command.flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=command.handler)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
