"""Observability artifacts: switch-phase timing breakdowns, and the
price of watching.

Runs the instrumented switch demo on the deterministic runtime and
publishes the per-phase breakdown of the switch — PREPARE / SWITCH /
FLUSH rotations plus the end-to-end total — as a machine-readable JSON
artifact, the shape downstream dashboards consume.  Doubles as an
integration check that the instrumentation bus records one complete
span per phase without perturbing the oracle verdict.

The telemetry-overhead kernel times the same fleet sweep with the
telemetry plane off and on (interleaved best-of-N, so drift hits both
legs equally) and pins the slowdown under a 5% budget — the number
that justifies "telemetry is cheap enough to leave on in experiments".
``scripts/check_telemetry.py --overhead`` gates the artifact in CI.
"""

import time
from dataclasses import dataclass
from typing import List

from repro.fleet.runner import FleetConfig, run_fleet
from repro.obs.bus import Bus
from repro.records import dump
from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo

PHASES = ("prepare", "switch", "flush")
OVERHEAD_BUDGET_PCT = 5.0
OVERHEAD_ROUNDS = 5


@dataclass
class OverheadSettings:
    """The overhead workload's shape, as the artifact records it."""

    groups: int
    clients: int
    duration_s: float
    rounds: int
    seed: int


@dataclass
class OverheadLeg:
    """One leg's timings (best of ``times_s``) and its sim outcome."""

    best_s: float
    times_s: List[float]
    delivered: int
    casts: int


@dataclass
class OverheadArtifact:
    """``telemetry_overhead.json``: the plane off vs on, and the budget
    the slowdown is held to."""

    benchmark: str
    schema_version: int
    config: OverheadSettings
    off: OverheadLeg
    on: OverheadLeg
    overhead_pct: float
    threshold_pct: float
    identical_outcome: bool


def test_switch_phase_breakdown(benchmark, report_json):
    bus = Bus(enabled=True)

    def run():
        bus.clear()
        return run_switch_demo(
            SwitchRunConfig(runtime="sim", duration=3.0, seed=42), bus=bus
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.ok, result.violations

    spans = {
        phase: [
            e
            for e in bus.events
            if e.kind == "X" and e.name == f"switch/{phase}"
        ]
        for phase in PHASES + ("total",)
    }
    for phase, found in spans.items():
        assert found, f"no complete switch/{phase} span recorded"

    snapshot = dump(bus.metrics.snapshot())
    payload = {
        "runtime": result.runtime,
        "seed": result.config.seed,
        "switch_duration_ms": result.switch_duration_ms,
        "phases_ms": {
            phase: [e.dur * 1e3 for e in spans[phase]] for phase in PHASES
        },
        "total_ms": [e.dur * 1e3 for e in spans["total"]],
        "histograms": {
            name: hist
            for name, hist in snapshot["histograms"].items()
            if name.startswith("switch.")
        },
        "counters": {
            name: value
            for name, value in snapshot["counters"].items()
            if name.startswith(("sp.", "core.", "net."))
        },
    }
    report_json("switch_phases.json", payload)

    # The phases partition the total: their sum cannot exceed it.
    total = payload["total_ms"][0]
    assert sum(v[0] for v in payload["phases_ms"].values()) <= total + 1e-6


def _fleet_config(telemetry: bool) -> FleetConfig:
    """The overhead workload: a 20-group sim sweep with real switches."""
    # The headline sweep's per-group rates (cold 6 deliveries/s, hot
    # 300/s, threshold 50) scaled down to a 20-group kernel.
    return FleetConfig(
        groups=20,
        members=3,
        nodes=12,
        clients=2_000,
        client_rate=0.02,
        hot_fraction=0.1,
        hot_multiplier=50.0,
        duration=10.0,
        warmup=0.5,
        settle=1.0,
        high_threshold=50.0,
        seed=9,
        telemetry=telemetry,
        telemetry_window=1.0,
    )


def test_telemetry_overhead(benchmark, report_json):
    """Fleet sweep wall-clock with the telemetry plane off vs on.

    Interleaved best-of-N: round k times the off leg then the on leg,
    so thermal / scheduler drift lands on both sides.  Best-of (not
    mean) because sim runs are deterministic — the minimum is the run
    least disturbed by the host, which is the quantity the budget is
    about.  The sim outcome must be bit-identical either way: the plane
    observes, it must never steer.
    """
    timings = {"off": [], "on": []}
    outcomes = {}
    for _ in range(OVERHEAD_ROUNDS):
        for leg in ("off", "on"):
            start = time.perf_counter()
            result = run_fleet(_fleet_config(telemetry=leg == "on"))
            timings[leg].append(time.perf_counter() - start)
            assert result.ok, result.violations
            outcome = (
                result.delivered,
                result.casts,
                result.hot_switched,
                tuple(
                    (r.group_id, r.delivered, r.final_protocol)
                    for r in result.per_group
                ),
            )
            outcomes.setdefault(leg, outcome)
            assert outcomes[leg] == outcome, "nondeterministic sim run"

    # One counted pass for pytest-benchmark's own table.
    benchmark.extra_info["runtime"] = "sim"
    benchmark.pedantic(
        lambda: run_fleet(_fleet_config(telemetry=True)),
        rounds=1,
        iterations=1,
    )

    legs = {
        leg: OverheadLeg(
            min(timings[leg]), timings[leg], outcomes[leg][0], outcomes[leg][1]
        )
        for leg in ("off", "on")
    }
    best_off, best_on = legs["off"].best_s, legs["on"].best_s
    overhead_pct = (best_on - best_off) / best_off * 100.0
    identical = (
        outcomes["off"][:3] == outcomes["on"][:3]
        and outcomes["off"][3] == outcomes["on"][3]
    )
    artifact = OverheadArtifact(
        benchmark="telemetry_overhead",
        schema_version=1,
        config=OverheadSettings(20, 2_000, 10.0, OVERHEAD_ROUNDS, 9),
        off=legs["off"],
        on=legs["on"],
        overhead_pct=overhead_pct,
        threshold_pct=OVERHEAD_BUDGET_PCT,
        identical_outcome=identical,
    )
    report_json("telemetry_overhead.json", dump(artifact))

    assert identical, "telemetry changed the sim outcome"
    assert overhead_pct <= OVERHEAD_BUDGET_PCT, (
        f"telemetry overhead {overhead_pct:.2f}% blows the "
        f"{OVERHEAD_BUDGET_PCT}% budget"
    )
