"""Exact-value pins for every runner that builds its run through
``repro.workloads.session.Session``.

``fixtures/harness_pins.json`` was captured against the six hand-wired
runners, before they moved onto the shared harness.  Each pin is a full
result, floats compared exactly: the harness owns hook registration
order, RNG stream names and sender start order, and all three fix
same-instant tie-breaks in the engine.  A pin that needs editing means
ordering or RNG use changed — fix the code, not the fixture.

The fixture has been regenerated on purpose for changes of model-time
behaviour: when dormant slots landed (a sequencer-mode group's token
ring parks instead of spinning), when the baseline SP's NORMAL token
came to rest (six entries; the chaos pins run the fault-tolerant SP and
did not move), when the fault-tolerant SP stopped deduplicating phase
tokens across the switches of one token generation (``chaos_seed11``
only), when the reliable layer's tick became demand-armed, and when
chaos runs began to draw their casts from per-member ``workload{rank}``
senders and their switch requesters from the ``switches`` stream, under
the catalog's slot names (the two chaos pins only).  Same oracle
outcomes; the values that moved are listed old → new under
``repinned`` in ``BENCH_15.json`` / ``BENCH_22.json`` / ``BENCH_31.json``
or in CHANGES.md.  When chaos runs moved onto the scenario runner, the
chaos pins became the verdict's fields with every value kept; the
scripted timeline gave way to the verdict's latency and hiccup figures.

(Figure 2 has its own capture in ``test_runtime_parity.py``; the full
scenario catalog is pinned against ``benchmarks/results/scenarios.json``
in ``tests/scenarios/test_runner.py``.)
"""

import dataclasses
import json
from pathlib import Path

import pytest

from repro.fleet import FleetConfig, run_fleet
from repro.records import dump
from repro.scenarios.runner import run_scenario
from repro.workloads.experiment import (
    run_oscillation_experiment,
    run_switch_overhead_experiment,
    run_total_order_experiment,
)
from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo

from .test_chaos_determinism import SEEDS, config as chaos_config, fingerprint

FIXTURE = Path(__file__).parent / "fixtures" / "harness_pins.json"


def _switch_demo(**overrides):
    result = dataclasses.asdict(run_switch_demo(SwitchRunConfig(**overrides)))
    del result["config"]
    return result


def _fleet(indices=None):
    """24 groups, 10 % hot, wide oracle margins (cold 30/s, hot 300/s)."""
    config = FleetConfig(
        runtime="sim",
        groups=24,
        members=3,
        nodes=12,
        clients=240,
        client_rate=1.0,
        hot_fraction=0.1,
        hot_multiplier=10.0,
        duration=4.0,
        warmup=0.5,
        high_threshold=100.0,
        oracle_poll=0.5,
        settle=2.0,
    )
    return run_fleet(config, indices=indices).as_dict()


PINS = {
    **{
        f"chaos_seed{seed}": (
            lambda seed=seed: fingerprint(
                run_scenario(chaos_config(seed).spec())
            )
        )
        for seed in SEEDS
    },
    "switch_demo_default": _switch_demo,
    # A linger lets batches actually fill (linger=0 flushes every cast alone).
    "switch_demo_batch8": lambda: _switch_demo(
        max_batch=8, linger=0.002, rate=120.0
    ),
    "fleet_24": _fleet,
    "fleet_24_even": lambda: _fleet(range(0, 24, 2)),
    "fleet_24_odd": lambda: _fleet(range(1, 24, 2)),
    "switch_overhead": run_switch_overhead_experiment,
    "oscillation_hysteresis": lambda: run_oscillation_experiment("hysteresis"),
    "oscillation_aggressive": lambda: run_oscillation_experiment("aggressive"),
    # The §7 hybrid at the crossover: the oracle reads the delivery window.
    "figure2_hybrid_6": lambda: run_total_order_experiment("hybrid", 6),
}


@pytest.fixture(scope="module")
def pinned():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("name", sorted(PINS))
def test_result_matches_the_parent_capture(name, pinned):
    assert dump(PINS[name]()) == pinned[name]


def test_fleet_halves_merge_to_the_whole(pinned):
    """Any partition of the index space reproduces the unpartitioned
    per-group outcomes (what the shard supervisor relies on)."""
    halves = pinned["fleet_24_even"]["per_group"] + pinned["fleet_24_odd"]["per_group"]
    merged = sorted(halves, key=lambda report: report["group_id"])
    assert merged == pinned["fleet_24"]["per_group"]
