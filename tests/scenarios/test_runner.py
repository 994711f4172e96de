"""End-to-end scenario runs: the catalog ships, scores, and replays.

These are the tier-1 teeth behind the ``repro scenario`` CI sweep: the
shipped catalog stays complete and loadable, a stability scenario and a
drift scenario both actually pass on the sim runtime, verdicts are
deterministic (inline and through the sweeprunner's process pool), and
at least one clean-net scenario passes over real asyncio/UDP loopback.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import ScenarioError
from repro.scenarios import load_catalog, run_scenario
from repro.scenarios.runner import run_scenario_cell, scenario_cells
from repro.workloads.parallel import run_cells

REQUIRED = {
    "baseline_steady",
    "burst_loss",
    "congestion_collapse",
    "diurnal_load",
    "escalating_loss",
    "flash_crowd",
    "high_latency",
    "intermittent_connectivity",
    "mobile_handoff_jitter",
}


@pytest.fixture(scope="module")
def catalog():
    return load_catalog()


def test_catalog_is_complete(catalog):
    assert len(catalog) >= 8
    assert REQUIRED <= set(catalog)
    assert all("sim" in spec.runtimes for spec in catalog.values())
    # The testbed's asyncio bridge needs at least one clean-net scenario.
    assert any("asyncio" in spec.runtimes for spec in catalog.values())


def test_stability_scenario_holds_ground(catalog):
    verdict = run_scenario(catalog["baseline_steady"])
    assert verdict.ok, verdict.violations
    assert verdict.switches_completed == 0
    assert verdict.decisions == []
    assert set(verdict.final_protocols.values()) == {"sequencer"}
    assert verdict.delivery_ratio >= 0.95


def test_drift_scenario_switches_once_and_quickly(catalog):
    spec = catalog["congestion_collapse"]
    verdict = run_scenario(spec)
    assert verdict.ok, verdict.violations
    assert verdict.switches_completed == 1
    assert set(verdict.final_protocols.values()) == {"tokenring"}
    assert verdict.time_to_switch is not None
    assert 0 <= verdict.time_to_switch <= spec.expect.max_time_to_switch
    assert verdict.switch_duration_ms > 0
    # The verdict dict is the wire format check_scenarios.py validates.
    payload = verdict.to_dict()
    assert payload["scenario"] == "congestion_collapse"
    assert payload["ok"] is True
    assert payload["violations"] == []
    # Why it switched: the oracle's sampled signal crossed its band.
    (decision,) = payload["decisions"]
    assert decision["signal"] > spec.oracle.high


def test_verdicts_deterministic_inline_and_pooled(catalog):
    names = ["baseline_steady", "flash_crowd"]
    inline = [run_scenario(catalog[name]).to_dict() for name in names]
    cells = scenario_cells(names, "sim")
    serial = [v.to_dict() for v in run_cells(cells, run_scenario_cell, 1)]
    # workers=4 forces a real process pool even on a 1-core box
    # (run_cells clamps to the cell count, not the CPU count).
    pooled = [v.to_dict() for v in run_cells(cells, run_scenario_cell, 4)]
    assert inline == serial
    assert inline == pooled


def test_full_catalog_matches_the_checked_in_artifact(tmp_path, capsys):
    # The CI sweep's `cmp`, at tier-1: any reordering of hooks, timers
    # or RNG draws in the harness shows up as a byte diff here.
    pinned = (
        Path(__file__).resolve().parents[2]
        / "benchmarks" / "results" / "scenarios.json"
    )
    fresh = tmp_path / "scenarios.json"
    assert main(["scenario", "--all", "--json", str(fresh)]) == 0
    capsys.readouterr()
    assert fresh.read_bytes() == pinned.read_bytes()


def test_undeclared_runtime_is_rejected(catalog):
    with pytest.raises(ScenarioError, match="declares runtimes"):
        run_scenario(catalog["baseline_steady"], "asyncio")


def test_flash_crowd_passes_on_asyncio(catalog):
    # The acceptance bar: at least one catalog scenario passes on the
    # real asyncio/UDP runtime.  Distinct port base so parallel test
    # runs don't collide with the runtime-parity suite.
    verdict = run_scenario(
        catalog["flash_crowd"], "asyncio", base_port=47810
    )
    assert verdict.ok, verdict.violations
    assert verdict.runtime == "asyncio"
    assert verdict.switches_completed >= 1
    assert set(verdict.final_protocols.values()) == {"tokenring"}
