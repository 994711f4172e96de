"""The fault-tolerant SP's chaos scoreboard replays byte for byte.

``benchmarks/chaos_sweep.py`` runs 30 seeded fault storms (two crash
windows, control loss 0.1 and 0.3, seeds 0-14) and pins their verdicts
in ``benchmarks/results/chaos_sweep.json``.  Any change to how the FT SP
behaves under faults, or to the draws that drive the storms, is a byte
diff here; re-pin with the script and state the totals' delta.
"""

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]


def _sweep_module():
    spec = importlib.util.spec_from_file_location(
        "chaos_sweep", REPO / "benchmarks" / "chaos_sweep.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_chaos_sweep_matches_the_checked_in_artifact(tmp_path):
    sweep = _sweep_module()
    # Two processes halve the wall time; the bytes are the serial run's.
    suite = sweep.run_sweep(workers=2)
    fresh = tmp_path / "chaos_sweep.json"
    sweep.write(suite, fresh)
    assert fresh.read_bytes() == sweep.ARTIFACT.read_bytes()
    # Every storm keeps the per-slot oracle, whatever it costs in
    # aborted switches and stalls.
    assert len(suite.scenarios) == 30
    assert sweep.scoreboard(list(suite.scenarios.values()))["violating_runs"] == 0
