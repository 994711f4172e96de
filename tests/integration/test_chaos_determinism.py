"""Determinism regression: chaos runs are replayable bit for bit.

A chaos spec seeds every random stream (workload, faults, switch
requesters) purely from its seed, so the same spec must produce an
identical :class:`ScenarioVerdict` whether it runs inline, in a single
worker process, or fanned across a pool.  This is what makes a chaos
violation reportable as *just a seed* — and what the sweeprunner
relies on to keep its merged artifact byte-identical for any
``--workers`` value.
"""

from repro.records import dump
from repro.scenarios.runner import run_scenario, run_scenario_cell
from repro.testing.chaos import ChaosConfig
from repro.workloads.parallel import run_cells

SEEDS = (3, 11)


def config(seed):
    return ChaosConfig(
        members=4,
        seed=seed,
        duration=2.0,
        control_loss=0.05,
        control_dup=0.02,
        control_jitter=0.004,
    )


def fingerprint(verdict):
    """Every field of a verdict, as its JSON image."""
    return dump(verdict)


def test_same_seed_same_result_inline():
    for seed in SEEDS:
        spec = config(seed).spec()
        assert fingerprint(run_scenario(spec)) == fingerprint(
            run_scenario(spec)
        )


def test_chaos_results_identical_across_worker_counts():
    """Serial vs. pool-of-4: the sweep fans inline-spec cells across real
    subprocesses (run_cells only clamps to the cell count, not the CPU
    count), so this exercises spec pickling + fresh-interpreter runs.
    """
    cells = [{"spec": config(seed).spec()} for seed in SEEDS]
    serial = [fingerprint(run_scenario(cell["spec"])) for cell in cells]
    one = [
        fingerprint(r) for r in run_cells(cells, run_scenario_cell, workers=1)
    ]
    pooled = [
        fingerprint(r) for r in run_cells(cells, run_scenario_cell, workers=4)
    ]
    assert serial == one
    assert serial == pooled


def test_different_seeds_diverge():
    """Sanity check that the fingerprint has discriminating power."""
    a = fingerprint(run_scenario(config(SEEDS[0]).spec()))
    b = fingerprint(run_scenario(config(SEEDS[1]).spec()))
    assert a != b
