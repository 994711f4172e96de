"""Fault-tolerance overhead of the resilient token SP under chaos.

The FT machinery (hop acks, watchdogs, regeneration) must keep switches
completing under control-channel loss at a bounded cost.  We compile
``repro chaos`` configs at increasing loss rates into scenario specs,
run them through the scenario runner and record how completion and
recovery effort scale; the oracle properties must hold at every point —
a chaotic run that converges slowly is fine, one that wedges or
diverges is a bug.  The "total order" column is Total Order over the
whole trace of the live members: observed, not judged (see
``ScenarioVerdict.total_order``).

Run with ``python -m pytest benchmarks/bench_chaos.py --benchmark-disable``.
"""

from repro.scenarios.runner import run_scenario
from repro.scenarios.spec import CrashSpec
from repro.testing.chaos import ChaosConfig

LOSS_POINTS = (0.0, 0.1, 0.2)


def test_chaos_under_control_loss(benchmark, report):
    def run():
        results = {}
        for loss in LOSS_POINTS:
            config = ChaosConfig(
                seed=42, duration=4.0, cast_rate=80.0, control_loss=loss
            )
            results[loss] = run_scenario(config.spec())
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = [
        "Chaos: FT token SP under control-channel loss (seed 42)",
        "",
        f"{'loss':>6} {'completed':>10} {'aborted':>8} {'regens':>7} "
        f"{'retransmits':>12} {'settled':>9} {'total order':>12}",
    ]
    for loss, r in results.items():
        lines.append(
            f"{loss:>6.2f} {r.switches_completed:>10} "
            f"{r.switches_aborted:>8} "
            f"{r.counters.get('regenerated_tokens', 0):>7} "
            f"{r.counters.get('hop_retransmits', 0):>12} "
            f"{r.settle_time:>8.1f}s "
            f"{'holds' if r.total_order is None else 'VIOLATED':>12}"
        )
    report("chaos_loss.txt", "\n".join(lines))

    for loss, r in results.items():
        assert r.ok, f"oracle violations at loss={loss}: {r.violations}"
        # Liveness: switching keeps making progress under loss.
        assert r.switches_completed + r.switches_aborted >= 1
    # The fault-free run needs no hop retransmissions at all.
    assert results[0.0].counters.get("hop_retransmits", 0) == 0


def test_chaos_with_crash_and_recovery(benchmark, report):
    def run():
        config = ChaosConfig(
            seed=7,
            members=5,
            duration=4.0,
            cast_rate=80.0,
            control_loss=0.1,
            crashes=(CrashSpec(2, at=1.0, until=2.5), CrashSpec(4, at=3.0)),
        )
        return run_scenario(config.spec())

    result = benchmark.pedantic(run, rounds=1, iterations=1)

    lines = ["Chaos: crash + recovery during switches", "", result.summary()]
    report("chaos_crash.txt", "\n".join(lines))

    assert result.ok, result.violations
    assert result.counters.get("node_failures", 0) == 2
    assert result.counters.get("node_recoveries", 0) == 1
