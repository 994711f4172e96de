"""Runtime parity: the boundary must not change what the engine computes.

Three pins:

1. Two SimRuntime runs at the same seed produce *identical* delivery
   traces — the boundary preserves the engine's determinism.
2. The Figure 2 pipeline at a pinned seed reproduces the exact numbers
   captured against the pre-boundary code (bit-for-bit regression
   fixture — any drift means the refactor changed event order).
3. The same switch demo completes with a clean oracle on both runtimes,
   including the real asyncio/UDP one.
"""

from repro.workloads.experiment import Figure2Config, run_figure2_sweep
from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo


def _trace_of(seed):
    result = run_switch_demo(
        SwitchRunConfig(runtime="sim", duration=1.5, switch_at=0.7, seed=seed)
    )
    assert result.ok, result.violations
    return result


def test_identical_seeds_identical_results():
    first = _trace_of(seed=7)
    second = _trace_of(seed=7)
    assert first.casts == second.casts
    assert first.delivered == second.delivered
    assert first.mean_ms == second.mean_ms  # exact float equality
    assert first.median_ms == second.median_ms
    assert first.p90_ms == second.p90_ms
    assert first.switch_duration_ms == second.switch_duration_ms
    assert first.settle_time == second.settle_time


def test_different_seeds_differ():
    # Sanity check that the pin above is not vacuous.
    assert _trace_of(seed=7).mean_ms != _trace_of(seed=8).mean_ms


# Captured by running this exact configuration against the pre-boundary
# code (raw Simulator everywhere).  Floats are compared *exactly*: the
# SimRuntime adapter must be a zero-cost pass-through, so the refactor
# may not perturb a single event ordering or arithmetic step.
PINNED_CONFIG = dict(duration=2.0, warmup=0.5, seed=42)
PINNED_FIGURE2 = [
    ("sequencer", 2, 5.342429044517706, 5.59599999999949, 8.274818782109339, 1571),
    ("sequencer", 6, 19.560713019903783, 17.154582870028023, 35.702327569477774, 4609),
    ("token", 2, 11.565815320193126, 11.467644034820646, 19.05230031824545, 1550),
    ("token", 6, 15.720978383470724, 15.2980082277846, 26.299111326505912, 4650),
]


def test_figure2_pinned_seed_is_byte_identical_to_pre_boundary_capture():
    config = Figure2Config(**PINNED_CONFIG)
    results = run_figure2_sweep(("sequencer", "token"), [2, 6], config)
    got = [
        (r.protocol, r.active_senders, r.mean_ms, r.median_ms, r.p90_ms, r.samples)
        for protocol in ("sequencer", "token")
        for r in results[protocol]
    ]
    assert got == PINNED_FIGURE2


def test_asyncio_udp_switch_completes_with_clean_oracle():
    # The tentpole acceptance check: the identical stack, workload and
    # oracle, but over real localhost UDP datagrams on the wall clock.
    result = run_switch_demo(
        SwitchRunConfig(
            runtime="asyncio",
            duration=1.2,
            switch_at=0.5,
            rate=40.0,
            base_port=47610,
        )
    )
    assert result.ok, result.violations
    assert result.runtime == "asyncio"
    assert set(result.final_protocols.values()) == {"tokenring"}
    assert result.switches_completed == 1
    assert all(count > 0 for count in result.delivered.values())
    # The load generator's payload crossed the codec as plain data (an
    # unencodable body raises at the sender) and the probe behind the
    # socket still recognised it: no samples means the recogniser missed.
    assert result.samples > 0
