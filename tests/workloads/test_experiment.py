"""Unit tests for the §7 experiment runners (scaled-down configs)."""

from statistics import median

import pytest

from repro.errors import ReproError
from repro.workloads.experiment import (
    Figure2Config,
    LatencyResult,
    find_crossover,
    run_figure2_sweep,
    run_oscillation_experiment,
    run_switch_overhead_experiment,
    run_total_order_experiment,
)


def small_config():
    return Figure2Config(group_size=5, duration=1.0, warmup=0.25, seed=3)


def result(protocol, k, mean):
    return LatencyResult(protocol, k, mean, mean, mean, 100)


class TestRunSingle:
    def test_sequencer_point(self):
        res = run_total_order_experiment("sequencer", 2, small_config())
        assert res.protocol == "sequencer"
        assert res.samples > 50
        assert 0 < res.mean_ms < 100

    def test_token_point(self):
        res = run_total_order_experiment("token", 2, small_config())
        assert res.mean_ms > 0

    def test_hybrid_point(self):
        res = run_total_order_experiment("hybrid", 2, small_config())
        assert res.mean_ms > 0

    def test_token_slower_than_sequencer_at_low_load(self):
        cfg = small_config()
        seq = run_total_order_experiment("sequencer", 1, cfg)
        tok = run_total_order_experiment("token", 1, cfg)
        assert tok.mean_ms > seq.mean_ms

    def test_sender_count_validated(self):
        with pytest.raises(ReproError):
            run_total_order_experiment("sequencer", 0, small_config())
        with pytest.raises(ReproError):
            run_total_order_experiment("sequencer", 99, small_config())

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ReproError):
            run_total_order_experiment("carrier-pigeon", 1, small_config())

    def test_determinism(self):
        a = run_total_order_experiment("sequencer", 2, small_config())
        b = run_total_order_experiment("sequencer", 2, small_config())
        assert a.mean_ms == b.mean_ms


class TestSweepAndCrossover:
    def test_sweep_shape(self):
        results = run_figure2_sweep(
            ("sequencer", "token"), [1, 3], small_config()
        )
        assert set(results) == {"sequencer", "token"}
        assert [r.active_senders for r in results["sequencer"]] == [1, 3]

    def test_find_crossover(self):
        seq = [result("s", 1, 5.0), result("s", 2, 10.0), result("s", 3, 30.0)]
        tok = [result("t", 1, 15.0), result("t", 2, 16.0), result("t", 3, 17.0)]
        assert find_crossover(seq, tok) == (2, 3)

    def test_no_crossover(self):
        seq = [result("s", 1, 5.0), result("s", 2, 6.0)]
        tok = [result("t", 1, 15.0), result("t", 2, 16.0)]
        assert find_crossover(seq, tok) is None


class TestSwitchOverhead:
    def test_switch_happens_and_is_measured(self):
        cfg = Figure2Config(group_size=5, duration=2.5, warmup=0.5, seed=3)
        res = run_switch_overhead_experiment(2, "sequencer->token", cfg)
        assert res.switch_duration_ms > 0
        assert res.max_hiccup_ms > 0
        assert res.sends_blocked == 0

    def test_reverse_direction(self):
        cfg = Figure2Config(group_size=5, duration=2.5, warmup=0.5, seed=3)
        res = run_switch_overhead_experiment(2, "token->sequencer", cfg)
        assert res.direction == "token->sequencer"
        assert res.switch_duration_ms > 0

    def test_waking_the_new_ring_does_not_slow_the_switch(self):
        """The §7 measurement over seeds 1–12, judged by its medians.  The
        dormant ring's token must leave *after* the PREPARE that woke it:
        released synchronously it travels one packet ahead of PREPARE all
        the way round (84.6 ms / 49.1 ms hiccup at seed 42).  The
        free-running parent measured 61.5 ms there; with the SP token
        circulating the 12-seed medians were 58.0 ms / 30.2 ms hiccup
        (both lists are in ``BENCH_22.json``)."""
        runs = [
            run_switch_overhead_experiment(config=Figure2Config(seed=seed))
            for seed in range(1, 13)
        ]
        assert median(r.switch_duration_ms for r in runs) <= 61.5
        assert median(r.max_hiccup_ms for r in runs) <= 30.2 + 2
        assert all(r.sends_blocked == 0 for r in runs)


class TestOscillation:
    def test_aggressive_switches_more_than_hysteresis(self):
        cfg = Figure2Config(group_size=10, duration=1.0, warmup=0.25, seed=3)
        aggressive = run_oscillation_experiment(
            "aggressive", cfg, duration=6.0
        )
        hysteresis = run_oscillation_experiment(
            "hysteresis", cfg, duration=6.0
        )
        assert aggressive.switch_requests > hysteresis.switch_requests

    def test_unknown_policy_rejected(self):
        with pytest.raises(ReproError):
            run_oscillation_experiment("yolo", small_config())
