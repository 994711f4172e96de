"""CLI command rendering paths, with the heavy experiments stubbed.

The real experiments behind each command are exercised by the benchmark
harness; here we verify each command's reporting logic and exit codes.
"""

import json

import pytest

import repro.cli as cli
from repro.workloads.experiment import (
    LatencyResult,
    OscillationResult,
    SwitchOverheadResult,
)


def fake_sweep_results(protocols, counts):
    out = {}
    for protocol in protocols:
        series = []
        for k in counts:
            mean = (2.0 + k * (4.0 if protocol == "sequencer" else 0.5)
                    if protocol != "token" else 12.0 + 0.5 * k)
            series.append(LatencyResult(protocol, k, mean, mean, mean, 100))
        out[protocol] = series
    return out


def test_cmd_figure2_renders(monkeypatch, capsys):
    import repro.workloads.experiment as experiment

    monkeypatch.setattr(
        experiment,
        "run_figure2_sweep",
        lambda protocols, counts, config: fake_sweep_results(protocols, counts),
    )
    code = cli.main(["figure2", "--duration", "0.1"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Figure 2" in out
    assert "sequencer" in out and "token" in out
    assert "crossover" in out


def test_cmd_figure2_hybrid_flag(monkeypatch, capsys):
    import repro.workloads.experiment as experiment

    monkeypatch.setattr(
        experiment,
        "run_figure2_sweep",
        lambda protocols, counts, config: fake_sweep_results(protocols, counts),
    )
    cli.main(["figure2", "--hybrid"])
    out = capsys.readouterr().out
    assert "hybrid" in out


def test_cmd_overhead_renders(monkeypatch, capsys):
    import repro.workloads.experiment as experiment

    def fake(senders, direction, config):
        return SwitchOverheadResult(
            active_senders=senders,
            direction=direction,
            switch_duration_ms=60.0,
            max_hiccup_ms=30.0,
            baseline_hiccup_ms=25.0,
            sends_blocked=0,
        )

    monkeypatch.setattr(experiment, "run_switch_overhead_experiment", fake)
    code = cli.main(["overhead"])
    out = capsys.readouterr().out
    assert code == 0
    assert "31 msecs" in out
    assert "60.0ms" in out


def test_cmd_oscillation_renders(monkeypatch, capsys):
    import repro.workloads.experiment as experiment

    def fake(policy, config):
        requests = 12 if policy == "aggressive" else 1
        return OscillationResult(policy, requests, requests, 15.0)

    monkeypatch.setattr(experiment, "run_oscillation_experiment", fake)
    code = cli.main(["oscillation"])
    out = capsys.readouterr().out
    assert code == 0
    assert "aggressive" in out and "hysteresis" in out


def test_cmd_table2_exit_code_reflects_agreement(monkeypatch, capsys):
    import repro.traces.universes as universes
    import repro.traces.verify as verify

    # A tiny stand-in matrix computation.
    from repro.traces.verify import MatrixCell, Verdict

    monkeypatch.setattr(universes, "table2_universes", lambda depth: [])
    import repro.traces.report as report_mod

    def fake_matrix(props, metas, paper_table=None):
        return [
            MatrixCell("Total Order", "Safety", Verdict(True, None, 1, 1), True)
        ]

    monkeypatch.setattr(verify, "compute_matrix", fake_matrix)
    code = cli.main(["table2"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Total Order" in out


# ----------------------------------------------------------------------
# chaos command
# ----------------------------------------------------------------------
def fake_chaos_result(config, violations=(), total_order=None):
    from repro.testing.chaos import ChaosResult

    return ChaosResult(
        config=config,
        violations=list(violations),
        final_protocols={0: "tok", 1: "tok"},
        casts=10,
        delivered={0: 10, 1: 10},
        switches_completed=2,
        switches_aborted=1,
        counters={"regenerated_tokens": 3},
        timeline=[(0.1, "cast")],
        settle_time=6.5,
        total_order=total_order,
    )


def test_cmd_chaos_clean_run_exits_zero(monkeypatch, capsys):
    import repro.testing.chaos as chaos

    captured = {}

    def fake_run(config, bus=None):
        captured["config"] = config
        return fake_chaos_result(config)

    monkeypatch.setattr(chaos, "run_chaos", fake_run)
    code = cli.main(
        [
            "chaos",
            "--seed", "5",
            "--members", "6",
            "--control-loss", "0.2",
            "--crash", "2:1.0:2.5",
            "--crash", "4:3.0",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: all properties hold" in out
    config = captured["config"]
    assert config.seed == 5 and config.members == 6
    assert config.control_loss == 0.2
    assert [(c.rank, c.at, c.permanent) for c in config.crashes] == [
        (2, 1.0, False),
        (4, 3.0, True),
    ]


def test_cmd_chaos_violations_exit_one(monkeypatch, capsys):
    import repro.testing.chaos as chaos

    monkeypatch.setattr(
        chaos,
        "run_chaos",
        lambda config, bus=None: fake_chaos_result(
            config, violations=["member 1 delivered 2 duplicates"]
        ),
    )
    code = cli.main(["chaos"])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATIONS" in out
    assert "duplicates" in out


def test_cmd_chaos_whole_trace_order_is_reported_not_judged(
    monkeypatch, capsys
):
    import repro.testing.chaos as chaos

    split = "processes 0 and 1 disagree: 0 delivered (0, 1) where 1 delivered (1, 2)"
    monkeypatch.setattr(
        chaos,
        "run_chaos",
        lambda config, bus=None: fake_chaos_result(config, total_order=split),
    )
    code = cli.main(["chaos"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"whole-trace total order (observed): {split}" in out
    assert "oracle: all properties hold" in out


def test_cmd_chaos_rejects_malformed_crash_spec(capsys):
    code = cli.main(["chaos", "--crash", "nonsense"])
    out = capsys.readouterr().out
    assert code == 2
    assert "bad --crash spec" in out


def test_cmd_chaos_rejects_invalid_config_cleanly(capsys):
    # Config errors surface as a message + exit 2, not a traceback.
    code = cli.main(
        ["chaos", "--members", "2", "--crash", "0:0.5", "--crash", "1:0.5"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "bad chaos configuration" in out
    assert "two members alive" in out


def test_cmd_chaos_rejects_invalid_loss_rate_cleanly(capsys):
    code = cli.main(["chaos", "--control-loss", "1.0"])
    out = capsys.readouterr().out
    assert code == 2
    assert "bad chaos configuration" in out


# ----------------------------------------------------------------------
# run command (runtime demo)
# ----------------------------------------------------------------------
def fake_switchrun_result(config, violations=()):
    from repro.workloads.switchrun import SwitchRunResult

    return SwitchRunResult(
        config=config,
        runtime=config.runtime,
        casts=100,
        delivered={0: 100, 1: 100},
        mean_ms=1.5,
        median_ms=1.2,
        p90_ms=2.5,
        samples=200,
        switch_duration_ms=12.0,
        max_hiccup_ms=27.0,
        switches_completed=1,
        final_protocols={0: "tokenring", 1: "tokenring"},
        settle_time=3.25,
        violations=list(violations),
    )


def test_cmd_run_clean_exits_zero(monkeypatch, capsys):
    import repro.workloads.switchrun as switchrun

    captured = {}

    def fake_run(config, bus=None):
        captured["config"] = config
        return fake_switchrun_result(config)

    monkeypatch.setattr(switchrun, "run_switch_demo", fake_run)
    code = cli.main(
        ["run", "--runtime", "sim", "--members", "6", "--seed", "9"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "runtime=sim" in out
    assert "sequencer->tokenring" in out
    assert "oracle" in out
    config = captured["config"]
    assert config.runtime == "sim"
    assert config.members == 6 and config.seed == 9


def test_cmd_run_forwards_asyncio_flags(monkeypatch, capsys):
    import repro.workloads.switchrun as switchrun

    captured = {}

    def fake_run(config, bus=None):
        captured["config"] = config
        return fake_switchrun_result(config)

    monkeypatch.setattr(switchrun, "run_switch_demo", fake_run)
    code = cli.main(["run", "--runtime", "asyncio", "--base-port", "48000"])
    assert code == 0
    assert captured["config"].runtime == "asyncio"
    assert captured["config"].base_port == 48000


def test_cmd_run_violations_exit_one(monkeypatch, capsys):
    import repro.workloads.switchrun as switchrun

    monkeypatch.setattr(
        switchrun,
        "run_switch_demo",
        lambda config, bus=None: fake_switchrun_result(
            config, violations=["member 1 delivered 2 duplicates"]
        ),
    )
    code = cli.main(["run"])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATIONS" in out
    assert "duplicates" in out


def test_cmd_run_rejects_invalid_config_cleanly(capsys):
    code = cli.main(["run", "--members", "1"])
    out = capsys.readouterr().out
    assert code == 2
    assert "bad run configuration" in out


def test_cmd_run_rejects_unknown_runtime(capsys):
    with pytest.raises(SystemExit):
        cli.main(["run", "--runtime", "quantum"])
    err = capsys.readouterr().err
    assert "invalid choice" in err


def test_cmd_run_trace_flags_write_artifacts(monkeypatch, capsys, tmp_path):
    """--trace/--metrics hand the runner a live bus and export its output."""
    import json

    import repro.workloads.switchrun as switchrun
    from repro.obs.metrics import Counter

    def fake_run(config, bus=None):
        assert bus is not None and bus.enabled
        with bus.span("switch/total", rank=0, switch=[1, 0]):
            bus.emit("token/hop", rank=0, kind="PREPARE", to=1)
        stats = Counter()
        bus.scoped(0).attach("sp", stats)
        stats.incr("initiated")
        bus.observe("switch.duration_s", 0.012)
        return fake_switchrun_result(config)

    monkeypatch.setattr(switchrun, "run_switch_demo", fake_run)
    trace = tmp_path / "out.trace.json"
    metrics = tmp_path / "metrics.json"
    events = tmp_path / "events.jsonl"
    code = cli.main(
        ["run", "--trace", str(trace), "--metrics", str(metrics),
         "--events", str(events)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "Perfetto-loadable" in out

    records = json.loads(trace.read_text())
    assert any(r.get("ph") == "X" for r in records)
    snapshot = json.loads(metrics.read_text())
    assert snapshot["command"] == "run"
    assert snapshot["counters"]["sp.initiated"] == 1
    assert len(events.read_text().splitlines()) == 2


def test_cmd_run_without_flags_passes_no_bus(monkeypatch, capsys):
    seen = {}

    import repro.workloads.switchrun as switchrun

    def fake_run(config, bus=None):
        seen["bus"] = bus
        return fake_switchrun_result(config)

    monkeypatch.setattr(switchrun, "run_switch_demo", fake_run)
    assert cli.main(["run"]) == 0
    capsys.readouterr()
    assert seen["bus"] is None


def test_cmd_metrics_pretty_prints(capsys, tmp_path):
    import json

    path = tmp_path / "metrics.json"
    path.write_text(json.dumps({
        "command": "run",
        "seed": 42,
        "counters": {"net.sends": 31},
        "gauges": {"core.buffer_depth[r1]": {"value": 2.0, "time": 1.5}},
        "histograms": {
            "switch.duration_s": {
                "count": 1, "sum": 0.012, "mean": 0.012, "min": 0.012,
                "max": 0.012, "p50": 0.012, "p90": 0.012, "p99": 0.012,
                "buckets": [[0.02, 1]],
            },
        },
    }))
    code = cli.main(["metrics", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "command=run" in out and "seed=42" in out
    assert "net.sends" in out and "31" in out
    assert "core.buffer_depth[r1]" in out
    assert "switch.duration_s" in out and "p99" in out


def test_cmd_metrics_missing_file_exits_two(capsys, tmp_path):
    code = cli.main(["metrics", str(tmp_path / "nope.json")])
    out = capsys.readouterr().out
    assert code == 2
    assert "cannot read metrics file" in out


# ----------------------------------------------------------------------
# chaos --settle (real runs, no mocking: the exit code must come from an
# actual convergence check, not from reporting logic)
# ----------------------------------------------------------------------
def test_cmd_chaos_settle_forwarded(monkeypatch, capsys):
    import repro.testing.chaos as chaos

    captured = {}

    def fake_run(config, bus=None):
        captured["config"] = config
        return fake_chaos_result(config)

    monkeypatch.setattr(chaos, "run_chaos", fake_run)
    assert cli.main(["chaos", "--settle", "3"]) == 0
    capsys.readouterr()
    assert captured["config"].settle == 3


def test_cmd_chaos_settle_zero_fails_for_real(capsys):
    # --settle 0 grants the group no drain windows at all, so a real run
    # (loss on the control channel, mid-flight switches) must report a
    # genuine convergence violation and exit nonzero.
    code = cli.main(
        ["chaos", "--settle", "0", "--duration", "1.5",
         "--control-loss", "0.05", "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATIONS" in out
    assert "did not converge within 0 settle windows" in out


def test_cmd_chaos_default_settle_passes_for_real(capsys):
    # The same run with the default settle budget converges and exits 0.
    code = cli.main(
        ["chaos", "--duration", "1.5", "--control-loss", "0.05",
         "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: all properties hold" in out


# ----------------------------------------------------------------------
# scenario command (catalog-driven chaos/oracle testbed)
# ----------------------------------------------------------------------
def test_cmd_scenario_list(capsys):
    code = cli.main(["scenario", "--list"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("baseline_steady", "flash_crowd", "congestion_collapse"):
        assert name in out


def test_cmd_scenario_unknown_name_exits_two(capsys):
    code = cli.main(["scenario", "no_such_scenario"])
    out = capsys.readouterr().out
    assert code == 2
    assert "unknown scenario" in out


def test_cmd_scenario_requires_name_or_all(capsys):
    code = cli.main(["scenario"])
    out = capsys.readouterr().out
    assert code == 2
    assert "pass --all / --list" in out


def test_cmd_scenario_single_run_passes(capsys, tmp_path):
    # A real end-to-end run on the sim runtime, plus the JSON artifact.
    out_path = tmp_path / "verdict.json"
    code = cli.main(
        ["scenario", "baseline_steady", "--json", str(out_path)]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "[PASS] baseline_steady" in out
    artifact = json.loads(out_path.read_text())
    assert artifact["suite"] == "scenarios"
    assert artifact["scenarios"]["baseline_steady"]["ok"] is True


def test_cmd_scenario_wrong_runtime_exits_two(capsys):
    # baseline_steady only declares the sim runtime.
    code = cli.main(["scenario", "baseline_steady", "--runtime", "asyncio"])
    out = capsys.readouterr().out
    assert code == 2
    assert "declares runtimes" in out


def test_cmd_fleet_sharded_end_to_end(capsys, tmp_path):
    # A real (tiny) sharded fleet through the CLI, plus the JSON result.
    out_path = tmp_path / "fleet.json"
    code = cli.main(
        [
            "fleet",
            "--groups", "8",
            "--members", "3",
            "--nodes", "6",
            "--clients", "80",
            "--client-rate", "0.5",
            "--duration", "1.5",
            "--settle", "1.0",
            "--shards", "2",
            "--json", str(out_path),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "across 2 shards" in out
    assert "shards:  2 worker processes" in out
    result = json.loads(out_path.read_text())
    assert result["shards"] == 2
    assert len(result["shard_stats"]) == 2
    assert len(result["per_group"]) == 8
    assert result["violations"] == []


def test_cmd_fleet_shards_rejected_on_asyncio(capsys):
    code = cli.main(["fleet", "--runtime", "asyncio", "--shards", "2"])
    out = capsys.readouterr().out
    assert code == 2
    assert "bad fleet configuration" in out
    assert "sim runtime" in out
