"""CLI tests: the parser, each command's reporting logic and exit codes,
and the flags that reach each config dataclass.

The heavy experiments are stubbed where only the rendering is under
test; the real ones are exercised by the benchmark harness.
"""

import argparse
import dataclasses
import json

import pytest

import repro.cli as cli
from repro.cli import build_parser, main
from repro.fleet import FleetConfig
from repro.scenarios.runner import ScenarioVerdict
from repro.scenarios.spec import CrashSpec, ScenarioSpec
from repro.testing.chaos import ChaosConfig
from repro.workloads.experiment import (
    Figure2Config,
    LatencyResult,
    OscillationResult,
    SwitchOverheadResult,
)
from repro.workloads.switchrun import SwitchRunConfig


# ----------------------------------------------------------------------
# the parser
# ----------------------------------------------------------------------
def test_parser_builds():
    parser = build_parser()
    assert parser.prog == "repro"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["--version"])
    assert exit_info.value.code == 0
    assert "1.0.0" in capsys.readouterr().out


def test_command_required():
    with pytest.raises(SystemExit):
        main([])


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_subcommands_registered():
    parser = build_parser()
    text = parser.format_help()
    for command in ("figure2", "table2", "overhead", "oscillation", "preservation"):
        assert command in text


def test_figure2_accepts_options():
    parser = build_parser()
    args = parser.parse_args(["figure2", "--duration", "2.0", "--seed", "7", "--hybrid"])
    assert args.duration == 2.0
    assert args.seed == 7
    assert args.hybrid is True


def test_table2_accepts_thorough():
    parser = build_parser()
    args = parser.parse_args(["table2", "--thorough"])
    assert args.thorough is True


# ----------------------------------------------------------------------
# config-backed commands: the dataclass holds every default
# ----------------------------------------------------------------------
class Captured(Exception):
    """Raised by a stub runner to hand the test the config it was given."""


# (command, runner module, runner names, config class, flags, fields the
# flags set).  Each command's rows together set every one of its config
# flags to a non-default value.
CONFIG_ROWS = [
    ("figure2", "repro.workloads.experiment", ["run_figure2_sweep"],
     Figure2Config, ["--duration", "2.5", "--seed", "7"],
     dict(duration=2.5, seed=7)),
    ("overhead", "repro.workloads.experiment",
     ["run_switch_overhead_experiment"], Figure2Config, ["--seed", "7"],
     dict(seed=7)),
    ("oscillation", "repro.workloads.experiment",
     ["run_oscillation_experiment"], Figure2Config, ["--seed", "7"],
     dict(seed=7)),
    # repro chaos hands the runner its config compiled into a spec.
    ("chaos", "repro.scenarios.runner", ["run_scenario"], ChaosConfig,
     ["--members", "5", "--seed", "7", "--duration", "3",
      "--cast-rate", "60", "--switch-every", "0.4", "--control-loss", "0.1",
      "--control-dup", "0.05", "--control-jitter", "0.002",
      "--crash", "2:1.0:2.5", "--settle", "5"],
     dict(members=5, seed=7, duration=3.0, cast_rate=60.0,
          switch_every=0.4, control_loss=0.1, control_dup=0.05,
          control_jitter=0.002, crashes=(CrashSpec(2, 1.0, 2.5),),
          settle=5)),
    ("run", "repro.workloads.switchrun", ["run_switch_demo"],
     SwitchRunConfig,
     ["--runtime", "asyncio", "--members", "3", "--duration", "2",
      "--rate", "80", "--seed", "7", "--switch-at", "1",
      "--base-port", "48000", "--batch", "4", "--linger", "0.002"],
     dict(runtime="asyncio", members=3, duration=2.0, rate=80.0, seed=7,
          switch_at=1.0, base_port=48000, max_batch=4, linger=0.002)),
    ("fleet", "repro.fleet", ["run_fleet", "run_fleet_sharded"], FleetConfig,
     ["--groups", "8", "--members", "2", "--nodes", "6", "--clients", "80",
      "--client-rate", "0.5", "--hot-fraction", "0.25",
      "--hot-multiplier", "10", "--duration", "2", "--seed", "7",
      "--high-threshold", "20", "--oracle-poll", "0.25", "--settle", "1",
      "--shards", "2", "--telemetry", "--telemetry-window", "0.5",
      "--telemetry-history", "30", "--slo-p99-ms", "5",
      "--slo-switch-s", "1", "--slo-ratio", "0.9"],
     dict(groups=8, members=2, nodes=6, clients=80, client_rate=0.5,
          hot_fraction=0.25, hot_multiplier=10.0, duration=2.0, seed=7,
          high_threshold=20.0, oracle_poll=0.25, settle=1.0, shards=2,
          telemetry=True, telemetry_window=0.5, telemetry_history=30,
          slo_p99_ms=5.0, slo_switch_s=1.0, slo_ratio=0.9)),
    # --expo-port implies --telemetry.
    ("fleet", "repro.fleet", ["run_fleet", "run_fleet_sharded"], FleetConfig,
     ["--runtime", "asyncio", "--base-port", "48000", "--expo-port", "0"],
     dict(runtime="asyncio", base_port=48000, expo_port=0, telemetry=True)),
]


def config_flag_dests(command, config_cls):
    parser = build_parser()
    sub = next(
        action
        for action in parser._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    fields = {field.name for field in dataclasses.fields(config_cls)}
    return {
        action.dest
        for action in sub.choices[command]._actions
        if action.dest in fields
    }


@pytest.mark.parametrize(
    "command, module, runners, config_cls, argv, fields",
    CONFIG_ROWS,
    ids=["figure2", "overhead", "oscillation", "chaos", "run", "fleet",
         "fleet-expo"],
)
def test_config_command_flags_reach_fields(
    monkeypatch, capsys, command, module, runners, config_cls, argv, fields
):
    import importlib

    target = importlib.import_module(module)

    handed = (config_cls, ScenarioSpec)

    def fake_runner(*args, **kwargs):
        raise Captured(next(a for a in args if isinstance(a, handed)))

    def compiled(config):
        return config.spec() if isinstance(config, ChaosConfig) else config

    for runner in runners:
        monkeypatch.setattr(target, runner, fake_runner)

    # No flags: the runner gets exactly the dataclass defaults.
    with pytest.raises(Captured) as bare:
        main([command])
    assert bare.value.args[0] == compiled(config_cls())

    # Every flag lands on its field and nothing else moves.
    with pytest.raises(Captured) as flagged:
        main([command, *argv])
    assert flagged.value.args[0] == compiled(config_cls(**fields))
    capsys.readouterr()

    covered = set()
    for row in CONFIG_ROWS:
        if row[0] == command:
            covered |= set(row[5])
    assert config_flag_dests(command, config_cls) <= covered


def test_top_passes_only_the_flags_given(monkeypatch, capsys):
    """--interval/--limit carry no parser default: run_top's signature
    holds the only one."""
    import repro.obs.telemetry.top as top

    calls = []
    monkeypatch.setattr(
        top, "run_top", lambda *args, **kwargs: calls.append((args, kwargs))
    )
    main(["top", "tele.json"])
    main(["top", "a.json", "b.json", "--interval", "0.5", "--limit", "3"])
    assert calls == [
        ((["tele.json"],), {"once": False, "as_json": False}),
        (
            (["a.json", "b.json"],),
            {"once": False, "as_json": False, "interval": 0.5, "limit": 3},
        ),
    ]
    capsys.readouterr()


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
def fake_chaos_verdict(spec, violations=(), total_order=None):
    return ScenarioVerdict(
        scenario=spec.name,
        runtime="sim",
        seed=spec.seed,
        expected_protocol=None,
        final_protocols={0: "tokenring", 1: "tokenring"},
        switches_completed=2,
        switches_aborted=1,
        decisions=[],
        time_to_switch=None,
        switch_duration_ms=40.0,
        max_hiccup_ms=50.0,
        casts=10,
        delivered={0: 10, 1: 10},
        delivery_ratio=1.0,
        delivered_rate_before=None,
        delivered_rate_after=None,
        mean_latency_ms=2.0,
        p90_latency_ms=4.0,
        settle_time=6.5,
        duration=spec.duration,
        counters={"regenerated_tokens": 3, "drops": 0},
        violations=list(violations),
        total_order=total_order,
    )


def fake_chaos(monkeypatch, **verdict):
    """Stub the runner; returns the list the specs it was given land in."""
    import repro.scenarios.runner as runner

    specs = []

    def fake_run(spec, bus=None):
        specs.append(spec)
        return fake_chaos_verdict(spec, **verdict)

    monkeypatch.setattr(runner, "run_scenario", fake_run)
    return specs


def test_cmd_chaos_clean_run_exits_zero(monkeypatch, capsys):
    specs = fake_chaos(monkeypatch)
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
    assert "recovery counters: {'regenerated_tokens': 3}" in out
    [spec] = specs
    assert spec.seed == 5 and spec.group.members == 6
    assert spec.phases[0].net.loss == 0.2
    assert spec.phases[0].net.scope == "control"
    assert spec.crashes == (CrashSpec(2, 1.0, 2.5), CrashSpec(4, 3.0))


def test_cmd_chaos_violations_exit_one(monkeypatch, capsys):
    fake_chaos(monkeypatch, violations=["member 1 delivered 2 duplicates"])
    code = cli.main(["chaos"])
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATIONS" in out
    assert "duplicates" in out


def test_cmd_chaos_whole_trace_order_is_reported_not_judged(
    monkeypatch, capsys
):
    split = "processes 0 and 1 disagree: 0 delivered (0, 1) where 1 delivered (1, 2)"
    fake_chaos(monkeypatch, total_order=split)
    code = cli.main(["chaos"])
    out = capsys.readouterr().out
    assert code == 0
    assert f"whole-trace total order (observed): {split}" in out
    assert "oracle: all properties hold" in out


@pytest.mark.parametrize("spec", ["nonsense", "a:1", "1:x"])
def test_cmd_chaos_rejects_malformed_crash_spec(capsys, spec):
    code = cli.main(["chaos", "--crash", spec])
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


def test_cmd_chaos_rejects_a_nan_crash_time(capsys):
    # float("nan") parses; the timeline must refuse it rather than run
    # the storm without the crash.
    code = cli.main(
        ["chaos", "--seed", "7", "--duration", "2", "--crash", "2:nan"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "bad chaos configuration" in out
    assert "oracle" not in out


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


def sections(**entries):
    return json.dumps({"counters": {}, "gauges": {}, "histograms": {},
                       **entries})


@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file"),
        ("[]", "metrics: expected an object, got list"),
        (sections(gauges={"x": 1}), "metrics.gauges[x]: expected an object"),
        (sections(histograms={"h": [1, 2]}),
         "metrics.histograms[h]: expected an object, got list"),
        (sections(gauges={"x": {"value": 1.0}}),
         "metrics.gauges[x]: missing keys ['time']"),
    ],
    ids=["missing", "not-an-object", "gauge-not-an-object",
         "histogram-not-an-object", "gauge-without-time"],
)
def test_cmd_metrics_missing_file_exits_two(capsys, tmp_path, content, reason):
    path = tmp_path / "nope.json"
    if content is not None:
        path.write_text(content)
    code = cli.main(["metrics", str(path)])
    out = capsys.readouterr().out
    assert code == 2
    assert out.startswith("cannot read metrics file")
    assert reason in out


# ----------------------------------------------------------------------
# chaos --settle (real runs, no mocking: the exit code must come from an
# actual convergence check, not from reporting logic)
# ----------------------------------------------------------------------
def test_cmd_chaos_settle_forwarded(monkeypatch, capsys):
    specs = fake_chaos(monkeypatch)
    assert cli.main(["chaos", "--settle", "3"]) == 0
    capsys.readouterr()
    assert specs[0].settle.windows == 3


def test_cmd_chaos_settle_zero_fails_for_real(capsys):
    # --settle 0 grants the group no drain windows at all, so a real run
    # still mid-switch at the horizon (the request at t=1.4 s is in
    # flight at 1.45 s) must report a genuine convergence violation
    # naming the members caught switching, and exit nonzero.
    code = cli.main(
        ["chaos", "--settle", "0", "--duration", "1.45",
         "--control-loss", "0.05", "--seed", "3"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "VIOLATIONS" in out
    assert "did not converge within 0 settle windows" in out
    assert "still switching: [0, 1, 2, 3]" in out


def test_cmd_chaos_settle_zero_converged_passes(capsys):
    # With no switch requested the group has converged at the horizon:
    # judged once there, --settle 0 passes.
    code = cli.main(
        ["chaos", "--seed", "1", "--duration", "1", "--switch-every", "0",
         "--settle", "0"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "oracle: all properties hold" in out


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


def test_preservation_command_runs(capsys):
    code = main(["preservation"])
    out = capsys.readouterr().out
    assert code == 0
    assert "9/9 scenarios match" in out
    assert "Virtual Synchrony" in out


# ----------------------------------------------------------------------
# audit command
# ----------------------------------------------------------------------
def test_audit_lists_properties(capsys):
    code = main(["audit"])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("Total Order", "Amoeba", "No Replay"):
        assert name in out


def test_audit_unknown_property(capsys):
    code = main(["audit", "--property", "Levitation"])
    assert code == 1
    assert "unknown property" in capsys.readouterr().out


def test_audit_refuted_property_shows_counterexample(capsys):
    code = main(["audit", "--property", "Prioritized Delivery"])
    out = capsys.readouterr().out
    assert code == 0
    assert "Asynchrony     REFUTED" in out
    assert "below (holds):" in out
    assert "does not guarantee" in out


def test_audit_all_six_property(capsys):
    code = main(["audit", "--property", "Integrity"])
    out = capsys.readouterr().out
    assert code == 0
    assert "REFUTED" not in out
    assert "preserves it" in out
