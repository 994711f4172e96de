"""The artifact validators themselves are load-bearing CI gates, so
they get the same treatment as any other code: each one must accept a
known-good artifact and *reject* truncated or regressed ones.  A
validator that waves everything through would let a broken benchmark or
scenario sweep sail past CI.
"""

import json
from pathlib import Path

import pytest

from helpers import load_validator
from repro.fleet.runner import FleetResult, GroupReport
from repro.records import dump

REPO = Path(__file__).resolve().parents[2]
RESULTS = REPO / "benchmarks" / "results"

check_obs = load_validator("check_obs")
check_scale = load_validator("check_scale")
check_scenarios = load_validator("check_scenarios")
check_fleet = load_validator("check_fleet")
check_telemetry = load_validator("check_telemetry")


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ----------------------------------------------------------------------
# Shared: usage errors exit 2, unreadable artifacts exit 1
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "validator", [check_scale, check_scenarios, check_fleet]
)
def test_usage_error_exits_two(validator, capsys):
    assert validator.main(["prog"]) == 2
    assert validator.main(["prog", "a", "b", "c"]) == 2
    capsys.readouterr()


def test_obs_usage_error_exits_two(capsys):
    assert check_obs.main(["prog"]) == 2
    assert check_obs.main(["prog", "only-one"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "validator", [check_scale, check_scenarios, check_fleet]
)
def test_missing_artifact_exits_one(validator, tmp_path, capsys):
    assert validator.main(["prog", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "run",
    [
        lambda bad, tele, trace: check_telemetry.main(
            ["prog", "--overhead", bad]
        ),
        lambda bad, tele, trace: check_telemetry.main(["prog", tele, bad]),
        lambda bad, tele, trace: check_scale.main(["prog", bad]),
        lambda bad, tele, trace: check_obs.main(["prog", trace, bad]),
    ],
    ids=["telemetry-overhead", "telemetry-fleet-artifact", "scale",
         "obs-metrics"],
)
def test_a_non_object_artifact_exits_one(run, tmp_path, capsys):
    bad = write(tmp_path, "a.json", [])
    tele = write(tmp_path, "tele.json", good_telemetry_payload())
    trace = write(tmp_path, "trace.json", [])
    assert run(bad, tele, trace) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out and ": expected an object, got list" in out


def test_obs_rejects_a_trace_that_is_not_an_array(obs_artifacts, tmp_path,
                                                 capsys):
    __, metrics = obs_artifacts
    trace = write(tmp_path, "trace.json", {"traceEvents": []})
    assert check_obs.main(["prog", trace, str(metrics)]) == 1
    assert "trace: expected a list, got dict" in capsys.readouterr().out


def test_obs_rejects_a_trace_record_that_is_not_an_object(obs_artifacts,
                                                         tmp_path, capsys):
    __, metrics = obs_artifacts
    trace = write(tmp_path, "trace.json", [1, 2])
    assert check_obs.main(["prog", trace, str(metrics)]) == 1
    out = capsys.readouterr().out
    assert "FAILED" in out
    assert "trace[0]: expected an object, got int" in out


# ----------------------------------------------------------------------
# check_obs: trace + metrics from a real traced run
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def obs_artifacts(tmp_path_factory):
    """One real traced switch on the sim runtime."""
    import repro.cli as cli

    tmp = tmp_path_factory.mktemp("obs")
    trace = tmp / "out.trace.json"
    metrics = tmp / "metrics.json"
    code = cli.main(
        ["run", "--runtime", "sim", "--duration", "3", "--switch-at", "1",
         "--seed", "42", "--trace", str(trace), "--metrics", str(metrics)]
    )
    assert code == 0
    return trace, metrics


def test_obs_accepts_real_run(obs_artifacts, capsys):
    trace, metrics = obs_artifacts
    assert check_obs.main(["prog", str(trace), str(metrics)]) == 0
    assert "all observability checks passed" in capsys.readouterr().out


def test_obs_rejects_trace_without_switch_spans(
    obs_artifacts, tmp_path, capsys
):
    trace, metrics = obs_artifacts
    records = [
        r
        for r in json.loads(trace.read_text())
        if not str(r.get("name", "")).startswith("switch/")
    ]
    broken = write(tmp_path, "trace.json", records)
    assert check_obs.main(["prog", broken, str(metrics)]) == 1
    assert "no complete" in capsys.readouterr().out


def test_obs_rejects_metrics_without_percentiles(
    obs_artifacts, tmp_path, capsys
):
    trace, metrics = obs_artifacts
    snapshot = json.loads(metrics.read_text())
    # A multi-sample histogram must carry its quantiles; claim two
    # observations without them and the validator has to complain.
    hist = snapshot["histograms"]["switch.duration_s"]
    hist["count"] = 2
    hist.pop("p99", None)
    broken = write(tmp_path, "metrics.json", snapshot)
    assert check_obs.main(["prog", str(trace), broken]) == 1
    assert "lacks p99" in capsys.readouterr().out


def test_obs_accepts_single_sample_switch_histogram(
    obs_artifacts, capsys
):
    # One switch -> count 1 -> no quantiles, by the Histogram contract.
    # The validator accepts that, but demands min/max instead.
    trace, metrics = obs_artifacts
    snapshot = json.loads(metrics.read_text())
    duration = snapshot["histograms"]["switch.duration_s"]
    if duration["count"] < 2:
        assert "p99" not in duration
        assert "min" in duration and "max" in duration
    assert check_obs.main(["prog", str(trace), str(metrics)]) == 0
    capsys.readouterr()


def test_obs_rejects_truncated_trace(obs_artifacts, tmp_path, capsys):
    __, metrics = obs_artifacts
    broken = tmp_path / "trace.json"
    broken.write_text("[{\"name\": \"x\"")  # cut mid-record
    assert check_obs.main(["prog", str(broken), str(metrics)]) == 1
    capsys.readouterr()


def complete_span(trace):
    return next(r for r in trace if r["ph"] == "X")


@pytest.mark.parametrize(
    "edit_trace, edit_metrics, reason",
    [
        (None, lambda m: m["histograms"].update({"switch.duration_s": 5}),
         "metrics.histograms[switch.duration_s]: expected an object, got int"),
        (None, lambda m: m["counters"].update({"net.sends": "1"}),
         "metrics.counters[net.sends]: expected int, got str"),
        (lambda t: complete_span(t).update(name=[1]), None,
         "].name: expected str, got list"),
    ],
    ids=["histogram-not-an-object", "counter-string", "span-name-list"],
)
def test_obs_rejects_badly_shaped_artifacts(
    obs_artifacts, tmp_path, capsys, edit_trace, edit_metrics, reason
):
    paths = []
    for path, edit in zip(obs_artifacts, (edit_trace, edit_metrics)):
        image = json.loads(path.read_text())
        if edit is not None:
            edit(image)
        paths.append(write(tmp_path, path.name, image))
    assert check_obs.main(["prog", *paths]) == 1
    out = capsys.readouterr().out
    assert "FAILED 1 check(s):" in out
    assert reason in out


def broken_counters(obs_artifacts, tmp_path, edit):
    trace, metrics = obs_artifacts
    snapshot = json.loads(metrics.read_text())
    edit(snapshot["counters"])
    return str(trace), write(tmp_path, "metrics.json", snapshot)


def test_obs_rejects_a_missing_counter(obs_artifacts, tmp_path, capsys):
    args = broken_counters(
        obs_artifacts, tmp_path, lambda c: c.pop("sp.initiated")
    )
    assert check_obs.main(["prog", *args]) == 1
    assert "'sp.initiated'] missing" in capsys.readouterr().out


def test_obs_rejects_a_switch_count_the_histogram_disagrees_with(
    obs_artifacts, tmp_path, capsys
):
    def one_more(counters):
        counters["sp.globally_complete"] += 1

    args = broken_counters(obs_artifacts, tmp_path, one_more)
    assert check_obs.main(["prog", *args]) == 1
    assert "but sp.globally_complete is" in capsys.readouterr().out


def test_obs_rejects_more_deliveries_than_sends(
    obs_artifacts, tmp_path, capsys
):
    def inflate(counters):
        counters["net.deliveries"] = counters["net.sends"] + 1

    args = broken_counters(obs_artifacts, tmp_path, inflate)
    assert check_obs.main(["prog", *args]) == 1
    assert "exceeds net.sends" in capsys.readouterr().out


def test_obs_accepts_in_process_copies_beyond_sends(
    obs_artifacts, tmp_path, capsys
):
    # A UDP node's copy to itself is a delivery without a datagram.
    def loop_back_three(counters):
        counters["net.loopback"] = 3
        counters["net.deliveries"] = counters["net.sends"] + 3
        counters["port.received"] = counters["net.deliveries"] - counters.get(
            "port.stray_group", 0
        )

    args = broken_counters(obs_artifacts, tmp_path, loop_back_three)
    assert check_obs.main(["prog", *args]) == 0
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [
        lambda c: c.__setitem__("port.received", c["port.received"] - 1),
        lambda c: c.__setitem__("port.stray_group", 1),
    ],
    ids=["a-copy-bypassed-the-ports", "a-stray-too-many"],
)
def test_obs_rejects_port_counts_that_disagree_with_deliveries(
    edit, obs_artifacts, tmp_path, capsys
):
    args = broken_counters(obs_artifacts, tmp_path, edit)
    assert check_obs.main(["prog", *args]) == 1
    assert "port.received + port.stray_group is" in capsys.readouterr().out


# ----------------------------------------------------------------------
# check_scale: the checked-in sweep is the known-good input
# ----------------------------------------------------------------------
def good_scale_artifact():
    """The checked-in sweep cut to a quick-sized grid."""
    artifact = json.loads((RESULTS / "scale.json").read_text())
    artifact["points"] = [
        p for p in artifact["points"]
        if p["group_size"] in (10, 50) and p["max_batch"] in (1, 16)
    ]
    return artifact


def test_scale_accepts_good_artifact(tmp_path, capsys):
    path = write(tmp_path, "scale.json", good_scale_artifact())
    assert check_scale.main(["prog", path]) == 0
    assert "all scale-benchmark checks passed" in capsys.readouterr().out


def test_scale_accepts_checked_in_artifact(capsys):
    assert check_scale.main(["prog", str(RESULTS / "scale.json")]) == 0
    assert "all scale-benchmark checks passed" in capsys.readouterr().out


def test_scale_rejects_regressed_acceptance(tmp_path, capsys):
    artifact = good_scale_artifact()
    artifact["acceptance"].update({"speedup": 1.4, "pass": False})
    path = write(tmp_path, "scale.json", artifact)
    assert check_scale.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert "below the 2x bar" in out


def test_scale_rejects_single_protocol_sweep(tmp_path, capsys):
    artifact = good_scale_artifact()
    artifact["points"] = [
        p for p in artifact["points"] if p["protocol"] == "sequencer"
    ]
    path = write(tmp_path, "scale.json", artifact)
    assert check_scale.main(["prog", path]) == 1
    assert "protocols covered" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda a: a["points"].__setitem__(0, 1),
         "artifact.points[0]: expected an object, got int"),
        (lambda a: a.update(switch_runs=[None]),
         "artifact.switch_runs[0]: expected an object, got null"),
        (lambda a: a["acceptance"].update(group_size="60"),
         "artifact.acceptance.group_size: expected int, got str"),
        (lambda a: a["points"][0].update(delivered_msgs_per_s="x"),
         "artifact.points[0].delivered_msgs_per_s: expected a number"),
        (lambda a: a["points"][1].update(batching=3),
         "artifact.points[1].batching: expected an object, got int"),
    ],
    ids=["point-not-an-object", "switch-run-null", "group-size-string",
         "rate-string", "batching-not-an-object"],
)
def test_scale_rejects_badly_shaped_artifact(tmp_path, capsys, edit, reason):
    artifact = good_scale_artifact()
    edit(artifact)
    path = write(tmp_path, "scale.json", artifact)
    assert check_scale.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert reason in out


def test_scale_rejects_failed_switch_run(tmp_path, capsys):
    artifact = good_scale_artifact()
    artifact["switch_runs"][0]["all_on_target"] = False
    path = write(tmp_path, "scale.json", artifact)
    assert check_scale.main(["prog", path]) == 1
    assert "all_on_target" in capsys.readouterr().out


# ----------------------------------------------------------------------
# check_scenarios: the checked-in sweep artifact is the known-good input
# ----------------------------------------------------------------------
def scenarios_artifact():
    return json.loads((RESULTS / "scenarios.json").read_text())


def test_scenarios_accepts_checked_in_artifact(capsys):
    assert (
        check_scenarios.main(["prog", str(RESULTS / "scenarios.json")]) == 0
    )
    assert "all scenario-sweep checks passed" in capsys.readouterr().out


def test_scenarios_rejects_failed_verdict(tmp_path, capsys):
    artifact = scenarios_artifact()
    verdict = artifact["scenarios"]["burst_loss"]
    verdict["ok"] = False
    verdict["violations"] = ["member 2 delivered out of order"]
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    assert "FAILED" in capsys.readouterr().out


def test_scenarios_rejects_shrunk_catalog(tmp_path, capsys):
    artifact = scenarios_artifact()
    keep = sorted(artifact["scenarios"])[:4]
    artifact["scenarios"] = {
        name: artifact["scenarios"][name] for name in keep
    }
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    assert "catalog coverage" in capsys.readouterr().out


def test_scenarios_rejects_truncated_verdict(tmp_path, capsys):
    artifact = scenarios_artifact()
    del artifact["scenarios"]["high_latency"]["switch_duration_ms"]
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    assert "missing keys" in capsys.readouterr().out


def test_scenarios_rejects_wrong_final_protocol(tmp_path, capsys):
    artifact = scenarios_artifact()
    finals = artifact["scenarios"]["congestion_collapse"]["final_protocols"]
    finals[next(iter(finals))] = "sequencer"
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    assert "did not settle" in capsys.readouterr().out


def test_scenarios_rejects_phantom_switch(tmp_path, capsys):
    # A stability verdict that claims oracle decisions is inconsistent.
    artifact = scenarios_artifact()
    verdict = artifact["scenarios"]["baseline_steady"]
    assert verdict["switches_completed"] == 0
    verdict["decisions"] = [
        {"time": 1.0, "from": "sequencer", "to": "tokenring", "signal": 9.0}
    ]
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    assert "stability scenario recorded oracle decisions" in (
        capsys.readouterr().out
    )


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("settle_time", "late", "settle_time: expected a number"),
        ("decisions", [[1.0, "sequencer", "tokenring"]], "decisions: exp"),
        ("final_protocols", {"zero": "sequencer"}, "is not int"),
        ("casts", True, "casts: expected int"),
    ],
    ids=["settle-time-string", "decision-not-an-object", "rank-not-int",
         "casts-bool"],
)
def test_scenarios_rejects_badly_shaped_verdict(
    tmp_path, capsys, key, value, reason
):
    artifact = scenarios_artifact()
    artifact["scenarios"]["baseline_steady"][key] = value
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert reason in out


def test_scenarios_rejects_wrong_suite(tmp_path, capsys):
    artifact = scenarios_artifact()
    artifact["suite"] = "benchmarks"
    path = write(tmp_path, "scenarios.json", artifact)
    assert check_scenarios.main(["prog", path]) == 1
    assert "suite name" in capsys.readouterr().out


# ----------------------------------------------------------------------
# check_fleet: the checked-in fleet sweep is the known-good input
# ----------------------------------------------------------------------
def fleet_artifact():
    return json.loads((RESULTS / "fleet.json").read_text())


def test_fleet_accepts_checked_in_artifact(capsys):
    assert check_fleet.main(["prog", str(RESULTS / "fleet.json")]) == 0
    out = capsys.readouterr().out
    assert "all fleet-benchmark checks passed" in out
    assert "hot switched" in out


def test_fleet_rejects_cold_group_switch(tmp_path, capsys):
    artifact = fleet_artifact()
    run = artifact["runs"]["sim"]
    run["cold_switched"] = 2
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    assert "cold groups switched" in capsys.readouterr().out


def test_fleet_rejects_unswitched_hot_group(tmp_path, capsys):
    artifact = fleet_artifact()
    run = artifact["runs"]["sim"]
    run["hot_switched"] = run["hot_groups"] - 1
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    assert "hot groups escalated" in capsys.readouterr().out


def test_fleet_rejects_truncated_per_group(tmp_path, capsys):
    artifact = fleet_artifact()
    run = artifact["runs"]["sim"]
    run["per_group"] = run["per_group"][:10]
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    assert "reports for" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda run: run.update(per_group=[7]), "per_group[0]: expected"),
        (lambda run: run.update(msgs_per_s=float("nan")), "got NaN"),
        (lambda run: run.update(extra=1), "unknown keys ['extra']"),
        (lambda run: run["config"].update(groups="many"), "config.groups"),
        (lambda run: run.pop("ok"), "missing keys ['ok']"),
    ],
    ids=["group-not-an-object", "nan-rate", "unknown-key", "bad-config",
         "no-verdict"],
)
def test_fleet_rejects_badly_shaped_run(tmp_path, capsys, edit, reason):
    artifact = fleet_artifact()
    edit(artifact["runs"]["sim"])
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert reason in out


def test_fleet_rejects_a_non_object_artifact(tmp_path, capsys):
    path = write(tmp_path, "fleet.json", [fleet_artifact()])
    assert check_fleet.main(["prog", path]) == 1
    assert "artifact: expected an object, got list" in capsys.readouterr().out


def test_fleet_rejects_full_profile_below_scale_floor(tmp_path, capsys):
    # A "full" artifact must actually prove the 1000-group/100k-client
    # claim; shrinking the sweep while keeping the label must fail.
    artifact = fleet_artifact()
    run = artifact["runs"]["sim"]
    run["groups"] = 64
    run["clients"] = 6_400
    run["per_group"] = run["per_group"][:64]
    run["hot_groups"] = run["hot_switched"] = sum(
        1 for r in run["per_group"] if r["hot"]
    )
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert "below the full-profile" in out


def test_fleet_rejects_missing_sim_run(tmp_path, capsys):
    artifact = fleet_artifact()
    del artifact["runs"]["sim"]
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    assert "required 'sim' run" in capsys.readouterr().out


def test_fleet_rejects_failed_verdict(tmp_path, capsys):
    artifact = fleet_artifact()
    artifact["pass"] = False
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    assert "top-level verdict" in capsys.readouterr().out


def test_fleet_rejects_sequencer_stuck_hot_group(tmp_path, capsys):
    artifact = fleet_artifact()
    run = artifact["runs"]["sim"]
    hot = next(r for r in run["per_group"] if r["hot"])
    hot["final_protocol"] = "sequencer"
    hot["switched"] = False
    path = write(tmp_path, "fleet.json", artifact)
    assert check_fleet.main(["prog", path]) == 1
    assert "hot group ended on 'sequencer'" in capsys.readouterr().out


# ----------------------------------------------------------------------
# check_fleet, sharded mode: the checked-in scaling sweep is known-good
# ----------------------------------------------------------------------
def sharded_artifact():
    return json.loads((RESULTS / "fleet_sharded.json").read_text())


def sharded_paths(tmp_path, artifact):
    return (
        write(tmp_path, "fleet_sharded.json", artifact),
        str(RESULTS / "fleet.json"),
    )


def test_sharded_accepts_checked_in_artifact(capsys):
    code = check_fleet.main(
        [
            "prog",
            str(RESULTS / "fleet_sharded.json"),
            str(RESULTS / "fleet.json"),
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "all sharded-fleet checks passed" in out
    assert "speedup" in out


def test_sharded_accepts_without_baseline(capsys):
    assert (
        check_fleet.main(["prog", str(RESULTS / "fleet_sharded.json")]) == 0
    )


def test_sharded_rejects_regressed_speedup(tmp_path, capsys):
    artifact = sharded_artifact()
    # Inflate the top run's recorded critical path; the validator must
    # recompute the speedup from the points, not trust speedup_at_max.
    for point in artifact["scaling"]["points"]:
        if point["shards"] == max(artifact["shard_counts"]):
            point["critical_path_cpu_s"] = (
                artifact["scaling"]["points"][0]["critical_path_cpu_s"]
            )
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    assert "below the full-profile floor" in capsys.readouterr().out


def test_sharded_rejects_partition_parity_break(tmp_path, capsys):
    artifact = sharded_artifact()
    artifact["runs"]["shards4"]["per_group"][7]["delivered"] += 1
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    assert "partition parity" in capsys.readouterr().out


def test_sharded_rejects_baseline_drift(tmp_path, capsys):
    # All shard counts agree with each other but not with the
    # in-process artifact: the sharded engine has drifted.
    artifact = sharded_artifact()
    for run in artifact["runs"].values():
        run["per_group"][0]["delivered"] += 1
        run["delivered"] += 1
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    assert "differ from the in-process baseline" in capsys.readouterr().out


def test_sharded_rejects_shrunk_sweep(tmp_path, capsys):
    artifact = sharded_artifact()
    artifact["shard_counts"] = [1, 2]
    del artifact["runs"]["shards4"]
    artifact["scaling"]["points"] = artifact["scaling"]["points"][:2]
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    assert "must reach 4" in capsys.readouterr().out


def test_sharded_rejects_bad_shard_stats(tmp_path, capsys):
    artifact = sharded_artifact()
    artifact["runs"]["shards2"]["shard_stats"] = artifact["runs"]["shards2"][
        "shard_stats"
    ][:1]
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    assert "entries for 2 shards" in capsys.readouterr().out


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda a: a["scaling"].update(points=[1]),
         "artifact.scaling.points[0]: expected an object, got int"),
        (lambda a: a.update(shard_counts=[1, "4"]),
         "artifact.shard_counts[1]: expected int, got str"),
    ],
    ids=["scaling-point-not-an-object", "shard-count-string"],
)
def test_sharded_rejects_badly_shaped_artifact(tmp_path, capsys, edit, reason):
    artifact = sharded_artifact()
    edit(artifact)
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert reason in out


def test_sharded_rejects_cold_switch_inside_a_shard(tmp_path, capsys):
    artifact = sharded_artifact()
    artifact["runs"]["shards1"]["cold_switched"] = 1
    path, baseline = sharded_paths(tmp_path, artifact)
    assert check_fleet.main(["prog", path, baseline]) == 1
    assert "cold groups switched" in capsys.readouterr().out


# ----------------------------------------------------------------------
# check_telemetry: synthetic payload/blackbox/overhead fixtures
# ----------------------------------------------------------------------
def good_telemetry_payload():
    def group(gid, delivered, protocol="sequencer"):
        return {
            "group": gid,
            "hot": gid == 1,
            "protocol": protocol,
            "sequencer": gid,
            "members": 3,
            "torn_down": False,
            "casts": delivered,
            "delivered": delivered,
            "rate": float(delivered),
            "p50_ms": 1.5,
            "p99_ms": None,
            "switches": 0,
            "aborts": 0,
            "last_switch_s": None,
            "slo": {"ok": True, "burning": [], "burn_minutes": 0.0},
        }

    prometheus = "".join(
        f"# TYPE {series} gauge\n{series} 1\n"
        for series in check_telemetry.PROM_SERIES
    )
    return {
        "schema_version": 1,
        "kind": "telemetry",
        "source": "poll",
        "snapshot": {
            "fleet": {
                "time": 8.0,
                "uptime_s": 8.0,
                "window_s": 1.0,
                "windows_rolled": 8,
                "groups": 2,
                "casts": 30,
                "delivered": 30,
                "rate": 4.0,
                "rate_cumulative": 3.75,
                "switches": 0,
                "aborts": 0,
                "strays": 0,
                "pool": {
                    "nodes": 2, "loads": {"0": 1, "1": 1}, "min": 1, "max": 1
                },
                "escalations": 1,
                "captures": 0,
                "slo": {
                    "targets": [],
                    "alerts": 0,
                    "burn_minutes": 0.0,
                    "groups_burning": 0,
                },
                "counters": {"net.sends": 12},
            },
            "groups": {"0": group(0, 10), "1": group(1, 20)},
            "fleet_windows": [
                {"t": 8.0, "window_s": 1.0, "groups": 2, "casts": 4,
                 "delivered": 4, "rate": 4.0, "switches": 0, "aborts": 0,
                 "strays": 0}
            ],
        },
        "prometheus": prometheus,
        "escalations": [
            {
                "time": 3.5,
                "group_id": 1,
                "from": "sequencer",
                "to": "tokenring",
                "signal": 55.0,
                "snapshot": {"group": 1, "window_partial": {"delivered": 9}},
            }
        ],
    }


def good_blackbox_lines():
    return [
        {"trigger": "switch_abort", "group": 3, "time": 2.5,
         "detail": "stalled",
         "records": [{"t": 2.1, "name": "cast", "kind": "i"},
                     {"t": 2.4, "name": "switch/abort", "kind": "i"}]},
    ]


def write_blackbox(tmp_path, lines):
    path = tmp_path / "blackbox.jsonl"
    path.write_text("".join(json.dumps(line) + "\n" for line in lines))
    return str(path)


def good_overhead_artifact():
    return {
        "benchmark": "telemetry_overhead",
        "schema_version": 1,
        "config": {"groups": 20, "clients": 2000, "duration_s": 10.0,
                   "rounds": 1, "seed": 9},
        "off": {"best_s": 1.00, "times_s": [1.00], "delivered": 500,
                "casts": 510},
        "on": {"best_s": 1.02, "times_s": [1.02], "delivered": 500,
               "casts": 510},
        "overhead_pct": 2.0,
        "threshold_pct": 5.0,
        "identical_outcome": True,
    }


def test_telemetry_usage_error_exits_two(capsys):
    assert check_telemetry.main(["prog"]) == 2
    assert check_telemetry.main(["prog", "a", "b", "c"]) == 2
    capsys.readouterr()


def test_telemetry_missing_artifact_exits_one(tmp_path, capsys):
    nope = str(tmp_path / "nope.json")
    assert check_telemetry.main(["prog", nope]) == 1
    assert check_telemetry.main(["prog", "--blackbox", nope]) == 1
    assert check_telemetry.main(["prog", "--overhead", nope]) == 1
    assert "cannot load" in capsys.readouterr().out


def test_telemetry_accepts_good_payload(tmp_path, capsys):
    path = write(tmp_path, "tele.json", good_telemetry_payload())
    assert check_telemetry.main(["prog", path]) == 0
    assert "all telemetry checks passed" in capsys.readouterr().out


def good_fleet_artifact(delivered=30):
    """The fleet artifact matching :func:`good_telemetry_payload`:
    group 1 was escalated and switched, group 0 stayed."""

    def group(gid, switched):
        return GroupReport(
            group_id=gid, hot=switched, members=[0, 1, 2], sequencer=gid,
            casts=delivered // 2, delivered=delivered // 2, p99_ms=None,
            final_protocol="tokenring" if switched else "sequencer",
            switched=switched,
        )

    return dump(FleetResult(
        runtime="sim", groups=2, clients=20, duration=8.0, casts=delivered,
        delivered=delivered, msgs_per_s=delivered / 8.0, hot_groups=1,
        hot_switched=1, cold_switched=0, stray_packets=0,
        per_group=[group(0, False), group(1, True)],
    ))


def test_telemetry_checks_artifact_agreement(tmp_path, capsys):
    tele = write(tmp_path, "tele.json", good_telemetry_payload())
    fleet = write(tmp_path, "fleet.json", good_fleet_artifact())
    assert check_telemetry.main(["prog", tele, fleet]) == 0
    assert "within 1%" in capsys.readouterr().out
    drifted = write(tmp_path, "drift.json", good_fleet_artifact(60))
    assert check_telemetry.main(["prog", tele, drifted]) == 1
    assert "drift" in capsys.readouterr().out


def test_telemetry_rejects_duplicated_escalation(tmp_path, capsys):
    payload = good_telemetry_payload()
    payload["escalations"].append(dict(payload["escalations"][0]))
    tele = write(tmp_path, "tele.json", payload)
    fleet = write(tmp_path, "fleet.json", good_fleet_artifact())
    assert check_telemetry.main(["prog", tele, fleet]) == 1
    assert "groups [1] escalated more than once" in capsys.readouterr().out


def test_telemetry_rejects_escalations_unmatched_by_switches(tmp_path, capsys):
    tele = write(tmp_path, "tele.json", good_telemetry_payload())
    artifact = good_fleet_artifact()
    artifact["per_group"][0]["switched"] = True
    fleet = write(tmp_path, "fleet.json", artifact)
    assert check_telemetry.main(["prog", tele, fleet]) == 1
    assert "switched groups [0] were never escalated" in capsys.readouterr().out


def test_telemetry_rejects_a_fleet_artifact_group_that_is_not_an_object(
    tmp_path, capsys
):
    tele = write(tmp_path, "tele.json", good_telemetry_payload())
    artifact = good_fleet_artifact()
    artifact["per_group"] = [1]
    fleet = write(tmp_path, "fleet.json", artifact)
    assert check_telemetry.main(["prog", tele, fleet]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert "fleet.per_group[0]: expected an object" in out


def test_telemetry_escalation_cap_matches_the_plane():
    from repro.obs.telemetry import aggregate

    assert check_telemetry.MAX_ESCALATIONS == aggregate.MAX_ESCALATIONS


def test_telemetry_rejects_inconsistent_group_totals(tmp_path, capsys):
    payload = good_telemetry_payload()
    payload["snapshot"]["groups"]["1"]["delivered"] = 5
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    assert "sums to" in capsys.readouterr().out


def test_telemetry_rejects_unjustified_escalation(tmp_path, capsys):
    payload = good_telemetry_payload()
    payload["escalations"][0]["snapshot"] = None
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    assert "no snapshot" in capsys.readouterr().out


def test_telemetry_rejects_out_of_order_escalations(tmp_path, capsys):
    payload = good_telemetry_payload()
    early = dict(payload["escalations"][0], time=1.5, group_id=0)
    payload["escalations"].append(early)
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    assert "before the record ahead of it (3.5)" in capsys.readouterr().out


def test_telemetry_rejects_missing_prometheus_series(tmp_path, capsys):
    payload = good_telemetry_payload()
    payload["prometheus"] = payload["prometheus"].replace(
        "repro_slo_burn_minutes", "repro_slo_burn_hours"
    )
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    assert "repro_slo_burn_minutes missing" in capsys.readouterr().out


def test_telemetry_rejects_a_badly_typed_group_view(tmp_path, capsys):
    payload = good_telemetry_payload()
    payload["snapshot"]["groups"]["1"]["rate"] = "x"
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert "payload.snapshot.groups[1].rate: expected a number, got str" in out


def test_telemetry_rejects_a_group_filed_under_another_id(tmp_path, capsys):
    payload = good_telemetry_payload()
    payload["snapshot"]["groups"]["1"]["group"] = 7
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    assert "snapshot.groups[1]: group id mismatch (7)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "key, value, reason",
    [
        ("snapshot", 3, "payload.snapshot: expected an object"),
        ("kind", "metrics", "kind is 'metrics', not 'telemetry'"),
        ("source", "guess", "unknown source 'guess'"),
        ("escalations", [7], "payload.escalations[0]: expected an object"),
        ("schema_version", "1", "schema_version: expected int"),
    ],
    ids=["snapshot-not-an-object", "wrong-kind", "unknown-source",
         "escalation-not-an-object", "version-string"],
)
def test_telemetry_rejects_badly_shaped_envelope(
    tmp_path, capsys, key, value, reason
):
    payload = good_telemetry_payload()
    payload[key] = value
    path = write(tmp_path, "tele.json", payload)
    assert check_telemetry.main(["prog", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert reason in out


def test_telemetry_accepts_good_blackbox(tmp_path, capsys):
    path = write_blackbox(tmp_path, good_blackbox_lines())
    assert check_telemetry.main(["prog", "--blackbox", path]) == 0
    assert "1 capture(s)" in capsys.readouterr().out


def test_telemetry_rejects_truncated_blackbox(tmp_path, capsys):
    path = write_blackbox(tmp_path, good_blackbox_lines())
    Path(path).write_text(Path(path).read_text()[:-20])
    assert check_telemetry.main(["prog", "--blackbox", path]) == 1
    assert "cannot load" in capsys.readouterr().out


def test_telemetry_rejects_empty_blackbox(tmp_path, capsys):
    path = write_blackbox(tmp_path, [])
    assert check_telemetry.main(["prog", "--blackbox", path]) == 1
    assert "no captures frozen" in capsys.readouterr().out


def edit_ring(edit):
    def apply(lines):
        edit(lines[0]["records"])
        return lines

    return apply


@pytest.mark.parametrize(
    "edit, reason",
    [
        (lambda lines: [[1]] + lines, "blackbox[0]: expected an object"),
        (edit_ring(lambda ring: ring.append([1])),
         "blackbox[0].records[2]: expected an object, got list"),
        (lambda lines: [dict(lines[0], records=True)],
         "blackbox[0].records: expected a list, got bool"),
        (edit_ring(lambda ring: ring[0].update(t="soon", name=5)),
         "blackbox[0].records[0].t: expected a number, got str"),
    ],
    ids=["header", "record", "records-true", "entry-badly-typed"],
)
def test_telemetry_rejects_a_blackbox_line_that_is_not_an_object(
    tmp_path, capsys, edit, reason
):
    path = write_blackbox(tmp_path, edit(good_blackbox_lines()))
    assert check_telemetry.main(["prog", "--blackbox", path]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAILED 1 check(s):")
    assert reason in out


def test_telemetry_accepts_good_overhead(tmp_path, capsys):
    path = write(tmp_path, "overhead.json", good_overhead_artifact())
    assert check_telemetry.main(["prog", "--overhead", path]) == 0
    assert "budget 5.00%" in capsys.readouterr().out


def test_telemetry_rejects_blown_overhead_budget(tmp_path, capsys):
    artifact = good_overhead_artifact()
    artifact["overhead_pct"] = 9.3
    path = write(tmp_path, "overhead.json", artifact)
    assert check_telemetry.main(["prog", "--overhead", path]) == 1
    assert "exceeds the pinned" in capsys.readouterr().out


def test_telemetry_rejects_changed_outcome(tmp_path, capsys):
    artifact = good_overhead_artifact()
    artifact["identical_outcome"] = False
    path = write(tmp_path, "overhead.json", artifact)
    assert check_telemetry.main(["prog", "--overhead", path]) == 1
    assert "must be inert" in capsys.readouterr().out


# ----------------------------------------------------------------------
# The checked-in artifacts are their writers' records, byte for byte
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ["fleet.json", "fleet_sharded.json"])
def test_fleet_artifacts_round_trip_through_their_records(name):
    from repro.records import dump

    for run_name, run in json.loads((RESULTS / name).read_text())[
        "runs"
    ].items():
        result, bench = check_fleet.load_run(run, run_name)
        assert {**dump(result), **dump(bench)} == run


@pytest.mark.parametrize(
    "name, record",
    [("scale.json", check_scale.ScaleArtifact),
     ("fleet.json", check_fleet.FleetArtifact),
     ("fleet_sharded.json", check_fleet.ShardedArtifact)],
    ids=["scale", "fleet", "fleet_sharded"],
)
def test_bench_artifacts_re_dump_byte_identically(name, record):
    from repro.records import load

    text = (RESULTS / name).read_text()
    image = dump(load(record, json.loads(text), name))
    assert json.dumps(image, indent=2, sort_keys=True) + "\n" == text


def test_scenario_artifact_round_trips_through_its_record():
    from repro.records import dump, load
    from repro.scenarios.runner import ScenarioSuite

    artifact = scenarios_artifact()
    assert dump(load(ScenarioSuite, artifact, "scenarios")) == artifact


def test_mutations_do_not_leak_between_tests():
    # Paranoia: the fixtures above re-read from disk each time, so the
    # checked-in artifacts must still validate at the end of the module.
    assert all(
        v["ok"] for v in scenarios_artifact()["scenarios"].values()
    )
    assert fleet_artifact()["pass"] is True
