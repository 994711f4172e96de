"""Spec validation: every malformed catalog entry must fail loudly at
load time, with a message naming the offending field."""

import json

import pytest

from repro.errors import ScenarioError
from repro.scenarios import ScenarioSpec, load_catalog, load_scenario


def base_spec():
    return {
        "name": "unit_test",
        "summary": "unit-test scenario",
        "seed": 7,
        "group": {"members": 4, "initial": "sequencer",
                  "token_interval": 0.002},
        "oracle": {
            "signal": "active_senders",
            "high": 3.0,
            "low": 1.5,
            "low_protocol": "sequencer",
            "high_protocol": "tokenring",
            "dwell": 0.5,
            "poll": 0.1,
            "window": 0.5,
        },
        "phases": [
            {"name": "calm", "duration": 1.0,
             "workload": {"senders": 1, "rate": 20.0}},
            {"name": "busy", "duration": 1.0,
             "workload": {"senders": 4, "rate": 20.0},
             "net": {"loss": 0.05}},
        ],
        "expect": {
            "protocol": "tokenring",
            "max_switches": 1,
            "drift_phase": "busy",
            "max_time_to_switch": 3.0,
            "min_delivery_ratio": 0.8,
        },
        "settle": {"windows": 10, "window": 0.5},
    }


def test_accepts_valid_spec():
    spec = ScenarioSpec.load(base_spec())
    assert spec.name == "unit_test"
    assert spec.runtimes == ("sim",)  # the default
    assert spec.duration == pytest.approx(2.0)
    assert spec.phase_start("busy") == pytest.approx(1.0)
    assert spec.oracle.low == pytest.approx(1.5)
    assert spec.expect.drift_phase == "busy"


def test_defaults_fill_in():
    data = base_spec()
    del data["group"], data["settle"], data["seed"]
    data["expect"].pop("min_delivery_ratio")
    spec = ScenarioSpec.load(data)
    assert spec.group.members == 6
    assert spec.settle.windows == 20
    assert spec.seed == 42
    assert spec.expect.min_delivery_ratio == pytest.approx(0.9)


def test_an_int_in_a_float_field_reads_as_a_float():
    data = base_spec()
    data["phases"][0]["duration"] = 1
    data["phases"][0]["workload"]["rate"] = 20
    spec = ScenarioSpec.load(data)
    assert type(spec.phases[0].duration) is float
    assert type(spec.phases[0].workload.rate) is float
    assert spec.phases[0].workload.senders == 1


def mutated(**overrides):
    data = base_spec()
    data.update(overrides)
    return data


def reworded(mutate, message, old_message):
    """A row whose message changed wording keeps the id it had."""
    return pytest.param(mutate, message, id=f"<lambda>-{old_message}")


@pytest.mark.parametrize(
    "mutate, message",
    [
        *(
            reworded(
                lambda d, key=key: d.pop(key),
                rf"scenario: missing keys \['{key}'\]",
                f"missing required field '{key}'",
            )
            for key in ("name", "summary", "phases", "expect")
        ),
        # Without an oracle a spec needs a switch cadence instead.
        reworded(lambda d: d.pop("oracle"),
                 "set exactly one of oracle and switch_every",
                 "missing required field 'oracle'"),
        (lambda d: d.update(phases=[]), "non-empty array"),
        (lambda d: d.update(runtimes=["sim", "bare_metal"]),
         "non-empty subset"),
        reworded(lambda d: d.update(seed="forty-two"),
                 "scenario.seed: expected int, got str", "seed must be an int"),
        reworded(lambda d: d.update(extra_field=1),
                 r"scenario: unknown keys \['extra_field'\]", "unknown field"),
        (lambda d: d["group"].update(members=1), "members must be an int >= 2"),
        (lambda d: d["group"].update(initial="multicast"),
         "initial must be one of"),
        (lambda d: d["oracle"].update(signal="vibes"), "unknown signal"),
        (lambda d: d["oracle"].update(low=5.0), "band inverted"),
        (lambda d: d["oracle"].update(low_protocol="tokenring"),
         "low and high protocol are the same"),
        (lambda d: d["oracle"].update(high="lots"), "expected a number"),
        (lambda d: d["phases"][0].update(name=""), "non-empty string"),
        (lambda d: d["phases"][1].update(name="calm"),
         "duplicate phase names"),
        (lambda d: d["phases"][0]["workload"].update(senders=9),
         r"senders: must be an int in \[1, 4\]"),
        (lambda d: d["phases"][0].update(duration=0), "must be >="),
        # NaN passes every ``<`` bound check; JSON's NaN literal parses to it.
        (lambda d: d["phases"][0].update(duration=float("nan")),
         r"phases\[0\]\.duration: expected a number, got NaN"),
        # So does Infinity, which Python's json parses too.
        (lambda d: d["phases"][0].update(duration=float("inf")),
         r"duration: .*Infinity"),
        (lambda d: d["phases"][1]["net"].update(loss=1.0), "must be < 1.0"),
        reworded(lambda d: d["expect"].update(protocol="udp"),
                 "scenario.expect: protocol must be one of",
                 "protocol: must be one of"),
        (lambda d: d["expect"].update(max_switches=-1),
         "must be an int >= 0"),
        (lambda d: d["expect"].update(drift_phase="warmup"),
         "names no phase"),
        (lambda d: d["expect"].pop("drift_phase"),
         "needs a drift_phase anchor"),
        (lambda d: d["expect"].update(min_delivery_ratio=1.5),
         "must be <= 1.0"),
        # 0 windows is valid: convergence is judged once, at the horizon.
        reworded(lambda d: d["settle"].update(windows=-1),
                 "windows must be an int >= 0", "must be an int >= 1"),
        # Wrong shapes and types, each read closed as one ScenarioError.
        (lambda d: d.update(group=None),
         "scenario.group: expected an object, got null"),
        (lambda d: d["phases"][1].update(net=None),
         r"scenario.phases\[1\].net: expected an object, got null"),
        (lambda d: d["phases"][0].update(workload=3),
         r"scenario.phases\[0\].workload: expected an object, got int"),
        (lambda d: d["phases"].append("calm"),
         r"scenario.phases\[2\]: expected an object, got str"),
        (lambda d: d.update(seed=True), "scenario.seed: expected int, got bool"),
    ],
)
def test_rejects_malformed_spec(mutate, message):
    data = base_spec()
    mutate(data)
    with pytest.raises(ScenarioError, match=message):
        ScenarioSpec.load(data)


def test_rejects_expectation_outside_oracle_band():
    data = base_spec()
    # Oracle can only ever pick sequencer or tokenring; expecting a
    # protocol the band cannot reach is a contradiction.
    data["group"]["initial"] = "tokenring"
    data["oracle"]["low_protocol"] = "tokenring"
    data["oracle"]["high_protocol"] = "sequencer"
    data["expect"]["protocol"] = "sequencer"
    ScenarioSpec.load(data)  # still a valid band, both sides covered


def test_rejects_asyncio_with_dirty_net():
    data = mutated(runtimes=["sim", "asyncio"])
    with pytest.raises(ScenarioError, match="cannot inject simulated"):
        ScenarioSpec.load(data)


def test_rejects_asyncio_with_loss_ratio_signal():
    data = mutated(runtimes=["asyncio"])
    for phase in data["phases"]:
        phase.pop("net", None)
    data["oracle"]["signal"] = "loss_ratio"
    with pytest.raises(ScenarioError, match="loss_ratio reads the simulated"):
        ScenarioSpec.load(data)


def test_load_scenario_rejects_name_stem_mismatch(tmp_path):
    path = tmp_path / "wrong_stem.json"
    path.write_text(json.dumps(base_spec()))
    with pytest.raises(ScenarioError, match="keep them equal"):
        load_scenario(str(path))


def test_load_scenario_rejects_bad_json(tmp_path):
    path = tmp_path / "unit_test.json"
    path.write_text("{not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        load_scenario(str(path))


def test_load_catalog_rejects_empty_directory(tmp_path):
    with pytest.raises(ScenarioError, match="no scenario files"):
        load_catalog(str(tmp_path))


def test_load_catalog_custom_directory(tmp_path):
    path = tmp_path / "unit_test.json"
    path.write_text(json.dumps(base_spec()))
    catalog = load_catalog(str(tmp_path))
    assert list(catalog) == ["unit_test"]
