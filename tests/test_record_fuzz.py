"""Single-point mutants of every root record's JSON image.

The seeds are the images of the checked-in artifacts and catalog specs
(trimmed to a few groups and points) and the artifacts of two small
live runs.  Each mutant replaces one value, deletes one key or adds an
unknown one.  Reading a mutant may succeed or raise ``RecordError``
(``ScenarioError`` for a catalog spec); any other exception is a reader
that trusts its input.  Every unmutated seed writes back exactly the
image it was read from.
"""

import dataclasses
import json
import random
import sys
from pathlib import Path
from typing import List

import pytest

from repro.errors import RecordError, ScenarioError
from repro.fleet.runner import FleetConfig, run_fleet
from repro.obs.bus import Bus
from repro.obs.export import TraceEvent, chrome_trace_events
from repro.obs.metrics import MetricsSnapshot
from repro.obs.telemetry import Capture, FlightRecorder, TelemetryPayload
from repro.records import dump, load
from repro.scenarios.runner import ScenarioSuite
from repro.scenarios.spec import ScenarioSpec, catalog_dir
from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo

REPO = Path(__file__).resolve().parents[1]
RESULTS = REPO / "benchmarks" / "results"
if str(REPO / "benchmarks") not in sys.path:
    sys.path.insert(0, str(REPO / "benchmarks"))

from bench_fleet import FleetArtifact, load_run  # noqa: E402
from bench_fleet_sharded import ShardedArtifact  # noqa: E402
from bench_scale import ScaleArtifact  # noqa: E402

MUTANTS_PER_SEED = 300
VALUES = [None, True, 0, -1, 2.5, float("nan"), "x", "", [], [1], {}, {"k": 1}]


def record(cls):
    """The (read, write) pair of a root record."""
    return (lambda image: load(cls, image, "root")), dump


#: A fleet run record is a ``FleetResult`` plus its ``BenchRun`` fields.
FLEET_RUN = (
    lambda image: load_run(image, "run"),
    lambda pair: {**dump(pair[0]), **dump(pair[1])},
)


def artifact(name):
    return json.loads((RESULTS / name).read_text())


def trimmed_run(run):
    return dict(run, per_group=run["per_group"][:3])


@pytest.fixture(scope="module")
def seeds():
    seeds = {}
    for path in sorted(Path(catalog_dir()).glob("*.json")):
        # A catalog file may spell out defaults; its image leaves them out.
        spec = ScenarioSpec.load(json.loads(path.read_text()))
        seeds[f"spec {path.stem}"] = ((ScenarioSpec.load, dump), dump(spec))
    seeds["scenarios.json"] = (record(ScenarioSuite), artifact("scenarios.json"))
    for name, cls in (
        ("fleet.json", FleetArtifact), ("fleet_sharded.json", ShardedArtifact)
    ):
        image = artifact(name)
        image["runs"] = {k: trimmed_run(v) for k, v in image["runs"].items()}
        seeds[name] = (record(cls), image)
        for run_name, run in image["runs"].items():
            seeds[f"{name} {run_name}"] = (FLEET_RUN, run)
    scale = artifact("scale.json")
    scale.update(points=scale["points"][:3])
    seeds["scale.json"] = (record(ScaleArtifact), scale)

    bus = Bus(enabled=True)
    recorder = FlightRecorder(capacity=16)
    recorder.attach(bus)
    run_switch_demo(
        SwitchRunConfig(runtime="sim", duration=2.0, switch_at=1.0, seed=42),
        bus=bus,
    )
    recorder.freeze(0, "end")
    metrics = dataclasses.replace(
        bus.metrics.snapshot(), command="run", seed=42, runtime="sim"
    )
    seeds["metrics"] = (record(MetricsSnapshot), dump(metrics))
    seeds["trace"] = (
        record(List[TraceEvent]), dump(chrome_trace_events(bus.events))
    )
    seeds["blackbox"] = (record(Capture), dump(recorder.captures[0]))
    fleet = run_fleet(FleetConfig(
        groups=8, members=3, nodes=6, clients=80, client_rate=0.5,
        hot_fraction=0.25, hot_multiplier=50.0, duration=3.0, warmup=0.5,
        settle=1.0, high_threshold=100.0, seed=11, telemetry=True,
    ))
    seeds["telemetry"] = (record(TelemetryPayload), dump(fleet.telemetry))
    return seeds


def paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from paths(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from paths(value, path + (index,))


def mutate(node, path, op, value):
    """*node* with one edit at *path*; only the containers on the path
    are copied."""
    if not path:
        if op == "add" and isinstance(node, dict):
            return {**node, "unexpected": value}
        return value
    head, rest = path[0], path[1:]
    copy = dict(node) if isinstance(node, dict) else list(node)
    if not rest and op == "delete" and isinstance(node, dict):
        del copy[head]
    else:
        copy[head] = mutate(node[head], rest, op, value)
    return copy


def test_seed_images_round_trip(seeds):
    for name, ((read, write), image) in seeds.items():
        assert write(read(image)) == image, name


def test_mutants_fail_only_as_record_errors(seeds):
    rng = random.Random(49)
    for name, ((read, __), image) in seeds.items():
        spots = list(paths(image))
        for __ in range(MUTANTS_PER_SEED):
            path = rng.choice(spots)
            op = rng.choice(("replace", "delete", "add"))
            mutant = mutate(image, path, op, rng.choice(VALUES))
            try:
                read(mutant)
            except (RecordError, ScenarioError):
                pass
            except Exception as exc:  # pragma: no cover - the failure
                pytest.fail(f"{name} {op} at {list(path)}: {exc!r}")
