"""BENCHMARK.json obeys the driver's limits and names exactly what run.py prints."""

import json
import re

import pytest

from conftest import REPO
from ledger import harness
from ledger.workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


@pytest.fixture(scope="module")
def spec():
    return json.loads((REPO / "BENCHMARK.json").read_text())


def test_keys_and_caps(spec):
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert (REPO / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert len(spec["command"]) <= 32 and all(len(c) <= 200 for c in spec["command"])


def test_paths_hold_the_benchmark_and_the_command_stays_inside(spec):
    assert spec["paths"] == ["benchmarks/ledger"]
    assert all(PATH.match(p) and not p.startswith("/") and ".." not in p
               for p in spec["paths"])
    script = spec["command"][1]
    assert script.startswith(spec["paths"][0] + "/") and (REPO / script).is_file()


def test_names_units_and_bounds(spec):
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in spec[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in spec["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_workloads_match_the_code(spec):
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]


def test_every_printed_name_is_declared_and_vice_versa(spec, tmp_path):
    """One short traced set over all six workloads prints every metric the
    ledger can produce; that set of names is exactly what is declared."""
    result, problems = harness.run_set(
        [w.name for w in WORKLOADS], seed=3, seconds=1.0, repeats=1, traced=True,
        out=tmp_path,
    )
    assert problems == []
    for kind in ("end_to_end", "per_layer"):
        printed = {}
        for w in result["workloads"].values():
            for name, metric in w[kind].items():
                printed[name] = metric["unit"]
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        assert printed == declared
    summary = harness.render_summary(result, problems)
    for kind in ("end_to_end", "per_layer"):
        for m in spec[kind]:
            assert f" {m['name']} " in summary
    # End-to-end metrics are defined on every workload (the driver reads
    # each of them from every run).
    for w in result["workloads"].values():
        assert set(w["end_to_end"]) == {m["name"] for m in spec["end_to_end"]}
    assert (tmp_path / "trace_udp_steady.json").is_file()
