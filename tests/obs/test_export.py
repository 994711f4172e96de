"""Exporter validity: Perfetto-loadable traces, JSONL, metrics JSON.

Perfetto is strict about the trace-event schema — every record needs
``ph``/``ts``/``pid``, complete spans need ``dur``, instants need a
scope — so these tests validate the shape a viewer actually checks,
plus the routing rules (rank -> pid, switch generation -> tid) the
module promises.
"""

import json
from typing import List

import pytest

from repro.obs.bus import Bus
from repro.obs.export import (
    GLOBAL_PID,
    TraceEvent,
    chrome_trace_events,
    events_to_jsonl,
    write_chrome_trace,
    write_jsonl,
    write_metrics,
)
from repro.obs.metrics import Counter
from repro.records import dump, load
from repro.runtime import Simulator


@pytest.fixture
def bus():
    runtime = Simulator()
    bus = Bus(clock=runtime, enabled=True)
    span = bus.span("switch/prepare", rank=0, switch=[1, 0])
    runtime.run_until(0.004)
    span.end()
    bus.emit("token/hop", rank=1, kind="PREPARE", to=2, gen=[3, 1])
    bus.emit("net/drop", rank=None, reason="loss")
    return bus


class TestChromeTrace:
    def test_every_record_has_required_keys(self, bus):
        records = chrome_trace_events(bus.events)
        images = dump(records)
        for image in images:
            assert {"name", "ph", "pid", "tid", "ts"} <= set(image)
        assert load(List[TraceEvent], images, "trace") == records

    def test_span_and_instant_phases(self, bus):
        records = chrome_trace_events(bus.events)
        span = next(r for r in records if r.name == "switch/prepare")
        assert span.ph == "X"
        assert span.ts == pytest.approx(0.0)
        assert span.dur == pytest.approx(4000.0)  # seconds -> micros
        hop = next(r for r in records if r.name == "token/hop")
        assert hop.ph == "i"
        assert hop.s == "t"
        assert hop.dur is None

    def test_rank_routing_one_process_per_rank(self, bus):
        records = chrome_trace_events(bus.events, label="test")
        span = next(r for r in records if r.name == "switch/prepare")
        hop = next(r for r in records if r.name == "token/hop")
        drop = next(r for r in records if r.name == "net/drop")
        assert span.pid == 1  # rank 0
        assert hop.pid == 2  # rank 1
        assert drop.pid == GLOBAL_PID
        names = {
            (r.pid, r.args["name"])
            for r in records
            if r.ph == "M" and r.name == "process_name"
        }
        assert (GLOBAL_PID, "test global") in names
        assert (1, "test rank 0") in names
        assert (2, "test rank 1") in names

    def test_generation_events_get_their_own_track(self, bus):
        records = chrome_trace_events(bus.events)
        hop = next(r for r in records if r.name == "token/hop")
        assert hop.tid == 1  # first gen track on that pid
        track = next(
            r
            for r in records
            if r.ph == "M"
            and r.name == "thread_name"
            and r.pid == hop.pid
        )
        assert "switch gen" in track.args["name"]
        ungenned = next(r for r in records if r.name == "switch/prepare")
        assert ungenned.tid == 0

    def test_written_file_is_a_valid_json_array(self, bus, tmp_path):
        path = tmp_path / "out.trace.json"
        count = write_chrome_trace(str(path), bus.events)
        loaded = json.loads(path.read_text())
        assert isinstance(loaded, list)
        assert len(loaded) == count
        # Perfetto rejects non-finite/missing ts: every record's ts is a number.
        assert all(isinstance(r["ts"], (int, float)) for r in loaded)

    def test_non_jsonable_args_are_stringified(self):
        bus = Bus(enabled=True)
        bus.emit("weird", payload=object(), nested={"k": (1, 2)})
        (record,) = (
            r for r in chrome_trace_events(bus.events) if r.name == "weird"
        )
        json.dumps(dump(record))  # must not raise
        assert record.args["nested"]["k"] == [1, 2]


class TestJsonl:
    def test_one_valid_object_per_event(self, bus):
        lines = events_to_jsonl(bus.events)
        assert len(lines) == len(bus.events)
        parsed = [json.loads(line) for line in lines]
        assert [p["name"] for p in parsed] == [e.name for e in bus.events]
        span = parsed[0]
        assert span["kind"] == "X" and "dur" in span
        assert all("dur" not in p for p in parsed[1:])

    def test_write_jsonl_roundtrips(self, bus, tmp_path):
        path = tmp_path / "events.jsonl"
        count = write_jsonl(str(path), bus.events)
        lines = path.read_text().splitlines()
        assert len(lines) == count == len(bus.events)
        for line in lines:
            json.loads(line)


class TestMetricsJson:
    def test_snapshot_with_header_roundtrips(self, tmp_path):
        bus = Bus(enabled=True)
        stats = Counter()
        bus.scoped(None).attach("net", stats)
        stats.incr("sends", 7)
        bus.observe("switch.duration_s", 0.012)
        bus.observe("switch.duration_s", 0.014)
        path = tmp_path / "metrics.json"
        snapshot = write_metrics(
            str(path), bus.metrics, command="run", seed=42
        )
        loaded = json.loads(path.read_text())
        assert loaded == dump(snapshot)
        assert loaded["command"] == "run" and loaded["seed"] == 42
        assert loaded["counters"]["net.sends"] == 7
        hist = loaded["histograms"]["switch.duration_s"]
        assert hist["count"] == 2
        for key in ("mean", "p50", "p90", "p99", "min", "max"):
            assert key in hist


@pytest.mark.parametrize(
    "write",
    [
        lambda bus, path: write_metrics(str(path), bus.metrics),
        lambda bus, path: write_chrome_trace(str(path), bus.events),
        lambda bus, path: write_jsonl(str(path), bus.events),
    ],
    ids=["metrics", "chrome_trace", "jsonl"],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_writers_refuse_non_finite_floats(bus, tmp_path, write, value):
    # A non-finite float is not JSON; a reader would reject the file.
    bus.gauge("core.buffer_depth", value)
    bus.emit("switch/complete", rank=0, duration=value)
    with pytest.raises(ValueError):
        write(bus, tmp_path / "out.json")
