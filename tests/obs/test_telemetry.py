"""The telemetry plane: SLO engine, flight recorder, aggregation, expo."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs.bus import Bus
from repro.obs.telemetry import (
    FlightRecorder,
    SLOEngine,
    SLOTarget,
    TelemetryConfig,
    TelemetryPayload,
    TelemetryPlane,
)
from repro.obs.telemetry.aggregate import TelemetrySnapshot
from repro.obs.telemetry.expo import render_prometheus
from repro.obs.telemetry.top import load_payload, render_top, run_top
from repro.records import dump, load
from repro.runtime import Simulator


def window(**overrides):
    base = {
        "t": 1.0,
        "window_s": 1.0,
        "casts": 10,
        "delivered": 30,
        "rate": 30.0,
        "p50_ms": 1.0,
        "p99_ms": 2.0,
        "switches": 0,
        "aborts": 0,
        "max_switch_s": None,
        "delivery_ratio": 1.0,
    }
    base.update(overrides)
    return base


class TestSLOTarget:
    def test_validation(self):
        with pytest.raises(TelemetryError, match="non-empty name"):
            SLOTarget("", "delivery_p99_ms", 1.0)
        with pytest.raises(TelemetryError, match="unknown SLO signal"):
            SLOTarget("x", "nope", 1.0)
        with pytest.raises(TelemetryError, match="positive"):
            SLOTarget("x", "delivery_p99_ms", 0.0)

    def test_ceiling_vs_floor_direction(self):
        ceiling = SLOTarget("lat", "delivery_p99_ms", 5.0)
        assert ceiling.violated_by(5.1) and not ceiling.violated_by(5.0)
        floor = SLOTarget("ratio", "delivery_ratio", 0.9)
        assert floor.is_floor
        assert floor.violated_by(0.89) and not floor.violated_by(0.9)


class TestSLOEngine:
    def test_duplicate_names_rejected(self):
        t = SLOTarget("same", "delivery_p99_ms", 1.0)
        with pytest.raises(TelemetryError, match="duplicate"):
            SLOEngine([t, t])

    def test_burn_accumulates_and_edges_fire_once(self):
        engine = SLOEngine([SLOTarget("lat", "delivery_p99_ms", 5.0)])
        # First bad window: a fresh burn edge.
        assert engine.evaluate(1, window(p99_ms=9.0)) == ["lat"]
        # Still burning: no new edge, but more burn time.
        assert engine.evaluate(1, window(p99_ms=8.0)) == []
        assert engine.burn_minutes(1) == pytest.approx(2.0 / 60.0)
        assert engine.alerts == 2
        # Recovery clears the latch; the next burn is a fresh edge again.
        assert engine.evaluate(1, window(p99_ms=1.0)) == []
        assert engine.evaluate(1, window(p99_ms=9.0)) == ["lat"]

    def test_missing_signal_neither_burns_nor_clears(self):
        engine = SLOEngine([SLOTarget("lat", "delivery_p99_ms", 5.0)])
        engine.evaluate(1, window(p99_ms=9.0))
        # A quiet window (no latency samples) leaves the latch burning.
        assert engine.evaluate(1, window(p99_ms=None)) == []
        assert engine.status(1).ok is False

    def test_switch_duration_reads_window_max(self):
        engine = SLOEngine([SLOTarget("tts", "switch_duration_s", 0.5)])
        assert engine.evaluate(3, window(max_switch_s=0.9)) == ["tts"]
        assert dump(engine.status(3)) == {
            "ok": False,
            "burning": ["tts"],
            "burn_minutes": pytest.approx(1.0 / 60.0),
        }

    def test_burn_events_reach_the_bus(self):
        bus = Bus(enabled=True)
        engine = SLOEngine([SLOTarget("lat", "delivery_p99_ms", 5.0)], bus=bus)
        engine.evaluate(7, window(p99_ms=9.0))
        burns = [e for e in bus.events if e.name == "slo/burn"]
        assert len(burns) == 1
        assert burns[0].args == {
            "group": 7,
            "slo": "lat",
            "signal": "delivery_p99_ms",
            "value": 9.0,
            "budget": 5.0,
        }

    def test_snapshot_rolls_up_fleet_wide(self):
        engine = SLOEngine([SLOTarget("lat", "delivery_p99_ms", 5.0)])
        engine.evaluate(1, window(p99_ms=9.0))
        engine.evaluate(2, window(p99_ms=9.0))
        snap = engine.snapshot()
        assert snap.alerts == 2
        assert snap.groups_burning == 2
        assert dump(snap.targets) == [
            {"name": "lat", "signal": "delivery_p99_ms", "budget": 5.0}
        ]


class TestFlightRecorder:
    def test_ring_is_bounded_and_freeze_keeps_last_n(self):
        recorder = FlightRecorder(capacity=4)
        for i in range(10):
            recorder.record(1, {"t": float(i), "name": f"e{i}", "kind": "i"})
        capture = recorder.freeze(1, "switch_abort")
        assert [r["name"] for r in capture.records] == ["e6", "e7", "e8", "e9"]
        assert capture.time == 9.0  # inferred from the last record

    def test_empty_ring_and_repeat_trigger_do_not_capture(self):
        recorder = FlightRecorder()
        assert recorder.freeze(1, "switch_abort") is None
        recorder.record(1, {"t": 0.0, "name": "e", "kind": "i"})
        assert recorder.freeze(1, "switch_abort") is not None
        # Same (group, trigger) pair: the first incident already froze.
        assert recorder.freeze(1, "switch_abort") is None
        # A different trigger for the same group still captures.
        assert recorder.freeze(1, "dirty_teardown") is not None

    def test_capture_cap_counts_overflow(self):
        recorder = FlightRecorder(max_captures=1)
        recorder.record(1, {"t": 0.0, "name": "a", "kind": "i"})
        recorder.record(2, {"t": 0.0, "name": "b", "kind": "i"})
        assert recorder.freeze(1, "x") is not None
        assert recorder.freeze(2, "x") is None
        assert recorder.captures_dropped == 1

    def test_bus_attach_rings_events_and_freezes_on_abort(self):
        bus = Bus(enabled=True, max_events=0)  # pure stream, no retention
        recorder = FlightRecorder()
        recorder.attach(bus)
        bus.emit("token/hop", rank=2, group=5, to=1)
        bus.emit("switch/abort", rank=0, group=5, reason="stalled", phase="flush")
        assert len(recorder.captures) == 1
        capture = recorder.captures[0]
        assert capture.group == 5
        assert capture.detail == "stalled"
        assert [r["name"] for r in capture.records] == [
            "token/hop",
            "switch/abort",
        ]

    def test_groupless_events_land_in_ring_zero(self):
        bus = Bus(enabled=True)
        recorder = FlightRecorder()
        recorder.attach(bus)
        bus.emit("switch/abort", reason="lost")
        assert recorder.captures[0].group == 0

    def test_jsonl_export_round_trips(self, tmp_path):
        recorder = FlightRecorder()
        recorder.record(3, {"t": 1.0, "name": "e", "kind": "i"})
        recorder.freeze(3, "slo:lat", detail="p99 over budget")
        path = tmp_path / "blackbox.jsonl"
        assert recorder.write_jsonl(str(path)) == 2
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0] == {
            "type": "capture",
            "group": 3,
            "trigger": "slo:lat",
            "time": 1.0,
            "detail": "p99 over budget",
            "records": 1,
        }
        assert lines[1] == {
            "type": "record",
            "group": 3,
            "t": 1.0,
            "name": "e",
            "kind": "i",
        }


class FakeOracleRecord:
    def __init__(self, gid):
        self.time = 0.0
        self.group_id = gid
        self.current = "sequencer"
        self.target = "tokenring"
        self.signal = 99.0

    def as_dict(self):
        return {"group_id": self.group_id, "signal": self.signal}


def make_plane(runtime=None, **config):
    runtime = runtime or Simulator()
    bus = Bus(clock=runtime, enabled=True, max_events=0)
    plane = TelemetryPlane(runtime, bus, TelemetryConfig(**config))
    return runtime, plane


class TestTelemetryPlane:
    def test_windows_roll_counts_and_reset(self):
        runtime, plane = make_plane(window=1.0, history=3)
        plane.watch_group(1, members=3)
        deliver, cast = plane.delivery_hook(1), plane.cast_hook(1)
        for _ in range(6):
            deliver(0.002)
        cast()
        cast()
        runtime.run_for(1.0)
        plane.roll()
        windows = plane.group_windows(1)
        assert len(windows) == 1
        assert windows[0]["delivered"] == 6
        assert windows[0]["casts"] == 2
        assert windows[0]["rate"] == 6.0
        assert windows[0]["delivery_ratio"] == pytest.approx(1.0)
        assert windows[0]["p99_ms"] == pytest.approx(2.0, rel=0.5)
        # The next window starts from zero.
        plane.roll()
        assert plane.group_windows(1)[-1]["delivered"] == 0
        # Totals survive the resets.
        assert plane.group_snapshot(1).delivered == 6

    def test_history_is_bounded(self):
        runtime, plane = make_plane(window=1.0, history=2)
        plane.watch_group(1)
        for _ in range(5):
            plane.roll()
        assert len(plane.group_windows(1)) == 2
        assert len(plane.snapshot().fleet_windows) == 2

    def test_started_timer_rolls_on_the_runtime_clock(self):
        runtime, plane = make_plane(window=0.5, history=10)
        plane.watch_group(1)
        plane.start()
        runtime.run_for(2.1)
        plane.stop()
        rolled = len(plane.group_windows(1))
        assert rolled == 4
        runtime.run_for(2.0)  # stopped: no further rolls
        assert len(plane.group_windows(1)) == rolled

    def test_single_latency_sample_yields_no_quantiles(self):
        runtime, plane = make_plane()
        plane.watch_group(1)
        plane.delivery_hook(1)(0.001)
        plane.roll()
        w = plane.group_windows(1)[0]
        assert w["p50_ms"] is None and w["p99_ms"] is None

    def test_time_to_switch_stopwatch(self):
        runtime, plane = make_plane()
        plane.watch_group(4)
        plane.note_escalation(4)
        runtime.run_for(0.25)
        plane.note_switch(4, "sequencer", "tokenring")
        snap = plane.group_snapshot(4)
        assert snap.last_switch_s == pytest.approx(0.25)
        assert snap.switches == 1
        plane.roll()
        assert plane.group_windows(4)[0]["max_switch_s"] == pytest.approx(0.25)

    def test_abort_freezes_the_recorder(self):
        runtime, plane = make_plane()
        plane.watch_group(2)
        plane.delivery_hook(2)()
        plane.note_abort(2, reason="flush stalled", phase="flush")
        assert plane.group_snapshot(2).aborts == 1
        captures = plane.recorder.captures
        assert len(captures) == 1
        assert captures[0].trigger == "switch_abort"
        assert captures[0].detail == "flush stalled"

    def test_oracle_attach_annotates_decisions(self):
        runtime, plane = make_plane()
        plane.watch_group(9, members=3)
        plane.cast_hook(9)()

        class FakeOracle:
            snapshot_provider = None
            on_decision = None

        oracle = FakeOracle()
        plane.attach_oracle(oracle)
        justification = oracle.snapshot_provider(9)
        assert justification["group"] == 9
        assert justification["window_partial"] == {"casts": 1, "delivered": 0}
        oracle.on_decision(FakeOracleRecord(9))
        assert plane.escalations == [{"group_id": 9, "signal": 99.0}]
        # The stopwatch started: a completing switch now has a duration.
        runtime.run_for(0.1)
        plane.note_switch(9)
        assert plane.group_snapshot(9).last_switch_s == pytest.approx(0.1)

    def test_slo_burn_freezes_the_recorder_per_target(self):
        runtime, plane = make_plane(
            window=1.0, slos=(SLOTarget("ratio", "delivery_ratio", 0.9),)
        )
        plane.watch_group(1, members=2)
        plane.cast_hook(1)()
        plane.delivery_hook(1)()  # 1 of an expected 2: ratio 0.5 < 0.9
        plane.roll()
        assert [c.trigger for c in plane.recorder.captures] == ["slo:ratio"]
        assert plane.slo.status(1).ok is False

    def test_unwatched_group_snapshot_raises(self):
        __, plane = make_plane()
        with pytest.raises(TelemetryError, match="not watched"):
            plane.group_snapshot(123)

    def test_snapshot_is_json_serializable(self):
        runtime, plane = make_plane()
        plane.watch_group(1, members=3, hot=True, sequencer=0)
        plane.delivery_hook(1)(0.001)
        plane.roll()
        payload = json.dumps(dump(plane.snapshot()))
        assert "fleet" in json.loads(payload)

    def test_live_snapshot_round_trips_through_its_records(self):
        runtime, plane = make_plane(
            slos=(SLOTarget("lat", "delivery_p99_ms", 1.0),)
        )
        plane.watch_group(1, members=3, hot=True, sequencer=0,
                          protocol=lambda: "sequencer")
        plane.watch_group(2, members=3)
        deliver = plane.delivery_hook(1)
        for latency_s in (0.001, 0.004, 0.002):
            deliver(latency_s)
        plane.cast_hook(2)()
        runtime.run_for(1.0)
        plane.roll()
        snapshot = plane.snapshot()
        wire = json.loads(json.dumps(dump(snapshot)))
        assert sorted(wire["groups"]) == ["1", "2"]
        loaded = load(TelemetrySnapshot, wire, "snapshot")
        assert loaded == snapshot
        assert dump(loaded) == wire
        assert loaded.groups[1].slo.burning == ["lat"]

    def test_config_validation(self):
        with pytest.raises(TelemetryError, match="window"):
            TelemetryConfig(window=0.0)
        with pytest.raises(TelemetryError, match="history"):
            TelemetryConfig(history=0)


class TestPrometheusRendering:
    def snapshot(self):
        runtime, plane = make_plane()
        plane.watch_group(1, members=3, hot=True, sequencer=0)
        plane.watch_group(2, members=3)
        deliver = plane.delivery_hook(1)
        for _ in range(4):
            deliver(0.002)
        plane.roll()
        return plane.snapshot()

    def test_core_series_present(self):
        text = render_prometheus(self.snapshot())
        assert "# TYPE repro_fleet_delivered_total counter" in text
        assert "repro_fleet_delivered_total 4" in text
        assert 'repro_group_delivered_total{group="1"} 4' in text
        assert 'repro_group_delivered_total{group="2"} 0' in text
        assert 'repro_group_slo_ok{group="1"} 1' in text
        assert text.endswith("\n")

    def test_none_samples_are_skipped(self):
        # Group 2 rolled an empty window: no quantiles, hence no series.
        text = render_prometheus(self.snapshot())
        assert 'repro_group_delivery_p99_ms{group="2"}' not in text
        assert 'repro_group_delivery_p99_ms{group="1"}' in text


class TestTop:
    def payload(self):
        runtime, plane = make_plane()
        plane.watch_group(1, members=3, hot=True)
        plane.watch_group(2, members=3)
        deliver = plane.delivery_hook(1)
        for _ in range(9):
            deliver(0.001)
        plane.roll()
        return TelemetryPayload("poll", plane.snapshot())

    def test_render_sorts_hottest_first_and_truncates(self):
        frame = render_top(self.payload(), limit=1)
        lines = frame.splitlines()
        assert lines[0].startswith("fleet ")
        table = [l for l in lines if l.lstrip().startswith(("1", "2"))]
        assert table[0].lstrip().startswith("1")  # the hot group leads
        assert "... 1 more groups" in frame

    def test_load_payload_accepts_payload_and_bare_snapshot(self, tmp_path):
        payload = self.payload()
        wrapped = tmp_path / "payload.json"
        wrapped.write_text(json.dumps(dump(payload)))
        assert load_payload(str(wrapped)).snapshot == payload.snapshot
        bare = tmp_path / "bare.json"
        bare.write_text(json.dumps(dump(payload.snapshot)))
        loaded = load_payload(str(bare))
        assert loaded.source == "file"
        assert loaded.snapshot == payload.snapshot
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        with pytest.raises(ValueError, match="neither"):
            load_payload(str(junk))

    def test_run_top_once_json_prints_payload(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(dump(self.payload())))
        out = []
        assert run_top(str(path), once=True, as_json=True, write=out.append) == 0
        assert json.loads(out[0])["kind"] == "telemetry"

    def test_run_top_missing_source_fails_cleanly(self):
        out = []
        code = run_top("/nonexistent/tele.json", once=True, write=out.append)
        assert code == 1
        assert "cannot read telemetry" in out[0]

    @pytest.mark.parametrize(
        "content",
        [
            '"snapshot"',
            '{"snapshot": 3}',
            '{"fleet": 3}',
            '{"fleet": {}, "groups": {"1": 7}}',
        ],
        ids=[
            "string",
            "snapshot-not-an-object",
            "fleet-not-an-object",
            "group-not-an-object",
        ],
    )
    def test_run_top_malformed_payload_fails_cleanly(self, tmp_path, content):
        path = tmp_path / "tele.json"
        path.write_text(content)
        out = []
        assert run_top(str(path), once=True, write=out.append) == 1
        assert out[0].startswith("cannot read telemetry from")

    def test_run_top_frames_are_bounded(self, tmp_path):
        path = tmp_path / "payload.json"
        path.write_text(json.dumps(dump(self.payload())))
        out, naps = [], []
        code = run_top(
            str(path), frames=3, interval=0.5,
            write=out.append, sleep=naps.append,
        )
        assert code == 0
        assert len(out) == 3
        assert naps == [0.5, 0.5]  # no sleep after the last frame
        assert out[1].startswith("\x1b[2J\x1b[H")  # redraws clear the screen


class TestTelemetryServerLargeBodies:
    """The scrape client must loop until Content-Length bytes arrive."""

    @staticmethod
    def big_plane(entries=3000):
        """A plane whose snapshot JSON far exceeds one read buffer."""
        runtime, plane = make_plane()
        for gid in range(1, entries + 1):
            name = "sequencer-%04d" % gid
            plane.watch_group(gid, members=3, protocol=lambda n=name: n)
            plane.delivery_hook(gid)()
        plane.roll()
        return plane

    def test_scrape_receives_every_byte_of_a_big_snapshot(self):
        import asyncio
        import json

        from repro.obs.telemetry.expo import TelemetryServer, scrape

        plane = self.big_plane()
        assert len(json.dumps(dump(plane.snapshot()))) > 64 * 1024

        async def drive():
            server = await TelemetryServer(plane).open()
            try:
                return await scrape(server.host, server.port)
            finally:
                await server.aclose()

        payload = asyncio.run(drive())
        # The whole document arrived and parses; a short read would
        # have truncated the JSON mid-object.
        assert payload.snapshot == plane.snapshot()
        assert payload.prometheus.endswith("\n")
        assert 'group="2999"' in payload.prometheus
