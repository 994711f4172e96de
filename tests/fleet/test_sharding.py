"""Process sharding: hash placement, the supervisor, and slice parity."""

import json

import pytest

from repro.errors import ReproError, ShardCrashed, ShardError
from repro.fleet import (
    FleetConfig,
    plan_sequencers,
    plan_shards,
    run_fleet,
    run_fleet_sharded,
    shard_of,
)
from repro.fleet.sharding import _shard_worker, fnv1a32
from repro.records import dump

from helpers import load_validator


def small_config(**overrides):
    base = dict(
        groups=24,
        members=3,
        nodes=8,
        clients=240,
        client_rate=0.5,
        hot_fraction=0.1,
        hot_multiplier=50.0,
        duration=2.0,
        warmup=0.2,
        settle=1.0,
        seed=7,
    )
    base.update(overrides)
    return FleetConfig(**base)


def outcomes(result):
    """The execution-independent projection of a fleet result."""
    return json.dumps(
        [report.as_dict() for report in result.per_group], sort_keys=True
    )


def report_frame(group_id, **edits):
    """A group report frame body as a worker sends it."""
    body = {
        "group_id": group_id, "hot": False, "members": [0, 1, 2],
        "sequencer": 0, "casts": 10, "delivered": 30, "p99_ms": 2.5,
        "final_protocol": "sequencer", "switched": False,
    }
    body.update(edits)
    return body


def summary_frame(**edits):
    """Shard 1's summary frame body after reporting groups 5 and 6."""
    body = {
        "kind": "shard_summary", "runtime": "sim", "groups": 2,
        "clients": 20, "duration": 1.0, "casts": 20, "delivered": 60,
        "msgs_per_s": 60.0, "hot_groups": 0, "hot_switched": 0,
        "cold_switched": 0, "stray_packets": 0, "per_group": [],
        "violations": [], "stray_by_node": {"0": 0}, "pool_loads": {"0": 2},
        "shard": 1, "cpu_s": 0.5, "wall_s": 0.6,
    }
    body.update(edits)
    return body


def collect_frames(frames):
    """Feed ``(group, body)`` frames from shard 1 through the
    supervisor's collector, which expects groups 5 and 6."""
    import multiprocessing
    import time

    from repro.fleet.sharding import _collect_shard
    from repro.net.codec import WireCodec

    codec = WireCodec()
    recv, send = multiprocessing.get_context("fork").Pipe(duplex=False)
    try:
        for group, body in frames:
            send.send_bytes(codec.encode(1, 0, body, group=group))
        return _collect_shard(
            recv, None, 1, {5, 6}, codec, time.monotonic() + 5.0
        )
    finally:
        send.close()
        recv.close()

class TestPlacement:
    def test_fnv1a32_pinned_vectors(self):
        # Independently computed; placement is a wire-visible contract.
        assert fnv1a32(0) == 0x4B95F515
        assert fnv1a32(1) == 0xFB69B604
        assert shard_of(1, 1) == 0

    def test_shard_of_is_stable_across_fleet_sizes(self):
        # A group's home depends only on (id, shards) — never on how
        # many other groups exist.
        for gid in (1, 127, 128, 16384, 2097152, 2 ** 32 - 1):
            homes = {shard_of(gid, 4) for __ in range(3)}
            assert len(homes) == 1
            assert 0 <= homes.pop() < 4

    def test_shard_of_rejects_bad_count(self):
        with pytest.raises(ShardError, match=">= 1"):
            shard_of(1, 0)

    def test_plan_covers_each_group_once(self):
        config = small_config(shards=4)
        plan = plan_shards(config)
        assert len(plan) == 4
        flat = sorted(index for slice_ in plan for index in slice_)
        assert flat == list(range(config.groups))
        for slice_ in plan:
            assert slice_ == sorted(slice_)
            for index in slice_:
                assert shard_of(index + 1, 4) == plan.index(slice_)

    def test_plan_is_reasonably_balanced(self):
        config = FleetConfig(groups=1000, clients=1000, shards=4)
        sizes = [len(slice_) for slice_ in plan_shards(config)]
        assert sum(sizes) == 1000
        assert max(sizes) - min(sizes) < 200  # hash spread, not clumps

    def test_config_validates_shards(self):
        with pytest.raises(ReproError, match=">= 0"):
            small_config(shards=-1)
        with pytest.raises(ReproError, match="sim runtime"):
            small_config(shards=2, runtime="asyncio")
        with pytest.raises(ReproError, match="cannot split"):
            small_config(shards=25)


class TestSlices:
    def test_slice_runs_merge_to_full_fleet(self):
        """Any partition reproduces the unpartitioned per-group outcomes."""
        config = small_config()
        full = run_fleet(config)
        evens = run_fleet(config, indices=range(0, config.groups, 2))
        odds = run_fleet(config, indices=range(1, config.groups, 2))
        merged = sorted(
            evens.per_group + odds.per_group, key=lambda r: r.group_id
        )
        assert [r.as_dict() for r in merged] == [
            r.as_dict() for r in full.per_group
        ]

    def test_sequencer_plan_matches_live_assignment(self):
        config = small_config()
        plan = plan_sequencers(config)
        result = run_fleet(config)
        assert [r.sequencer for r in result.per_group] == plan


class TestSupervisor:
    def test_sharded_run_matches_in_process(self):
        config = small_config()
        sharded = run_fleet_sharded(small_config(shards=2))
        assert outcomes(sharded) == outcomes(run_fleet(config))
        assert sharded.shards == 2
        assert len(sharded.shard_stats) == 2
        assert sharded.groups == config.groups
        assert sharded.clients == config.clients
        assert sharded.delivered == sum(
            r.delivered for r in sharded.per_group
        )
        assert sharded.pool_loads  # merged back from per-shard slices
        assert all(s["cpu_s"] > 0 for s in sharded.shard_stats)
        assert sharded.ok, sharded.violations

    def test_single_shard_as_dict_round_trips(self):
        result = run_fleet_sharded(small_config(shards=1))
        payload = result.as_dict()
        assert payload["shards"] == 1
        assert len(payload["shard_stats"]) == 1
        assert "shards" in result.summary()

    def test_telemetry_rolls_up_across_shards(self):
        config = small_config(telemetry=True, shards=2)
        result = run_fleet_sharded(config)
        assert result.telemetry is not None
        merged = result.telemetry
        assert merged.source == "merge"
        assert merged.merged_from == 2
        assert merged.snapshot.fleet.groups == config.groups
        assert merged.snapshot.fleet.delivered == result.delivered
        assert len(merged.snapshot.groups) == config.groups
        assert "repro_fleet_delivered_total" in merged.prometheus
        # The merged payload passes the CI validator against the run's
        # own artifact, escalations in (time, group_id) order.
        problems = []
        load_validator("check_telemetry").check_payload(
            dump(merged), result.as_dict(), problems
        )
        assert problems == []
        order = [(e["time"], e["group_id"]) for e in merged.escalations]
        assert order and order == sorted(order)

    def test_crashed_shard_raises_structured_error(self):
        # An impossible slice makes the worker die after spawn; the
        # supervisor must surface the death, not hang.
        config = small_config(shards=2)
        bad = plan_shards(config)[0] + [config.groups + 50]  # bogus index

        import repro.fleet.sharding as sharding

        original = sharding.plan_shards
        sharding.plan_shards = lambda cfg: [bad, original(cfg)[1]]
        try:
            with pytest.raises(ShardCrashed) as excinfo:
                run_fleet_sharded(config, timeout=60.0)
        finally:
            sharding.plan_shards = original
        assert excinfo.value.shard == 0
        assert "IndexError" in str(excinfo.value) or "shard 0" in str(
            excinfo.value
        )

    def test_worker_streams_wire_frames(self):
        """The worker's own frames decode with the fleet wire codec."""
        import multiprocessing

        from repro.net.codec import WireCodec

        config = small_config(groups=4, clients=40, duration=1.0, settle=0.5)
        recv, send = multiprocessing.get_context("fork").Pipe(duplex=False)
        _shard_worker(send, 3, config, [0, 1, 2, 3])
        codec = WireCodec()
        frames = []
        while recv.poll(0):
            try:
                frames.append(codec.decode_datagram(recv.recv_bytes()))
            except EOFError:
                break  # worker closed its end after the summary
        assert len(frames) == 5  # 4 reports + 1 summary
        groups = [frame[0] for frame in frames]
        assert groups == [1, 2, 3, 4, 0]
        assert all(frame[1] == 3 for frame in frames)  # src = shard id
        summary = frames[-1][3]
        assert summary["kind"] == "shard_summary"
        assert summary["groups"] == 4
        assert summary["cpu_s"] > 0

    def test_undecodable_frame_on_a_pipe_is_a_shard_error(self):
        import multiprocessing
        import time

        from repro.fleet.sharding import _collect_shard
        from repro.net.codec import WireCodec

        recv, send = multiprocessing.get_context("fork").Pipe(duplex=False)
        frame = bytearray(WireCodec().encode(1, 0, {"kind": "shard_summary"}))
        frame[1] = 2  # a retired frame version
        send.send_bytes(bytes(frame))
        with pytest.raises(
            ShardError, match="shard 1 sent an undecodable frame: version"
        ):
            _collect_shard(
                recv, None, 1, set(), WireCodec(), time.monotonic() + 5.0
            )
        send.close()
        recv.close()

    def test_well_formed_frames_decode_to_records(self):
        reports, summary = collect_frames(
            [(5, report_frame(5)), (6, report_frame(6)), (0, summary_frame())]
        )
        assert [r.group_id for r in reports] == [5, 6]
        assert summary.pool_loads == {0: 2}
        assert summary.stats()["cpu_s"] == 0.5

    @pytest.mark.parametrize(
        "body, reason",
        [
            (
                {k: v for k, v in report_frame(5).items() if k != "group_id"},
                r"missing keys \['group_id'\]",
            ),
            (report_frame(5, extra=1), r"unknown keys \['extra'\]"),
            (report_frame(6), "group 6's report in a frame for group 5"),
            ([1, 2, 3], "expected an object"),
        ],
        ids=["no-group-id", "unknown-key", "wrong-group", "not-an-object"],
    )
    def test_malformed_report_frame_is_a_shard_error(self, body, reason):
        frames = [(5, body), (6, report_frame(6)), (0, summary_frame())]
        with pytest.raises(ShardError, match=reason):
            collect_frames(frames)

    @pytest.mark.parametrize(
        "edit, reason",
        [
            (lambda snap: snap.update(fleet=3),
             r"telemetry\.snapshot\.fleet: expected an object, got int"),
            (lambda snap: snap["groups"].update({"5": 7}),
             r"telemetry\.snapshot\.groups\[5\]: expected an object, got int"),
        ],
        ids=["fleet-not-an-object", "group-not-an-object"],
    )
    def test_malformed_telemetry_snapshot_is_a_shard_error(self, edit, reason):
        from repro.obs.bus import Bus
        from repro.obs.telemetry import TelemetryPayload, TelemetryPlane
        from repro.runtime import Simulator

        runtime = Simulator()
        plane = TelemetryPlane(runtime, Bus(clock=runtime, max_events=0))
        plane.watch_group(5, members=3)
        plane.roll()
        telemetry = dump(TelemetryPayload("poll", plane.snapshot()))
        edit(telemetry["snapshot"])
        frames = [(5, report_frame(5)), (6, report_frame(6)),
                  (0, summary_frame(telemetry=telemetry))]
        with pytest.raises(ShardError, match="shard 1 sent a malformed .*" + reason):
            collect_frames(frames)

    def test_summary_without_delivered_is_a_shard_error(self):
        summary = summary_frame()
        del summary["delivered"]
        frames = [(5, report_frame(5)), (6, report_frame(6)), (0, summary)]
        with pytest.raises(ShardError, match=r"missing keys \['delivered'\]"):
            collect_frames(frames)
