"""Merging telemetry views: shard rollups and multi-source ``repro top``."""

import json

import pytest

from repro.errors import TelemetryError
from repro.obs.telemetry import TelemetryPayload, merge_payloads, merge_snapshots
from repro.obs.telemetry.aggregate import TelemetrySnapshot
from repro.obs.telemetry.top import load_sources, render_top, run_top
from repro.records import dump, load


def shard_snapshot(gids, t, rate_per_group=10.0, burning=0):
    """The JSON image of a small shard-plane snapshot."""
    delivered = {gid: 100 * gid for gid in gids}
    loads = {}
    for gid in gids:
        rank = str(gid % 2)
        loads[rank] = loads.get(rank, 0) + 1
    return {
        "fleet": {
            "time": t,
            "uptime_s": t,
            "window_s": 1.0,
            "windows_rolled": int(t),
            "groups": len(gids),
            "casts": sum(delivered.values()) // 3,
            "delivered": sum(delivered.values()),
            "rate": rate_per_group * len(gids),
            "rate_cumulative": sum(delivered.values()) / t,
            "switches": len(gids) // 2,
            "aborts": 0,
            "strays": 1,
            "pool": {
                "nodes": len(loads),
                "loads": loads,
                "min": min(loads.values()),
                "max": max(loads.values()),
            },
            "escalations": 1,
            "captures": 0,
            "slo": {
                "targets": [
                    {
                        "name": "delivery-p99",
                        "signal": "delivery_p99_ms",
                        "budget": 50.0,
                    }
                ],
                "alerts": burning,
                "burn_minutes": 0.5 * burning,
                "groups_burning": burning,
            },
            "counters": {"net.sends": 10 * len(gids), "net.misrouted": 1},
        },
        "groups": {
            str(gid): {
                "group": gid,
                "hot": None,
                "protocol": "sequencer",
                "sequencer": None,
                "members": 3,
                "torn_down": False,
                "casts": delivered[gid] // 3,
                "delivered": delivered[gid],
                "rate": rate_per_group,
                "p50_ms": None,
                "p99_ms": None,
                "switches": 0,
                "aborts": 0,
                "last_switch_s": None,
                "slo": {"ok": True, "burning": [], "burn_minutes": 0.0},
            }
            for gid in gids
        },
        "fleet_windows": [
            {
                "t": float(w),
                "window_s": 1.0,
                "groups": len(gids),
                "casts": 0,
                "delivered": 10 * len(gids),
                "rate": 10.0,
                "switches": 0,
                "aborts": 0,
                "strays": 0,
            }
            for w in range(1, int(t) + 1)
        ],
    }


def snapshot(gids, t, **kwargs):
    return load(TelemetrySnapshot, shard_snapshot(gids, t, **kwargs), "shard")


class TestMergeSnapshots:
    def test_empty_raises(self):
        with pytest.raises(TelemetryError, match="no snapshots"):
            merge_snapshots([])
        with pytest.raises(TelemetryError, match="no payloads"):
            merge_payloads([])

    def test_single_source_passes_through(self):
        snap = snapshot([1, 2], t=4.0)
        assert merge_snapshots([snap]) == snap

    def test_two_divergent_snapshots(self):
        """Two shards, different group sets, taken at different times."""
        a = snapshot([1, 3], t=4.0, burning=1)
        b = snapshot([2, 5, 8], t=6.0)
        merged = merge_snapshots([a, b])
        fleet = merged.fleet
        # Counts sum; clocks take the further-along source.
        assert fleet.delivered == (100 + 300) + (200 + 500 + 800)
        assert fleet.time == 6.0
        assert fleet.windows_rolled == 6
        assert fleet.strays == 2
        assert fleet.counters == {"net.misrouted": 2, "net.sends": 50}
        assert fleet.groups == 5
        assert list(merged.groups) == [1, 2, 3, 5, 8]
        # Pool loads sum per rank; SLO targets dedup, burn sums.
        assert fleet.pool.loads == {0: 2, 1: 3}
        assert (fleet.pool.nodes, fleet.pool.min, fleet.pool.max) == (2, 2, 3)
        assert len(fleet.slo.targets) == 1
        assert fleet.slo.groups_burning == 1
        assert fleet.slo.burn_minutes == 0.5
        # Windows align on t and sum: shard a contributes 4, b all 6.
        windows = merged.fleet_windows
        assert [w.t for w in windows] == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert windows[0].delivered == 20 + 30
        assert windows[0].groups == 5
        assert windows[5].delivered == 30  # only shard b got this far
        assert fleet.rate_cumulative == fleet.delivered / 6.0
        # The merge is itself a well-formed snapshot.
        wire = json.loads(json.dumps(dump(merged)))
        assert load(TelemetrySnapshot, wire, "merged") == merged

    def test_group_collision_keeps_fresher_view(self):
        stale = shard_snapshot([4], t=2.0)
        stale["groups"]["4"]["delivered"] = 5
        stale = load(TelemetrySnapshot, stale, "stale")
        fresh = snapshot([4], t=3.0)
        merged = merge_snapshots([stale, fresh])
        assert merged.groups[4].delivered == 400
        assert merged.fleet.groups == 1


def escalation(time, group_id):
    return {"time": time, "group_id": group_id, "from": "sequencer",
            "to": "tokenring", "signal": None, "snapshot": None}


class TestMergePayloads:
    def payloads(self):
        return [
            {
                "schema_version": 1,
                "kind": "telemetry",
                "source": "file",
                "snapshot": shard_snapshot([1, 3], t=4.0),
                "escalations": [escalation(2.5, 3)],
            },
            {
                "schema_version": 1,
                "kind": "telemetry",
                "source": "file",
                "snapshot": shard_snapshot([2], t=6.0),
                "escalations": [escalation(1.5, 2)],
            },
        ]

    def test_merges_and_rerenders(self):
        payloads = [load(TelemetryPayload, p, "p") for p in self.payloads()]
        merged = merge_payloads(payloads, sources=["a.json", "b.json"])
        assert merged.source == "merge"
        assert merged.merged_from == 2
        assert merged.sources == ["a.json", "b.json"]
        # Escalations interleave in time order across sources.
        assert [e.group_id for e in merged.escalations] == [2, 3]
        assert "repro_fleet_delivered_total 600" in merged.prometheus
        assert 'repro_counter_total{name="net.sends"} 30' in merged.prometheus

    def test_top_over_two_files(self, tmp_path, capsys):
        paths = []
        for name, payload in zip(("a", "b"), self.payloads()):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(payload))
            paths.append(str(path))
        merged = load_sources(paths)
        frame = render_top(merged)
        assert "groups=3" in frame
        assert "delivered=600" in frame
        # The CLI path: one merged frame, machine-readable.
        lines = []
        code = run_top(paths, once=True, as_json=True, write=lines.append)
        assert code == 0
        payload = json.loads(lines[0])
        assert payload["merged_from"] == 2
        assert payload["snapshot"]["fleet"]["delivered"] == 600
        assert payload["snapshot"]["fleet"]["counters"]["net.misrouted"] == 2

    def test_top_single_source_unchanged(self, tmp_path):
        path = tmp_path / "one.json"
        path.write_text(json.dumps(self.payloads()[0]))
        lines = []
        code = run_top(str(path), once=True, as_json=True, write=lines.append)
        assert code == 0
        assert json.loads(lines[0])["source"] == "file"
