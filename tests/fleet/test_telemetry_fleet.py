"""Telemetry over a live fleet: the PR's acceptance surface.

A 200-group sim sweep must expose per-group snapshots whose aggregate
agrees with the FleetResult artifact to within 1%, every oracle
escalation must carry its justifying snapshot, and the asyncio runtime
must serve the same numbers over a real HTTP endpoint.
"""

import json

import pytest

from repro.fleet.runner import FleetConfig, run_fleet


def small_config(**overrides):
    # The headline sweep's per-group rates (cold 6 deliveries/s, hot
    # 300/s, threshold 50) scaled down to 200 groups.
    base = dict(
        groups=200,
        members=3,
        nodes=24,
        clients=20_000,
        client_rate=0.02,
        hot_fraction=0.05,
        hot_multiplier=50.0,
        duration=6.0,
        warmup=0.5,
        settle=2.0,
        high_threshold=50.0,
        seed=11,
        telemetry=True,
        telemetry_window=1.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


@pytest.fixture(scope="module")
def telemetry_result():
    return run_fleet(small_config())


class TestFleetTelemetryAcceptance:
    def test_run_is_clean(self, telemetry_result):
        assert telemetry_result.ok, telemetry_result.violations

    def test_snapshot_agrees_with_artifact_within_one_percent(
        self, telemetry_result
    ):
        fleet = telemetry_result.telemetry.snapshot.fleet
        assert fleet.groups == 200
        assert telemetry_result.delivered > 0
        drift = abs(fleet.delivered - telemetry_result.delivered)
        assert drift <= 0.01 * telemetry_result.delivered
        drift = abs(fleet.casts - telemetry_result.casts)
        assert drift <= 0.01 * max(1, telemetry_result.casts)

    def test_per_group_snapshots_agree_with_reports(self, telemetry_result):
        groups = telemetry_result.telemetry.snapshot.groups
        assert len(groups) == 200
        for report in telemetry_result.per_group:
            snap = groups[report.group_id]
            assert snap.delivered == report.delivered
            assert snap.hot == report.hot
            assert snap.protocol == report.final_protocol
            assert snap.sequencer == report.sequencer

    def test_every_escalation_carries_its_justification(self, telemetry_result):
        escalations = telemetry_result.telemetry.escalations
        assert escalations, "hot groups should have escalated"
        for record in escalations:
            snapshot = record.snapshot
            assert snapshot is not None
            assert snapshot["group"] == record.group_id
            assert "window_partial" in snapshot
            assert record.signal is not None
        # Hot switched groups show the switch in their telemetry too.
        groups = telemetry_result.telemetry.snapshot.groups
        switched = [g for g in groups.values() if g.protocol == "tokenring"]
        assert len(switched) == telemetry_result.hot_switched
        assert all(g.switches >= 1 for g in switched)
        assert all(
            g.last_switch_s is not None and g.last_switch_s >= 0.0
            for g in switched
        )

    def test_payload_shape_and_serializability(self, telemetry_result):
        payload = telemetry_result.telemetry
        assert payload.schema_version == 1
        assert payload.kind == "telemetry"
        assert payload.source == "poll"
        assert "repro_fleet_delivered_total" in payload.prometheus
        json.dumps(telemetry_result.as_dict())  # artifact-safe

    def test_windows_rolled_on_the_sim_clock(self, telemetry_result):
        fleet = telemetry_result.telemetry.snapshot.fleet
        # duration 6s + settle 2s at 1s windows, plus the final flush.
        assert fleet.windows_rolled >= 8

    def test_pool_and_stray_surfaces(self, telemetry_result):
        assert len(telemetry_result.pool_loads) > 0
        assert sum(telemetry_result.pool_loads.values()) == 200
        assert set(telemetry_result.stray_by_node) == set(range(24))
        pool = telemetry_result.telemetry.snapshot.fleet.pool
        assert pool.nodes == len(telemetry_result.pool_loads)
        assert pool.loads == telemetry_result.pool_loads

    def test_network_counters_ride_the_snapshot(self, telemetry_result):
        counters = telemetry_result.telemetry.snapshot.fleet.counters
        assert counters["net.deliveries"] == counters["net.sends"] > 0
        assert "repro_counter_total" in telemetry_result.telemetry.prometheus

    def test_summary_mentions_telemetry_surfaces(self, telemetry_result):
        text = telemetry_result.summary()
        assert "ports:" in text and "stray-group drops=" in text
        assert "pool:" in text and "sequencers on" in text
        assert "telem:" in text and "windows=" in text


class TestTelemetryStaysOptIn:
    def test_disabled_run_has_no_telemetry_payload(self):
        config = small_config(
            groups=10, nodes=6, clients=100, duration=3.0, telemetry=False
        )
        result = run_fleet(config)
        assert result.telemetry is None
        assert "telemetry" not in result.as_dict()

    def test_telemetry_does_not_change_the_outcome(self):
        base = dict(
            groups=20, members=3, nodes=12, clients=200, client_rate=0.5,
            duration=4.0, settle=1.0, high_threshold=40.0, seed=9,
        )
        off = run_fleet(FleetConfig(**base))
        on = run_fleet(FleetConfig(telemetry=True, **base))
        assert on.delivered == off.delivered
        assert on.casts == off.casts
        assert on.hot_switched == off.hot_switched
        assert [r.as_dict() for r in on.per_group] == [
            r.as_dict() for r in off.per_group
        ]

    def test_expo_port_requires_asyncio_and_telemetry(self):
        from repro.errors import ReproError

        with pytest.raises(ReproError, match="asyncio"):
            FleetConfig(telemetry=True, expo_port=0)
        with pytest.raises(ReproError, match="telemetry=True"):
            FleetConfig(runtime="asyncio", expo_port=0)


class TestLiveExposition:
    def test_asyncio_endpoint_serves_and_scrape_matches(self):
        config = FleetConfig(
            runtime="asyncio",
            groups=4,
            members=3,
            nodes=6,
            clients=40,
            client_rate=2.0,
            duration=2.0,
            warmup=0.2,
            settle=0.5,
            seed=3,
            base_port=48510,
            telemetry=True,
            telemetry_window=0.5,
            expo_port=0,
        )
        result = run_fleet(config)
        scrape = result.telemetry.scrape
        assert scrape.source == "scrape"
        assert scrape.url.startswith("http://127.0.0.1:")
        # The HTTP view and the poll view agree on totals.
        assert (
            scrape.snapshot.fleet.delivered
            == result.telemetry.snapshot.fleet.delivered
            == result.delivered
        )
        assert "repro_fleet_delivered_total" in scrape.prometheus
        # The network's own counters are served, and only the network's:
        # the fleet's stacks stay off the plane's bus.
        counters = scrape.snapshot.fleet.counters
        assert counters["net.sends"] > 0 and counters["net.deliveries"] > 0
        assert {name.split(".")[0] for name in counters} <= {"net", "codec"}
        assert 'repro_counter_total{name="net.sends"}' in scrape.prometheus
