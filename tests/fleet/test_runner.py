"""run_fleet: layout, verdicts, determinism, and both runtimes."""

import pytest

from repro.errors import ReproError
from repro.fleet import FleetConfig, run_fleet
from repro.fleet.runner import group_members


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(groups=0), "at least one group"),
            (dict(members=1), "at least two members"),
            (dict(members=8, nodes=4), "cannot place"),
            (dict(groups=100, clients=50), "one client per group"),
            (dict(hot_fraction=1.5), "hot_fraction"),
            (dict(hot_multiplier=0.5), "hot_multiplier"),
            (dict(warmup=10.0, duration=10.0), "warmup"),
        ],
    )
    def test_bad_configs_rejected(self, kwargs, match):
        with pytest.raises(ReproError, match=match):
            FleetConfig(**kwargs)

    def test_defaults_are_the_headline_sweep(self):
        config = FleetConfig()
        assert (config.groups, config.clients) == (1000, 100_000)
        assert config.clients_per_group == 100


class TestLayout:
    def test_group_members_distinct_and_sorted(self):
        for index in range(40):
            members = group_members(index, 3, 8)
            assert members == sorted(set(members))
            assert len(members) == 3
            assert all(0 <= m < 8 for m in members)

    def test_layout_rotates_over_nodes(self):
        assert group_members(0, 3, 8) == [0, 1, 2]
        assert group_members(1, 3, 8) == [3, 4, 5]
        assert group_members(2, 3, 8) == [0, 6, 7]  # wraps

    def test_hot_groups_evenly_spaced(self):
        config = FleetConfig(
            groups=100, clients=10_000, hot_fraction=0.05
        )
        hot = [i for i in range(config.groups) if config.is_hot(i)]
        assert len(hot) == config.hot_count == 5
        assert hot == [0, 20, 40, 60, 80]

    def test_group_rate_applies_hot_multiplier(self):
        config = FleetConfig(
            groups=10, clients=100, client_rate=1.0,
            hot_fraction=0.1, hot_multiplier=10.0,
        )
        assert config.group_rate(0) == 100.0  # hot
        assert config.group_rate(1) == 10.0   # cold


def small_sim_config(**overrides):
    """10 groups on 4 nodes: one hot, wide oracle margins."""
    base = dict(
        runtime="sim",
        groups=10,
        members=2,
        nodes=4,
        clients=100,
        client_rate=1.0,
        hot_fraction=0.1,
        hot_multiplier=10.0,
        duration=6.0,
        warmup=0.5,
        high_threshold=100.0,
        oracle_poll=0.5,
        settle=2.0,
    )
    base.update(overrides)
    return FleetConfig(**base)


class TestSimFleet:
    def test_hot_group_switches_and_cold_stay(self):
        result = run_fleet(small_sim_config())
        assert result.ok, result.violations
        assert (result.hot_groups, result.hot_switched) == (1, 1)
        assert result.cold_switched == 0
        assert result.stray_packets == 0
        hot_reports = [r for r in result.per_group if r.hot]
        assert [r.final_protocol for r in hot_reports] == ["tokenring"]
        cold_finals = {
            r.final_protocol for r in result.per_group if not r.hot
        }
        assert cold_finals == {"sequencer"}

    def test_reports_cover_every_group(self):
        result = run_fleet(small_sim_config())
        assert len(result.per_group) == 10
        for report in result.per_group:
            assert report.delivered == report.casts * 2  # both members
            assert report.sequencer in report.members
            assert report.p99_ms is None or report.p99_ms > 0
        assert result.delivered == sum(r.delivered for r in result.per_group)
        assert result.msgs_per_s == pytest.approx(result.delivered / 6.0)

    def test_virtual_time_runs_are_deterministic(self):
        a = run_fleet(small_sim_config())
        b = run_fleet(small_sim_config())
        assert a.casts == b.casts
        assert a.delivered == b.delivered
        assert [r.p99_ms for r in a.per_group] == [
            r.p99_ms for r in b.per_group
        ]

    def test_seed_changes_the_traffic(self):
        a = run_fleet(small_sim_config())
        b = run_fleet(small_sim_config(seed=7))
        assert a.casts != b.casts


class TestAsyncioFleet:
    def test_small_fleet_over_real_udp(self):
        # Oracle expectations off (no hot groups, huge threshold): this
        # smoke proves group-id frames and shared ports over real UDP.
        config = FleetConfig(
            runtime="asyncio",
            groups=8,
            members=2,
            nodes=4,
            clients=16,
            client_rate=2.0,
            hot_fraction=0.0,
            high_threshold=1e9,
            duration=1.5,
            warmup=0.1,
            settle=0.5,
            oracle_poll=0.5,
            base_port=47610,
        )
        result = run_fleet(config)
        assert result.ok, result.violations
        assert result.runtime == "asyncio"
        assert result.delivered > 0
        assert result.stray_packets == 0
        assert len(result.per_group) == 8
