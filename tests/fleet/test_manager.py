"""GroupManager: shared ports, group lifecycle, and the oracle loop."""

import pytest

from repro.core.oracle import FleetOracle
from repro.errors import SwitchError
from repro.fleet import GroupManager
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.protocols.sequencer import SequencerLayer
from repro.core.switchable import ProtocolSpec
from repro.runtime.sim_runtime import SimRuntime


def specs():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [SequencerLayer()]),
    ]


def make_manager(nodes=3, oracle=None):
    runtime = SimRuntime()
    net = PointToPointNetwork(runtime, nodes)
    return runtime, GroupManager(runtime, net, oracle=oracle)


def attach_log(handle):
    got = []
    handle.on_deliver(lambda rank, msg: got.append((rank, msg.body)))
    return got


class TestLifecycle:
    def test_overlapping_groups_share_ports(self):
        runtime, manager = make_manager()
        g1 = manager.create_group([0, 1], specs(), initial="A")
        g2 = manager.create_group([1, 2], specs(), initial="A")
        assert (g1.group_id, g2.group_id) == (1, 2)
        assert sorted(manager.ports) == [0, 1, 2]  # node 1 is shared

        log1, log2 = attach_log(g1), attach_log(g2)
        g1.cast(0, "one")
        g2.cast(2, "two")
        runtime.run_for(1.0)
        # Full isolation: each group's cast reaches only its members.
        assert sorted(log1) == [(0, "one"), (1, "one")]
        assert sorted(log2) == [(1, "two"), (2, "two")]

    def test_teardown_releases_and_isolates(self):
        runtime, manager = make_manager()
        g1 = manager.create_group([0, 1], specs(), initial="A")
        g2 = manager.create_group([0, 1], specs(), initial="A")
        log2 = attach_log(g2)
        manager.teardown_group(g1.group_id)
        assert g1.state == "torn_down"
        assert g1.group_id not in manager.handles
        g2.cast(0, "still works")
        runtime.run_for(1.0)
        assert len(log2) == 2
        strays = sum(
            p.stats.get("stray_group") for p in manager.ports.values()
        )
        assert strays == 0  # quiet teardown leaves nothing in flight

    def test_teardown_unknown_group_raises(self):
        __, manager = make_manager()
        with pytest.raises(SwitchError, match="no group"):
            manager.teardown_group(9)

    def test_rebuild_after_teardown_reuses_nodes(self):
        runtime, manager = make_manager()
        g1 = manager.create_group([0, 1], specs(), initial="A")
        manager.teardown_group(g1.group_id)
        g3 = manager.create_group([0, 1], specs(), initial="A")
        log = attach_log(g3)
        g3.cast(1, "rebuilt")
        runtime.run_for(1.0)
        assert sorted(log) == [(0, "rebuilt"), (1, "rebuilt")]

    def test_sequencer_assignments_follow_group_lifetimes(self):
        __, manager = make_manager()
        first = manager.assign_sequencer([0, 1])
        g1 = manager.create_group([0, 1], specs(), initial="A")
        second = manager.assign_sequencer([0, 1])
        manager.create_group([0, 1], specs(), initial="A")
        assert {first, second} == {0, 1}  # pool spread the duty
        manager.teardown_group(g1.group_id)
        assert manager.pool.loads == {second: 1}


class TestRestartHardening:
    """Shard restarts sweep lifecycles repeatedly; nothing may leak."""

    def test_teardown_is_idempotent(self):
        __, manager = make_manager()
        fired = []
        manager.on_teardown(lambda gid, dirty: fired.append((gid, dirty)))
        g1 = manager.create_group([0, 1], specs(), initial="A")
        assert manager.teardown_group(g1.group_id) is True
        assert manager.teardown_group(g1.group_id) is False
        assert manager.teardown_group(g1.group_id) is False
        # Counted and called back exactly once; pool fully released.
        assert manager.stats.get("groups_torn_down") == 1
        assert fired == [(g1.group_id, True)]
        assert manager.pool.loads == {}
        # A group this manager never created is still a caller bug.
        with pytest.raises(SwitchError, match="no group"):
            manager.teardown_group(99)

    def test_restart_polling_leaks_no_timers(self):
        runtime, manager = make_manager(
            oracle=FleetOracle(
                metric_factory=lambda gid: lambda: 0.0,
                high_threshold=100.0,
                low_protocol="A",
                high_protocol="B",
            )
        )
        for __ in range(5):
            manager.start_oracle_polling(0.5)
        assert runtime.pending() == 1  # one live chain, not five
        manager.stop_oracle_polling()
        manager.stop_oracle_polling()  # idempotent
        assert runtime.pending() == 0  # armed tick cancelled, not orphaned
        # A full stop/start cycle re-arms exactly one chain.
        manager.start_oracle_polling(0.25)
        runtime.run_for(1.0)
        manager.stop_oracle_polling()
        assert runtime.pending() == 0

    def test_explicit_group_ids(self):
        runtime, manager = make_manager()
        g7 = manager.create_group([0, 1], specs(), initial="A", group_id=7)
        assert g7.group_id == 7
        with pytest.raises(SwitchError, match="already in use"):
            manager.create_group([0, 1], specs(), initial="A", group_id=7)
        with pytest.raises(SwitchError, match=">= 1"):
            manager.create_group([0, 1], specs(), initial="A", group_id=0)
        # Implicit allocation continues past the explicit id.
        g8 = manager.create_group([1, 2], specs(), initial="A")
        assert g8.group_id == 8
        log = attach_log(g7)
        g7.cast(0, "routed")
        runtime.run_for(1.0)
        assert sorted(log) == [(0, "routed"), (1, "routed")]

    def test_assign_sequencer_with_planned_rank(self):
        __, manager = make_manager()
        assert manager.assign_sequencer([0, 1], rank=1, group_id=5) == 1
        assert manager.pool.loads == {1: 1}
        manager.create_group([0, 1], specs(), initial="A", group_id=5)
        manager.teardown_group(5)
        assert manager.pool.loads == {}
        with pytest.raises(SwitchError, match="not among members"):
            manager.assign_sequencer([0, 1], rank=2)


class TestOracleLoop:
    def make_rate_oracle(self, rates):
        """An oracle whose per-group signal is read from ``rates``."""
        return FleetOracle(
            metric_factory=lambda gid: lambda: rates.get(gid, 0.0),
            high_threshold=100.0,
            low_protocol="A",
            high_protocol="B",
        )

    def test_groups_watched_and_unwatched(self):
        __, manager = make_manager(oracle=self.make_rate_oracle({}))
        g1 = manager.create_group([0, 1], specs(), initial="A")
        assert manager.oracle.watched == (g1.group_id,)
        manager.teardown_group(g1.group_id)
        assert manager.oracle.watched == ()

    def test_poll_escalates_hot_group_only(self):
        rates = {}
        runtime, manager = make_manager(oracle=self.make_rate_oracle(rates))
        hot = manager.create_group([0, 1], specs(), initial="A")
        cold = manager.create_group([1, 2], specs(), initial="A")
        rates[hot.group_id] = 500.0
        rates[cold.group_id] = 5.0
        decisions = manager.poll_oracle()
        assert decisions == {hot.group_id: "B"}
        runtime.run_for(2.0)
        assert set(hot.current_protocols.values()) == {"B"}
        assert set(cold.current_protocols.values()) == {"A"}
        assert len(manager.oracle.decisions) == 1

    def test_group_mid_switch_is_not_decided_again(self):
        rates = {}
        runtime, manager = make_manager(oracle=self.make_rate_oracle(rates))
        g = manager.create_group([0, 1, 2], specs(), initial="A")
        rates[g.group_id] = 500.0
        assert manager.poll_oracle() == {g.group_id: "B"}
        coordinator = g.stacks[g.group.coordinator]
        while not coordinator.switching:
            runtime.run_for(0.0005)
        # Still on "A" and still hot, but the one drift is decided once.
        assert manager.poll_oracle() == {}
        assert len(manager.oracle.decisions) == 1
        runtime.run_for(2.0)
        assert set(g.current_protocols.values()) == {"B"}
        assert coordinator.core.switches_completed == 1

    def test_polling_loop_stops_cleanly(self):
        rates = {}
        runtime, manager = make_manager(oracle=self.make_rate_oracle(rates))
        g = manager.create_group([0, 1], specs(), initial="A")
        manager.start_oracle_polling(0.5)
        runtime.run_for(1.2)
        rates[g.group_id] = 500.0
        manager.stop_oracle_polling()
        runtime.run_for(2.0)
        # The stopped loop never saw the hot signal.
        assert set(g.current_protocols.values()) == {"A"}

    def test_poll_without_oracle_raises(self):
        __, manager = make_manager()
        with pytest.raises(SwitchError, match="no fleet oracle"):
            manager.poll_oracle()

    def test_bad_poll_interval_raises(self):
        __, manager = make_manager(oracle=self.make_rate_oracle({}))
        with pytest.raises(SwitchError, match="positive"):
            manager.start_oracle_polling(0.0)
