"""Observability under fleet lifecycle churn.

BusScope nesting (rank + group labels on one shared bus), PhaseTracker
reuse across switch generations, and the full fleet cycle — attach,
drain, teardown, re-attach over the same ports — with the telemetry
plane watching.
"""

from repro.core.switchable import ProtocolSpec
from repro.fleet import GroupManager
from repro.net.ptp import PointToPointNetwork
from repro.obs.bus import Bus, PhaseTracker
from repro.obs.metrics import Counter
from repro.obs.telemetry import TelemetryConfig, TelemetryPlane
from repro.protocols.fifo import FifoLayer
from repro.protocols.sequencer import SequencerLayer
from repro.runtime import Simulator


class TestBusScopeNesting:
    def test_rank_and_group_labels_compose(self):
        bus = Bus(enabled=True)
        scope = bus.scoped(2, 7)
        stats = Counter()
        scope.attach("sp", stats)
        stats.incr("initiated")
        scope.observe("latency_s", 0.001)
        scope.gauge("queue_depth", 3.0)
        assert bus.metrics.counters()["sp.initiated[g7]"] == 1
        assert bus.metrics.histogram("latency_s[g7]").count == 1
        # Gauges are per-producer: rank first, then the group label.
        assert "queue_depth[r2][g7]" in bus.metrics.snapshot().gauges

    def test_group_scope_stamps_events(self):
        bus = Bus(enabled=True)
        bus.scoped(1, 5).emit("token/hop", to=2)
        assert bus.events[-1].args == {"group": 5, "to": 2}
        assert bus.events[-1].rank == 1

    def test_rank_only_scope_is_the_pre_fleet_shape(self):
        bus = Bus(enabled=True)
        stats = Counter()
        bus.scoped(1).attach("sp", stats)
        stats.incr("initiated")
        assert bus.metrics.counters() == {"sp.initiated": 1}

    def test_scopes_on_one_bus_stay_separable(self):
        bus = Bus(enabled=True)
        for gid in (1, 2, 3):
            stats = Counter()
            bus.scoped(0, gid).attach("sp", stats)
            stats.incr("initiated", gid)
        assert bus.metrics.counters() == {
            f"sp.initiated[g{gid}]": gid for gid in (1, 2, 3)
        }


class TestPhaseTrackerReuse:
    def test_generations_accumulate_without_leaking_spans(self):
        runtime = Simulator()
        bus = Bus(clock=runtime, enabled=True)
        tracker = PhaseTracker(bus.scoped(0, 9))

        # Generation 1: a completed switch.
        tracker.begin((0, 1), "sequencer", "tokenring")
        runtime.run_for(0.1)
        tracker.phase((0, 1), "switch")
        runtime.run_for(0.1)
        tracker.complete((0, 1), duration=0.2)

        # Generation 2 on the same tracker: an aborted switch.
        tracker.begin((0, 2), "tokenring", "sequencer")
        runtime.run_for(0.1)
        tracker.abort((0, 2), reason="stalled", phase="prepare")

        # Generation 3: completes again.
        tracker.begin((0, 3), "sequencer", "tokenring")
        tracker.complete((0, 3), duration=0.0)

        metrics = bus.metrics
        assert metrics.histogram("switch.duration_s[g9]").count == 2
        assert [e.name for e in bus.events if e.kind == "i"] == [
            "switch/complete",
            "switch/abort",
            "switch/complete",
        ]
        totals = [e for e in bus.events if e.name == "switch/total"]
        assert [e.args["outcome"] for e in totals] == [
            "completed",
            "aborted",
            "completed",
        ]
        # Every generation's total span closed: durations are bounded.
        assert all(e.dur <= 0.2 + 1e-9 for e in totals)

    def test_mid_choreography_join_opens_at_that_phase(self):
        bus = Bus(enabled=True)
        tracker = PhaseTracker(bus.scoped(1))
        # A takeover member learns about the switch at FLUSH.
        tracker.phase((0, 4), "flush")
        tracker.complete((0, 4), duration=0.5)
        phases = [e.name for e in bus.events if e.name.startswith("switch/")]
        assert phases == ["switch/flush", "switch/complete"]


def specs():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [SequencerLayer()]),
    ]


class TestFleetLifecycleUnderTelemetry:
    def build(self):
        runtime = Simulator()
        network = PointToPointNetwork(runtime, 3)
        manager = GroupManager(runtime, network)
        bus = Bus(clock=runtime, enabled=True, max_events=0)
        plane = TelemetryPlane(runtime, bus, TelemetryConfig(window=1.0))
        plane.attach_manager(manager)
        return runtime, manager, plane

    def test_attach_drain_teardown_reattach_same_ports(self):
        runtime, manager, plane = self.build()
        g1 = manager.create_group([0, 1], specs(), initial="A")
        plane.watch_group(g1.group_id, members=2)
        note = plane.delivery_hook(g1.group_id)
        g1.on_deliver(lambda rank, msg: note())
        g1.cast(0, "hello")
        runtime.run_for(1.0)

        # Drain first: in-flight traffic settles, the teardown is clean.
        g1.drain()
        runtime.run_for(1.0)
        manager.teardown_group(g1.group_id)
        snap = plane.group_snapshot(g1.group_id)
        assert snap.torn_down is True
        assert snap.delivered == 2
        assert plane.recorder.captures == []  # clean teardown: no incident

        # Re-attach over the same nodes: a fresh group id, fresh state.
        g2 = manager.create_group([0, 1], specs(), initial="A")
        assert g2.group_id != g1.group_id
        plane.watch_group(g2.group_id, members=2)
        note = plane.delivery_hook(g2.group_id)
        g2.on_deliver(lambda rank, msg: note())
        g2.cast(1, "again")
        runtime.run_for(1.0)
        assert plane.group_snapshot(g2.group_id).delivered == 2
        assert plane.group_snapshot(g2.group_id).torn_down is False
        # The old group's totals are untouched by the new generation.
        assert plane.group_snapshot(g1.group_id).delivered == 2

    def test_dirty_teardown_freezes_the_black_box(self):
        runtime, manager, plane = self.build()
        group = manager.create_group([0, 1], specs(), initial="A")
        gid = group.group_id
        plane.watch_group(gid, members=2)
        plane.delivery_hook(gid)()  # something in the ring to freeze
        # Teardown while STARTED (no drain): in-flight traffic dies.
        manager.teardown_group(gid)
        assert [c.trigger for c in plane.recorder.captures] == [
            "dirty_teardown"
        ]
        assert plane.recorder.captures[0].group == gid

    def test_stray_counts_surface_after_teardown_with_traffic(self):
        runtime, manager, plane = self.build()
        group = manager.create_group([0, 1], specs(), initial="A")
        plane.watch_group(group.group_id, members=2)
        group.cast(0, "doomed")
        # Teardown immediately: the cast is still in flight and must
        # drop as a stray at the port, not hit dead channels.
        manager.teardown_group(group.group_id)
        runtime.run_for(1.0)
        assert plane._stray_drops() > 0
        assert plane.snapshot().fleet.strays > 0
