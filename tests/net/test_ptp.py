"""Unit tests for the point-to-point network model."""

import pytest

from repro.errors import NetworkError
from repro.net.faults import FaultPlan, Partition
from repro.net.ptp import LatencyMatrix, PointToPointNetwork
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams


def make_net(n=3, latency=None, faults=None, seed=9):
    sim = Simulator()
    net = PointToPointNetwork(
        sim, n, latency=latency, faults=faults, rng=RandomStreams(seed)
    )
    return sim, net


class TestLatencyMatrix:
    def test_base_latency_default(self):
        matrix = LatencyMatrix(3, base_latency=2e-3)
        assert matrix.get(0, 1) == 2e-3

    def test_loopback_is_fast(self):
        matrix = LatencyMatrix(3, base_latency=2e-3)
        assert matrix.get(1, 1) == pytest.approx(2e-4)

    def test_overrides(self):
        matrix = LatencyMatrix(3)
        matrix.set(0, 1, 5e-3)
        assert matrix.get(0, 1) == 5e-3
        assert matrix.get(1, 0) == matrix.base_latency

    def test_symmetric_override(self):
        matrix = LatencyMatrix(3)
        matrix.set_symmetric(0, 2, 7e-3)
        assert matrix.get(0, 2) == 7e-3
        assert matrix.get(2, 0) == 7e-3

    def test_negative_rejected(self):
        with pytest.raises(NetworkError):
            LatencyMatrix(2, base_latency=-1)
        with pytest.raises(NetworkError):
            LatencyMatrix(2).set(0, 1, -1)

    @pytest.mark.parametrize("pair", [(99, 0), (0, 3), (-1, 0)])
    def test_out_of_range_override_rejected(self, pair):
        """An override for a node the matrix does not have used to be
        stored and never read."""
        matrix = LatencyMatrix(3)
        with pytest.raises(NetworkError):
            matrix.set(*pair, 1.0)
        with pytest.raises(NetworkError):
            matrix.set_symmetric(*pair, 1.0)
        assert matrix.get(0, 2) == matrix.base_latency  # nothing half-applied


class TestDelivery:
    def test_unicast_uses_matrix_latency(self):
        matrix = LatencyMatrix(2, base_latency=3e-3)
        sim, net = make_net(2, latency=matrix)
        endpoint = net.attach(0, lambda pkt: None)
        times = []
        net.attach(1, lambda pkt: times.append(sim.now))
        endpoint.unicast(1, "x", 10)
        sim.run()
        assert times == [pytest.approx(3e-3)]

    def test_multicast_fans_out_independently(self):
        matrix = LatencyMatrix(3)
        matrix.set(0, 1, 1e-3)
        matrix.set(0, 2, 5e-3)
        sim, net = make_net(3, latency=matrix)
        src = net.attach(0, lambda pkt: None)
        arrivals = []
        net.attach(1, lambda pkt: arrivals.append((1, sim.now)))
        net.attach(2, lambda pkt: arrivals.append((2, sim.now)))
        src.multicast((1, 2), "m", 10)
        sim.run()
        assert arrivals == [(1, pytest.approx(1e-3)), (2, pytest.approx(5e-3))]

    def test_bad_destination_sends_nothing(self):
        """Regression: the range check ran inside the send loop, so a bad
        rank mid-list raised with earlier copies already in flight."""
        sim, net = make_net(3)
        src = net.attach(0, lambda pkt: None)
        arrivals = []
        net.attach(1, arrivals.append)
        with pytest.raises(NetworkError):
            src.multicast((1, 7, 2), "m", 10)
        sim.run()
        assert net.stats.get("sends") == 0
        assert arrivals == []

    def test_delivery_to_unattached_node_counted_dead(self):
        sim, net = make_net(2)
        src = net.attach(0, lambda pkt: None)
        src.unicast(1, "x", 10)
        sim.run()
        assert net.stats.get("dead_letters") == 1

    def test_matrix_size_mismatch_rejected(self):
        with pytest.raises(NetworkError):
            PointToPointNetwork(Simulator(), 3, latency=LatencyMatrix(2))


class TestFaultInjection:
    def test_loss_recovered_counts(self):
        sim, net = make_net(2, faults=FaultPlan(loss_rate=0.4))
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(pkt))
        for __ in range(300):
            src.unicast(1, "x", 10)
        sim.run()
        assert 120 <= len(got) <= 240
        assert net.stats.get("drops") + len(got) == 300

    def test_duplication_delivers_twice(self):
        sim, net = make_net(2, faults=FaultPlan(duplicate_rate=0.99))
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(pkt))
        src.unicast(1, "x", 10)
        sim.run()
        assert len(got) == 2

    def test_loopback_is_immune_to_faults(self):
        sim, net = make_net(2, faults=FaultPlan(loss_rate=0.99))
        got = []
        endpoint = net.attach(0, lambda pkt: got.append(pkt))
        net.attach(1, lambda pkt: None)
        for __ in range(20):
            endpoint.multicast((0,), "self", 10)
        sim.run()
        assert len(got) == 20

    def test_partition_blocks_then_heals(self):
        plan = FaultPlan(partitions=[Partition.split(0.0, 1.0, [0], [1])])
        sim, net = make_net(2, faults=plan)
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(sim.now))
        src.unicast(1, "blocked", 10)
        sim.run_until(1.0)
        assert got == []
        sim.run_until(1.5)  # advance past heal
        src.unicast(1, "through", 10)
        sim.run()
        assert len(got) == 1

    def test_reordering_can_swap_packets(self):
        sim, net = make_net(2, faults=FaultPlan(reorder_jitter=5e-3), seed=3)
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(pkt.payload))
        for i in range(30):
            src.unicast(1, i, 10)
        sim.run()
        assert sorted(got) == list(range(30))
        assert got != list(range(30))  # at least one swap happened


class TestCrashAndRecovery:
    """Dynamic fail/recover plus the Counter-reported recovery metrics."""

    def test_fail_and_recover_are_counted_and_idempotent(self):
        sim, net = make_net(2)
        net.attach(0, lambda pkt: None)
        net.fail_node(0)
        net.fail_node(0)  # idempotent: still one failure
        assert not net.node_alive(0)
        assert net.stats.get("node_failures") == 1
        net.recover_node(0)
        net.recover_node(0)
        assert net.node_alive(0)
        assert net.stats.get("node_recoveries") == 1

    def test_recover_without_crash_counts_nothing(self):
        sim, net = make_net(2)
        net.recover_node(1)
        assert net.stats.get("node_recoveries") == 0

    def test_crashed_sender_drops_at_interface(self):
        sim, net = make_net(2)
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(pkt))
        net.fail_node(0)
        src.unicast(1, "dead", 10)
        sim.run()
        assert got == []
        assert net.stats.get("crash_drops") == 1

    def test_crashed_receiver_drops_even_in_flight_copies(self):
        sim, net = make_net(2)
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(pkt))
        src.unicast(1, "in-flight", 10)
        net.fail_node(1)  # crashes before the copy lands
        sim.run()
        assert got == []
        assert net.stats.get("crash_drops") == 1

    def test_crashed_loopback_is_dropped_too(self):
        sim, net = make_net(2)
        got = []
        endpoint = net.attach(0, lambda pkt: got.append(pkt))
        net.fail_node(0)
        endpoint.multicast((0,), "self", 10)
        sim.run()
        assert got == []

    def test_scheduled_crash_window_from_fault_plan(self):
        from repro.net.faults import Crash

        sim, net = make_net(2, faults=FaultPlan(crashes=[Crash(1, 0.0, 1.0)]))
        src = net.attach(0, lambda pkt: None)
        got = []
        net.attach(1, lambda pkt: got.append(sim.now))
        src.unicast(1, "early", 10)
        sim.run_until(2.0)
        assert got == []
        assert not net.node_alive(1) if sim.now < 1.0 else net.node_alive(1)
        src.unicast(1, "late", 10)
        sim.run()
        assert len(got) == 1

    def test_delivery_counter_tracks_arrivals(self):
        sim, net = make_net(2)
        src = net.attach(0, lambda pkt: None)
        net.attach(1, lambda pkt: None)
        for __ in range(5):
            src.unicast(1, "x", 10)
        sim.run()
        assert net.stats.get("deliveries") == 5
        assert net.stats.get("sends") == 5
