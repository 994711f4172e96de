"""Unit tests for process stacks and group building (the port they
send through is tested in ``test_port.py``)."""

import pytest

from helpers import DeliveryLog, ptp_group
from repro.errors import StackError
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.sim.engine import Simulator
from repro.stack.membership import Group
from repro.stack.port import NodePort
from repro.stack.stack import ProcessStack, build_group


class TestProcessStack:
    def test_cast_returns_mid(self):
        sim, stacks, log = ptp_group(2, lambda r: [])
        mid = stacks[0].cast("hello")
        assert mid == (0, 0)
        assert stacks[0].cast("again") == (0, 1)

    def test_multiple_deliver_callbacks(self):
        sim, stacks, log = ptp_group(2, lambda r: [])
        extra = []
        stacks[1].on_deliver(lambda m: extra.append(m.body))
        stacks[0].cast("m", 10)
        sim.run()
        assert extra == ["m"]

    def test_send_hooks_fire_at_cast(self):
        sim, stacks, log = ptp_group(2, lambda r: [])
        sends = []
        stacks[0].on_send(lambda m: sends.append(m.mid))
        stacks[0].cast("m", 10)
        assert sends == [(0, 0)]

    def test_find_layer(self):
        sim, stacks, log = ptp_group(2, lambda r: [FifoLayer()])
        assert isinstance(stacks[0].find_layer(FifoLayer), FifoLayer)
        with pytest.raises(StackError):
            stacks[0].find_layer(NodePort)

    def test_can_send_default(self):
        sim, stacks, log = ptp_group(2, lambda r: [FifoLayer()])
        assert stacks[0].can_send()


class TestBuildGroup:
    def test_builds_one_stack_per_member(self):
        sim, stacks, log = ptp_group(5, lambda r: [])
        assert sorted(stacks) == [0, 1, 2, 3, 4]

    def test_factory_receives_rank(self):
        ranks = []
        sim, stacks, log = ptp_group(3, lambda r: ranks.append(r) or [])
        assert sorted(ranks) == [0, 1, 2]

    def test_full_mesh_communication(self):
        sim, stacks, log = ptp_group(4, lambda r: [])
        for rank in range(4):
            stacks[rank].cast(f"from{rank}", 10)
        sim.run()
        for rank in range(4):
            assert sorted(log.bodies(rank)) == [f"from{i}" for i in range(4)]
