"""Unit tests for switchable stack assembly and transparency."""

import pytest

from helpers import ptp_group, switch_group
from repro.core.switchable import ProtocolSpec, SwitchableStack
from repro.errors import SwitchError
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.protocols.sequencer import SequencerLayer
from repro.sim.engine import Simulator
from repro.stack.membership import Group
from repro.stack.port import NodePort


def specs():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [SequencerLayer()]),
    ]


class TestValidation:
    def test_needs_two_protocols(self):
        sim = Simulator()
        net = PointToPointNetwork(sim, 2)
        with pytest.raises(SwitchError):
            SwitchableStack(
                sim, NodePort(net, 0), Group.of_size(2), 0,
                [ProtocolSpec("only", lambda r: [])], "only",
            )

    def test_duplicate_names_rejected(self):
        sim = Simulator()
        net = PointToPointNetwork(sim, 2)
        dup = [ProtocolSpec("X", lambda r: []), ProtocolSpec("X", lambda r: [])]
        with pytest.raises(SwitchError):
            SwitchableStack(sim, NodePort(net, 0), Group.of_size(2), 0, dup, "X")

    def test_unknown_variant_rejected(self):
        sim = Simulator()
        net = PointToPointNetwork(sim, 2)
        with pytest.raises(SwitchError):
            SwitchableStack(
                sim, NodePort(net, 0), Group.of_size(2), 0, specs(), "A",
                variant="carrier-pigeon",
            )

    def test_empty_spec_name_rejected(self):
        with pytest.raises(SwitchError):
            ProtocolSpec("", lambda r: [])


class TestTransparency:
    """The application API matches a plain stack's (section 1: 'the
    application cannot tell easily that it is running on the SP')."""

    def test_cast_and_deliver_like_plain_stack(self):
        sim_p, plain, log_p = ptp_group(3, lambda r: [FifoLayer()])
        sim_s, switched, log_s = switch_group(3, specs(), "A")
        for i in range(5):
            plain[i % 3].cast(i, 16)
            switched[i % 3].cast(i, 16)
        sim_p.run()
        sim_s.run_until(1.0)
        for rank in range(3):
            assert log_p.bodies(rank) == log_s.bodies(rank)

    def test_mid_allocation_matches(self):
        sim, stacks, log = switch_group(3, specs(), "A")
        assert stacks[1].cast("x", 16) == (1, 0)

    def test_send_hooks(self):
        sim, stacks, log = switch_group(3, specs(), "A")
        sends = []
        stacks[0].on_send(lambda m: sends.append(m.body))
        stacks[0].cast("observed", 16)
        assert sends == ["observed"]


class TestIntrospection:
    def test_current_protocol(self):
        sim, stacks, log = switch_group(3, specs(), "A")
        assert stacks[0].current_protocol == "A"
        assert not stacks[0].switching

    def test_find_slot_layer(self):
        sim, stacks, log = switch_group(3, specs(), "A")
        assert isinstance(stacks[0].find_slot_layer("A", FifoLayer), FifoLayer)
        assert isinstance(
            stacks[0].find_slot_layer("B", SequencerLayer), SequencerLayer
        )
        with pytest.raises(SwitchError):
            stacks[0].find_slot_layer("A", SequencerLayer)

    def test_slot_traffic_isolated_by_channel(self):
        """Traffic on slot A's channel never reaches slot B's layers."""
        sim, stacks, log = switch_group(3, specs(), "A")
        stacks[0].cast("on-a", 16)
        sim.run_until(0.5)
        seq_layer = stacks[1].find_slot_layer("B", SequencerLayer)
        assert seq_layer.stats.get("delivered") == 0
        fifo_layer = stacks[1].find_slot_layer("A", FifoLayer)
        assert fifo_layer._expected.get(0, 0) == 1
