"""NodePort: a node's one network attach, routed by group id."""

import pytest

from repro.errors import StackError
from repro.net.ptp import PointToPointNetwork
from repro.runtime import Simulator
from repro.stack.membership import Group
from repro.stack.message import Message
from repro.stack.multiplex import Multiplexer
from repro.stack.port import NodePort
from repro.stack.stack import ProcessStack


def make_net(nodes=3):
    runtime = Simulator()
    return runtime, PointToPointNetwork(runtime, nodes)


def make_msg(sender=0, dest=None, body="x"):
    return Message(sender=sender, mid=(sender, 0), body=body, body_size=8,
                   dest=dest)


def wire(net, group, group_id=1, ports=None):
    """Register ``group_id`` on one port per member; returns the ports and
    what each member receives."""
    ports = ports if ports is not None else {n: NodePort(net, n) for n in group}
    got = {n: [] for n in group}
    for n in group:
        ports[n].register(group_id, group, got[n].append)
    return ports, got


def ignore(msg):
    pass


class TestRegistry:
    def test_double_register_raises(self):
        __, net = make_net()
        port = NodePort(net, 0)
        port.register(1, Group([0, 1]), ignore)
        with pytest.raises(StackError, match="already registered"):
            port.register(1, Group([0, 1]), ignore)

    @pytest.mark.parametrize(
        "register",
        [
            lambda runtime, port: port.register(1, Group([1, 2]), ignore),
            lambda runtime, port: ProcessStack(runtime, port, Group([1, 2]), 0, []),
        ],
        ids=["port", "process_stack"],
    )
    def test_non_member_register_raises(self, register):
        runtime, net = make_net()
        port = NodePort(net, 0)
        with pytest.raises(StackError, match="not (a member|in group)"):
            register(runtime, port)

    def test_unregister_unknown_raises(self):
        __, net = make_net()
        port = NodePort(net, 0)
        with pytest.raises(StackError, match="not registered"):
            port.unregister(9)

    def test_groups_snapshot(self):
        __, net = make_net()
        port = NodePort(net, 0)
        group = Group([0, 1])
        port.register(1, group, ignore)
        assert port.groups == {1: group}
        port.unregister(1)
        assert port.groups == {}


class TestRouting:
    def test_send_for_unregistered_group_raises(self):
        __, net = make_net()
        port = NodePort(net, 0)
        with pytest.raises(StackError, match="unregistered group"):
            port.send(1, make_msg(dest=(1,)))

    @pytest.mark.parametrize(
        "sender,dest,receivers,counter",
        [
            (0, (1,), [1], "unicast"),
            (0, (2,), [2], "unicast"),
            (1, (0, 2), [0, 2], "multicast"),
            (0, (), [], "empty_dest"),
        ],
        ids=["unicast", "unicast_skips_others", "subset_multicast", "empty_dest"],
    )
    def test_round_trip_between_ports(self, sender, dest, receivers, counter):
        runtime, net = make_net()
        ports, got = wire(net, Group([0, 1, 2]))
        ports[sender].send(1, make_msg(sender, dest=dest))
        runtime.run_for(1.0)
        assert [n for n in got if got[n]] == receivers
        assert all(got[n][0].body == "x" for n in receivers)
        assert ports[sender].stats.get(counter) == 1
        assert sum(p.stats.get("received") for p in ports.values()) == len(receivers)

    @pytest.mark.parametrize("sender", [0, 1])
    def test_multicast_resolves_group_membership(self, sender):
        # dest=None multicasts to the *sending group's* members, the
        # sender's own loopback copy included; a second group sharing
        # the ports hears nothing.
        runtime, net = make_net(4)
        ports, got = wire(net, Group([0, 1, 2]))
        __, other = wire(net, Group([0, 1, 3]), group_id=2, ports=ports | {3: NodePort(net, 3)})
        ports[sender].send(1, make_msg(sender, dest=None))
        runtime.run_for(1.0)
        assert [len(got[n]) for n in (0, 1, 2)] == [1, 1, 1]
        assert all(not received for received in other.values())

    def test_frames_carry_the_group_id(self):
        runtime, net = make_net()
        port = NodePort(net, 0)
        port.register(9, Group([0, 1]), ignore)
        packets = []
        net.attach(1, packets.append)  # a raw listener, not a port
        port.send(9, make_msg(dest=(1,)))
        runtime.run_for(1.0)
        assert [p.group for p in packets] == [9]

    def test_group_traffic_routed_by_group_id(self):
        # Groups 0 and 7 share both ports and their membership: a frame
        # sent for group 7 reaches only group 7's receive function.
        runtime, net = make_net()
        group = Group([0, 1])
        ports, got_zero = wire(net, group, group_id=0)
        __, got_seven = wire(net, group, group_id=7, ports=ports)
        ports[0].send(7, make_msg(dest=(1,)))
        runtime.run_for(1.0)
        assert got_zero[1] == []
        assert len(got_seven[1]) == 1
        assert ports[1].stats.get("received") == 1

    def test_same_channel_id_routed_per_group(self):
        # Two groups on one pair of ports, each stack with its own
        # multiplexer using the same channel ids: the port keeps them apart.
        runtime, net = make_net()
        group = Group([0, 1])
        ports = {n: NodePort(net, n) for n in group}
        got = {}
        muxes = {}
        for gid in (1, 7):
            for n in group:
                mux = Multiplexer(lambda msg, p=ports[n], g=gid: p.send(g, msg))
                ports[n].register(gid, group, mux.receive)
                got[gid, n] = []
                mux.channel(1).on_deliver(got[gid, n].append)
                muxes[gid, n] = mux
        muxes[7, 0].channel(1).send(make_msg(dest=(1,), body="seven"))
        runtime.run_for(1.0)
        assert got[1, 1] == []
        assert [m.body for m in got[7, 1]] == ["seven"]
        assert muxes[7, 0].stats.get("tx[1]") == 1
        assert muxes[7, 1].stats.get("rx[1]") == 1

    def test_non_message_payload_rejected(self):
        runtime, net = make_net()
        wire(net, Group([0, 1]), group_id=0)
        net.attach(2, ignore).unicast(0, "raw-not-a-message", 10)
        with pytest.raises(StackError, match="non-message payload"):
            runtime.run_for(1.0)

    def test_wrong_shard_frame_is_a_counted_stray(self):
        # A shard's ports host only its hash slice; a frame for a group
        # homed elsewhere (a supervisor routing bug, or a replayed
        # capture from a different shard count) must be dropped and
        # *counted* — never delivered, never fatal.
        from repro.fleet.sharding import shard_of

        runtime, net = make_net()
        group = Group([0, 1])
        mine, foreign = 1, 2
        assert shard_of(mine, 2) != shard_of(foreign, 2)
        ports, got = wire(net, group, group_id=mine)
        a, b = ports[0], ports[1]
        # Port a *does* host the foreign group (it is the misrouting
        # sender); port b does not.
        a.register(foreign, group, ignore)
        a.send(foreign, make_msg(dest=(1,)))
        a.send(mine, make_msg(dest=(1,)))
        runtime.run_for(1.0)
        # Its own group still flows; the foreign frame is a stray.
        assert len(got[1]) == 1
        assert b.stats.get("stray_group") == 1
        assert b.stats.get("received") == 1

    def test_in_flight_packet_after_unregister_is_a_stray(self):
        runtime, net = make_net()
        ports, got = wire(net, Group([0, 1]))
        ports[0].send(1, make_msg(dest=(1,)))
        ports[1].unregister(1)  # teardown races the packet in flight
        runtime.run_for(1.0)
        assert got[1] == []
        assert ports[1].stats.get("stray_group") == 1
        assert ports[1].stats.get("received") == 0

    def test_unregister_leaves_other_groups_routed(self):
        runtime, net = make_net()
        group = Group([0, 1])
        ports, kept = wire(net, group, group_id=1)
        __, gone = wire(net, group, group_id=7, ports=ports)
        ports[1].unregister(7)
        ports[0].send(1, make_msg(dest=(1,)))
        ports[0].send(7, make_msg(dest=(1,)))
        runtime.run_for(1.0)
        assert len(kept[1]) == 1 and gone[1] == []
        assert ports[1].stats.get("stray_group") == 1


class TestDetach:
    def test_detach_refused_while_groups_remain(self):
        __, net = make_net()
        port = NodePort(net, 0)
        port.register(1, Group([0, 1]), ignore)
        with pytest.raises(StackError, match="still hosts groups"):
            port.detach()

    def test_detach_after_last_unregister(self):
        __, net = make_net()
        port = NodePort(net, 0)
        port.register(1, Group([0, 1]), ignore)
        port.unregister(1)
        port.detach()  # no error; the node is free again
        NodePort(net, 0)
