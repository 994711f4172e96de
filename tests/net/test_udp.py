"""UdpNetwork: real datagrams over localhost loopback.

Each test binds its own port range so parallel CI shards don't collide.
"""

import pytest

from repro.errors import NetworkError
from repro.net.packet import Packet
from repro.net.udp import MAX_DATAGRAM, UdpNetwork
from repro.runtime import AsyncioRuntime

BASE_PORT = 47510


@pytest.fixture
def runtime():
    rt = AsyncioRuntime()
    yield rt
    rt.close()


def open_net(runtime, num_nodes, base_port):
    net = UdpNetwork(runtime, num_nodes, base_port=base_port)
    runtime.run_task(net.open())
    return net


def collect(net, runtime):
    """Attach every node; return the dict the packets land in."""
    received = {}
    for node in net.nodes():
        received[node] = []
        net.attach(node, lambda pkt, node=node: received[node].append(pkt))
    return received


def test_unicast_crosses_the_kernel(runtime):
    net = open_net(runtime, 2, BASE_PORT)
    received = collect(net, runtime)
    ep0 = net._make_endpoint(0)
    ep0.unicast(1, "hello", 64)
    runtime.run_for(0.2)
    assert [pkt.payload for pkt in received[1]] == ["hello"]
    pkt = received[1][0]
    assert isinstance(pkt, Packet)
    assert pkt.src == 0 and pkt.dst == 1
    assert net.stats.get("sends") == 1
    assert net.stats.get("deliveries") == 1


def test_multicast_fans_out_and_dedups(runtime):
    net = open_net(runtime, 3, BASE_PORT + 10)
    received = collect(net, runtime)
    ep = net._make_endpoint(0)
    ep.multicast([1, 2, 2, 1], "m", 16)  # duplicates collapse
    runtime.run_for(0.2)
    assert [p.payload for p in received[1]] == ["m"]
    assert [p.payload for p in received[2]] == ["m"]
    assert received[0] == []
    assert net.stats.get("sends") == 2


def test_broadcast_reaches_everyone_but_sender(runtime):
    net = open_net(runtime, 3, BASE_PORT + 20)
    received = collect(net, runtime)
    net._make_endpoint(1).broadcast("b", 16)
    runtime.run_for(0.2)
    assert received[0] and received[2] and not received[1]


def test_send_before_open_is_a_programming_error(runtime):
    net = UdpNetwork(runtime, 2, base_port=BASE_PORT + 30)
    with pytest.raises(NetworkError, match="before open"):
        net._make_endpoint(0).unicast(1, "x", 8)


def test_send_after_close_is_dropped_quietly(runtime):
    net = open_net(runtime, 2, BASE_PORT + 40)
    collect(net, runtime)
    net.close()
    net._make_endpoint(0).unicast(1, "late", 8)  # no raise
    assert net.stats.get("send_after_close") == 1


def test_oversized_payload_rejected(runtime):
    net = open_net(runtime, 2, BASE_PORT + 50)
    collect(net, runtime)
    with pytest.raises(NetworkError, match="datagram cap"):
        net._make_endpoint(0).unicast(1, "x" * (MAX_DATAGRAM + 1), 8)


def test_receive_buffer_is_the_datagram_cap_and_a_full_datagram_fits(runtime):
    net = open_net(runtime, 2, BASE_PORT + 110)
    assert {t.max_size for t in net._transports} == {MAX_DATAGRAM}
    inbox = collect(net, runtime)
    body = "x" * (MAX_DATAGRAM - 100)
    net._make_endpoint(0).unicast(1, body, 8)
    runtime.run_for(0.3)
    assert [pkt.payload for pkt in inbox[1]] == [body]


def test_close_is_idempotent_and_registered_with_runtime():
    runtime = AsyncioRuntime()
    net = open_net(runtime, 2, BASE_PORT + 60)
    runtime.close()  # closes the sockets via on_close
    net.close()  # second close is a no-op


def test_failed_open_releases_the_ports_already_bound(runtime):
    import socket

    base = BASE_PORT + 130
    squatter = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    squatter.bind(("127.0.0.1", base + 1))
    net = UdpNetwork(runtime, 3, base_port=base)
    try:
        with pytest.raises(OSError):
            runtime.run_task(net.open())
    finally:
        squatter.close()
    assert net._transports == [None, None, None]
    # A retry on the same range binds every port, node 0's included.
    runtime.run_task(net.open())
    assert all(transport is not None for transport in net._transports)


def test_multicast_oversized_payload_rejected(runtime):
    net = open_net(runtime, 3, BASE_PORT + 70)
    collect(net, runtime)
    with pytest.raises(NetworkError, match="datagram cap"):
        net._make_endpoint(0).multicast([1, 2], "x" * (MAX_DATAGRAM + 1), 8)
    assert net.stats.get("sends", ) == 0


def test_multicast_encodes_payload_once(runtime):
    from repro.net.codec import WireCodec

    calls = {"encode_payload": 0, "frame": 0}

    class CountingCodec(WireCodec):
        def encode_payload(self, payload):
            calls["encode_payload"] += 1
            return super().encode_payload(payload)

        def frame(self, src, dst, body, group=0):
            calls["frame"] += 1
            return super().frame(src, dst, body, group)

    net = UdpNetwork(runtime, 4, base_port=BASE_PORT + 80, codec=CountingCodec())
    runtime.run_task(net.open())
    received = collect(net, runtime)
    net._make_endpoint(0).multicast([1, 2, 3], "fan", 16)
    runtime.run_for(0.2)
    assert calls == {"encode_payload": 1, "frame": 3}
    assert net.stats.get("sends") == 3
    for node in (1, 2, 3):
        assert [p.payload for p in received[node]] == ["fan"]


def test_a_self_inclusive_multicast_frames_only_the_peers_copies(runtime):
    from repro.net.codec import WireCodec

    framed = []

    class CountingCodec(WireCodec):
        def frame(self, src, dst, body, group=0):
            framed.append(dst)
            return super().frame(src, dst, body, group)

    net = UdpNetwork(runtime, 3, base_port=BASE_PORT + 150, codec=CountingCodec())
    runtime.run_task(net.open())
    received = collect(net, runtime)
    payload = ("self", 1)
    net._make_endpoint(0).multicast([0, 1, 2, 0], payload, 16, group=7)
    runtime.run_for(0.2)
    assert sorted(framed) == [1, 2]
    assert net.stats.get("sends") == 2
    assert net.stats.get("loopback") == 1
    [own] = received[0]
    assert own.payload is payload  # never encoded or decoded
    assert (own.src, own.dst, own.group, own.size_bytes) == (0, 0, 7, 16)
    assert [p.payload for p in received[1]] == [payload]
    assert [p.payload for p in received[2]] == [payload]
    assert net.stats.get("deliveries") == 3


def test_a_unicast_to_self_is_delivered_in_process(runtime):
    net = open_net(runtime, 2, BASE_PORT + 160)
    received = collect(net, runtime)
    net._make_endpoint(1).unicast(1, "me", 8)
    assert received[1] == []  # on the next loop turn, not inside the call
    runtime.run_for(0.05)
    assert [p.payload for p in received[1]] == ["me"]
    assert net.stats.get("sends") == 0
    assert net.stats.get("loopback") == 1
    assert net.stats.get("deliveries") == 1


def test_a_self_copy_after_close_is_dropped(runtime):
    net = open_net(runtime, 2, BASE_PORT + 170)
    received = collect(net, runtime)
    ep = net._make_endpoint(0)
    ep.unicast(0, "pending", 8)  # in flight when the socket closes
    net.close()
    ep.multicast([0], "late", 8)
    runtime.run_for(0.05)
    assert received[0] == []
    assert net.stats.get("send_after_close") == 2
    assert net.stats.get("deliveries") == 0


def test_multicast_target_cache_revalidates_on_change(runtime):
    net = open_net(runtime, 3, BASE_PORT + 90)
    collect(net, runtime)
    ep = net._make_endpoint(0)
    ep.multicast([1, 2], "a", 8)
    ep.multicast([1, 2], "b", 8)  # cache hit
    assert ep._dsts_cached == ((1, 2), False)
    ep.multicast([2, 0], "c", 8)  # different set recomputes
    assert ep._dsts_cached == ((2,), True)
    with pytest.raises(NetworkError, match="out of range"):
        ep.multicast([1, 99], "d", 8)


def test_wire_format_is_binary_codec(runtime):
    """Datagrams on the socket are the codec's frames."""
    from repro.net.codec import FRAME_OVERHEAD, MAGIC

    net = open_net(runtime, 2, BASE_PORT + 100)
    collect(net, runtime)
    raw = net._encode_body("probe")
    framed = net.codec.frame(0, 1, raw)
    assert framed[0] == MAGIC
    src, dst, payload = net.codec.decode(framed)
    assert (src, dst, payload) == (0, 1, "probe")
    assert len(framed) == FRAME_OVERHEAD + len(raw)


def test_retained_message_survives_delivery_completion(runtime):
    """A receiver may keep the decoded message: it owns its storage and
    later datagrams never touch it."""
    from repro.stack.message import Message

    net = open_net(runtime, 2, BASE_PORT + 120)
    net.attach(0, lambda pkt: None)
    kept = []
    net.attach(1, lambda pkt: kept.append(pkt.payload))
    ep = net._make_endpoint(0)
    for i in range(5):
        m = Message(sender=0, mid=(0, i), body=("body", i), body_size=8)
        ep.unicast(1, m, m.size_bytes)
    runtime.run_for(0.3)
    assert [m.body for m in kept] == [("body", i) for i in range(5)]


def test_hostile_datagrams_only_move_counters(runtime):
    """Garbage, a retired frame version and a frame for another node
    arrive on a real socket: each is counted, none is delivered, and
    the next good datagram still is."""
    import socket

    from repro.obs.bus import Bus

    net = open_net(runtime, 3, BASE_PORT + 130)
    bus = Bus(clock=runtime, enabled=True)
    net.instrument(bus)
    received = collect(net, runtime)
    good = net.codec.encode(0, 1, "good")
    retired = bytearray(good)
    retired[1] = 1
    hostile = [
        b"\x00garbage",
        good[:-2],
        bytes(retired),
        net.codec.encode(0, 2, "for node 2"),
        good + b"junk",
    ]
    with socket.socket(socket.AF_INET, socket.SOCK_DGRAM) as sock:
        for data in hostile + [good]:
            sock.sendto(data, (net.host, net.base_port + 1))
    runtime.run_for(0.2)
    assert [p.payload for p in received[1]] == ["good"]
    assert received[0] == [] and received[2] == []
    stats = net.stats.as_dict()
    assert stats["undecodable"] == 4
    assert {k: v for k, v in stats.items() if k.startswith("undecodable.")} == {
        "undecodable.magic": 1,
        "undecodable.truncated": 1,
        "undecodable.version": 1,
        "undecodable.trailing": 1,
    }
    assert stats["misrouted"] == 1
    assert stats["deliveries"] == 1
    assert net.codec.stats.get("undecodable.version") == 1
    counters = bus.metrics.snapshot().counters
    assert counters["net.undecodable.version"] == 1
    assert counters["net.misrouted"] == 1
    assert counters["codec.undecodable.version"] == 1


def test_a_bug_in_delivery_code_is_not_booked_as_a_bad_datagram(runtime):
    net = open_net(runtime, 2, BASE_PORT + 140)

    def broken(pkt):
        raise RuntimeError("receiver bug")

    net.attach(1, broken)
    with pytest.raises(RuntimeError, match="receiver bug"):
        net._on_datagram(1, net.codec.encode(0, 1, "x"))
    assert net.stats.get("undecodable") == 0
