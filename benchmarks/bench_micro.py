"""Microbenchmarks of the substrate: event engine, network models,
protocol layers, and the SP itself.

These are classic pytest-benchmark kernels (multiple rounds) — useful
for catching performance regressions in the simulator that would make
the paper-scale experiments (minutes of simulated time, hundreds of
thousands of events) impractically slow.
"""


from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.net.codec import WireCodec
from repro.net.ethernet import EthernetNetwork, EthernetParams
from repro.net.faults import FaultPlan
from repro.net.ptp import PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.runtime import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group
from repro.stack.message import Message
from repro.stack.stack import build_group


def test_engine_event_throughput(benchmark):
    """Schedule+fire throughput of the event queue."""
    benchmark.extra_info["runtime"] = "engine"

    def run():
        sim = Simulator()

        def chain(n):
            if n:
                sim.schedule(1e-6, lambda: chain(n - 1))

        chain(10_000)
        sim.run()
        return sim.events_processed

    assert benchmark(run) == 10_000


def test_runtime_boundary_event_throughput(benchmark):
    """The same 10k-event chain through the SimRuntime adapter.

    Compare against ``test_engine_event_throughput``: the difference is
    the whole cost of the runtime boundary (one extra delegating call
    per schedule), which must stay in the noise.
    """
    benchmark.extra_info["runtime"] = SimRuntime.name

    def run():
        runtime = SimRuntime()

        def chain(n):
            if n:
                runtime.schedule(1e-6, lambda: chain(n - 1))

        chain(10_000)
        runtime.run()
        return runtime.events_processed

    assert benchmark(run) == 10_000


def test_engine_cancellation_churn(benchmark):
    """Armed-then-cancelled retransmit-timer pattern of long chaos runs.

    Each iteration arms a timer far in the future, cancels the previous
    one, and polls ``pending()`` — the hot loop of a reliable layer under
    load.  Before the counted-cancellation fast path this left every dead
    timer in the heap (O(n) growth) and made each ``pending()`` call an
    O(n) scan; with compaction + the live counter the whole kernel is
    O(n log c) for a bounded heap size c.
    """
    benchmark.extra_info["runtime"] = "engine"

    def run():
        sim = Simulator()
        armed = None
        polled = 0
        for i in range(20_000):
            if armed is not None:
                armed.cancel()
            armed = sim.schedule(1000.0 + i * 1e-6, lambda: None)
            polled += sim.pending()
        # The heap stayed bounded: all but the final timer were cancelled
        # and compaction reclaimed the dead entries.
        assert sim.footprint() < 20_000
        assert sim.pending() == 1
        return polled

    assert benchmark(run) == 20_000


def test_ethernet_multicast_throughput(benchmark):
    """1000 ten-member multicasts through the shared-medium model."""

    def run():
        sim = Simulator()
        net = EthernetNetwork(sim, 10, EthernetParams(), rng=RandomStreams(0))
        group = Group.of_size(10)
        stacks = build_group(sim, net, group, lambda r: [])
        count = [0]
        for stack in stacks.values():
            stack.on_deliver(lambda m: count.__setitem__(0, count[0] + 1))
        for i in range(1000):
            sim.schedule_at(i * 1e-4, lambda i=i: stacks[i % 10].cast(i, 1024))
        sim.run()
        return count[0]

    assert benchmark(run) == 10_000


def test_sequencer_ordering_throughput(benchmark):
    def run():
        sim = Simulator()
        net = PointToPointNetwork(sim, 5, rng=RandomStreams(0))
        group = Group.of_size(5)
        stacks = build_group(sim, net, group, lambda r: [SequencerLayer()])
        delivered = [0]
        stacks[4].on_deliver(lambda m: delivered.__setitem__(0, delivered[0] + 1))
        for i in range(500):
            stacks[i % 5].cast(i, 64)
        sim.run()
        return delivered[0]

    assert benchmark(run) == 500


def test_token_ring_throughput(benchmark):
    def run():
        sim = Simulator()
        net = PointToPointNetwork(sim, 5, rng=RandomStreams(0))
        group = Group.of_size(5)
        stacks = build_group(sim, net, group, lambda r: [TokenRingLayer()])
        delivered = [0]
        stacks[4].on_deliver(lambda m: delivered.__setitem__(0, delivered[0] + 1))
        for i in range(500):
            stacks[i % 5].cast(i, 64)
        sim.run_until(5.0)
        return delivered[0]

    assert benchmark(run) == 500


def test_reliable_layer_under_loss(benchmark):
    """Recovery machinery cost: 200 messages across a 20%-lossy net."""

    def run():
        sim = Simulator()
        net = PointToPointNetwork(
            sim, 4, faults=FaultPlan(loss_rate=0.2), rng=RandomStreams(1)
        )
        group = Group.of_size(4)
        stacks = build_group(sim, net, group, lambda r: [ReliableLayer()])
        delivered = [0]
        stacks[3].on_deliver(lambda m: delivered.__setitem__(0, delivered[0] + 1))
        for i in range(200):
            sim.schedule_at(i * 1e-3, lambda i=i: stacks[i % 4].cast(i, 64))
        sim.run_until(10.0)
        return delivered[0]

    assert benchmark(run) == 200


def test_switch_latency_kernel(benchmark):
    """One full token-SP switch (3 rotations), idle group of 10."""

    def run():
        sim = Simulator()
        net = PointToPointNetwork(sim, 10, rng=RandomStreams(2))
        group = Group.of_size(10)
        specs = [
            ProtocolSpec("A", lambda r: [FifoLayer()]),
            ProtocolSpec("B", lambda r: [FifoLayer()]),
        ]
        stacks = build_group_handle(
            sim, net, group, specs, initial="A", variant="token"
        ).stacks
        stacks[0].request_switch("B")
        sim.run_until(2.0)
        assert all(s.current_protocol == "B" for s in stacks.values())
        return stacks[0].protocol.last_switch_duration

    duration = benchmark(run)
    assert duration is not None


# ---------------------------------------------------------------------------
# Message/codec kernels
# ---------------------------------------------------------------------------

#: (key, value, size): the deep composed stack's header shape.
_HOP_STACK = (
    ("prio", {"k": "data"}, 6),
    ("batch", {"n": 4}, 8),
    ("mux", 3, 2),
    ("conf", "clear", 4),
    ("mac", b"\x00" * 16, 32),
    ("causal", {0: 1, 1: 5, 2: 9}, 24),
    ("rel", {"k": "data", "seq": 41, "dk": "G", "src": 3}, 10),
    ("seqr", {"k": "ord", "gseq": 1041}, 8),
    ("fifo", 41, 4),
)


def _sequencer_data_message():
    return (
        Message(sender=3, mid=(3, 41), body=("payload", 41), body_size=256)
        .with_header("fifo", 41, 4)
        .with_header("seqr", {"k": "ord", "gseq": 1041}, 8)
        .with_header("rel", {"k": "data", "seq": 41, "dk": "G", "src": 3}, 10)
    )


def test_header_push_pop_churn(benchmark):
    """One multicast hop through 9 layers, popped at 8 receivers.

    Every push and first pop copies the header dict; pops after the
    first receiver hit the memo (a multicast hands all receivers the
    same object).
    """

    def run():
        msg = Message(sender=3, mid=(3, 41), body="payload", body_size=256)
        for key, value, size in _HOP_STACK:
            msg = msg.with_header(key, value, size)
        msg = msg.with_dest(None)
        total = 0
        for __ in range(8):
            up = msg
            for key, __unused, size in reversed(_HOP_STACK):
                up = up.without_header(key, size)
            total += up.size_bytes
        return total

    # All headers popped: back to body + fixed overhead at every receiver.
    assert benchmark(run) == 8 * (256 + 28)


def test_codec_roundtrip(benchmark):
    """Wire codec round trip of a sequencer data message."""
    codec = WireCodec()
    msg = _sequencer_data_message()

    def run():
        return codec.decode(codec.encode(3, 5, msg))[2]

    back = benchmark(run)
    assert dict(back.headers) == dict(msg.headers)


def test_multicast_encode_fanout(benchmark):
    """Datagram bytes for an 8-destination multicast, encoded once.

    The payload encodes a single time; each destination costs one
    6-byte frame prefix, not a re-serialization of the whole payload.
    """
    codec = WireCodec()
    msg = _sequencer_data_message()

    def run():
        body = codec.encode_payload(msg)
        return [codec.frame(3, dst, body) for dst in range(8)]

    datagrams = benchmark(run)
    assert len(datagrams) == 8
    assert len({d[6:] for d in datagrams}) == 1  # shared body bytes
