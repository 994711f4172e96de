"""Differential test: events per frame vs events per receiver.

Without jitter every surviving copy of a frame reaches its NIC at the
same instant, and :class:`EthernetNetwork` schedules them as one arrival
event; the receivers whose CPUs then finish the frame at the same
instant share one completion event.  The frozen per-receiver path lives
in ``_ethernet_reference.py``; one random script replayed on both must
give the identical ``(delivery time, src, dst, payload)`` sequence,
sniffer log, ``stats``, medium and CPU accounting and RNG state —
including the corners where the batching could show: ``propagation ==
0`` (the arrival runs inline, between loss draws on the old path),
``cpu_recv == 0`` (deliveries land at the arrival instant itself), loss,
an unattached receiver, a receiver detached mid-run (its queued copy
raises and ends the run at the same delivery) and jitter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.ethernet import EthernetNetwork, EthernetParams
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams

from ._ethernet_reference import ReferenceEthernetNetwork

NODES = 5
STEP = 0.5e-3

nodes = st.integers(0, NODES - 1)
params = st.fixed_dictionaries(dict(
    propagation=st.sampled_from([0.0, 100e-6]),
    cpu_send=st.sampled_from([0.0, 0.8e-3]),
    cpu_recv=st.sampled_from([0.0, 0.8e-3]),
    loss_rate=st.sampled_from([0.0, 0.3]),
    jitter=st.sampled_from([0.0, 0.0, 50e-6]),
))
ops = st.one_of(
    st.tuples(st.just("send"), nodes, st.lists(nodes, min_size=1, max_size=NODES + 1)),
    st.tuples(st.just("send"), nodes, st.lists(nodes, min_size=1, max_size=NODES + 1)),
    st.tuples(st.just("cpu_work"), nodes),
    st.tuples(st.just("set_loss"), st.sampled_from([0.0, 0.5])),
    st.tuples(st.just("detach"), nodes),
)
scripts = st.lists(
    st.tuples(st.integers(0, 20).map(lambda k: k * STEP), ops), min_size=1, max_size=25
)


def replay(network_cls, knobs, script, sniff, unattached, nodes=NODES):
    """Run ``script``; return the observable outcome and the event count.

    A :class:`NetworkError` (a copy delivered to a detached node) ends
    the run: the outcome holds the log up to it and the exception type.
    """
    sim = Simulator()
    network = network_cls(sim, nodes, EthernetParams(**knobs), rng=RandomStreams(3))
    log = []
    endpoints = {}
    for node in range(nodes):
        if node == unattached:
            continue
        endpoints[node] = network.attach(
            node,
            lambda packet: log.append(
                ("rx", sim.now, packet.src, packet.dst, packet.payload, packet.sent_at)
            ),
        )
    if sniff:
        network.attach_sniffer(
            lambda packet: log.append(("sniff", sim.now, packet.src, packet.dst, packet.payload))
        )
    payloads = iter(range(10**6))

    def apply(op):
        if op[0] == "send" and op[1] in endpoints:
            endpoints[op[1]].multicast(op[2], next(payloads), 200, group=2)
        elif op[0] == "cpu_work":
            network.cpu_work(op[1], 0.3e-3, lambda: log.append(("work", sim.now, op[1])))
        elif op[0] == "set_loss":
            network.params.loss_rate = op[1]
        elif op[0] == "detach" and network.is_attached(op[1]):
            network.detach(op[1])

    for time, op in script:
        sim.schedule_at(time, lambda op=op: apply(op))
    raised = None
    try:
        sim.run()
    except NetworkError as error:
        raised = type(error)
    return (
        log,
        network.stats.as_dict(),
        network.medium.busy_time,
        [cpu.busy_time for cpu in network.cpus],
        network._rng.getstate(),
        raised,
    ), sim.events_processed


@settings(max_examples=150, deadline=None)
@given(
    knobs=params, script=scripts, sniff=st.booleans(),
    unattached=st.sampled_from([None, None, 4]),
)
def test_frame_arrival_matches_per_receiver_reference(knobs, script, sniff, unattached):
    expected, ref_events = replay(ReferenceEthernetNetwork, knobs, script, sniff, unattached)
    actual, events = replay(EthernetNetwork, knobs, script, sniff, unattached)
    assert actual == expected
    assert events <= ref_events


def test_lossy_zero_cost_fanout_with_a_sniffer():
    """The corner the batching is most exposed in, pinned: loss draws
    interleaved with inline arrivals on the old path (``propagation ==
    0``), deliveries at the arrival instant (``cpu_recv == 0``)."""
    knobs = dict(propagation=0.0, cpu_send=0.0, cpu_recv=0.0, loss_rate=0.3, jitter=0.0)
    script = [(k * STEP, ("send", k % NODES, list(range(NODES)))) for k in range(20)]
    expected, __ = replay(ReferenceEthernetNetwork, knobs, script, True, None)
    actual, __ = replay(EthernetNetwork, knobs, script, True, None)
    assert actual == expected
    assert actual[1]["drops"] > 0 and actual[1]["deliveries"] > 20


def test_one_arrival_and_one_completion_event_per_frame():
    knobs = dict(propagation=100e-6, cpu_send=0.0, cpu_recv=0.0, loss_rate=0.0, jitter=0.0)
    script = [(0.0, ("send", 0, [1, 2, 3, 4]))]
    expected, ref_events = replay(ReferenceEthernetNetwork, knobs, script, False, None)
    actual, events = replay(EthernetNetwork, knobs, script, False, None)
    assert actual == expected
    # Script, sender CPU, wire, then per receiver an arrival and a
    # completion (4 + 4) against one arrival and one completion.
    assert (ref_events, events) == (11, 5)


def test_busy_receiver_gets_its_own_later_completion_event():
    """Node 3 is still working when the frame lands, so its CPU finishes
    the frame after the others': two completion events, and node 3's
    delivery comes last, as on the per-receiver path."""
    knobs = dict(propagation=100e-6, cpu_send=0.0, cpu_recv=0.8e-3, loss_rate=0.0, jitter=0.0)
    script = [(0.0, ("cpu_work", 3)), (0.0, ("send", 0, [1, 2, 3, 4]))]
    expected, ref_events = replay(ReferenceEthernetNetwork, knobs, script, False, None)
    actual, events = replay(EthernetNetwork, knobs, script, False, None)
    assert actual == expected
    received = [entry[3] for entry in actual[0] if entry[0] == "rx"]
    assert received == [1, 2, 4, 3]
    assert (ref_events, events) == (13, 8)


def test_multicast_events_do_not_grow_with_fan_out():
    knobs = dict(propagation=100e-6, cpu_send=0.8e-3, cpu_recv=0.8e-3, loss_rate=0.0, jitter=0.0)
    counts = []
    for size in (5, 50):
        script = [(0.0, ("send", 0, list(range(1, size))))]
        (log, *__), events = replay(EthernetNetwork, knobs, script, False, None, nodes=size)
        assert len(log) == size - 1
        counts.append(events)
    assert counts == [5, 5]
