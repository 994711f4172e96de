"""Differential test: one arrival event per frame vs one per receiver.

Without jitter every surviving copy of a frame reaches its NIC at the
same instant, and :class:`EthernetNetwork` now schedules them as one
event.  The frozen per-receiver path lives in ``_ethernet_reference.py``;
one random script replayed on both must give the identical ``(delivery
time, src, dst, payload)`` sequence, sniffer log, ``stats``, medium and
CPU accounting and RNG state — including the corners where the batching
could show: ``propagation == 0`` (the arrival runs inline, between loss
draws on the old path), ``cpu_recv == 0`` (deliveries land at the
arrival instant itself), loss, an unattached receiver and jitter.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

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
)
scripts = st.lists(
    st.tuples(st.integers(0, 20).map(lambda k: k * STEP), ops), min_size=1, max_size=25
)


def replay(network_cls, knobs, script, sniff, unattached):
    sim = Simulator()
    network = network_cls(sim, NODES, EthernetParams(**knobs), rng=RandomStreams(3))
    log = []
    endpoints = {}
    for node in range(NODES):
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

    for time, op in script:
        sim.schedule_at(time, lambda op=op: apply(op))
    sim.run()
    return (
        log,
        network.stats.as_dict(),
        network.medium.busy_time,
        [cpu.busy_time for cpu in network.cpus],
        network._rng.getstate(),
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


def test_one_arrival_event_per_frame():
    knobs = dict(propagation=100e-6, cpu_send=0.0, cpu_recv=0.0, loss_rate=0.0, jitter=0.0)
    script = [(0.0, ("send", 0, [1, 2, 3, 4]))]
    __, ref_events = replay(ReferenceEthernetNetwork, knobs, script, False, None)
    __, events = replay(EthernetNetwork, knobs, script, False, None)
    assert ref_events - events == 3  # four receivers, one arrival event
