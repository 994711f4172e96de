"""Differential test: the rewritten ptp hop path vs its frozen reference.

One randomly generated script — sends, multicasts, ``set_faults`` swaps,
in-place plan edits, ``fail_node``/``recover_node``, a mid-run detach —
is replayed on :class:`PointToPointNetwork` and on the pre-rewrite hop
path kept in ``_ptp_reference.py``.  The rewrite removed redundant work
only, so both must produce the identical ``(arrival time, src, dst,
payload id)`` sequence, identical ``stats``, identical intercept calls
(with the real mux channel) and leave the RNG in the identical state.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.faults import Crash, FaultDecision, FaultPlan, LinkFaults, Partition
from repro.net.ptp import LatencyMatrix, PointToPointNetwork
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.message import Message

from ._ptp_reference import ReferencePtpNetwork

NODES = 4
HORIZON = 0.05
STEP = 1e-3  # script times sit on this grid, so sends, crash edges and
# partition edges coincide constantly

nodes = st.integers(0, NODES - 1)
instants = st.integers(0, int(HORIZON / STEP)).map(lambda k: k * STEP)
rates = st.sampled_from([0.0, 0.0, 0.2, 0.5])
jitters = st.sampled_from([0.0, 0.0, 2e-3])


@st.composite
def windows(draw):
    start = draw(instants)
    return start, start + draw(st.integers(1, 20)) * STEP


@st.composite
def partitions(draw):
    start, end = draw(windows())
    side = draw(st.sets(nodes, min_size=1, max_size=NODES - 1))
    rest = set(range(NODES)) - side
    # Sometimes leave a node out of every group: total isolation.
    if len(rest) > 1 and draw(st.booleans()):
        rest.pop()
    return Partition.split(start, end, side, rest)


@st.composite
def crashes(draw):
    start, end = draw(windows())
    return Crash(draw(nodes), start, draw(st.sampled_from([end, float("inf")])))


link_faults = st.sampled_from([
    LinkFaults(loss_rate=0.6),
    LinkFaults(duplicate_rate=0.6),
    LinkFaults(reorder_jitter=3e-3),
    LinkFaults(loss_rate=0.0, duplicate_rate=0.0),  # a link the plan spares
    LinkFaults(0.4, 0.4, 1e-3),
])

#: What the scripted intercept does to a copy, keyed on
#: ``(src + dst + channel) % 4``; ``None`` falls through to the plan.
VERDICTS = (
    None,
    FaultDecision(drop=True),
    None,
    FaultDecision(duplicates=2, extra_delay=1.5e-3),
)


KNOBS = (
    "loss_rate", "duplicate_rate", "reorder_jitter", "partitions", "crashes",
    "links", "channels", "intercept",
)


@st.composite
def plans(draw):
    """A description of a plan; :func:`build_plan` makes one per network
    so in-place edits on one side cannot leak to the other.

    Only the knobs in a small random subset are set: the rewrite's risk
    is a plan with a *single* live field being mistaken for an inert one,
    so sparse plans (and the empty plan) must be the common draw."""
    live = draw(st.sets(st.sampled_from(KNOBS), max_size=3))
    if "channels" in live and live.isdisjoint(KNOBS[:3]):
        # A channel filter shows only on a plan with a rate to filter.
        live.add(draw(st.sampled_from(KNOBS[:3])))

    def knob(name, strategy, off):
        return draw(strategy) if name in live else off

    return dict(
        loss_rate=knob("loss_rate", st.sampled_from([0.2, 0.5]), 0.0),
        duplicate_rate=knob("duplicate_rate", st.sampled_from([0.2, 0.5]), 0.0),
        reorder_jitter=knob("reorder_jitter", st.just(2e-3), 0.0),
        partitions=knob("partitions", st.lists(partitions(), min_size=1, max_size=2), []),
        crashes=knob("crashes", st.lists(crashes(), min_size=1, max_size=2), []),
        links=knob(
            "links",
            st.dictionaries(st.tuples(nodes, nodes), link_faults, min_size=2, max_size=8),
            {},
        ),
        channels=knob(
            "channels", st.sampled_from([frozenset({0}), frozenset({1, 2})]), None
        ),
        intercept="intercept" in live,
    )


def build_plan(spec, seen):
    def intercept(time, src, dst, channel, payload):
        seen.append((time, src, dst, channel, payload.mid))
        return VERDICTS[(src + dst + (channel or 0)) % 4]

    return FaultPlan(
        loss_rate=spec["loss_rate"],
        duplicate_rate=spec["duplicate_rate"],
        reorder_jitter=spec["reorder_jitter"],
        partitions=list(spec["partitions"]),
        crashes=list(spec["crashes"]),
        links=dict(spec["links"]),
        channels=spec["channels"],
        intercept=intercept if spec["intercept"] else None,
    )


sends = st.tuples(
    st.just("send"), nodes, st.lists(nodes, min_size=1, max_size=NODES),
    st.sampled_from([None, 0, 1, 2]),  # mux channel; None = untagged payload
)
ops = st.one_of(
    sends,
    sends,
    sends,
    st.tuples(st.just("set_faults"), plans()),
    st.tuples(st.just("edit_rates"), rates, rates, jitters),
    st.tuples(st.just("edit_crash"), crashes()),
    st.tuples(st.just("clear_crashes")),
    st.tuples(st.just("fail"), nodes),
    st.tuples(st.just("recover"), nodes),
    st.tuples(st.just("detach"), nodes),
)
scripts = st.lists(st.tuples(instants, ops), min_size=1, max_size=40)


def replay(network_cls, first_plan, script, seed):
    sim = Simulator()
    seen = []  # every intercept call, whichever plan it came from
    latency = LatencyMatrix(NODES, base_latency=1e-3)
    latency.set(0, 1, 2.5e-3)
    network = network_cls(
        sim, NODES, latency=latency, faults=build_plan(first_plan, seen),
        rng=RandomStreams(seed),
    )
    arrivals = []
    endpoints = [
        network.attach(
            node,
            lambda packet: arrivals.append(
                (sim.now, packet.src, packet.dst, packet.payload.mid, packet.sent_at)
            ),
        )
        for node in range(NODES)
    ]
    mids = iter(range(10**6))

    def apply(op):
        kind = op[0]
        if kind == "send":
            __, src, dsts, channel = op
            msg = Message(src, (src, next(mids)), b"x", 1)
            if channel is not None:
                msg = msg.with_header("mux", channel, 2)
            if len(dsts) == 1:
                endpoints[src].unicast(dsts[0], msg, 10, group=7)
            else:
                endpoints[src].multicast(dsts, msg, 10, group=7)
        elif kind == "set_faults":
            network.set_faults(build_plan(op[1], seen))
        elif kind == "edit_rates":
            plan = network.faults
            plan.loss_rate, plan.duplicate_rate, plan.reorder_jitter = op[1:]
        elif kind == "edit_crash":
            network.faults.crashes.append(op[1])
        elif kind == "clear_crashes":
            network.faults.crashes.clear()
        elif kind == "fail":
            network.fail_node(op[1])
        elif kind == "recover":
            network.recover_node(op[1])
        elif kind == "detach" and network.is_attached(op[1]):
            network.detach(op[1])

    for time, op in script:
        sim.schedule_at(time, lambda op=op: apply(op))
    sim.run()
    return arrivals, network.stats.as_dict(), seen, network._rng.getstate()


@settings(max_examples=200, deadline=None)
@given(first_plan=plans(), script=scripts, seed=st.integers(0, 3))
def test_hop_path_matches_frozen_reference(first_plan, script, seed):
    expected = replay(ReferencePtpNetwork, first_plan, script, seed)
    actual = replay(PointToPointNetwork, first_plan, script, seed)
    assert actual[0] == expected[0]  # (time, src, dst, payload id, sent_at)
    assert actual[1] == expected[1]  # network.stats
    assert actual[2] == expected[2]  # intercept saw the same copies and channels
    assert actual[3] == expected[3]  # random.Random.getstate()


def test_a_busy_script_exercises_every_counter():
    """Guard the guard: a fixed script on which every ``stats`` key the
    hop path can produce is non-zero, so the property test above is not
    vacuously comparing empty counters."""
    plan = dict(
        loss_rate=0.3, duplicate_rate=0.5, reorder_jitter=2e-3, partitions=[],
        crashes=[Crash(3, 0.004, 0.006)], links={}, channels=None, intercept=True,
    )
    script = [(k * STEP, ("send", k % NODES, [0, 1, 2, 3], k % 3)) for k in range(40)]
    script += [
        (0.010, ("fail", 1)), (0.020, ("recover", 1)), (0.030, ("detach", 2)),
    ]
    script.sort(key=lambda entry: entry[0])
    expected = replay(ReferencePtpNetwork, plan, script, 1)
    actual = replay(PointToPointNetwork, plan, script, 1)
    assert actual == expected
    assert set(actual[1]) == {
        "sends", "deliveries", "drops", "crash_drops", "duplicates",
        "dead_letters", "node_failures", "node_recoveries",
    }
    channels = {call[3] for call in actual[2]}
    assert channels == {0, 1, 2}  # the intercept got the real mux channel
