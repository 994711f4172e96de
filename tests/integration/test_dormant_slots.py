"""A dormant protocol is silent — and loses nothing by it.

The switching core tells a slot when no application send is routed to
it and no delivery is owed from it; the token ring then parks its token
instead of spinning it.  Two things are checked here end to end:

* the idle floor: an unloaded switchable group costs the reliable
  ticks — no free-running second ring, no circulating SP token, and on
  real sockets not one datagram;
* token conservation: over random interleavings of casts, switch
  requests in both directions and a severed control channel (which
  drives the fault-tolerant SP through regeneration, abort, late join
  and reconcile), every cast is still delivered exactly once in one
  order, and at quiescence a dormant ring holds exactly one parked
  token and a live ring none.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import example, given, settings

from helpers import switch_group
from repro.core.switchable import ProtocolSpec
from repro.core.token_switch import FaultToleranceConfig
from repro.net.faults import FaultDecision, FaultPlan
from repro.fleet import GroupManager
from repro.protocols.reliable import ReliableConfig, ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.stack.membership import Group
from repro.workloads.session import Session, check_slot_order, total_order_specs

SLOTS = ("sequencer", "tokenring")


def ring_layers(stacks):
    return {
        rank: stack.find_slot_layer(SLOTS[1], TokenRingLayer)
        for rank, stack in stacks.items()
    }


# ----------------------------------------------------------------------
# The idle floor
# ----------------------------------------------------------------------
def idle_events(specs):
    """Events one unloaded three-member group costs in 5 simulated s."""
    with Session(3, seed=1) as session:
        handle = session.build(Group.of_size(3), specs, specs[0].name)
        session.runtime.run_for(5.0)
        return session.runtime.events_processed, handle.stacks


def test_unloaded_group_costs_the_reliable_ticks_only():
    """At the parent of dormant slots the second ring did ~100 holds
    here (one per ``hold_cost + latency``), each a timer, a datagram and
    an arrival; the SP's own NORMAL token then circulated on top.  Both
    rest now: what is left is the reliable layers' maintenance ticks."""
    events, stacks = idle_events(total_order_specs(SLOTS, hold_cost=0.05))
    layers = ring_layers(stacks)
    assert all(layer.stats.get("holds") <= 1 for layer in layers.values())
    assert sum(layer.parked for layer in layers.values()) == 1
    assert all(
        stack.core.slots[SLOTS[1]].dormant for stack in stacks.values()
    )
    assert [stack.holds_token for stack in stacks.values()] == [True, False, False]
    # The same group with a second slot that never originates anything.
    silent = [
        total_order_specs(SLOTS)[0],
        ProtocolSpec(SLOTS[1], lambda rank: [ReliableLayer()]),
    ]
    floor, __ = idle_events(silent)
    assert events <= floor + 2  # the coordinator's one hold, parked
    # Three members x (two slots + the control channel), one tick each
    # per 25 ms, for 5 s — and not one event more.
    assert floor <= 3 * 3 * round(5.0 / ReliableConfig().tick_interval)


def test_idle_udp_groups_send_no_datagrams_and_still_switch():
    """Real sockets: two groups over eight nodes stay off the wire while
    nobody casts, and a switch asked for at a member that does not hold
    the resting token still fetches it and completes."""
    with Session(8, seed=3, runtime="asyncio", base_port=47710) as session:
        manager = GroupManager(session.runtime, session.network)
        handles = [
            manager.create_group(
                members, total_order_specs(SLOTS), SLOTS[0],
                streams=session.streams.fork(f"group{index}"),
            )
            for index, members in enumerate([(0, 1, 2, 3), (4, 5, 6, 7)])
        ]
        session.runtime.run_for(0.2)  # the ring's first hold parks
        sends = session.network.stats.get("sends")
        session.runtime.run_for(1.0)
        assert session.network.stats.get("sends") == sends
        assert [handle.token_holder for handle in handles] == [0, 4]
        handles[1].request_switch(SLOTS[1], rank=6)
        session.runtime.run_for(1.0)
        assert set(handles[1].current_protocols.values()) == {SLOTS[1]}
        assert set(handles[0].current_protocols.values()) == {SLOTS[0]}
        assert [handle.token_holder for handle in handles] == [0, 6]


# ----------------------------------------------------------------------
# Token conservation under random interleavings
# ----------------------------------------------------------------------
FT_FAST = FaultToleranceConfig(
    hop_timeout=0.01,
    max_hop_retries=2,
    phase_timeout=0.06,
    normal_timeout=0.12,
    abort_after=3,
)

HORIZON = 2.0


def ft_specs():
    return [
        ProtocolSpec(SLOTS[0], lambda r: [SequencerLayer(), ReliableLayer()]),
        ProtocolSpec(SLOTS[1], lambda r: [TokenRingLayer(), ReliableLayer()]),
    ]


@st.composite
def interleaving(draw):
    members = draw(st.integers(3, 4))
    rank = st.integers(0, members - 1)
    when = st.floats(0.01, HORIZON)
    switches = draw(
        st.lists(
            st.tuples(st.floats(0.01, HORIZON - 1.0), rank, st.sampled_from(SLOTS)),
            min_size=1,
            max_size=4,
        )
    )
    # A sever drops what reaches ``victim`` on one mux channel (0 control,
    # 1 sequencer slot, 2 token-ring slot) for a window that opens around
    # a switch request.  A member cut off from the control channel is
    # routed around and reconciles later; one whose old slot is starved
    # cannot drain, and the switch aborts.
    severs = [
        (switches[index % len(switches)][0] + offset, length, channel, victim)
        for index, offset, length, channel, victim in draw(
            st.lists(
                st.tuples(
                    st.integers(0, 3),
                    st.floats(-0.02, 0.05),
                    st.floats(0.05, 1.0),
                    st.sampled_from((0, 1, 2)),
                    rank,
                ),
                max_size=2,
            )
        )
    ]
    return {
        "seed": draw(st.integers(0, 10_000)),
        "members": members,
        "casts": draw(st.lists(st.tuples(when, rank), max_size=24)),
        "switches": switches,
        "severs": severs,
    }


STEADY = {
    "seed": 7,
    "members": 3,
    "casts": [(0.05 * i, i % 3) for i in range(1, 20)],
}


@given(interleaving())
# A starved old slot: the switch aborts; members that had finished revert.
@example(
    {**STEADY, "switches": [(0.3, 0, SLOTS[1])], "severs": [(0.29, 1.0, 1, 2)]}
)
# A member cut off from the control channel misses the switch, reconciles.
@example(
    {**STEADY, "switches": [(0.3, 0, SLOTS[1])], "severs": [(0.29, 0.6, 0, 2)]}
)
# Both, in opposite directions, back to back.
@example(
    {
        **STEADY,
        "switches": [(0.3, 0, SLOTS[1]), (0.8, 1, SLOTS[0])],
        "severs": [(0.29, 0.3, 0, 1), (0.79, 1.0, 2, 0)],
    }
)
# Tier-1 is a gate, not an explorer: the same 30 draws on every run.
@settings(max_examples=30, deadline=None, derandomize=True)
def test_token_conservation(params):
    check_conservation(params)


#: Member 3's and the coordinator's control channels are cut as member 1
#: asks for the switch; the group quiesces with members on different
#: protocols.
ORDER_SPLIT = {
    "seed": 0,
    "members": 4,
    "casts": [],
    "switches": [(0.5, 1, SLOTS[1])],
    "severs": [(0.5, 1.0, 0, 3), (0.5, 0.5, 0, 0)],
}


@pytest.mark.xfail(
    strict=True,
    reason="switching under loss can leave members on different "
    "protocols (ROADMAP: 'A switch with a bound: make switching under "
    "loss correct, then predictable')",
)
def test_order_split_schedule():
    check_conservation(ORDER_SPLIT)


def check_conservation(params):
    severs = params["severs"]

    def intercept(time, src, dst, channel, payload):
        for start, length, severed, victim in severs:
            if (
                channel == severed
                and start <= time < start + length
                and dst == victim
            ):
                return FaultDecision(drop=True)
        return None

    sim, stacks, log = switch_group(
        params["members"],
        ft_specs(),
        SLOTS[0],
        faults=FaultPlan(intercept=intercept) if severs else None,
        seed=params["seed"],
        fault_tolerance=FT_FAST,
        control_factory=lambda __: [],  # a severed hop is the SP's to survive
    )
    cast_slot = {}
    for index, (when, rank) in enumerate(params["casts"]):

        def cast(index=index, rank=rank):
            stack = stacks[rank]
            slot = stack.core.send_slot
            cast_slot[stack.cast(index, 64)] = slot

        sim.schedule_at(when, cast)
    for when, rank, target in params["switches"]:
        sim.schedule_at(
            when, lambda rank=rank, target=target: stacks[rank].request_switch(target)
        )
    sim.run_until(HORIZON + 4.0)

    def conserved():
        """Quiescent, agreed, and the ring's one token is where the
        core's view of the slot says it should be."""
        assert not any(stack.switching for stack in stacks.values())
        assert len({stack.current_protocol for stack in stacks.values()}) == 1
        for stack in stacks.values():
            for name, slot in stack.core.slots.items():
                assert slot.dormant == (name != stack.current_protocol)
        ring_dormant = stacks[0].current_protocol != SLOTS[1]
        parked = sum(layer.parked for layer in ring_layers(stacks).values())
        assert parked == (1 if ring_dormant else 0)

    conserved()
    # Whatever the faults left behind, the protocol the group agrees on
    # carries traffic: a slot an abort or a reconcile fell back to is awake.
    probes = [f"probe{rank}" for rank in stacks]
    for rank, stack in stacks.items():
        cast_slot[stack.cast(f"probe{rank}", 64)] = stack.core.send_slot
    sim.run_until(sim.now + 1.0)
    for rank in stacks:
        assert sorted(b for b in log.bodies(rank) if b in probes) == probes
    # Visit both protocols once more: casts an abort stranded on the slot
    # it fell back from are delivered when that slot is next switched to.
    for target in (SLOTS[1], SLOTS[0]):
        stacks[0].request_switch(target)
        sim.run_until(sim.now + 3.0)
    conserved()
    assert all(stack.core.buffered_count == 0 for stack in stacks.values())
    assert all(layer.queued == 0 for layer in ring_layers(stacks).values())

    everything = sorted(probes + list(range(len(params["casts"]))), key=str)
    for rank in stacks:
        assert sorted(log.bodies(rank), key=str) == everything
    deliveries = {rank: log.mids(rank) for rank in stacks}
    assert check_slot_order(deliveries, cast_slot, list(stacks), SLOTS) == []
