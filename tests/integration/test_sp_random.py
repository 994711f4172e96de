"""Property-based integration tests: the SP's §2 contract under
randomized workloads, switch times, and fault plans.

The invariants checked on every randomized execution:

1. **Agreement under total order** — all members deliver identical
   sequences when the slots are total-order protocols.
2. **Old-before-new** — no member delivers a new-protocol message before
   its last old-protocol message (checked via epoch tagging).
3. **Exactly-once** — no loss, no duplication, across loss/reorder
   faults (with reliable slots) and any number of switches.
4. **Convergence** — every member ends on the same protocol, with empty
   buffers, in NORMAL mode.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from helpers import switch_group
from repro.core.switchable import ProtocolSpec
from repro.net.faults import FaultPlan
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer


def order_specs():
    return [
        ProtocolSpec("seq", lambda r: [SequencerLayer(), ReliableLayer()]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer(), ReliableLayer()]),
    ]


@st.composite
def scenario(draw):
    return {
        "seed": draw(st.integers(0, 10_000)),
        "group_size": draw(st.integers(2, 5)),
        "n_messages": draw(st.integers(1, 25)),
        "switch_times": draw(
            st.lists(st.floats(0.005, 0.25), min_size=0, max_size=3)
        ),
        "variant": draw(st.sampled_from(["token", "broadcast"])),
        "loss": draw(st.sampled_from([0.0, 0.0, 0.1])),
    }


@given(scenario())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_sp_contract_randomized(params):
    if params["variant"] == "broadcast" and len(params["switch_times"]) > 1:
        # The broadcast variant does not serialize initiations; keep at
        # most one switch for it (the token variant handles several).
        params["switch_times"] = params["switch_times"][:1]

    faults = FaultPlan(loss_rate=params["loss"]) if params["loss"] else None
    sim, stacks, log = switch_group(
        params["group_size"],
        order_specs(),
        "seq",
        params["variant"],
        faults=faults,
        seed=params["seed"],
    )
    n = params["group_size"]

    # Tag each cast with the epoch (protocol) it was sent under, observed
    # at cast time at the sending stack.
    for i in range(params["n_messages"]):
        when = 0.002 * (i + 1)

        def cast(i=i, when=when):
            sender = stacks[i % n]
            sender.cast((sender.core.send_slot, i), 64)

        sim.schedule_at(when, cast)

    targets = ["tok", "seq", "tok"]
    for idx, when in enumerate(sorted(params["switch_times"])):
        sim.schedule_at(
            when,
            lambda t=targets[idx % len(targets)], idx=idx: stacks[
                idx % n
            ].request_switch(t),
        )

    sim.run_until(30.0)

    # 4. Convergence.
    finals = {s.current_protocol for s in stacks.values()}
    assert len(finals) == 1
    assert all(not s.switching for s in stacks.values())
    assert all(s.core.buffered_count == 0 for s in stacks.values())

    # 3. Exactly-once: every member delivered every message once.
    for rank in range(n):
        indices = sorted(i for (__, i) in log.bodies(rank))
        assert indices == list(range(params["n_messages"]))

    # 1. Agreement: identical sequences (slots are total order).
    assert log.all_agree()

    # 2. Old-before-new: per member, for each consecutive delivery pair,
    # a message sent under a protocol never follows one sent under a
    # protocol that was switched *to* later.  With epochs seq->tok->seq
    # tags can repeat, so check at epoch-transition granularity: the
    # delivered tag sequence must have at most as many tag *changes* as
    # switches completed.
    switches = next(iter(stacks.values())).core.switches_completed
    tags = [tag for (tag, __) in log.bodies(0)]
    changes = sum(1 for a, b in zip(tags, tags[1:]) if a != b)
    assert changes <= switches
