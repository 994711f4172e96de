"""Integration-style unit tests for both SP variants' choreography."""

import pytest

from helpers import switch_group, tokens_in_play
from repro.core.switchable import ProtocolSpec
from repro.core.token_switch import TokenSwitchProtocol
from repro.errors import SwitchError
from repro.net.faults import FaultPlan
from repro.obs.bus import Bus
from repro.protocols.fifo import FifoLayer
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.stack.layer import Layer
from repro.stack.membership import Group
from repro.workloads.session import Session


def specs_fifo():
    return [
        ProtocolSpec("A", lambda r: [FifoLayer()]),
        ProtocolSpec("B", lambda r: [FifoLayer()]),
    ]


def specs_order():
    return [
        ProtocolSpec("seq", lambda r: [SequencerLayer()]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer()]),
    ]


@pytest.mark.parametrize("variant", ["token", "broadcast"])
class TestBothVariants:
    def test_switch_completes_at_every_member(self, variant):
        sim, stacks, log = switch_group(4, specs_fifo(), "A", variant)
        stacks[1].request_switch("B")
        sim.run_until(1.0)
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert all(not s.switching for s in stacks.values())

    def test_old_before_new_invariant(self, variant):
        sim, stacks, log = switch_group(4, specs_fifo(), "A", variant)
        for i in range(8):
            sim.schedule_at(0.001 * (i + 1), lambda i=i: stacks[i % 4].cast(("old", i), 16))
        sim.schedule_at(0.005, lambda: stacks[0].request_switch("B"))
        for i in range(8):
            sim.schedule_at(0.02 + 0.001 * i, lambda i=i: stacks[i % 4].cast(("new", i), 16))
        sim.run_until(1.0)
        for rank in range(4):
            bodies = log.bodies(rank)
            assert len(bodies) == 16
            epochs = [b[0] for b in bodies]
            assert epochs == ["old"] * 8 + ["new"] * 8

    def test_sends_never_blocked_during_switch(self, variant):
        sim, stacks, log = switch_group(4, specs_fifo(), "A", variant)
        stacks[0].request_switch("B")
        assert all(s.can_send() for s in stacks.values())
        sim.run_until(0.003)
        # mid-switch (some members are switching): still sendable
        assert all(s.can_send() for s in stacks.values())
        sim.run_until(1.0)

    def test_switch_completes_under_loss_with_reliable_slots(self, variant):
        """Section 2's liveness assumption: if the subordinate protocols
        deliver exactly once (our reliable layer over a lossy network),
        switches complete — control channel and data drain both survive
        15% loss."""
        specs = [
            ProtocolSpec("relA", lambda r: [ReliableLayer()]),
            ProtocolSpec("relB", lambda r: [ReliableLayer()]),
        ]
        sim, stacks, log = switch_group(
            4, specs, "relA", variant,
            faults=FaultPlan(loss_rate=0.15), seed=21,
        )
        sim.schedule_at(0.01, lambda: stacks[2].request_switch("relB"))
        for i in range(10):
            sim.schedule_at(
                0.002 * (i + 1), lambda i=i: stacks[i % 4].cast(i, 16)
            )
        sim.run_until(20.0)
        assert all(s.current_protocol == "relB" for s in stacks.values())
        for rank in range(4):
            assert sorted(log.bodies(rank)) == list(range(10))

    def test_total_order_preserved_across_switch(self, variant):
        sim, stacks, log = switch_group(5, specs_order(), "seq", variant)
        for i in range(20):
            sim.schedule_at(0.003 * (i + 1), lambda i=i: stacks[i % 5].cast(i, 64))
        sim.schedule_at(0.030, lambda: stacks[3].request_switch("tok"))
        sim.run_until(2.0)
        assert log.all_agree()
        assert len(log.bodies(0)) == 20

    def test_switch_back_and_forth(self, variant):
        sim, stacks, log = switch_group(3, specs_order(), "seq", variant)
        def cast_burst(t0):
            for i in range(6):
                sim.schedule_at(t0 + 0.002 * i, lambda i=i, t0=t0: stacks[i % 3].cast((t0, i), 64))
        cast_burst(0.001)
        sim.schedule_at(0.02, lambda: stacks[0].request_switch("tok"))
        cast_burst(0.1)
        sim.schedule_at(0.2, lambda: stacks[0].request_switch("seq"))
        cast_burst(0.3)
        sim.run_until(2.0)
        assert all(s.current_protocol == "seq" for s in stacks.values())
        assert log.all_agree()
        assert len(log.bodies(0)) == 18

    def test_global_completion_callback(self, variant):
        sim, stacks, log = switch_group(4, specs_fifo(), "A", variant)
        completions = []
        stacks[2].protocol.on_global_complete(
            lambda sid, duration: completions.append((sid, duration))
        )
        stacks[2].request_switch("B")
        sim.run_until(1.0)
        assert len(completions) == 1
        switch_id, duration = completions[0]
        assert switch_id[0] == 2  # initiated by rank 2
        assert duration > 0


@pytest.mark.parametrize("variant", ["token", "broadcast"])
def test_completion_callbacks_bounded_across_repeated_switches(variant):
    """Regression: the SP variants register per-switch DONE notifications
    on the core; a long adaptive run must not accumulate one callback per
    switch (and pay O(total switches) on every completion)."""
    sim, stacks, log = switch_group(3, specs_fifo(), "A", variant)
    target = "B"
    for i in range(10):
        sim.schedule_at(
            0.5 * (i + 1),
            lambda t=target: stacks[0].request_switch(t),
        )
        target = "A" if target == "B" else "B"
    sim.run_until(8.0)
    assert all(s.core.switches_completed == 10 for s in stacks.values())
    for stack in stacks.values():
        assert stack.core.completion_callback_count <= 2
        assert len(stack.core._completion_callbacks) <= 2


class TestTokenVariantSpecifics:
    def test_concurrent_requests_are_serialized(self):
        """Two members want to switch at once: the NORMAL token serializes
        them — the paper's 'bonus' of the token design."""
        specs = [
            ProtocolSpec("A", lambda r: [FifoLayer()]),
            ProtocolSpec("B", lambda r: [FifoLayer()]),
            ProtocolSpec("C", lambda r: [FifoLayer()]),
        ]
        sim, stacks, log = switch_group(4, specs, "A", "token")
        stacks[1].request_switch("B")
        stacks[2].request_switch("C")
        sim.run_until(2.0)
        # Both eventually served; the final protocol is C (B first or C
        # first, then the other's stale/valid request resolves).
        finals = {s.current_protocol for s in stacks.values()}
        assert len(finals) == 1
        assert finals.pop() in ("B", "C")
        total = sum(s.core.switches_completed for s in stacks.values())
        assert total % 4 == 0 and total > 0

    def test_request_for_current_protocol_is_cancelled(self):
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "token")
        stacks[0].request_switch("A")
        sim.run_until(0.5)
        assert stacks[0].core.switches_completed == 0
        assert stacks[0].protocol.pending_request is None

    def test_unknown_target_rejected(self):
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "token")
        with pytest.raises(SwitchError):
            stacks[0].request_switch("nope")

    def test_quiet_group_sends_nothing(self):
        """Outside a switch the token rests: ten idle seconds cost one
        first reliable tick per control channel and not one packet."""
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "token")
        sim.run_until(10.0)
        for stack in stacks.values():
            assert stack.port.stats.get("unicast") == 0
            assert stack.port.stats.get("multicast") == 0
            assert stack.protocol.stats.get("normal_tokens") == 0
        assert [s.holds_token for s in stacks.values()] == [True, False, False]
        assert sim.events_processed == 3

    def test_three_rotations_per_switch(self):
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "token")
        stacks[0].request_switch("B")
        sim.run_until(1.0)
        initiator = stacks[0].protocol
        assert initiator.stats.get("initiated") == 1
        assert initiator.stats.get("vector_built") == 1
        assert initiator.stats.get("globally_complete") == 1
        # Non-initiators each prepared exactly once.
        for rank in (1, 2):
            assert stacks[rank].protocol.stats.get("prepared") == 1


class ControlTap(Layer):
    """The whole control stack of a member: logs what the SP sends."""

    name = "tap"

    def __init__(self, sent):
        super().__init__()
        self.sent = sent

    def send(self, msg):
        self.sent.append((self.ctx.rank, msg.dest, msg.body))
        self.send_down(msg)


def tapped_group(num, specs=None):
    """A token-variant group on a bare, tapped control channel: every
    control-channel send of every member, in order."""
    sent = []
    sim, stacks, log = switch_group(
        num, specs or specs_abc(), "A", "token",
        control_factory=lambda rank: [ControlTap(sent)],
    )
    return sim, stacks, sent


def specs_abc():
    return [ProtocolSpec(name, lambda r: [FifoLayer()]) for name in "ABC"]


def initiations(sent):
    """``(initiator, target)`` of every switch, from the PREPARE tokens."""
    return [
        (rank, body[3]) for rank, __, body in sent
        if body[0] == "prepare" and rank == body[1][0]
    ]


def run_conserved(sim, stacks, until):
    while sim.now < until and sim.step():
        assert tokens_in_play(stacks) == 1
    assert tokens_in_play(stacks) == 1


class TestTokenAtRest:
    def test_request_at_the_resting_member_starts_with_prepare(self):
        sim, stacks, sent = tapped_group(3)
        stacks[0].request_switch("B")
        assert sent == []  # never under the caller: the next scheduler turn
        run_conserved(sim, stacks, 1.0)
        assert sent[0][2][0] == "prepare"
        kinds = {body[0] for __, __, body in sent}
        assert kinds == {"prepare", "switch", "flush"}
        assert len(sent) == 9  # three rotations of three hops
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert stacks[0].holds_token

    def test_request_at_a_non_holder_costs_one_want_and_one_handover(self):
        sim, stacks, sent = tapped_group(3)
        stacks[2].request_switch("B")
        run_conserved(sim, stacks, 1.0)
        assert sent[0] == (2, None, ("want", "B"))
        assert sent[1] == (0, (2,), ("normal",))
        assert sent[2][0] == 2 and sent[2][2][0] == "prepare"
        kinds = [body[0] for __, __, body in sent]
        assert kinds.count("want") == 1 and kinds.count("normal") == 1
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert [s.holds_token for s in stacks.values()] == [False, False, True]
        assert stacks[2].protocol.stats.get("wants_sent") == 1
        assert stacks[0].protocol.stats.get("handovers") == 1
        assert stacks[2].protocol.stats.get("normal_tokens") == 1

    def test_repeating_a_pending_request_is_not_announced_twice(self):
        sim, stacks, sent = tapped_group(3)
        stacks[2].request_switch("B")
        stacks[2].request_switch("B")
        assert [body[0] for __, __, body in sent] == ["want"]

    def test_concurrent_wanters_are_served_one_after_the_other(self):
        sim, stacks, sent = tapped_group(4)
        stacks[1].request_switch("B")
        stacks[2].request_switch("C")
        run_conserved(sim, stacks, 2.0)
        # Ring order after the holder: rank 1 first, then rank 2.
        assert initiations(sent) == [(1, "B"), (2, "C")]
        assert all(s.current_protocol == "C" for s in stacks.values())
        assert all(s.core.switches_completed == 2 for s in stacks.values())
        assert sum(s.protocol.stats.get("handovers") for s in stacks.values()) == 2
        assert stacks[2].holds_token

    def test_want_arriving_mid_switch_is_served_after_flush_returns(self):
        sim, stacks, sent = tapped_group(3)
        stacks[0].request_switch("B")
        sim.schedule_at(0.002, lambda: stacks[2].request_switch("C"))
        run_conserved(sim, stacks, 2.0)
        kinds = [body[0] for __, __, body in sent]
        handover = kinds.index("normal")
        assert kinds.index("want") < handover
        assert max(i for i, k in enumerate(kinds[:handover]) if k == "flush") == handover - 1
        assert kinds[handover + 1] == "prepare"
        assert all(s.current_protocol == "C" for s in stacks.values())

    def test_mid_switch_request_for_the_protocol_being_left_is_kept(self):
        """Rank 1, already switching A→B, asks to go back to A; rank 2's
        want arriving meanwhile must not cancel it as 'already current'."""
        sim, stacks, sent = tapped_group(3)
        stacks[0].request_switch("B")

        def back_to_a():
            assert stacks[1].switching
            stacks[1].request_switch("A")
            stacks[2].request_switch("C")

        sim.schedule_at(0.0015, back_to_a)
        run_conserved(sim, stacks, 2.0)
        assert initiations(sent) == [(0, "B"), (1, "A"), (2, "C")]
        assert all(s.current_protocol == "C" for s in stacks.values())

    def test_stale_want_does_not_move_the_token(self):
        """Rank 2 asks for what rank 0's switch already delivers."""
        sim, stacks, sent = tapped_group(3)
        stacks[0].request_switch("B")
        stacks[2].request_switch("B")
        run_conserved(sim, stacks, 2.0)
        assert "normal" not in [body[0] for __, __, body in sent]
        assert stacks[0].holds_token
        assert stacks[0].protocol.stats.get("stale_wants_dropped") == 1
        assert stacks[2].protocol.pending_request is None
        assert all(s.core.switches_completed == 1 for s in stacks.values())
        # Asking for it again after the group moved on is a fresh want.
        stacks[0].request_switch("A")
        run_conserved(sim, stacks, 3.0)
        stacks[2].request_switch("B")
        run_conserved(sim, stacks, 4.0)
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert stacks[2].holds_token

    def test_request_after_stop_sends_nothing(self):
        sim, stacks, sent = tapped_group(3)
        for rank in (0, 1):
            stacks[rank].protocol.stop()
            stacks[rank].request_switch("B")
        sim.run_until(1.0)
        assert sent == []
        assert all(s.current_protocol == "A" for s in stacks.values())
        for rank in (0, 1):
            assert stacks[rank].protocol.stats.get("dropped_after_stop") == 1
            assert stacks[rank].protocol.pending_request is None

    def test_rest_want_and_handover_are_bus_events(self):
        bus = Bus(enabled=True)
        with Session(3, seed=1, bus=bus) as session:
            handle = session.build(Group.of_size(3), specs_fifo(), "A")
            handle.request_switch("B", rank=1)
            session.runtime.run_for(1.0)
            names = [e.name for e in bus.events if e.name.startswith("token/")]
        assert names[:3] == ["token/rest", "token/want", "token/handover"]
        assert names[-1] == "token/rest"
        assert handle.token_holder == 1


class TestBroadcastVariantSpecifics:
    def test_overlapping_initiations_rejected(self):
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "broadcast")
        stacks[0].request_switch("B")
        with pytest.raises(SwitchError):
            stacks[0].request_switch("B")

    def test_switch_to_current_rejected(self):
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "broadcast")
        with pytest.raises(SwitchError):
            stacks[0].request_switch("A")

    def test_switch_duration_recorded(self):
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "broadcast")
        stacks[1].request_switch("B")
        sim.run_until(1.0)
        assert stacks[1].protocol.last_switch_duration is not None
        assert stacks[1].protocol.last_switch_duration > 0

    def test_duplicate_ok_does_not_rebroadcast_switch(self):
        """Regression: a late/retransmitted OK arriving after the member
        set is complete must not re-send the SWITCH vector."""
        sim, stacks, log = switch_group(3, specs_fifo(), "A", "broadcast")
        manager = stacks[0].protocol
        stacks[0].request_switch("B")
        # Run just past the point where the manager sent the vector but
        # the switch has not globally completed yet.
        while manager.stats.get("vector_sent") == 0:
            assert sim.step(), "switch never reached the vector broadcast"
        switch_id = manager._managing
        assert switch_id is not None
        # A retransmitted copy of member 1's OK arrives on the control
        # channel.
        duplicate = manager.ctx.make_message(
            ("ok", switch_id, 1, manager._ok_counts[1]), 32, dest=(0,)
        )
        manager.control_receive(duplicate)
        assert manager.stats.get("vector_sent") == 1
        assert manager.stats.get("duplicate_oks") == 1
        sim.run_until(1.0)
        assert all(s.current_protocol == "B" for s in stacks.values())
        assert manager.stats.get("globally_complete") == 1
