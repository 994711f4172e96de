"""Unit tests for the fault-tolerance layer of the switching protocol.

Covers the opt-in contract (fault-free FT runs look like the baseline),
the silent-wedge fix (a lost token that wedges the baseline forever is
recovered — or cleanly aborted — under FT), the broadcast variant's
switch timeout, and the SwitchCore abort/revert primitives both FT
variants are built on.
"""

import pytest

from helpers import switch_group

from repro.core.base import ProtocolSlot, SwitchAborted, SwitchCore, SwitchMode
from repro.core.switchable import ProtocolSpec
from repro.core.token_switch import FaultToleranceConfig
from repro.errors import SwitchError
from repro.net.faults import FaultDecision, FaultPlan
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.stack.membership import Group
from repro.stack.message import Message
from repro.workloads.session import Session, total_order_specs

FT_FAST = FaultToleranceConfig(
    hop_timeout=0.01,
    max_hop_retries=2,
    phase_timeout=0.06,
    normal_timeout=0.12,
    abort_after=3,
)


def _specs():
    return [
        ProtocolSpec("seq", lambda r: [SequencerLayer(), ReliableLayer()]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer(), ReliableLayer()]),
    ]


def drop_first_control(kind, count=1):
    budget = {"left": count}

    def intercept(time, src, dst, channel, payload):
        body = getattr(payload, "body", None)
        if (
            budget["left"] > 0
            and channel == 0
            and isinstance(body, tuple)
            and body
            and body[0] == kind
        ):
            budget["left"] -= 1
            return FaultDecision(drop=True)
        return None

    return intercept


class TestFaultToleranceConfig:
    def test_defaults_are_valid(self):
        FaultToleranceConfig()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hop_timeout": 0.0},
            {"hop_timeout": -1.0},
            {"max_hop_retries": -1},
            {"phase_timeout": 0.0},
            {"normal_timeout": -0.5},
            {"abort_after": 0},
        ],
    )
    def test_bad_knobs_rejected(self, kwargs):
        with pytest.raises(SwitchError):
            FaultToleranceConfig(**kwargs)


class TestFaultFreeParity:
    def test_ft_switch_completes_without_recovery_machinery(self):
        """With no faults, FT adds acks but never stalls or retransmits."""
        sim, stacks, log = switch_group(
            3, _specs(), "seq", token_interval=0.002, fault_tolerance=FT_FAST
        )
        sim.schedule(0.01, lambda: stacks[0].cast("before"))
        sim.schedule(0.05, lambda: stacks[1].request_switch("tok"))
        sim.schedule(0.3, lambda: stacks[2].cast("after"))
        sim.run_until(1.0)
        for stack in stacks.values():
            assert stack.current_protocol == "tok"
            assert not stack.switching
            assert stack.last_abort is None
            stats = stack.protocol.stats
            assert stats.get("stalls_detected") == 0
            assert stats.get("hop_retransmits") == 0
            assert stats.get("regenerated_tokens") == 0
        assert log.all_agree()
        assert len(log.mids(0)) == 2

    def test_ten_switches_under_load_do_no_repair_work(self):
        """Back-to-back switches in one token generation, no fault plan:
        every switch completes and no repair branch ever fires."""
        slots = ("seq", "tok")
        group = Group.of_size(10)
        session = Session(10, seed=5)
        handle = session.build(
            group,
            total_order_specs(slots),
            slots[0],
            token_interval=0.005,
            fault_tolerance=FaultToleranceConfig(),
        )
        stacks = handle.stacks
        completed = []
        stacks[group.coordinator].protocol.on_global_complete(
            lambda switch_id, duration: completed.append(switch_id)
        )
        session.load(stacks.values(), 50.0, 64)
        for k in range(1, 11):
            session.runtime.schedule_at(
                float(k), lambda k=k: handle.request_switch(slots[k % 2])
            )
        session.run(10.5)
        assert len(completed) == 10
        repairs = {
            name: sum(s.protocol.stats.get(name) for s in stacks.values())
            for name in (
                "stalls_detected",
                "regenerated_tokens",
                "duplicate_tokens",
                "normal_preempted",
                "switches_aborted",
            )
        }
        assert repairs == dict.fromkeys(repairs, 0)


class TestWedgeFix:
    """The baseline wedges on a single lost token; FT must not."""

    def _run(self, fault_tolerance):
        sim, stacks, log = switch_group(
            3,
            _specs(),
            "seq",
            faults=FaultPlan(intercept=drop_first_control("prepare")),
            token_interval=0.002,
            # Bare control channel: the drop is unrecoverable below the SP.
            control_factory=lambda __: [],
            fault_tolerance=fault_tolerance,
        )
        sim.schedule(0.05, lambda: stacks[0].request_switch("tok"))
        sim.run_until(5.0)
        return stacks

    def test_baseline_wedges_forever(self):
        stacks = self._run(fault_tolerance=None)
        assert stacks[0].switching  # the initiator is stuck mid-switch
        assert stacks[0].current_protocol == "seq"

    def test_ft_recovers_and_completes(self):
        stacks = self._run(fault_tolerance=FT_FAST)
        recovered = sum(
            s.protocol.stats.get("hop_retransmits")
            + s.protocol.stats.get("regenerated_tokens")
            for s in stacks.values()
        )
        assert recovered >= 1
        for stack in stacks.values():
            assert not stack.switching
            assert stack.current_protocol == "tok"


class TestBroadcastSwitchTimeout:
    def test_stuck_switch_aborts_at_every_member(self):
        """The broadcast variant's timeout aborts an undrainable switch."""
        victim = 2

        def intercept(time, src, dst, channel, payload):
            if channel == 1 and dst == victim:  # starve the old slot
                return FaultDecision(drop=True)
            return None

        sim, stacks, log = switch_group(
            3,
            _specs(),
            "seq",
            variant="broadcast",
            faults=FaultPlan(intercept=intercept),
            switch_timeout=0.3,
        )
        outcomes = []
        for rank, stack in stacks.items():
            stack.on_switch_aborted(
                lambda outcome, rank=rank: outcomes.append((rank, outcome))
            )
        sim.schedule(0.01, lambda: stacks[0].cast("undrainable"))
        sim.schedule(0.1, lambda: stacks[0].request_switch("tok"))
        sim.run_until(3.0)

        assert len({rank for rank, __ in outcomes}) == 3, outcomes
        for stack in stacks.values():
            assert not stack.switching
            assert stack.current_protocol == "seq"
            abort = stack.last_abort
            assert abort is not None
            assert abort.old == "seq" and abort.new == "tok"
            assert isinstance(abort, SwitchAborted)

    def test_completing_switch_never_aborts(self):
        sim, stacks, log = switch_group(
            3, _specs(), "seq", variant="broadcast", switch_timeout=0.5
        )
        sim.schedule(0.05, lambda: stacks[0].request_switch("tok"))
        sim.run_until(2.0)
        for stack in stacks.values():
            assert stack.current_protocol == "tok"
            assert stack.last_abort is None

    def test_switch_timeout_must_be_positive(self):
        with pytest.raises(SwitchError):
            switch_group(
                3, _specs(), "seq", variant="broadcast", switch_timeout=0.0
            )

    def test_baseline_token_variant_has_no_abort_hook(self):
        sim, stacks, log = switch_group(3, _specs(), "seq")
        with pytest.raises(SwitchError):
            stacks[0].on_switch_aborted(lambda outcome: None)


# ----------------------------------------------------------------------
# SwitchCore abort/revert primitives
# ----------------------------------------------------------------------
def make_msg(sender, seq, body="x"):
    return Message(sender=sender, mid=(sender, seq), body=body, body_size=1)


def make_core(initial="a", blocking=False):
    sent = {"a": [], "b": []}
    delivered = []
    core = SwitchCore(
        {
            name: ProtocolSlot(
                name, [], lambda m, name=name: sent[name].append(m)
            )
            for name in ("a", "b")
        },
        delivered.append,
        initial,
        block_sends_during_switch=blocking,
    )
    return core, sent, delivered


class TestAbortSwitch:
    def test_abort_outside_switch_rejected(self):
        core, __, __d = make_core()
        with pytest.raises(SwitchError):
            core.abort_switch()

    def test_abort_restores_old_as_current(self):
        core, sent, __ = make_core()
        core.begin_switch("a", "b")
        assert core.send_slot == "b"
        old, new = core.abort_switch()
        assert (old, new) == ("a", "b")
        assert core.mode is SwitchMode.NORMAL
        assert core.current == "a"
        core.app_send(make_msg(0, 1))
        assert len(sent["a"]) == 1 and not sent["b"]

    def test_abort_keeps_new_slot_traffic_buffered(self):
        # Delivering it would violate old-before-new at members that
        # never aborted; it stays buffered as early traffic instead.
        core, __, delivered = make_core()
        core.begin_switch("a", "b")
        core.slot_deliver("b", make_msg(1, 1))
        assert core.buffered_count == 1
        core.abort_switch()
        assert core.buffered_count == 1
        assert delivered == []

    def test_abort_releases_blocked_sends_onto_old(self):
        core, sent, __ = make_core(blocking=True)
        core.begin_switch("a", "b")
        core.app_send(make_msg(0, 1))
        assert not sent["a"] and not sent["b"]  # queued
        core.abort_switch()
        assert len(sent["a"]) == 1 and not sent["b"]


class TestRevertTo:
    def test_revert_during_switch_rejected(self):
        core, __, __d = make_core()
        core.begin_switch("a", "b")
        with pytest.raises(SwitchError):
            core.revert_to("a")

    def test_revert_to_unknown_slot_rejected(self):
        core, __, __d = make_core()
        with pytest.raises(SwitchError):
            core.revert_to("zzz")

    def test_revert_to_current_is_a_noop(self):
        core, __, __d = make_core()
        core.revert_to("a")
        assert core.stats.get("reverts") == 0

    def test_revert_flips_back_and_flushes_adopted_buffer(self):
        core, __, delivered = make_core()
        core.begin_switch("a", "b")
        core.set_vector({})  # nothing owed: completes immediately
        assert core.current == "b"
        # Traffic from members still on "a" buffers as early traffic...
        core.slot_deliver("a", make_msg(2, 1))
        assert core.buffered_count == 1
        before = len(delivered)
        core.revert_to("a")
        # ...and must flush the moment "a" becomes current again.
        assert core.current == "a"
        assert core.buffered_count == 0
        assert len(delivered) == before + 1
        assert core.stats.get("reverts") == 1
