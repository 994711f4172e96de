"""Model-based (stateful) testing of the SP state machine.

A hypothesis rule-based state machine drives :class:`SwitchCore` through
random interleavings of sends, slot deliveries, switch choreography and
vector installs, checking it against a tiny reference model:

* every application send reaches exactly one slot, in order;
* a delivery reaches the application iff its slot is current (or was
  drained into currency), old-before-new per switch;
* counts are exact; buffers drain to empty on completion.
"""

import hypothesis.strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.core.base import ProtocolSlot, SwitchCore, SwitchMode
from repro.stack.message import Message

SLOTS = ("a", "b")
MEMBERS = (0, 1, 2)


class SwitchCoreModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.slot_outbox = {name: [] for name in SLOTS}
        self.app_inbox = []
        self.core = SwitchCore(
            {
                name: ProtocolSlot(
                    name, [], lambda m, name=name: self.slot_outbox[name].append(m)
                )
                for name in SLOTS
            },
            self.app_inbox.append,
            initial="a",
        )
        self._mid_seq = 0
        # Reference model state:
        self.sent_counts = {name: 0 for name in SLOTS}
        self.pending_from = {
            name: {m: 0 for m in MEMBERS} for name in SLOTS
        }  # deliveries fed in per slot/member
        self.delivered_to_app = 0

    def _fresh_msg(self, sender):
        self._mid_seq += 1
        return Message(
            sender=sender, mid=(sender, self._mid_seq), body=None, body_size=1
        )

    # ------------------------------------------------------------------
    @rule(sender=st.sampled_from(MEMBERS))
    def app_send(self, sender):
        before = {name: len(self.slot_outbox[name]) for name in SLOTS}
        target = self.core.send_slot
        self.core.app_send(self._fresh_msg(sender))
        self.sent_counts[target] += 1
        # Exactly one slot got exactly one message, and it was send_slot.
        for name in SLOTS:
            expected = before[name] + (1 if name == target else 0)
            assert len(self.slot_outbox[name]) == expected

    @rule(slot=st.sampled_from(SLOTS), sender=st.sampled_from(MEMBERS))
    def slot_delivery(self, slot, sender):
        before_app = len(self.app_inbox)
        self.core.slot_deliver(slot, self._fresh_msg(sender))
        self.pending_from[slot][sender] += 1
        immediate = (
            (self.core.mode is SwitchMode.NORMAL and slot == self.core.current)
            or (self.core.mode is SwitchMode.SWITCHING and slot == self.core.old)
        )
        # Completion inside slot_deliver may flush buffered messages too,
        # so "immediate" is a lower bound only when no switch finished.
        if immediate:
            assert len(self.app_inbox) >= before_app + 1

    @precondition(lambda self: self.core.mode is SwitchMode.NORMAL)
    @rule()
    def begin_switch(self):
        old = self.core.current
        new = "b" if old == "a" else "a"
        count = self.core.begin_switch(old, new)
        assert count == self.sent_counts[old]

    @precondition(
        lambda self: self.core.mode is SwitchMode.SWITCHING
        and self.core.vector is None
    )
    @rule(slack=st.integers(0, 2))
    def install_vector(self, slack):
        # A vector consistent with what we already fed the old slot plus
        # possibly a little more still "in flight".
        old = self.core.old
        vector = {
            member: self.core.delivered[old].get(member, 0)
            + (slack if member == 1 else 0)
            for member in MEMBERS
        }
        self.core.set_vector(vector)

    @precondition(
        lambda self: self.core.mode is SwitchMode.SWITCHING
        and self.core.vector is not None
    )
    @rule(sender=st.sampled_from(MEMBERS))
    def drain_delivery(self, sender):
        old = self.core.old  # the delivery may complete the switch
        self.core.slot_deliver(old, self._fresh_msg(sender))
        self.pending_from[old][sender] += 1

    # ------------------------------------------------------------------
    @invariant()
    def send_slot_is_new_during_switch(self):
        if self.core.mode is SwitchMode.SWITCHING:
            assert self.core.send_slot == self.core.new
        else:
            assert self.core.send_slot == self.core.current

    @invariant()
    def app_sees_no_more_than_fed(self):
        fed = sum(sum(per.values()) for per in self.pending_from.values())
        assert len(self.app_inbox) <= fed

    @invariant()
    def buffer_empty_in_normal_mode_for_current(self):
        # Buffered entries in NORMAL mode can only belong to non-current
        # slots (early traffic).
        if self.core.mode is SwitchMode.NORMAL:
            assert all(
                name != self.core.current for name, __ in self.core._buffer
            )

    @invariant()
    def counts_match_app_inbox(self):
        delivered = sum(
            sum(per.values()) for per in self.core.delivered.values()
        )
        assert delivered == len(self.app_inbox)


TestSwitchCoreModel = SwitchCoreModel.TestCase
TestSwitchCoreModel.settings = __import__("hypothesis").settings(
    max_examples=60, stateful_step_count=40, deadline=None, derandomize=True
)
