"""Unit tests for the SP state machine (SwitchCore)."""

import pytest

from repro.core.base import ProtocolSlot, SwitchCore, SwitchMode
from repro.errors import SwitchError
from repro.stack.layer import Layer
from repro.stack.message import Message


def make_msg(sender, seq, body="x"):
    return Message(sender=sender, mid=(sender, seq), body=body, body_size=1)


def make_core(initial="a", slots=("a", "b")):
    sent = {name: [] for name in slots}
    delivered = []
    core = SwitchCore(
        {
            name: ProtocolSlot(name, [], lambda m, name=name: sent[name].append(m))
            for name in slots
        },
        delivered.append,
        initial,
    )
    return core, sent, delivered


class TestConstruction:
    def test_initial_must_be_a_slot(self):
        with pytest.raises(SwitchError):
            make_core(initial="zzz")

    def test_needs_two_slots(self):
        with pytest.raises(SwitchError):
            make_core(slots=("only",))


class TestNormalMode:
    def test_sends_go_to_current(self):
        core, sent, delivered = make_core()
        core.app_send(make_msg(0, 0))
        assert len(sent["a"]) == 1
        assert core.sent["a"] == 1

    def test_current_deliveries_pass_up(self):
        core, sent, delivered = make_core()
        core.slot_deliver("a", make_msg(1, 0))
        assert len(delivered) == 1
        assert core.delivered["a"][1] == 1

    def test_early_traffic_from_other_slot_buffered(self):
        core, sent, delivered = make_core()
        core.slot_deliver("b", make_msg(1, 0))
        assert delivered == []
        assert core.buffered_count == 1

    def test_unknown_slot_rejected(self):
        core, sent, delivered = make_core()
        with pytest.raises(SwitchError):
            core.slot_deliver("nope", make_msg(0, 0))


class TestSwitching:
    def test_begin_switch_reports_sent_count(self):
        core, sent, delivered = make_core()
        for i in range(3):
            core.app_send(make_msg(0, i))
        assert core.begin_switch("a", "b") == 3
        assert core.mode is SwitchMode.SWITCHING

    def test_sends_go_to_new_during_switch(self):
        core, sent, delivered = make_core()
        core.begin_switch("a", "b")
        core.app_send(make_msg(0, 0))
        assert len(sent["b"]) == 1
        assert sent["a"] == []

    def test_new_protocol_deliveries_buffered(self):
        core, sent, delivered = make_core()
        core.begin_switch("a", "b")
        core.slot_deliver("b", make_msg(1, 0))
        assert delivered == []

    def test_old_protocol_deliveries_continue(self):
        core, sent, delivered = make_core()
        core.begin_switch("a", "b")
        core.slot_deliver("a", make_msg(1, 0))
        assert len(delivered) == 1

    def test_drain_completes_switch(self):
        core, sent, delivered = make_core()
        core.slot_deliver("a", make_msg(1, 0))  # one old delivery already
        core.begin_switch("a", "b")
        core.slot_deliver("b", make_msg(2, 0))  # buffered
        core.set_vector({1: 2, 2: 0})
        assert core.switching  # still owed one from member 1
        core.slot_deliver("a", make_msg(1, 1))
        assert not core.switching
        assert core.current == "b"
        # buffered new-protocol message flushed after the old drained
        assert [m.mid for m in delivered] == [(1, 0), (1, 1), (2, 0)]

    def test_vector_satisfied_immediately(self):
        core, sent, delivered = make_core()
        core.begin_switch("a", "b")
        core.set_vector({0: 0, 1: 0})
        assert not core.switching
        assert core.switches_completed == 1

    def test_early_buffer_flushed_on_finish(self):
        core, sent, delivered = make_core()
        core.slot_deliver("b", make_msg(1, 5))  # early, buffered
        core.begin_switch("a", "b")
        core.set_vector({})
        assert [m.mid for m in delivered] == [(1, 5)]

    def test_completion_callback(self):
        core, sent, delivered = make_core()
        seen = []
        core.on_switch_complete(lambda old, new: seen.append((old, new)))
        core.begin_switch("a", "b")
        core.set_vector({})
        assert seen == [("a", "b")]

    def test_once_completion_callback_fires_once_and_deregisters(self):
        core, sent, delivered = make_core()
        seen = []
        core.on_switch_complete(lambda old, new: seen.append((old, new)), once=True)
        core.begin_switch("a", "b")
        core.set_vector({})
        core.begin_switch("b", "a")
        core.set_vector({})
        assert seen == [("a", "b")]
        assert core.completion_callback_count == 0

    def test_completion_callback_unsubscribe(self):
        core, sent, delivered = make_core()
        seen = []
        unsubscribe = core.on_switch_complete(
            lambda old, new: seen.append((old, new))
        )
        unsubscribe()
        unsubscribe()  # idempotent
        core.begin_switch("a", "b")
        core.set_vector({})
        assert seen == []
        assert core.completion_callback_count == 0

    def test_completion_callbacks_bounded_across_many_switches(self):
        # Regression: one once-registration per switch must not accumulate.
        core, sent, delivered = make_core()
        for i in range(50):
            old, new = ("a", "b") if i % 2 == 0 else ("b", "a")
            core.on_switch_complete(lambda o, n: None, once=True)
            core.begin_switch(old, new)
            core.set_vector({})
        assert core.switches_completed == 50
        assert core.completion_callback_count == 0
        assert len(core._completion_callbacks) == 0

    def test_boundary_callback_fires_before_flush(self):
        core, sent, delivered = make_core()
        core.slot_deliver("b", make_msg(1, 0))
        order = []
        core.on_epoch_boundary(lambda old, new: order.append("boundary"))

        def track(msg):
            order.append(msg.mid)

        core._app_deliver = track
        core.begin_switch("a", "b")
        core.set_vector({})
        assert order == ["boundary", (1, 0)]


class TestSwitchValidation:
    def test_cannot_overlap_switches(self):
        core, sent, delivered = make_core()
        core.begin_switch("a", "b")
        with pytest.raises(SwitchError):
            core.begin_switch("a", "b")

    def test_old_must_be_current(self):
        core, sent, delivered = make_core()
        with pytest.raises(SwitchError):
            core.begin_switch("b", "a")

    def test_same_slot_rejected(self):
        core, sent, delivered = make_core()
        with pytest.raises(SwitchError):
            core.begin_switch("a", "a")

    def test_unknown_slots_rejected(self):
        core, sent, delivered = make_core()
        with pytest.raises(SwitchError):
            core.begin_switch("a", "zzz")

    def test_vector_outside_switch_rejected(self):
        core, sent, delivered = make_core()
        with pytest.raises(SwitchError):
            core.set_vector({})


class TestMultipleSwitches:
    def test_counts_are_cumulative_across_epochs(self):
        core, sent, delivered = make_core()
        core.app_send(make_msg(0, 0))
        core.slot_deliver("a", make_msg(0, 0))
        # a -> b
        core.begin_switch("a", "b")
        core.set_vector({0: 1})
        core.app_send(make_msg(0, 1))
        core.slot_deliver("b", make_msg(0, 1))
        # b -> a: and back again
        core.begin_switch("b", "a")
        core.set_vector({0: 1})
        assert core.current == "a"
        core.app_send(make_msg(0, 2))
        assert core.sent["a"] == 2  # cumulative
        # a -> b again: vector uses the cumulative count
        core.slot_deliver("a", make_msg(0, 2))
        core.begin_switch("a", "b")
        core.set_vector({0: 2})
        assert not core.switching

    def test_three_slots_round_trip(self):
        core, sent, delivered = make_core(slots=("a", "b", "c"))
        # early traffic for c while on a
        core.slot_deliver("c", make_msg(1, 0))
        core.begin_switch("a", "b")
        core.set_vector({})
        assert core.current == "b"
        assert core.buffered_count == 1  # c traffic still waiting
        core.begin_switch("b", "c")
        core.set_vector({})
        assert core.current == "c"
        assert [m.mid for m in delivered] == [(1, 0)]


class RecordingLayer(Layer):
    """Logs the dormancy hooks the core fires at its slot."""

    def __init__(self, slot, log):
        super().__init__()
        self.slot = slot
        self.log = log

    def quiesce(self):
        self.log.append(("quiesce", self.slot))

    def resume(self):
        self.log.append(("resume", self.slot))


class TestDormancy:
    """The live set is {current} in normal mode and {old, new} while
    switching; hooks fire once per flip and never on a no-op."""

    def make(self):
        """A three-slot core on ``a`` and the one log its hooks and its
        application deliveries share (cleared of the start-up calls)."""
        log = []
        core = SwitchCore(
            {
                name: ProtocolSlot(
                    name, [RecordingLayer(name, log)], lambda m: None
                )
                for name in ("a", "b", "c")
            },
            lambda msg: log.append(("deliver", msg.mid)),
            "a",
        )
        assert log == [("quiesce", "b"), ("quiesce", "c")]
        del log[:]
        return core, log

    def dormant(self, core):
        return sorted(n for n, slot in core.slots.items() if slot.dormant)

    def test_only_the_initial_slot_starts_live(self):
        core, __ = self.make()
        assert self.dormant(core) == ["b", "c"]

    def test_begin_switch_wakes_the_new_slot_only(self):
        core, log = self.make()
        core.begin_switch("a", "b")
        assert self.dormant(core) == ["c"]
        assert log == [("resume", "b")]

    def test_finish_quiesces_old_before_callbacks_and_flush(self):
        core, log = self.make()
        core.on_epoch_boundary(lambda old, new: log.append("boundary"))
        core.on_switch_complete(lambda old, new: log.append("complete"))
        core.begin_switch("a", "b")
        core.slot_deliver("b", make_msg(1, 0))  # buffered until the flip
        del log[:]
        core.set_vector({})
        assert self.dormant(core) == ["a", "c"]
        assert log == [
            ("quiesce", "a"),
            "boundary",
            ("deliver", (1, 0)),
            "complete",
        ]

    def test_abort_falls_back_to_old_and_quiesces_new(self):
        core, log = self.make()
        core.begin_switch("a", "b")
        del log[:]
        core.abort_switch()
        assert self.dormant(core) == ["b", "c"]
        assert log == [("quiesce", "b")]

    def test_revert_swaps_the_live_slot(self):
        core, log = self.make()
        core.begin_switch("a", "b")
        core.set_vector({})
        del log[:]
        core.revert_to("a")
        assert self.dormant(core) == ["b", "c"]
        assert sorted(log) == [("quiesce", "b"), ("resume", "a")]

    def test_noop_transitions_fire_nothing(self):
        core, log = self.make()
        core.revert_to("a")  # already current
        core.app_send(make_msg(0, 0))
        assert log == []
        core.begin_switch("a", "c")
        core.set_vector({})
        del log[:]
        core.revert_to("c")  # current again: nothing flips
        assert log == []

    def test_every_flip_is_one_call(self):
        core, log = self.make()
        for old, new in (("a", "b"), ("b", "c"), ("c", "a")):
            core.begin_switch(old, new)
            core.set_vector({})
        assert log == [
            ("resume", "b"),
            ("quiesce", "a"),
            ("resume", "c"),
            ("quiesce", "b"),
            ("resume", "a"),
            ("quiesce", "c"),
        ]
        assert self.dormant(core) == ["b", "c"]
