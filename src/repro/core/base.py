"""Shared state machine of the switching protocol (SP).

Both SP realizations — the broadcast/manager variant and the token-ring
variant — implement the same §2 contract around this core:

* **Normal mode**: application sends go to the current protocol; current-
  protocol deliveries pass straight up.
* **Switching mode**: new sends go to the *new* protocol; new-protocol
  deliveries are buffered; old-protocol deliveries continue until the
  process has delivered, from every member, as many old-protocol messages
  as the SWITCH vector says were sent.  Then the process flips to the new
  protocol and flushes the buffer.

This guarantees the SP invariant: *every process delivers all messages of
the previous protocol before any message of the new one* — and sends are
never blocked.

The core also handles the pre-PREPARE race: a member that has already
switched its sending may reach us over the new protocol before our own
PREPARE arrives; such traffic is buffered even in normal mode.

Assumptions inherited from §2: subordinate protocols deliver no spurious
messages, at most once (for safety), exactly once (for switch liveness),
and deliver a group cast to *all* members, the sender included.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SwitchError
from ..obs.bus import BusScope, null_scope
from ..obs.metrics import Counter
from ..stack.layer import DeliverFn, Layer, SendFn
from ..stack.message import Message

__all__ = ["SwitchMode", "ProtocolSlot", "SwitchCore", "SwitchAborted"]


class SwitchMode(enum.Enum):
    NORMAL = "normal"
    SWITCHING = "switching"


@dataclass(frozen=True)
class SwitchAborted:
    """Structured outcome of a switch that was cleanly abandoned.

    A fault-tolerant SP variant that cannot complete a switch (a member
    crashed mid-drain, old-protocol messages were permanently lost on a
    bare slot, the control channel is severed) aborts back to the old
    protocol instead of wedging.  The outcome names which switch died,
    where in the choreography it was, and why.

    Attributes:
        switch_id: the (initiator rank, initiation sequence) pair.
        old: protocol the group stays on (or reverts to).
        new: protocol the switch was heading for.
        phase: SP phase at which the abort was decided
            ("prepare", "switch", "flush", or "unknown").
        reason: human-readable cause, e.g. "flush stalled beyond retry
            budget".
        time: simulated time the abort was decided.
    """

    switch_id: Tuple[int, int]
    old: Optional[str]
    new: Optional[str]
    phase: str
    reason: str
    time: float


class _CompletionSub:
    """One completion-callback registration (see ``on_switch_complete``)."""

    __slots__ = ("callback", "once", "active")

    def __init__(self, callback: Callable[[str, str], None], once: bool) -> None:
        self.callback = callback
        self.once = once
        self.active = True


class ProtocolSlot:
    """One subordinate protocol mounted under the switching layer."""

    def __init__(self, name: str, layers: Sequence[Layer], send: SendFn) -> None:
        self.name = name
        self.layers = list(layers)
        self.send = send
        #: True while the core neither sends on this slot nor is owed
        #: deliveries from it; its layers have been told to keep quiet.
        self.dormant = False

    def set_dormant(self, dormant: bool) -> None:
        """Tell the layers when (and only when) the state flips."""
        if dormant == self.dormant:
            return
        self.dormant = dormant
        for layer in self.layers:
            if dormant:
                layer.quiesce()
            else:
                layer.resume()

    def can_send(self) -> bool:
        """Back-pressure query: AND of every layer in the slot."""
        return all(layer.can_send() for layer in self.layers)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ProtocolSlot {self.name}>"


class SwitchCore:
    """Mode/counting/buffering state machine shared by SP variants."""

    def __init__(
        self,
        slots: Dict[str, ProtocolSlot],
        app_deliver: DeliverFn,
        initial: str,
        block_sends_during_switch: bool = False,
        obs: Optional[BusScope] = None,
    ) -> None:
        if initial not in slots:
            raise SwitchError(f"initial protocol {initial!r} not among {sorted(slots)}")
        if len(slots) < 2:
            raise SwitchError("switching needs at least two protocol slots")
        self.slots = slots
        self._app_deliver = app_deliver
        #: The paper's SP never blocks senders (§2, §7) — new sends go to
        #: the new protocol during a switch.  The *blocking* variant
        #: (a §8 "other switching protocols supporting different classes
        #: of properties" exploration) instead queues application sends
        #: until the switch finishes, which additionally preserves
        #: send-restriction properties like Amoeba — at the cost of the
        #: very blocking the paper's design avoids.
        self.block_sends_during_switch = block_sends_during_switch
        self._blocked_sends: List[Message] = []
        self.mode = SwitchMode.NORMAL
        self.current = initial
        self.old: Optional[str] = None
        self.new: Optional[str] = None
        self.vector: Optional[Dict[int, int]] = None
        #: messages this process sent per slot (cumulative across epochs).
        self.sent: Dict[str, int] = {name: 0 for name in slots}
        #: messages delivered per slot, per originating member (cumulative).
        self.delivered: Dict[str, Dict[int, int]] = {name: {} for name in slots}
        #: deliveries held back: (slot name, message), in arrival order.
        self._buffer: List[Tuple[str, Message]] = []
        self.switches_completed = 0
        self.stats = Counter()
        #: Instrumentation scope; the disabled null scope by default, so
        #: unwired cores pay one attribute load + truthiness test at most.
        self.obs: BusScope = obs if obs is not None else null_scope()
        self._completion_callbacks: List[_CompletionSub] = []
        self._boundary_callbacks: List[Callable[[str, str], None]] = []
        self._sync_dormancy()

    def _sync_dormancy(self) -> None:
        """Keep every slot in step with the mode: the live set is
        ``{current}`` in normal mode and ``{old, new}`` while switching;
        every other slot is dormant."""
        switching = self.mode is SwitchMode.SWITCHING
        live = {self.old, self.new} if switching else {self.current}
        for name, slot in self.slots.items():
            slot.set_dormant(name not in live)

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_switch_complete(
        self, callback: Callable[[str, str], None], once: bool = False
    ) -> Callable[[], None]:
        """``callback(old, new)`` fires when *this process* finishes a switch.

        ``once=True`` deregisters the callback after its first invocation
        — the per-switch notification pattern of the SP variants, which
        would otherwise leak one callback per switch over a long adaptive
        run.  Returns an idempotent unsubscribe function; deregistering
        (by either route) during a dispatch does not affect callbacks
        already snapshotted for that dispatch.
        """
        sub = _CompletionSub(callback, once)
        self._completion_callbacks.append(sub)

        def unsubscribe() -> None:
            sub.active = False

        return unsubscribe

    @property
    def completion_callback_count(self) -> int:
        """Live completion registrations (leak regression hook)."""
        return sum(1 for sub in self._completion_callbacks if sub.active)

    def on_epoch_boundary(self, callback: Callable[[str, str], None]) -> None:
        """``callback(old, new)`` fires at the exact delivery boundary: after
        the last old-protocol delivery, before buffered new-protocol
        deliveries are flushed.  Used by the view-switch extension to
        place a view message between the two epochs."""
        self._boundary_callbacks.append(callback)

    @property
    def switching(self) -> bool:
        return self.mode is SwitchMode.SWITCHING

    @property
    def buffered_count(self) -> int:
        return len(self._buffer)

    @property
    def send_slot(self) -> str:
        """Where application sends go right now."""
        if self.mode is SwitchMode.SWITCHING:
            assert self.new is not None
            return self.new
        return self.current

    # ------------------------------------------------------------------
    # Application send path
    # ------------------------------------------------------------------
    def app_send(self, msg: Message) -> None:
        """Route an application send to the active slot (counts it).

        In the blocking variant, sends submitted mid-switch are queued
        and released (to the new protocol) when the switch completes.
        """
        if self.block_sends_during_switch and self.mode is SwitchMode.SWITCHING:
            self.stats.incr("sends_blocked")
            self._blocked_sends.append(msg)
            return
        slot_name = self.send_slot
        self.sent[slot_name] += 1
        self.stats.incr(f"sent[{slot_name}]")
        self.slots[slot_name].send(msg)

    def can_send(self) -> bool:
        """Back-pressure query against the slot sends currently go to."""
        if self.block_sends_during_switch and self.mode is SwitchMode.SWITCHING:
            return False
        return self.slots[self.send_slot].can_send()

    # ------------------------------------------------------------------
    # Deliveries arriving from the slots
    # ------------------------------------------------------------------
    def slot_deliver(self, slot_name: str, msg: Message) -> None:
        """Handle a delivery arriving from a subordinate protocol slot."""
        if slot_name not in self.slots:
            raise SwitchError(f"delivery from unknown slot {slot_name!r}")
        if self.mode is SwitchMode.NORMAL:
            if slot_name == self.current:
                self._deliver(slot_name, msg)
            else:
                # Early traffic from a switch we have not learned about yet.
                self.stats.incr("early_buffered")
                self._buffer.append((slot_name, msg))
                if self.obs.enabled:
                    self.obs.gauge("core.buffer_depth", len(self._buffer))
            return
        # Switching mode.
        if slot_name == self.old:
            self._deliver(slot_name, msg)
            self._check_drained()
        else:
            self.stats.incr("buffered")
            self._buffer.append((slot_name, msg))
            if self.obs.enabled:
                self.obs.gauge("core.buffer_depth", len(self._buffer))

    def _deliver(self, slot_name: str, msg: Message) -> None:
        per_member = self.delivered[slot_name]
        per_member[msg.sender] = per_member.get(msg.sender, 0) + 1
        self.stats.incr(f"delivered[{slot_name}]")
        self._app_deliver(msg)

    # ------------------------------------------------------------------
    # Switch choreography (driven by the SP variants)
    # ------------------------------------------------------------------
    def begin_switch(self, old: str, new: str) -> int:
        """Enter switching mode; returns our send count on the old slot.

        The count is what the member reports in its OK message: how many
        messages it has sent so far over the protocol being left.
        """
        if old not in self.slots or new not in self.slots:
            raise SwitchError(f"unknown slots in switch {old!r} -> {new!r}")
        if old == new:
            raise SwitchError(f"switch to the same protocol {old!r}")
        if self.mode is SwitchMode.SWITCHING:
            raise SwitchError("switch already in progress")
        if old != self.current:
            raise SwitchError(
                f"switch leaves {old!r} but current protocol is {self.current!r}"
            )
        self.mode = SwitchMode.SWITCHING
        self.old = old
        self.new = new
        self.vector = None
        self._sync_dormancy()
        self.stats.incr("switches_started")
        return self.sent[old]

    def set_vector(self, vector: Dict[int, int]) -> None:
        """Install the SWITCH vector of per-member old-protocol send counts."""
        if self.mode is not SwitchMode.SWITCHING:
            raise SwitchError("SWITCH vector outside a switch")
        self.vector = dict(vector)
        self._check_drained()

    def _check_drained(self) -> None:
        if self.vector is None:
            return
        assert self.old is not None
        delivered = self.delivered[self.old]
        for member, count in self.vector.items():
            if delivered.get(member, 0) < count:
                return
        self._finish()

    def _finish(self) -> None:
        assert self.old is not None and self.new is not None
        old, new = self.old, self.new
        self.mode = SwitchMode.NORMAL
        self.current = new
        self.old = None
        self.new = None
        self.vector = None
        self._sync_dormancy()
        self.switches_completed += 1
        self.stats.incr("switches_completed")
        for callback in self._boundary_callbacks:
            callback(old, new)
        # Flush deliveries buffered for the (now) current protocol, in
        # arrival order; traffic for other slots stays buffered.
        flushable = [(s, m) for s, m in self._buffer if s == new]
        self._buffer = [(s, m) for s, m in self._buffer if s != new]
        if self.obs.enabled:
            self.obs.emit(
                "core/flip", old=old, new=new, flushed=len(flushable)
            )
            self.obs.gauge("core.buffer_depth", len(self._buffer))
        for slot_name, msg in flushable:
            self._deliver(slot_name, msg)
        # Blocking variant: release queued sends onto the new protocol.
        if self._blocked_sends:
            released, self._blocked_sends = self._blocked_sends, []
            for msg in released:
                self.app_send(msg)
        fired = [sub for sub in self._completion_callbacks if sub.active]
        for sub in fired:
            if sub.once:
                sub.active = False
        self._completion_callbacks = [
            sub for sub in self._completion_callbacks if sub.active
        ]
        for sub in fired:
            sub.callback(old, new)

    def abort_switch(self) -> Tuple[str, str]:
        """Abandon the in-flight switch; returns the (old, new) pair.

        Reverts to normal mode on the *old* protocol: application sends
        go back to ``old``, and deliveries already buffered from the new
        protocol stay buffered as early traffic (they flush if and when a
        later switch to that protocol completes — delivering them now
        would violate old-before-new at members that never aborted).
        Queued sends of the blocking variant are released onto ``old``.
        """
        if self.mode is not SwitchMode.SWITCHING:
            raise SwitchError("no switch in progress to abort")
        assert self.old is not None and self.new is not None
        old, new = self.old, self.new
        self.mode = SwitchMode.NORMAL
        self.current = old
        self.old = None
        self.new = None
        self.vector = None
        self._sync_dormancy()
        self.stats.incr("switches_aborted")
        if self.obs.enabled:
            self.obs.emit(
                "core/revert", old=old, new=new, buffered=len(self._buffer)
            )
        if self._blocked_sends:
            released, self._blocked_sends = self._blocked_sends, []
            for msg in released:
                self.app_send(msg)
        return old, new

    def revert_to(self, old: str) -> None:
        """Undo a locally *completed* switch by flipping back to ``old``.

        Used when an abort rotation reaches a member that had already
        drained and flipped: convergence demands every member end on the
        same protocol, so the drained member rejoins the survivors on the
        old one.  Deliveries it already flushed from the new protocol
        stay delivered (abort weakens old-before-new to per-member local
        history; see docs/PROTOCOLS.md).  Future new-protocol deliveries
        buffer as early traffic again.
        """
        if self.mode is not SwitchMode.NORMAL:
            raise SwitchError("revert_to requires normal mode; abort instead")
        if old not in self.slots:
            raise SwitchError(f"cannot revert to unknown slot {old!r}")
        if old == self.current:
            return
        self.current = old
        self._sync_dormancy()
        self.stats.incr("reverts")
        # Deliveries buffered for the adopted slot are current-protocol
        # traffic now: flush them in arrival order (mirrors _finish).
        flushable = [(s, m) for s, m in self._buffer if s == old]
        if flushable:
            self._buffer = [(s, m) for s, m in self._buffer if s != old]
            for slot_name, msg in flushable:
                self._deliver(slot_name, msg)
