"""The broadcast/manager variant of the switching protocol (§2).

Choreography, verbatim from the paper:

1. The *manager* (the process whose oracle requested the switch)
   broadcasts ``PREPARE``.
2. On receipt, a member returns ``OK(member, count)`` — the number of
   messages it has sent so far over the current protocol — switches its
   *sending* to the new protocol, and starts buffering new-protocol
   deliveries.
3. The manager awaits all OKs, then broadcasts ``SWITCH(vector)`` with
   everyone's send counts.
4. A member that has delivered all old-protocol messages named by the
   vector flips to the new protocol and flushes its buffer.

We additionally send a ``DONE`` back to the manager when a member
finishes, purely for instrumentation (switch-duration measurements);
the protocol does not depend on it.

The control channel must be reliable and FIFO per sender (compose it
over :class:`~repro.protocols.reliable.ReliableLayer`); concurrent
initiations are NOT supported by this variant — that is precisely the
complication the paper's token-ring variant exists to avoid.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SwitchError
from ..obs.bus import PhaseTracker
from ..obs.metrics import Counter
from ..stack.layer import LayerContext, SendFn
from ..stack.message import Message
from .base import SwitchAborted, SwitchCore, SwitchMode

__all__ = ["BroadcastSwitchProtocol"]

SwitchId = Tuple[int, int]  # (initiator rank, initiation sequence)


class BroadcastSwitchProtocol:
    """PREPARE / OK / SWITCH manager-driven switching.

    With ``switch_timeout`` set, the manager arms a sim-clock timer per
    initiation; a switch that has not globally completed in time is
    aborted with an ABORT broadcast and surfaces a structured
    :class:`~repro.core.base.SwitchAborted` instead of wedging the group.
    Left at ``None`` (the default) the behaviour is exactly the seed's.
    """

    def __init__(
        self,
        ctx: LayerContext,
        core: SwitchCore,
        control_send: SendFn,
        switch_timeout: Optional[float] = None,
    ) -> None:
        if switch_timeout is not None and switch_timeout <= 0:
            raise SwitchError("switch_timeout must be positive")
        self.ctx = ctx
        self.core = core
        self._control_send = control_send
        self.switch_timeout = switch_timeout
        self._initiations = 0
        # Manager-side state for the in-flight switch we initiated:
        self._managing: Optional[SwitchId] = None
        self._ok_counts: Dict[int, int] = {}
        self._done_members: set = set()
        self._switch_started_at = 0.0
        self._abort_timer = None
        self.last_switch_duration: Optional[float] = None
        self.last_abort: Optional[SwitchAborted] = None
        self.stats = Counter()
        self._stopped = False
        #: Instrumentation scope + manager-side switch-phase spans.
        self.obs = ctx.obs
        self._phases = PhaseTracker(ctx.obs)
        self._global_callbacks: List[Callable[[SwitchId, float], None]] = []
        self._abort_callbacks: List[Callable[[SwitchAborted], None]] = []
        self._switch_old_new: Dict[SwitchId, Tuple[str, str]] = {}
        self._locally_completed: set = set()
        self._aborted: set = set()
        #: Manager-side: switch ids whose SWITCH vector already went out,
        #: so late/retransmitted OKs don't re-broadcast it.
        self._vector_sent: set = set()
        #: Member-side: pending one-shot DONE notifications, unsubscribed
        #: on abort so a dead switch doesn't fire a stale DONE later.
        self._done_subs: Dict[SwitchId, Callable[[], None]] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def request_switch(self, to: str) -> SwitchId:
        """Initiate a switch from the current protocol to ``to``.

        Must be called while no switch is in progress; returns the switch
        id for correlation with completion callbacks.
        """
        if self.core.mode is not SwitchMode.NORMAL:
            raise SwitchError("broadcast SP cannot overlap switches")
        if self._managing is not None:
            raise SwitchError("already managing a switch")
        if to == self.core.current:
            raise SwitchError(f"already running protocol {to!r}")
        if to not in self.core.slots:
            raise SwitchError(f"unknown protocol {to!r}")
        switch_id: SwitchId = (self.ctx.rank, self._initiations)
        self._initiations += 1
        self._managing = switch_id
        self._ok_counts = {}
        self._done_members = set()
        self._switch_started_at = self.ctx.now
        self._switch_old_new[switch_id] = (self.core.current, to)
        self.stats.incr("initiated")
        self._phases.begin(switch_id, self.core.current, to)
        if self.switch_timeout is not None:
            self._abort_timer = self.ctx.after(
                self.switch_timeout, lambda: self._timeout_abort(switch_id)
            )
        self._broadcast(("prepare", switch_id, self.core.current, to))
        return switch_id

    def stop(self) -> None:
        """Teardown: ignore further control traffic, cancel the abort
        timer.  Idempotent."""
        self._stopped = True
        if self._abort_timer is not None:
            self._abort_timer.cancel()
            self._abort_timer = None

    def on_switch_aborted(
        self, callback: Callable[[SwitchAborted], None]
    ) -> None:
        """``callback(outcome)`` fires when this member applies an abort."""
        self._abort_callbacks.append(callback)

    def on_global_complete(
        self, callback: Callable[[SwitchId, float], None]
    ) -> None:
        """Manager-side: fires with (switch id, duration) once every
        member has reported DONE."""
        self._global_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Control-channel input
    # ------------------------------------------------------------------
    def control_receive(self, msg: Message) -> None:
        """Dispatch one message arriving on the SP control channel."""
        if self._stopped:
            self.stats.incr("dropped_after_stop")
            return
        body = msg.body
        kind = body[0]
        if kind == "prepare":
            self._on_prepare(*body[1:])
        elif kind == "ok":
            self._on_ok(*body[1:])
        elif kind == "switch":
            self._on_switch(*body[1:])
        elif kind == "done":
            self._on_done(*body[1:])
        elif kind == "abort":
            self._on_abort(*body[1:])
        else:  # pragma: no cover - defensive
            raise SwitchError(f"unknown control message kind {kind!r}")

    # ------------------------------------------------------------------
    # Member behaviour
    # ------------------------------------------------------------------
    def _on_prepare(self, switch_id: SwitchId, old: str, new: str) -> None:
        if switch_id in self._aborted:
            return
        self._switch_old_new[switch_id] = (old, new)
        count = self.core.begin_switch(old, new)
        self.stats.incr("prepared")
        if self.obs.enabled:
            self.obs.emit(
                "switch/prepared", switch=list(switch_id), old=old, new=new
            )

        def notify_done(finished_old: str, finished_new: str) -> None:
            self._done_subs.pop(switch_id, None)
            self._locally_completed.add(switch_id)
            self._unicast(switch_id[0], ("done", switch_id, self.ctx.rank))

        self._done_subs[switch_id] = self.core.on_switch_complete(
            notify_done, once=True
        )
        self._unicast(switch_id[0], ("ok", switch_id, self.ctx.rank, count))

    def _on_switch(self, switch_id: SwitchId, vector: Dict[int, int]) -> None:
        self.core.set_vector(vector)

    # ------------------------------------------------------------------
    # Manager behaviour
    # ------------------------------------------------------------------
    def _on_ok(self, switch_id: SwitchId, member: int, count: int) -> None:
        if switch_id != self._managing:
            return
        if switch_id in self._vector_sent:
            # Late or retransmitted OK: the vector is immutable once sent
            # — re-broadcasting it (and re-entering the "switch" phase
            # span) would just burn control-channel bandwidth.
            self.stats.incr("duplicate_oks")
            return
        self._ok_counts[member] = count
        if set(self._ok_counts) >= set(self.ctx.group.members):
            self._vector_sent.add(switch_id)
            self.stats.incr("vector_sent")
            self._phases.phase(switch_id, "switch")
            self._broadcast(("switch", switch_id, dict(self._ok_counts)))

    def _on_done(self, switch_id: SwitchId, member: int) -> None:
        if switch_id != self._managing:
            return
        if not self._done_members:
            # First DONE: some member flipped — the group is flushing.
            self._phases.phase(switch_id, "flush")
        self._done_members.add(member)
        if self._done_members >= set(self.ctx.group.members):
            duration = self.ctx.now - self._switch_started_at
            self.last_switch_duration = duration
            self._managing = None
            if self._abort_timer is not None:
                self._abort_timer.cancel()
                self._abort_timer = None
            self.stats.incr("globally_complete")
            self._vector_sent.discard(switch_id)
            self._phases.complete(switch_id, duration)
            for callback in self._global_callbacks:
                callback(switch_id, duration)

    # ------------------------------------------------------------------
    # Timeout abort
    # ------------------------------------------------------------------
    def _timeout_abort(self, switch_id: SwitchId) -> None:
        if self._managing != switch_id:
            return  # completed (or superseded) in the meantime
        self.stats.incr("switch_timeouts")
        reason = f"switch did not complete within {self.switch_timeout}s"
        self._broadcast(("abort", switch_id, reason))

    def _on_abort(self, switch_id: SwitchId, reason: str) -> None:
        if switch_id in self._aborted:
            return
        self._aborted.add(switch_id)
        self._vector_sent.discard(switch_id)
        unsubscribe = self._done_subs.pop(switch_id, None)
        if unsubscribe is not None:
            unsubscribe()
        old, new = self._switch_old_new.get(switch_id, (None, None))
        if self.core.switching:
            phase = "prepare" if self.core.vector is None else "switch"
            self.core.abort_switch()
        elif switch_id in self._locally_completed:
            phase = "flush"
            if old is not None:
                self.core.revert_to(old)
        else:
            phase = "unknown"
        if self._managing == switch_id:
            self._managing = None
            if self._abort_timer is not None:
                self._abort_timer.cancel()
                self._abort_timer = None
        outcome = SwitchAborted(
            switch_id, old, new, phase, reason, self.ctx.now
        )
        self.last_abort = outcome
        self.stats.incr("switches_aborted")
        self._phases.abort(switch_id, reason, phase)
        for callback in self._abort_callbacks:
            callback(outcome)

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _broadcast(self, body: tuple) -> None:
        msg = self.ctx.make_message(body, 32, dest=None)
        self._control_send(msg)

    def _unicast(self, to: int, body: tuple) -> None:
        msg = self.ctx.make_message(body, 32, dest=(to,))
        self._control_send(msg)
