"""The token-ring variant of the switching protocol (§2, as implemented
by the paper's authors).

A token travels a logical ring of the group members over the SP's
private control channel.  "The token itself has a mode based on the phase
of the protocol":

* ``NORMAL`` — nothing happening.  A member wanting to switch must hold
  this token (concurrent switch requests are therefore serialized for
  free — the paper's "bonus").  The paper circulates it "at a
  configurable pace"; here the baseline protocol *rests* it where the
  last switch ended and fetches it on demand, so a quiet group sends
  nothing, while the fault-tolerant subclass keeps it circulating as its
  failure detector (see "The SP token at rest" in docs/PROTOCOLS.md).
* ``PREPARE`` — the initiator changed the token; every receiver acts as
  if it received the broadcast variant's PREPARE (send on the new
  protocol, buffer its deliveries) and piggybacks its OK count on the
  token.
* ``SWITCH`` — when PREPARE returns, the initiator knows all counts and
  circulates the vector.
* ``FLUSH`` — unlike the other tokens, a member forwards this one only
  after it has delivered all old-protocol messages; when it returns, the
  switch has truly completed at every member and the initiator turns the
  token back to NORMAL.

Three rotations per switch, exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..errors import SwitchError
from ..obs.bus import PhaseTracker
from ..obs.metrics import Counter
from ..stack.layer import LayerContext, SendFn
from ..stack.message import Message
from .base import SwitchAborted, SwitchCore, SwitchMode

__all__ = [
    "TokenSwitchProtocol",
    "FaultToleranceConfig",
    "ResilientTokenSwitchProtocol",
]

SwitchId = Tuple[int, int]


class TokenSwitchProtocol:
    """NORMAL → PREPARE → SWITCH → FLUSH token-ring switching.

    Outside a switch the token *rests* at one member — the coordinator
    at start, afterwards whoever initiated the last switch — and the
    control channel carries nothing.  A member that wants to switch and
    does not hold the token announces ``("want", target)`` to the group;
    the holder hands the token over, one asker at a time in ring order,
    so concurrent requests stay serialized by the token.

    Args:
        ctx: layer context (rank, group, timers).
        core: the shared switching state machine.
        control_send: send function of the SP's private control channel.
        token_interval: paces the NORMAL token of the fault-tolerant
            subclass only; this class keeps no token in motion.
    """

    def __init__(
        self,
        ctx: LayerContext,
        core: SwitchCore,
        control_send: SendFn,
        token_interval: float = 0.010,
    ) -> None:
        if token_interval < 0:
            raise SwitchError("token_interval must be non-negative")
        self.ctx = ctx
        self.core = core
        self._control_send = control_send
        self.token_interval = token_interval
        self._initiations = 0
        self._want: Optional[str] = None
        self._resting = False
        #: Announced, unserved wants of the other members: rank -> target.
        self._asked: Dict[int, str] = {}
        self._held_flush: Optional[tuple] = None  # flush token awaiting drain
        self._switch_started_at = 0.0
        self.last_switch_duration: Optional[float] = None
        self.stats = Counter()
        self._started = False
        self._stopped = False
        #: Instrumentation scope + initiator-side switch-phase spans.
        #: No-ops unless the run wired an enabled bus into the context.
        self.obs = ctx.obs
        self._phases = PhaseTracker(ctx.obs)
        self._global_callbacks: List[Callable[[SwitchId, float], None]] = []
        core.on_switch_complete(self._on_local_complete)

    # ------------------------------------------------------------------
    # Lifecycle: the token starts at rest with the ring coordinator
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Rest the token at the ring coordinator; nothing is sent.

        A switch requested before ``start()`` is served now.
        """
        self._started = True
        if self.ctx.rank == self.ctx.group.coordinator:
            self._rest()
        if self._want is not None:
            self._seek()

    def stop(self) -> None:
        """Teardown: drop arriving tokens and stop sending.

        A token resting or arriving here dies with the group instead of
        being handed to a member that no longer exists.  Idempotent.
        """
        self._stopped = True
        self._resting = False

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def request_switch(self, to: str) -> None:
        """Ask to switch to ``to`` as soon as the NORMAL token is here.

        Requests are sticky: the latest request wins.  The member the
        token rests at initiates on the next scheduler turn; any other
        member announces its want to the group and initiates when the
        token is handed over.  Requesting the protocol that is already
        current cancels any pending request.
        """
        if to not in self.core.slots:
            raise SwitchError(f"unknown protocol {to!r}")
        if self._stopped:
            self.stats.incr("dropped_after_stop")
            return
        if to == self.core.current and not self.core.switching:
            self._want = None
            return
        announced, self._want = self._want, to
        if to != announced:
            self._seek()

    @property
    def pending_request(self) -> Optional[str]:
        return self._want

    @property
    def resting(self) -> bool:
        """True while the NORMAL token rests at this member."""
        return self._resting

    def on_global_complete(
        self, callback: Callable[[SwitchId, float], None]
    ) -> None:
        """Initiator-side: fires with (switch id, duration) when the FLUSH
        token has completed its rotation (switch done at every member)."""
        self._global_callbacks.append(callback)

    # ------------------------------------------------------------------
    # Control-channel input
    # ------------------------------------------------------------------
    def control_receive(self, msg: Message) -> None:
        """Process the token (or a want) arriving on the control channel."""
        if self._stopped:
            self.stats.incr("dropped_after_stop")
            return
        token = msg.body
        phase = token[0]
        if phase == "normal":
            self.stats.incr("normal_tokens")
            self._on_normal()
        elif phase == "want":
            self._on_want(msg.sender, token[1])
        elif phase == "prepare":
            self._on_prepare(*token[1:])
        elif phase == "switch":
            self._on_switch(*token[1:])
        elif phase == "flush":
            self._on_flush(*token[1:])
        else:  # pragma: no cover - defensive
            raise SwitchError(f"unknown token phase {phase!r}")

    # ------------------------------------------------------------------
    # The token at rest: seek, hand over, come to rest
    # ------------------------------------------------------------------
    def _seek(self) -> None:
        """Fetch the token for the want just recorded."""
        if not self._started:
            return  # start() seeks
        if self._resting:
            # Never re-enter the core under the caller (an oracle poll,
            # possibly a deliver callback): initiate on the next turn.
            self.ctx.after(0.0, self._wake)
            return
        self.stats.incr("wants_sent")
        if self.obs.enabled:
            self.obs.emit("token/want", to=self._want)
        self._control_send(self.ctx.make_message(("want", self._want), 24))

    def _wake(self) -> None:
        if self._resting:
            self._resting = False
            self._on_normal()

    def _on_want(self, asker: int, target: str) -> None:
        if asker == self.ctx.rank:
            return  # loopback copy of our own announcement
        self._asked[asker] = target
        if self._resting and self._want is None:
            self._wake()  # hand over at once (a want of our own has a wake due)

    def _settle(self) -> None:
        """The token is here and unwanted: hand it to the next asker in
        ring order, or rest.  Wants for the protocol that is already
        current are dropped, not served."""
        group, rank = self.ctx.group, self.ctx.rank
        for member in sorted(
            self._asked, key=lambda asker: group.ring_distance(rank, asker)
        ):
            target = self._asked.pop(member)
            if target == self.core.current:
                self.stats.incr("stale_wants_dropped")
                continue
            self.stats.incr("handovers")
            if self.obs.enabled:
                self.obs.emit("token/handover", to=member)
            self._send(("normal",), member)
            return
        self._rest()

    def _rest(self) -> None:
        self._resting = True
        self.stats.incr("rested")
        if self.obs.enabled:
            self.obs.emit("token/rest")

    # ------------------------------------------------------------------
    # Phase handling
    # ------------------------------------------------------------------
    def _on_normal(self) -> None:
        """The NORMAL token is here (handed over, woken from rest, or the
        FLUSH rotation just closed): initiate our own want, else settle."""
        want = self._want
        if want is None or self.core.mode is not SwitchMode.NORMAL:
            self._settle()
            return
        # Become the initiator: NORMAL -> PREPARE.
        self._want = None
        switch_id: SwitchId = (self.ctx.rank, self._initiations)
        self._initiations += 1
        self._switch_started_at = self.ctx.now
        old, new = self.core.current, want
        count = self.core.begin_switch(old, new)
        self.stats.incr("initiated")
        self._phases.begin(switch_id, old, new)
        self._forward(("prepare", switch_id, old, new, {self.ctx.rank: count}))

    def _on_prepare(
        self, switch_id: SwitchId, old: str, new: str, counts: Dict[int, int]
    ) -> None:
        if switch_id[0] == self.ctx.rank:
            # Full rotation: counts are complete; disseminate the vector.
            self.core.set_vector(counts)
            self.stats.incr("vector_built")
            self._phases.phase(switch_id, "switch")
            self._forward(("switch", switch_id, dict(counts)))
            return
        # The initiator has the token: its want is served.
        self._asked.pop(switch_id[0], None)
        count = self.core.begin_switch(old, new)
        new_counts = dict(counts)
        new_counts[self.ctx.rank] = count
        self.stats.incr("prepared")
        self._forward(("prepare", switch_id, old, new, new_counts))

    def _on_switch(self, switch_id: SwitchId, vector: Dict[int, int]) -> None:
        if switch_id[0] == self.ctx.rank:
            # Second rotation done: start the FLUSH rotation.
            self._phases.phase(switch_id, "flush")
            self._forward_flush(("flush", switch_id))
            return
        self.core.set_vector(vector)
        self._forward(("switch", switch_id, vector))

    def _on_flush(self, switch_id: SwitchId) -> None:
        if switch_id[0] == self.ctx.rank:
            # Third rotation done: the switch has completed everywhere.
            duration = self.ctx.now - self._switch_started_at
            self.last_switch_duration = duration
            self.stats.incr("globally_complete")
            self._phases.complete(switch_id, duration)
            for callback in self._global_callbacks:
                callback(switch_id, duration)
            self._on_normal()
            return
        self._forward_flush(("flush", switch_id))

    # ------------------------------------------------------------------
    # FLUSH gating: only forward once drained locally
    # ------------------------------------------------------------------
    def _forward_flush(self, token: tuple) -> None:
        if self.core.mode is SwitchMode.NORMAL:
            self._forward(token)
        else:
            self.stats.incr("flush_held")
            self._held_flush = token

    def _on_local_complete(self, old: str, new: str) -> None:
        if self._want == new:
            # Stale: someone else's switch got us there.  Cleared here, the
            # one place ``current`` changes, so a want is never for the
            # current protocol and asking for ``new`` again later is
            # announced afresh.
            self._want = None
        if self._held_flush is not None:
            token, self._held_flush = self._held_flush, None
            self._forward(token)

    # ------------------------------------------------------------------
    # Wire helpers
    # ------------------------------------------------------------------
    def _forward(self, token: tuple) -> None:
        self._send(token, self.ctx.group.ring_successor(self.ctx.rank))

    def _send(self, token: tuple, to: int) -> None:
        if self._stopped:
            return
        if self.obs.enabled:
            self.obs.emit("token/hop", kind=token[0], to=to)
        self._control_send(self.ctx.make_message(token, 40, dest=(to,)))


# ----------------------------------------------------------------------
# Fault-tolerant token-ring variant
# ----------------------------------------------------------------------

#: Ordering of the switching-phase rotations for watchdog bookkeeping.
_PHASE = {"prepare": 1, "switch": 2, "flush": 3}
_PHASE_NAME = {rank: name for name, rank in _PHASE.items()}


@dataclass(frozen=True)
class FaultToleranceConfig:
    """Timeout/retry knobs of :class:`ResilientTokenSwitchProtocol`.

    All durations are simulated seconds.

    Attributes:
        hop_timeout: how long a forwarder waits for the hop-level token
            acknowledgement before retransmitting to the same successor.
        max_hop_retries: retransmissions to one successor before the
            forwarder suspects it and reroutes around it on the ring.
        phase_timeout: base idle time (no token seen) before a member
            involved in a switch regenerates the current rotation.  The
            effective timeout is staggered by live-ring position so the
            lowest-ranked live member acts first.
        normal_timeout: like ``phase_timeout`` but while no switch is
            active (lost NORMAL token, or a dead coordinator at startup).
        abort_after: regenerations (or flush-hold strikes) tolerated for
            one switch before it is aborted back to the old protocol.
    """

    hop_timeout: float = 0.02
    max_hop_retries: int = 3
    phase_timeout: float = 0.25
    normal_timeout: float = 0.5
    abort_after: int = 4

    def __post_init__(self) -> None:
        if self.hop_timeout <= 0:
            raise SwitchError("hop_timeout must be positive")
        if self.max_hop_retries < 0:
            raise SwitchError("max_hop_retries must be non-negative")
        if self.phase_timeout <= 0 or self.normal_timeout <= 0:
            raise SwitchError("phase/normal timeouts must be positive")
        if self.abort_after < 1:
            raise SwitchError("abort_after must be at least 1")


class _PendingHop:
    """One in-flight token hop awaiting its acknowledgement."""

    __slots__ = ("token", "targets", "attempt", "timer")

    def __init__(self, token: tuple, targets: List[int]) -> None:
        self.token = token
        self.targets = targets
        self.attempt = 0
        self.timer = None


class ResilientTokenSwitchProtocol(TokenSwitchProtocol):
    """Token-ring switching that survives token loss and member crashes.

    The baseline :class:`TokenSwitchProtocol` wedges forever if a single
    token copy is lost or any member dies mid-rotation.  This subclass
    layers four mechanisms on top of the same three-rotation choreography
    (the wire format grows, the §2 semantics do not):

    * **Generation numbers.**  Every token carries a generation — a
      ``(counter, rank)`` pair ordered lexicographically — so regenerated
      tokens supersede lost-and-found stragglers and duplicates are
      detected, making regeneration idempotent.
    * **Hop acknowledgements.**  Each forwarder expects a ``tok-ack``
      from its successor within ``hop_timeout``; it retransmits up to
      ``max_hop_retries`` times, then suspects the successor and reroutes
      around it on the ring (suspicion is withdrawn the moment the member
      is heard from again).
    * **Watchdog regeneration.**  Every member keeps a sim-clock watchdog
      staggered by live-ring position: if no token is seen for the
      staggered timeout, the lowest-ranked live member regenerates the
      current rotation from its recorded state (the initiator's recorded
      count/vector survives in every member that saw the token, so on
      initiator crash the lowest-ranked live *visited* member takes
      over).  Rotation completion is detected from the token's visited
      set rather than "it came back to its birthplace".
    * **Bounded abort.**  A switch that keeps stalling — more than
      ``abort_after`` regenerations, or a FLUSH held that long because
      the old protocol cannot drain — is aborted: an ABORT rotation
      reverts every member to the old protocol and surfaces a structured
      :class:`~repro.core.base.SwitchAborted` outcome instead of
      wedging.  Members that had already completed revert too, so the
      group converges (see docs/PROTOCOLS.md for the property traded
      away).

    Fault tolerance is strictly opt-in: constructing the baseline class
    leaves the wire format and RNG draw order byte-identical to the seed.
    """

    def __init__(
        self,
        ctx: LayerContext,
        core: SwitchCore,
        control_send: SendFn,
        token_interval: float = 0.010,
        ft: Optional[FaultToleranceConfig] = None,
    ) -> None:
        super().__init__(ctx, core, control_send, token_interval)
        self.ft = ft or FaultToleranceConfig()
        #: Current token generation: (counter, rank of the regenerator).
        self._gen: Tuple[int, int] = (0, ctx.group.coordinator)
        self._normal_seq = 0
        self._last_normal: Tuple[Tuple[int, int], int] = (self._gen, -1)
        self._suspects: set = set()
        self._processed: set = set()  # (kind, gen, sender, switch id)
        self._counts_reported: Dict[SwitchId, int] = {}
        self._switch_old_new: Dict[SwitchId, Tuple[str, str]] = {}
        self._vector_seen: Dict[SwitchId, Dict[int, int]] = {}
        self._completed: set = set()  # switch ids drained locally
        self._aborted: set = set()
        self._reasserted: set = set()
        self._active: Optional[Tuple[SwitchId, int]] = None
        self._first_seen: Dict[SwitchId, float] = {}
        self._regen_count: Dict[SwitchId, int] = {}
        self._hold_strikes = 0
        self._pending_hop: Optional[_PendingHop] = None
        self._last_token_at = 0.0
        self._watchdog = None
        self._abort_callbacks: List[Callable[[SwitchAborted], None]] = []
        self._token_observers: List[
            Callable[[str, Tuple[int, int], Optional[SwitchId]], None]
        ] = []
        #: Most recent abort outcome observed at this member, if any.
        self.last_abort: Optional[SwitchAborted] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Inject the first NORMAL token and arm the stall watchdog."""
        if self.ctx.rank == self.ctx.group.coordinator:
            self.ctx.after(0.0, lambda: self._emit_normal(paced=False))
        self._arm_watchdog()

    def stop(self) -> None:
        """Teardown: silence the watchdog and any in-flight hop retries."""
        super().stop()
        watchdog, self._watchdog = self._watchdog, None
        if watchdog is not None:
            watchdog.cancel()
        self._cancel_pending_hop()

    def _seek(self) -> None:
        """Nothing to fetch: this variant's NORMAL token keeps circulating
        (it is the failure detector and the reconcile channel) and serves
        a want when it next comes by."""

    # ------------------------------------------------------------------
    # Observers
    # ------------------------------------------------------------------
    def on_switch_aborted(
        self, callback: Callable[[SwitchAborted], None]
    ) -> None:
        """``callback(outcome)`` fires when this member applies an abort."""
        self._abort_callbacks.append(callback)

    def on_token(
        self,
        callback: Callable[[str, Tuple[int, int], Optional[SwitchId]], None],
    ) -> None:
        """Testing hook: ``callback(kind, gen, switch_id)`` per fresh token."""
        self._token_observers.append(callback)

    # ------------------------------------------------------------------
    # Watchdog: detect a stalled ring from token silence
    # ------------------------------------------------------------------
    def _live_index(self) -> int:
        """This member's position among non-suspected members (0 = first)."""
        live = [m for m in self.ctx.group.members if m not in self._suspects]
        if self.ctx.rank not in live:
            return 0
        return live.index(self.ctx.rank)

    def _stall_threshold(self) -> float:
        base = (
            self.ft.phase_timeout
            if self._active is not None
            else self.ft.normal_timeout
        )
        # Stagger by live-ring position so exactly one member (usually)
        # acts first; ties are resolved by generation numbers anyway.
        return base * (1 + self._live_index())

    def _arm_watchdog(self) -> None:
        poll = min(self.ft.phase_timeout, self.ft.normal_timeout) / 4
        self._watchdog = self.ctx.after(poll, self._watchdog_fire)

    def _watchdog_fire(self) -> None:
        if self._stopped:
            return
        if self.ctx.now - self._last_token_at >= self._stall_threshold():
            self._last_token_at = self.ctx.now  # fresh stall window
            self._on_stall()
        self._arm_watchdog()

    def _on_stall(self) -> None:
        self.stats.incr("stalls_detected")
        if self.obs.enabled:
            self.obs.emit(
                "watchdog/stall",
                gen=list(self._gen),
                switch=list(self._active[0]) if self._active else None,
            )
        if self._active is None:
            self._regenerate_normal()
            return
        switch_id, __ = self._active
        if self._held_flush is not None and self.core.switching:
            # We cannot drain the old protocol.  Waiting may help (the
            # old slot may still retransmit), but only up to the budget.
            self._hold_strikes += 1
            self.stats.incr("flush_hold_strikes")
            if self._hold_strikes > self.ft.abort_after:
                self._start_abort(
                    switch_id, "flush could not drain within retry budget"
                )
            return
        count = self._regen_count.get(switch_id, 0) + 1
        self._regen_count[switch_id] = count
        if count > self.ft.abort_after:
            self._start_abort(
                switch_id, f"switch stalled after {count - 1} regenerations"
            )
            return
        self._regenerate_phase(switch_id)

    def _bump_gen(self) -> Tuple[int, int]:
        self._gen = (self._gen[0] + 1, self.ctx.rank)
        self._processed.clear()
        return self._gen

    def _emit_normal(self, paced: bool) -> None:
        self._normal_seq += 1
        self._last_normal = (self._gen, self._normal_seq)
        # The NORMAL token names the emitter's current protocol so that
        # members separated by a lost abort/flush rotation reconcile:
        # whoever's token circulates pulls idle disagreers to its side.
        self._send_token(
            ("normal", self._gen, self._normal_seq, self.core.current),
            paced=paced,
        )

    def _regenerate_normal(self) -> None:
        gen = self._bump_gen()
        self.stats.incr("regenerated_tokens")
        if self.obs.enabled:
            self.obs.emit("token/regenerate", kind="normal", gen=list(gen))
        self._normal_seq = 0
        self._emit_normal(paced=False)

    def _regenerate_phase(self, switch_id: SwitchId) -> None:
        """Re-issue the deepest rotation this member can vouch for."""
        gen = self._bump_gen()
        self.stats.incr("regenerated_tokens")
        if self.obs.enabled:
            self.obs.emit(
                "token/regenerate",
                kind="phase",
                gen=list(gen),
                switch=list(switch_id),
            )
        rank = self.ctx.rank
        old, new = self._switch_old_new[switch_id]
        if switch_id in self._completed:
            token = ("flush", gen, switch_id, old, new, (rank,))
        elif switch_id in self._vector_seen:
            token = (
                "switch",
                gen,
                switch_id,
                old,
                new,
                dict(self._vector_seen[switch_id]),
                (rank,),
            )
        else:
            count = self._counts_reported.get(switch_id)
            if count is None:  # pragma: no cover - defensive
                return
            token = ("prepare", gen, switch_id, old, new, {rank: count}, (rank,))
        self._send_token(token, paced=False)

    # ------------------------------------------------------------------
    # Hop-level transmission with ack/retransmit/reroute
    # ------------------------------------------------------------------
    def _hop_targets(self) -> List[int]:
        """Ring successors after this member, suspects skipped, self last."""
        members = self.ctx.group.members
        idx = members.index(self.ctx.rank)
        ring = [members[(idx + k) % len(members)] for k in range(1, len(members))]
        targets = [m for m in ring if m not in self._suspects]
        if not targets:
            # Everyone looks dead.  Far more likely *we* were the one cut
            # off (a crash window just ended, say), so re-probe the ring
            # instead of settling into a self-loopback steady state.
            self._suspects.clear()
            self.stats.incr("suspects_reset")
            targets = list(ring)
        targets.append(self.ctx.rank)  # last resort: close the loop locally
        return targets

    def _send_token(self, token: tuple, paced: bool) -> None:
        def transmit() -> None:
            if self._stopped:
                return
            self._start_hop(token, self._hop_targets())

        if paced and self.token_interval > 0:
            self.ctx.after(self.token_interval, transmit)
        else:
            transmit()

    def _cancel_pending_hop(self) -> None:
        pending, self._pending_hop = self._pending_hop, None
        if pending is not None and pending.timer is not None:
            pending.timer.cancel()

    def _start_hop(self, token: tuple, targets: List[int]) -> None:
        self._cancel_pending_hop()
        pending = _PendingHop(token, list(targets))
        self._pending_hop = pending
        self._transmit(token, pending.targets[0])
        pending.timer = self.ctx.after(self.ft.hop_timeout, self._hop_timeout)

    def _transmit(self, token: tuple, target: int) -> None:
        if self.obs.enabled:
            self.obs.emit(
                "token/hop", kind=token[0], to=target, gen=list(token[1])
            )
        msg = self.ctx.make_message(token, 48, dest=(target,))
        self._control_send(msg)

    def _hop_timeout(self) -> None:
        pending = self._pending_hop
        if pending is None:
            return
        if pending.attempt < self.ft.max_hop_retries:
            pending.attempt += 1
            self.stats.incr("hop_retransmits")
            if self.obs.enabled:
                self.obs.emit(
                    "token/retransmit",
                    kind=pending.token[0],
                    to=pending.targets[0],
                    attempt=pending.attempt,
                    gen=list(pending.token[1]),
                )
            self._transmit(pending.token, pending.targets[0])
            pending.timer = self.ctx.after(self.ft.hop_timeout, self._hop_timeout)
            return
        # Give up on this successor and route around it.
        unresponsive = pending.targets.pop(0)
        if unresponsive != self.ctx.rank:
            self._suspects.add(unresponsive)
            self.stats.incr("suspected")
        if pending.targets:
            self.stats.incr("hop_reroutes")
            if self.obs.enabled:
                self.obs.emit(
                    "token/reroute",
                    kind=pending.token[0],
                    around=unresponsive,
                    to=pending.targets[0],
                    gen=list(pending.token[1]),
                )
            token, targets = pending.token, pending.targets
            self._pending_hop = None
            self._start_hop(token, targets)
        else:  # pragma: no cover - defensive (self is always last)
            self._pending_hop = None

    def _ack(self, gen: Tuple[int, int], kind: str, to: int) -> None:
        msg = self.ctx.make_message(("tok-ack", gen, kind), 16, dest=(to,))
        self._control_send(msg)

    def _on_tok_ack(self, gen: Tuple[int, int], kind: str, sender: int) -> None:
        pending = self._pending_hop
        if (
            pending is not None
            and pending.token[0] == kind
            and pending.token[1] == gen
            and pending.targets
            and pending.targets[0] == sender
        ):
            self.stats.incr("hops_acked")
            if self.obs.enabled:
                self.obs.emit(
                    "token/ack", kind=kind, sender=sender, gen=list(gen)
                )
            self._cancel_pending_hop()

    # ------------------------------------------------------------------
    # Control-channel input
    # ------------------------------------------------------------------
    def control_receive(self, msg: Message) -> None:
        if self._stopped:
            self.stats.incr("dropped_after_stop")
            return
        token = msg.body
        kind = token[0]
        if kind == "tok-ack":
            self._on_tok_ack(token[1], token[2], msg.sender)
            return
        gen = token[1]
        self._last_token_at = self.ctx.now
        self._ack(gen, kind, msg.sender)
        # Proof of life withdraws suspicion: the sender, the member that
        # minted this generation, and everyone the token visited.  (A
        # recovered member never transmits to its ring *predecessor*, so
        # sender-only evidence would leave it suspected forever.)
        self._suspects.discard(msg.sender)
        self._suspects.discard(gen[1])
        if isinstance(token[-1], tuple):  # phase tokens end in `visited`
            for member in token[-1]:
                self._suspects.discard(member)
        if gen < self._gen:
            self.stats.incr("stale_tokens")
            return
        if gen > self._gen:
            self._gen = gen
            self._processed.clear()
        if kind == "normal":
            self._notify_observers(kind, gen, None)
            self._ft_on_normal(gen, token[2], token[3])
            return
        # Keyed by switch too: one generation may carry several switches,
        # and each switch's tokens must pass.
        key = (kind, gen, msg.sender, token[2])
        if key in self._processed:
            self.stats.incr("duplicate_tokens")
            return
        self._processed.add(key)
        switch_id = token[2]
        self._notify_observers(kind, gen, switch_id)
        if kind == "prepare":
            self._ft_on_prepare(gen, *token[2:])
        elif kind == "switch":
            self._ft_on_switch(gen, *token[2:])
        elif kind == "flush":
            self._ft_on_flush(gen, *token[2:])
        elif kind == "abort":
            self._ft_on_abort(gen, *token[2:])
        else:  # pragma: no cover - defensive
            raise SwitchError(f"unknown token phase {kind!r}")

    def _notify_observers(
        self, kind: str, gen: Tuple[int, int], switch_id: Optional[SwitchId]
    ) -> None:
        for callback in self._token_observers:
            callback(kind, gen, switch_id)

    # ------------------------------------------------------------------
    # Phase handling (FT wire format carries gen + visited set)
    # ------------------------------------------------------------------
    def _ft_on_normal(
        self, gen: Tuple[int, int], seq: int, current: str
    ) -> None:
        if (gen, seq) <= self._last_normal:
            self.stats.incr("duplicate_tokens")
            return
        self._last_normal = (gen, seq)
        self.stats.incr("normal_tokens")
        if self._active is not None:
            switch_id, phase_rank = self._active
            if self.core.switching:
                # A member that missed the switch is circulating a NORMAL
                # token.  Dropping it and re-running our rotation pulls
                # the straggler (now unsuspected by its predecessor) back
                # into the switch instead of abandoning it.
                self.stats.incr("normal_preempted")
                self._regen_count[switch_id] = (
                    self._regen_count.get(switch_id, 0) + 1
                )
                if self._regen_count[switch_id] > self.ft.abort_after:
                    self._start_abort(switch_id, "ring lost the switch")
                elif self._held_flush is None:
                    self._regenerate_phase(switch_id)
                return
            # Drained and the ring is back to NORMAL: the switch is over.
            self._active = None
            self._hold_strikes = 0
        if (
            self.core.mode is SwitchMode.NORMAL
            and current != self.core.current
            and current in self.core.slots
        ):
            # Reconcile a completion/abort split: adopt the circulating
            # token's view of the current protocol.
            self.stats.incr("reconciled")
            self.core.revert_to(current)
        want = self._want
        if want is not None and want == self.core.current:
            self._want = None
            want = None
        if want is None or self.core.mode is not SwitchMode.NORMAL:
            self._normal_seq = seq
            self._send_token(
                ("normal", gen, seq + 1, self.core.current), paced=True
            )
            return
        # Become the initiator: NORMAL -> PREPARE.  Sync the NORMAL
        # sequence so the token we emit after completion is fresh.
        self._normal_seq = seq
        self._want = None
        switch_id = (self.ctx.rank, self._initiations)
        self._initiations += 1
        self._switch_started_at = self.ctx.now
        self._first_seen[switch_id] = self.ctx.now
        old, new = self.core.current, want
        count = self.core.begin_switch(old, new)
        self._counts_reported[switch_id] = count
        self._switch_old_new[switch_id] = (old, new)
        self._active = (switch_id, _PHASE["prepare"])
        self.stats.incr("initiated")
        self._phases.begin(switch_id, old, new)
        self._send_token(
            (
                "prepare",
                gen,
                switch_id,
                old,
                new,
                {self.ctx.rank: count},
                (self.ctx.rank,),
            ),
            paced=False,
        )

    def _ft_on_prepare(
        self,
        gen: Tuple[int, int],
        switch_id: SwitchId,
        old: str,
        new: str,
        counts: Dict[int, int],
        visited: tuple,
    ) -> None:
        if switch_id in self._aborted:
            self._reassert_abort(switch_id)
            return
        self._first_seen.setdefault(switch_id, self.ctx.now)
        rank = self.ctx.rank
        if rank in visited:
            self._rotation_closed("prepare", gen, switch_id, visited, counts)
            return
        if self._active is not None and self._active[0] != switch_id:
            self.stats.incr("conflicting_tokens")
            return
        self._switch_old_new[switch_id] = (old, new)
        self._active = (switch_id, _PHASE["prepare"])
        count = self._counts_reported.get(switch_id)
        if count is None:
            try:
                count = self.core.begin_switch(old, new)
            except SwitchError:
                self._start_abort(
                    switch_id, "member cannot join switch (state mismatch)"
                )
                return
            self._counts_reported[switch_id] = count
            self.stats.incr("prepared")
        new_counts = dict(counts)
        new_counts[rank] = count
        self._send_token(
            ("prepare", gen, switch_id, old, new, new_counts, visited + (rank,)),
            paced=False,
        )

    def _ft_on_switch(
        self,
        gen: Tuple[int, int],
        switch_id: SwitchId,
        old: str,
        new: str,
        vector: Dict[int, int],
        visited: tuple,
    ) -> None:
        if switch_id in self._aborted:
            self._reassert_abort(switch_id)
            return
        rank = self.ctx.rank
        if rank in visited:
            self._rotation_closed("switch", gen, switch_id, visited)
            return
        if self._active is not None and self._active[0] != switch_id:
            self.stats.incr("conflicting_tokens")
            return
        self._switch_old_new.setdefault(switch_id, (old, new))
        self._active = (switch_id, _PHASE["switch"])
        self._late_join(switch_id, old, new)
        self._vector_seen[switch_id] = dict(vector)
        if self.core.switching:
            self.core.set_vector(vector)
        self._send_token(
            ("switch", gen, switch_id, old, new, dict(vector), visited + (rank,)),
            paced=False,
        )

    def _ft_on_flush(
        self,
        gen: Tuple[int, int],
        switch_id: SwitchId,
        old: str,
        new: str,
        visited: tuple,
    ) -> None:
        if switch_id in self._aborted:
            self._reassert_abort(switch_id)
            return
        rank = self.ctx.rank
        if rank in visited:
            self._rotation_closed("flush", gen, switch_id, visited)
            return
        if self._active is not None and self._active[0] != switch_id:
            self.stats.incr("conflicting_tokens")
            return
        self._switch_old_new.setdefault(switch_id, (old, new))
        self._active = (switch_id, _PHASE["flush"])
        # A member that never saw PREPARE joins now; lacking a vector it
        # holds the flush until its own watchdog re-runs the rotations.
        self._late_join(switch_id, old, new)
        out = ("flush", gen, switch_id, old, new, visited + (rank,))
        if self.core.mode is SwitchMode.NORMAL:
            self._send_token(out, paced=False)
        else:
            self.stats.incr("flush_held")
            self._held_flush = out

    def _late_join(self, switch_id: SwitchId, old: str, new: str) -> None:
        """Pull a member that missed PREPARE into an in-flight switch."""
        if (
            switch_id in self._counts_reported
            or switch_id in self._completed
            or self.core.switching
        ):
            return
        try:
            self._counts_reported[switch_id] = self.core.begin_switch(old, new)
            self.stats.incr("late_joins")
        except SwitchError:
            pass

    def _ft_on_abort(
        self,
        gen: Tuple[int, int],
        switch_id: SwitchId,
        reason: str,
        visited: tuple,
    ) -> None:
        if self.ctx.rank in visited:
            self._rotation_closed("abort", gen, switch_id, visited)
            return
        self._apply_abort(switch_id, reason, remote=True)
        self._send_token(
            ("abort", gen, switch_id, reason, visited + (self.ctx.rank,)),
            paced=False,
        )

    # ------------------------------------------------------------------
    # Rotation closure, takeover and phase advancement
    # ------------------------------------------------------------------
    def _rotation_closed(
        self,
        kind: str,
        gen: Tuple[int, int],
        switch_id: SwitchId,
        visited: tuple,
        counts: Optional[Dict[int, int]] = None,
    ) -> None:
        """The token reached a member it already visited.

        Either we are the rotation's origin (``visited[0]``) and the
        rotation is complete, or the origin died mid-rotation and the
        lowest-ranked live visited member takes over with a fresh
        generation.  Anyone else drops the orphan.
        """
        rank = self.ctx.rank
        if visited[0] == rank:
            self._advance_phase(kind, gen, switch_id, counts)
            return
        candidates = [m for m in visited if m not in self._suspects]
        if candidates and min(candidates) == rank:
            self.stats.incr("takeovers")
            self._advance_phase(kind, self._bump_gen(), switch_id, counts)
        else:
            self.stats.incr("orphan_tokens")

    def _advance_phase(
        self,
        kind: str,
        gen: Tuple[int, int],
        switch_id: SwitchId,
        counts: Optional[Dict[int, int]],
    ) -> None:
        rank = self.ctx.rank
        if kind == "abort":
            self.stats.incr("abort_rotation_complete")
            self._emit_normal(paced=True)
            return
        old, new = self._switch_old_new[switch_id]
        if kind == "prepare":
            assert counts is not None
            vector = dict(counts)
            self._vector_seen[switch_id] = vector
            if self.core.switching:
                self.core.set_vector(vector)
            self.stats.incr("vector_built")
            self._active = (switch_id, _PHASE["switch"])
            self._phases.phase(switch_id, "switch")
            self._send_token(
                ("switch", gen, switch_id, old, new, vector, (rank,)),
                paced=False,
            )
        elif kind == "switch":
            self._active = (switch_id, _PHASE["flush"])
            self._phases.phase(switch_id, "flush")
            out = ("flush", gen, switch_id, old, new, (rank,))
            if self.core.mode is SwitchMode.NORMAL:
                self._send_token(out, paced=False)
            else:
                self.stats.incr("flush_held")
                self._held_flush = out
        elif kind == "flush":
            self._complete_switch(switch_id)

    def _complete_switch(self, switch_id: SwitchId) -> None:
        duration = self.ctx.now - self._first_seen.get(
            switch_id, self._switch_started_at
        )
        self.last_switch_duration = duration
        self.stats.incr("globally_complete")
        self._active = None
        self._hold_strikes = 0
        self._regen_count.pop(switch_id, None)
        self._phases.complete(switch_id, duration)
        for callback in self._global_callbacks:
            callback(switch_id, duration)
        self._emit_normal(paced=True)

    def _on_local_complete(self, old: str, new: str) -> None:
        if self._active is not None:
            self._completed.add(self._active[0])
        if self._held_flush is not None:
            token, self._held_flush = self._held_flush, None
            self._send_token(token, paced=False)

    # ------------------------------------------------------------------
    # Abort: converge back to the old protocol instead of wedging
    # ------------------------------------------------------------------
    def _start_abort(self, switch_id: SwitchId, reason: str) -> None:
        if switch_id in self._aborted:
            return
        gen = self._bump_gen()
        self.stats.incr("aborts_started")
        self._apply_abort(switch_id, reason, remote=False)
        self._send_token(
            ("abort", gen, switch_id, reason, (self.ctx.rank,)), paced=False
        )

    def _reassert_abort(self, switch_id: SwitchId) -> None:
        """A live rotation token surfaced for a switch we already aborted:
        push the abort decision around the ring again (once) so stragglers
        that missed the original abort rotation converge too."""
        if switch_id in self._reasserted:
            return
        self._reasserted.add(switch_id)
        gen = self._bump_gen()
        self.stats.incr("aborts_reasserted")
        self._send_token(
            ("abort", gen, switch_id, "abort reasserted", (self.ctx.rank,)),
            paced=False,
        )

    def _apply_abort(self, switch_id: SwitchId, reason: str, remote: bool) -> None:
        if switch_id in self._aborted:
            return
        self._aborted.add(switch_id)
        old, new = self._switch_old_new.get(switch_id, (None, None))
        phase = "unknown"
        if self._active is not None and self._active[0] == switch_id:
            phase = _PHASE_NAME[self._active[1]]
            self._active = None
        self._held_flush = None
        self._hold_strikes = 0
        self._regen_count.pop(switch_id, None)
        if self.core.switching:
            self.core.abort_switch()
        elif switch_id in self._completed and old is not None:
            self.core.revert_to(old)
        outcome = SwitchAborted(
            switch_id, old, new, phase, reason, self.ctx.now
        )
        self.last_abort = outcome
        self.stats.incr("switches_aborted")
        self._phases.abort(switch_id, reason, phase)
        if remote:
            self.stats.incr("aborts_learned")
        for callback in self._abort_callbacks:
            callback(outcome)
