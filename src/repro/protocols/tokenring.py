"""Token-ring total-order multicast.

The second total-order mechanism of §7, after Chang–Maxemchuk [4]: a
token carrying the next global sequence number rotates a logical ring of
the group members.  A process that wants to multicast must hold the
token; it stamps its queued messages with consecutive sequence numbers,
multicasts them, and forwards the token.

There is no bottleneck process, but a sender must wait for the token, so
latency under low load is roughly half a rotation — higher than the
sequencer's two network hops.  That flat-ish, initially-higher curve is
the right-hand series of Figure 2, and the crossover between the two is
what makes protocol switching profitable.

Token loss: composed above :class:`~repro.protocols.reliable.ReliableLayer`
the token is a sequenced unicast stream, so the reliable layer's
heartbeat/NAK machinery retransmits a lost token automatically.  For bare
stacks an optional epoch-stamped watchdog lets the coordinator regenerate
the token after prolonged silence; stale-epoch tokens are discarded on
receipt.

Dormancy: mounted under a :class:`~repro.core.base.SwitchCore`, the layer
is told when its slot carries no traffic (``quiesce``) and when it is
about to again (``resume``).  A dormant member with nothing to multicast
*parks* the token instead of forwarding it, so an unused ring is silent;
``resume`` at the holder puts it back in circulation.  A standalone stack
is never told anything and the token free-runs as described above.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["TokenRingLayer"]

_HEADER = "tring"
_HEADER_SIZE = 12

#: Declared wire size of the rotating token.
_TOKEN_SIZE = 64


class TokenRingLayer(Layer):
    """Total order via a rotating sequenced token.

    Args:
        max_burst: maximum messages multicast per token hold (None for
            all queued).
        hold_cost: CPU seconds of token-processing work per hold.
        watchdog_timeout: if positive, the coordinator regenerates the
            token after this much token silence (for loss experiments on
            bare stacks).
    """

    name = "tring"

    def __init__(
        self,
        max_burst: Optional[int] = None,
        hold_cost: float = 0.0,
        watchdog_timeout: float = 0.0,
    ) -> None:
        super().__init__()
        if max_burst is not None and max_burst <= 0:
            raise ProtocolError("max_burst must be positive")
        if hold_cost < 0 or watchdog_timeout < 0:
            raise ProtocolError("costs/timeouts must be non-negative")
        self.max_burst = max_burst
        self.hold_cost = hold_cost
        self.watchdog_timeout = watchdog_timeout
        # A list, not a deque: an empty deque costs ~770 B and a fleet
        # holds thousands of rings, nearly all with nothing pending.
        self._pending: List[Message] = []
        self._expected = 0
        self._holdback: Dict[int, Message] = {}
        self._last_token_seen = 0.0
        self._epoch = 0  # highest token epoch seen
        self._next_unassigned = 0  # best knowledge of the next free gseq
        self._dormant = False
        self._parked: Optional[Tuple[int, int]] = None  # (gseq, epoch) kept
        self.stats = Counter()

    # ------------------------------------------------------------------
    # Lifecycle: the coordinator injects the token
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        if self.ctx.rank == self.ctx.group.coordinator:
            self.ctx.after(0.0, lambda: self._hold_token(0, 0))
            if self.watchdog_timeout > 0:
                self.ctx.after(self.watchdog_timeout, self._watchdog)

    def quiesce(self) -> None:
        self._dormant = True

    def resume(self) -> None:
        self._dormant = False
        # A parked ring was silent by design: restart the silence window.
        self._last_token_seen = self.ctx.now
        if self._parked is not None:
            # One scheduler turn later, so the token leaves *after* the SP
            # message that woke us (docs/PROTOCOLS.md, "Dormant slots").
            self.ctx.after(0.0, self._release)

    def _release(self) -> None:
        if self._parked is None:
            return
        (gseq, epoch), self._parked = self._parked, None
        self.stats.incr("resumed")
        if self.ctx.obs.enabled:
            self.ctx.obs.emit("tring/resume", gseq=gseq, epoch=epoch)
        self._hold_token(gseq, epoch)

    # ------------------------------------------------------------------
    # Downward: queue until we hold the token
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        if msg.dest is not None:
            # Control traffic of a layer above: no ordering, pass through.
            self.stats.incr("passthrough")
            self.send_down(msg)
            return
        self.stats.incr("casts")
        self._pending.append(msg)

    # ------------------------------------------------------------------
    # Upward
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        header = msg.header(_HEADER)
        if header is None:
            self.deliver_up(msg)
            return
        kind = header["k"]
        if kind == "tok":
            self._on_token(header["gseq"], header["ep"])
        elif kind == "dat":
            self._on_data(msg, header["gseq"])
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown token-ring header kind {kind!r}")

    # ------------------------------------------------------------------
    # Token handling
    # ------------------------------------------------------------------
    def _on_token(self, gseq: int, epoch: int) -> None:
        if not self._started:
            # Torn down: let the token die here instead of re-arming.
            return
        if epoch < self._epoch:
            # Leftover token from before a regeneration: retire it.
            self.stats.incr("stale_tokens")
            return
        self._epoch = epoch
        self._last_token_seen = self.ctx.now
        self.ctx.cpu_work(self.hold_cost, lambda: self._hold_token(gseq, epoch))

    def _hold_token(self, gseq: int, epoch: int) -> None:
        if not self._started:
            return
        self.stats.incr("holds")
        if self._dormant and not self._pending:
            # Nobody sends on this slot and nothing is owed from it: keep
            # the token here until resume() instead of spinning the ring.
            self._parked = (gseq, epoch)
            self.stats.incr("parked")
            if self.ctx.obs.enabled:
                self.ctx.obs.emit("tring/park", gseq=gseq, epoch=epoch)
            return
        burst = len(self._pending)
        if self.max_burst is not None:
            burst = min(burst, self.max_burst)
        batch = self._pending[:burst]
        del self._pending[:burst]
        for msg in batch:
            self.stats.incr("multicasts")
            self.send_down(
                msg.with_header(
                    _HEADER, {"k": "dat", "gseq": gseq}, _HEADER_SIZE
                ).with_dest(None)
            )
            gseq += 1
        self._next_unassigned = max(self._next_unassigned, gseq)
        self._last_token_seen = self.ctx.now
        successor = self.ctx.group.ring_successor(self.ctx.rank)
        if successor == self.ctx.rank:
            # Singleton group: re-circulate via a timer to avoid an
            # unbounded synchronous loop.
            self.ctx.after(1e-4, lambda: self._on_token(gseq, epoch))
            return
        token = self.ctx.make_message(None, _TOKEN_SIZE, dest=(successor,))
        self.send_down(
            token.with_header(
                _HEADER, {"k": "tok", "gseq": gseq, "ep": epoch}, _HEADER_SIZE
            )
        )

    def _watchdog(self) -> None:
        if not self._started:
            return
        silent_for = self.ctx.now - self._last_token_seen
        if silent_for >= self.watchdog_timeout and not self._dormant:
            self.stats.incr("regenerations")
            self._epoch += 1
            self._hold_token(self._next_unassigned, self._epoch)
        self.ctx.after(self.watchdog_timeout, self._watchdog)

    # ------------------------------------------------------------------
    # Delivery in global order
    # ------------------------------------------------------------------
    def _on_data(self, msg: Message, gseq: int) -> None:
        self._next_unassigned = max(self._next_unassigned, gseq + 1)
        if gseq < self._expected or gseq in self._holdback:
            self.stats.incr("duplicates")
            return
        self._holdback[gseq] = msg
        while self._expected in self._holdback:
            ready = self._holdback.pop(self._expected)
            self._expected += 1
            self.stats.incr("delivered")
            self.deliver_up(ready.without_header(_HEADER, _HEADER_SIZE))

    @property
    def queued(self) -> int:
        return len(self._pending)

    @property
    def parked(self) -> bool:
        """True while this member keeps the token of a dormant ring."""
        return self._parked is not None
