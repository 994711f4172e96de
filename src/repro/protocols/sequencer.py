"""Sequencer-based total-order multicast.

The first of the two total-order mechanisms evaluated in §7, after
Kaashoek's Amoeba broadcast [8]: messages are sent FIFO to a fixed
*sequencer* process, which assigns a global sequence number and forwards
them by multicast, again FIFO.  Everyone (the original sender included)
delivers in global-sequence order.

Latency is low — basically twice the network latency — but the sequencer
handles every message twice (receive + forward) plus ordering work, so it
saturates first as the number of active senders grows.  That saturation
is the left-hand curve of Figure 2.

``order_cost`` models the sequencer's per-message protocol processing; on
the Ethernet model it queues on the sequencer's host CPU, which is what
produces the rising latency curve.
"""

from __future__ import annotations

from typing import Dict, Optional

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["SequencerLayer"]

_HEADER = "seqr"
_HEADER_SIZE = 8


class SequencerLayer(Layer):
    """Total order via a centralized sequencer.

    Args:
        sequencer: rank of the sequencer process (defaults to the group
            coordinator).
        order_cost: CPU seconds of ordering work per message at the
            sequencer (0 disables the model).
    """

    name = "seqr"

    def __init__(self, sequencer: Optional[int] = None, order_cost: float = 0.0) -> None:
        super().__init__()
        if order_cost < 0:
            raise ProtocolError("order_cost must be non-negative")
        self._sequencer_rank = sequencer
        self.order_cost = order_cost
        self._next_gseq = 0  # sequencer-only: next number to assign
        self._expected = 0  # everyone: next number to deliver
        self._holdback: Dict[int, Message] = {}
        self.stats = Counter()

    # ------------------------------------------------------------------
    @property
    def sequencer(self) -> int:
        if self._sequencer_rank is not None:
            return self._sequencer_rank
        return self.ctx.group.coordinator

    @property
    def is_sequencer(self) -> bool:
        return self.ctx.rank == self.sequencer

    # ------------------------------------------------------------------
    # Downward
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        if msg.dest is not None:
            # Not a group cast: control traffic of a layer above (e.g. a
            # priority RELEASE).  Ordering doesn't apply; pass through.
            self.stats.incr("passthrough")
            self.send_down(msg)
            return
        self.stats.incr("casts")
        if self.is_sequencer:
            self._order(msg)
        else:
            self.send_down(
                msg.with_header(_HEADER, {"k": "raw"}, _HEADER_SIZE).with_dest(
                    (self.sequencer,)
                )
            )

    # ------------------------------------------------------------------
    # Upward
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        header = msg.header(_HEADER)
        if header is None:
            self.deliver_up(msg)
            return
        kind = header["k"]
        if kind == "raw":
            if not self.is_sequencer:
                raise ProtocolError(
                    f"rank {self.ctx.rank}: raw submission but I am not the sequencer"
                )
            self._order(msg.without_header(_HEADER, _HEADER_SIZE))
        elif kind == "ord":
            self._on_ordered(msg, header["gseq"])
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown sequencer header kind {kind!r}")

    # ------------------------------------------------------------------
    # Sequencer-side ordering
    # ------------------------------------------------------------------
    def _order(self, msg: Message) -> None:
        """Queue ordering work, then assign a number and forward."""

        def assign_and_forward() -> None:
            gseq = self._next_gseq
            self._next_gseq += 1
            self.stats.incr("ordered")
            self.send_down(
                msg.with_header(
                    _HEADER, {"k": "ord", "gseq": gseq}, _HEADER_SIZE
                ).with_dest(None)
            )

        self.ctx.cpu_work(self.order_cost, assign_and_forward)

    # ------------------------------------------------------------------
    # Delivery in global order
    # ------------------------------------------------------------------
    def _on_ordered(self, msg: Message, gseq: int) -> None:
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
    def holdback_size(self) -> int:
        return len(self._holdback)
