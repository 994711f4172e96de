"""Prioritized Delivery: the master delivers every message first
(Table 1).

Mechanism: non-master receivers buffer incoming data until the master
multicasts a RELEASE for it; the master delivers immediately and then
releases.  The resulting *global* ordering guarantee (master's Deliver
precedes everyone else's, in real time) is exactly the kind of
cross-process ordering that the Asynchrony meta-property forbids — which
is why the paper singles this property out as not preserved by the
switching protocol (§5.2).

Run above a reliable layer on lossy networks (a lost RELEASE would stall
its message forever on a bare stack).
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message, MessageId

__all__ = ["PrioritizedDeliveryLayer"]

_HEADER = "prio"
_HEADER_SIZE = 6


class PrioritizedDeliveryLayer(Layer):
    """Master-first delivery order.

    Args:
        master: rank of the master process (defaults to the group
            coordinator).
    """

    name = "prio"

    def __init__(self, master: Optional[int] = None) -> None:
        super().__init__()
        self._master_rank = master
        self._waiting: Dict[MessageId, Message] = {}
        self._released: Set[MessageId] = set()
        self.stats = Counter()

    @property
    def master(self) -> int:
        if self._master_rank is not None:
            return self._master_rank
        return self.ctx.group.coordinator

    @property
    def is_master(self) -> bool:
        return self.ctx.rank == self.master

    def send(self, msg: Message) -> None:
        if msg.dest is not None:
            # Control traffic of a layer above: not priority-gated.
            self.stats.incr("passthrough")
            self.send_down(msg)
            return
        self.send_down(msg.with_header(_HEADER, {"k": "data"}, _HEADER_SIZE))

    def receive(self, msg: Message) -> None:
        header = msg.header(_HEADER)
        if header is None:
            self.deliver_up(msg)
            return
        kind = header["k"]
        if kind == "data":
            self._on_data(msg.without_header(_HEADER, _HEADER_SIZE))
        elif kind == "release":
            self._on_release(msg.body)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown prio header kind {kind!r}")

    def _on_data(self, msg: Message) -> None:
        if self.is_master:
            self.stats.incr("master_delivered")
            self.deliver_up(msg)
            release = self.ctx.make_message(
                msg.mid, 12, dest=self.ctx.group.others(self.ctx.rank)
            )
            self.send_down(
                release.with_header(_HEADER, {"k": "release"}, _HEADER_SIZE)
            )
            return
        if msg.mid in self._released:
            self._released.discard(msg.mid)
            self.stats.incr("delivered")
            self.deliver_up(msg)
        else:
            self.stats.incr("buffered")
            self._waiting[msg.mid] = msg

    def _on_release(self, mid: MessageId) -> None:
        if self.is_master:
            return
        waiting = self._waiting.pop(mid, None)
        if waiting is not None:
            self.stats.incr("delivered")
            self.deliver_up(waiting)
        else:
            # RELEASE outran the data (reordering): remember it.
            self._released.add(mid)

    @property
    def waiting_count(self) -> int:
        return len(self._waiting)
