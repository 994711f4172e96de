"""Causal-order multicast (Birman–Schiper–Stephenson style).

Not in the paper's Table 1, but the natural "interesting property" to
audit with its machinery: messages are delivered respecting the
happens-before order of their sends.  Our meta-property analysis (see
``tests/traces/test_causal.py`` and EXPERIMENTS.md) finds Causal Order
satisfies **all six** meta-properties — so the paper's theorem predicts
the switching protocol preserves it, and the live test confirms it.

Mechanism: each message carries a vector timestamp; a receiver delivers
``m`` from ``s`` once it has delivered everything ``m`` causally depends
on — all of ``s``'s earlier messages and everything ``s`` had delivered
when it sent ``m``.  Assumes loss-free (or reliable-layer-backed) group
casts below.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["CausalOrderLayer"]

_HEADER = "causal"


class CausalOrderLayer(Layer):
    """Causal delivery order via vector timestamps."""

    name = "causal"

    def __init__(self) -> None:
        super().__init__()
        self._delivered: Dict[int, int] = {}  # sender -> count delivered
        self._sent = 0
        self._pending: List[Tuple[Message, Dict[int, int]]] = []
        self.stats = Counter()

    def _vector_size(self) -> int:
        return 4 * self.ctx.group.size

    def send(self, msg: Message) -> None:
        if msg.dest is not None:
            # Control traffic of a layer above: not causally stamped.
            self.stats.incr("passthrough")
            self.send_down(msg)
            return
        self._sent += 1
        stamp = dict(self._delivered)
        stamp[self.ctx.rank] = self._sent
        self.stats.incr("casts")
        self.send_down(msg.with_header(_HEADER, stamp, self._vector_size()))

    def receive(self, msg: Message) -> None:
        stamp = msg.header(_HEADER)
        if stamp is None:
            self.deliver_up(msg)
            return
        self._pending.append((msg, stamp))
        self._drain()

    def _deliverable(self, sender: int, stamp: Dict[int, int]) -> bool:
        if stamp.get(sender, 0) != self._delivered.get(sender, 0) + 1:
            return False
        for rank, count in stamp.items():
            if rank == sender:
                continue
            if self._delivered.get(rank, 0) < count:
                return False
        return True

    def _drain(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            for index, (msg, stamp) in enumerate(self._pending):
                if self._deliverable(msg.sender, stamp):
                    del self._pending[index]
                    self._delivered[msg.sender] = (
                        self._delivered.get(msg.sender, 0) + 1
                    )
                    self.stats.incr("delivered")
                    self.deliver_up(msg.without_header(_HEADER, self._vector_size()))
                    progressed = True
                    break

    @property
    def pending_count(self) -> int:
        return len(self._pending)
