"""Per-sender FIFO ordering.

Delivers each sender's messages in the order they were sent, buffering
out-of-order arrivals in a hold-back queue.  Assumes at-most-once delivery
from below (it drops duplicates of already-delivered sequence numbers
defensively, but cannot recover *lost* messages — compose it above
:class:`~repro.protocols.reliable.ReliableLayer` on lossy networks).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["FifoLayer"]

_HEADER = "fifo"
_HEADER_SIZE = 4


class FifoLayer(Layer):
    """FIFO order per originating process."""

    name = "fifo"

    def __init__(self) -> None:
        super().__init__()
        self._next_out = 0
        self._expected: Dict[int, int] = {}
        self._holdback: Dict[Tuple[int, int], Message] = {}
        self.stats = Counter()

    def send(self, msg: Message) -> None:
        seq = self._next_out
        self._next_out += 1
        self.send_down(msg.with_header(_HEADER, seq, _HEADER_SIZE))

    def receive(self, msg: Message) -> None:
        seq = msg.header(_HEADER)
        if seq is None:
            # Not ours (e.g. another layer's control traffic): pass through.
            self.deliver_up(msg)
            return
        sender = msg.sender
        expected = self._expected.get(sender, 0)
        if seq < expected:
            self.stats.incr("duplicates")
            return
        self._holdback[(sender, seq)] = msg
        self._drain(sender)

    def _drain(self, sender: int) -> None:
        expected = self._expected.get(sender, 0)
        while (sender, expected) in self._holdback:
            msg = self._holdback.pop((sender, expected))
            expected += 1
            self._expected[sender] = expected
            self.deliver_up(msg.without_header(_HEADER, _HEADER_SIZE))

    @property
    def holdback_size(self) -> int:
        return len(self._holdback)
