"""The Amoeba send-blocking property (Table 1).

"A process is blocked from sending while it is awaiting its own
messages": after submitting a multicast, a process may not submit another
until its first has come back and been delivered locally.  (In Amoeba [8]
this back-pressure is how senders learn their message was sequenced.)

This layer implements the property by queueing application sends while
one of our own messages is outstanding, releasing the next send when the
outstanding one is delivered to us.

The paper uses Amoeba as the example of a property that is neither
Delayable nor Send Enabled (§5.3–§5.4) — and indeed not preserved by
switching: the switch lets the application keep sending on the new
protocol while an old-protocol message of ours is still in flight.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message, MessageId

__all__ = ["AmoebaLayer"]


class AmoebaLayer(Layer):
    """Block (queue) sends while awaiting our own previous message."""

    name = "amoeba"

    def __init__(self) -> None:
        super().__init__()
        self._outstanding: Optional[MessageId] = None
        self._queue: Deque[Message] = deque()
        self.stats = Counter()

    def send(self, msg: Message) -> None:
        if self._outstanding is not None:
            self.stats.incr("blocked")
            self._queue.append(msg)
            return
        self._outstanding = msg.mid
        self.stats.incr("sent")
        self.send_down(msg)

    def receive(self, msg: Message) -> None:
        self.deliver_up(msg)
        if msg.sender == self.ctx.rank and msg.mid == self._outstanding:
            self._outstanding = None
            if self._queue:
                nxt = self._queue.popleft()
                self._outstanding = nxt.mid
                self.stats.incr("sent")
                self.send_down(nxt)

    def can_send(self) -> bool:
        """False while one of our own messages is outstanding."""
        return self._outstanding is None

    @property
    def blocked_count(self) -> int:
        return len(self._queue)
