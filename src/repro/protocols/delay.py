"""A pure delay layer — the paper's §4 observation, executable.

"Interestingly, several of the difficulties with the composition are not
because of switching, but because of delays incurred by layering.  These
delays re-organize event traces and can potentially violate properties."

:class:`DelayLayer` adds configurable (optionally jittered) latency to
the downward (send) and upward (deliver) paths, exactly the effect the
Delayable and Asynchrony meta-properties model.  Layering it under a
protocol lets tests and examples demonstrate that non-Delayable or
non-Asynchronous properties break with *no switching involved* — e.g.
Prioritized Delivery loses its cross-process ordering under per-process
delivery jitter, and Amoeba's send restriction is reordered past local
deliveries.

Ordering note: each direction uses a FIFO release queue, so the layer
delays but never *reorders* a single direction's stream (that's what the
fault injector's reorder jitter is for).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["DelayLayer"]


class DelayLayer(Layer):
    """Adds latency to one or both vertical directions.

    Args:
        send_delay: seconds added to the downward path.
        deliver_delay: seconds added to the upward path.
        jitter_stream: name of the RNG stream for uniform extra jitter.
        jitter: max uniform extra seconds per event (both directions).
    """

    name = "delay"

    def __init__(
        self,
        send_delay: float = 0.0,
        deliver_delay: float = 0.0,
        jitter: float = 0.0,
        jitter_stream: str = "delay-jitter",
    ) -> None:
        super().__init__()
        if send_delay < 0 or deliver_delay < 0 or jitter < 0:
            raise ProtocolError("delays must be non-negative")
        self.send_delay = send_delay
        self.deliver_delay = deliver_delay
        self.jitter = jitter
        self.jitter_stream = jitter_stream
        self._down_queue: Deque[Message] = deque()
        self._up_queue: Deque[Message] = deque()
        self.stats = Counter()

    def _delay(self, base: float) -> float:
        if self.jitter:
            rng = self.ctx.streams.stream(self.jitter_stream)
            return base + rng.random() * self.jitter
        return base

    def send(self, msg: Message) -> None:
        delay = self._delay(self.send_delay)
        if delay <= 0:
            self.send_down(msg)
            return
        self.stats.incr("sends_delayed")
        self._down_queue.append(msg)
        self.ctx.after(delay, self._release_down)

    def _release_down(self) -> None:
        self.send_down(self._down_queue.popleft())

    def receive(self, msg: Message) -> None:
        delay = self._delay(self.deliver_delay)
        if delay <= 0:
            self.deliver_up(msg)
            return
        self.stats.incr("delivers_delayed")
        self._up_queue.append(msg)
        self.ctx.after(delay, self._release_up)

    def _release_up(self) -> None:
        self.deliver_up(self._up_queue.popleft())
