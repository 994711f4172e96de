"""Message batching: many application casts, one wire frame.

Per-packet costs dominate the total-order protocols at scale — every
frame pays host CPU time at the sender, a slot on the shared medium, CPU
time at each receiver, and (for the sequencer) per-message ordering work.
:class:`BatchingLayer` amortizes all of them: casts submitted while a
batch is open are coalesced into a single wrapper message that travels
the stack (and the wire) as one frame, and is unpacked back into its
constituent messages on the way up, in order.

Placement matters.  The layer composes at the *top* of a protocol slot,
underneath the switching core: the SP counts application sends before
they reach the batcher and counts deliveries after the batcher has
unpacked them, so a batch counts as its constituent messages and the
PREPARE/OK send counts and SWITCH-vector drain check stay exact.  A
batch left queued when a switch begins still drains: the linger timer
flushes it through the (old) slot it was submitted to.

Knobs:

* ``max_batch`` — flush as soon as this many casts are queued.
* ``linger`` — flush an incomplete batch this many seconds after its
  first message was queued.  ``0`` flushes at the end of the current
  event cascade: same-instant bursts still coalesce, and no latency is
  added in virtual time.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import StackError
from ..obs.metrics import Counter
from .layer import Layer
from .message import BASE_WIRE_OVERHEAD, Message

__all__ = ["BatchingLayer"]

_HEADER = "batch"
_HEADER_SIZE = 8

#: Per-constituent framing (length prefix) inside a batch frame.  Each
#: constituent drops its own BASE_WIRE_OVERHEAD — the batch pays it once.
_PER_MESSAGE_FRAMING = 8

#: Batch-size histogram buckets (messages per batch, not seconds).
_SIZE_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)


class BatchingLayer(Layer):
    """Coalesce group casts into one wire frame per batch.

    Args:
        max_batch: maximum constituent messages per batch (>= 1).
        linger: seconds an incomplete batch may wait for company.
    """

    name = "batch"

    def __init__(self, max_batch: int = 8, linger: float = 0.0) -> None:
        super().__init__()
        if max_batch < 1:
            raise StackError(f"max_batch must be >= 1, got {max_batch}")
        if linger < 0:
            raise StackError(f"linger must be non-negative, got {linger}")
        self.max_batch = max_batch
        self.linger = linger
        self._queue: List[Message] = []
        self._timer = None
        self.stats = Counter()

    # ------------------------------------------------------------------
    # Downward: queue, flush on size or linger
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        if msg.dest is not None:
            # Control traffic of a layer above: never delayed, never mixed
            # into a group-cast batch.
            self.stats.incr("passthrough")
            self.send_down(msg)
            return
        self.stats.incr("queued")
        self._queue.append(msg)
        if len(self._queue) >= self.max_batch:
            self.flush()
        elif self._timer is None:
            self._timer = self.ctx.after(self.linger, self.flush)

    def stop(self) -> None:
        super().stop()
        self.flush()

    def flush(self) -> None:
        """Send the open batch now (no-op when nothing is queued)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._queue:
            return
        batch, self._queue = self._queue, []
        self.stats.incr("batches")
        self.stats.incr("batched_msgs", len(batch))
        obs = self.ctx.obs
        if obs.enabled:
            obs.bus.metrics.observe(
                "batch.size_msgs", len(batch), bounds=_SIZE_BUCKETS
            )
        if len(batch) == 1:
            # A lone message goes out bare — identical to the unbatched
            # path, and nothing downstream needs to know we exist.
            self.send_down(batch[0])
            return
        payload = sum(
            m.size_bytes - BASE_WIRE_OVERHEAD + _PER_MESSAGE_FRAMING
            for m in batch
        )
        frame = self.ctx.make_message(tuple(batch), payload, dest=None)
        self.send_down(frame.with_header(_HEADER, {"n": len(batch)}, _HEADER_SIZE))

    # ------------------------------------------------------------------
    # Upward: unpack in order
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        header = msg.header(_HEADER)
        if header is None:
            self.deliver_up(msg)
            return
        batch = msg.body
        if len(batch) != header["n"]:  # pragma: no cover - defensive
            raise StackError(
                f"batch frame claims {header['n']} messages, carries {len(batch)}"
            )
        self.stats.incr("unbatched", len(batch))
        for part in batch:
            self.deliver_up(part)

    @property
    def queued(self) -> int:
        """Messages waiting in the open batch."""
        return len(self._queue)
