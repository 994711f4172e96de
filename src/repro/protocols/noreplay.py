"""No Replay: a message body is delivered at most once per process
(Table 1).

The layer remembers a digest of every body it has delivered and drops
repeats.  Note the property is about *bodies*, not message ids — the
paper's §6.2 composability counterexample relies on two distinct messages
carrying the same body, so identity-based dedup (which the reliable layer
already does) would miss the point.

The paper also observes (§6.1) that No Replay is *memoryless but not
stateless*: the property ignores erased history, yet any implementation
must remember delivered bodies — this ``_seen`` set is that state.  And
that is precisely why switching breaks it: the new protocol's instance
starts with an empty ``_seen``.
"""

from __future__ import annotations

from typing import Any, Set

from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["NoReplayLayer", "body_digest"]


def body_digest(body: Any) -> Any:
    """A hashable identity for a message body."""
    try:
        hash(body)
        return body
    except TypeError:
        return repr(body)


class NoReplayLayer(Layer):
    """Suppress repeated delivery of the same body."""

    name = "noreplay"

    def __init__(self) -> None:
        super().__init__()
        self._seen: Set[Any] = set()
        self.stats = Counter()

    def receive(self, msg: Message) -> None:
        digest = body_digest(msg.body)
        if digest in self._seen:
            self.stats.incr("replays_suppressed")
            return
        self._seen.add(digest)
        self.stats.incr("delivered")
        self.deliver_up(msg)

    @property
    def seen_count(self) -> int:
        return len(self._seen)
