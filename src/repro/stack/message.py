"""Messages and per-layer headers.

A :class:`Message` is what flows vertically through a protocol stack and
horizontally through the network.  It mirrors the paper's model (§3): a
message has a *body* and a *sender*; layers annotate it with headers on
the way down and read them on the way up.

Messages are **immutable**.  A layer that wants to add a header gets a new
message via :meth:`Message.with_header`.  Immutability matters because a
multicast delivers the *same* payload object to many receivers; nobody
may scribble on it.

Headers are one private ``dict`` per message, in push order, never
mutated after construction: a push or a pop copies it.  The stacks this
tree runs carry one to three headers (four in a handful of tests), so
the copy is a few machine words, and a lookup is a dict read.

Identity: ``mid`` (message id) is a ``(origin, seq)`` pair unique per
originating process.  Note that identity is distinct from the *body* — the
No Replay property (Table 1) is about bodies, and its Composable failure
(§6.2) hinges on two distinct messages carrying the same body.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from ..errors import StackError

__all__ = ["Message", "MessageId", "BASE_WIRE_OVERHEAD"]

MessageId = Tuple[int, int]

#: Fixed per-packet overhead (addresses, lengths, checksums) in bytes.
BASE_WIRE_OVERHEAD = 28


class Message:
    """An immutable stack message.

    Attributes:
        sender: rank of the process whose application sent the message
            (for protocol-originated control messages, the originating
            protocol instance's rank).
        mid: globally unique id ``(origin_rank, per-process sequence)``.
        body: application payload (opaque to every layer).
        body_size: declared payload size in bytes.
        dest: ``None`` for a full-group multicast (including the sender),
            or a tuple of ranks for a narrower destination set.
        headers: read-only mapping from layer key to header value.
    """

    __slots__ = ("sender", "mid", "body", "body_size", "dest", "_headers",
                 "_header_size", "_pop")

    def __init__(
        self,
        sender: int,
        mid: MessageId,
        body: Any,
        body_size: int,
        dest: Optional[Tuple[int, ...]] = None,
        headers: Optional[Dict[str, Any]] = None,
        header_size: int = 0,
    ) -> None:
        if body_size < 0:
            raise StackError(f"negative body size: {body_size}")
        self.sender = sender
        self.mid = mid
        self.body = body
        self.body_size = body_size
        self.dest = dest
        self._headers: Dict[str, Any] = dict(headers) if headers else {}
        self._header_size = header_size
        # _pop (the pop memo) is a lazy slot: left unset until the first
        # pop, so the derive paths skip a store per message.

    @classmethod
    def _from_wire(cls, sender, mid, body, body_size, dest, header_size,
                   headers: Dict[str, Any]) -> "Message":
        """Rebuild a decoded message around ``headers``.

        For the wire codec: skips validation and takes ownership of the
        dict, which the codec filled in push order and must not keep."""
        msg = cls.__new__(cls)
        msg.sender = sender
        msg.mid = mid
        msg.body = body
        msg.body_size = body_size
        msg.dest = dest
        msg._headers = headers
        msg._header_size = header_size
        return msg

    def _derive(self, body, body_size, dest, headers, header_size) -> "Message":
        """Allocate a sibling sharing this message's identity."""
        clone = Message.__new__(Message)
        clone.sender = self.sender
        clone.mid = self.mid
        clone.body = body
        clone.body_size = body_size
        clone.dest = dest
        clone._headers = headers
        clone._header_size = header_size
        return clone

    # ------------------------------------------------------------------
    # Header manipulation (copy on write)
    # ------------------------------------------------------------------
    def with_header(self, key: str, value: Any, size: int = 16) -> "Message":
        """Return a copy of this message carrying header ``key``.

        ``size`` is the header's on-wire footprint in bytes.  Pushing a
        header a layer already pushed is a composition bug and raises.
        """
        headers = self._headers
        if key in headers:
            raise StackError(f"header {key!r} already present on {self!r}")
        clone = Message.__new__(Message)
        clone.sender = self.sender
        clone.mid = self.mid
        clone.body = self.body
        clone.body_size = self.body_size
        clone.dest = self.dest
        clone._headers = {**headers, key: value}
        clone._header_size = self._header_size + size
        return clone

    def without_header(self, key: str, size: int = 16) -> "Message":
        """Return a copy with header ``key`` removed (popped on the way up)."""
        shrunk = self._header_size - size
        if shrunk < 0:
            shrunk = 0
        # Memoized: a multicast hands the *same* message object to every
        # receiver, so all pops after the first are one load.
        try:
            popped_key, memo = self._pop
            if popped_key == key and memo._header_size == shrunk:
                return memo
        except AttributeError:  # slot never set: no memo yet
            pass
        headers = dict(self._headers)
        try:
            del headers[key]
        except KeyError:
            raise StackError(f"header {key!r} missing on {self!r}") from None
        clone = self._derive(
            self.body, self.body_size, self.dest, headers, shrunk
        )
        self._pop = (key, clone)
        return clone

    def header(self, key: str, default: Any = None) -> Any:
        """This message's header value for ``key`` (or ``default``)."""
        return self._headers.get(key, default)

    def has_header(self, key: str) -> bool:
        """True if a header with ``key`` is present."""
        return key in self._headers

    @property
    def headers(self) -> Mapping[str, Any]:
        """A read-only view of the headers, oldest push first."""
        return MappingProxyType(self._headers)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def with_dest(self, dest: Optional[Iterable[int]]) -> "Message":
        """Return a copy routed to ``dest`` (None = whole group)."""
        dest_tuple = None if dest is None else tuple(dest)
        return self._derive(
            self.body, self.body_size, dest_tuple, self._headers,
            self._header_size,
        )

    def with_body(self, body: Any, body_size: Optional[int] = None) -> "Message":
        """Return a copy with a transformed body (e.g. encrypted)."""
        return self._derive(
            body,
            self.body_size if body_size is None else body_size,
            self.dest,
            self._headers,
            self._header_size,
        )

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def size_bytes(self) -> int:
        """On-wire size: body + headers + fixed overhead."""
        return self.body_size + self._header_size + BASE_WIRE_OVERHEAD

    # ------------------------------------------------------------------
    # Equality / hashing: by identity (mid), not content
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Message):
            return NotImplemented
        return self.mid == other.mid

    def __hash__(self) -> int:
        return hash(self.mid)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        keys = ",".join(sorted(self._headers))
        return (
            f"<Message mid={self.mid} sender={self.sender} "
            f"dest={self.dest} headers=[{keys}]>"
        )
