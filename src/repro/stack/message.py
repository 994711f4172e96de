"""Messages and per-layer headers.

A :class:`Message` is what flows vertically through a protocol stack and
horizontally through the network.  It mirrors the paper's model (§3): a
message has a *body* and a *sender*; layers annotate it with headers on
the way down and read them on the way up.

Messages are **immutable**.  A layer that wants to add a header gets a new
message via :meth:`Message.with_header`.  Immutability matters because a
multicast delivers the *same* payload object to many receivers; nobody
may scribble on it.

Headers are stored in a small **persistent chain** rather than a dict
that is copied on every push/pop.  Each :meth:`with_header` allocates one
chain node (O(1)) that points at the previous chain; :meth:`without_header`
unlinks the top node (the LIFO case — layers pop exactly what the peer
layer pushed, in reverse order) and otherwise rebuilds the remaining
headers into a plain-dict base node.  Every message therefore shares
header storage with its ancestors, and a hop through a 14-layer stack
allocates 14 nodes instead of 14 full dict copies.  Lookups walk the
chain, which is as deep as the message has headers pushed since its
last base node.

Identity: ``mid`` (message id) is a ``(origin, seq)`` pair unique per
originating process.  Note that identity is distinct from the *body* — the
No Replay property (Table 1) is about bodies, and its Composable failure
(§6.2) hinges on two distinct messages carrying the same body.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from ..errors import StackError

__all__ = ["Message", "MessageId", "BASE_WIRE_OVERHEAD"]

MessageId = Tuple[int, int]

#: Fixed per-packet overhead (addresses, lengths, checksums) in bytes.
BASE_WIRE_OVERHEAD = 28

#: Sentinel distinguishing "header absent" from "header value is None".
_MISSING = object()

#: A header chain is ``None`` (empty) or a tuple:
#:
#: * link — ``(mask, parent_chain, key, value)``, 4-tuple;
#: * base — ``(mask, mapping)``, 2-tuple wrapping a plain dict (from the
#:   constructor or an out-of-order pop; never mutated after
#:   construction).
#:
#: ``mask`` is a 64-bit bloom of every key at or below the node: a clear
#: bit proves a key absent, making the duplicate-push check and the
#: header-absent fast path O(1) with no walk.  Bare tuples instead of
#: node objects: allocating one is the entire per-push cost.
_Chain = Union[None, tuple]


def _key_bit(key: str) -> int:
    return 1 << (hash(key) & 63)


def _base(mapping: Dict[str, Any]) -> tuple:
    mask = 0
    for key in mapping:
        mask |= 1 << (hash(key) & 63)
    return (mask, mapping)


def _chain_get(chain: _Chain, key: str) -> Any:
    """The value of ``key`` in ``chain``, or ``_MISSING``."""
    node = chain
    while node is not None:
        if len(node) == 4:
            if node[2] == key:
                return node[3]
            node = node[1]
        else:  # dict base
            return node[1].get(key, _MISSING)
    return _MISSING


def _materialize(chain: _Chain) -> Dict[str, Any]:
    """Collapse a chain into a plain dict, oldest push first."""
    links = []
    node = chain
    while node is not None and len(node) == 4:
        links.append(node)
        node = node[1]
    mapping: Dict[str, Any] = dict(node[1]) if node is not None else {}
    for __, __, key, value in reversed(links):
        mapping[key] = value
    return mapping


def _rebuild(sender, mid, body, body_size, dest, headers, header_size):
    """Pickle constructor: rebuild from a plain header dict."""
    return Message(sender, mid, body, body_size, dest, headers, header_size)


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

    __slots__ = ("sender", "mid", "body", "body_size", "dest", "_chain",
                 "_header_size", "_hmap", "_pop")

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
        self._chain: _Chain = _base(dict(headers)) if headers else None
        self._header_size = header_size
        # _hmap (materialized-dict cache) and _pop (LIFO-pop memo) are
        # lazy slots: left unset until first use so the hot derive paths
        # skip two stores per message.

    @classmethod
    def _from_wire(cls, sender, mid, body, body_size, dest, header_size,
                   chain) -> "Message":
        """Rebuild a decoded message around a prebuilt header chain.

        Trusted input (our own wire codec): skips validation.  The
        codec builds ``chain`` link by link in push order using the
        same ``(mask | key_bit, parent, key, value)`` shape as
        :meth:`with_header`."""
        msg = cls.__new__(cls)
        msg.sender = sender
        msg.mid = mid
        msg.body = body
        msg.body_size = body_size
        msg.dest = dest
        msg._chain = chain
        msg._header_size = header_size
        return msg

    def _derive(self, body, body_size, dest, chain, header_size) -> "Message":
        """Allocate a sibling sharing this message's identity."""
        clone = Message.__new__(Message)
        clone.sender = self.sender
        clone.mid = self.mid
        clone.body = body
        clone.body_size = body_size
        clone.dest = dest
        clone._chain = chain
        clone._header_size = header_size
        return clone

    # ------------------------------------------------------------------
    # Header manipulation (persistent, structure-sharing)
    # ------------------------------------------------------------------
    def with_header(self, key: str, value: Any, size: int = 16) -> "Message":
        """Return a copy of this message carrying header ``key``.

        ``size`` is the header's on-wire footprint in bytes.  Pushing a
        header a layer already pushed is a composition bug and raises.
        """
        chain = self._chain
        bit = 1 << (hash(key) & 63)
        if chain is None:
            mask = bit
        else:
            mask = chain[0]
            if mask & bit and _chain_get(chain, key) is not _MISSING:
                raise StackError(f"header {key!r} already present on {self!r}")
            mask |= bit
        clone = Message.__new__(Message)
        clone.sender = self.sender
        clone.mid = self.mid
        clone.body = self.body
        clone.body_size = self.body_size
        clone.dest = self.dest
        clone._chain = (mask, chain, key, value)
        clone._header_size = self._header_size + size
        return clone

    def without_header(self, key: str, size: int = 16) -> "Message":
        """Return a copy with header ``key`` removed (popped on the way up)."""
        chain = self._chain
        shrunk = self._header_size - size
        if shrunk < 0:
            shrunk = 0
        if chain is not None and len(chain) == 4 and chain[2] == key:
            # LIFO pop — the overwhelmingly common case: the peer layer
            # pushed last, so popping is just unlinking the top link.
            # Memoized: a multicast hands the *same* message object to
            # every receiver, so all pops after the first are one load.
            try:
                memo = self._pop
                if memo._header_size == shrunk:
                    return memo
            except AttributeError:  # slot never set: no memo yet
                pass
            popped: _Chain = chain[1]
        elif _chain_get(chain, key) is _MISSING:
            raise StackError(f"header {key!r} missing on {self!r}")
        else:
            # Not the top link (no protocol layer does this): rebuild
            # what is left as a dict base, which also recomputes the
            # bloom mask exactly.
            mapping = _materialize(chain)
            del mapping[key]
            return self._derive(
                self.body, self.body_size, self.dest, _base(mapping), shrunk
            )
        clone = Message.__new__(Message)
        clone.sender = self.sender
        clone.mid = self.mid
        clone.body = self.body
        clone.body_size = self.body_size
        clone.dest = self.dest
        clone._chain = popped
        clone._header_size = shrunk
        self._pop = clone
        return clone

    def header(self, key: str, default: Any = None) -> Any:
        """This message's header value for ``key`` (or ``default``)."""
        chain = self._chain
        if chain is None or not chain[0] & (1 << (hash(key) & 63)):
            return default
        value = _chain_get(chain, key)
        return default if value is _MISSING else value

    def has_header(self, key: str) -> bool:
        """True if a header with ``key`` is present."""
        chain = self._chain
        if chain is None or not chain[0] & (1 << (hash(key) & 63)):
            return False
        return _chain_get(chain, key) is not _MISSING

    def _materialized(self) -> Dict[str, Any]:
        try:
            return self._hmap
        except AttributeError:  # slot never set: first use
            mapping = self._hmap = _materialize(self._chain)
            return mapping

    @property
    def headers(self) -> Mapping[str, Any]:
        """A read-only view of the headers (materialized once, cached)."""
        return MappingProxyType(self._materialized())

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def with_dest(self, dest: Optional[Iterable[int]]) -> "Message":
        """Return a copy routed to ``dest`` (None = whole group)."""
        dest_tuple = None if dest is None else tuple(dest)
        return self._derive(
            self.body, self.body_size, dest_tuple, self._chain,
            self._header_size,
        )

    def with_body(self, body: Any, body_size: Optional[int] = None) -> "Message":
        """Return a copy with a transformed body (e.g. encrypted)."""
        return self._derive(
            body,
            self.body_size if body_size is None else body_size,
            self.dest,
            self._chain,
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
    # Pickling: the chain is an implementation detail; the wire (and any
    # stored fixture) sees a plain header dict.
    # ------------------------------------------------------------------
    def __reduce__(self):
        return (
            _rebuild,
            (self.sender, self.mid, self.body, self.body_size, self.dest,
             self._materialized(), self._header_size),
        )

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
        keys = ",".join(sorted(_materialize(self._chain)))
        return (
            f"<Message mid={self.mid} sender={self.sender} "
            f"dest={self.dest} headers=[{keys}]>"
        )
