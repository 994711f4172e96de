"""Packets: what travels through a simulated network.

A packet carries an opaque ``payload`` (whatever the protocol stack put on
the wire — in this library, an encoded :class:`~repro.stack.message.Message`)
plus the metadata the network models need: source, destination, and the
declared on-wire size used to compute serialization delay.
"""

from __future__ import annotations

from typing import Any

__all__ = ["Packet", "BROADCAST"]

#: Destination constant meaning "all attached nodes except the sender".
BROADCAST = -1


class Packet:
    """One network-level datagram.

    A plain slotted class, not a dataclass: every simulated hop builds
    one, and a frozen dataclass pays an ``object.__setattr__`` call per
    field.  Treat instances as immutable all the same — equality and the
    hash cover ``(src, dst, payload, size_bytes)``; ``sent_at`` and
    ``group`` are carried but not compared.

    Attributes:
        src: sending node id.
        dst: receiving node id for this delivered copy (a multicast results
            in one :class:`Packet` per receiver, sharing one wire
            transmission on broadcast media).
        payload: opaque protocol data; never inspected by network models.
        size_bytes: declared on-wire size, including protocol headers.
        sent_at: simulated time at which the send was requested.
        group: fleet group id the payload belongs to (0 = the default
            single-group world; network models never interpret it beyond
            carrying it to the receiver).
    """

    __slots__ = ("src", "dst", "payload", "size_bytes", "sent_at", "group")

    def __init__(
        self,
        src: int,
        dst: int,
        payload: Any,
        size_bytes: int,
        sent_at: float = 0.0,
        group: int = 0,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.src = src
        self.dst = dst
        self.payload = payload
        self.size_bytes = size_bytes
        self.sent_at = sent_at
        self.group = group

    def _key(self) -> tuple:
        return (self.src, self.dst, self.payload, self.size_bytes)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Packet {self.src}->{self.dst} {self.size_bytes}B "
            f"t={self.sent_at:.6f}>"
        )
