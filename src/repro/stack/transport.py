"""Transport: the boundary between a stack and a network model.

The transport resolves a message's destination (``None`` means the whole
group, including a loopback copy to the sender) and hands it to the
network endpoint; arriving packets flow back up as messages.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..errors import StackError
from ..net.base import Endpoint, Network
from ..net.packet import Packet
from ..obs.metrics import Counter
from .layer import DeliverFn
from .membership import Group
from .message import Message

__all__ = ["Transport"]


class Transport:
    """Binds one process's stack bottom to a network endpoint."""

    def __init__(self, network: Network, group: Group, rank: int) -> None:
        if rank not in group:
            raise StackError(f"rank {rank} not in group {group!r}")
        self.group = group
        self.rank = rank
        self._receive_up: Optional[DeliverFn] = None
        self.stats = Counter()
        self.endpoint: Endpoint = network.attach(rank, self._on_packet)

    def on_receive(self, deliver: DeliverFn) -> None:
        """Install the stack-bottom receive callback (once)."""
        if self._receive_up is not None:
            raise StackError("transport already has a receive callback")
        self._receive_up = deliver

    def detach(self) -> None:
        """Release the network node so a rebuilt stack can re-attach."""
        self.endpoint.network.detach(self.rank)
        self._receive_up = None

    # ------------------------------------------------------------------
    # Downward: message -> network
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Resolve the destination set and transmit on the network."""
        size = msg.size_bytes
        if msg.dest is None:
            self.stats.incr("multicast")
            self.endpoint.multicast(self.group.members, msg, size)
        elif len(msg.dest) == 1:
            self.stats.incr("unicast")
            self.endpoint.unicast(msg.dest[0], msg, size)
        elif msg.dest:
            self.stats.incr("multicast")
            self.endpoint.multicast(msg.dest, msg, size)
        else:
            # Empty destination set: legal no-op (e.g. group of one with
            # the sender excluded).
            self.stats.incr("empty_dest")

    # ------------------------------------------------------------------
    # Upward: packet -> message
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if self._receive_up is None:
            raise StackError(f"rank {self.rank}: packet before wiring complete")
        payload = packet.payload
        if not isinstance(payload, Message):
            raise StackError(f"non-message payload on the wire: {payload!r}")
        self.stats.incr("received")
        self._receive_up(payload)
