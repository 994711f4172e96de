"""NodePort: one node's shared doorway onto the network.

A pre-fleet stack owns its transport — one ``network.attach`` per stack.
That caps a process at one group per node.  The fleet runtime instead
attaches each node once: a :class:`NodePort` owns the node's endpoint
and a single group-keyed :class:`~repro.stack.multiplex.Multiplexer`,
and every group with a member on this node mounts its private channels
on that shared mux.

Downward, the port resolves a message's destination set against the
*sending group's* membership (group memberships differ — the whole
point) and stamps the group id onto the endpoint call, so the wire
frame carries it.  Upward, it routes each packet by its group id to the
mux, dropping packets for unregistered groups (`stray_group`) — the
benign race of a teardown with in-flight traffic.
"""

from __future__ import annotations

from typing import Dict

from ..errors import StackError
from ..net.base import Network
from ..net.packet import Packet
from ..obs.metrics import Counter
from ..stack.membership import Group
from ..stack.message import Message
from ..stack.multiplex import Multiplexer

__all__ = ["NodePort"]


class NodePort:
    """One network attach shared by every group with a member on a node."""

    def __init__(self, network: Network, node: int) -> None:
        self.network = network
        self.node = node
        self.stats = Counter()
        self._groups: Dict[int, Group] = {}
        self.endpoint = network.attach(node, self._on_packet)
        self.mux = Multiplexer(self._bottom_send)

    # ------------------------------------------------------------------
    # Group registry
    # ------------------------------------------------------------------
    def register(self, group_id: int, group: Group) -> None:
        """Route traffic for ``group_id`` through this port."""
        if group_id in self._groups:
            raise StackError(f"group {group_id} already registered on node {self.node}")
        if self.node not in group:
            raise StackError(
                f"node {self.node} is not a member of group {group_id} "
                f"({group!r})"
            )
        self._groups[group_id] = group

    def unregister(self, group_id: int) -> None:
        """Stop routing for ``group_id``; later packets become strays."""
        if self._groups.pop(group_id, None) is None:
            raise StackError(f"group {group_id} is not registered on node {self.node}")

    @property
    def groups(self) -> Dict[int, Group]:
        return dict(self._groups)

    # ------------------------------------------------------------------
    # Downward: mux bottom -> endpoint, group membership resolved here
    # ------------------------------------------------------------------
    def _bottom_send(self, msg: Message, group: int = 0) -> None:
        membership = self._groups.get(group)
        if membership is None:
            raise StackError(
                f"node {self.node} sending for unregistered group {group}"
            )
        size = msg.size_bytes
        if msg.dest is None:
            self.stats.incr("multicast")
            self.endpoint.multicast(membership.members, msg, size, group)
        elif len(msg.dest) == 1:
            self.stats.incr("unicast")
            self.endpoint.unicast(msg.dest[0], msg, size, group)
        elif msg.dest:
            self.stats.incr("multicast")
            self.endpoint.multicast(msg.dest, msg, size, group)
        else:
            self.stats.incr("empty_dest")

    # ------------------------------------------------------------------
    # Upward: packet -> mux, routed by the wire group id
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        group = packet.group
        if group not in self._groups:
            # Teardown race: the group left this port while the packet
            # was in flight.  Dropping is the correct behaviour.
            self.stats.incr("stray_group")
            return
        payload = packet.payload
        if not isinstance(payload, Message):
            raise StackError(f"non-message payload on the wire: {payload!r}")
        self.stats.incr("received")
        self.mux.receive(payload, group)

    def detach(self) -> None:
        """Release the network node (only once every group is gone)."""
        if self._groups:
            raise StackError(
                f"node {self.node} still hosts groups {sorted(self._groups)}"
            )
        self.network.detach(self.node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodePort node={self.node} groups={len(self._groups)}>"
