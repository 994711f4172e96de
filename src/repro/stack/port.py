"""NodePort: one node's doorway onto the network.

Every stack reaches the network through a port, and a port is the only
code that attaches a stack to a network node.  A node attaches once; every
group with a member on the node registers on that node's port with the
receive function of its stack bottom — a single group simply registers
group 0 on a port of its own, while the fleet runtime shares one port per
node between thousands of groups.

Downward, the port resolves a message's destination set against the
*sending group's* membership (group memberships differ — the whole
point) and stamps the group id onto the endpoint call, so the wire frame
carries it.  Upward, it routes each packet by its group id to that
group's receive function, dropping packets for unregistered groups
(`stray_group`) — the benign race of a teardown with in-flight traffic.
"""

from __future__ import annotations

from typing import Dict

from ..errors import StackError
from ..net.base import Network
from ..net.packet import Packet
from ..obs.metrics import Counter
from .layer import DeliverFn
from .membership import Group
from .message import Message

__all__ = ["NodePort"]


class NodePort:
    """One network attach shared by every group with a member on a node.

    Counts in ``stats``: ``unicast``, ``multicast`` and ``empty_dest``
    sends, ``received`` packets and ``stray_group`` drops.  Whoever
    creates a port attaches those counters to a bus, once.
    """

    def __init__(self, network: Network, node: int) -> None:
        self.network = network
        self.node = node
        self.stats = Counter()
        self._groups: Dict[int, Group] = {}
        self._receivers: Dict[int, DeliverFn] = {}
        self.endpoint = network.attach(node, self._on_packet)

    # ------------------------------------------------------------------
    # Group registry
    # ------------------------------------------------------------------
    def register(self, group_id: int, group: Group, receive: DeliverFn) -> None:
        """Route traffic for ``group_id`` through this port; packets for
        it go up to ``receive``."""
        if group_id in self._groups:
            raise StackError(f"group {group_id} already registered on node {self.node}")
        if self.node not in group:
            raise StackError(
                f"node {self.node} is not a member of group {group_id} "
                f"({group!r})"
            )
        self._groups[group_id] = group
        self._receivers[group_id] = receive

    def unregister(self, group_id: int) -> None:
        """Stop routing for ``group_id``; later packets become strays."""
        if self._groups.pop(group_id, None) is None:
            raise StackError(f"group {group_id} is not registered on node {self.node}")
        del self._receivers[group_id]

    @property
    def groups(self) -> Dict[int, Group]:
        return dict(self._groups)

    # ------------------------------------------------------------------
    # Downward: stack bottom -> endpoint, group membership resolved here
    # ------------------------------------------------------------------
    def send(self, group_id: int, msg: Message) -> None:
        """Transmit ``msg`` for ``group_id``: ``dest=None`` is the whole
        group, the sender included (its loopback copy)."""
        membership = self._groups.get(group_id)
        if membership is None:
            raise StackError(
                f"node {self.node} sending for unregistered group {group_id}"
            )
        size = msg.size_bytes
        if msg.dest is None:
            self.stats.incr("multicast")
            self.endpoint.multicast(membership.members, msg, size, group_id)
        elif len(msg.dest) == 1:
            self.stats.incr("unicast")
            self.endpoint.unicast(msg.dest[0], msg, size, group_id)
        elif msg.dest:
            self.stats.incr("multicast")
            self.endpoint.multicast(msg.dest, msg, size, group_id)
        else:
            # Empty destination set: legal no-op (e.g. a group of one
            # with the sender excluded).
            self.stats.incr("empty_dest")

    # ------------------------------------------------------------------
    # Upward: packet -> the group's receive function, by wire group id
    # ------------------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        receive = self._receivers.get(packet.group)
        if receive is None:
            # Teardown race: the group left this port while the packet
            # was in flight.  Dropping is the correct behaviour.
            self.stats.incr("stray_group")
            return
        payload = packet.payload
        if not isinstance(payload, Message):
            raise StackError(f"non-message payload on the wire: {payload!r}")
        self.stats.incr("received")
        receive(payload)

    def detach(self) -> None:
        """Release the network node (only once every group is gone)."""
        if self._groups:
            raise StackError(
                f"node {self.node} still hosts groups {sorted(self._groups)}"
            )
        self.network.detach(self.node)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<NodePort node={self.node} groups={len(self._groups)}>"
