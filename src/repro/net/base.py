"""Abstract network model and endpoint interfaces.

A network model owns a set of node ids.  A protocol stack *attaches* to a
node and gets back an :class:`Endpoint` — its handle for sending — while
registering a receive callback that the model invokes (in simulated time)
for every packet that survives the trip.

Two concrete models ship with the library:

* :class:`~repro.net.ethernet.EthernetNetwork` — a shared 10 Mbit medium
  with host CPU queues, used for the performance experiments (Figure 2).
* :class:`~repro.net.ptp.PointToPointNetwork` — an idealized latency mesh
  with optional fault injection, used for protocol-correctness tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, Iterable, List

from ..errors import NetworkError
from ..obs.bus import Bus
from ..obs.metrics import Counter
from ..runtime.api import Runtime
from .packet import Packet

__all__ = ["Endpoint", "Network", "ReceiveCallback"]

ReceiveCallback = Callable[[Packet], None]


class Endpoint(ABC):
    """A node's handle for transmitting on a network model."""

    def __init__(self, network: "Network", node: int) -> None:
        self.network = network
        self.node = node

    @abstractmethod
    def unicast(
        self, dst: int, payload: object, size_bytes: int, group: int = 0
    ) -> None:
        """Send ``payload`` to a single node.

        ``group`` tags the transmission with a fleet group id; models
        carry it opaquely onto the delivered :class:`Packet` (and, on
        real wires, into the frame) so one node can host many groups.
        """

    @abstractmethod
    def multicast(
        self,
        dsts: Iterable[int],
        payload: object,
        size_bytes: int,
        group: int = 0,
    ) -> None:
        """Send ``payload`` to every node in ``dsts``.

        On broadcast media this is one wire transmission; on point-to-point
        meshes it fans out to independent unicasts.  Including the sending
        node in ``dsts`` yields a local loopback delivery.
        """

    def broadcast(
        self, payload: object, size_bytes: int, group: int = 0
    ) -> None:
        """Multicast to every attached node except the sender."""
        others = [n for n in self.network.nodes() if n != self.node]
        self.multicast(others, payload, size_bytes, group)


class Network(ABC):
    """Base class for network models (simulated or real).

    A model receives the runtime it should read time from and arm timers
    on; it must not assume the clock is virtual.
    """

    def __init__(self, runtime: Runtime, num_nodes: int) -> None:
        if num_nodes <= 0:
            raise NetworkError(f"need at least one node, got {num_nodes}")
        self.runtime = runtime
        self.num_nodes = num_nodes
        self._receivers: List[ReceiveCallback] = [
            _unattached for __ in range(num_nodes)
        ]
        self._attached = [False] * num_nodes
        self.stats = Counter()

    def instrument(self, bus: Bus) -> None:
        """Register this model's ``stats`` with ``bus`` as ``net.*``."""
        bus.scoped(None).attach("net", self.stats)

    def nodes(self) -> range:
        """All node ids in the network."""
        return range(self.num_nodes)

    def attach(self, node: int, on_receive: ReceiveCallback) -> Endpoint:
        """Register a receiver for ``node`` and return its send endpoint."""
        self._check_node(node)
        if self._attached[node]:
            raise NetworkError(f"node {node} is already attached")
        self._receivers[node] = on_receive
        self._attached[node] = True
        return self._make_endpoint(node)

    def detach(self, node: int) -> None:
        """Unregister ``node``'s receiver so a later attach can rebuild it.

        What happens to a packet already in flight to the detached node
        is the model's call.  The point-to-point mesh checks at arrival
        and counts it under ``dead_letters``; the Ethernet model checks
        when the frame leaves the wire and skips the node, so only a
        copy already past that point (in propagation or the host's CPU
        queue) reaches the unattached sentinel and raises.  A copy
        already in a host's CPU queue still raises at delivery, and the
        rest of its batch (the frame's other copies whose CPUs finish it
        at the same instant) is not delivered.  UDP delivers whatever
        the socket still holds, and that raises too.  Teardown that
        cannot tolerate either should drain first.
        """
        self._check_node(node)
        if not self._attached[node]:
            raise NetworkError(f"node {node} is not attached")
        self._receivers[node] = _unattached
        self._attached[node] = False

    def is_attached(self, node: int) -> bool:
        """True if ``node`` has attached a receiver."""
        self._check_node(node)
        return self._attached[node]

    @abstractmethod
    def _make_endpoint(self, node: int) -> Endpoint:
        """Create the model-specific endpoint for an attached node."""

    def _deliver(self, packet: Packet) -> None:
        """Hand a packet to its destination's receive callback (now)."""
        self._receivers[packet.dst](packet)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(
                f"node {node} out of range [0, {self.num_nodes})"
            )


def _unattached(packet: Packet) -> None:
    raise NetworkError(f"packet delivered to unattached node: {packet!r}")
