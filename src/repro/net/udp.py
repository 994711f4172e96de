"""Real localhost UDP network for the asyncio runtime.

Every node of a :class:`UdpNetwork` binds its own UDP socket on
``127.0.0.1`` (``base_port + node``), so a "multicast" fans out to one
real datagram per destination and every message genuinely traverses the
kernel's network stack — serialization, copies, socket buffers, and
(under pressure) real drops.  This is the Spectrum/Ring-Paxos-style
deployment shape scaled down to one machine: per-process stacks run as
tasks of one asyncio loop, but the wire between them is real.

Payloads are :class:`~repro.stack.message.Message` objects (and their
layer headers), encoded for the wire by the binary
:class:`~repro.net.codec.WireCodec` (struct-packed framing plus
per-layer header codecs; see ``net/codec.py``).  A multicast encodes
its payload once and reuses the body bytes for every destination —
only the 6-byte frame prefix differs per target.

A node's copy to itself never crosses the kernel: it is handed to the
node's receiver on the next loop turn, unencoded.  ``ReliableLayer``
leaves a member out of its own stream's receivers and never NAKs its
own origin, so a self-copy lost to a full receive buffer would stall
that member's stream for good; in process it cannot be lost.  It counts
in ``loopback`` when handed over and in ``deliveries`` when it arrives,
never in ``sends``, which counts datagrams.

Usage (inside the runtime's loop)::

    runtime = AsyncioRuntime()
    net = UdpNetwork(runtime, num_nodes=4)
    runtime.run_task(net.open())     # bind the sockets
    ... build stacks (attach happens in their constructors) ...
    runtime.run_for(duration)
    net.close()
"""

from __future__ import annotations

import asyncio
from typing import Iterable, List, Optional, Tuple

from ..errors import CodecError, NetworkError
from ..obs.bus import Bus
from ..runtime.aio import AsyncioRuntime
from .base import Endpoint, Network
from .codec import FRAME_OVERHEAD, WireCodec
from .packet import Packet

__all__ = ["UdpNetwork", "UdpEndpoint", "DEFAULT_BASE_PORT"]

#: Default first port; node ``i`` binds ``base_port + i``.
DEFAULT_BASE_PORT = 47310

#: Largest datagram we are willing to send (localhost loopback allows
#: much more than an Ethernet MTU; stay well under typical buffers).
MAX_DATAGRAM = 60_000


class _NodeProtocol(asyncio.DatagramProtocol):
    """Receives datagrams for one node and hands them to the network."""

    def __init__(self, network: "UdpNetwork", node: int) -> None:
        self.network = network
        self.node = node

    def datagram_received(self, data: bytes, addr: Tuple[str, int]) -> None:
        self.network._on_datagram(self.node, data)

    def error_received(self, exc: Exception) -> None:  # pragma: no cover
        self.network.stats.incr("socket_errors")


class UdpNetwork(Network):
    """A group of nodes exchanging real UDP datagrams on localhost."""

    def __init__(
        self,
        runtime: AsyncioRuntime,
        num_nodes: int,
        base_port: int = DEFAULT_BASE_PORT,
        host: str = "127.0.0.1",
        codec: Optional[WireCodec] = None,
    ) -> None:
        super().__init__(runtime, num_nodes)
        self.base_port = base_port
        self.host = host
        self.codec = WireCodec() if codec is None else codec
        self._transports: List[Optional[asyncio.DatagramTransport]] = [
            None
        ] * num_nodes
        self._open = False
        self._was_open = False
        runtime.on_close(self.close)

    def instrument(self, bus: Bus) -> None:
        """``net.*`` plus the codec's ``stats`` as ``codec.*``."""
        super().instrument(bus)
        bus.scoped(None).attach("codec", self.codec.stats)

    # ------------------------------------------------------------------
    # Socket lifecycle
    # ------------------------------------------------------------------
    async def open(self) -> None:
        """Bind one UDP socket per node.  Call before traffic flows."""
        if self._open:
            return
        loop = self.runtime.loop
        try:
            for node in range(self.num_nodes):
                transport, __ = await loop.create_datagram_endpoint(
                    lambda node=node: _NodeProtocol(self, node),
                    local_addr=(self.host, self.base_port + node),
                )
                # asyncio asks recvfrom() for 256 KiB a call; malloc serves
                # a request that size with fresh pages (two page faults a
                # datagram) or not, depending on where the heap happens
                # to end.  Nothing larger than the cap is ever sent.
                transport.max_size = MAX_DATAGRAM
                self._transports[node] = transport
        except BaseException:
            # A port of the range is taken (or the bind was cancelled):
            # release the lower ports already bound, so a retry on the
            # same range does not collide with this attempt.
            self.close()
            raise
        self._open = True
        self._was_open = True

    def close(self) -> None:
        """Close every socket.  Idempotent."""
        for index, transport in enumerate(self._transports):
            if transport is not None:
                transport.close()
                self._transports[index] = None
        self._open = False

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def _encode_body(self, payload: object) -> bytes:
        """Encode ``payload`` once into frame-ready (reusable) bytes."""
        body = self.codec.encode_payload(payload)
        if len(body) + FRAME_OVERHEAD > MAX_DATAGRAM:
            raise NetworkError(
                f"payload encodes to {len(body)} B, over the "
                f"{MAX_DATAGRAM} B datagram cap"
            )
        return body

    def _on_datagram(self, node: int, data: bytes) -> None:
        # Every decoded value owns its storage (the codec slices, never
        # views), so nothing downstream can alias ``data`` after this
        # call returns.
        try:
            group, src, dst, payload = self.codec.decode_datagram(data)
        except CodecError as exc:
            self.stats.incr("undecodable")
            self.stats.incr("undecodable." + exc.reason)
            return
        if dst != node:
            self.stats.incr("misrouted")
            return
        self.stats.incr("deliveries")
        self._deliver(
            Packet(src, dst, payload, len(data), self.runtime.now, group)
        )

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def _sendable(self, src: int) -> Optional[asyncio.DatagramTransport]:
        """The transport for ``src``, or None if sending must be dropped."""
        if not self._open:
            if self._was_open:
                # Stragglers during teardown (retransmit timers, the SP
                # token) are expected; drop them quietly.
                self.stats.incr("send_after_close")
                return None
            raise NetworkError("UdpNetwork used before open()")
        transport = self._transports[src]
        if transport is None or transport.is_closing():
            self.stats.incr("send_after_close")
            return None
        return transport

    def _send_body(
        self, transport, src: int, dst: int, body: bytes, group: int = 0
    ) -> None:
        """Frame pre-encoded ``body`` for ``dst`` and transmit it."""
        self.stats.incr("sends")
        data = self.codec.frame(src, dst, body, group=group)
        transport.sendto(data, (self.host, self.base_port + dst))

    def _send_copy(
        self, src: int, dst: int, payload: object, size: int, group: int = 0
    ) -> None:
        transport = self._sendable(src)
        if transport is not None:
            self._send_body(
                transport, src, dst, self._encode_body(payload), group
            )

    def _loop_back(
        self, node: int, payload: object, size: int, group: int = 0
    ) -> None:
        """Hand ``node``'s copy to itself on the next loop turn."""
        self.stats.incr("loopback")
        packet = Packet(node, node, payload, size, self.runtime.now, group)
        self.runtime.loop.call_soon(self._arrive_self, packet)

    def _arrive_self(self, packet: Packet) -> None:
        # Like a datagram still in a socket buffer, the copy dies with
        # the socket.
        transport = self._transports[packet.dst]
        if transport is None or transport.is_closing():
            self.stats.incr("send_after_close")
            return
        self.stats.incr("deliveries")
        self._deliver(packet)

    def _make_endpoint(self, node: int) -> "UdpEndpoint":
        return UdpEndpoint(self, node)


class UdpEndpoint(Endpoint):
    """Send handle for a node on a :class:`UdpNetwork`.

    Multicast encodes the payload once and reuses the body bytes across
    the peers' copies; the destination set's dedup + validation result
    (the peers, and whether the node itself is among the targets) is
    cached keyed on the (typically identical from call to call)
    destination tuple, keeping both off the steady-state path.
    """

    network: UdpNetwork

    def __init__(self, network: UdpNetwork, node: int) -> None:
        super().__init__(network, node)
        self._dsts_key: Optional[Tuple[int, ...]] = None
        self._dsts_cached: Tuple[Tuple[int, ...], bool] = ((), False)

    def unicast(
        self, dst: int, payload: object, size_bytes: int, group: int = 0
    ) -> None:
        network = self.network
        network._check_node(dst)
        if dst != self.node:
            network._send_copy(self.node, dst, payload, size_bytes, group)
        elif network._sendable(self.node) is not None:
            network._loop_back(self.node, payload, size_bytes, group)

    def _targets(self, dsts: Iterable[int]) -> Tuple[Tuple[int, ...], bool]:
        key = tuple(dsts)
        if key != self._dsts_key:
            deduped = tuple(dict.fromkeys(key))
            for dst in deduped:
                self.network._check_node(dst)
            peers = tuple(dst for dst in deduped if dst != self.node)
            self._dsts_key = key
            self._dsts_cached = (peers, len(peers) < len(deduped))
        return self._dsts_cached

    def multicast(
        self,
        dsts: Iterable[int],
        payload: object,
        size_bytes: int,
        group: int = 0,
    ) -> None:
        network = self.network
        peers, to_self = self._targets(dsts)
        transport = network._sendable(self.node)
        if transport is None:
            return
        if peers:
            body = network._encode_body(payload)
            for dst in peers:
                self._send_body_checked(network, self.node, dst, body, group)
        if to_self:
            network._loop_back(self.node, payload, size_bytes, group)

    def _send_body_checked(self, network, src, dst, body, group=0) -> None:
        # Re-check per destination: a close() can race the fan-out when
        # delivery callbacks tear the network down mid-multicast.
        transport = network._transports[src]
        if transport is None or transport.is_closing():
            network.stats.incr("send_after_close")
            return
        network._send_body(transport, src, dst, body, group)
