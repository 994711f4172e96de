"""Point-to-point specialization of the switching protocol.

The paper focuses on group multicast "but our work can easily be
specialized for point-to-point communication" (§1).  This module is that
specialization: a :class:`SwitchableChannel` is a bidirectional two-party
connection whose wire protocol can be switched at run time, with the
same guarantee — all old-protocol traffic is delivered before any
new-protocol traffic, in both directions.

Under the hood each end is a two-member :class:`SwitchableStack`; the
channel API hides group mechanics (a peer does not receive its own
sends) and exposes plain ``send`` / ``on_receive``.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import SwitchError
from ..net.base import Network
from ..obs.bus import default_bus
from ..runtime.api import Runtime
from ..sim.rng import RandomStreams
from ..stack.membership import Group
from ..stack.message import Message
from ..stack.port import NodePort
from .switchable import ProtocolSpec, SwitchableStack

__all__ = ["ChannelEnd", "SwitchableChannel"]


class ChannelEnd:
    """One side of a switchable point-to-point channel."""

    def __init__(self, stack: SwitchableStack, peer: int) -> None:
        self._stack = stack
        self.peer = peer
        self._callbacks: List[Callable[[Any], None]] = []
        stack.on_deliver(self._on_deliver)

    @property
    def rank(self) -> int:
        return self._stack.rank

    def send(self, body: Any, body_size: int = 256) -> None:
        """Send ``body`` to the peer over the current protocol."""
        self._stack.cast(body, body_size)

    def on_receive(self, callback: Callable[[Any], None]) -> None:
        """Register a callback for bodies arriving from the peer."""
        self._callbacks.append(callback)

    def _on_deliver(self, msg: Message) -> None:
        if msg.sender == self._stack.rank:
            return  # point-to-point semantics: no self-delivery
        for callback in self._callbacks:
            callback(msg.body)

    # Switching surface, mirrored from the stack.
    def request_switch(self, to: str) -> None:
        """Ask this end (as initiator) to switch the channel to ``to``."""
        self._stack.request_switch(to)

    @property
    def current_protocol(self) -> str:
        return self._stack.current_protocol

    @property
    def switching(self) -> bool:
        return self._stack.switching

    def can_send(self) -> bool:
        """Back-pressure query against the current protocol."""
        return self._stack.can_send()


class SwitchableChannel:
    """A two-party connection with runtime protocol switching.

    Args:
        runtime: the clock/timer runtime.
        network: a network model with at least ``max(a, b) + 1`` nodes.
        a, b: the two node ids.
        protocols: the switchable wire protocols (specs as for groups).
        initial: the protocol both ends start on.
        variant: SP variant ("token" or "broadcast").
    """

    def __init__(
        self,
        runtime: Runtime,
        network: Network,
        a: int,
        b: int,
        protocols: Sequence[ProtocolSpec],
        initial: str,
        variant: str = "broadcast",
        streams: Optional[RandomStreams] = None,
    ) -> None:
        if a == b:
            raise SwitchError("a channel needs two distinct endpoints")
        group = Group([a, b])
        master = streams or RandomStreams(0)
        stacks = {}
        for rank in (a, b):
            port = NodePort(network, rank)
            default_bus().scoped(None).attach("port", port.stats)
            stacks[rank] = SwitchableStack(
                runtime,
                port,
                group,
                rank,
                protocols,
                initial,
                variant=variant,
                streams=master.fork(f"chan{rank}"),
            )
        self.ends: Tuple[ChannelEnd, ChannelEnd] = (
            ChannelEnd(stacks[a], peer=b),
            ChannelEnd(stacks[b], peer=a),
        )

    def __iter__(self):
        return iter(self.ends)
