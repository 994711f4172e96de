"""The MULTIPLEX layer (Figure 1 of the paper).

The switching composition needs *private* logical channels: one for the
switching protocol's own control traffic and one per subordinate protocol
("Notice that SWITCH requires a private communication channel for itself,
while each underlying protocol also needs a private channel").

:class:`Multiplexer` simulates multiple connections over one underlying
channel: each :class:`MuxChannel` tags downward messages with its channel
id; upward traffic is dispatched to the owning channel by that tag.

Channels are keyed ``(group_id, channel_id)``: one multiplexer can host
the private channels of *many* switching groups over a single transport
(the fleet runtime's sharing point).  Group 0 is the default single-group
world — its channels tag and dispatch exactly as before the fleet
refactor, so single-group wire traffic is unchanged.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from ..errors import StackError
from ..obs.metrics import Counter
from .layer import DeliverFn, SendFn
from .message import Message

__all__ = ["Multiplexer", "MuxChannel"]

_HEADER = "mux"
_HEADER_SIZE = 2


class MuxChannel:
    """One logical channel over a :class:`Multiplexer`.

    Acts as the "bottom of the world" for the sub-stack mounted on it:
    the sub-stack sends via :meth:`send` and receives via the ``deliver``
    callback installed with :meth:`on_deliver`.
    """

    def __init__(
        self, mux: "Multiplexer", channel_id: int, group: int = 0
    ) -> None:
        self._mux = mux
        self.channel_id = channel_id
        self.group = group
        self._deliver: Optional[DeliverFn] = None
        # Counter keys, formatted once per channel, not once per message.
        label = str(channel_id) if group == 0 else f"g{group}:{channel_id}"
        self._tx_key = f"tx[{label}]"
        self._rx_key = f"rx[{label}]"

    def send(self, msg: Message) -> None:
        """Tag and forward a downward message."""
        mux = self._mux
        tagged = msg.with_header(_HEADER, self.channel_id, _HEADER_SIZE)
        mux.stats.incr(self._tx_key)
        if self.group == 0:
            mux._bottom_send(tagged)
        else:
            mux._bottom_send(tagged, self.group)

    def on_deliver(self, deliver: DeliverFn) -> None:
        """Install the upward callback for this channel (once)."""
        if self._deliver is not None:
            raise StackError(
                f"channel {self.channel_id} already has a deliver callback"
            )
        self._deliver = deliver

    def detach(self) -> None:
        """Remove the upward callback so the channel can be rewired.

        Teardown primitive: a :class:`GroupHandle` tearing a sub-stack
        down detaches its channels, after which a rebuilt stack may call
        :meth:`on_deliver` again.
        """
        self._deliver = None

    @property
    def wired(self) -> bool:
        """True while a deliver callback is installed."""
        return self._deliver is not None


class Multiplexer:
    """Simulates multiple connections over a single communication channel.

    ``bottom_send`` is called as ``bottom_send(msg)`` for group-0 traffic
    (the pre-fleet signature, so existing transports plug in unchanged)
    and ``bottom_send(msg, group)`` for fleet groups.
    """

    def __init__(self, bottom_send: SendFn) -> None:
        self._bottom_send = bottom_send
        self._channels: Dict[Tuple[int, int], MuxChannel] = {}
        self.stats = Counter()

    def channel(self, channel_id: int, group: int = 0) -> MuxChannel:
        """Create (or fetch) the logical channel with this id."""
        if channel_id < 0:
            raise StackError(f"channel id must be non-negative, got {channel_id}")
        if group < 0:
            raise StackError(f"group id must be non-negative, got {group}")
        key = (group, channel_id)
        chan = self._channels.get(key)
        if chan is None:
            chan = MuxChannel(self, channel_id, group)
            self._channels[key] = chan
        return chan

    def remove_channel(self, channel_id: int, group: int = 0) -> None:
        """Drop a channel entirely (teardown); unknown ids raise."""
        chan = self._channels.pop((group, channel_id), None)
        if chan is None:
            raise StackError(
                f"no mux channel {channel_id} in group {group} to remove"
            )
        chan.detach()

    def group_channels(self, group: int) -> Tuple[MuxChannel, ...]:
        """All live channels belonging to ``group``."""
        return tuple(
            chan for (gid, __), chan in self._channels.items() if gid == group
        )

    def receive(self, msg: Message, group: int = 0) -> None:
        """Upward dispatch: route by (group, channel tag)."""
        channel_id = msg.header(_HEADER)
        if channel_id is None:
            raise StackError(f"untagged message reached multiplexer: {msg!r}")
        chan = self._channels.get((group, channel_id))
        if chan is None:
            raise StackError(
                f"message for unknown mux channel {channel_id} "
                f"(group {group}): {msg!r}"
            )
        self.stats.incr(chan._rx_key)
        deliver = chan._deliver
        if deliver is None:
            raise StackError(
                f"channel {channel_id} received traffic before wiring"
            )
        deliver(msg.without_header(_HEADER, _HEADER_SIZE))
