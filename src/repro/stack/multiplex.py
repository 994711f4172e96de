"""The MULTIPLEX layer (Figure 1 of the paper).

The switching composition needs *private* logical channels: one for the
switching protocol's own control traffic and one per subordinate protocol
("Notice that SWITCH requires a private communication channel for itself,
while each underlying protocol also needs a private channel").

:class:`Multiplexer` simulates multiple connections over one underlying
channel: each :class:`MuxChannel` tags downward messages with its channel
id; upward traffic is dispatched to the owning channel by that tag.  Each
switchable stack owns one multiplexer; the stack's
:class:`~repro.stack.port.NodePort` keeps groups apart below it.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional

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

    __slots__ = ("_mux", "channel_id", "_deliver", "_tx_key", "_rx_key")

    def __init__(self, mux: "Multiplexer", channel_id: int) -> None:
        self._mux = mux
        self.channel_id = channel_id
        self._deliver: Optional[DeliverFn] = None
        # Counter keys, formatted once per channel and shared between
        # the stacks' channels of one id, not built once per message.
        self._tx_key = sys.intern(f"tx[{channel_id}]")
        self._rx_key = sys.intern(f"rx[{channel_id}]")

    def send(self, msg: Message) -> None:
        """Tag and forward a downward message."""
        mux = self._mux
        tagged = msg.with_header(_HEADER, self.channel_id, _HEADER_SIZE)
        mux.stats.incr(self._tx_key)
        mux._bottom_send(tagged)

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
    """Simulates multiple connections over a single communication channel."""

    __slots__ = ("_bottom_send", "_channels", "stats")

    def __init__(self, bottom_send: SendFn) -> None:
        self._bottom_send = bottom_send
        self._channels: Dict[int, MuxChannel] = {}
        self.stats = Counter()

    def channel(self, channel_id: int) -> MuxChannel:
        """Create (or fetch) the logical channel with this id."""
        if channel_id < 0:
            raise StackError(f"channel id must be non-negative, got {channel_id}")
        chan = self._channels.get(channel_id)
        if chan is None:
            chan = MuxChannel(self, channel_id)
            self._channels[channel_id] = chan
        return chan

    def remove_channel(self, channel_id: int) -> None:
        """Drop a channel entirely (teardown); unknown ids raise."""
        chan = self._channels.pop(channel_id, None)
        if chan is None:
            raise StackError(f"no mux channel {channel_id} to remove")
        chan.detach()

    def receive(self, msg: Message) -> None:
        """Upward dispatch: route by channel tag."""
        channel_id = msg.header(_HEADER)
        if channel_id is None:
            raise StackError(f"untagged message reached multiplexer: {msg!r}")
        chan = self._channels.get(channel_id)
        if chan is None:
            raise StackError(f"message for unknown mux channel {channel_id}: {msg!r}")
        self.stats.incr(chan._rx_key)
        deliver = chan._deliver
        if deliver is None:
            raise StackError(
                f"channel {channel_id} received traffic before wiring"
            )
        deliver(msg.without_header(_HEADER, _HEADER_SIZE))
