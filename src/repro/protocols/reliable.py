"""NAK-based reliable multicast with stability tracking.

This layer supplies the guarantees the switching protocol assumes of its
underlying protocols (§2): no spurious deliveries, at-most-once, and —
for switch liveness — exactly-once delivery, over a network that may
lose, duplicate, or reorder packets.

Mechanism (one *stream* per (origin, destination-set) pair):

* Data carries a per-stream sequence number; receivers deliver each
  stream in sequence order from a hold-back queue, which yields
  exactly-once, per-stream-FIFO delivery.
* A receiver that observes a gap (a higher sequence than expected, or a
  heartbeat advertising one) NAKs the origin, which retransmits the
  missing messages point-to-point.  NAKs repeat on a timer until the gap
  closes, so repeated losses are survived.
* Origins with unstable (un-acknowledged) messages emit periodic
  heartbeats advertising their top sequence, so a lost *last* message is
  still detected.
* Receivers periodically acknowledge their delivered prefix; an origin
  garbage-collects a message once every receiver in the stream's
  destination set has acknowledged it (stability).

The maintenance tick runs only while there is work: an unstable send
stream or an open receive gap re-arms it, and traffic arms it again
after a quiet spell, so a quiet layer schedules nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Dict, List, Optional, Set, Tuple

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.message import Message

__all__ = ["ReliableConfig", "ReliableLayer"]

_HEADER = "rel"
_HEADER_SIZE = 10

#: Stream key for full-group multicast.
_GROUP_KEY = "G"

StreamKey = Tuple[int, object]  # (origin rank, destination key)


@dataclass
class ReliableConfig:
    """Timers and limits for the reliable layer.

    Attributes:
        tick_interval: delay from arming the maintenance tick that
            drives NAKs, heartbeats, and ACKs to its firing (its period
            while a stream has work).
        nak_batch: max missing sequence numbers requested per NAK.
        control_size: declared wire size of NAK/ACK/heartbeat bodies.
    """

    tick_interval: float = 0.025
    nak_batch: int = 32
    control_size: int = 16

    def __post_init__(self) -> None:
        if self.tick_interval <= 0:
            raise ProtocolError("tick_interval must be positive")
        if self.nak_batch <= 0:
            raise ProtocolError("nak_batch must be positive")


class _SendStream:
    """Origin-side state for one destination set."""

    __slots__ = ("next_seq", "buffer", "acks", "receivers", "dirty")

    def __init__(self, receivers: Set[int]) -> None:
        self.next_seq = 0
        self.buffer: Dict[int, Message] = {}
        self.acks: Dict[int, int] = {}  # receiver -> delivered prefix (exclusive)
        self.receivers = receivers
        self.dirty = False  # data sent since last heartbeat tick


class _RecvStream:
    """Receiver-side state for one (origin, destination-set) stream."""

    __slots__ = ("expected", "holdback", "known_top", "acked", "last_nak_at")

    def __init__(self) -> None:
        self.expected = 0
        self.holdback: Dict[int, Message] = {}
        self.known_top = -1  # highest sequence known to exist
        self.acked = 0  # prefix we last acknowledged
        self.last_nak_at = -1.0


class ReliableLayer(Layer):
    """Reliable, per-stream-FIFO, exactly-once delivery."""

    name = "rel"

    def __init__(self, config: Optional[ReliableConfig] = None) -> None:
        super().__init__()
        self.config = config or ReliableConfig()
        self._send_streams: Dict[object, _SendStream] = {}
        self._recv_streams: Dict[StreamKey, _RecvStream] = {}
        self.stats = Counter()
        self._ticker = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        self._arm()

    def stop(self) -> None:
        super().stop()
        ticker, self._ticker = self._ticker, None
        if ticker is not None:
            ticker.cancel()

    def _arm(self) -> None:
        if self._ticker is None and self._started:
            self._ticker = self.ctx.after(self.config.tick_interval, self._tick)

    # ------------------------------------------------------------------
    # Downward: wrap data with stream sequence numbers
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        dest_key = self._dest_key(msg)
        stream = self._send_streams.get(dest_key)
        if stream is None:
            stream = _SendStream(self._receivers_of(dest_key))
            self._send_streams[dest_key] = stream
        seq = stream.next_seq
        stream.next_seq += 1
        # "src" is the *transmitting* process — distinct from msg.sender
        # when a layer above us forwards another process's message (the
        # sequencer does exactly that).  Streams are per transmitter.
        wrapped = msg.with_header(
            _HEADER,
            {"k": "data", "seq": seq, "dk": dest_key, "src": self.ctx.rank},
            _HEADER_SIZE,
        )
        stream.buffer[seq] = wrapped
        stream.dirty = True
        self.stats.incr("data_sent")
        self._arm()
        self.send_down(wrapped)

    def _dest_key(self, msg: Message) -> object:
        if msg.dest is None:
            return _GROUP_KEY
        return tuple(sorted(msg.dest))

    def _receivers_of(self, dest_key: object) -> Set[int]:
        if dest_key == _GROUP_KEY:
            members: Tuple[int, ...] = self.ctx.group.members
        else:
            members = dest_key  # type: ignore[assignment]
        # Loopback delivery is loss-free, so we never need an ACK from self.
        return {m for m in members if m != self.ctx.rank}

    # ------------------------------------------------------------------
    # Upward: dispatch data vs. control
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        header = msg.header(_HEADER)
        if header is None:
            self.deliver_up(msg)
            return
        kind = header["k"]
        if kind == "data":
            self._on_data(msg, header)
        elif kind == "nak":
            self._on_nak(msg)
        elif kind == "ack":
            self._on_ack(msg)
        elif kind == "hb":
            self._on_heartbeat(msg)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown rel control kind {kind!r}")

    def _on_data(self, msg: Message, header: Dict) -> None:
        origin = header["src"]
        seq = header["seq"]
        stream = self._stream(origin, header["dk"])
        stream.known_top = max(stream.known_top, seq)
        self._arm()
        if seq < stream.expected or seq in stream.holdback:
            self.stats.incr("duplicates")
            return
        stream.holdback[seq] = msg
        while stream.expected in stream.holdback:
            ready = stream.holdback.pop(stream.expected)
            stream.expected += 1
            self.stats.incr("delivered")
            self.deliver_up(ready.without_header(_HEADER, _HEADER_SIZE))

    def _stream(self, origin: int, dest_key: object) -> _RecvStream:
        key = (origin, dest_key)
        stream = self._recv_streams.get(key)
        if stream is None:
            stream = _RecvStream()
            self._recv_streams[key] = stream
        return stream

    # ------------------------------------------------------------------
    # Control handling
    # ------------------------------------------------------------------
    def _on_nak(self, msg: Message) -> None:
        dest_key, missing = msg.body
        requester = msg.sender
        stream = self._send_streams.get(dest_key)
        if stream is None:
            return
        for seq in missing:
            buffered = stream.buffer.get(seq)
            if buffered is not None:
                self.stats.incr("retransmits")
                self.send_down(buffered.with_dest((requester,)))

    def _on_ack(self, msg: Message) -> None:
        dest_key, prefix = msg.body
        stream = self._send_streams.get(dest_key)
        if stream is None:
            return
        receiver = msg.sender
        stream.acks[receiver] = max(stream.acks.get(receiver, 0), prefix)
        self._collect_garbage(stream)

    def _collect_garbage(self, stream: _SendStream) -> None:
        if not stream.receivers:
            stream.buffer.clear()
            return
        if not stream.receivers.issubset(stream.acks.keys()):
            return
        stable = min(stream.acks[r] for r in stream.receivers)
        for seq in [s for s in stream.buffer if s < stable]:
            del stream.buffer[seq]

    def _on_heartbeat(self, msg: Message) -> None:
        dest_key, top = msg.body
        stream = self._stream(msg.sender, dest_key)
        stream.known_top = max(stream.known_top, top)
        self._arm()

    # ------------------------------------------------------------------
    # Maintenance timer
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        self._ticker = None
        if not self._started:
            return
        gaps = self._nak_gaps()
        unstable = self._heartbeat()
        self._acknowledge()
        if gaps or unstable:
            self._arm()

    def _nak_gaps(self) -> bool:
        """NAK every open gap; True if any stream has one."""
        open_gap = False
        for (origin, dest_key), stream in self._recv_streams.items():
            if origin == self.ctx.rank:
                continue
            if stream.known_top < stream.expected:
                continue
            open_gap = True
            # known_top comes off the wire: walk no further than the
            # batch we will actually request.
            gaps = (
                seq
                for seq in range(stream.expected, stream.known_top + 1)
                if seq not in stream.holdback
            )
            missing = list(islice(gaps, self.config.nak_batch))
            if not missing:
                continue
            self.stats.incr("naks_sent")
            self._control("nak", (dest_key, missing), dest=(origin,))
        return open_gap

    def _heartbeat(self) -> bool:
        """Heartbeat every quiet unstable stream; True if any is unstable."""
        unstable = False
        for dest_key, stream in self._send_streams.items():
            if not stream.buffer:
                continue
            unstable = True
            if stream.dirty:
                # Data flowed since the last tick; it advertises top itself.
                stream.dirty = False
                continue
            dest = None if dest_key == _GROUP_KEY else tuple(stream.receivers)
            if dest is not None and not dest:
                continue
            self.stats.incr("heartbeats")
            self._control("hb", (dest_key, stream.next_seq - 1), dest=dest)
        return unstable

    def _acknowledge(self) -> None:
        for (origin, dest_key), stream in self._recv_streams.items():
            if origin == self.ctx.rank:
                continue
            if stream.expected > stream.acked:
                stream.acked = stream.expected
                self.stats.incr("acks_sent")
                self._control("ack", (dest_key, stream.expected), dest=(origin,))

    def _control(self, kind: str, body: object, dest) -> None:
        msg = self.ctx.make_message(body, self.config.control_size, dest=dest)
        self.send_down(msg.with_header(_HEADER, {"k": kind}, _HEADER_SIZE))

    # ------------------------------------------------------------------
    # Introspection (tests, telemetry)
    # ------------------------------------------------------------------
    @property
    def unstable_messages(self) -> int:
        """Messages we originated that are not yet globally acknowledged."""
        return sum(len(s.buffer) for s in self._send_streams.values())

    @property
    def holdback_size(self) -> int:
        return sum(len(s.holdback) for s in self._recv_streams.values())
