"""Virtual Synchrony: views and flush (Table 1).

"A process only delivers messages from processes in some common view."
This layer installs :class:`~repro.stack.membership.View` objects by
*delivering* them to the application (a view message is a Deliver event —
the trace-level evidence the VS property quantifies over), and guarantees
the classic virtually-synchronous contract between views: all members of
a view deliver the same set of data messages between consecutive view
deliveries, and data is delivered in the view it was sent in.

View changes run a flush round (coordinator-driven): FLUSH stops senders,
members report per-view send counts, the coordinator disseminates the
cut, members drain to the cut, and the new view is installed everywhere.
The paper points out (§8) that this flush machinery is itself a
heavier-weight way to switch protocols — one that *does* preserve VS; see
:mod:`repro.core.view_switch`.

``announce`` controls when the *initial* view is delivered:

* ``"start"`` — at layer start (standalone VS stacks).
* ``"first_activity"`` — lazily, just before the first data send or
  delivery.  This is the honest model for a protocol slot sitting idle
  under a switching layer: its view was installed "in history" before the
  application started listening to it.
* ``"never"`` — never delivered; used to exhibit VS violations.

The Memoryless meta-property failure (§6.1) is visible right here: the
VS property's justification lives in *delivered view messages*, and a
protocol switched-to mid-history never re-delivers them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..errors import ProtocolError
from ..obs.metrics import Counter
from ..stack.layer import Layer
from ..stack.membership import View
from ..stack.message import Message

__all__ = ["VirtualSynchronyLayer", "view_message_mid"]

_HEADER = "vs"
_HEADER_SIZE = 10


def view_message_mid(view: View, namespace: int = 0) -> Tuple[int, int]:
    """The deterministic message id shared by all deliveries of a view.

    Negative sequence numbers keep view messages out of the id space of
    ordinary messages; ``namespace`` separates distinct VS protocol
    instances living under one switching layer.
    """
    return (view.coordinator, -(1 + view.view_id + namespace * 1_000_000))


class VirtualSynchronyLayer(Layer):
    """Views + flush.  Compose above a reliable FIFO substrate on lossy
    networks; view-change liveness assumes no member crashes mid-flush.

    Args:
        initial_view: the first view (defaults to view 0 over the group).
        announce: when to deliver the initial view ("start",
            "first_activity", or "never").
        namespace: id namespace for this VS instance's view messages.
    """

    name = "vs"

    def __init__(
        self,
        initial_view: Optional[View] = None,
        announce: str = "start",
        namespace: int = 0,
    ) -> None:
        super().__init__()
        if announce not in ("start", "first_activity", "never"):
            raise ProtocolError(f"unknown announce mode {announce!r}")
        self._initial_view = initial_view
        self.announce = announce
        self.namespace = namespace
        self.view: Optional[View] = None  # installed (delivered) view
        self._announced = False
        self._flushing = False
        self._send_queue: Deque[Message] = deque()
        self._sent_in_view = 0
        self._delivered_in_view: Dict[int, int] = {}
        self._early: List[Tuple[Message, int]] = []  # data from a future view
        # Coordinator-side flush state:
        self._flush_target: Optional[View] = None
        self._flush_counts: Dict[int, int] = {}
        self._cut_done: set = set()
        self._cut_sent = False
        # Member-side flush state:
        self._pending_cut: Optional[Dict[int, int]] = None
        self.stats = Counter()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        super().start()
        if self._initial_view is None:
            self._initial_view = View(0, self.ctx.group.members)
        # The view is logically installed (protocol state) immediately;
        # with announce="start" the announcement itself is deferred to
        # simulation time zero so observers attached after stack
        # construction still see it.
        self.view = self._initial_view
        if self.announce == "start":
            self.ctx.after(0.0, self._ensure_announced)

    def _ensure_announced(self) -> None:
        if self._announced or self.announce == "never":
            if not self._announced:
                self._announced = True  # "never": mark to skip re-checks
            return
        self._announce_view(self.view)

    def _announce_view(self, view: View) -> None:
        self._announced = True
        msg = Message(
            sender=view.coordinator,
            mid=view_message_mid(view, self.namespace),
            body=view,
            body_size=8 + 4 * len(view.members),
        )
        self.stats.incr("views_delivered")
        self.deliver_up(msg)

    def _install(self, view: View) -> None:
        self.view = view
        self._sent_in_view = 0
        self._delivered_in_view = {}
        self._flushing = False
        self._pending_cut = None
        self._announced = False
        if self.announce != "first_activity" or view is not self._initial_view:
            self._ensure_announced()
        # Release queued sends (only if we are still a member).
        if self.ctx.rank in view:
            queued, self._send_queue = self._send_queue, deque()
            for msg in queued:
                self.send(msg)
        # Replay data that raced ahead of the view installation.
        early, self._early = self._early, []
        for msg, vid in early:
            self._on_data(msg, vid)

    # ------------------------------------------------------------------
    # Downward
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        if self.view is None:
            raise ProtocolError("VS layer used before start")
        if self.ctx.rank not in self.view:
            raise ProtocolError(
                f"rank {self.ctx.rank} is not a member of view {self.view.view_id}"
            )
        if self._flushing:
            self.stats.incr("queued_during_flush")
            self._send_queue.append(msg)
            return
        self._ensure_announced()
        self._sent_in_view += 1
        self.send_down(
            msg.with_header(
                _HEADER, {"k": "d", "vid": self.view.view_id}, _HEADER_SIZE
            ).with_dest(self.view.members)
        )

    def can_send(self) -> bool:
        return not self._flushing

    # ------------------------------------------------------------------
    # Upward
    # ------------------------------------------------------------------
    def receive(self, msg: Message) -> None:
        header = msg.header(_HEADER)
        if header is None:
            self.deliver_up(msg)
            return
        kind = header["k"]
        body = msg.body
        if kind == "d":
            self._on_data(msg.without_header(_HEADER, _HEADER_SIZE), header["vid"])
        elif kind == "flush":
            self._on_flush(body)
        elif kind == "flush_ok":
            self._on_flush_ok(msg.sender, body)
        elif kind == "cut":
            self._on_cut(body)
        elif kind == "cut_done":
            self._on_cut_done(msg.sender)
        elif kind == "view":
            self._on_view(body)
        else:  # pragma: no cover - defensive
            raise ProtocolError(f"unknown vs header kind {kind!r}")

    def _on_data(self, msg: Message, vid: int) -> None:
        assert self.view is not None
        if vid < self.view.view_id:
            self.stats.incr("late_dropped")
            return
        if vid > self.view.view_id:
            self.stats.incr("early_buffered")
            self._early.append((msg, vid))
            return
        self._ensure_announced()
        self._delivered_in_view[msg.sender] = (
            self._delivered_in_view.get(msg.sender, 0) + 1
        )
        self.stats.incr("delivered")
        self.deliver_up(msg)
        self._maybe_finish_cut()

    # ------------------------------------------------------------------
    # Flush protocol (view change)
    # ------------------------------------------------------------------
    def propose_view(self, members) -> None:
        """Start a view change (coordinator of the current view only)."""
        assert self.view is not None
        if self.ctx.rank != self.view.coordinator:
            raise ProtocolError("only the view coordinator may propose a view")
        if self._flush_target is not None:
            raise ProtocolError("a view change is already in progress")
        target = View(self.view.view_id + 1, tuple(members))
        self._flush_target = target
        self._flush_counts = {}
        self._cut_done = set()
        self._control("flush", target, self.view.members)

    def _on_flush(self, target: View) -> None:
        assert self.view is not None
        self._flushing = True
        self.stats.incr("flushes")
        self._control(
            "flush_ok", self._sent_in_view, (self.view.coordinator,)
        )

    def _on_flush_ok(self, member: int, sent_count: int) -> None:
        assert self.view is not None
        if self._flush_target is None or self._cut_sent:
            return
        self._flush_counts[member] = sent_count
        if set(self._flush_counts) >= set(self.view.members):
            self._cut_sent = True
            self._control("cut", dict(self._flush_counts), self.view.members)

    def _on_cut(self, vector: Dict[int, int]) -> None:
        self._pending_cut = vector
        self._maybe_finish_cut()

    def _maybe_finish_cut(self) -> None:
        if self._pending_cut is None:
            return
        assert self.view is not None
        for member, count in self._pending_cut.items():
            if self._delivered_in_view.get(member, 0) < count:
                return
        self._pending_cut = None
        self._control("cut_done", None, (self.view.coordinator,))

    def _on_cut_done(self, member: int) -> None:
        assert self.view is not None
        if self._flush_target is None:
            return
        self._cut_done.add(member)
        if self._cut_done >= set(self.view.members):
            target, self._flush_target = self._flush_target, None
            self._cut_sent = False
            self._control("view", target, self.view.members)

    def _on_view(self, view: View) -> None:
        self.stats.incr("views_installed")
        self._install(view)

    def _control(self, kind: str, body, dest) -> None:
        msg = self.ctx.make_message(body, 24, dest=tuple(dest))
        self.send_down(msg.with_header(_HEADER, {"k": kind}, _HEADER_SIZE))
