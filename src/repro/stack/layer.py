"""The layer abstraction and stack composition.

The paper's §3 model: a protocol is a module with a top side and a bottom
side; applications submit Send events at the top; the network submits
Deliver events at the bottom; and protocols compose by layering "much like
Lego blocks" — a stack of protocols is another protocol.

Concretely a :class:`Layer` receives:

* :meth:`Layer.send` — a message travelling *down* from the layer above;
* :meth:`Layer.receive` — a message travelling *up* from the layer below;

and emits through :meth:`Layer.send_down` / :meth:`Layer.deliver_up`.
Layers that originate their own control traffic (NAKs, tokens, sequencer
forwards) mark it with a private header and consume it in ``receive``.

Composition is functional: :func:`compose` wires a list of layers between
a bottom send function and a top deliver callback and hands back the
resulting (top send, bottom receive) pair.  This shape lets sub-stacks be
embedded anywhere — which is exactly how the switching protocol hosts its
subordinate protocols (§4, Figure 1).
"""

from __future__ import annotations

import itertools
import time as _time
from typing import Any, Callable, List, Optional, Sequence, Tuple

from ..errors import StackError
from ..obs.bus import Bus, BusScope, default_bus
from ..runtime.api import Runtime, TimerHandle
from ..sim.rng import RandomStreams
from .membership import Group
from .message import Message, MessageId

__all__ = [
    "LayerContext",
    "Layer",
    "compose",
    "start_layers",
    "stop_layers",
    "SendFn",
    "DeliverFn",
]

SendFn = Callable[[Message], None]
DeliverFn = Callable[[Message], None]


class LayerContext:
    """Per-process runtime services shared by every layer in one stack.

    Attributes:
        runtime: the clock/timer runtime (simulated or real; layers must
            not care which — see :mod:`repro.runtime.api`).
        group: the process group this stack belongs to.
        rank: this process's rank within the group.
        streams: named RNG streams scoped to this process.
        bus: instrumentation bus; defaults to the process-wide default
            (disabled unless the harness enabled it).  Exposed to layers
            as :attr:`obs`, a rank-stamped :class:`~repro.obs.bus.BusScope`.
        group_id: fleet group id; labels the obs scope (``[g<id>]``
            metric suffix) so per-group rates stay separable on a shared
            bus.  ``None`` (the single-group default) leaves the scope —
            and every metric name — exactly as before the fleet refactor.
    """

    def __init__(
        self,
        runtime: Runtime,
        group: Group,
        rank: int,
        streams: Optional[RandomStreams] = None,
        cpu_work: Optional[Callable[[float, Callable[[], None]], None]] = None,
        bus: Optional[Bus] = None,
        group_id: Optional[int] = None,
    ) -> None:
        if rank not in group:
            raise StackError(f"rank {rank} not in group {group!r}")
        self.runtime = runtime
        self.group = group
        self.rank = rank
        self.group_id = 0 if group_id is None else group_id
        self.streams = streams or RandomStreams(rank)
        self.bus = bus if bus is not None else default_bus()
        self.obs: BusScope = self.bus.scoped(rank, group_id)
        self._cpu_work = cpu_work
        self._mid_counter = itertools.count()

    # ------------------------------------------------------------------
    # Message identity
    # ------------------------------------------------------------------
    def next_mid(self) -> MessageId:
        """A process-unique message id (shared counter across all layers)."""
        return (self.rank, next(self._mid_counter))

    def make_message(
        self,
        body: Any,
        body_size: int,
        dest: Optional[Sequence[int]] = None,
    ) -> Message:
        """Mint a fresh message originated by this process."""
        return Message(
            sender=self.rank,
            mid=self.next_mid(),
            body=body,
            body_size=body_size,
            dest=None if dest is None else tuple(dest),
        )

    # ------------------------------------------------------------------
    # Time and CPU
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.runtime.now

    def after(self, delay: float, callback: Callable[[], None]) -> TimerHandle:
        """Schedule a layer timer."""
        return self.runtime.schedule(delay, callback)

    def cpu_work(self, duration: float, then: Callable[[], None]) -> None:
        """Model protocol processing time.

        On the Ethernet model this queues on the host's CPU (contending
        with packet handling); elsewhere it degrades to a plain delay.
        Zero duration invokes ``then`` synchronously.
        """
        if duration <= 0:
            then()
        elif self._cpu_work is not None:
            self._cpu_work(duration, then)
        else:
            self.runtime.schedule(duration, then)


class Layer:
    """Base class for protocol layers.

    Subclasses override :meth:`send` (traffic from above, headed down)
    and/or :meth:`receive` (traffic from below, headed up), and may use
    timers via ``self.ctx.after``.  The defaults pass traffic straight
    through, so a ``Layer()`` is the identity protocol.
    """

    #: Short stable key used for this layer's headers; subclasses override.
    name = "identity"

    def __init__(self) -> None:
        self.ctx: Optional[LayerContext] = None
        self._down: Optional[SendFn] = None
        self._up: Optional[DeliverFn] = None
        self._started = False

    # ------------------------------------------------------------------
    # Wiring (called by compose)
    # ------------------------------------------------------------------
    def bind(self, ctx: LayerContext) -> None:
        """Attach runtime services.  Called once, before start()."""
        if self.ctx is not None:
            raise StackError(f"layer {self.name} is already bound")
        self.ctx = ctx

    def start(self) -> None:
        """Hook for timers/initial control traffic.  Idempotent guard."""
        if self.ctx is None or self._down is None:
            raise StackError(f"layer {self.name} used before wiring completed")
        self._started = True

    def stop(self) -> None:
        """Teardown hook: stop originating traffic, cancel timers.

        The base implementation clears the started flag; layers that arm
        repeating timers override this (and guard their timer callbacks
        on ``self._started``) so a torn-down group goes quiet instead of
        ticking forever.  Idempotent.
        """
        self._started = False

    def quiesce(self) -> None:
        """The switching core says this layer's slot is dormant: no
        application send is routed to it and none is owed from it.

        Stop originating traffic that is not needed for safety; keep
        receiving (see "Dormant slots" in docs/PROTOCOLS.md).  May arrive
        before :meth:`start`.  A standalone stack never calls it.
        """

    def resume(self) -> None:
        """The slot is live again (it is, or is about to be, sent on)."""

    # ------------------------------------------------------------------
    # Vertical traffic — subclasses override these two
    # ------------------------------------------------------------------
    def send(self, msg: Message) -> None:
        """Handle a message travelling down from the layer above."""
        self.send_down(msg)

    def receive(self, msg: Message) -> None:
        """Handle a message travelling up from the layer below."""
        self.deliver_up(msg)

    def can_send(self) -> bool:
        """Back-pressure query: may the layer above submit a send now?

        Layers implementing send-restricting properties (e.g. Amoeba)
        override this; a property-respecting application consults
        :meth:`ProcessStack.can_send` before casting.  Sending anyway is
        tolerated (the layer queues) but shows up as a property violation
        in recorded traces — which is sometimes exactly what an experiment
        wants to exhibit.
        """
        return True

    # ------------------------------------------------------------------
    # Emission helpers
    # ------------------------------------------------------------------
    def send_down(self, msg: Message) -> None:
        """Emit a message to the layer (or node port) below."""
        if self._down is None:
            raise StackError(f"layer {self.name} has no downward connection")
        self._down(msg)

    def deliver_up(self, msg: Message) -> None:
        """Emit a message to the layer (or application) above."""
        if self._up is None:
            raise StackError(f"layer {self.name} has no upward connection")
        self._up(msg)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rank = self.ctx.rank if self.ctx else "?"
        return f"<{type(self).__name__} name={self.name} rank={rank}>"


def compose(
    layers: Sequence[Layer],
    ctx: LayerContext,
    bottom_send: SendFn,
    top_deliver: DeliverFn,
) -> Tuple[SendFn, DeliverFn]:
    """Wire ``layers`` (top first) into a vertical pipeline.

    Returns ``(top_send, bottom_receive)``: feed application sends into
    ``top_send``; feed network arrivals into ``bottom_receive``.  With an
    empty layer list the two ends are connected directly.

    The caller is responsible for invoking :meth:`Layer.start` afterwards
    (see :func:`start_layers`), after *all* wiring in the process exists.

    When the context's instrumentation bus is enabled at composition
    time, each layer's ``stats`` is attached to it and each layer's
    upward ``receive`` is wrapped to profile per-layer deliver latency
    (CPU time spent inside the layer, recorded into the
    ``layer.<name>.deliver_cpu_s`` histogram) — with a disabled bus the
    raw bound methods are wired, so the instrumented and bare pipelines
    are literally the same callables.
    """
    layer_list: List[Layer] = list(layers)
    for layer in layer_list:
        layer.bind(ctx)
        stats = getattr(layer, "stats", None)
        if stats is not None:
            ctx.obs.attach(layer.name, stats)

    # Wire from the bottom up: each layer's downward fn is the layer
    # below's send(); its upward fn is the layer above's receive().
    down: SendFn = bottom_send
    for layer in reversed(layer_list):
        layer_down = down
        down = layer.send
        # placeholder; the upward fn is fixed in the next pass
        layer._down = layer_down

    up: DeliverFn = top_deliver
    for layer in layer_list:
        layer._up = up
        up = _instrumented_receive(layer, ctx)

    top_send: SendFn = layer_list[0].send if layer_list else bottom_send
    bottom_receive: DeliverFn = up if layer_list else top_deliver
    return top_send, bottom_receive


def _instrumented_receive(layer: Layer, ctx: LayerContext) -> DeliverFn:
    """``layer.receive``, profiled when the bus is enabled at wiring time.

    Durations are measured with ``time.perf_counter`` — honest CPU cost
    on both runtimes (virtual time never advances inside a callback, so
    the runtime clock cannot see a layer's processing time).
    """
    if not ctx.obs.enabled:
        return layer.receive
    obs = ctx.obs
    receive = layer.receive
    cpu_metric = f"layer.{layer.name}.deliver_cpu_s"

    def profiled(msg: Message) -> None:
        started = _time.perf_counter()
        receive(msg)
        obs.observe(cpu_metric, _time.perf_counter() - started)

    return profiled


def start_layers(layers: Sequence[Layer]) -> None:
    """Start layers top-to-bottom once all wiring exists."""
    for layer in layers:
        layer.start()


def stop_layers(layers: Sequence[Layer]) -> None:
    """Stop layers top-to-bottom (teardown)."""
    for layer in layers:
        layer.stop()
