"""Process stacks: application + layers over a node port, per process.

:class:`ProcessStack` assembles one process's protocol stack over a
network model and exposes the application-facing API the paper's model
assumes: ``cast`` submits a Send event at the top; registered deliver
callbacks observe Deliver events at the top.

:func:`build_group` instantiates the *same* stack at every member ("every
process is required to have the same stack of layers", §3).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence

from ..errors import StackError
from ..net.base import Network
from ..obs.bus import Bus, default_bus
from ..runtime.api import Runtime
from ..sim.rng import RandomStreams
from .layer import Layer, LayerContext, compose, start_layers
from .membership import Group
from .message import Message, MessageId
from .port import NodePort

__all__ = ["ProcessStack", "build_group"]

DeliverCallback = Callable[[Message], None]
SendCallback = Callable[[Message], None]

#: Default application payload size: 1 KB, matching the Figure 2 workload.
DEFAULT_BODY_SIZE = 1024


class ProcessStack:
    """One process's protocol stack.

    Args:
        runtime: the clock/timer runtime (simulated or real).
        port: this process's node port; the stack registers group 0 on it.
        group: the process group.
        rank: this process's rank.
        layers: top-to-bottom layer list (may be empty).
        streams: RNG streams for this process (derived from rank if None).
        bus: instrumentation bus shared by the run; defaults to the
            process-wide default (disabled unless the harness enabled it).
    """

    def __init__(
        self,
        runtime: Runtime,
        port: NodePort,
        group: Group,
        rank: int,
        layers: Sequence[Layer],
        streams: Optional[RandomStreams] = None,
        bus: Optional[Bus] = None,
    ) -> None:
        self.runtime = runtime
        self.group = group
        self.rank = rank
        self.layers = list(layers)
        self._deliver_callbacks: List[DeliverCallback] = []
        self._send_callbacks: List[SendCallback] = []

        cpu_work = getattr(port.network, "cpu_work", None)
        bound_cpu = None if cpu_work is None else partial(cpu_work, rank)
        self.ctx = LayerContext(
            runtime, group, rank, streams, cpu_work=bound_cpu, bus=bus
        )

        self.port = port
        self._top_send, bottom_receive = compose(
            self.layers, self.ctx, partial(port.send, 0), self._app_deliver
        )
        port.register(0, group, bottom_receive)
        start_layers(self.layers)

    # ------------------------------------------------------------------
    # Application API
    # ------------------------------------------------------------------
    def cast(self, body: Any, body_size: int = DEFAULT_BODY_SIZE) -> MessageId:
        """Multicast ``body`` to the whole group (a Send event).

        Returns the new message's id so callers can correlate deliveries.
        """
        msg = self.ctx.make_message(body, body_size)
        for callback in self._send_callbacks:
            callback(msg)
        self._top_send(msg)
        return msg.mid

    def on_deliver(self, callback: DeliverCallback) -> None:
        """Register an application deliver callback (may register many)."""
        self._deliver_callbacks.append(callback)

    def on_send(self, callback: SendCallback) -> None:
        """Register a hook observing Send events (used by trace recorders)."""
        self._send_callbacks.append(callback)

    def _app_deliver(self, msg: Message) -> None:
        for callback in self._deliver_callbacks:
            callback(msg)

    def can_send(self) -> bool:
        """True when every layer is willing to accept a send right now."""
        return all(layer.can_send() for layer in self.layers)

    def find_layer(self, layer_type: type) -> Any:
        """Fetch the first layer of the given type (testing/telemetry)."""
        for layer in self.layers:
            if isinstance(layer, layer_type):
                return layer
        raise StackError(f"no {layer_type.__name__} in stack of rank {self.rank}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = " | ".join(layer.name for layer in self.layers) or "direct"
        return f"<ProcessStack rank={self.rank} [{names}]>"


def build_group(
    runtime: Runtime,
    network: Network,
    group: Group,
    layer_factory: Callable[[int], Sequence[Layer]],
    streams: Optional[RandomStreams] = None,
    bus: Optional[Bus] = None,
) -> Dict[int, ProcessStack]:
    """Build one :class:`ProcessStack` per group member, each on a
    :class:`NodePort` of its own whose counters attach to ``bus``.

    ``layer_factory(rank)`` must return a *fresh* top-to-bottom layer list
    for each member — layers hold per-process state and cannot be shared.
    """
    master = streams or RandomStreams(0)
    obs = (bus if bus is not None else default_bus()).scoped(None)
    stacks: Dict[int, ProcessStack] = {}
    for rank in group:
        port = NodePort(network, rank)
        obs.attach("port", port.stats)
        stacks[rank] = ProcessStack(
            runtime,
            port,
            group,
            rank,
            layer_factory(rank),
            streams=master.fork(f"rank{rank}"),
            bus=bus,
        )
    return stacks
