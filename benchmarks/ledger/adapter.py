"""The only file in the benchmark that imports ``repro``.

It builds each :class:`~workloads.Workload` from names the packages
export in their ``__all__`` (README lists them), and exposes the running
system as a :class:`World`: cast, observe deliveries, request switches,
read the layers' public counters.  A refactor that moves one of the
imported names keeps a re-export until a ``benchmark`` PR updates this
file.
"""

from __future__ import annotations

import errno
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core import (
    FaultToleranceConfig,
    ProtocolSpec,
    ResilientTokenSwitchProtocol,
    SwitchableStack,
    SwitchCore,
    TokenSwitchProtocol,
    build_group_handle,
)
from repro.core.oracle import FleetOracle, RateMeter
from repro.fleet import GroupManager
from repro.net import (
    EthernetNetwork,
    FaultPlan,
    LatencyMatrix,
    PointToPointNetwork,
)
from repro.net.codec import WireCodec
from repro.net.udp import UdpNetwork
from repro.obs import Bus
from repro.obs.telemetry import TelemetryConfig, TelemetryPlane
from repro.protocols import ReliableLayer, SequencerLayer, TokenRingLayer
from repro.runtime import AsyncioRuntime, SimRuntime
from repro.sim import RandomStreams
from repro.stack import Group, Message, MuxChannel

from .workloads import BODY_SIZE, SLOTS, Workload

PTP_LATENCY = 1e-3
PORT_FLOOR = 20000
PORT_RANGES = 600  # ranges of PORT_STRIDE ports above PORT_FLOOR
PORT_STRIDE = 64
BIND_ATTEMPTS = 8

# Where a span's time is booked when the traced callable is a timer
# callback: the layer that owns the module the callback was defined in.
MODULE_LAYERS = {
    "repro.sim": "engine",
    "repro.runtime": "aio",
    "repro.net.ptp": "net_ptp",
    "repro.net.faults": "net_ptp",
    "repro.net.ethernet": "net_ether",
    "repro.net.udp": "net_udp",
    "repro.net.codec": "codec",
    "repro.stack.multiplex": "mux",
    "repro.stack.transport": "mux",
    "repro.fleet.port": "mux",
    "repro.stack.message": "msg",
    "repro.stack.layer": "msg",
    "repro.protocols.sequencer": "seqr",
    "repro.protocols.tokenring": "tring",
    "repro.protocols.reliable": "rel",
    "repro.core.oracle": "oracle",
    "repro.fleet.manager": "oracle",
    "repro.core": "sp",
    "repro.obs": "obs",
}


class Hooks:
    """What a traced run substitutes; the untraced run uses these as is."""

    tracing = False
    sim_runtime = SimRuntime
    aio_runtime = AsyncioRuntime
    codec = WireCodec

    def wrap(self, layer: str, fn: Callable, message_at: Optional[int] = None) -> Callable:
        """``fn`` as a span of ``layer``; argument ``message_at`` is the
        message (or packet) the call carries, if any."""
        return fn


def trace_points() -> List[Tuple[str, type, str, Optional[int]]]:
    """``(layer, class, method, message_at)`` for every boundary a traced
    run wraps at class level, before the workload is built."""
    points: List[Tuple[str, type, str, Optional[int]]] = []
    for layer, cls in (
        ("seqr", SequencerLayer),
        ("tring", TokenRingLayer),
        ("rel", ReliableLayer),
    ):
        points.append((layer, cls, "send", 1))
        points.append((layer, cls, "receive", 1))
    points.append(("mux", MuxChannel, "send", 1))
    points.append(("sp", SwitchableStack, "cast", None))
    points.append(("sp", SwitchCore, "app_send", 1))
    points.append(("sp", SwitchCore, "slot_deliver", 2))
    # Booked apart from the rest of ``sp`` so token hops can be counted.
    points.append(("sp_token", TokenSwitchProtocol, "control_receive", None))
    points.append(("sp_token", ResilientTokenSwitchProtocol, "control_receive", None))
    points.append(("sp", TokenSwitchProtocol, "request_switch", None))
    points.append(("oracle", GroupManager, "poll_oracle", None))
    for method in ("with_header", "without_header", "with_dest"):
        points.append(("msg", Message, method, None))
    for method in ("count", "observe", "gauge", "emit"):
        points.append(("obs", Bus, method, None))
    for method in ("roll", "snapshot", "prometheus"):
        points.append(("obs", TelemetryPlane, method, None))
    return points


class World:
    """One built workload: the program plus the handles to drive it."""

    def __init__(self, workload: Workload, seed: int, hooks: Hooks) -> None:
        self.workload = workload
        self.seed = seed
        self.hooks = hooks
        self.streams = RandomStreams(seed)
        self.layers: Dict[str, List[Any]] = {"seqr": [], "tring": [], "rel": []}
        self.handles: List[Any] = []
        self.members: List[Tuple[int, ...]] = []
        self.manager: Optional[GroupManager] = None
        self.oracle: Optional[FleetOracle] = None
        self.bus: Optional[Bus] = None
        self.plane: Optional[TelemetryPlane] = None
        self.port_collisions = 0
        self._group_deliveries: List[int] = [0] * workload.groups
        self._cast_hooks: List[Callable[[], None]] = []
        self._delivery_hooks: List[Callable[[Optional[float]], None]] = []
        self.obs_ms: Dict[str, float] = {}

        if workload.runtime == "sim":
            self.runtime = hooks.sim_runtime()
        else:
            self.runtime = hooks.aio_runtime()
        self.network = self._build_network()
        if hooks.tracing:
            self._trace_attach()
        if workload.obs:
            self._build_obs()
        if workload.network == "udp" or workload.oracle_poll:
            self._build_fleet()
        else:
            self._build_single_group()
        if self.plane is not None:
            self._watch_groups()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build_network(self) -> Any:
        w = self.workload
        if w.network == "ptp":
            return PointToPointNetwork(
                self.runtime,
                w.nodes,
                latency=LatencyMatrix(w.nodes, PTP_LATENCY),
                faults=FaultPlan(
                    loss_rate=w.loss_rate, reorder_jitter=w.reorder_jitter
                ),
                rng=self.streams,
            )
        if w.network == "ether":
            return EthernetNetwork(self.runtime, w.nodes, rng=self.streams)
        return self._open_udp()

    def _open_udp(self) -> UdpNetwork:
        """Bind the node sockets on a probed port range; a collision moves
        to the next range and is counted."""
        w = self.workload
        first = (self.seed * 31 + sum(map(ord, w.name))) % PORT_RANGES
        for attempt in range(BIND_ATTEMPTS):
            base = PORT_FLOOR + ((first + attempt) % PORT_RANGES) * PORT_STRIDE
            network = UdpNetwork(
                self.runtime, w.nodes, base_port=base, codec=self.hooks.codec()
            )
            try:
                self.runtime.run_task(network.open())
            except OSError as exc:
                network.close()
                if exc.errno != errno.EADDRINUSE:
                    raise
                self.port_collisions += 1
                continue
            return network
        raise OSError(errno.EADDRINUSE, f"no free UDP port range after {BIND_ATTEMPTS} tries")

    def _trace_attach(self) -> None:
        """Traced runs only: route the receive callback handed to
        ``Network.attach``, and the endpoint it returns, through the hooks,
        so each packet is seen entering and leaving the network layer."""
        network, wrap = self.network, self.hooks.wrap
        attach, layer = network.attach, f"net_{self.workload.network}"

        def traced_attach(node: int, on_receive: Callable) -> Any:
            endpoint = attach(node, wrap("mux", on_receive, 0))
            endpoint.unicast = wrap(layer, endpoint.unicast, 1)
            endpoint.multicast = wrap(layer, endpoint.multicast, 1)
            return endpoint

        network.attach = traced_attach

    def _build_obs(self) -> None:
        """The wiring ``repro fleet --telemetry`` does: a metrics-only bus
        on the manager and the network, and a telemetry plane over it."""
        self.bus = Bus(clock=self.runtime, max_events=0)
        self.network.instrument(self.bus)
        self.plane = TelemetryPlane(self.runtime, self.bus, TelemetryConfig())

    def _specs(self, sequencer: Optional[int]) -> List[ProtocolSpec]:
        w = self.workload

        def slot(kind: str) -> List[Any]:
            if kind == "seqr":
                order = SequencerLayer(sequencer=sequencer, order_cost=w.order_cost)
            else:
                order = TokenRingLayer(hold_cost=w.hold_cost)
            self.layers[kind].append(order)
            layers = [order]
            if w.reliable:
                layers.append(self._reliable())
            return layers

        return [
            ProtocolSpec(SLOTS[0], lambda rank: slot("seqr")),
            ProtocolSpec(SLOTS[1], lambda rank: slot("tring")),
        ]

    def _reliable(self) -> ReliableLayer:
        layer = ReliableLayer()
        self.layers["rel"].append(layer)
        return layer

    def _control_factory(self) -> Callable[[int], List[Any]]:
        w = self.workload
        if w.fault_tolerant or (w.network == "ptp" and not w.loss_rate):
            # A bare control channel: the fault-tolerant SP rides out loss
            # on its own (as the chaos harness runs it), and the loss-free
            # simulated mesh needs no reliability (as the reference fleet
            # is run).
            return lambda rank: []
        return lambda rank: [self._reliable()]

    def _build_fleet(self) -> None:
        w = self.workload
        if w.oracle_poll:
            counts = self._group_deliveries
            self.oracle = FleetOracle(
                metric_factory=lambda gid: RateMeter(
                    lambda: self.runtime.now, lambda: counts[gid - 1]
                ),
                high_threshold=w.oracle_threshold,
                low_protocol=SLOTS[0],
                high_protocol=SLOTS[1],
            )
        self.manager = GroupManager(
            self.runtime, self.network, bus=self.bus, oracle=self.oracle
        )
        if self.plane is not None:
            if self.oracle is not None:
                self.plane.attach_oracle(self.oracle)
            self.plane.attach_manager(self.manager)
        for index in range(w.groups):
            start = (index * w.members) % w.nodes
            members = sorted((start + k) % w.nodes for k in range(w.members))
            sequencer = self.manager.assign_sequencer(members)
            handle = self.manager.create_group(
                members,
                self._specs(sequencer),
                initial=SLOTS[0],
                token_interval=w.token_interval,
                control_factory=self._control_factory(),
                streams=self.streams.fork(f"group{index}"),
            )
            self.handles.append(handle)
            self.members.append(tuple(handle.group.members))

    def _build_single_group(self) -> None:
        w = self.workload
        handle = build_group_handle(
            self.runtime,
            self.network,
            Group.of_size(w.members),
            self._specs(None),
            SLOTS[0],
            token_interval=w.token_interval,
            control_factory=self._control_factory(),
            streams=self.streams.fork("group0"),
            fault_tolerance=FaultToleranceConfig() if w.fault_tolerant else None,
        )
        self.handles.append(handle)
        self.members.append(tuple(handle.group.members))

    def _watch_groups(self) -> None:
        plane, wrap = self.plane, self.hooks.wrap
        for index, handle in enumerate(self.handles):
            gid = handle.group_id
            coordinator = handle.stacks[handle.group.coordinator]
            plane.watch_group(
                gid,
                members=len(handle.stacks),
                hot=self.workload.is_hot(index),
                protocol=lambda c=coordinator: c.current_protocol,
            )
            coordinator.core.on_switch_complete(
                lambda old, new, gid=gid: plane.note_switch(gid, old, new)
            )
            self._cast_hooks.append(wrap("obs", plane.cast_hook(gid)))
            self._delivery_hooks.append(wrap("obs", plane.delivery_hook(gid)))

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def sender_ranks(self, group: int) -> Tuple[int, ...]:
        """The members that cast: the highest ranks, so the coordinator (the
        default sequencer) pays no send-side cost unless all members send."""
        return self.members[group][-self.workload.senders:]

    def caster(self, group: int, rank: int) -> Callable[[bytes], Any]:
        cast = self.handles[group].stacks[rank].cast
        if not self._cast_hooks:
            return lambda body: cast(body, BODY_SIZE)
        note = self._cast_hooks[group]

        def cast_noted(body: bytes) -> Any:
            note()
            return cast(body, BODY_SIZE)

        return cast_noted

    def on_deliver(
        self,
        group: int,
        rank: int,
        sink: Callable[[Any], Optional[float]],
    ) -> None:
        """``sink(body)`` runs for every delivery at ``rank``; it returns the
        latency in seconds, which obs workloads forward to the plane."""
        counts = self._group_deliveries  # what the fleet oracle's rate meters read
        if self._delivery_hooks:
            note = self._delivery_hooks[group]

            def deliver(msg: Any) -> None:
                counts[group] += 1
                note(sink(msg.body))

        else:

            def deliver(msg: Any) -> None:
                counts[group] += 1
                sink(msg.body)

        self.handles[group].stacks[rank].on_deliver(deliver)

    def on_switch_complete(
        self, group: int, callback: Callable[[int, str, str], None]
    ) -> None:
        """``callback(rank, old, new)`` whenever a member finishes a switch."""
        for rank, stack in self.handles[group].stacks.items():
            stack.core.on_switch_complete(
                lambda old, new, rank=rank: callback(rank, old, new)
            )

    def on_switch_aborted(
        self, group: int, callback: Callable[[int], None]
    ) -> None:
        if not self.workload.fault_tolerant:
            return
        for rank, stack in self.handles[group].stacks.items():
            stack.on_switch_aborted(lambda outcome, rank=rank: callback(rank))

    def on_oracle_decision(self, callback: Callable[[int], None]) -> None:
        """``callback(group)`` for each escalation the oracle orders."""
        if self.oracle is None:
            return
        previous = self.oracle.on_decision

        def decided(record: Any) -> None:
            if previous is not None:
                previous(record)
            callback(record.group_id - 1)

        self.oracle.on_decision = decided

    def request_switch(self, group: int, target: str) -> None:
        self.handles[group].request_switch(target)

    def start(self) -> None:
        if self.manager is not None and self.oracle is not None:
            self.manager.start_oracle_polling(self.workload.oracle_poll)
        if self.plane is not None:
            self.plane.start()

    def finish(self) -> None:
        """Stop the control loops and, on obs workloads, render what a
        scrape renders."""
        if self.manager is not None and self.oracle is not None:
            self.manager.stop_oracle_polling()
        if self.plane is not None:
            self.plane.stop()
            self.plane.roll()
            for name in ("snapshot", "prometheus"):
                started = time.perf_counter()
                getattr(self.plane, name)()
                self.obs_ms[name] = (time.perf_counter() - started) * 1e3

    def close(self) -> None:
        if self.workload.runtime == "udp":
            self.runtime.close()

    # ------------------------------------------------------------------
    # Reading the program's public state
    # ------------------------------------------------------------------
    def protocols(self, group: int) -> Dict[int, str]:
        return dict(self.handles[group].current_protocols)

    def switching(self, group: int) -> List[int]:
        return [r for r, s in self.handles[group].stacks.items() if s.switching]

    def stuck_state(self, group: int) -> Dict[str, Any]:
        """Per-member switch state, for the stuck dump."""
        state = {}
        for rank, stack in self.handles[group].stacks.items():
            core = stack.core
            state[str(rank)] = {
                "current": core.current,
                "mode": core.mode.value,
                "old": core.old,
                "new": core.new,
                "vector": core.vector,
                "buffered": core.buffered_count,
                "pending_request": getattr(stack.protocol, "pending_request", None),
                "sp": stack.protocol.stats.as_dict(),
                "slots": {
                    name: {
                        type(layer).__name__: _depths(layer) for layer in slot.layers
                    }
                    for name, slot in core.slots.items()
                },
            }
        return state

    def counters(self) -> Dict[str, Dict[str, float]]:
        """Every public counter the per-layer metrics are computed from,
        summed over the instances of each layer."""
        out: Dict[str, Dict[str, float]] = {}
        for kind, layers in self.layers.items():
            out[kind] = _sum_stats(layer.stats for layer in layers)
        stacks = [s for h in self.handles for s in h.stacks.values()]
        out["core"] = _sum_stats(s.core.stats for s in stacks)
        out["sp"] = _sum_stats(s.protocol.stats for s in stacks)
        out["net"] = dict(self.network.stats.as_dict())
        if self.manager is not None:
            out["port"] = _sum_stats(p.stats for p in self.manager.ports.values())
        if self.oracle is not None:
            out["oracle"] = {"decisions": len(self.oracle.decisions)}
        runtime = self.runtime
        if self.workload.runtime == "sim":
            out["engine"] = {
                "events": runtime.events_processed,
                "pending": runtime.pending(),
            }
        if self.workload.network == "ether":
            out["medium"] = {"busy_s": self.network.medium.busy_time}
        if self.workload.network == "udp":
            out["codec"] = dict(self.network.codec.stats.as_dict())
        return out


def _sum_stats(counters: Any) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for counter in counters:
        for name, value in counter.as_dict().items():
            total[name] = total.get(name, 0) + value
    return total


def _depths(layer: Any) -> Dict[str, int]:
    return {
        name: getattr(layer, name)
        for name in ("holdback_size", "queued", "unstable_messages")
        if hasattr(layer, name)
    }
