"""One way to build a run.

Every runner in the tree — the switch demo, the scenario catalog, the
chaos harness, the fleet sweep, the §7 experiments, the preservation
scenarios — is the same five steps with its own script in the middle.
:class:`Session` owns the five steps and nothing else:

1. **bootstrap + lifecycle** — a runtime by name, one
   :class:`~repro.sim.rng.RandomStreams`, the network (point-to-point
   or shared Ethernet on ``sim``, real localhost UDP on ``asyncio``),
   bus clock and network instrumentation, and a context-manager exit
   that always closes the sockets and the loop;
2. **group build** — :meth:`Session.build` over the existing
   :func:`~repro.core.switchable.build_group_handle`, with
   :func:`total_order_specs` as the one sequencer + token-ring factory;
3. **recording** — one :class:`~repro.traces.recorder.TraceRecorder`
   over the group's application boundary, plus the slot every cast was
   sent on (:meth:`Session.record`), latency probes
   (:meth:`Session.probe`);
4. **load** — Poisson senders on named RNG streams, started in rank
   order, stopped at the horizon (:meth:`Session.load`,
   :meth:`Session.sender`, :meth:`Session.run`);
5. **settle + oracle** — :meth:`Session.settle` runs until the group
   converges; :meth:`Session.check_order` judges the recorded trace of
   the live members with the paper's own predicates:
   :class:`~repro.traces.properties.NoReplay` over the whole trace, and
   :class:`~repro.traces.properties.TotalOrder` over each slot's
   projection (:meth:`~repro.traces.trace.Trace.without_messages` of
   every message cast on another slot).  Protocol agreement is a
   convergence condition, not a trace property, and is checked as such.

**Why per slot.**  Total Order is judged per sending slot because that
is what the fault-tolerant SP guarantees: an aborted switch reverts the
members to the old protocol, and messages the two slots delivered
around the abort may interleave differently at different members.  Both
subordinate protocols stay totally ordered, so each slot's projection
must still satisfy Total Order.  The weakening is real: CI's blackbox
run (``repro chaos --seed 0 --duration 4 --control-loss 0.5 --crash
2:1.0:2.5``, 3 aborted switches) violates Total Order over the whole
trace.  The projection also hides the order split of a false suspicion
with no abort at all (seed 42, 4 s, 80 casts/s, control loss 0.2),
which the chaos harness reports as ``ChaosResult.total_order``.

What a runner adds is what is genuinely its own: phases and scoring,
a crash script, a group manager, an oracle policy, the properties it
judges beyond order and replay.

**Byte-identity contract.**  Pinned artifacts (``scenarios.json``, the
fleet artifacts, the Figure 2 fixture, ``harness_pins.json``) stay
byte-identical only while these hold:

* one ``RandomStreams(seed)`` is shared by the network and the group;
* stream names are unchanged: ``workload{rank}`` here,
  ``fleet_group_streams`` / ``fleet_sender_stream`` /
  ``figure2_cell_seed`` in :mod:`repro.sim.seeding`;
* per stack, ``on_deliver`` hooks register in the order *recording,
  probe, runner's own*, and senders ``start()`` in rank order — both
  fix same-instant tie-breaks in the engine.
"""

from __future__ import annotations

import random
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..core.switchable import (
    GroupHandle,
    ProtocolSpec,
    SwitchableStack,
    build_group_handle,
)
from ..net.ethernet import EthernetNetwork, EthernetParams
from ..net.faults import FaultPlan
from ..net.ptp import LatencyMatrix, PointToPointNetwork
from ..net.udp import DEFAULT_BASE_PORT, UdpNetwork
from ..obs.bus import Bus
from ..protocols.reliable import ReliableLayer
from ..protocols.sequencer import SequencerLayer
from ..protocols.tokenring import TokenRingLayer
from ..runtime import AsyncioRuntime, make_runtime
from ..sim.rng import RandomStreams
from ..stack.batching import BatchingLayer
from ..stack.layer import Layer
from ..stack.membership import Group
from ..traces.events import SendEvent
from ..traces.properties import NoReplay, TotalOrder
from ..traces.recorder import TraceRecorder
from ..traces.trace import Trace
from .generator import PoissonSender
from .latency import LatencyProbe

__all__ = ["Session", "total_order_specs"]


def total_order_specs(
    names: Sequence[str],
    reliable: bool = True,
    batch: Optional[Tuple[int, float]] = None,
    sequencer: Optional[int] = None,
    order_cost: float = 0.0,
    hold_cost: float = 0.0,
) -> List[ProtocolSpec]:
    """The sequencer slot and the token-ring slot, as ``names[0]`` and
    ``names[1]``.

    ``reliable`` puts NAK/retransmit under each order layer (a no-op on
    a loss-free mesh, real protection on UDP and under injected loss).
    ``batch`` = ``(max_batch, linger)`` tops each slot with a batching
    layer — above the order layer so a whole batch is ordered (and pays
    CPU) once, below the switching core so SP send counts stay
    per-message.
    """

    def slot(order_layer):
        def layers(rank: int) -> List[Layer]:
            stack: List[Layer] = [BatchingLayer(*batch)] if batch else []
            stack.append(order_layer())
            if reliable:
                stack.append(ReliableLayer())
            return stack

        return layers

    return [
        ProtocolSpec(
            names[0], slot(lambda: SequencerLayer(sequencer, order_cost))
        ),
        ProtocolSpec(
            names[1], slot(lambda: TokenRingLayer(hold_cost=hold_cost))
        ),
    ]


class Session:
    """Runtime + network + streams for one run; see the module docstring.

    Args:
        nodes: network size (a group may use fewer).
        seed: master seed of the run's single ``RandomStreams``.
        runtime: "sim" (virtual time) or "asyncio" (wall clock + UDP).
        latency: base one-way latency of the simulated mesh (sim only).
        faults: fault plan of the simulated mesh (sim only).
        ethernet: model a shared Ethernet segment with these parameters
            instead of the point-to-point mesh (sim only).
        base_port: first UDP port (asyncio only).
        bus: instrumentation bus; clocked by this run's runtime and fed
            by its network.
    """

    def __init__(
        self,
        nodes: int,
        seed: int,
        runtime: str = "sim",
        latency: float = 1e-3,
        faults: Optional[FaultPlan] = None,
        ethernet: Optional[EthernetParams] = None,
        base_port: int = DEFAULT_BASE_PORT,
        bus: Optional[Bus] = None,
    ) -> None:
        self.runtime = make_runtime(runtime)
        self.streams = RandomStreams(seed)
        self.bus = bus
        self.senders: List[PoissonSender] = []
        self.stacks: Dict[int, SwitchableStack] = {}
        self.recorder = TraceRecorder(self.runtime)
        self.cast_slot: Dict[tuple, str] = {}
        self._alive = lambda rank: True
        if bus is not None:
            bus.clock = self.runtime
        try:
            if isinstance(self.runtime, AsyncioRuntime):
                self.network = UdpNetwork(
                    self.runtime, nodes, base_port=base_port
                )
                self.runtime.run_task(self.network.open())
            elif ethernet is not None:
                self.network = EthernetNetwork(
                    self.runtime, nodes, ethernet, rng=self.streams
                )
            else:
                self.network = PointToPointNetwork(
                    self.runtime,
                    nodes,
                    latency=LatencyMatrix(nodes, latency),
                    faults=faults,
                    rng=self.streams,
                )
                self._alive = self.network.node_alive
            if bus is not None:
                self.network.instrument(bus)
        except BaseException:
            self.close()
            raise

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Release the sockets and the loop (a no-op on ``sim``)."""
        if isinstance(self.runtime, AsyncioRuntime):
            self.runtime.close()

    # ------------------------------------------------------------------
    # Group build + recording
    # ------------------------------------------------------------------
    def build(
        self,
        group: Group,
        specs: Sequence[ProtocolSpec],
        initial: str,
        **switching,
    ) -> GroupHandle:
        """One switching group on this run's network, streams and bus;
        ``switching`` passes through to ``build_group_handle``."""
        return build_group_handle(
            self.runtime,
            self.network,
            group,
            specs,
            initial,
            streams=self.streams,
            bus=self.bus,
            **switching,
        )

    def record(self, stacks: Dict[int, SwitchableStack]) -> TraceRecorder:
        """Record the group's Send and Deliver events, and every cast's
        sending slot — the evidence :meth:`settle` and
        :meth:`check_order` read.  Returns the run's recorder."""
        self.stacks = stacks
        self.recorder.attach_all(stacks)
        for stack in stacks.values():
            stack.on_send(
                lambda msg, stack=stack: self.cast_slot.__setitem__(
                    msg.mid, stack.core.send_slot
                )
            )
        return self.recorder

    def probe(self, warmup: float, sink=None) -> LatencyProbe:
        """An unattached latency probe on this run's clock."""
        return LatencyProbe(self.runtime, warmup=warmup, sink=sink)

    # ------------------------------------------------------------------
    # Load
    # ------------------------------------------------------------------
    def sender(
        self,
        stack,
        rate: float,
        rng: Optional[random.Random] = None,
        **window,
    ) -> PoissonSender:
        """One Poisson source on ``stack`` — not started; :meth:`run`
        stops it.  The default stream is ``workload{rank}``; ``window``
        is the sender's ``body_size`` / ``start`` / ``stop``."""
        if rng is None:
            rng = self.streams.stream(f"workload{stack.rank}")
        sender = PoissonSender(
            self.runtime, stack, rate=rate, rng=rng, **window
        )
        self.senders.append(sender)
        return sender

    def load(self, stacks: Iterable, rate: float, body_size: int) -> None:
        """Start one ``workload{rank}`` sender per stack, in the order
        given (rank order: it fixes same-instant tie-breaks)."""
        for stack in stacks:
            self.sender(stack, rate, body_size=body_size).start()

    def run(self, horizon: float) -> None:
        """Drive the run to ``horizon``, then stop the load."""
        self.runtime.run_until(horizon)
        for sender in self.senders:
            sender.stop()

    # ------------------------------------------------------------------
    # Settle + order oracle (over the recorded group)
    # ------------------------------------------------------------------
    def settle(self, windows: int, window: float) -> Tuple[float, List[str]]:
        """Run settle windows until the members whose node is up are
        quiescent and agree; returns ``(settled_at, violations)``."""
        stacks = self.stacks
        settled_at = self.runtime.now
        for __ in range(windows):
            # Run the window first: even a converged group still has
            # casts in flight at the horizon that must land before the
            # oracle runs.
            self.runtime.run_for(window)
            settled_at = self.runtime.now
            up = [s for rank, s in stacks.items() if self._alive(rank)]
            if not any(s.switching for s in up) and (
                len({s.current_protocol for s in up}) == 1
            ):
                return settled_at, []
        return settled_at, [
            f"group did not converge within {windows} settle windows "
            f"(still switching: "
            f"{[rank for rank, s in stacks.items() if s.switching]})"
        ]

    def trace(self, live: Sequence[int]) -> Trace:
        """The recorded trace cut to the ``live`` members: every Send,
        and the Delivers at ``live``."""
        keep = set(live)
        return Trace(
            event
            for event in self.recorder.trace()
            if isinstance(event, SendEvent) or event.process in keep
        )

    def delivered(self, live: Sequence[int]) -> Dict[int, int]:
        """Deliveries per ``live`` member, read from the trace."""
        trace = self.recorder.trace()
        return {rank: len(trace.delivers_at(rank)) for rank in live}

    def check_order(
        self, live: Sequence[int]
    ) -> Tuple[Dict[int, str], List[str]]:
        """The correctness oracle over the ``live`` members: protocol
        agreement, No Replay, and Total Order per sending slot.  Each
        property's violation reads ``"<name>: <explain>"``.  Returns
        ``(final_protocols, violations)``."""
        finals = {rank: self.stacks[rank].current_protocol for rank in live}
        violations: List[str] = []
        if len(set(finals.values())) > 1:
            violations.append(f"members disagree on the protocol: {finals}")
        trace = self.trace(live)
        verdicts = [(NoReplay(), trace, "")]
        for slot in next(iter(self.stacks.values())).core.slots:
            other = [e.mid for e in trace if self.cast_slot.get(e.mid) != slot]
            projection = trace.without_messages(other)
            verdicts.append((TotalOrder(), projection, f" (slot {slot!r})"))
        for prop, judged, where in verdicts:
            note = prop.explain(judged)
            if note is not None:
                violations.append(f"{prop.name}: {note}{where}")
        return finals, violations
