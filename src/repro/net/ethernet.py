"""Shared-medium Ethernet model with host CPU queues.

This is the stand-in for the paper's testbed: ten SparcStation-20s running
Solaris on a 10 Mbit shared Ethernet (§7).  The model captures the three
effects that shape Figure 2:

1. **Host CPU service time.**  Mid-90s workstations running a user-level
   protocol stack spend on the order of a millisecond of CPU per packet
   sent or received.  Each host has a FIFO CPU queue: packet sends and
   receives are serialized through it, so a host that handles many packets
   (the sequencer!) builds a queue and its latency grows with load.
   The receivers whose CPUs finish one frame at the same instant share
   one completion event; a host still busy when the frame lands gets
   its own, later one.
2. **Wire serialization.**  The 10 Mbit medium is a single shared resource;
   a 1 KB frame occupies it for ~0.8 ms.  Transmissions queue FIFO for the
   medium (an adequate stand-in for CSMA/CD under the moderate loads of
   the experiments).
3. **Hardware multicast.**  One transmission is heard by every receiver,
   so a multicast costs one wire slot regardless of fan-out.

Hosts may also request bare CPU work via :meth:`EthernetNetwork.cpu_work`;
protocol layers use this to model per-message protocol processing (e.g.
the sequencer's ordering work) that queues behind packet handling.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional

from ..errors import NetworkError
from ..runtime.api import Runtime
from ..sim.rng import RandomStreams
from .base import Endpoint, Network
from .packet import Packet

__all__ = ["EthernetParams", "EthernetNetwork", "HostCpu", "SharedMedium"]


@dataclass
class EthernetParams:
    """Tunable parameters of the Ethernet model.

    Defaults approximate the paper's testbed; the Figure 2 benchmark
    documents its exact calibration in EXPERIMENTS.md.

    Attributes:
        bandwidth_bps: shared medium bandwidth (10 Mbit/s).
        propagation: one-way propagation + interrupt latency, seconds.
        cpu_send: host CPU time to push one packet down to the NIC.
        cpu_recv: host CPU time to take one packet from the NIC to the app.
        loss_rate: independent per-receiver drop probability in [0, 1).
        jitter: uniform extra delay in [0, jitter] added per delivered copy,
            modelling scheduling noise on the receiving host.
    """

    bandwidth_bps: float = 10e6
    propagation: float = 100e-6
    cpu_send: float = 0.8e-3
    cpu_recv: float = 0.8e-3
    loss_rate: float = 0.0
    jitter: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise NetworkError("bandwidth must be positive")
        if not 0.0 <= self.loss_rate < 1.0:
            raise NetworkError(f"loss_rate must be in [0, 1), got {self.loss_rate}")
        for name in ("propagation", "cpu_send", "cpu_recv", "jitter"):
            if getattr(self, name) < 0:
                raise NetworkError(f"{name} must be non-negative")

    def serialization(self, size_bytes: int) -> float:
        """Time a frame of ``size_bytes`` occupies the medium."""
        return size_bytes * 8 / self.bandwidth_bps


class HostCpu:
    """A FIFO single-server queue modelling one host's processor.

    ``reserve(duration)`` books ``duration`` seconds of work and returns
    the instant it completes; ``run(duration, then)`` is ``reserve`` plus
    a timer that fires ``then`` at that instant.  Work is processed in
    submission order, one piece at a time — this is what makes the
    sequencer saturate.
    """

    def __init__(self, runtime: Runtime, node: int) -> None:
        self.runtime = runtime
        self.node = node
        self._busy_until = 0.0
        self.busy_time = 0.0

    def reserve(self, duration: float) -> float:
        """Book ``duration`` seconds of CPU work; returns completion time.

        Nothing is scheduled: the caller arms whatever fires at the
        returned instant (the Ethernet model shares one timer among the
        receivers of a frame that finish it together).  Zero-duration
        work does not queue: it completes at the current instant
        (modelling work handled off the protocol-processing path),
        keeping zero-cost configurations free of artificial
        serialization.
        """
        if duration < 0:
            raise NetworkError(f"negative CPU work: {duration}")
        now = self.runtime.now
        if duration == 0:
            return now
        done = max(now, self._busy_until) + duration
        self._busy_until = done
        self.busy_time += duration
        return done

    def run(self, duration: float, then: Callable[[], None]) -> float:
        """Queue ``duration`` seconds of CPU work; ``then`` fires when it
        completes.  Returns the completion time (see :meth:`reserve`)."""
        done = self.reserve(duration)
        self.runtime.schedule_at(done, then)
        return done

    @property
    def backlog(self) -> float:
        """Seconds of queued work not yet completed."""
        return max(0.0, self._busy_until - self.runtime.now)

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds spent busy (cumulative)."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class SharedMedium:
    """The single shared wire: a FIFO single-server queue of transmissions."""

    def __init__(self, runtime: Runtime) -> None:
        self.runtime = runtime
        self._busy_until = 0.0
        self.busy_time = 0.0
        self.transmissions = 0

    def transmit(self, duration: float, then: Callable[[], None]) -> float:
        """Occupy the medium for ``duration``; ``then`` fires at frame end."""
        start = max(self.runtime.now, self._busy_until)
        done = start + duration
        self._busy_until = done
        self.busy_time += duration
        self.transmissions += 1
        self.runtime.schedule_at(done, then)
        return done

    def utilization(self, elapsed: float) -> float:
        """Fraction of ``elapsed`` seconds the medium was busy."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_time / elapsed)


class EthernetNetwork(Network):
    """A group of hosts on one shared Ethernet segment."""

    def __init__(
        self,
        runtime: Runtime,
        num_nodes: int,
        params: Optional[EthernetParams] = None,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(runtime, num_nodes)
        self.params = params or EthernetParams()
        self._rng = (rng or RandomStreams(0)).stream("ethernet")
        self.medium = SharedMedium(runtime)
        self.cpus: List[HostCpu] = [HostCpu(runtime, n) for n in range(num_nodes)]
        self._sniffers: List[Callable[[Packet], None]] = []

    def _make_endpoint(self, node: int) -> "EthernetEndpoint":
        return EthernetEndpoint(self, node)

    # ------------------------------------------------------------------
    # CPU work API for protocol layers
    # ------------------------------------------------------------------
    def cpu_work(self, node: int, duration: float, then: Callable[[], None]) -> None:
        """Queue protocol-processing CPU work on ``node``'s processor."""
        self._check_node(node)
        self.cpus[node].run(duration, then)

    # ------------------------------------------------------------------
    # Promiscuous mode
    # ------------------------------------------------------------------
    def attach_sniffer(self, callback: Callable[[Packet], None]) -> None:
        """Register an eavesdropper that sees every frame on the wire.

        A shared Ethernet segment is a broadcast medium: any attached NIC
        in promiscuous mode receives every transmission regardless of its
        destination.  Sniffers get one callback per frame (the ``dst`` of
        the packet they see is the frame's first addressee), at the
        moment the frame leaves the wire.  This is the threat model the
        Confidentiality property defends against.
        """
        self._sniffers.append(callback)

    # ------------------------------------------------------------------
    # Transmission pipeline
    # ------------------------------------------------------------------
    def _send(
        self,
        src: int,
        dsts: List[int],
        payload: object,
        size: int,
        group: int = 0,
    ) -> None:
        """Full pipeline: src CPU -> wire -> per-dst (loss, prop, dst CPU)."""
        params = self.params
        sent_at = self.runtime.now
        self.stats.incr("sends")

        remote = [d for d in dsts if d != src]
        loop_local = src in dsts

        def after_src_cpu() -> None:
            if loop_local:
                # Loopback copies skip the wire entirely.
                self._schedule_receive(
                    [Packet(src, src, payload, size, sent_at, group)], 0.0
                )
            if not remote:
                return
            self.medium.transmit(
                params.serialization(size),
                lambda: self._after_wire(
                    src, remote, payload, size, sent_at, group
                ),
            )

        self.cpus[src].run(params.cpu_send, after_src_cpu)

    def _after_wire(
        self,
        src: int,
        dsts: List[int],
        payload: object,
        size: int,
        sent_at: float,
        group: int = 0,
    ) -> None:
        params = self.params
        for sniffer in self._sniffers:
            sniffer(Packet(src, dsts[0], payload, size, sent_at, group))
        # Without jitter every surviving copy of the frame reaches its NIC
        # at the same instant, so they share one arrival event.  (One event
        # per receiver would carry consecutive sequence numbers at that
        # instant: nothing could fire between them, so this is the same
        # firing order with fewer events.)
        together: List[Packet] = []
        for dst in dsts:
            if not self._attached[dst]:
                continue
            if params.loss_rate and self._rng.random() < params.loss_rate:
                self.stats.incr("drops")
                continue
            packet = Packet(src, dst, payload, size, sent_at, group)
            if params.jitter:
                self._schedule_receive(
                    [packet], params.propagation + params.jitter * self._rng.random()
                )
            else:
                together.append(packet)
        if together:
            self._schedule_receive(together, params.propagation)

    def _schedule_receive(self, packets: List[Packet], delay: float) -> None:
        """After ``delay``, queue each packet on its destination's CPU.

        Receivers whose CPUs finish the packets at the same instant share
        one delivery event.  Every completion one arrival books would
        otherwise get a consecutive sequence number, so same-instant ones
        sit next to each other in ``(time, seq)`` order and nothing can
        fire between them: one event per distinct instant, delivering in
        packet order, fires the same deliveries in the same order.
        """

        def arrive() -> None:
            cpu_recv = self.params.cpu_recv
            cpus = self.cpus
            batches: Dict[float, List[Packet]] = {}
            for packet in packets:
                done = cpus[packet.dst].reserve(cpu_recv)
                batch = batches.get(done)
                if batch is None:
                    batches[done] = [packet]
                else:
                    batch.append(packet)
            schedule_at = self.runtime.schedule_at
            for done, batch in batches.items():
                schedule_at(done, partial(self._deliver_batch, batch))

        if delay > 0:
            self.runtime.schedule(delay, arrive)
        else:
            arrive()

    def _deliver_batch(self, packets: List[Packet]) -> None:
        # Counted here — after propagation and the dst CPU queue — so the
        # delivery counters agree with traces even under backlog.  A
        # receiver that raises (its node detached while the copy was
        # queued) ends the batch: the rest of it is not delivered.
        stats = self.stats
        receivers = self._receivers
        for packet in packets:
            stats.incr("deliveries")
            receivers[packet.dst](packet)


class EthernetEndpoint(Endpoint):
    """Send handle for a host on an :class:`EthernetNetwork`."""

    network: EthernetNetwork

    def unicast(
        self, dst: int, payload: object, size_bytes: int, group: int = 0
    ) -> None:
        self.network._check_node(dst)
        self.network._send(self.node, [dst], payload, size_bytes, group)

    def multicast(
        self,
        dsts: Iterable[int],
        payload: object,
        size_bytes: int,
        group: int = 0,
    ) -> None:
        dst_list = list(dict.fromkeys(dsts))  # dedupe, keep order
        for dst in dst_list:
            self.network._check_node(dst)
        if not dst_list:
            return
        self.network._send(self.node, dst_list, payload, size_bytes, group)
