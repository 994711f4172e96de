"""Idealized point-to-point network with fault injection.

Unlike the Ethernet model, this mesh has no shared resources: every copy
travels independently with a per-pair latency.  It is the workhorse for
protocol-*correctness* tests, where we want precise control over message
timing, loss, duplication, reordering, and partitions without queueing
effects muddying the picture.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Iterable, Optional, Tuple

from ..errors import NetworkError
from ..runtime.api import Runtime
from ..sim.rng import RandomStreams
from .base import Endpoint, Network
from .faults import FaultPlan
from .packet import Packet

__all__ = ["PointToPointNetwork", "LatencyMatrix"]


class LatencyMatrix:
    """One-way latency per ordered node pair, with a uniform default.

    Latency to self (loopback) defaults to one tenth of the base latency.
    """

    def __init__(self, num_nodes: int, base_latency: float = 1e-3) -> None:
        if base_latency < 0:
            raise NetworkError("base latency must be non-negative")
        self.num_nodes = num_nodes
        self.base_latency = base_latency
        self._overrides: Dict[Tuple[int, int], float] = {}

    def set(self, src: int, dst: int, latency: float) -> None:
        """Override the one-way latency for the ordered pair (src, dst)."""
        if latency < 0:
            raise NetworkError("latency must be non-negative")
        for node in (src, dst):
            if not 0 <= node < self.num_nodes:
                raise NetworkError(
                    f"node {node} out of range [0, {self.num_nodes})"
                )
        self._overrides[(src, dst)] = latency

    def set_symmetric(self, a: int, b: int, latency: float) -> None:
        """Override the latency in both directions between a and b."""
        self.set(a, b, latency)
        self.set(b, a, latency)

    def get(self, src: int, dst: int) -> float:
        """The one-way latency from src to dst."""
        override = self._overrides.get((src, dst))
        if override is not None:
            return override
        if src == dst:
            return self.base_latency / 10.0
        return self.base_latency

    def set_base(self, latency: float) -> None:
        """Retune the uniform base latency (pair overrides keep winning).

        Packets already in flight keep the delay they were scheduled
        with; only copies sent after the change see the new value — the
        scenario runner uses this to model link-quality drift mid-run.
        """
        if latency < 0:
            raise NetworkError("latency must be non-negative")
        self.base_latency = latency


class PointToPointNetwork(Network):
    """A fully connected mesh of independent links.

    Crash semantics (fail-silent): a crashed node — whether crashed by a
    scheduled :class:`~repro.net.faults.Crash` in the fault plan or
    dynamically via :meth:`fail_node` — neither transmits nor receives.
    Its protocol timers keep firing inside the process, but every copy it
    emits dies at the interface and every copy addressed to it is
    dropped, on loopback too.  :meth:`recover_node` rejoins it with
    whatever state it last had.
    """

    def __init__(
        self,
        runtime: Runtime,
        num_nodes: int,
        latency: Optional[LatencyMatrix] = None,
        faults: Optional[FaultPlan] = None,
        rng: Optional[RandomStreams] = None,
    ) -> None:
        super().__init__(runtime, num_nodes)
        self.latency = latency or LatencyMatrix(num_nodes)
        if self.latency.num_nodes != num_nodes:
            raise NetworkError("latency matrix size mismatch")
        self.faults = faults or FaultPlan()
        self._rng = (rng or RandomStreams(0)).stream("ptp")
        self._down: set = set()

    def _make_endpoint(self, node: int) -> "PtpEndpoint":
        return PtpEndpoint(self, node)

    def cpu_work(self, node: int, duration: float, then: Callable[[], None]) -> None:
        """Model protocol processing as a plain delay (no CPU contention)."""
        self._check_node(node)
        self.runtime.schedule(duration, then)

    def set_faults(self, plan: FaultPlan) -> None:
        """Swap the live fault plan (scenario phase transitions).

        Copies already in flight were decided under the old plan; every
        copy sent from now on is decided under ``plan``.  Dynamically
        crashed nodes (:meth:`fail_node`) stay down regardless.
        """
        self.faults = plan

    # ------------------------------------------------------------------
    # Dynamic crash / recovery (scriptable alongside FaultPlan.crashes)
    # ------------------------------------------------------------------
    def fail_node(self, node: int) -> None:
        """Crash ``node`` now (fail-silent).  Idempotent."""
        self._check_node(node)
        if node not in self._down:
            self._down.add(node)
            self.stats.incr("node_failures")

    def recover_node(self, node: int) -> None:
        """Bring a dynamically crashed ``node`` back up.  Idempotent."""
        self._check_node(node)
        if node in self._down:
            self._down.discard(node)
            self.stats.incr("node_recoveries")

    def node_alive(self, node: int) -> bool:
        """True if ``node`` is up right now (dynamic and scheduled crashes)."""
        self._check_node(node)
        return self._up(node, self.runtime.now)

    def _up(self, node: int, now: float) -> bool:
        return node not in self._down and self.faults.node_alive(node, now)

    @staticmethod
    def _channel_of(payload: object) -> Optional[int]:
        """The mux channel a wire payload travels on, if discernible."""
        header = getattr(payload, "header", None)
        if header is None:
            return None
        channel = header("mux")
        return channel if isinstance(channel, int) else None

    def _send_copy(
        self, src: int, dst: int, payload: object, size: int, group: int = 0
    ) -> None:
        """One copy's hop.  Unfaulted, it costs one ``schedule``, one
        :class:`Packet` and the counters: liveness is asked only while some
        node can be down, the plan only while it can touch a link, and the
        channel only for a plan that reads it.  The plan is read afresh for
        every copy, so :meth:`set_faults` and in-place edits take effect at
        once."""
        stats = self.stats
        stats.incr("sends")
        faults = self.faults
        now = self.runtime.now
        if (self._down or faults.crashes) and not (
            self._up(src, now) and self._up(dst, now)
        ):
            stats.incr("crash_drops")
            return
        delay = self.latency.get(src, dst)
        duplicates = 0
        # Loopback copies never traverse the faulty medium.
        if src != dst and faults.touches_links():
            channel = None
            if faults.channels is not None or faults.intercept is not None:
                channel = self._channel_of(payload)
            decision = faults.decide_live(
                self._rng, now, src, dst, channel, payload
            )
            if decision.drop:
                stats.incr("drops")
                return
            duplicates = decision.duplicates
            if duplicates:
                stats.incr("duplicates", duplicates)
            delay += decision.extra_delay
        arrive = partial(self._arrive, Packet(src, dst, payload, size, now, group))
        schedule = self.runtime.schedule
        schedule(delay, arrive)
        for __ in range(duplicates):
            schedule(delay, arrive)

    def _arrive(self, packet: Packet) -> None:
        dst = packet.dst
        if not self._attached[dst]:
            self.stats.incr("dead_letters")
            return
        if (self._down or self.faults.crashes) and not self._up(
            dst, self.runtime.now
        ):
            self.stats.incr("crash_drops")
            return
        self.stats.incr("deliveries")
        self._receivers[dst](packet)


class PtpEndpoint(Endpoint):
    """Send handle for a node on a :class:`PointToPointNetwork`."""

    network: PointToPointNetwork

    def unicast(
        self, dst: int, payload: object, size_bytes: int, group: int = 0
    ) -> None:
        self.network._check_node(dst)
        self.network._send_copy(self.node, dst, payload, size_bytes, group)

    def multicast(
        self,
        dsts: Iterable[int],
        payload: object,
        size_bytes: int,
        group: int = 0,
    ) -> None:
        network = self.network
        unique = dict.fromkeys(dsts)  # dedupe, keep order
        for dst in unique:
            network._check_node(dst)  # all of them, before any copy leaves
        for dst in unique:
            network._send_copy(self.node, dst, payload, size_bytes, group)
