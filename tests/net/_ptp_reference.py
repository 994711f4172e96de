"""Frozen pre-rewrite hop path of the point-to-point network.

``_send_copy``, ``_arrive``, ``node_alive`` and ``FaultPlan.decide`` as
they stood before the per-copy overhead was stripped out: liveness asked
five times a copy, the mux channel resolved for every copy, a fresh
``FaultDecision`` per verdict, one closure per scheduled arrival.  Kept
verbatim (only ``self.faults.decide`` became the module-level
:func:`reference_decide`) so ``test_ptp_differential.py`` can replay one
script on both and demand the same arrivals, counters and RNG state.

Do not "fix" or optimize this file — its value is that it does not move.
"""

from __future__ import annotations

import random
from typing import Optional

from repro.net.faults import FaultDecision, FaultPlan
from repro.net.packet import Packet
from repro.net.ptp import PointToPointNetwork


def reference_node_alive(plan: FaultPlan, node: int, time: float) -> bool:
    return not any(c.node == node and c.down_at(time) for c in plan.crashes)


def reference_decide(
    plan: FaultPlan,
    rng: random.Random,
    time: float,
    src: int,
    dst: int,
    channel: Optional[int] = None,
    payload: object = None,
) -> FaultDecision:
    if not reference_node_alive(plan, src, time) or not reference_node_alive(
        plan, dst, time
    ):
        return FaultDecision(drop=True)
    if plan.intercept is not None:
        verdict = plan.intercept(time, src, dst, channel, payload)
        if verdict is not None:
            return verdict
    for partition in plan.partitions:
        if partition.active_at(time) and not partition.allows(src, dst):
            return FaultDecision(drop=True)
    if plan.channels is not None and channel not in plan.channels:
        return FaultDecision()
    loss, dup, jitter = plan._rates(src, dst)
    if loss and rng.random() < loss:
        return FaultDecision(drop=True)
    duplicates = 0
    if dup and rng.random() < dup:
        duplicates = 1
    extra = rng.random() * jitter if jitter else 0.0
    return FaultDecision(duplicates=duplicates, extra_delay=extra)


class ReferencePtpNetwork(PointToPointNetwork):
    """:class:`PointToPointNetwork` with the frozen hop path."""

    def node_alive(self, node: int) -> bool:
        self._check_node(node)
        return node not in self._down and reference_node_alive(
            self.faults, node, self.runtime.now
        )

    def _send_copy(
        self, src: int, dst: int, payload: object, size: int, group: int = 0
    ) -> None:
        self.stats.incr("sends")
        if not self.node_alive(src) or not self.node_alive(dst):
            self.stats.incr("crash_drops")
            return
        if src == dst:
            # Loopback copies never traverse the faulty medium.
            packet = Packet(src, dst, payload, size, self.runtime.now, group)
            self.runtime.schedule(self.latency.get(src, dst), lambda: self._arrive(packet))
            return
        decision = reference_decide(
            self.faults,
            self._rng,
            self.runtime.now,
            src,
            dst,
            channel=self._channel_of(payload),
            payload=payload,
        )
        if decision.drop:
            self.stats.incr("drops")
            return
        packet = Packet(src, dst, payload, size, self.runtime.now, group)
        copies = 1 + decision.duplicates
        if decision.duplicates:
            self.stats.incr("duplicates", decision.duplicates)
        for __ in range(copies):
            delay = self.latency.get(src, dst) + decision.extra_delay
            self.runtime.schedule(delay, lambda p=packet: self._arrive(p))

    def _arrive(self, packet: Packet) -> None:
        if not self._attached[packet.dst]:
            self.stats.incr("dead_letters")
            return
        if not self.node_alive(packet.dst):
            self.stats.incr("crash_drops")
            return
        self.stats.incr("deliveries")
        self._deliver(packet)
