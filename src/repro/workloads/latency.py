"""Latency measurement.

:class:`LatencyProbe` attaches to stacks' deliver streams and computes
end-to-end latency from the :class:`~repro.workloads.generator.Payload`
timestamps — for every (message, receiver) pair, like the paper's
"message latency".  A warmup horizon excludes start-of-run transients
(token injection, first NAK timers) from the statistics.

It also tracks, per process, the largest gap between consecutive
deliveries — the "perceived hiccup" §7 uses to discuss switching
overhead.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from ..runtime.api import Clock
from ..sim.monitor import Summary
from ..stack.message import Message
from .generator import Payload

__all__ = ["LatencyProbe"]


class LatencyProbe:
    """Collects delivery latency and inter-delivery gaps.

    Args:
        clock: the runtime clock latencies are measured against.
        warmup: horizon before which samples are ignored.
        sink: optional callable invoked once per delivery with the
            measured latency (``None`` for control/view payloads,
            which carry no timestamp).  Lets a second consumer — the
            telemetry plane — ride the probe's single per-delivery
            latency computation instead of duplicating it.
    """

    def __init__(
        self,
        clock: Clock,
        warmup: float = 0.0,
        sink: Optional[Callable[[Optional[float]], None]] = None,
    ) -> None:
        self.clock = clock
        self.warmup = warmup
        self.sink = sink
        self.latency = Summary()
        self.deliveries = 0
        self.ignored = 0
        self._last_delivery_at: Dict[int, float] = {}
        self.max_gap: float = 0.0
        self.max_gap_at: Optional[float] = None
        self.max_gap_process: Optional[int] = None

    def attach(self, stack) -> None:
        """Hook one stack's deliver stream."""
        rank = stack.rank
        stack.on_deliver(lambda msg, rank=rank: self.observe(rank, msg))

    def attach_all(self, stacks) -> None:
        """Hook every stack of a rank -> stack mapping."""
        for stack in stacks.values():
            self.attach(stack)

    def observe(self, rank: int, msg: Message) -> None:
        """Record one delivery at ``rank`` (hooked via attach)."""
        now = self.clock.now
        body = Payload.read(msg.body)
        sink = self.sink
        if body is None:
            if sink is not None:
                sink(None)
            return  # control/view payloads are not workload messages
        last = self._last_delivery_at.get(rank)
        if last is not None:
            gap = now - last
            if gap > self.max_gap and last >= self.warmup:
                self.max_gap = gap
                self.max_gap_at = now
                self.max_gap_process = rank
        self._last_delivery_at[rank] = now
        latency = now - body.sent_at
        if sink is not None:
            sink(latency)
        if body.sent_at < self.warmup:
            self.ignored += 1
            return
        self.deliveries += 1
        self.latency.observe(latency)

    # ------------------------------------------------------------------
    @property
    def mean_ms(self) -> float:
        return self.latency.mean * 1e3

    @property
    def median_ms(self) -> float:
        return self.latency.median * 1e3

    def quantile_ms(self, q: float) -> float:
        """Exact latency quantile, in milliseconds."""
        return self.latency.quantile(q) * 1e3
