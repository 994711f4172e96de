"""Workload generators.

The §7 experiment: "A subgroup of varying size is sending 50 messages per
second per member."  :class:`PoissonSender` models one such member with
exponentially distributed inter-send gaps (the randomness is what gives
the latency curves their queueing-theoretic shape);
:class:`UniformSender` sends at fixed intervals for tests that need
determinism.

Payloads are :class:`Payload` tuples carrying the send timestamp, so any
receiver can compute end-to-end latency without a side channel.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Any, NamedTuple, Optional

from ..errors import ReproError
from ..runtime.api import Scheduler

__all__ = ["Payload", "PoissonSender", "UniformSender"]


class Payload(NamedTuple):
    """Application payload with latency bookkeeping.

    Plain data: behind a socket it arrives as the bare 3-tuple, which
    :meth:`read` recognises.
    """

    origin: int
    seq: int
    sent_at: float

    @classmethod
    def read(cls, body: Any) -> Optional["Payload"]:
        """``body`` as a payload, or ``None`` if it is not one."""
        if type(body) is cls:
            return body
        if type(body) is tuple and tuple(map(type, body)) == (int, int, float):
            return cls(*body)
        return None


class _SenderBase:
    """Common machinery: start/stop, sequence numbers, respect for
    back-pressure (``can_send`` — keeps Amoeba-style stacks honest)."""

    def __init__(
        self,
        runtime: Scheduler,
        stack,
        body_size: int = 1024,
        start: float = 0.0,
        stop: Optional[float] = None,
        respect_backpressure: bool = False,
    ) -> None:
        self.runtime = runtime
        self.stack = stack
        self.body_size = body_size
        self.start_at = start
        self.stop_at = stop
        self.respect_backpressure = respect_backpressure
        self.sent = 0
        self.skipped = 0
        self._active = False
        # Each start() begins a new timer chain; a _fire from an older
        # chain (stopped and restarted within one gap) finds the epoch
        # moved on and ends.
        self._epoch = 0

    def start(self) -> None:
        if self._active:
            return
        self._active = True
        self._epoch += 1
        self._chain = partial(self._fire, self._epoch)
        delay = max(0.0, self.start_at - self.runtime.now) + self._next_gap()
        self.runtime.schedule(delay, self._chain)

    def stop(self) -> None:
        self._active = False
        self._epoch += 1

    @property
    def active(self) -> bool:
        return self._active

    def _fire(self, epoch: int) -> None:
        if epoch != self._epoch:
            return
        if self.stop_at is not None and self.runtime.now >= self.stop_at:
            self._active = False
            return
        if self.respect_backpressure and not self.stack.can_send():
            self.skipped += 1
        else:
            payload = Payload(self.stack.rank, self.sent, self.runtime.now)
            self.stack.cast(payload, self.body_size)
            self.sent += 1
        self.runtime.schedule(self._next_gap(), self._chain)

    def _next_gap(self) -> float:  # pragma: no cover - overridden
        raise NotImplementedError


class PoissonSender(_SenderBase):
    """Sends at ``rate`` messages/second with exponential gaps."""

    def __init__(
        self,
        runtime: Scheduler,
        stack,
        rate: float,
        rng: random.Random,
        **kwargs,
    ) -> None:
        if rate <= 0:
            raise ReproError(f"rate must be positive, got {rate}")
        super().__init__(runtime, stack, **kwargs)
        self.rate = rate
        self.rng = rng

    def retune(self, rate: float) -> None:
        """Change the send rate; takes effect from the next gap drawn.

        The already-armed gap keeps its old length (one-shot timers are
        not re-armed), which is exactly the behaviour a rate drift
        scenario wants: load changes, in-flight decisions do not.
        """
        if rate <= 0:
            raise ReproError(f"rate must be positive, got {rate}")
        self.rate = rate

    def _next_gap(self) -> float:
        return self.rng.expovariate(self.rate)


class UniformSender(_SenderBase):
    """Sends at fixed ``interval`` seconds (deterministic tests)."""

    def __init__(self, runtime: Scheduler, stack, interval: float, **kwargs) -> None:
        if interval <= 0:
            raise ReproError(f"interval must be positive, got {interval}")
        super().__init__(runtime, stack, **kwargs)
        self.interval = interval

    def _next_gap(self) -> float:
        return self.interval
