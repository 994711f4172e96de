"""Fault injection for network models.

The switching protocol's correctness argument assumes the underlying
protocols deliver messages at-most-once and without spurious deliveries,
and its liveness needs exactly-once (§2).  Our reliable-multicast layer
provides that *over a faulty network*; these injectors supply the faults:
message loss, duplication, reordering, timed partitions, and — for the
fault-tolerant switching work — process crashes and per-link/per-channel
fault overrides targeting the SP's private control traffic.

A :class:`FaultPlan` is consulted per delivered copy by the point-to-point
network model (the Ethernet model has its own simpler loss knob).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..errors import NetworkError

__all__ = [
    "Partition",
    "Crash",
    "LinkFaults",
    "FaultPlan",
    "FaultDecision",
    "Intercept",
]


@dataclass(frozen=True)
class Partition:
    """A network partition active during [start, end).

    ``groups`` is a list of disjoint node sets; nodes in different groups
    cannot exchange packets while the partition is active.  Nodes absent
    from every group are unreachable by everyone (total isolation).
    """

    start: float
    end: float
    groups: Tuple[frozenset, ...]

    @staticmethod
    def split(start: float, end: float, *groups: Sequence[int]) -> "Partition":
        if end <= start:
            raise NetworkError(f"empty partition window [{start}, {end})")
        frozen = tuple(frozenset(g) for g in groups)
        seen: Set[int] = set()
        for group in frozen:
            if seen & group:
                raise NetworkError("partition groups must be disjoint")
            seen |= group
        return Partition(start, end, frozen)

    def active_at(self, time: float) -> bool:
        """True while the partition window covers ``time``."""
        return self.start <= time < self.end

    def allows(self, a: int, b: int) -> bool:
        """True if a and b may communicate while this partition is active."""
        for group in self.groups:
            if a in group and b in group:
                return True
        return False


@dataclass(frozen=True)
class Crash:
    """A fail-silent process crash during [at, until).

    While crashed, a node neither transmits nor receives: every copy it
    sends and every copy addressed to it is dropped.  ``until`` defaults
    to forever (a crash with no recovery); a finite ``until`` models a
    recovering process that rejoins with whatever protocol state it had.
    """

    node: int
    at: float
    until: float = math.inf

    def __post_init__(self) -> None:
        if self.at < 0:
            raise NetworkError(f"crash time must be non-negative, got {self.at}")
        if self.until <= self.at:
            raise NetworkError(
                f"empty crash window [{self.at}, {self.until}) for node {self.node}"
            )

    def down_at(self, time: float) -> bool:
        """True while the node is crashed at ``time``."""
        return self.at <= time < self.until


@dataclass(frozen=True)
class LinkFaults:
    """Per-link probabilistic fault overrides for one ordered (src, dst).

    Any rate left as ``None`` falls back to the plan-wide value, so a link
    can e.g. override only its loss rate while inheriting jitter.
    """

    loss_rate: Optional[float] = None
    duplicate_rate: Optional[float] = None
    reorder_jitter: Optional[float] = None

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate"):
            value = getattr(self, name)
            if value is not None and not 0.0 <= value < 1.0:
                raise NetworkError(f"link {name} must be in [0, 1), got {value}")
        if self.reorder_jitter is not None and self.reorder_jitter < 0:
            raise NetworkError("link reorder_jitter must be non-negative")


@dataclass(frozen=True)
class FaultDecision:
    """What the injector decided for one delivered copy."""

    drop: bool = False
    duplicates: int = 0
    extra_delay: float = 0.0


#: The two verdicts almost every copy gets.  Decisions are immutable, so
#: :meth:`FaultPlan.decide` hands these out instead of building one per copy.
_PASS = FaultDecision()
_DROP = FaultDecision(drop=True)


#: An intercept inspects (time, src, dst, channel, payload) for one copy
#: and either dictates its fate with a FaultDecision or returns None to
#: fall through to the plan's probabilistic machinery.  Used by tests to
#: drop *specific* control messages (e.g. "the first PREPARE token").
Intercept = Callable[[float, int, int, Optional[int], object], Optional[FaultDecision]]


@dataclass
class FaultPlan:
    """Probabilistic faults plus scheduled partitions and crashes.

    Attributes:
        loss_rate: probability a copy is silently dropped.
        duplicate_rate: probability a copy is delivered twice.
        reorder_jitter: max uniform extra delay, which reorders packets
            whose nominal delivery times are closer than the jitter.
        partitions: timed partitions; a copy crossing an active partition
            boundary is dropped deterministically.
        crashes: timed fail-silent process crashes; a crashed node sends
            and receives nothing until it recovers.
        links: per-(src, dst) overrides of the probabilistic rates.
        channels: when set, the probabilistic faults (plan-wide and
            per-link) apply only to copies on these mux channels — e.g.
            ``frozenset({0})`` targets the SP's control traffic while
            leaving the data protocols untouched.  Partitions and crashes
            always apply to every channel.
        intercept: optional per-copy override consulted first (after
            crashes); see :data:`Intercept`.
    """

    loss_rate: float = 0.0
    duplicate_rate: float = 0.0
    reorder_jitter: float = 0.0
    partitions: List[Partition] = field(default_factory=list)
    crashes: List[Crash] = field(default_factory=list)
    links: Dict[Tuple[int, int], LinkFaults] = field(default_factory=dict)
    channels: Optional[FrozenSet[int]] = None
    intercept: Optional[Intercept] = None

    def __post_init__(self) -> None:
        for name in ("loss_rate", "duplicate_rate"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise NetworkError(f"{name} must be in [0, 1), got {value}")
        if self.reorder_jitter < 0:
            raise NetworkError("reorder_jitter must be non-negative")
        if self.channels is not None:
            self.channels = frozenset(self.channels)

    def is_lossless(self) -> bool:
        """True when the plan injects no faults at all."""
        return (
            self.loss_rate == 0.0
            and self.duplicate_rate == 0.0
            and not self.partitions
            and not self.crashes
            and not self.links
            and self.intercept is None
        )

    def touches_links(self) -> bool:
        """True if the plan can alter a copy travelling between two live nodes.

        Crashes are not link faults (they silence a node, and
        :meth:`node_alive` answers for them); ``channels`` only narrows
        the probabilistic faults and injects nothing on its own.  When
        this is False, :meth:`decide_live` would pass the copy without
        consuming a random number, so a caller may skip it.
        """
        return bool(
            self.loss_rate
            or self.duplicate_rate
            or self.reorder_jitter
            or self.partitions
            or self.links
            or self.intercept is not None
        )

    # ------------------------------------------------------------------
    # Crash queries
    # ------------------------------------------------------------------
    def node_alive(self, node: int, time: float) -> bool:
        """True if no scheduled crash keeps ``node`` down at ``time``."""
        return not any(c.node == node and c.down_at(time) for c in self.crashes)

    # ------------------------------------------------------------------
    # Rate resolution
    # ------------------------------------------------------------------
    def _rates(self, src: int, dst: int) -> Tuple[float, float, float]:
        link = self.links.get((src, dst))
        if link is None:
            return self.loss_rate, self.duplicate_rate, self.reorder_jitter
        return (
            self.loss_rate if link.loss_rate is None else link.loss_rate,
            self.duplicate_rate
            if link.duplicate_rate is None
            else link.duplicate_rate,
            self.reorder_jitter
            if link.reorder_jitter is None
            else link.reorder_jitter,
        )

    def decide(
        self,
        rng: random.Random,
        time: float,
        src: int,
        dst: int,
        channel: Optional[int] = None,
        payload: object = None,
    ) -> FaultDecision:
        """Decide the fate of one copy sent at ``time`` from src to dst.

        ``channel`` is the mux channel the copy travels on (None when the
        network cannot tell); ``payload`` is the on-wire object, passed to
        the intercept only.
        """
        if self.crashes and not (
            self.node_alive(src, time) and self.node_alive(dst, time)
        ):
            return _DROP
        return self.decide_live(rng, time, src, dst, channel, payload)

    def decide_live(
        self,
        rng: random.Random,
        time: float,
        src: int,
        dst: int,
        channel: Optional[int] = None,
        payload: object = None,
    ) -> FaultDecision:
        """:meth:`decide` for a copy whose endpoints the caller knows are up.

        The point-to-point network has already answered the crash
        question (scheduled and dynamic) for this ``(node, time)`` by the
        time it asks about the link, so it enters here.
        """
        if self.intercept is not None:
            verdict = self.intercept(time, src, dst, channel, payload)
            if verdict is not None:
                return verdict
        for partition in self.partitions:
            if partition.active_at(time) and not partition.allows(src, dst):
                return _DROP
        if self.channels is not None and channel not in self.channels:
            return _PASS
        loss, dup, jitter = self._rates(src, dst)
        if loss and rng.random() < loss:
            return _DROP
        duplicates = 0
        if dup and rng.random() < dup:
            duplicates = 1
        if not duplicates and not jitter:
            return _PASS
        extra = rng.random() * jitter if jitter else 0.0
        return FaultDecision(duplicates=duplicates, extra_delay=extra)
