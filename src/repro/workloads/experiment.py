"""The §7 performance experiments, as reusable runners.

Testbed stand-in: a 10-member group on the shared-Ethernet model, a
subgroup of ``active_senders`` members each multicasting 50 msg/s of 1 KB
payloads (Poisson arrivals).  Three protocol configurations:

* ``sequencer`` — centralized-sequencer total order,
* ``token`` — token-ring total order,
* ``hybrid`` — both mounted under the switching protocol with an
  adaptive (hysteresis) oracle, the paper's "best of both worlds".

Calibration (documented in EXPERIMENTS.md): per-packet host CPU time and
the sequencer's ordering cost are set so the sequencer saturates between
5 and 6 active senders — the paper's crossover — while the token ring's
rotation dominates its (flatter) latency.  Absolute milliseconds are not
expected to match a 1998 Sparc testbed; shapes and orderings are.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

from ..core.oracle import (
    AdaptiveController,
    HysteresisOracle,
    Oracle,
    ThresholdOracle,
)
from ..core.signals import SignalTracker
from ..core.switchable import ProtocolSpec, SwitchableStack
from ..errors import ReproError
from ..net.ethernet import EthernetParams
from ..sim.seeding import figure2_cell_seed, figure2_repeat_seed
from ..stack.membership import Group
from ..stack.message import Message
from ..stack.stack import build_group
from .generator import Payload
from .session import Session, total_order_specs

__all__ = [
    "Figure2Config",
    "LatencyResult",
    "LatencyStatistics",
    "run_point_statistics",
    "find_crossover",
    "run_total_order_experiment",
    "run_figure2_sweep",
    "run_group_size_sweep",
    "SwitchOverheadResult",
    "run_switch_overhead_experiment",
    "OscillationResult",
    "run_oscillation_experiment",
]


@dataclass
class Figure2Config:
    """Parameters of the Figure 2 reproduction.

    Defaults mirror the paper where it gives numbers (10 members,
    50 msg/s per active sender, 10 Mbit Ethernet) and calibrate what it
    does not (per-packet CPU, ordering cost).
    """

    group_size: int = 10
    rate: float = 50.0
    body_size: int = 1024
    duration: float = 4.0
    warmup: float = 1.0
    seed: int = 42
    ethernet: EthernetParams = field(
        default_factory=lambda: EthernetParams(
            bandwidth_bps=10e6,
            propagation=100e-6,
            cpu_send=0.7e-3,
            cpu_recv=0.7e-3,
        )
    )
    sequencer_order_cost: float = 0.9e-3
    oracle_low: float = 4.5  # hybrid: switch down below this many senders
    oracle_high: float = 5.5  # hybrid: switch up above this
    oracle_dwell: float = 0.5
    oracle_poll: float = 0.1


@dataclass(frozen=True)
class LatencyResult:
    """Latency statistics from one run."""

    protocol: str
    active_senders: int
    mean_ms: float
    median_ms: float
    p90_ms: float
    samples: int
    switches: int = 0

    def row(self) -> str:
        """One formatted report line for this result."""
        return (
            f"{self.protocol:<10} senders={self.active_senders:<3} "
            f"mean={self.mean_ms:7.2f}ms median={self.median_ms:7.2f}ms "
            f"p90={self.p90_ms:7.2f}ms n={self.samples}"
        )


#: Slot names of the §7 hybrid (Figure 2 calls the ring "token").
SLOT_NAMES = ("sequencer", "token")


def _session(config: Figure2Config, seed: int) -> Session:
    """The §7 testbed: a shared Ethernet segment (sim only, so no
    sockets or loop to close)."""
    return Session(config.group_size, seed, ethernet=replace(config.ethernet))


def _specs(config: Figure2Config) -> List[ProtocolSpec]:
    return total_order_specs(
        SLOT_NAMES, reliable=False, order_cost=config.sequencer_order_cost
    )


def _build_hybrid(
    session: Session,
    group: Group,
    config: Figure2Config,
    oracle_factory: Optional[Callable[[SignalTracker], Oracle]] = None,
) -> Tuple[Dict[int, SwitchableStack], AdaptiveController]:
    handle = session.build(group, _specs(config), SLOT_NAMES[0])
    manager = handle.stacks[group.coordinator]
    runtime = session.runtime
    tracker = SignalTracker(runtime, window=0.5)

    def observe(msg: Message) -> None:
        payload = Payload.read(msg.body)
        tracker.record_delivery(msg.sender, runtime.now - payload.sent_at)

    manager.on_deliver(observe)
    if oracle_factory is None:
        oracle: Oracle = HysteresisOracle(
            metric=tracker.delivering_senders,
            low_threshold=config.oracle_low,
            high_threshold=config.oracle_high,
            low_protocol="sequencer",
            high_protocol="token",
            min_dwell=config.oracle_dwell,
        )
    else:
        oracle = oracle_factory(tracker)
    controller = AdaptiveController()
    controller.watch(handle, oracle)
    controller.start(runtime, config.oracle_poll)
    return handle.stacks, controller


def run_total_order_experiment(
    protocol: str,
    active_senders: int,
    config: Optional[Figure2Config] = None,
) -> LatencyResult:
    """One point of Figure 2: mean latency for ``active_senders`` senders.

    ``protocol``: "sequencer", "token", or "hybrid".
    """
    config = config or Figure2Config()
    if not 1 <= active_senders <= config.group_size:
        raise ReproError(
            f"active_senders must be in [1, {config.group_size}]"
        )
    session = _session(config, figure2_cell_seed(config.seed, active_senders))
    group = Group.of_size(config.group_size)

    hybrid = protocol == "hybrid"
    if hybrid:
        # Starts on the sequencer whatever the load, so near the
        # thresholds the oracle has to earn its keep.
        stacks, __ = _build_hybrid(session, group, config)
    elif protocol in SLOT_NAMES:
        factory = _specs(config)[SLOT_NAMES.index(protocol)].factory
        stacks = build_group(
            session.runtime,
            session.network,
            group,
            factory,
            streams=session.streams,
        )
    else:
        raise ReproError(f"unknown plain protocol {protocol!r}")

    probe = session.probe(config.warmup)
    probe.attach_all(stacks)
    session.load(
        list(stacks.values())[:active_senders], config.rate, config.body_size
    )
    session.run(config.duration)
    if probe.latency.count == 0:
        raise ReproError(
            f"no latency samples for {protocol} at {active_senders} senders"
        )
    return LatencyResult(
        protocol=protocol,
        active_senders=active_senders,
        mean_ms=probe.mean_ms,
        median_ms=probe.median_ms,
        p90_ms=probe.quantile_ms(0.90),
        samples=probe.latency.count,
        switches=(
            stacks[group.coordinator].core.switches_completed if hybrid else 0
        ),
    )


@dataclass(frozen=True)
class LatencyStatistics:
    """Cross-seed statistics for one Figure 2 point."""

    protocol: str
    active_senders: int
    repeats: int
    mean_ms: float
    std_ms: float
    min_ms: float
    max_ms: float


def run_point_statistics(
    protocol: str,
    active_senders: int,
    config: Optional[Figure2Config] = None,
    repeats: int = 5,
) -> LatencyStatistics:
    """One Figure 2 point, repeated over ``repeats`` independent seeds.

    Useful for error bars / robustness checks: the single-seed sweep is
    deterministic, but the Poisson workload makes each point a random
    variable; this reports its spread.
    """
    if repeats < 1:
        raise ReproError("repeats must be positive")
    base = config or Figure2Config()
    means: List[float] = []
    for repeat in range(repeats):
        run_config = replace(
            base, seed=figure2_repeat_seed(base.seed, repeat)
        )
        result = run_total_order_experiment(
            protocol, active_senders, run_config
        )
        means.append(result.mean_ms)
    mean = sum(means) / len(means)
    variance = sum((m - mean) ** 2 for m in means) / len(means)
    return LatencyStatistics(
        protocol=protocol,
        active_senders=active_senders,
        repeats=repeats,
        mean_ms=mean,
        std_ms=variance ** 0.5,
        min_ms=min(means),
        max_ms=max(means),
    )


def run_figure2_sweep(
    protocols: Tuple[str, ...] = ("sequencer", "token"),
    sender_counts: Optional[List[int]] = None,
    config: Optional[Figure2Config] = None,
) -> Dict[str, List[LatencyResult]]:
    """The full Figure 2 sweep: latency vs. number of active senders."""
    config = config or Figure2Config()
    counts = sender_counts or list(range(1, config.group_size + 1))
    results: Dict[str, List[LatencyResult]] = {}
    for protocol in protocols:
        results[protocol] = [
            run_total_order_experiment(protocol, k, config) for k in counts
        ]
    return results


def find_crossover(
    seq_results: List[LatencyResult], tok_results: List[LatencyResult]
) -> Optional[Tuple[int, int]]:
    """The sender counts (k, k+1) between which the curves cross.

    Paper: "a cross-over point when the size of the subset is between 5
    and 6 active senders."
    """
    pairs = list(zip(seq_results, tok_results))
    for (s1, t1), (s2, t2) in zip(pairs, pairs[1:]):
        if s1.mean_ms <= t1.mean_ms and s2.mean_ms > t2.mean_ms:
            return (s1.active_senders, s2.active_senders)
    return None


def run_group_size_sweep(
    protocol: str,
    group_sizes: List[int],
    active_senders: int = 2,
    config: Optional[Figure2Config] = None,
) -> List[LatencyResult]:
    """Latency vs. *group size* at fixed load — the other axis of the §7
    trade-off.

    The token ring's unloaded latency is about half a rotation, and a
    rotation is linear in the group size; the sequencer's is two network
    hops regardless.  This sweep makes that structural difference (which
    Figure 2 holds fixed at n=10) measurable.
    """
    base = config or Figure2Config()
    results = []
    for size in group_sizes:
        if active_senders > size:
            raise ReproError(
                f"{active_senders} senders do not fit a group of {size}"
            )
        sized = replace(base, group_size=size)
        results.append(
            run_total_order_experiment(protocol, active_senders, sized)
        )
    return results


@dataclass(frozen=True)
class SwitchOverheadResult:
    """§7 switching-overhead measurement."""

    active_senders: int
    direction: str
    switch_duration_ms: float  # initiator-observed, full 3 rotations
    max_hiccup_ms: float  # largest inter-delivery gap near the switch
    baseline_hiccup_ms: float  # largest gap in a no-switch control run
    sends_blocked: int  # should be 0: sends never block


def run_switch_overhead_experiment(
    active_senders: int = 5,
    direction: str = "sequencer->token",
    config: Optional[Figure2Config] = None,
) -> SwitchOverheadResult:
    """Measure the cost of one switch near the crossover (§7: ~31 ms;
    'the perceived hiccup is often less than that')."""
    config = config or Figure2Config()
    initial, target = direction.split("->")

    def run(trigger_switch: bool) -> Tuple[float, float, int]:
        session = _session(config, config.seed)
        runtime = session.runtime
        group = Group.of_size(config.group_size)
        stacks = session.build(group, _specs(config), initial).stacks
        probe = session.probe(config.warmup)
        probe.attach_all(stacks)
        blocked = 0
        session.load(
            list(stacks.values())[:active_senders],
            config.rate,
            config.body_size,
        )
        durations: List[float] = []
        manager = stacks[group.coordinator]
        manager.protocol.on_global_complete(
            lambda __, duration: durations.append(duration)
        )
        switch_at = config.warmup + 1.0
        if trigger_switch:
            runtime.schedule_at(switch_at, lambda: manager.request_switch(target))
        session.run(config.duration)
        for rank in list(group)[:active_senders]:
            if not stacks[rank].can_send():
                blocked += 1
        duration_ms = durations[0] * 1e3 if durations else float("nan")
        return duration_ms, probe.max_gap * 1e3, blocked

    switch_duration, hiccup, blocked = run(trigger_switch=True)
    __, baseline_hiccup, __unused = run(trigger_switch=False)
    return SwitchOverheadResult(
        active_senders=active_senders,
        direction=direction,
        switch_duration_ms=switch_duration,
        max_hiccup_ms=hiccup,
        baseline_hiccup_ms=baseline_hiccup,
        sends_blocked=blocked,
    )


@dataclass(frozen=True)
class OscillationResult:
    """§7 aggressive-vs-hysteresis comparison."""

    policy: str
    switch_requests: int
    switches_completed: int
    mean_latency_ms: float


def run_oscillation_experiment(
    policy: str,
    config: Optional[Figure2Config] = None,
    duration: float = 12.0,
    flutter_period: float = 1.0,
) -> OscillationResult:
    """Load hovers around the crossover; compare oracle policies.

    The active-sender count alternates between 5 and 6 every
    ``flutter_period`` seconds (one sender toggles on/off).  The
    "aggressive" policy (single threshold, no dwell) oscillates; the
    "hysteresis" policy stays put or switches rarely.
    """
    config = config or Figure2Config()
    session = _session(config, config.seed)
    runtime = session.runtime
    group = Group.of_size(config.group_size)

    def oracle_factory(tracker: SignalTracker) -> Oracle:
        if policy == "aggressive":
            return ThresholdOracle(
                metric=tracker.delivering_senders,
                threshold=(config.oracle_low + config.oracle_high) / 2,
                low_protocol="sequencer",
                high_protocol="token",
            )
        if policy == "hysteresis":
            return HysteresisOracle(
                metric=tracker.delivering_senders,
                low_threshold=config.oracle_low,
                high_threshold=config.oracle_high,
                low_protocol="sequencer",
                high_protocol="token",
                min_dwell=config.oracle_dwell,
            )
        raise ReproError(f"unknown policy {policy!r}")

    stacks, controller = _build_hybrid(session, group, config, oracle_factory)
    probe = session.probe(config.warmup)
    probe.attach_all(stacks)

    # Five steady senders plus one that flutters on and off.
    session.load(list(stacks.values())[:5], config.rate, config.body_size)
    flutter_rank = list(group)[5]
    flutter_rng = session.streams.stream("flutter")

    def schedule_flutter(start: float) -> None:
        if start >= duration:
            return
        sender = session.sender(
            stacks[flutter_rank], config.rate, flutter_rng,
            body_size=config.body_size, start=start,
            stop=start + flutter_period,
        )
        runtime.schedule_at(start, sender.start)
        schedule_flutter(start + 2 * flutter_period)

    schedule_flutter(config.warmup)
    session.run(duration)
    manager = stacks[group.coordinator]
    return OscillationResult(
        policy=policy,
        switch_requests=len(controller.decisions),
        switches_completed=manager.core.switches_completed,
        mean_latency_ms=probe.mean_ms if probe.latency.count else float("nan"),
    )
