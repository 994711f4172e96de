"""Seeded chaos runner for the fault-tolerant switching protocol.

A chaos run is reproducible from its :class:`ChaosConfig` alone: the
workload (casts, switch requests), the perturbations (token loss,
duplication, reordering on the SP control channel, member crashes and
recoveries) and the simulation itself are all derived deterministically
from the config's seed and expressed as a labelled
:class:`~repro.sim.engine.Timeline` — no wall-clock anywhere.

After the run settles, the runner judges the recorded trace of the live
members with what the SP is supposed to keep under faults:

* **Convergence** (completion-or-abort): no member is stuck mid-switch,
  and every live member ends on the same protocol, within bounded
  simulated time.
* **No Replay**: no member delivers the same body twice (every chaos
  cast carries a unique body).
* **Total Order per slot**: two live members that both delivered a pair
  of messages cast on the same (totally ordered) slot delivered them in
  the same order — even across aborts and reverts.
* **Reliability** (quiet runs only): with no crashes, no aborts and no
  false suspicions, every cast is delivered by every member.  Faultier
  runs legitimately leave residue (a crashed member's casts die at its
  interface; an abort can strand early traffic in buffers), so there
  the check is skipped.

Total Order over the *whole* trace is observed, not judged:
:attr:`ChaosResult.total_order` holds its violation note.  An abort may
reorder the two slots' messages (see :mod:`repro.workloads.session`),
and a false suspicion can split the order with no abort at all
(ROADMAP: "A switch with a bound").

Violations are collected, not raised, so tests and the CLI can report
all of them with the seed that reproduces the run.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..core.token_switch import FaultToleranceConfig
from ..errors import SimulationError
from ..net.faults import FaultPlan, Intercept
from ..obs.bus import Bus
from ..runtime import Timeline
from ..stack.membership import Group
from ..traces.properties import Reliability, TotalOrder
from ..workloads.session import Session, total_order_specs

__all__ = [
    "ChaosConfig",
    "ChaosResult",
    "CrashWindow",
    "run_chaos",
    "run_chaos_cell",
]


@dataclass(frozen=True)
class CrashWindow:
    """Crash ``rank`` at ``at``; recover at ``until`` (inf = never)."""

    rank: int
    at: float
    until: float = math.inf

    @property
    def permanent(self) -> bool:
        return math.isinf(self.until)


@dataclass
class ChaosConfig:
    """Everything a chaos run needs, reproducible from the seed.

    Attributes:
        members: group size.
        seed: master seed for workload and fault randomness.
        duration: how long (simulated seconds) workload keeps arriving.
        settle: extra windows of ``settle_window`` seconds granted for
            the group to converge after the workload stops.
        cast_rate: expected application casts per second, group-wide.
        switch_every: interval between switch requests (0 disables).
        control_loss / control_dup / control_jitter: probabilistic
            faults applied to the SP control channel only (mux channel
            0); the data slots keep their own reliable layers.
        crashes: scripted fail-silent crash windows.
        intercept: optional surgical override (e.g. "drop the first
            PREPARE token"); see :data:`repro.net.faults.Intercept`.
        ft: fault-tolerance knobs for the resilient token protocol.
        token_interval: NORMAL-token pacing.
        latency: base one-way network latency.
    """

    members: int = 4
    seed: int = 0
    duration: float = 6.0
    settle: int = 20
    settle_window: float = 1.0
    cast_rate: float = 120.0
    switch_every: float = 0.7
    control_loss: float = 0.0
    control_dup: float = 0.0
    control_jitter: float = 0.0
    crashes: Sequence[CrashWindow] = ()
    intercept: Optional[Intercept] = None
    ft: FaultToleranceConfig = field(default_factory=FaultToleranceConfig)
    token_interval: float = 0.002
    latency: float = 1e-3

    def __post_init__(self) -> None:
        if self.members < 2:
            raise SimulationError("chaos needs at least two members")
        if self.duration <= 0:
            raise SimulationError("chaos duration must be positive")
        live_forever = self.members - sum(
            1 for c in self.crashes if c.permanent
        )
        if live_forever < 2:
            raise SimulationError(
                "chaos must leave at least two members alive"
            )


@dataclass
class ChaosResult:
    """Outcome of one chaos run."""

    config: ChaosConfig
    violations: List[str]
    final_protocols: Dict[int, str]
    casts: int
    delivered: Dict[int, int]
    switches_completed: int
    switches_aborted: int
    counters: Dict[str, int]
    timeline: List[Tuple[float, str]]
    settle_time: float
    #: Total Order over the whole trace of the live members: ``None``
    #: when it holds, else its violation note.  An observation, not a
    #: verdict — it is not in :attr:`violations`.
    total_order: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"chaos seed={self.config.seed} members={self.config.members} "
            f"duration={self.config.duration}s "
            f"(settled at t={self.settle_time:.2f}s)",
            f"  casts={self.casts} delivered/member="
            f"{sorted(self.delivered.values())}",
            f"  switches: completed={self.switches_completed} "
            f"aborted={self.switches_aborted}",
            f"  final protocols: {self.final_protocols}",
        ]
        interesting = (
            "regenerated_tokens",
            "hop_retransmits",
            "takeovers",
            "suspected",
            "stale_tokens",
            "duplicate_tokens",
            "late_joins",
            "node_failures",
            "node_recoveries",
            "crash_drops",
            "drops",
            "duplicates",
        )
        recovery = {
            k: self.counters[k] for k in interesting if self.counters.get(k)
        }
        lines.append(f"  recovery counters: {recovery}")
        lines.append(
            f"  whole-trace total order (observed): "
            f"{self.total_order or 'holds'}"
        )
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  oracle: all properties hold")
        return "\n".join(lines)


#: The two subordinate protocols every chaos group switches between.
#: Both deliver in total order, which the per-slot oracle relies on.
PROTOCOL_NAMES = ("seq", "tok")


def run_chaos(
    config: ChaosConfig, bus: Optional[Bus] = None
) -> ChaosResult:
    """Execute one seeded chaos run and check the oracle properties.

    An enabled ``bus`` records the run's full instrumentation picture —
    switch-phase spans, token retransmit/reroute/regeneration events,
    network drop counters — stamped in deterministic simulated time, so
    a chaos failure can be exported and inspected in Perfetto.
    """
    rng = random.Random(config.seed)
    plan = FaultPlan(
        loss_rate=config.control_loss,
        duplicate_rate=config.control_dup,
        reorder_jitter=config.control_jitter,
        channels=frozenset({0}),
        intercept=config.intercept,
    )
    session = Session(
        config.members,
        config.seed,
        latency=config.latency,
        faults=plan,
        bus=bus,
    )
    sim, network = session.runtime, session.network
    group = Group.of_size(config.members)
    stacks = session.build(
        group,
        total_order_specs(PROTOCOL_NAMES),
        PROTOCOL_NAMES[0],
        token_interval=config.token_interval,
        # Bare control channel: the FT token machinery must survive raw
        # loss/duplication/reordering on its own.
        control_factory=lambda __: [],
        fault_tolerance=config.ft,
    ).stacks
    session.record(stacks)
    cast_slot = session.cast_slot  # mid -> slot it was sent on
    aborts: List[tuple] = []
    for rank, stack in stacks.items():
        stack.on_switch_aborted(
            lambda outcome, rank=rank: aborts.append((rank, outcome))
        )

    # --- the scripted timeline -----------------------------------------
    timeline = Timeline()
    for crash in config.crashes:
        timeline.at(
            crash.at,
            lambda r=crash.rank: network.fail_node(r),
            label=f"crash {crash.rank}",
        )
        if not crash.permanent:
            timeline.at(
                crash.until,
                lambda r=crash.rank: network.recover_node(r),
                label=f"recover {crash.rank}",
            )

    def cast_from(rank: int) -> None:
        if not network.node_alive(rank):
            return  # a dead member generates no load
        stacks[rank].cast(("chaos", rank, len(cast_slot)))

    time = 0.0
    while True:
        time += rng.expovariate(config.cast_rate)
        if time >= config.duration:
            break
        timeline.at(
            time, lambda r=rng.randrange(config.members): cast_from(r),
            label="cast",
        )

    if config.switch_every > 0:
        time, flip = config.switch_every, 1
        while time < config.duration:
            target = PROTOCOL_NAMES[flip % len(PROTOCOL_NAMES)]
            requester = rng.randrange(config.members)
            timeline.at(
                time,
                lambda r=requester, to=target: stacks[r].request_switch(to),
                label=f"switch {requester}->{target}",
            )
            time += config.switch_every
            flip += 1

    timeline.install(sim)

    session.run(config.duration)
    settle_time, violations = session.settle(
        config.settle, config.settle_window
    )
    live = [
        r
        for r in group
        if r not in {c.rank for c in config.crashes if c.permanent}
    ]
    finals, broken = session.check_order(live)
    violations.extend(broken)

    trace = session.trace(live)
    suspicions = sum(
        stacks[r].protocol.stats.get("suspected") for r in group
    )
    if not config.crashes and not aborts and suspicions == 0:
        missed = Reliability(live).explain(trace)
        if missed is not None:
            violations.append(f"{Reliability.name}: {missed}")

    # --- counters --------------------------------------------------------
    counters: Dict[str, int] = {}
    for stack in stacks.values():
        for source in (stack.protocol.stats, stack.core.stats):
            for key, value in source.as_dict().items():
                counters[key] = counters.get(key, 0) + value
    for key, value in network.stats.as_dict().items():
        counters[key] = counters.get(key, 0) + value

    return ChaosResult(
        config=config,
        violations=violations,
        final_protocols=finals,
        casts=len(cast_slot),
        delivered=session.delivered(live),
        switches_completed=counters.get("globally_complete", 0),
        switches_aborted=len({outcome.switch_id for __, outcome in aborts}),
        counters=counters,
        timeline=list(timeline.fired),
        settle_time=settle_time,
        total_order=TotalOrder().explain(trace),
    )


def run_chaos_cell(cell) -> ChaosResult:
    """One chaos run; a picklable sweep worker (see workloads.parallel).

    The cell carries a complete :class:`ChaosConfig` (picklable as long
    as it uses no ``intercept`` callable), and the run derives all of
    its randomness from that config's seed — so fanning chaos configs
    across worker processes returns results value-identical to running
    them serially, in cell order.
    """
    return run_chaos(cell["config"])
