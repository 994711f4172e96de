"""One sequencer→token-ring switch under load, on any runtime.

This is the payoff of the runtime boundary: the *identical* switchable
stack — sequencer and token-ring total order under the token-variant
switching protocol — driven by the same workload and checked by the same
oracle, on either

* the deterministic discrete-event runtime (``runtime="sim"``, the
  point-to-point model), or
* the real asyncio runtime over localhost UDP sockets
  (``runtime="asyncio"``, :mod:`repro.net.udp`).

The run casts Poisson traffic from every member, requests one
sequencer→tokenring switch mid-run at the coordinator, lets the group
settle, and then applies the session's oracle: convergence (no member
stuck mid-switch, all on the target protocol), then No Replay and
per-slot Total Order over the recorded trace.  ``repro run``
exposes it from the command line; the parity and smoke tests drive it
directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..errors import ReproError
from ..obs.bus import Bus
from ..stack.membership import Group
from .session import Session, total_order_specs

__all__ = ["SwitchRunConfig", "SwitchRunResult", "run_switch_demo"]

#: The switch exercised by the demo, in request order.
SLOT_NAMES = ("sequencer", "tokenring")


@dataclass
class SwitchRunConfig:
    """Parameters of one ``repro run`` execution.

    Attributes:
        runtime: "sim" (virtual time) or "asyncio" (wall clock + UDP).
        members: group size (every member sends).
        duration: seconds of workload (simulated or wall, per runtime).
        rate: casts per second per member.
        body_size: application payload size in bytes.
        seed: master seed for the Poisson workload.
        switch_at: when the coordinator requests sequencer→tokenring.
        warmup: latency samples before this horizon are discarded.
        settle_windows / settle_window: convergence grace after the
            workload stops (same shape as the chaos harness).
        base_port: first UDP port (asyncio runtime only).
        latency: base one-way latency of the simulated mesh (sim only).
        max_batch: casts coalesced per wire frame (1 = no batching layer).
        linger: seconds an incomplete batch waits before flushing.
    """

    runtime: str = "sim"
    members: int = 4
    duration: float = 3.0
    rate: float = 50.0
    body_size: int = 256
    seed: int = 42
    switch_at: float = 1.5
    warmup: float = 0.25
    settle_windows: int = 20
    settle_window: float = 0.25
    base_port: int = 47310
    latency: float = 1e-3
    max_batch: int = 1
    linger: float = 0.0

    def __post_init__(self) -> None:
        if self.members < 2:
            raise ReproError("the switch demo needs at least two members")
        if not 0 < self.switch_at < self.duration:
            raise ReproError("switch_at must fall inside the run")
        if self.max_batch < 1:
            raise ReproError("max_batch must be >= 1")
        if self.linger < 0:
            raise ReproError("linger must be non-negative")


@dataclass
class SwitchRunResult:
    """Outcome of one switch demo run, with oracle verdicts."""

    config: SwitchRunConfig
    runtime: str
    casts: int
    delivered: Dict[int, int]
    mean_ms: float
    median_ms: float
    p90_ms: float
    samples: int
    switch_duration_ms: Optional[float]
    max_hiccup_ms: float
    switches_completed: int
    final_protocols: Dict[int, str]
    settle_time: float
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        switch = (
            f"{self.switch_duration_ms:.1f}ms"
            if self.switch_duration_ms is not None
            else "n/a"
        )
        lines = [
            f"switch run: runtime={self.runtime} members={self.config.members} "
            f"duration={self.config.duration}s seed={self.config.seed}",
            f"  workload: casts={self.casts} delivered/member="
            f"{sorted(self.delivered.values())} latency mean={self.mean_ms:.2f}ms "
            f"median={self.median_ms:.2f}ms p90={self.p90_ms:.2f}ms "
            f"(n={self.samples})",
            f"  switch:   sequencer->tokenring took {switch} end to end; "
            f"max delivery hiccup {self.max_hiccup_ms:.1f}ms; "
            f"completed={self.switches_completed}",
            f"  final protocols: {self.final_protocols} "
            f"(settled at t={self.settle_time:.2f}s)",
        ]
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append(
                "  oracle: convergence, no-duplicates, per-slot order all hold"
            )
        return "\n".join(lines)


def run_switch_demo(
    config: Optional[SwitchRunConfig] = None,
    bus: Optional[Bus] = None,
) -> SwitchRunResult:
    """Execute one sequencer→tokenring switch under load; oracle-check it.

    Passing an enabled :class:`~repro.obs.bus.Bus` records the full
    instrumentation picture of the run — switch-phase spans, token
    events, layer/network metrics — stamped by this run's runtime clock.
    The caller exports the bus afterwards (see :mod:`repro.obs.export`).
    """
    config = config or SwitchRunConfig()
    with Session(
        config.members,
        config.seed,
        config.runtime,
        latency=config.latency,
        base_port=config.base_port,
        bus=bus,
    ) as session:
        return _drive(session, config)


def _drive(session: Session, config: SwitchRunConfig) -> SwitchRunResult:
    runtime = session.runtime
    group = Group.of_size(config.members)
    batch = (config.max_batch, config.linger) if config.max_batch > 1 else None
    # A single-group run is a fleet of size one: the same GroupHandle
    # lifecycle the fleet's GroupManager drives at thousands.
    handle = session.build(
        group,
        total_order_specs(SLOT_NAMES, batch=batch),
        SLOT_NAMES[0],
    )
    stacks = handle.stacks
    session.record(stacks)
    probe = session.probe(config.warmup)
    probe.attach_all(stacks)
    session.load(stacks.values(), config.rate, config.body_size)

    durations: List[float] = []
    manager = stacks[group.coordinator]
    manager.protocol.on_global_complete(
        lambda __, duration: durations.append(duration)
    )
    runtime.schedule_at(
        config.switch_at, lambda: handle.request_switch(SLOT_NAMES[1])
    )

    session.run(config.duration)
    settle_time, violations = session.settle(
        config.settle_windows, config.settle_window
    )
    live = list(group)
    finals, broken = session.check_order(live)
    if len(set(finals.values())) == 1 and finals[live[0]] != SLOT_NAMES[1]:
        violations.append(
            f"switch never took effect: group settled on "
            f"{finals[live[0]]!r}"
        )
    violations.extend(broken)

    has_samples = probe.latency.count > 0
    return SwitchRunResult(
        config=config,
        runtime=runtime.name,
        casts=len(session.cast_slot),
        delivered=session.delivered(live),
        mean_ms=probe.mean_ms if has_samples else float("nan"),
        median_ms=probe.median_ms if has_samples else float("nan"),
        p90_ms=probe.quantile_ms(0.90) if has_samples else float("nan"),
        samples=probe.latency.count,
        switch_duration_ms=durations[0] * 1e3 if durations else None,
        max_hiccup_ms=probe.max_gap * 1e3,
        switches_completed=manager.core.switches_completed,
        final_protocols=finals,
        settle_time=settle_time,
        violations=violations,
    )
