"""Execute one scenario spec and score it into a :class:`ScenarioVerdict`.

The runner compiles a :class:`~repro.scenarios.spec.ScenarioSpec` into a
live run: the fault-tolerant switchable group (sequencer + token ring
under the token-variant SP) with an :class:`~repro.core.hybrid
.AdaptiveController` polling a :class:`~repro.core.oracle
.HysteresisOracle` over the spec's named signal, while the scripted
phases retune the workload and — on the simulated mesh — swap the
live :class:`~repro.net.faults.FaultPlan` and base latency at each
phase boundary.

After the phases play out and the group settles, the scorer applies the
session's correctness oracle (convergence, then No Replay and per-slot
Total Order over the recorded trace) *plus* the scenario's adaptation
contract: did the group end on the expected protocol, with no more
switches than allowed, fast enough after the drift began, without
losing workload?
Switch drain cost comes from the obs bus's ``switch.duration_s``
histogram and the latency probe's worst inter-delivery hiccup.

On the sim runtime the whole run is deterministic: same spec, same
verdict, byte for byte — which is what lets the catalog's verdicts be
checked into the repo and diffed in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..core.hybrid import AdaptiveController
from ..core.oracle import HysteresisOracle
from ..core.token_switch import FaultToleranceConfig
from ..errors import ScenarioError
from ..net.faults import FaultPlan
from ..obs.bus import Bus
from ..stack.membership import Group
from ..workloads.generator import Payload
from ..workloads.latency import LatencyProbe
from ..workloads.session import Session, total_order_specs
from .signals import SignalTracker
from .spec import PhaseSpec, ScenarioSpec

__all__ = [
    "ScenarioVerdict",
    "run_scenario",
    "run_scenario_cell",
    "scenario_cells",
]

#: Protocol slot names, in (low-regime, high-regime) catalog order.
SLOT_NAMES = ("sequencer", "tokenring")

#: Latency samples before this horizon are start-of-run transients.
WARMUP = 0.25


@dataclass
class ScenarioVerdict:
    """The scored outcome of one scenario run.

    ``violations`` holds every broken expectation; an empty list means
    the scenario passed.  All other fields are evidence: what the oracle
    decided, how long the switch took, and what the workload saw.
    """

    scenario: str
    runtime: str
    seed: int
    expected_protocol: str
    final_protocols: Dict[int, str]
    switches_completed: int
    decisions: List[Tuple[float, str, str]]
    time_to_switch: Optional[float]
    switch_duration_ms: Optional[float]
    max_hiccup_ms: float
    casts: int
    delivered: Dict[int, int]
    delivery_ratio: float
    delivered_rate_before: Optional[float]
    delivered_rate_after: Optional[float]
    mean_latency_ms: Optional[float]
    p90_latency_ms: Optional[float]
    settle_time: float
    duration: float
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, object]:
        """JSON-able form (stable key order; int keys stringified)."""
        return {
            "scenario": self.scenario,
            "runtime": self.runtime,
            "seed": self.seed,
            "ok": self.ok,
            "expected_protocol": self.expected_protocol,
            "final_protocols": {
                str(rank): name
                for rank, name in sorted(self.final_protocols.items())
            },
            "switches_completed": self.switches_completed,
            "decisions": [
                {"time": time, "from": src, "to": dst}
                for time, src, dst in self.decisions
            ],
            "time_to_switch": self.time_to_switch,
            "switch_duration_ms": self.switch_duration_ms,
            "max_hiccup_ms": self.max_hiccup_ms,
            "casts": self.casts,
            "delivered": {
                str(rank): count
                for rank, count in sorted(self.delivered.items())
            },
            "delivery_ratio": self.delivery_ratio,
            "delivered_rate_before": self.delivered_rate_before,
            "delivered_rate_after": self.delivered_rate_after,
            "mean_latency_ms": self.mean_latency_ms,
            "p90_latency_ms": self.p90_latency_ms,
            "settle_time": self.settle_time,
            "duration": self.duration,
            "violations": list(self.violations),
        }

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        switch = (
            f"{self.switch_duration_ms:.1f}ms"
            if self.switch_duration_ms is not None
            else "n/a"
        )
        tts = (
            f"{self.time_to_switch:.2f}s"
            if self.time_to_switch is not None
            else "n/a"
        )
        lines = [
            f"[{status}] {self.scenario} ({self.runtime}, seed={self.seed})",
            f"  protocol: expected={self.expected_protocol} "
            f"final={sorted(set(self.final_protocols.values()))} "
            f"switches={self.switches_completed} "
            f"decisions={len(self.decisions)}",
            f"  adaptation: time-to-switch={tts} drain={switch} "
            f"hiccup={self.max_hiccup_ms:.1f}ms",
            f"  workload: casts={self.casts} "
            f"delivery_ratio={self.delivery_ratio:.3f} "
            f"(settled at t={self.settle_time:.2f}s)",
        ]
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        return "\n".join(lines)


def _plan(phase: PhaseSpec) -> FaultPlan:
    """The phase's network conditions as a live fault plan (all channels)."""
    return FaultPlan(
        loss_rate=phase.net.loss,
        duplicate_rate=phase.net.dup,
        reorder_jitter=phase.net.jitter_ms / 1e3,
    )


def run_scenario(
    spec: ScenarioSpec,
    runtime_name: str = "sim",
    bus: Optional[Bus] = None,
    base_port: int = 47610,
) -> ScenarioVerdict:
    """Run ``spec`` on the named runtime and score the outcome.

    Args:
        spec: a validated catalog entry.
        runtime_name: "sim" or "asyncio"; must be declared by the spec
            (asyncio runs are wall-clock over real localhost UDP and
            cannot inject faults, which the spec validator enforces).
        bus: optional instrumentation bus; the runner creates a private
            enabled one when omitted (the scorer needs the
            ``switch.duration_s`` histogram either way).
        base_port: first UDP port (asyncio runtime only).
    """
    if runtime_name not in spec.runtimes:
        raise ScenarioError(
            f"scenario {spec.name!r} declares runtimes {list(spec.runtimes)}, "
            f"not {runtime_name!r}"
        )
    if bus is None:
        bus = Bus(enabled=True)
    with Session(
        spec.group.members,
        spec.seed,
        runtime_name,
        latency=spec.phases[0].net.latency_ms / 1e3,
        faults=_plan(spec.phases[0]),
        base_port=base_port,
        bus=bus,
    ) as session:
        return _drive(session, spec)


def _drive(session: Session, spec: ScenarioSpec) -> ScenarioVerdict:
    runtime, network = session.runtime, session.network
    group = Group.of_size(spec.group.members)
    sim_network = runtime.name == "sim"
    stacks = session.build(
        group,
        total_order_specs(SLOT_NAMES),
        spec.group.initial,
        token_interval=spec.group.token_interval,
        # The resilient token variant: scenario faults hit every channel,
        # so the SP itself must ride out loss on its control traffic.
        fault_tolerance=FaultToleranceConfig(),
    ).stacks
    session.record(stacks)
    probe = session.probe(WARMUP)
    probe.attach_all(stacks)

    tracker = SignalTracker(
        runtime,
        spec.oracle.window,
        network=network if sim_network else None,
    )
    for stack in stacks.values():
        stack.on_send(lambda msg: tracker.record_cast())
    # Built idle: each phase starts, retunes or stops them.
    senders = [
        session.sender(stacks[rank], spec.phases[0].rate) for rank in group
    ]
    tracker.senders = senders

    # The observer rank feeds the latency/throughput signals.
    observer = group.coordinator
    observer_deliveries: List[float] = []

    def observe(msg):
        payload = Payload.read(msg.body)
        if payload is not None:
            now = runtime.now
            observer_deliveries.append(now)
            tracker.record_delivery(now - payload.sent_at)

    stacks[observer].on_deliver(observe)

    # --- the adaptation loop under test --------------------------------
    oracle = HysteresisOracle(
        tracker.metric(spec.oracle.signal),
        spec.oracle.low,
        spec.oracle.high,
        spec.oracle.low_protocol,
        spec.oracle.high_protocol,
        min_dwell=spec.oracle.dwell,
    )
    manager = stacks[observer]
    controller = AdaptiveController(
        manager, oracle, poll_interval=spec.oracle.poll
    )
    completions: List[Tuple[float, float]] = []  # (completed_at, duration)
    manager.protocol.on_global_complete(
        lambda __, duration: completions.append((runtime.now, duration))
    )

    # --- compile the phases --------------------------------------------
    def apply_phase(phase: PhaseSpec) -> None:
        if sim_network:
            network.set_faults(_plan(phase))
            network.latency.set_base(phase.net.latency_ms / 1e3)
        for rank, sender in enumerate(senders):
            if rank < phase.senders:
                sender.retune(phase.rate)
                sender.start()
            else:
                sender.stop()

    apply_phase(spec.phases[0])
    start = 0.0
    for phase in spec.phases:
        if start > 0.0:
            runtime.schedule_at(start, lambda p=phase: apply_phase(p))
        start += phase.duration
    controller.start()

    session.run(spec.duration)
    controller.stop()
    settle_time, violations = session.settle(
        spec.settle.windows, spec.settle.window
    )
    return _score(
        spec,
        session,
        group,
        probe,
        controller,
        completions,
        observer_deliveries,
        settle_time,
        violations,
    )


def _score(
    spec: ScenarioSpec,
    session: Session,
    group,
    probe: LatencyProbe,
    controller: AdaptiveController,
    completions: List[Tuple[float, float]],
    observer_deliveries: List[float],
    settle_time: float,
    violations: List[str],
) -> ScenarioVerdict:
    """Fold the raw run outcome into a scored verdict."""
    expect = spec.expect
    bus, stacks = session.bus, session.stacks
    live = list(group)
    # Correctness oracle (shared with the chaos harness).
    finals, broken = session.check_order(live)
    violations.extend(broken)

    # Adaptation contract.
    wrong = {r: p for r, p in finals.items() if p != expect.protocol}
    if wrong:
        violations.append(
            f"expected the group on {expect.protocol!r}, but {wrong}"
        )
    switches_completed = stacks[group.coordinator].core.switches_completed
    if switches_completed > expect.max_switches:
        violations.append(
            f"{switches_completed} switches completed, expected at most "
            f"{expect.max_switches} (oscillation)"
        )
    if len(controller.decisions) > expect.max_switches:
        violations.append(
            f"oracle flapped: {len(controller.decisions)} switch requests, "
            f"expected at most {expect.max_switches}"
        )

    time_to_switch: Optional[float] = None
    if expect.drift_phase is not None and completions:
        time_to_switch = completions[0][0] - spec.phase_start(expect.drift_phase)
    if expect.max_time_to_switch is not None:
        if time_to_switch is None:
            violations.append(
                f"no switch completed after drift phase "
                f"{expect.drift_phase!r} began"
            )
        elif time_to_switch > expect.max_time_to_switch:
            violations.append(
                f"switch took {time_to_switch:.2f}s after the drift began, "
                f"expected <= {expect.max_time_to_switch}s"
            )

    casts = len(session.cast_slot)
    delivered = session.delivered(live)
    ratio = min(
        (count / casts for count in delivered.values()), default=0.0
    ) if casts else 0.0
    if casts and ratio < expect.min_delivery_ratio:
        violations.append(
            f"worst delivery ratio {ratio:.3f} below the scenario floor "
            f"{expect.min_delivery_ratio}"
        )

    # Drain cost: the SP's own switch spans, via the obs bus.
    histogram = bus.metrics.histogram("switch.duration_s")
    if histogram is not None and histogram.count:
        switch_duration_ms: Optional[float] = histogram.mean * 1e3
    elif completions:
        switch_duration_ms = (
            sum(duration for __, duration in completions)
            / len(completions)
            * 1e3
        )
    else:
        switch_duration_ms = None

    # Throughput at the observer, before vs after the first switch.
    rate_before: Optional[float] = None
    rate_after: Optional[float] = None
    if completions:
        split = completions[0][0]
        before = sum(1 for t in observer_deliveries if t < split)
        after = len(observer_deliveries) - before
        if split > 0:
            rate_before = before / split
        if settle_time > split:
            rate_after = after / (settle_time - split)
    elif settle_time > 0:
        rate_before = len(observer_deliveries) / settle_time

    has_samples = probe.latency.count > 0
    return ScenarioVerdict(
        scenario=spec.name,
        runtime=session.runtime.name,
        seed=spec.seed,
        expected_protocol=expect.protocol,
        final_protocols=finals,
        switches_completed=switches_completed,
        decisions=[
            (d.time, d.from_protocol, d.to_protocol)
            for d in controller.decisions
        ],
        time_to_switch=time_to_switch,
        switch_duration_ms=switch_duration_ms,
        max_hiccup_ms=probe.max_gap * 1e3,
        casts=casts,
        delivered=delivered,
        delivery_ratio=ratio,
        delivered_rate_before=rate_before,
        delivered_rate_after=rate_after,
        mean_latency_ms=probe.mean_ms if has_samples else None,
        p90_latency_ms=probe.quantile_ms(0.90) if has_samples else None,
        settle_time=settle_time,
        duration=spec.duration,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# Sweep cells (see repro.workloads.parallel)
# ---------------------------------------------------------------------------
def scenario_cells(
    names,
    runtime_name: str = "sim",
    directory: Optional[str] = None,
) -> List[Dict[str, Optional[str]]]:
    """One sweep cell per catalog name, in the given (stable) order."""
    return [
        {"name": name, "runtime": runtime_name, "catalog": directory}
        for name in names
    ]


def run_scenario_cell(cell) -> ScenarioVerdict:
    """One scenario run; the executor's (picklable) worker function.

    Each cell re-loads its spec from the catalog inside the worker
    process, and every run builds its own runtime and seeds its own
    streams from the spec — so a parallel catalog sweep is
    value-identical to the serial one (sim runtime only: asyncio runs
    bind real UDP ports and must stay serial).
    """
    from .spec import load_catalog

    spec = load_catalog(cell.get("catalog"))[cell["name"]]
    return run_scenario(spec, cell.get("runtime", "sim"))
