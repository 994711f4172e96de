"""Execute one scenario spec and score it into a :class:`ScenarioVerdict`.

This is the one fault-injection runner.  It compiles a
:class:`~repro.scenarios.spec.ScenarioSpec` into a live run: the
fault-tolerant switchable group (sequencer + token ring under the
token-variant SP), Poisson senders per member, and one of two switch
sources — an :class:`~repro.core.oracle.AdaptiveController` polling a
:class:`~repro.core.oracle.HysteresisOracle` over the spec's named
signal, or a fixed cadence whose requester is drawn from the
``switches`` stream.  The scripted phases retune the workload and — on
the simulated mesh — swap the live :class:`~repro.net.faults.FaultPlan`
and base latency at each phase boundary; scripted crashes silence a
member (and its sender) until it recovers.  ``repro chaos`` compiles
its flags into such a spec (:mod:`repro.testing.chaos`).

After the phases play out and the group settles, the scorer applies the
shared correctness oracle — convergence, then No Replay and per-slot
Total Order over the live members' trace, and on a quiet run (no crash,
no abort, no suspicion) Reliability — *plus* the spec's adaptation
contract: did the group end on the expected protocol, with no more
switches than allowed, fast enough after the drift began, without
losing workload?  Total Order over the whole trace is observed, not
judged: an abort may reorder the two slots' messages, and a false
suspicion can split the order with no abort at all.
Switch drain cost comes from the obs bus's ``switch.duration_s``
histogram and the latency probe's worst inter-delivery hiccup.

On the sim runtime the whole run is deterministic: same spec, same
verdict, byte for byte — which is what lets the catalog's verdicts be
checked into the repo and diffed in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, ClassVar, Dict, List, Optional, Tuple

from ..core.oracle import AdaptiveController, HysteresisOracle
from ..core.signals import SignalTracker
from ..core.token_switch import FaultToleranceConfig
from ..errors import RecordError, ScenarioError
from ..net.faults import FaultPlan, Intercept
from ..obs.bus import Bus
from ..records import dump, omitted
from ..stack.membership import Group
from ..traces.properties import Reliability, TotalOrder
from ..workloads.generator import Payload
from ..workloads.latency import LatencyProbe
from ..workloads.session import Session, total_order_specs
from .spec import PROTOCOLS, PhaseSpec, ScenarioSpec

__all__ = [
    "ScenarioSuite",
    "ScenarioVerdict",
    "run_scenario",
    "run_scenario_cell",
    "scenario_cells",
]

#: Latency samples before this horizon are start-of-run transients.
WARMUP = 0.25

#: The counters :meth:`ScenarioVerdict.summary` reports when non-zero.
RECOVERY_COUNTERS = (
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


@dataclass
class ScenarioVerdict:
    """The scored outcome of one scenario run.

    ``violations`` holds every broken expectation; an empty list means
    the scenario passed.  All other fields are evidence: what the oracle
    decided and the signal value it acted on, how long the switch took,
    what the workload saw, and ``counters`` — the SP, core and network
    stats summed over the group.  ``total_order`` is the whole-trace
    Total Order note, omitted while the order holds: an observation,
    not a violation.
    """

    scenario: str
    runtime: str
    seed: int
    expected_protocol: Optional[str]
    final_protocols: Dict[int, str]
    switches_completed: int
    switches_aborted: int
    decisions: List[Tuple[float, str, str, Optional[float]]]
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
    counters: Dict[str, int]
    violations: List[str] = field(default_factory=list)
    total_order: Optional[str] = omitted(default=None)

    #: The keys a decision tuple is written under.
    DECISION: ClassVar[Tuple[str, ...]] = ("time", "from", "to", "signal")

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> Dict[str, Any]:
        return dump(self)

    def _json_out(self, data: Dict[str, Any]) -> Dict[str, Any]:
        data["ok"] = self.ok
        data["decisions"] = [
            dict(zip(self.DECISION, d)) for d in self.decisions
        ]
        return data

    @classmethod
    def _json_in(cls, data: Dict[str, Any], where: str) -> Dict[str, Any]:
        data = dict(data)
        ok = data.pop("ok", None)
        if ok is not (not data.get("violations")):
            raise RecordError(f"{where}: ok={ok!r} does not match violations")
        decisions = data.get("decisions")
        if isinstance(decisions, list):
            if not all(
                isinstance(d, dict) and set(d) == set(cls.DECISION)
                for d in decisions
            ):
                raise RecordError(
                    f"{where}.decisions: expected {{time, from, to, signal}} "
                    f"objects"
                )
            data["decisions"] = [
                [d[key] for key in cls.DECISION] for d in decisions
            ]
        return data

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
        recovery = {
            k: self.counters[k] for k in RECOVERY_COUNTERS if self.counters.get(k)
        }
        lines = [
            f"[{status}] {self.scenario} ({self.runtime}, seed={self.seed}, "
            f"{self.duration}s, settled at t={self.settle_time:.2f}s)",
            f"  protocol: expected={self.expected_protocol or 'any'} "
            f"final={self.final_protocols}",
            f"  switches: completed={self.switches_completed} "
            f"aborted={self.switches_aborted} "
            f"decisions={len(self.decisions)}",
            f"  adaptation: time-to-switch={tts} drain={switch} "
            f"hiccup={self.max_hiccup_ms:.1f}ms",
            f"  workload: casts={self.casts} "
            f"delivered/member={sorted(self.delivered.values())} "
            f"delivery_ratio={self.delivery_ratio:.3f}",
            f"  recovery counters: {recovery}",
            f"  whole-trace total order (observed): "
            f"{self.total_order or 'holds'}",
        ]
        if self.violations:
            lines.append("  VIOLATIONS:")
            lines.extend(f"    - {v}" for v in self.violations)
        else:
            lines.append("  oracle: all properties hold")
        return "\n".join(lines)


@dataclass
class ScenarioSuite:
    """The JSON artifact of one scenario sweep: every verdict, by name.

    ``repro scenario --json`` writes it, as does
    ``benchmarks/sweeprunner.py`` under ``sweeps.scenarios`` and
    ``sweeps.chaos``.
    """

    runtime: str
    scenarios: Dict[str, ScenarioVerdict]
    schema_version: int = 1
    suite: str = "scenarios"

    def __post_init__(self) -> None:
        if self.suite != "scenarios":
            raise ScenarioError(f"suite name is {self.suite!r}")


def _plan(phase: PhaseSpec, intercept: Optional[Intercept]) -> FaultPlan:
    """The phase's network conditions as a live fault plan."""
    return FaultPlan(
        loss_rate=phase.net.loss,
        duplicate_rate=phase.net.dup,
        reorder_jitter=phase.net.jitter_ms / 1e3,
        channels=frozenset({0}) if phase.net.scope == "control" else None,
        intercept=intercept,
    )


def run_scenario(
    spec: ScenarioSpec,
    runtime_name: str = "sim",
    bus: Optional[Bus] = None,
    base_port: int = 47610,
    intercept: Optional[Intercept] = None,
) -> ScenarioVerdict:
    """Run ``spec`` on the named runtime and score the outcome.

    Args:
        spec: a validated catalog entry, or a compiled chaos run.
        runtime_name: "sim" or "asyncio"; must be declared by the spec
            (asyncio runs are wall-clock over real localhost UDP and
            cannot inject faults, which the spec validator enforces).
        bus: optional instrumentation bus; the runner creates a private
            enabled one when omitted (the scorer needs the
            ``switch.duration_s`` histogram either way).
        base_port: first UDP port (asyncio runtime only).
        intercept: a per-copy fault override for every phase (tests
            only: a callable is not part of a spec); see
            :data:`repro.net.faults.Intercept`.
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
        faults=_plan(spec.phases[0], intercept),
        base_port=base_port,
        bus=bus,
    ) as session:
        return _drive(session, spec, intercept)


def _drive(
    session: Session, spec: ScenarioSpec, intercept: Optional[Intercept]
) -> ScenarioVerdict:
    runtime, network = session.runtime, session.network
    group = Group.of_size(spec.group.members)
    sim_network = runtime.name == "sim"
    bare = spec.group.control == "bare"
    handle = session.build(
        group,
        total_order_specs(PROTOCOLS),
        spec.group.initial,
        token_interval=spec.group.token_interval,
        control_factory=(lambda __: []) if bare else None,
        # The resilient token variant: the SP itself must ride out loss
        # on its control traffic.
        fault_tolerance=FaultToleranceConfig(),
    )
    stacks = handle.stacks
    session.record(stacks)
    probe = session.probe(WARMUP)
    probe.attach_all(stacks)
    aborted = set()
    for stack in stacks.values():
        stack.on_switch_aborted(lambda outcome: aborted.add(outcome.switch_id))

    # Built idle: each phase starts, retunes or stops them.
    senders = [
        session.sender(stacks[rank], spec.phases[0].workload.rate)
        for rank in group
    ]

    # The observer rank feeds the latency/throughput signals.
    observer = group.coordinator
    observer_deliveries: List[float] = []

    def observe(msg) -> None:
        payload = Payload.read(msg.body)
        if payload is not None:
            observer_deliveries.append(runtime.now)
            if tracker is not None:
                tracker.record_delivery(
                    msg.sender, runtime.now - payload.sent_at
                )

    stacks[observer].on_deliver(observe)

    # --- the switch source: the adaptation loop under test, or a cadence
    controller = AdaptiveController()
    tracker: Optional[SignalTracker] = None
    if spec.oracle is not None:
        tracker = SignalTracker(
            runtime,
            spec.oracle.window,
            senders,
            network=network if sim_network else None,
        )
        for stack in stacks.values():
            stack.on_send(lambda msg: tracker.record_cast())
        controller.watch(
            handle,
            HysteresisOracle(
                tracker.metric(spec.oracle.signal),
                spec.oracle.low,
                spec.oracle.high,
                spec.oracle.low_protocol,
                spec.oracle.high_protocol,
                min_dwell=spec.oracle.dwell,
            ),
        )
    completions: List[Tuple[float, float]] = []  # (completed_at, duration)
    stacks[observer].protocol.on_global_complete(
        lambda __, duration: completions.append((runtime.now, duration))
    )

    # --- compile the script ---------------------------------------------
    current = spec.phases[0]

    def load(rank: int) -> None:
        """Run ``rank``'s sender iff its phase wants it, its node is up
        and the horizon is not reached."""
        sender = senders[rank]
        if (
            rank < current.workload.senders
            and session.alive(rank)
            and runtime.now < spec.duration
        ):
            sender.retune(current.workload.rate)
            sender.start()
        else:
            sender.stop()

    def apply_phase(phase: PhaseSpec) -> None:
        nonlocal current
        current = phase
        if sim_network:
            network.set_faults(_plan(phase, intercept))
            network.latency.set_base(phase.net.latency_ms / 1e3)
        for rank in group:
            load(rank)

    def crash(rank: int) -> None:
        network.fail_node(rank)
        load(rank)

    def recover(rank: int) -> None:
        network.recover_node(rank)
        load(rank)

    apply_phase(spec.phases[0])
    start = 0.0
    for phase in spec.phases:
        if start > 0.0:
            runtime.schedule_at(start, lambda p=phase: apply_phase(p))
        start += phase.duration
    for window in spec.crashes:
        runtime.schedule_at(window.at, lambda r=window.rank: crash(r))
        if window.until is not None:
            runtime.schedule_at(window.until, lambda r=window.rank: recover(r))
    if spec.oracle is not None:
        controller.start(runtime, spec.oracle.poll)
    elif spec.switch_every:
        requesters = session.streams.stream("switches")
        time, flip = spec.switch_every, 1
        while time < spec.duration:
            target = PROTOCOLS[flip % len(PROTOCOLS)]
            requester = requesters.randrange(spec.group.members)
            runtime.schedule_at(
                time,
                lambda r=requester, to=target: stacks[r].request_switch(to),
            )
            time += spec.switch_every
            flip += 1

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
        len(aborted),
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
    switches_aborted: int,
) -> ScenarioVerdict:
    """Fold the raw run outcome into a scored verdict."""
    expect = spec.expect
    bus, stacks = session.bus, session.stacks
    forever = {crash.rank for crash in spec.crashes if crash.until is None}
    live = [rank for rank in group if rank not in forever]
    # The shared correctness oracle.
    finals, broken = session.check_order(live)
    violations.extend(broken)
    counters: Dict[str, int] = {}
    for stack in stacks.values():
        for source in (stack.protocol.stats, stack.core.stats):
            for key, value in source.as_dict().items():
                counters[key] = counters.get(key, 0) + value
    for key, value in session.network.stats.as_dict().items():
        counters[key] = counters.get(key, 0) + value
    trace = session.trace(live)
    # Reliability is eventual delivery: judged only on a quiet run that
    # had a settle window to drain the casts in flight at the horizon.
    quiet = not (spec.crashes or switches_aborted or counters.get("suspected"))
    if quiet and spec.settle.windows:
        missed = Reliability(live).explain(trace)
        if missed is not None:
            violations.append(f"{Reliability.name}: {missed}")

    # Adaptation contract.
    wrong = {r: p for r, p in finals.items() if p != expect.protocol}
    if wrong and expect.protocol is not None:
        violations.append(
            f"expected the group on {expect.protocol!r}, but {wrong}"
        )
    # The most switches any live member completed (a takeover can report
    # one switch's global completion twice, so globally_complete can't).
    switches_completed = max(stacks[r].core.switches_completed for r in live)
    if expect.max_switches is not None:
        if switches_completed > expect.max_switches:
            violations.append(
                f"{switches_completed} switches completed, expected at most "
                f"{expect.max_switches} (oscillation)"
            )
        if len(controller.decisions) > expect.max_switches:
            violations.append(
                f"oracle flapped: {len(controller.decisions)} switch "
                f"requests, expected at most {expect.max_switches}"
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
        switches_aborted=switches_aborted,
        decisions=[
            (d.time, d.current, d.target, d.signal)
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
        counters=counters,
        violations=violations,
        total_order=TotalOrder().explain(trace),
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

    A cell carries its ``spec`` inline, or a catalog ``name`` that is
    re-loaded inside the worker process.  Every run builds its own
    runtime and seeds its own streams from the spec — so a parallel
    sweep is value-identical to the serial one (sim runtime only:
    asyncio runs bind real UDP ports and must stay serial).
    """
    from .spec import load_catalog

    spec = cell.get("spec") or load_catalog(cell.get("catalog"))[cell["name"]]
    return run_scenario(spec, cell.get("runtime", "sim"))
