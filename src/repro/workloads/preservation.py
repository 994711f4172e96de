"""Experiment S6: which properties survive live protocol switching.

The paper's §5–§6 prose makes per-property claims about its switching
protocol; this module exercises each claim against *recorded executions*
of the real SP implementation (not the trace calculus — that's
bench_table2's job):

Preserved — Total Order, Reliability (§6.3 notes it is preserved despite
failing Safety), Integrity (under active forgery), Confidentiality
(under a promiscuous-mode eavesdropper on the shared Ethernet).

Not preserved — No Replay (§6.2: same body re-delivered across the
seam), Amoeba (§5.3–5.4: the switch un-blocks a sender awaiting its own
message), Prioritized Delivery (§5.2: SP buffering reorders deliveries
across processes), Virtual Synchrony (§6.1: the switched-to protocol's
epoch evidence is missing / regresses).

Plus the §8 extension: the same workload over :class:`ViewSwitchStack`
*does* preserve Virtual Synchrony.

Each scenario returns a :class:`ScenarioOutcome` with the observed
verdict; most also run a no-switch (or no-defense) control to show the
violation really is the switch's doing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..core.switchable import ProtocolSpec, SwitchableStack
from ..core.view_switch import ViewSwitchStack
from ..net.ethernet import EthernetParams
from ..net.faults import FaultPlan
from ..protocols.amoeba import AmoebaLayer
from ..protocols.confidentiality import ConfidentialityLayer
from ..protocols.crypto import Ciphertext, GroupKey
from ..protocols.fifo import FifoLayer
from ..protocols.integrity import IntegrityLayer
from ..protocols.noreplay import NoReplayLayer
from ..protocols.priority import PrioritizedDeliveryLayer
from ..protocols.reliable import ReliableLayer
from ..protocols.tokenring import TokenRingLayer
from ..protocols.virtual_synchrony import VirtualSynchronyLayer
from ..runtime.api import Runtime
from ..stack.membership import Group
from ..stack.message import Message
from ..traces.properties import (
    Amoeba,
    Confidentiality,
    Integrity,
    NoReplay,
    PrioritizedDelivery,
    Property,
    Reliability,
    TotalOrder,
    VirtualSynchrony,
)
from ..traces.recorder import TraceRecorder
from .session import Session, total_order_specs

__all__ = ["ScenarioOutcome", "run_preservation_suite", "SCENARIOS"]


@dataclass(frozen=True)
class ScenarioOutcome:
    """Result of one preservation scenario."""

    scenario: str
    property_name: str
    paper_ref: str
    expected_holds: bool
    holds: bool
    control_holds: Optional[bool]  # the control run's verdict (if any)
    explanation: Optional[str]  # violation detail when not holding

    @property
    def as_expected(self) -> bool:
        return self.holds == self.expected_holds

    def row(self) -> str:
        """One formatted report line for this outcome."""
        verdict = "holds" if self.holds else "VIOLATED"
        expect = "holds" if self.expected_holds else "VIOLATED"
        agree = "ok" if self.as_expected else "** MISMATCH **"
        ctl = ""
        if self.control_holds is not None:
            ctl = f" control={'holds' if self.control_holds else 'VIOLATED'}"
        return (
            f"{self.scenario:<28} {self.property_name:<22} "
            f"observed={verdict:<9} paper({self.paper_ref})={expect:<9} "
            f"{agree}{ctl}"
        )


# ----------------------------------------------------------------------
# Scenario helpers
# ----------------------------------------------------------------------
def _switch_run(
    specs: List[ProtocolSpec],
    script: Callable[[Runtime, Dict[int, SwitchableStack]], None],
    duration: float = 2.0,
    latency: float = 1e-3,
    slow_links: Sequence[Tuple[int, int, float]] = (),
    faults: Optional[FaultPlan] = None,
    **switching,
) -> Tuple[TraceRecorder, Dict[int, SwitchableStack]]:
    """Run a scripted switching execution of a 4-member group on a PTP
    network; return the recorder (app-level global trace) and the
    stacks.  ``slow_links`` are ``(src, dst, one-way latency)``
    overrides of the base ``latency``; ``switching`` reaches the SP."""
    session = Session(4, 7, latency=latency, faults=faults)
    for src, dst, delay in slow_links:
        session.network.latency.set(src, dst, delay)
    sim = session.runtime
    stacks = session.build(
        Group.of_size(4),
        specs,
        specs[0].name,
        variant="broadcast",
        **switching,
    ).stacks
    recorder = session.record(stacks)
    script(sim, stacks)
    sim.run_until(duration)
    return recorder, stacks


def _steady_casts(
    sim: Runtime,
    stacks: Dict[int, SwitchableStack],
    times_bodies: List[Tuple[float, int, object]],
) -> None:
    for when, rank, body in times_bodies:
        sim.schedule_at(
            when, lambda rank=rank, body=body: stacks[rank].cast(body, 64)
        )


def _outcome(
    scenario: str,
    prop: Property,
    paper_ref: str,
    expected_holds: bool,
    recorder: TraceRecorder,
    control_holds: Optional[bool] = None,
) -> ScenarioOutcome:
    explanation = prop.explain(recorder.trace())
    return ScenarioOutcome(
        scenario=scenario,
        property_name=prop.name,
        paper_ref=paper_ref,
        expected_holds=expected_holds,
        holds=explanation is None,
        control_holds=control_holds,
        explanation=explanation,
    )


# ----------------------------------------------------------------------
# Preserved properties
# ----------------------------------------------------------------------
def scenario_total_order() -> ScenarioOutcome:
    """Total Order survives a sequencer -> token switch under load."""
    specs = total_order_specs(("seq", "tok"), reliable=False)

    def script(sim, stacks):
        schedule = []
        t = 0.005
        for i in range(30):
            schedule.append((t, i % 4, f"m{i}"))
            t += 0.004
        _steady_casts(sim, stacks, schedule)
        sim.schedule_at(0.050, lambda: stacks[2].request_switch("tok"))

    recorder, stacks = _switch_run(specs, script)
    assert all(s.current_protocol == "tok" for s in stacks.values())
    return _outcome(
        "switch under load", TotalOrder(), "section 6.3", True, recorder
    )


def scenario_reliability() -> ScenarioOutcome:
    """Reliability survives switching, over a lossy network."""
    specs = [
        ProtocolSpec("relA", lambda r: [ReliableLayer()]),
        ProtocolSpec("relB", lambda r: [ReliableLayer()]),
    ]

    def script(sim, stacks):
        schedule = [(0.005 + 0.005 * i, i % 4, f"r{i}") for i in range(20)]
        _steady_casts(sim, stacks, schedule)
        sim.schedule_at(0.040, lambda: stacks[0].request_switch("relB"))

    recorder, stacks = _switch_run(
        specs,
        script,
        duration=4.0,
        faults=FaultPlan(loss_rate=0.10, reorder_jitter=0.002),
    )
    assert all(s.current_protocol == "relB" for s in stacks.values())
    return _outcome(
        "switch over 10% loss",
        Reliability(receivers={0, 1, 2, 3}),
        "section 6.3",
        True,
        recorder,
    )


def scenario_integrity() -> ScenarioOutcome:
    """Integrity survives switching while an attacker injects forgeries.

    The attacker is *not* a group member: it attaches a raw endpoint to
    the network and injects messages that mimic the slots' wire format
    with an invalid MAC.  The control run mounts slots without the
    integrity layer; there the forgery is delivered.
    """
    key = GroupKey("group-secret")
    group_size = 4
    attacker_rank = group_size  # extra node, outside the group

    def build_and_run(defended: bool) -> TraceRecorder:
        session = Session(group_size + 1, 11)
        sim, net = session.runtime, session.network
        group = Group.of_size(group_size)
        if defended:
            specs = [
                ProtocolSpec("macA", lambda r: [IntegrityLayer(key)]),
                ProtocolSpec(
                    "macB", lambda r: [FifoLayer(), IntegrityLayer(key)]
                ),
            ]
        else:
            specs = [
                ProtocolSpec("macA", lambda r: []),
                ProtocolSpec("macB", lambda r: [FifoLayer()]),
            ]
        stacks = session.build(
            group, specs, "macA", variant="broadcast"
        ).stacks
        recorder = session.record(stacks)
        attacker_endpoint = net.attach(attacker_rank, lambda pkt: None)

        def inject(channel: int) -> None:
            forged = (
                Message(
                    sender=attacker_rank,
                    mid=(attacker_rank, 0xBAD),
                    body="forged",
                    body_size=16,
                )
                .with_header("mac", "not-a-valid-tag", 32)
                .with_header("mux", channel, 2)
            )
            attacker_endpoint.unicast(1, forged, forged.size_bytes)

        schedule = [(0.005 + 0.004 * i, i % 4, f"i{i}") for i in range(12)]
        _steady_casts(sim, stacks, schedule)
        sim.schedule_at(0.010, lambda: inject(1))  # into macA, pre-switch
        sim.schedule_at(0.030, lambda: stacks[0].request_switch("macB"))
        sim.schedule_at(0.080, lambda: inject(2))  # into macB, post-switch
        sim.run_until(1.0)
        return recorder

    prop = Integrity(trusted=set(range(group_size)))
    control_recorder = build_and_run(defended=False)
    recorder = build_and_run(defended=True)
    return _outcome(
        "forgery across switch", prop, "section 6.3", True, recorder,
        prop.holds(control_recorder.trace()),
    )


def scenario_confidentiality() -> ScenarioOutcome:
    """Confidentiality survives switching under a promiscuous sniffer.

    The group runs on a shared Ethernet segment; an eavesdropper NIC in
    promiscuous mode reads every frame.  With the confidentiality layer
    mounted (data *and* control channels) it can decrypt nothing; the
    undefended control run leaks everything.
    """
    key = GroupKey("conf-secret")
    group_size = 4
    sniffer_id = 99  # identity of the eavesdropper in the trace

    def build_and_run(defended: bool) -> TraceRecorder:
        session = Session(group_size, 13, ethernet=EthernetParams())
        sim, net = session.runtime, session.network
        group = Group.of_size(group_size)

        def conf_layers(extra):
            def factory(rank):
                layers = list(extra())
                if defended:
                    layers.append(ConfidentialityLayer(key))
                return layers

            return factory

        specs = [
            ProtocolSpec("confA", conf_layers(lambda: [])),
            ProtocolSpec("confB", conf_layers(lambda: [FifoLayer()])),
        ]
        stacks = session.build(
            group, specs, "confA", variant="broadcast",
            control_factory=conf_layers(lambda: [ReliableLayer()]),
        ).stacks
        recorder = session.record(stacks)

        def sniff(packet) -> None:
            payload = packet.payload
            if not isinstance(payload, Message):
                return
            if isinstance(payload.body, Ciphertext):
                return  # sealed: the eavesdropper learns nothing
            if payload.body is None:
                return  # empty frames carry no information
            recorder.record_deliver(sniffer_id, payload)

        net.attach_sniffer(sniff)
        schedule = [(0.005 + 0.005 * i, i % 4, f"s{i}") for i in range(12)]
        _steady_casts(sim, stacks, schedule)
        sim.schedule_at(0.035, lambda: stacks[0].request_switch("confB"))
        sim.run_until(1.0)
        return recorder

    prop = Confidentiality(trusted=set(range(group_size)))
    control_recorder = build_and_run(defended=False)
    recorder = build_and_run(defended=True)
    return _outcome(
        "eavesdropper on the wire", prop, "section 6.3", True, recorder,
        prop.holds(control_recorder.trace()),
    )


# ----------------------------------------------------------------------
# Violated properties
# ----------------------------------------------------------------------
def scenario_no_replay() -> ScenarioOutcome:
    """No Replay breaks across a switch: each slot's replay cache is
    fresh, so the same body delivered once per epoch reaches the
    application twice (§6.2)."""
    specs = [
        ProtocolSpec("nrA", lambda r: [NoReplayLayer()]),
        ProtocolSpec("nrB", lambda r: [NoReplayLayer()]),
    ]

    def script(sim, stacks):
        sim.schedule_at(0.005, lambda: stacks[1].cast("duplicate-body", 64))
        sim.schedule_at(0.020, lambda: stacks[0].request_switch("nrB"))
        sim.schedule_at(0.100, lambda: stacks[1].cast("duplicate-body", 64))

    recorder, __ = _switch_run(specs, script)

    # Control: the same double-send without a switch is suppressed.
    def control_script(sim, stacks):
        sim.schedule_at(0.005, lambda: stacks[1].cast("duplicate-body", 64))
        sim.schedule_at(0.100, lambda: stacks[1].cast("duplicate-body", 64))

    control_recorder, __ = _switch_run(specs, control_script)
    prop = NoReplay()
    return _outcome(
        "same body across switch", prop, "section 6.2", False, recorder,
        prop.holds(control_recorder.trace()),
    )


#: Token-ring total order under Amoeba: a sender's own cast takes most
#: of a token rotation to come back, which is the window the switch hits.
_AMOEBA_SPECS = [
    ProtocolSpec("amA", lambda r: [AmoebaLayer(), TokenRingLayer()]),
    ProtocolSpec("amB", lambda r: [AmoebaLayer()]),
]


def _amoeba_script(do_switch: bool, sent_second: List[bool]):
    """Rank 1 casts, the switch (if any) starts while that cast is still
    outstanding, and rank 1 — honestly consulting ``can_send()`` —
    retries a second cast until it is let through (noted in
    ``sent_second``)."""

    def script(sim, stacks):
        def try_second_send() -> None:
            if stacks[1].can_send():
                stacks[1].cast("second", 64)
                sent_second.append(True)
            else:
                sim.schedule(0.001, try_second_send)

        sim.schedule_at(0.004, lambda: stacks[1].cast("first", 64))
        if do_switch:
            sim.schedule_at(0.005, lambda: stacks[0].request_switch("amB"))
        sim.schedule_at(0.006, try_second_send)

    return script


def scenario_amoeba() -> ScenarioOutcome:
    """Amoeba breaks: the switch lets a blocked sender send again while
    its old-protocol message is still outstanding (§5.3–§5.4).

    The old protocol is token-ring total order, so a sender's own cast
    takes most of a token rotation to come back; the switch happens in
    that window, and the application — honestly consulting can_send() —
    is allowed to send over the new protocol.
    """
    recorder, __ = _switch_run(
        _AMOEBA_SPECS, _amoeba_script(True, []), latency=3e-3
    )
    control_recorder, __ = _switch_run(
        _AMOEBA_SPECS, _amoeba_script(False, []), latency=3e-3
    )
    prop = Amoeba()
    return _outcome(
        "unblocked sender", prop, "sections 5.3-5.4", False, recorder,
        prop.holds(control_recorder.trace()),
    )


def scenario_prioritized_delivery() -> ScenarioOutcome:
    """Prioritized Delivery breaks: SP buffering re-orders deliveries
    *across processes* (the Asynchrony failure, §5.2).

    The master's inbound links are slow, so it drains the old protocol
    long after everyone else; a message sent over the new protocol is
    flushed at a fast member before the master's buffered copy."""
    master = 0
    specs = [
        ProtocolSpec("prA", lambda r: [PrioritizedDeliveryLayer(master)]),
        ProtocolSpec("prB", lambda r: [PrioritizedDeliveryLayer(master)]),
    ]
    slow = [(rank, master, 25e-3) for rank in (1, 2, 3)]  # into the master
    slow.append((1, 3, 25e-3))  # initiator's control traffic to rank 3

    def script(do_switch: bool):
        def inner(sim, stacks):
            # rank 3 keeps sending on the old protocol until its late
            # PREPARE arrives.
            schedule = [(0.002 + 0.004 * i, 3, f"old{i}") for i in range(6)]
            _steady_casts(sim, stacks, schedule)
            if do_switch:
                sim.schedule_at(0.003, lambda: stacks[1].request_switch("prB"))
            # rank 2 sends during the switching window (over the new
            # protocol if switching).
            sim.schedule_at(0.008, lambda: stacks[2].cast("during", 64))

        return inner

    recorder, __ = _switch_run(specs, script(True), slow_links=slow)
    control_recorder, __ = _switch_run(specs, script(False), slow_links=slow)
    prop = PrioritizedDelivery(master)
    return _outcome(
        "buffered past the master", prop, "section 5.2", False, recorder,
        prop.holds(control_recorder.trace()),
    )


def scenario_virtual_synchrony() -> ScenarioOutcome:
    """Virtual Synchrony breaks: the switched-to VS protocol announces
    its own epoch, whose view id regresses — the history the new
    protocol never saw (the Memoryless failure, §6.1)."""
    specs = [
        ProtocolSpec(
            "vsA",
            lambda r: [
                VirtualSynchronyLayer(announce="first_activity", namespace=0)
            ],
        ),
        ProtocolSpec(
            "vsB",
            lambda r: [
                VirtualSynchronyLayer(announce="first_activity", namespace=1)
            ],
        ),
    ]

    def script(do_switch: bool):
        def inner(sim, stacks):
            schedule = [(0.004 + 0.004 * i, i % 4, f"v{i}") for i in range(6)]
            _steady_casts(sim, stacks, schedule)
            if do_switch:
                sim.schedule_at(0.030, lambda: stacks[0].request_switch("vsB"))
            later = [(0.080 + 0.004 * i, i % 4, f"w{i}") for i in range(6)]
            _steady_casts(sim, stacks, later)

        return inner

    recorder, __ = _switch_run(specs, script(True))
    control_recorder, __ = _switch_run(specs, script(False))
    prop = VirtualSynchrony()
    return _outcome(
        "epoch regression", prop, "section 6.1", False, recorder,
        prop.holds(control_recorder.trace()),
    )


def scenario_view_switch_preserves_vs() -> ScenarioOutcome:
    """The §8 extension: switching *via a view change* preserves VS."""
    session = Session(4, 17)
    sim, net, streams = session.runtime, session.network, session.streams
    group = Group.of_size(4)
    specs = [
        ProtocolSpec("fifoA", lambda r: [FifoLayer()]),
        ProtocolSpec("fifoB", lambda r: [FifoLayer()]),
    ]
    stacks = {
        rank: ViewSwitchStack(
            sim, net, group, rank, specs, initial="fifoA",
            variant="broadcast", streams=streams.fork(f"rank{rank}"),
        )
        for rank in group
    }
    recorder = session.record(stacks)
    schedule = [(0.004 + 0.004 * i, i % 4, f"x{i}") for i in range(8)]
    _steady_casts(sim, stacks, schedule)
    sim.schedule_at(0.020, lambda: stacks[0].request_switch("fifoB"))
    later = [(0.090 + 0.004 * i, i % 4, f"y{i}") for i in range(8)]
    _steady_casts(sim, stacks, later)
    sim.run_until(1.0)
    assert all(s.current_protocol == "fifoB" for s in stacks.values())
    prop = VirtualSynchrony()
    return _outcome("view-change switching", prop, "section 8", True, recorder)


# ----------------------------------------------------------------------
# Extension scenarios (beyond the paper's own claims)
# ----------------------------------------------------------------------
def scenario_causal_order_preserved() -> ScenarioOutcome:
    """Extension: Causal Order satisfies all six meta-properties (see
    bench_table2 / test_causal_meta), so the section 6.3 theorem predicts
    preservation — confirmed live."""
    from ..protocols.causal import CausalOrderLayer
    from ..traces.properties import CausalOrder

    specs = [
        ProtocolSpec("cA", lambda r: [CausalOrderLayer()]),
        ProtocolSpec("cB", lambda r: [CausalOrderLayer()]),
    ]

    def script(sim, stacks):
        # Causally chained chatter: each delivery may trigger a reply.
        def respond(rank):
            def on_deliver(m):
                if isinstance(m.body, int) and m.body < 4:
                    stacks[rank].cast(m.body + 1, 16)
            return on_deliver

        stacks[1].on_deliver(respond(1))
        stacks[3].on_deliver(respond(3))
        for i in range(6):
            sim.schedule_at(0.003 * (i + 1), lambda i=i: stacks[i % 4].cast(0, 16))
        sim.schedule_at(0.015, lambda: stacks[0].request_switch("cB"))

    recorder, stacks = _switch_run(specs, script)
    assert all(s.current_protocol == "cB" for s in stacks.values())
    return _outcome(
        "causal chains across switch",
        CausalOrder(),
        "extension; theorem sec 6.3",
        True,
        recorder,
    )


def scenario_blocking_sp_preserves_amoeba() -> ScenarioOutcome:
    """Extension (section 8's 'other switching protocols'): a *blocking*
    SP variant queues sends during the switch, which preserves Amoeba —
    the switch cannot complete until the outstanding message drains."""
    sent_second: List[bool] = []
    recorder, __ = _switch_run(
        _AMOEBA_SPECS,
        _amoeba_script(True, sent_second),
        latency=3e-3,
        block_sends_during_switch=True,
    )
    assert sent_second
    # The control is the paper's SP, which violates it (scenario_amoeba).
    return _outcome(
        "blocking SP, waiting sender", Amoeba(), "extension of sec 8", True,
        recorder, False,
    )


#: All paper-claim scenarios in report order.
SCENARIOS: List[Callable[[], ScenarioOutcome]] = [
    scenario_total_order,
    scenario_reliability,
    scenario_integrity,
    scenario_confidentiality,
    scenario_no_replay,
    scenario_amoeba,
    scenario_prioritized_delivery,
    scenario_virtual_synchrony,
    scenario_view_switch_preserves_vs,
]

#: Scenarios for results this repository derives beyond the paper.
EXTENSION_SCENARIOS: List[Callable[[], ScenarioOutcome]] = [
    scenario_causal_order_preserved,
    scenario_blocking_sp_preserves_amoeba,
]


def run_preservation_suite(include_extensions: bool = False) -> List[ScenarioOutcome]:
    """Run every S6 scenario (optionally plus extensions); return outcomes."""
    scenarios = list(SCENARIOS)
    if include_extensions:
        scenarios += EXTENSION_SCENARIOS
    return [scenario() for scenario in scenarios]
