"""Acceptance tests: seeded chaos runs with surgical token loss.

The ISSUE's bar for the fault-tolerant SP: a seeded chaos run that drops
the token mid-PREPARE and mid-FLUSH must complete (or cleanly abort)
within bounded *simulated* time, with the recovery counters showing how
the group got there.  No wall-clock sleeps anywhere — everything runs on
the discrete-event clock.
"""

import pytest
from helpers import switch_group

from repro.core.token_switch import FaultToleranceConfig
from repro.net.faults import FaultDecision, FaultPlan
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.core.switchable import ProtocolSpec
from repro.testing.chaos import ChaosConfig, run_chaos
from repro.traces import Trace
from repro.workloads.session import Session


def drop_control(kind, count=1):
    """An intercept dropping the first ``count`` control copies of ``kind``.

    The chaos runner mounts the SP control channel bare (no reliable
    layer), so a dropped copy is gone for good; only the FT machinery
    can recover it.
    """
    budget = {"left": count}

    def intercept(time, src, dst, channel, payload):
        body = getattr(payload, "body", None)
        if (
            budget["left"] > 0
            and channel == 0
            and isinstance(body, tuple)
            and body
            and body[0] == kind
        ):
            budget["left"] -= 1
            return FaultDecision(drop=True)
        return None

    return intercept


def test_dropped_prepare_token_still_completes():
    """Losing the token mid-PREPARE is healed by a hop retransmission."""
    result = run_chaos(
        ChaosConfig(
            seed=11,
            duration=2.0,
            cast_rate=40.0,
            switch_every=0.5,
            intercept=drop_control("prepare"),
        )
    )
    assert result.ok, result.violations
    assert result.switches_completed >= 1
    assert result.counters.get("hop_retransmits", 0) >= 1
    assert result.settle_time < result.config.duration + result.config.settle


def test_dropped_flush_token_still_completes():
    """Losing the token mid-FLUSH is healed the same way."""
    result = run_chaos(
        ChaosConfig(
            seed=11,
            duration=2.0,
            cast_rate=40.0,
            switch_every=0.5,
            intercept=drop_control("flush"),
        )
    )
    assert result.ok, result.violations
    assert result.switches_completed >= 1
    assert result.counters.get("hop_retransmits", 0) >= 1


def test_sustained_prepare_loss_reroutes_around_silence():
    """Exhausting the hop retry budget suspects the successor and reroutes.

    Dropping every copy of the first PREPARE hop (original + all
    retries) makes the forwarder give up on its successor; the rotation
    must still close by routing around it, and the false suspicion must
    be withdrawn once the member is heard from again.
    """
    result = run_chaos(
        ChaosConfig(
            seed=11,
            duration=3.0,
            cast_rate=40.0,
            switch_every=0.5,
            intercept=drop_control("prepare", count=4),
        )
    )
    assert result.ok, result.violations
    assert result.switches_completed + result.switches_aborted >= 1
    assert result.counters.get("suspected", 0) >= 1
    assert result.counters.get("hop_reroutes", 0) >= 1


def test_quiet_run_reports_a_missed_delivery_as_reliability(monkeypatch):
    """No crash, abort or suspicion: every cast must reach every member,
    and one delivery planted missing is a Reliability violation."""
    recorded = Session.trace

    def last_delivery_at_1_lost(session, live):
        trace = recorded(session, live)
        lost = trace.delivers_at(1)[-1]
        return Trace(event for event in trace if event is not lost)

    monkeypatch.setattr(Session, "trace", last_delivery_at_1_lost)
    result = run_chaos(ChaosConfig(seed=1, duration=1.0))
    assert result.switches_aborted == 0
    assert not result.counters.get("suspected")
    [missed] = result.violations
    assert missed.startswith("Reliability: message ")
    assert missed.endswith(" never delivered at [1]")


@pytest.mark.xfail(
    strict=True,
    reason="a false suspicion on the bare control channel splits the "
    "members' delivery order with no abort (ROADMAP: 'A switch with a "
    "bound: make switching under loss correct, then predictable')",
)
def test_no_abort_run_keeps_total_order_across_slots():
    # bench_chaos.py's loss-0.2 point: 2 suspicions, 0 aborts, ok per slot.
    result = run_chaos(
        ChaosConfig(seed=42, duration=4.0, cast_rate=80.0, control_loss=0.2)
    )
    assert result.total_order is None, result.total_order


def _specs():
    return [
        ProtocolSpec("seq", lambda r: [SequencerLayer(), ReliableLayer()]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer(), ReliableLayer()]),
    ]


def test_undrainable_flush_aborts_back_to_old_protocol():
    """A FLUSH that cannot drain aborts instead of wedging.

    Rank 3 never receives old-slot (``seq``) data, so it can never
    satisfy the drain vector.  The budgeted watchdog must abort the
    switch with a structured outcome and put *every* member back on the
    old protocol.
    """
    victim = 3

    def intercept(time, src, dst, channel, payload):
        if channel == 1 and dst == victim:  # "seq" slot data only
            return FaultDecision(drop=True)
        return None

    ft = FaultToleranceConfig(
        hop_timeout=0.01,
        max_hop_retries=2,
        phase_timeout=0.05,
        normal_timeout=0.1,
        abort_after=3,
    )
    sim, stacks, log = switch_group(
        4,
        _specs(),
        "seq",
        faults=FaultPlan(intercept=intercept),
        token_interval=0.002,
        fault_tolerance=ft,
    )
    outcomes = []
    for rank, stack in stacks.items():
        stack.on_switch_aborted(
            lambda outcome, rank=rank: outcomes.append((rank, outcome))
        )
    sim.schedule(0.01, lambda: stacks[0].cast(("pre-switch", 0)))
    sim.schedule(0.02, lambda: stacks[1].cast(("pre-switch", 1)))
    sim.schedule(0.1, lambda: stacks[0].request_switch("tok"))
    sim.run_until(5.0)

    assert len({rank for rank, __ in outcomes}) == 4, outcomes
    for rank, stack in stacks.items():
        abort = stack.last_abort
        assert abort is not None
        assert abort.old == "seq" and abort.new == "tok"
        assert abort.phase in ("prepare", "switch", "flush", "unknown")
        assert not stack.switching
        assert stack.current_protocol == "seq"
    # All members observed the same dying switch.
    assert len({s.last_abort.switch_id for s in stacks.values()}) == 1
    # The members that could drain still delivered the pre-switch casts.
    assert log.mids(0) == log.mids(1) == log.mids(2)
