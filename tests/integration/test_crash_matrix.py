"""Crash matrix: every member crashes once in every SP phase.

For each (victim, phase) pair the victim fail-silently crashes the
moment it observes a token of that phase; the survivors must converge to
completion-or-abort — same protocol everywhere, nobody stuck mid-switch
— within bounded simulated time.  "normal" covers a member that dies
before the switch even starts (the prepare rotation has to route around
the corpse); the other phases kill a member mid-choreography.
"""

import pytest

from helpers import switch_group

from repro.core.switchable import ProtocolSpec
from repro.core.token_switch import FaultToleranceConfig
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer

MEMBERS = 4
PHASES = ("normal", "prepare", "switch", "flush")

FT = FaultToleranceConfig(
    hop_timeout=0.01,
    max_hop_retries=2,
    phase_timeout=0.06,
    normal_timeout=0.12,
    abort_after=3,
)


def _specs():
    return [
        ProtocolSpec("seq", lambda r: [SequencerLayer(), ReliableLayer()]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer(), ReliableLayer()]),
    ]


def _build(victim, phase, initiator):
    sim, stacks, log = switch_group(
        MEMBERS, _specs(), "seq", token_interval=0.002, fault_tolerance=FT
    )
    network = stacks[0].port.network
    fired = {"crashed": False}

    def crash_on_phase(kind, gen, switch_id):
        if kind == phase and not fired["crashed"]:
            fired["crashed"] = True
            network.fail_node(victim)

    stacks[victim].protocol.on_token(crash_on_phase)
    # Some old-protocol traffic so the drain is real work.
    for i in range(MEMBERS):
        sim.schedule(
            0.005 + 0.002 * i, lambda r=i: stacks[r].cast(("warmup", r))
        )
    sim.schedule(0.05, lambda: stacks[initiator].request_switch("tok"))
    return sim, stacks, network, fired


def _assert_survivors_converge(sim, stacks, survivors):
    for __ in range(60):
        sim.run_for(0.25)
        idle = all(not stacks[r].switching for r in survivors)
        agreed = len({stacks[r].current_protocol for r in survivors}) == 1
        if idle and agreed:
            return
    states = {
        r: (stacks[r].current_protocol, stacks[r].switching)
        for r in survivors
    }
    pytest.fail(f"survivors did not converge within 15s sim: {states}")


@pytest.mark.parametrize("phase", PHASES)
@pytest.mark.parametrize("victim", range(MEMBERS))
def test_crash_in_phase_converges(victim, phase):
    # The initiator is always a survivor here; the victim-as-initiator
    # case is exercised separately below.
    initiator = (victim + 1) % MEMBERS
    sim, stacks, network, fired = _build(victim, phase, initiator)
    sim.run_until(2.0)
    assert fired["crashed"], f"rank {victim} never observed a {phase} token"

    survivors = [r for r in range(MEMBERS) if r != victim]
    _assert_survivors_converge(sim, stacks, survivors)
    completed = any(
        stacks[r].protocol.stats.get("globally_complete") for r in survivors
    )
    aborted = any(stacks[r].last_abort is not None for r in survivors)
    assert completed or aborted, "switch neither completed nor aborted"


@pytest.mark.parametrize("phase", ("prepare", "switch", "flush"))
def test_initiator_crash_in_phase_converges(phase):
    """The initiator dies mid-choreography; a survivor must take over.

    The initiator first observes its own rotation's token when it comes
    back around, so crashing on that observation kills the member that
    holds the switch together — exactly the takeover path.
    """
    victim = initiator = 1
    sim, stacks, network, fired = _build(victim, phase, initiator)
    sim.run_until(2.0)
    assert fired["crashed"], f"initiator never observed a {phase} token"

    survivors = [r for r in range(MEMBERS) if r != victim]
    _assert_survivors_converge(sim, stacks, survivors)
    completed = any(
        stacks[r].protocol.stats.get("globally_complete") for r in survivors
    )
    aborted = any(stacks[r].last_abort is not None for r in survivors)
    assert completed or aborted, "switch neither completed nor aborted"
    # Someone had to step in for the dead initiator.
    recovery_effort = sum(
        stacks[r].protocol.stats.get("takeovers")
        + stacks[r].protocol.stats.get("regenerated_tokens")
        for r in survivors
    )
    assert recovery_effort >= 1


def test_crash_then_recovery_rejoins_the_group():
    """A member that recovers mid-switch is pulled back to the group view."""
    victim = 2
    sim, stacks, network, fired = _build(victim, "prepare", initiator=0)
    sim.schedule(1.0, lambda: network.recover_node(victim))
    sim.run_until(2.0)
    assert fired["crashed"]

    # After recovery *everyone* — victim included — must converge.
    _assert_survivors_converge(sim, stacks, list(range(MEMBERS)))
    assert network.stats.get("node_failures") == 1
    assert network.stats.get("node_recoveries") == 1
