"""Model-based (stateful) testing of the FT token SP phase machine.

A hypothesis rule-based state machine drives a real simulated group of
:class:`ResilientTokenSwitchProtocol` members through random
interleavings of time, casts, switch requests, control-token loss and
crash/recovery, checking the machine's safety properties as it goes:

* generations observed at a member never go backwards (regenerated
  tokens supersede, stragglers are dropped);
* while a member is mid-switch its phase is a real SP phase and its
  sends go to the new slot;
* the application never sees a duplicate delivery;
* after the storm, the group always converges to completion-or-abort —
  every live member idle on the same protocol.
"""

import hypothesis.strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule

from repro.core.switchable import ProtocolSpec, build_switch_group
from repro.core.token_switch import _PHASE, FaultToleranceConfig
from repro.net.faults import FaultDecision, FaultPlan
from repro.net.ptp import LatencyMatrix, PointToPointNetwork
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group

MEMBERS = 3

FT = FaultToleranceConfig(
    hop_timeout=0.01,
    max_hop_retries=2,
    phase_timeout=0.06,
    normal_timeout=0.12,
    abort_after=3,
)


class TokenPhaseMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.sim = Simulator()
        self.drop_budget = 0  # control copies to swallow (token loss)

        def intercept(time, src, dst, channel, payload):
            if channel == 0 and self.drop_budget > 0:
                self.drop_budget -= 1
                return FaultDecision(drop=True)
            return None

        streams = RandomStreams(9)
        self.network = PointToPointNetwork(
            self.sim,
            MEMBERS,
            latency=LatencyMatrix(MEMBERS, 1e-3),
            faults=FaultPlan(intercept=intercept),
            rng=streams,
        )
        group = Group.of_size(MEMBERS)
        specs = [
            ProtocolSpec("seq", lambda r: [SequencerLayer(), ReliableLayer()]),
            ProtocolSpec("tok", lambda r: [TokenRingLayer(), ReliableLayer()]),
        ]
        self.stacks = build_switch_group(
            self.sim,
            self.network,
            group,
            specs,
            initial="seq",
            variant="token",
            token_interval=0.002,
            # Bare control channel: losses hit the FT machinery directly.
            control_factory=lambda __: [],
            streams=streams,
            fault_tolerance=FT,
        )
        self.delivered = {r: [] for r in group}
        self.gen_seen = {}
        self.crashed = set()
        for rank, stack in self.stacks.items():
            stack.on_deliver(
                lambda msg, rank=rank: self.delivered[rank].append(msg.mid)
            )
            stack.protocol.on_token(
                lambda kind, gen, sid, rank=rank: self._observe(rank, gen)
            )

    def _observe(self, rank, gen):
        last = self.gen_seen.get(rank)
        assert last is None or gen >= last, (
            f"generation went backwards at rank {rank}: {last} -> {gen}"
        )
        self.gen_seen[rank] = gen

    def _check_safety(self):
        for rank, stack in self.stacks.items():
            mids = self.delivered[rank]
            assert len(mids) == len(set(mids)), f"duplicates at rank {rank}"
            if stack.core.switching:
                assert stack.core.send_slot == stack.core.new
                assert stack.protocol._active is None or (
                    stack.protocol._active[1] in _PHASE.values()
                )
            else:
                assert stack.core.send_slot == stack.core.current

    # ------------------------------------------------------------------
    @rule(dt=st.floats(0.005, 0.15))
    def tick(self, dt):
        self.sim.run_for(dt)
        self._check_safety()

    @rule(rank=st.sampled_from(range(MEMBERS)))
    def cast(self, rank):
        if rank not in self.crashed:
            self.stacks[rank].cast(("m", rank, self.sim.now))
        self._check_safety()

    @rule(rank=st.sampled_from(range(MEMBERS)))
    def request_switch(self, rank):
        if rank not in self.crashed:
            stack = self.stacks[rank]
            to = "tok" if stack.current_protocol == "seq" else "seq"
            stack.request_switch(to)
        self._check_safety()

    @rule(n=st.integers(1, 4))
    def lose_control_tokens(self, n):
        self.drop_budget += n

    @rule(rank=st.sampled_from(range(MEMBERS)))
    def crash(self, rank):
        # Keep a live majority: at most one member down at a time.
        if not self.crashed:
            self.crashed.add(rank)
            self.network.fail_node(rank)

    @rule()
    def recover(self):
        if self.crashed:
            rank = self.crashed.pop()
            self.network.recover_node(rank)

    # ------------------------------------------------------------------
    def teardown(self):
        # End of the storm: stop losing tokens, revive everyone, and the
        # group must converge — completion-or-abort, never a wedge.
        self.drop_budget = 0
        while self.crashed:
            self.network.recover_node(self.crashed.pop())
        for __ in range(80):
            self.sim.run_for(0.25)
            idle = all(not s.switching for s in self.stacks.values())
            finals = {s.current_protocol for s in self.stacks.values()}
            if idle and len(finals) == 1:
                break
        else:
            states = {
                r: (s.current_protocol, s.switching)
                for r, s in self.stacks.items()
            }
            raise AssertionError(f"group never converged: {states}")
        self._check_safety()


TestTokenPhaseMachine = TokenPhaseMachine.TestCase
TestTokenPhaseMachine.settings = __import__("hypothesis").settings(
    max_examples=20, stateful_step_count=25, deadline=None, derandomize=True
)
