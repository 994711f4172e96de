"""Model-based (stateful) testing of the token SP's resting token.

A hypothesis rule-based state machine drives a real simulated group of
baseline :class:`TokenSwitchProtocol` members, on the default (reliable)
control stack, through random interleavings of time, casts and switch
requests made at any member for any protocol, and checks the three
oracles of "the SP token at rest" (docs/PROTOCOLS.md):

* **conservation** — after every simulated event exactly one of: one
  member resting, one NORMAL hand-over in flight, one switch in
  progress;
* **liveness** — at quiescence no member is left wanting a protocol
  that is not the current one, after at most one hand-over per want
  announced to each other member;
* **agreement** — every member ends on the same protocol and the order
  oracle of the shared harness is clean.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    precondition,
    rule,
)

from helpers import tokens_in_play
from repro.core.switchable import ProtocolSpec
from repro.protocols.reliable import ReliableLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.stack.membership import Group
from repro.workloads.session import Session

NAMES = ("seq", "tok", "seq2")
MAX_REQUESTS = 6


def specs():
    return [
        ProtocolSpec("seq", lambda r: [SequencerLayer(), ReliableLayer()]),
        ProtocolSpec("tok", lambda r: [TokenRingLayer(), ReliableLayer()]),
        ProtocolSpec("seq2", lambda r: [SequencerLayer(), ReliableLayer()]),
    ]


class TokenRestMachine(RuleBasedStateMachine):
    @initialize(members=st.sampled_from((3, 4)), seed=st.integers(0, 1000))
    def build(self, members, seed):
        self.session = Session(members, seed=seed)
        self.handle = self.session.build(Group.of_size(members), specs(), NAMES[0])
        self.stacks = self.handle.stacks
        self.session.record(self.stacks)
        self.requests = 0
        self._check_conservation()

    def _check_conservation(self):
        assert tokens_in_play(self.stacks) == 1
        resting = [r for r, s in self.stacks.items() if s.holds_token]
        assert self.handle.token_holder == (resting[0] if resting else None)

    def _run_for(self, dt):
        runtime = self.session.runtime
        until = runtime.now + dt
        while runtime.now < until and runtime.step():
            self._check_conservation()

    # ------------------------------------------------------------------
    @rule(dt=st.floats(0.0005, 0.05))
    def tick(self, dt):
        self._run_for(dt)

    @rule(index=st.integers(0, 3))
    def cast(self, index):
        rank = index % len(self.stacks)
        self.stacks[rank].cast(("m", rank, self.session.runtime.now))
        self._check_conservation()

    @precondition(lambda self: self.requests < MAX_REQUESTS)
    @rule(index=st.integers(0, 3), to=st.sampled_from(NAMES))
    def request_switch(self, index, to):
        self.requests += 1
        self.stacks[index % len(self.stacks)].request_switch(to)
        self._check_conservation()

    # ------------------------------------------------------------------
    def teardown(self):
        stacks = self.stacks
        self._run_for(3.0)  # ≤ 6 switches of a few ms each, then quiet
        self._check_conservation()
        assert not any(s.switching for s in stacks.values())
        finals, violations = self.session.check_order(list(stacks))
        assert not violations, violations
        current = finals[0]
        for rank, stack in stacks.items():
            assert stack.protocol.pending_request in (None, current), (
                f"rank {rank} still wants {stack.protocol.pending_request!r} "
                f"on {current!r}"
            )
        assert self.handle.token_holder is not None
        stats = [s.protocol.stats for s in stacks.values()]
        wants = sum(s.get("wants_sent") for s in stats)
        assert sum(s.get("handovers") for s in stats) <= wants * (len(stacks) - 1)
        # Everyone delivered every cast: nothing is owed at quiescence.
        delivered = {len(mids) for mids in self.session.deliveries.values()}
        assert len(delivered) == 1
        self.session.close()


TestTokenRestMachine = TokenRestMachine.TestCase
TestTokenRestMachine.settings = settings(
    max_examples=40, stateful_step_count=30, deadline=None
)
