#!/usr/bin/env python3
"""Quickstart: switch a live group between two total-order protocols.

Builds a four-member group whose stack mounts sequencer-based and
token-ring total order under the paper's switching protocol, sends
messages before, during, and after a runtime switch, and verifies the
two guarantees that make the SP useful:

* total order is preserved across the switch, and
* every process delivers all old-protocol messages before any
  new-protocol message.

Run:  python examples/quickstart.py
"""

from repro import ProtocolSpec, Simulator, build_group_handle
from repro.net import PointToPointNetwork
from repro.protocols import SequencerLayer, TokenRingLayer
from repro.stack import Group
from repro.traces import TotalOrder, TraceRecorder


def main() -> None:
    sim = Simulator()
    network = PointToPointNetwork(sim, 4)
    group = Group.of_size(4)

    # Two subordinate protocols, mounted under the switching protocol.
    protocols = [
        ProtocolSpec("sequencer", lambda rank: [SequencerLayer()]),
        ProtocolSpec("token", lambda rank: [TokenRingLayer()]),
    ]
    stacks = build_group_handle(
        sim, network, group, protocols, initial="sequencer"
    ).stacks

    # Observe deliveries at every member, and record the global trace.
    deliveries = {rank: [] for rank in group}
    for rank, stack in stacks.items():
        stack.on_deliver(
            lambda msg, rank=rank: deliveries[rank].append(msg.body)
        )
    recorder = TraceRecorder(sim)
    recorder.attach_all(stacks)

    # Phase 1: everyone multicasts over the sequencer protocol.
    for i in range(4):
        sim.schedule_at(0.002 * (i + 1), lambda i=i: stacks[i].cast(f"pre-{i}"))

    # Phase 2: member 2's oracle decides to switch; sends keep flowing.
    sim.schedule_at(0.02, lambda: stacks[2].request_switch("token"))
    for i in range(4):
        sim.schedule_at(0.025 + 0.002 * i, lambda i=i: stacks[i].cast(f"mid-{i}"))

    # Phase 3: messages after the switch completes.
    for i in range(4):
        sim.schedule_at(0.2 + 0.002 * i, lambda i=i: stacks[i].cast(f"post-{i}"))

    sim.run_until(1.0)

    print("Delivery order at member 0:")
    for body in deliveries[0]:
        print(f"  {body}")

    assert all(s.current_protocol == "token" for s in stacks.values())
    assert all(deliveries[r] == deliveries[0] for r in group), (
        "every member delivered the same sequence"
    )
    pre = [i for i, b in enumerate(deliveries[0]) if b.startswith("pre")]
    rest = [i for i, b in enumerate(deliveries[0]) if not b.startswith("pre")]
    assert max(pre) < min(rest), "old-protocol messages drained first"
    assert TotalOrder().holds(recorder.trace()), "total order preserved"

    print()
    print("current protocol everywhere:", stacks[0].current_protocol)
    print("total order preserved across the switch: yes")
    print("old-before-new delivery invariant:       yes")


if __name__ == "__main__":
    main()
