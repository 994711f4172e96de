#!/usr/bin/env python3
"""Run-time security escalation (§1, third use case).

"System managers will be able to increase security at run-time, for
example when an intrusion detection system notices unusual behavior, or
when it gets close to April 1st."

A group chats in the clear on a shared Ethernet segment.  An
eavesdropper NIC in promiscuous mode reads everything — until the
intrusion detector fires and the group switches, live, to a stack with
MAC authentication and body encryption.  The eavesdropper goes blind and
forged injections stop getting through, with no restart and no lost
messages.

Run:  python examples/security_escalation.py
"""

from repro import ProtocolSpec, Simulator, build_group_handle
from repro.core import AdaptiveController, ManualOracle
from repro.net import EthernetNetwork, EthernetParams
from repro.protocols import (
    Ciphertext,
    ConfidentialityLayer,
    GroupKey,
    IntegrityLayer,
)
from repro.sim import RandomStreams
from repro.stack import Group, Message

GROUP_SIZE = 4
INTRUSION_DETECTED_AT = 0.5


def main() -> None:
    sim = Simulator()
    streams = RandomStreams(13)
    network = EthernetNetwork(sim, GROUP_SIZE, EthernetParams(), rng=streams)
    group = Group.of_size(GROUP_SIZE)
    key = GroupKey("emergency-rekey-2001-04-01")

    protocols = [
        ProtocolSpec("plain", lambda rank: []),
        ProtocolSpec(
            "secure",
            lambda rank: [IntegrityLayer(key), ConfidentialityLayer(key)],
        ),
    ]
    handle = build_group_handle(sim, network, group, protocols, initial="plain")
    stacks = handle.stacks

    deliveries = {rank: [] for rank in group}
    for rank, stack in stacks.items():
        stack.on_deliver(
            lambda msg, rank=rank: deliveries[rank].append(msg.body)
        )

    # The eavesdropper: a promiscuous NIC on the same segment.
    overheard = []

    def sniff(packet) -> None:
        payload = packet.payload
        if isinstance(payload, Message) and payload.body is not None:
            if isinstance(payload.body, Ciphertext):
                return  # sealed: nothing learned
            overheard.append((sim.now, payload.body))

    network.attach_sniffer(sniff)

    # The intrusion detector: a manual oracle the operator can fire.
    oracle = ManualOracle()
    controller = AdaptiveController()
    controller.watch(handle, oracle)
    controller.start(sim, 0.02)
    sim.schedule_at(
        INTRUSION_DETECTED_AT, lambda: oracle.escalate("secure")
    )

    # Group traffic before and after the escalation.
    secrets = []
    for i in range(20):
        body = f"quarterly-numbers-{i}"
        secrets.append(body)
        sim.schedule_at(
            0.08 * (i + 1), lambda i=i, body=body: stacks[i % GROUP_SIZE].cast(body, 128)
        )

    sim.run_until(5.0)

    leaked = [body for __, body in overheard if isinstance(body, str) and body.startswith("quarterly")]
    leaked_after = [
        body
        for when, body in overheard
        if isinstance(body, str) and body.startswith("quarterly") and when > 1.0
    ]
    print(f"messages overheard in the clear (total): {len(leaked)}")
    print(f"messages overheard after escalation settled (t>1s): {len(leaked_after)}")
    assert leaked, "before the escalation, the wire really was readable"
    assert not leaked_after, "after the escalation, the eavesdropper is blind"

    # The application never noticed: every member got every message.
    for rank in group:
        assert sorted(deliveries[rank]) == sorted(secrets)
    print(f"all {len(secrets)} messages delivered at all members")
    print(f"protocol now: {stacks[0].current_protocol}")


if __name__ == "__main__":
    main()
