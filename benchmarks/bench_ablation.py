"""Ablations of the switching-protocol design choices (DESIGN.md §7).

1. **Token at rest** — the token variant's NORMAL token rests where the
   last switch ended and a quiet group sends nothing.  A switch asked
   for at the resting member starts at once; asked for anywhere else it
   costs one ``want`` and one hand-over first (two one-way delays).
   Either way the only control packets in five otherwise idle seconds
   are the switch's own three rotations.
2. **Variant comparison** — token (3 rotations, serialized initiations)
   vs. broadcast (PREPARE/OK/SWITCH, manager-driven): switch duration on
   an otherwise idle group.
3. **Drain dependence** — the paper's observed "hitch": switching away
   from a *slow* protocol costs more, because the SP must wait for all
   of its in-flight messages ("The overhead of switching depends on the
   latency of the current protocol").
"""

from repro.core.switchable import ProtocolSpec, build_group_handle
from repro.net.ptp import LatencyMatrix, PointToPointNetwork
from repro.protocols.fifo import FifoLayer
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.stack.membership import Group
from repro.workloads.experiment import (
    Figure2Config,
    run_switch_overhead_experiment,
)


def _measure_switch(
    variant, requester=0, request_at=0.05, layers=None, control=None
):
    sim = Simulator()
    net = PointToPointNetwork(sim, 10, rng=RandomStreams(3))
    group = Group.of_size(10)
    factory = layers or (lambda r: [FifoLayer()])
    specs = [ProtocolSpec("A", factory), ProtocolSpec("B", factory)]
    stacks = build_group_handle(
        sim, net, group, specs, initial="A", variant=variant,
        control_factory=control,
    ).stacks
    durations = []
    request_to_done = []
    stacks[requester].protocol.on_global_complete(
        lambda __, d: (durations.append(d), request_to_done.append(sim.now - request_at))
    )
    sim.schedule_at(request_at, lambda: stacks[requester].request_switch("B"))
    sim.run_until(5.0)
    control_packets = sum(
        s.port.stats.get("unicast") + s.port.stats.get("multicast")
        for s in stacks.values()
    )
    return {
        "duration_ms": durations[0] * 1e3 if durations else float("nan"),
        "request_to_done_ms": request_to_done[0] * 1e3 if request_to_done else float("nan"),
        "packets": control_packets,
    }


def test_ablation_token_at_rest(benchmark, report):
    # A bare control channel, so every port send is the SP's own.
    def bare(rank):
        return []

    def run():
        return {
            "resting member": _measure_switch("token", 0, control=bare),
            "non-holder": _measure_switch("token", 5, control=bare),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: the token at rest (idle 10-member group, one switch)",
        "",
        f"{'requested at':<16} {'request->done':>14} {'packets(5s)':>12}",
    ]
    for where, r in results.items():
        lines.append(
            f"{where:<16} {r['request_to_done_ms']:>12.1f}ms {r['packets']:>12}"
        )
    lines.append("")
    lines.append("a quiet group sends nothing: the packets are the switch's")
    lines.append("three rotations, plus one want and one hand-over when the")
    lines.append("requester does not hold the token.")
    report("ablation_token_at_rest.txt", "\n".join(lines))

    holder, other = results["resting member"], results["non-holder"]
    rotations = 3 * 10
    assert holder["packets"] == rotations
    assert other["packets"] == rotations + 2
    # One want out, one hand-over back: two one-way delays.
    fetch_ms = other["request_to_done_ms"] - holder["request_to_done_ms"]
    assert 0 < fetch_ms <= holder["duration_ms"] / rotations * 2 * 1.5


def test_ablation_variant_comparison(benchmark, report):
    def run():
        return {
            "token": _measure_switch("token"),
            "broadcast": _measure_switch("broadcast"),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: SP variant (idle 10-member group)",
        "",
        f"{'variant':<12} {'switch duration':>16}",
    ]
    for name, r in results.items():
        lines.append(f"{name:<12} {r['duration_ms']:>14.1f}ms")
    lines.append("")
    lines.append("the broadcast variant is faster (1 round trip + vector")
    lines.append("broadcast vs. 3 token rotations) but cannot serialize")
    lines.append("concurrent initiations — the paper's stated reason for")
    lines.append("the token design.")
    report("ablation_variant.txt", "\n".join(lines))

    assert results["broadcast"]["duration_ms"] < results["token"]["duration_ms"]


def test_ablation_blocking_vs_nonblocking_sp(benchmark, report):
    """Extension ablation: blocking sends during the switch widens the
    preserved property class (Amoeba-style send restrictions survive;
    see the preservation bench) but introduces a send-latency hiccup the
    paper's SP is designed to avoid."""
    from repro.protocols.tokenring import TokenRingLayer

    def measure(blocking):
        sim = Simulator()
        net = PointToPointNetwork(sim, 6, rng=RandomStreams(5))
        group = Group.of_size(6)
        specs = [
            ProtocolSpec("A", lambda r: [TokenRingLayer()]),
            ProtocolSpec("B", lambda r: [TokenRingLayer()]),
        ]
        stacks = build_group_handle(
            sim, net, group, specs, initial="A", variant="broadcast",
            block_sends_during_switch=blocking,
        ).stacks
        # Steady senders; measure worst send-to-first-delivery latency
        # for messages submitted around the switch.
        latencies = []
        sent_at = {}
        for rank, stack in stacks.items():
            stack.on_deliver(
                lambda m: latencies.append(sim.now - sent_at[m.mid])
                if m.mid in sent_at and sim.now - sent_at[m.mid] >= 0
                else None
            )

        def cast(rank, i):
            mid = stacks[rank].cast(("m", i), 64)
            sent_at[mid] = sim.now

        for i in range(40):
            sim.schedule_at(0.004 * (i + 1), lambda i=i: cast(i % 6, i))
        sim.schedule_at(0.05, lambda: stacks[0].request_switch("B"))
        sim.run_until(3.0)
        blocked = sum(
            s.core.stats.get("sends_blocked") for s in stacks.values()
        )
        return max(latencies) * 1e3, blocked

    def run():
        return {
            "non-blocking (paper)": measure(False),
            "blocking (extension)": measure(True),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: blocking vs. non-blocking SP (token-ring slots, one",
        "switch under a 6-member steady workload)",
        "",
        f"{'variant':<22} {'worst latency':>14} {'sends queued':>13}",
    ]
    for name, (worst, blocked) in results.items():
        lines.append(f"{name:<22} {worst:>12.1f}ms {blocked:>13}")
    lines.append("")
    lines.append("the blocking variant preserves send-restriction properties")
    lines.append("(Amoeba) at the cost of queueing sends mid-switch.")
    report("ablation_blocking.txt", "\n".join(lines))

    non_blocking = results["non-blocking (paper)"]
    blocking = results["blocking (extension)"]
    assert non_blocking[1] == 0  # the paper's SP never queues a send
    assert blocking[1] > 0  # the extension does


def test_ablation_drain_depends_on_old_protocol_latency(benchmark, report):
    """'The overhead of switching depends on the latency of the current
    protocol (the one that is being switched away from).'"""
    config = Figure2Config(duration=3.5, warmup=0.75, seed=42)

    def run():
        return {
            "sequencer->token": run_switch_overhead_experiment(
                6, "sequencer->token", config
            ),
            "token->sequencer": run_switch_overhead_experiment(
                6, "token->sequencer", config
            ),
        }

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    lines = [
        "Ablation: drain time depends on the OLD protocol's latency",
        "(6 active senders: in-flight token messages take most of a",
        " rotation to drain; in-flight sequencer messages drain in two",
        " network hops plus queueing)",
        "",
        f"{'direction':<20} {'switch duration':>16}",
    ]
    for name, r in results.items():
        lines.append(f"{name:<20} {r.switch_duration_ms:>14.1f}ms")
    lines.append("")
    lines.append("leaving the high-latency token protocol costs more: its")
    lines.append("in-flight messages take most of a rotation to drain.")
    report("ablation_drain.txt", "\n".join(lines))

    assert (
        results["token->sequencer"].switch_duration_ms
        > results["sequencer->token"].switch_duration_ms
    )
