"""Count once: every owner's ``stats`` is what the registry reports.

A component counts in its own :class:`~repro.obs.metrics.Counter`; an
enabled bus attaches it at wiring time and reads it when a snapshot is
taken.  These runs build real stacks on every network model, walk every
owner of a ``stats`` they contain, and demand that the snapshot's
counters are exactly those owners' keys under their prefixes, summed —
nothing unreachable, and nothing counted on the side under another name.
"""

import json
import re
from pathlib import Path

import pytest

import repro.cli as cli
from repro.fleet import GroupManager
from repro.net.ethernet import EthernetParams
from repro.net.ptp import PointToPointNetwork
from repro.obs.bus import Bus
from repro.runtime import Simulator
from repro.scenarios.runner import run_scenario
from repro.testing import ChaosConfig
from repro.workloads import switchrun
from repro.workloads.session import Session, total_order_specs
from repro.workloads.switchrun import SLOT_NAMES, SwitchRunConfig

BASE_PORT = 48610
DOC = Path(__file__).resolve().parents[2] / "docs" / "OBSERVABILITY.md"


def stack_owners(stack, suffix=""):
    """``(prefix, suffix, stats)`` for every counting part of a stack."""
    owners = [
        ("core", suffix, stack.core.stats),
        ("sp", suffix, stack.protocol.stats),
        ("mux", suffix, stack.mux.stats),
    ]
    for layer in stack._all_layers:  # every slot and control layer
        stats = getattr(layer, "stats", None)
        if stats is not None:
            owners.append((layer.name, suffix, stats))
    return owners


def expected(owners):
    totals = {}
    for prefix, suffix, stats in owners:
        for key, value in stats.as_dict().items():
            name = f"{prefix}.{key}{suffix}"
            totals[name] = totals.get(name, 0) + value
    return totals


def counters(bus):
    return dict(bus.metrics.snapshot()["counters"])


def switch_run(runtime, **session_args):
    """The switch demo on a session we keep hold of, with an enabled bus."""
    bus = Bus(enabled=True)
    config = SwitchRunConfig(
        runtime=runtime, duration=1.5, switch_at=0.5, rate=30.0,
        base_port=BASE_PORT,
    )
    with Session(
        config.members, config.seed, runtime, base_port=BASE_PORT, bus=bus,
        **session_args,
    ) as session:
        result = switchrun._drive(session, config)
        network = session.network
        owners = [("net", "", network.stats)]
        if hasattr(network, "codec"):
            owners.append(("codec", "", network.codec.stats))
        for stack in session.stacks.values():
            owners.append(("port", "", stack.port.stats))
            owners.extend(stack_owners(stack))
        # Read both sides at one instant: closing the sockets still
        # counts stragglers.
        seen, want = counters(bus), expected(owners)
    assert result.ok, result.violations
    return seen, want


@pytest.mark.parametrize(
    "runtime,session_args",
    [
        ("sim", {}),
        ("sim", {"ethernet": EthernetParams()}),
        ("asyncio", {}),
    ],
    ids=["ptp", "ethernet", "udp"],
)
def test_every_owner_of_a_switch_run_is_reachable(runtime, session_args):
    seen, want = switch_run(runtime, **session_args)
    assert seen == want
    members = SwitchRunConfig().members
    assert seen["net.sends"] > 0 and seen["net.deliveries"] > 0
    assert seen["sp.initiated"] == 1
    assert seen["core.switches_completed"] == members
    assert seen["seqr.ordered"] > 0


def test_fleet_owners_are_reachable_with_group_labels():
    runtime = Simulator()
    network = PointToPointNetwork(runtime, 4)
    bus = Bus(clock=runtime, enabled=True)
    network.instrument(bus)
    manager = GroupManager(runtime, network, bus=bus)
    handles = [
        manager.create_group(members, total_order_specs(SLOT_NAMES), SLOT_NAMES[0])
        for members in ([0, 1, 2], [1, 2, 3])
    ]
    for handle in handles:
        for rank in handle.group:
            handle.cast(rank, ("hello", rank))
    handles[0].request_switch(SLOT_NAMES[1])
    runtime.run_for(2.0)

    owners = [("net", "", network.stats), ("manager", "", manager.stats)]
    for port in manager.ports.values():
        owners.append(("port", "", port.stats))
    for handle in handles:
        for stack in handle.stacks.values():
            owners.extend(stack_owners(stack, f"[g{handle.group_id}]"))
    seen = counters(bus)
    assert seen == expected(owners)
    assert seen["manager.groups_created"] == 2
    assert seen["sp.globally_complete[g1]"] == 1
    assert "sp.globally_complete[g2]" not in seen
    assert seen["port.received"] > 0


def test_chaos_counters_are_the_bus_counters():
    """A verdict's ``counters`` fold SP, core and network stats by key;
    the bus keeps them apart by prefix and must add up to the same."""
    bus = Bus(enabled=True)
    result = run_scenario(
        ChaosConfig(seed=7, duration=3.0, control_loss=0.15).spec(), bus=bus
    )
    assert result.ok, result.violations
    seen = counters(bus)
    for key, value in result.counters.items():
        assert sum(seen.get(f"{p}.{key}", 0) for p in ("sp", "core", "net")) == value
    assert seen["sp.hop_retransmits"] > 0


def documented_prefixes():
    """``{prefix: "present" column}`` from OBSERVABILITY.md's counter table."""
    rows = re.findall(r"^\| `([a-z]+)\.` \| .* \| ([^|]+) \|$", DOC.read_text(), re.M)
    return {prefix: present.strip() for prefix, present in rows}


def traced_prefixes(tmp_path, *flags):
    metrics = tmp_path / "metrics.json"
    assert cli.main(
        ["run", "--runtime", "sim", "--duration", "2", "--switch-at", "1",
         "--metrics", str(metrics), *flags]
    ) == 0
    return {name.split(".")[0] for name in json.loads(metrics.read_text())["counters"]}


def test_the_documented_prefixes_are_what_a_traced_run_reports(tmp_path, capsys):
    table = documented_prefixes()
    always = {prefix for prefix, present in table.items() if present == "always"}
    batch = {prefix for prefix, present in table.items() if present == "`--batch`"}
    assert always and batch
    assert traced_prefixes(tmp_path) == always
    assert traced_prefixes(tmp_path, "--batch", "4") == always | batch
    capsys.readouterr()
