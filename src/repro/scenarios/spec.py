"""Scenario specs: the JSON schema of the catalog, loaded and validated.

A *scenario* is a named, machine-checkable story about network
meta-property drift (the paper's reason to switch protocols at all):
a sequence of **phases**, each pinning the network conditions and the
offered workload for a stretch of time, plus an **oracle** policy that
is supposed to notice the drift and an **expectation** describing the
adaptation a correct oracle produces — which protocol the group should
end on, how many switches are tolerable, and how quickly the switch
must land after the drift begins.

Specs live as JSON files under ``repro/scenarios/catalog/`` (mirroring
the mosh-lite testbed layout) so adding a scenario is a data change,
not a code change.  :func:`load_catalog` loads and validates the whole
directory; :meth:`ScenarioSpec.load` is the single validation choke
point, so a malformed spec fails loudly at load time rather than twenty
simulated seconds into a run.

Each dataclass below is the one declaration of its JSON object: its
fields are the keys (read closed by :func:`repro.records.load`), a key
that may be absent is an ``omitted`` field whose default lives only
there, and ``__post_init__`` holds the range, enum and cross-field
checks.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from .. import records
from ..core.signals import SIGNALS
from ..errors import RecordError, ScenarioError
from ..records import omitted

__all__ = [
    "CrashSpec",
    "ExpectSpec",
    "GroupSpec",
    "OracleSpec",
    "PhaseNet",
    "PhaseSpec",
    "ScenarioSpec",
    "SettleSpec",
    "Workload",
    "catalog_dir",
    "load_catalog",
    "load_scenario",
]

#: Protocol slot names every scenario group switches between (the same
#: pair the ``repro run`` demo uses).
PROTOCOLS = ("sequencer", "tokenring")

#: Runtimes a scenario may declare.
RUNTIMES = ("sim", "asyncio")

#: What the SP's private control channel runs over: a reliable layer, or
#: nothing, so that the fault-tolerant token machinery alone must ride
#: out loss on it.
CONTROL = ("reliable", "bare")

#: The channels a phase's probabilistic faults hit.
SCOPES = ("all", "control")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise ScenarioError(message)


def _at_least(name: str, value: float, minimum: float) -> None:
    _check(value >= minimum, f"{name} must be >= {minimum}, got {value}")


def _one_of(name: str, value: str, allowed: Tuple[str, ...]) -> None:
    _check(value in allowed, f"{name} must be one of {allowed}, got {value!r}")


@dataclass(frozen=True)
class GroupSpec:
    """Group shape: who runs, on what protocol they start, and what
    carries the SP's control channel (see :data:`CONTROL`)."""

    members: int = omitted(default=6)
    initial: str = omitted(default="sequencer")
    token_interval: float = omitted(default=0.005)
    control: str = omitted(default="reliable")

    def __post_init__(self) -> None:
        _check(self.members >= 2, "members must be an int >= 2")
        _one_of("initial", self.initial, PROTOCOLS)
        _at_least("token_interval", self.token_interval, 1e-6)
        _one_of("control", self.control, CONTROL)


@dataclass(frozen=True)
class OracleSpec:
    """The adaptation policy under test: a hysteresis band over a signal.

    ``low=None`` makes the oracle latching (it escalates to
    ``high_protocol`` and never returns on its own).
    """

    signal: str
    high: float
    low_protocol: str
    high_protocol: str
    low: Optional[float] = omitted(default=None)
    dwell: float = omitted(default=1.0)
    poll: float = omitted(default=0.1)
    window: float = omitted(default=0.5)

    def __post_init__(self) -> None:
        _check(
            self.signal in SIGNALS,
            f"unknown signal {self.signal!r}; known: {SIGNALS}",
        )
        _one_of("low_protocol", self.low_protocol, PROTOCOLS)
        _one_of("high_protocol", self.high_protocol, PROTOCOLS)
        _check(
            self.low_protocol != self.high_protocol,
            "low and high protocol are the same",
        )
        _check(
            self.low is None or self.low <= self.high,
            f"hysteresis band inverted ({self.low} > {self.high})",
        )
        _at_least("dwell", self.dwell, 0.0)
        _at_least("poll", self.poll, 1e-6)
        _at_least("window", self.window, 1e-6)


@dataclass(frozen=True)
class PhaseNet:
    """Network conditions during one phase (sim runtime only).

    ``latency_ms`` is the uniform one-way latency of the mesh; ``loss``
    and ``dup`` are per-copy probabilities; ``jitter_ms`` is the max
    uniform extra delay (which reorders close-together packets).
    ``scope`` is the channels those three hit: ``all``, or only the SP's
    ``control`` channel.
    """

    latency_ms: float = omitted(default=1.0)
    loss: float = omitted(default=0.0)
    dup: float = omitted(default=0.0)
    jitter_ms: float = omitted(default=0.0)
    scope: str = omitted(default="all")

    def __post_init__(self) -> None:
        _at_least("latency_ms", self.latency_ms, 0.0)
        for name in ("loss", "dup"):
            _at_least(name, getattr(self, name), 0.0)
            _check(getattr(self, name) < 1.0, f"{name} must be < 1.0")
        _at_least("jitter_ms", self.jitter_ms, 0.0)
        _one_of("scope", self.scope, SCOPES)

    @property
    def clean(self) -> bool:
        """True when this phase injects no impairment at all."""
        return self == PhaseNet()


@dataclass(frozen=True)
class Workload:
    """A phase's offered load: ``senders`` generators at ``rate`` casts/s
    each (the scenario checks ``senders`` against the group size)."""

    senders: int
    rate: float

    def __post_init__(self) -> None:
        _at_least("rate", self.rate, 1e-6)


@dataclass(frozen=True)
class PhaseSpec:
    """One stretch of the scenario: fixed conditions, fixed workload."""

    name: str
    duration: float
    workload: Workload
    net: PhaseNet = omitted(default_factory=PhaseNet)

    def __post_init__(self) -> None:
        _check(bool(self.name), "phase name must be a non-empty string")
        _at_least("duration", self.duration, 1e-6)


@dataclass(frozen=True)
class CrashSpec:
    """Crash member ``rank`` fail-silent at ``at`` seconds; it recovers
    at ``until``, or never when ``until`` is omitted."""

    rank: int
    at: float
    until: Optional[float] = omitted(default=None)

    def __post_init__(self) -> None:
        _at_least("rank", self.rank, 0)
        _at_least("at", self.at, 0.0)
        if self.until is not None:
            _check(
                self.until > self.at,
                f"until {self.until} is not after at {self.at}",
            )


@dataclass(frozen=True)
class ExpectSpec:
    """The machine-checkable verdict contract.

    Attributes:
        protocol: the protocol every live member must end on (null: any
            protocol they agree on).
        max_switches: ceiling on completed switches (0 = stability
            scenario: the oracle must hold its ground through the storm;
            null: no ceiling).
        drift_phase: the phase whose *start* is t=0 for the
            time-to-switch clock (None for stability scenarios).
        max_time_to_switch: ceiling, in seconds after the drift phase
            begins, on when the (first) switch completes group-wide.
        min_delivery_ratio: floor on delivered/cast for every live
            member after settling (loss scenarios prove the reliable
            layer cleans up behind the faults).
    """

    protocol: Optional[str]
    max_switches: Optional[int] = omitted(default=1)
    drift_phase: Optional[str] = omitted(default=None)
    max_time_to_switch: Optional[float] = omitted(default=None)
    min_delivery_ratio: float = omitted(default=0.9)

    def __post_init__(self) -> None:
        if self.protocol is not None:
            _one_of("protocol", self.protocol, PROTOCOLS)
        _check(
            self.max_switches is None or self.max_switches >= 0,
            "max_switches must be an int >= 0",
        )
        if self.max_time_to_switch is not None:
            _at_least("max_time_to_switch", self.max_time_to_switch, 1e-6)
            _check(
                self.drift_phase is not None,
                "max_time_to_switch needs a drift_phase anchor",
            )
        _at_least("min_delivery_ratio", self.min_delivery_ratio, 0.0)
        _check(
            self.min_delivery_ratio <= 1.0,
            "min_delivery_ratio must be <= 1.0",
        )


@dataclass(frozen=True)
class SettleSpec:
    """Convergence grace after the last phase: up to ``windows`` windows
    of ``window`` seconds (0 windows: convergence is judged once, at
    the horizon)."""

    windows: int = omitted(default=20)
    window: float = omitted(default=0.5)

    def __post_init__(self) -> None:
        _check(self.windows >= 0, "windows must be an int >= 0")
        _at_least("window", self.window, 1e-6)


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully validated run: a catalog entry, or a chaos run.

    Switches are requested by exactly one of two sources: ``oracle``, a
    hysteresis controller that asks the coordinator, or
    ``switch_every``, a fixed cadence whose requester is a member drawn
    at random (0: no requests), which exercises concurrent initiators.
    ``crashes`` are at absolute times (sim runtime only).
    """

    name: str
    summary: str
    phases: Tuple[PhaseSpec, ...]
    expect: ExpectSpec
    oracle: Optional[OracleSpec] = omitted(default=None)
    switch_every: Optional[float] = omitted(default=None)
    crashes: Tuple[CrashSpec, ...] = omitted(default=())
    runtimes: Tuple[str, ...] = omitted(default=("sim",))
    seed: int = omitted(default=42)
    group: GroupSpec = omitted(default_factory=GroupSpec)
    settle: SettleSpec = omitted(default_factory=SettleSpec)

    def __post_init__(self) -> None:
        _check(bool(self.name), "name must be a non-empty string")
        _check(bool(self.summary), "summary must be a non-empty string")
        _check(
            bool(self.runtimes) and set(self.runtimes) <= set(RUNTIMES),
            f"runtimes must be a non-empty subset of {RUNTIMES}",
        )
        _check(bool(self.phases), "phases must be a non-empty array")
        members = self.group.members
        for index, phase in enumerate(self.phases):
            _check(
                1 <= phase.workload.senders <= members,
                f"phases[{index}].workload.senders: must be an int in "
                f"[1, {members}]",
            )
        names = [phase.name for phase in self.phases]
        _check(len(set(names)) == len(names), f"duplicate phase names in {names}")
        drift = self.expect.drift_phase
        _check(
            drift is None or drift in names,
            f"expect.drift_phase {drift!r} names no phase (have {names})",
        )
        _check(
            (self.oracle is None) != (self.switch_every is None),
            "set exactly one of oracle and switch_every",
        )
        if self.switch_every is not None:
            _at_least("switch_every", self.switch_every, 0.0)
        for crash in self.crashes:
            _check(
                crash.rank < members,
                f"crash rank {crash.rank} is not a member (members={members})",
            )
        forever = {c.rank for c in self.crashes if c.until is None}
        _check(
            members - len(forever) >= 2,
            "crashes must leave at least two members alive",
        )
        # The oracle must be able to express the expectation, and the
        # asyncio runtime can neither inject faults nor crash a member.
        if self.oracle is not None:
            band = (self.oracle.low_protocol, self.oracle.high_protocol)
            _check(
                self.expect.protocol in band,
                f"expected protocol {self.expect.protocol!r} is not a side "
                f"of the oracle's band",
            )
            _check(
                self.group.initial in band,
                f"initial protocol {self.group.initial!r} is not a side of "
                f"the oracle's band",
            )
        if "asyncio" in self.runtimes:
            _check(
                not self.crashes,
                "crashes need the sim runtime; restrict runtimes to ['sim']",
            )
            dirty = [p.name for p in self.phases if not p.net.clean]
            _check(
                not dirty,
                f"asyncio runtime cannot inject simulated faults, but "
                f"phases {dirty} set net conditions; restrict runtimes to "
                f"['sim']",
            )
            _check(
                self.oracle is None or self.oracle.signal != "loss_ratio",
                "loss_ratio reads the simulated network's drop counters, "
                "which real UDP does not expose; restrict runtimes to "
                "['sim']",
            )

    @staticmethod
    def load(data: Any) -> "ScenarioSpec":
        """Read one catalog entry closed; any fault is a ``ScenarioError``
        naming where it is (``scenario.phases[1].net: loss must be
        < 1.0``)."""
        try:
            return records.load(ScenarioSpec, data, "scenario")
        except RecordError as exc:
            raise ScenarioError(str(exc)) from exc

    @property
    def duration(self) -> float:
        """Total scripted duration (excluding settle windows)."""
        return sum(phase.duration for phase in self.phases)

    def phase_start(self, name: str) -> float:
        """Absolute start time of the named phase."""
        time = 0.0
        for phase in self.phases:
            if phase.name == name:
                return time
            time += phase.duration
        raise ScenarioError(f"scenario {self.name!r} has no phase {name!r}")


# ----------------------------------------------------------------------
# Catalog loading
# ----------------------------------------------------------------------
def catalog_dir() -> str:
    """The directory holding the shipped scenario JSON files."""
    return os.path.join(os.path.dirname(os.path.abspath(__file__)), "catalog")


def load_scenario(path: str) -> ScenarioSpec:
    """Load and validate one scenario JSON file."""
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario file {path!r} is not valid JSON: {exc}")
    spec = ScenarioSpec.load(data)
    stem = os.path.splitext(os.path.basename(path))[0]
    if spec.name != stem:
        raise ScenarioError(
            f"scenario file {path!r} is named {stem!r} but declares "
            f"name={spec.name!r}; keep them equal so `repro scenario "
            f"<name>` stays unambiguous"
        )
    return spec


def load_catalog(directory: Optional[str] = None) -> Dict[str, ScenarioSpec]:
    """Load every ``*.json`` scenario in ``directory``, keyed by name.

    Files load in sorted order, so the catalog iteration order (and
    everything derived from it — sweep cells, artifacts) is stable.
    """
    directory = directory or catalog_dir()
    try:
        entries = sorted(os.listdir(directory))
    except OSError as exc:
        raise ScenarioError(f"cannot list catalog directory {directory!r}: {exc}")
    catalog: Dict[str, ScenarioSpec] = {}
    for entry in entries:
        if not entry.endswith(".json"):
            continue
        spec = load_scenario(os.path.join(directory, entry))
        catalog[spec.name] = spec
    if not catalog:
        raise ScenarioError(f"no scenario files found under {directory!r}")
    return catalog
