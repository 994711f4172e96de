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
directory; :func:`ScenarioSpec.from_dict` is the single validation
choke point, so a malformed spec fails loudly at load time rather than
twenty simulated seconds into a run.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.signals import SIGNALS
from ..errors import ScenarioError

__all__ = [
    "ExpectSpec",
    "GroupSpec",
    "OracleSpec",
    "PhaseNet",
    "PhaseSpec",
    "ScenarioSpec",
    "SettleSpec",
    "catalog_dir",
    "load_catalog",
    "load_scenario",
]

#: Protocol slot names every scenario group switches between (the same
#: pair the ``repro run`` demo uses).
PROTOCOLS = ("sequencer", "tokenring")

#: Runtimes a scenario may declare.
RUNTIMES = ("sim", "asyncio")


def _require(mapping: Mapping[str, Any], key: str, where: str) -> Any:
    if key not in mapping:
        raise ScenarioError(f"{where}: missing required field {key!r}")
    return mapping[key]


def _number(value: Any, where: str, minimum: Optional[float] = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{where}: expected a number, got {value!r}")
    value = float(value)
    if value != value:  # JSON's NaN literal parses to a float
        raise ScenarioError(f"{where}: expected a number, got NaN")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{where}: must be >= {minimum}, got {value}")
    return value


def _unknown_keys(mapping: Mapping[str, Any], known: Sequence[str], where: str) -> None:
    extra = set(mapping) - set(known)
    if extra:
        raise ScenarioError(f"{where}: unknown field(s) {sorted(extra)}")


@dataclass(frozen=True)
class GroupSpec:
    """Group shape: who runs, and on what protocol they start."""

    members: int = 6
    initial: str = "sequencer"
    token_interval: float = 0.005

    @staticmethod
    def from_dict(data: Mapping[str, Any], where: str) -> "GroupSpec":
        _unknown_keys(data, ("members", "initial", "token_interval"), where)
        members = data.get("members", 6)
        if not isinstance(members, int) or members < 2:
            raise ScenarioError(f"{where}: members must be an int >= 2")
        initial = data.get("initial", "sequencer")
        if initial not in PROTOCOLS:
            raise ScenarioError(
                f"{where}: initial must be one of {PROTOCOLS}, got {initial!r}"
            )
        return GroupSpec(
            members=members,
            initial=initial,
            token_interval=_number(
                data.get("token_interval", 0.005), f"{where}.token_interval", 1e-6
            ),
        )


@dataclass(frozen=True)
class OracleSpec:
    """The adaptation policy under test: a hysteresis band over a signal.

    ``low=None`` makes the oracle latching (it escalates to
    ``high_protocol`` and never returns on its own).
    """

    signal: str
    high: float
    low: Optional[float]
    low_protocol: str
    high_protocol: str
    dwell: float = 1.0
    poll: float = 0.1
    window: float = 0.5

    @staticmethod
    def from_dict(data: Mapping[str, Any], where: str) -> "OracleSpec":
        _unknown_keys(
            data,
            ("signal", "high", "low", "low_protocol", "high_protocol",
             "dwell", "poll", "window"),
            where,
        )
        signal = _require(data, "signal", where)
        if signal not in SIGNALS:
            raise ScenarioError(
                f"{where}: unknown signal {signal!r}; known: {SIGNALS}"
            )
        low_protocol = _require(data, "low_protocol", where)
        high_protocol = _require(data, "high_protocol", where)
        for name, value in (("low_protocol", low_protocol),
                            ("high_protocol", high_protocol)):
            if value not in PROTOCOLS:
                raise ScenarioError(
                    f"{where}.{name}: must be one of {PROTOCOLS}, got {value!r}"
                )
        if low_protocol == high_protocol:
            raise ScenarioError(f"{where}: low and high protocol are the same")
        high = _number(_require(data, "high", where), f"{where}.high")
        low = data.get("low")
        if low is not None:
            low = _number(low, f"{where}.low")
            if low > high:
                raise ScenarioError(
                    f"{where}: hysteresis band inverted ({low} > {high})"
                )
        return OracleSpec(
            signal=signal,
            high=high,
            low=low,
            low_protocol=low_protocol,
            high_protocol=high_protocol,
            dwell=_number(data.get("dwell", 1.0), f"{where}.dwell", 0.0),
            poll=_number(data.get("poll", 0.1), f"{where}.poll", 1e-6),
            window=_number(data.get("window", 0.5), f"{where}.window", 1e-6),
        )


@dataclass(frozen=True)
class PhaseNet:
    """Network conditions during one phase (sim runtime only).

    ``latency_ms`` is the uniform one-way latency of the mesh; ``loss``
    and ``dup`` are per-copy probabilities; ``jitter_ms`` is the max
    uniform extra delay (which reorders close-together packets).
    """

    latency_ms: float = 1.0
    loss: float = 0.0
    dup: float = 0.0
    jitter_ms: float = 0.0

    @property
    def clean(self) -> bool:
        """True when this phase injects no impairment at all."""
        return (
            self.loss == 0.0
            and self.dup == 0.0
            and self.jitter_ms == 0.0
            and self.latency_ms == 1.0
        )

    @staticmethod
    def from_dict(data: Mapping[str, Any], where: str) -> "PhaseNet":
        _unknown_keys(data, ("latency_ms", "loss", "dup", "jitter_ms"), where)
        loss = _number(data.get("loss", 0.0), f"{where}.loss", 0.0)
        dup = _number(data.get("dup", 0.0), f"{where}.dup", 0.0)
        for name, value in (("loss", loss), ("dup", dup)):
            if value >= 1.0:
                raise ScenarioError(f"{where}.{name}: must be < 1.0")
        return PhaseNet(
            latency_ms=_number(
                data.get("latency_ms", 1.0), f"{where}.latency_ms", 0.0
            ),
            loss=loss,
            dup=dup,
            jitter_ms=_number(data.get("jitter_ms", 0.0), f"{where}.jitter_ms", 0.0),
        )


@dataclass(frozen=True)
class PhaseSpec:
    """One stretch of the scenario: fixed conditions, fixed workload."""

    name: str
    duration: float
    senders: int
    rate: float
    net: PhaseNet = field(default_factory=PhaseNet)

    @staticmethod
    def from_dict(data: Mapping[str, Any], where: str, members: int) -> "PhaseSpec":
        _unknown_keys(data, ("name", "duration", "workload", "net"), where)
        name = _require(data, "name", where)
        if not isinstance(name, str) or not name:
            raise ScenarioError(f"{where}: phase name must be a non-empty string")
        workload = _require(data, "workload", where)
        _unknown_keys(workload, ("senders", "rate"), f"{where}.workload")
        senders = _require(workload, "senders", f"{where}.workload")
        if not isinstance(senders, int) or not 1 <= senders <= members:
            raise ScenarioError(
                f"{where}.workload.senders: must be an int in [1, {members}]"
            )
        return PhaseSpec(
            name=name,
            duration=_number(_require(data, "duration", where),
                             f"{where}.duration", 1e-6),
            senders=senders,
            rate=_number(_require(workload, "rate", f"{where}.workload"),
                         f"{where}.workload.rate", 1e-6),
            net=PhaseNet.from_dict(data.get("net", {}), f"{where}.net"),
        )


@dataclass(frozen=True)
class ExpectSpec:
    """The machine-checkable verdict contract.

    Attributes:
        protocol: the protocol every live member must end on.
        max_switches: ceiling on completed switches (0 = stability
            scenario: the oracle must hold its ground through the storm).
        drift_phase: the phase whose *start* is t=0 for the
            time-to-switch clock (None for stability scenarios).
        max_time_to_switch: ceiling, in seconds after the drift phase
            begins, on when the (first) switch completes group-wide.
        min_delivery_ratio: floor on delivered/cast for every live
            member after settling (loss scenarios prove the reliable
            layer cleans up behind the faults).
    """

    protocol: str
    max_switches: int = 1
    drift_phase: Optional[str] = None
    max_time_to_switch: Optional[float] = None
    min_delivery_ratio: float = 0.9

    @staticmethod
    def from_dict(
        data: Mapping[str, Any], where: str, phase_names: Sequence[str]
    ) -> "ExpectSpec":
        _unknown_keys(
            data,
            ("protocol", "max_switches", "drift_phase", "max_time_to_switch",
             "min_delivery_ratio"),
            where,
        )
        protocol = _require(data, "protocol", where)
        if protocol not in PROTOCOLS:
            raise ScenarioError(
                f"{where}.protocol: must be one of {PROTOCOLS}, got {protocol!r}"
            )
        max_switches = data.get("max_switches", 1)
        if not isinstance(max_switches, int) or max_switches < 0:
            raise ScenarioError(f"{where}.max_switches: must be an int >= 0")
        drift_phase = data.get("drift_phase")
        if drift_phase is not None and drift_phase not in phase_names:
            raise ScenarioError(
                f"{where}.drift_phase: {drift_phase!r} names no phase "
                f"(have {list(phase_names)})"
            )
        max_tts = data.get("max_time_to_switch")
        if max_tts is not None:
            max_tts = _number(max_tts, f"{where}.max_time_to_switch", 1e-6)
            if drift_phase is None:
                raise ScenarioError(
                    f"{where}: max_time_to_switch needs a drift_phase anchor"
                )
        ratio = _number(
            data.get("min_delivery_ratio", 0.9), f"{where}.min_delivery_ratio", 0.0
        )
        if ratio > 1.0:
            raise ScenarioError(f"{where}.min_delivery_ratio: must be <= 1.0")
        return ExpectSpec(
            protocol=protocol,
            max_switches=max_switches,
            drift_phase=drift_phase,
            max_time_to_switch=max_tts,
            min_delivery_ratio=ratio,
        )


@dataclass(frozen=True)
class SettleSpec:
    """Convergence grace after the last phase (chaos-harness shape)."""

    windows: int = 20
    window: float = 0.5

    @staticmethod
    def from_dict(data: Mapping[str, Any], where: str) -> "SettleSpec":
        _unknown_keys(data, ("windows", "window"), where)
        windows = data.get("windows", 20)
        if not isinstance(windows, int) or windows < 1:
            raise ScenarioError(f"{where}.windows: must be an int >= 1")
        return SettleSpec(
            windows=windows,
            window=_number(data.get("window", 0.5), f"{where}.window", 1e-6),
        )


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully validated catalog entry."""

    name: str
    summary: str
    runtimes: Tuple[str, ...]
    seed: int
    group: GroupSpec
    oracle: OracleSpec
    phases: Tuple[PhaseSpec, ...]
    expect: ExpectSpec
    settle: SettleSpec

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

    @staticmethod
    def from_dict(data: Mapping[str, Any]) -> "ScenarioSpec":
        if not isinstance(data, Mapping):
            raise ScenarioError(
                f"scenario: top level must be an object, got {type(data).__name__}"
            )
        _unknown_keys(
            data,
            ("name", "summary", "runtimes", "seed", "group", "oracle",
             "phases", "expect", "settle"),
            "scenario",
        )
        name = _require(data, "name", "scenario")
        if not isinstance(name, str) or not name:
            raise ScenarioError("scenario: name must be a non-empty string")
        where = f"scenario {name!r}"
        summary = _require(data, "summary", where)
        if not isinstance(summary, str) or not summary:
            raise ScenarioError(f"{where}: summary must be a non-empty string")
        runtimes = tuple(data.get("runtimes", ["sim"]))
        if not runtimes or any(r not in RUNTIMES for r in runtimes):
            raise ScenarioError(
                f"{where}: runtimes must be a non-empty subset of {RUNTIMES}"
            )
        seed = data.get("seed", 42)
        if not isinstance(seed, int):
            raise ScenarioError(f"{where}: seed must be an int")
        group = GroupSpec.from_dict(data.get("group", {}), f"{where}.group")
        oracle = OracleSpec.from_dict(
            _require(data, "oracle", where), f"{where}.oracle"
        )
        raw_phases = _require(data, "phases", where)
        if not isinstance(raw_phases, Sequence) or not raw_phases:
            raise ScenarioError(f"{where}: phases must be a non-empty array")
        phases = tuple(
            PhaseSpec.from_dict(p, f"{where}.phases[{i}]", group.members)
            for i, p in enumerate(raw_phases)
        )
        names = [phase.name for phase in phases]
        if len(set(names)) != len(names):
            raise ScenarioError(f"{where}: duplicate phase names in {names}")
        expect = ExpectSpec.from_dict(
            _require(data, "expect", where), f"{where}.expect", names
        )
        settle = SettleSpec.from_dict(data.get("settle", {}), f"{where}.settle")

        # Cross-field sanity: the oracle must be able to express the
        # expectation, and the asyncio runtime cannot inject faults.
        if expect.protocol not in (oracle.low_protocol, oracle.high_protocol):
            raise ScenarioError(
                f"{where}: expected protocol {expect.protocol!r} is not a "
                f"side of the oracle's band"
            )
        if group.initial not in (oracle.low_protocol, oracle.high_protocol):
            raise ScenarioError(
                f"{where}: initial protocol {group.initial!r} is not a side "
                f"of the oracle's band"
            )
        if "asyncio" in runtimes:
            dirty = [p.name for p in phases if not p.net.clean]
            if dirty:
                raise ScenarioError(
                    f"{where}: asyncio runtime cannot inject simulated "
                    f"faults, but phases {dirty} set net conditions; "
                    f"restrict runtimes to ['sim']"
                )
            if oracle.signal == "loss_ratio":
                raise ScenarioError(
                    f"{where}: loss_ratio reads the simulated network's "
                    f"drop counters, which real UDP does not expose; "
                    f"restrict runtimes to ['sim']"
                )
        return ScenarioSpec(
            name=name,
            summary=summary,
            runtimes=runtimes,
            seed=seed,
            group=group,
            oracle=oracle,
            phases=phases,
            expect=expect,
            settle=settle,
        )


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
    spec = ScenarioSpec.from_dict(data)
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
