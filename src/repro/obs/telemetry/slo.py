"""Declarative SLOs over telemetry windows.

An :class:`SLOTarget` names one budget over one windowed signal; the
:class:`SLOEngine` evaluates every target against every rolled window,
emits a structured ``slo/burn`` instant event onto the bus for each
violated window, and accumulates **burn time** per (group, target) —
the "error budget spent" currency SRE practice reports in minutes.

Three signals cover the paper's switching story:

* ``delivery_p99_ms`` — the window's p99 delivery latency must stay at
  or under the budget (milliseconds).  Skipped for windows with fewer
  than two latency samples (see ``Histogram.quantile``).
* ``switch_duration_s`` — the slowest switch *completing* in the window
  (measured escalation-request to completion) must stay at or under the
  budget (seconds): the time-to-switch budget.
* ``delivery_ratio`` — delivered / (casts x members) for the window
  must stay at or *above* the budget (a floor, not a ceiling).  In-
  flight messages at a window edge push the ratio below 1.0 in one
  window and above it in the next; budget accordingly (e.g. 0.5, not
  0.999, for 1-second windows).

The engine is deliberately stateless about *why* a window is bad — the
flight recorder freezes the group's ring on the first burn of each
(group, target) pair, which is where the forensics live.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ...errors import TelemetryError

__all__ = ["SLO_SIGNALS", "SLOEngine", "SLORollup", "SLOStatus", "SLOTarget"]

#: Recognised window signals, with the comparison direction baked in:
#: latency/duration budgets are ceilings, the delivery ratio is a floor.
SLO_SIGNALS = ("delivery_p99_ms", "switch_duration_s", "delivery_ratio")


@dataclass
class SLOTarget:
    """One named budget over one windowed signal."""

    name: str
    signal: str
    budget: float

    def __post_init__(self) -> None:
        if not self.name:
            raise TelemetryError("SLO target needs a non-empty name")
        if self.signal not in SLO_SIGNALS:
            raise TelemetryError(
                f"unknown SLO signal {self.signal!r}; known: {list(SLO_SIGNALS)}"
            )
        self.budget = float(self.budget)
        if self.budget <= 0.0:
            raise TelemetryError(
                f"SLO budget must be positive, got {self.budget} for "
                f"{self.name!r}"
            )

    @property
    def is_floor(self) -> bool:
        return self.signal == "delivery_ratio"

    def violated_by(self, value: float) -> bool:
        """Does ``value`` burn this target's budget?"""
        return value < self.budget if self.is_floor else value > self.budget


@dataclass
class SLOStatus:
    """One group's current SLO verdict (snapshots, ``repro top``)."""

    ok: bool
    burning: List[str]
    burn_minutes: float


@dataclass
class SLORollup:
    """The fleet-wide SLO view in a snapshot."""

    targets: List[SLOTarget]
    alerts: int
    burn_minutes: float
    groups_burning: int


class SLOEngine:
    """Evaluates every target against every rolled window.

    Args:
        targets: the declarative budgets.  An empty tuple is a valid
            (always-green) engine.
        bus: optional obs bus; every burning window emits one
            ``slo/burn`` instant event (``group``/``slo``/``signal``/
            ``value``/``budget`` args) so live subscribers — the flight
            recorder, an exporter, a test — see alerts as they happen.
    """

    def __init__(self, targets: Sequence[SLOTarget] = (), bus=None) -> None:
        names = [t.name for t in targets]
        if len(set(names)) != len(names):
            raise TelemetryError(f"duplicate SLO target names in {names}")
        self.targets: Tuple[SLOTarget, ...] = tuple(targets)
        self.bus = bus
        self.alerts = 0
        self.total_burn_s = 0.0
        self._burn_s: Dict[Tuple[int, str], float] = {}
        self._burning: Dict[Tuple[int, str], bool] = {}

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    #: SLO signal -> the rolled-window key carrying it.
    _WINDOW_KEYS = {
        "delivery_p99_ms": "p99_ms",
        "switch_duration_s": "max_switch_s",
        "delivery_ratio": "delivery_ratio",
    }

    @classmethod
    def _signal_value(
        cls, target: SLOTarget, window: Mapping[str, object]
    ) -> Optional[float]:
        value = window.get(cls._WINDOW_KEYS[target.signal])
        return value if isinstance(value, (int, float)) else None

    def evaluate(self, group_id: int, window: Mapping[str, object]) -> List[str]:
        """Judge one rolled window for one group.

        Returns the names of the targets that started burning with this
        window (burning already last window does not repeat the name) —
        the "freeze the flight recorder now" edge.
        """
        fresh: List[str] = []
        window_s = float(window.get("window_s", 0.0))
        for target in self.targets:
            value = self._signal_value(target, window)
            if value is None:
                continue  # no signal this window; neither burn nor clear
            key = (group_id, target.name)
            if target.violated_by(value):
                self._burn_s[key] = self._burn_s.get(key, 0.0) + window_s
                self.total_burn_s += window_s
                self.alerts += 1
                if self.bus is not None:
                    self.bus.emit(
                        "slo/burn",
                        group=group_id,
                        slo=target.name,
                        signal=target.signal,
                        value=value,
                        budget=target.budget,
                    )
                if not self._burning.get(key):
                    self._burning[key] = True
                    fresh.append(target.name)
            else:
                self._burning[key] = False
        return fresh

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def burn_minutes(self, group_id: Optional[int] = None) -> float:
        """Burn minutes for one group, or fleet-wide when ``None``."""
        if group_id is None:
            return self.total_burn_s / 60.0
        burned = sum(
            seconds
            for (gid, _name), seconds in self._burn_s.items()
            if gid == group_id
        )
        return burned / 60.0

    def status(self, group_id: int) -> SLOStatus:
        """One group's current SLO verdict."""
        burning = sorted(
            name
            for (gid, name), lit in self._burning.items()
            if gid == group_id and lit
        )
        return SLOStatus(not burning, burning, self.burn_minutes(group_id))

    def snapshot(self) -> SLORollup:
        """Fleet-wide SLO rollup for the exposition payload."""
        return SLORollup(
            targets=list(self.targets),
            alerts=self.alerts,
            burn_minutes=self.burn_minutes(),
            groups_burning=len(
                {gid for (gid, _name), lit in self._burning.items() if lit}
            ),
        )
