"""The envelope every telemetry file and endpoint body shares."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

from ...core.oracle import DecisionRecord
from ...errors import TelemetryError
from ...records import omitted
from .aggregate import TelemetrySnapshot

__all__ = ["TelemetryPayload"]


@dataclass
class TelemetryPayload:
    """A fleet snapshot and how it was taken, written as
    ``{"schema_version": 1, "kind": "telemetry", "source": ..., ...}``.

    ``source`` is ``poll`` (the fleet runner's plane, with Prometheus
    text, escalations and any self-``scrape``), ``scrape`` (an HTTP read
    of ``/snapshot`` at ``url``), ``file`` (a bare snapshot ``repro top``
    read) or ``merge`` (``merged_from`` payloads from ``sources``).
    Optional keys are absent while unset.
    """

    SOURCES: ClassVar[Tuple[str, ...]] = ("poll", "scrape", "file", "merge")

    source: str
    snapshot: TelemetrySnapshot
    schema_version: int = 1
    kind: str = "telemetry"
    url: Optional[str] = omitted(default=None)
    merged_from: Optional[int] = omitted(default=None)
    prometheus: Optional[str] = omitted(default=None)
    escalations: Optional[List[DecisionRecord]] = omitted(default=None)
    sources: Optional[List[str]] = omitted(default=None)
    scrape: Optional[TelemetryPayload] = omitted(default=None)

    def __post_init__(self) -> None:
        if self.kind != "telemetry":
            raise TelemetryError(f"kind is {self.kind!r}, not 'telemetry'")
        if self.source not in self.SOURCES:
            raise TelemetryError(f"unknown source {self.source!r}")
