"""Exposition: Prometheus text + JSON snapshot, over HTTP on asyncio.

Two faces of the same :meth:`TelemetryPlane.snapshot`:

* :func:`render_prometheus` — the snapshot flattened into Prometheus
  text exposition format (``# TYPE`` headers, ``{label="..."}`` pairs),
  scrapeable by any stock Prometheus agent.
* :class:`TelemetryServer` — a dependency-free HTTP/1.0 server on
  ``asyncio.start_server`` (stdlib only, per the repo's no-new-deps
  rule) living on the fleet runner's event loop:

  ==============  =============================================
  ``/metrics``    Prometheus text (``text/plain; version=0.0.4``)
  ``/snapshot``   the full JSON snapshot
  ``/healthz``    liveness probe (``ok``)
  ==============  =============================================

Under the sim runtime there is no socket and no loop mid-run; the poll
API (``plane.snapshot()`` / ``plane.prometheus()``) is the whole
interface, and ``repro fleet --telemetry-json`` persists it.

:func:`scrape` is the matching asyncio client — the fleet runner uses
it to self-scrape its own live endpoint (CI validates a real HTTP
round trip without process juggling), and it doubles as the reference
client for ``repro top`` against a live fleet.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, List, Optional, Tuple

from ...records import dump, load
from .aggregate import TelemetrySnapshot
from .payload import TelemetryPayload

__all__ = ["TelemetryServer", "render_prometheus", "scrape"]

_CONTENT_PROM = "text/plain; version=0.0.4; charset=utf-8"
_CONTENT_JSON = "application/json; charset=utf-8"


# ----------------------------------------------------------------------
# Prometheus text rendering
# ----------------------------------------------------------------------
def _fmt(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def render_prometheus(snapshot: TelemetrySnapshot) -> str:
    """Flatten one telemetry snapshot into Prometheus exposition text."""
    fleet = snapshot.fleet
    lines: List[str] = []

    def metric(name: str, mtype: str, help_text: str) -> None:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")

    def sample(name: str, value: Any, labels: str = "") -> None:
        if value is None:
            return
        lines.append(f"{name}{labels} {_fmt(value)}")

    metric("repro_fleet_groups", "gauge", "Groups watched by the plane.")
    sample("repro_fleet_groups", fleet.groups)
    metric(
        "repro_fleet_delivered_total",
        "counter",
        "Member deliveries across the fleet.",
    )
    sample("repro_fleet_delivered_total", fleet.delivered)
    metric("repro_fleet_casts_total", "counter", "Casts across the fleet.")
    sample("repro_fleet_casts_total", fleet.casts)
    metric(
        "repro_fleet_delivered_per_s",
        "gauge",
        "Fleet delivery rate over the last window.",
    )
    sample("repro_fleet_delivered_per_s", fleet.rate)
    metric(
        "repro_fleet_switches_total", "counter", "Completed protocol switches."
    )
    sample("repro_fleet_switches_total", fleet.switches)
    metric("repro_fleet_aborts_total", "counter", "Aborted protocol switches.")
    sample("repro_fleet_aborts_total", fleet.aborts)
    metric(
        "repro_fleet_stray_group_drops_total",
        "counter",
        "Packets dropped at NodePorts for unregistered groups.",
    )
    sample("repro_fleet_stray_group_drops_total", fleet.strays)
    metric(
        "repro_fleet_escalations_total",
        "counter",
        "Oracle escalation decisions recorded.",
    )
    sample("repro_fleet_escalations_total", fleet.escalations)
    metric(
        "repro_slo_burn_minutes", "gauge", "Fleet-wide SLO burn minutes."
    )
    sample("repro_slo_burn_minutes", fleet.slo.burn_minutes)
    metric(
        "repro_slo_groups_burning", "gauge", "Groups with a burning SLO."
    )
    sample("repro_slo_groups_burning", fleet.slo.groups_burning)
    metric(
        "repro_counter_total",
        "counter",
        "Component counters on the plane's bus, by <prefix>.<key>.",
    )
    for name, value in fleet.counters.items():
        sample("repro_counter_total", value, f'{{name="{name}"}}')

    metric(
        "repro_sequencer_pool_load",
        "gauge",
        "Sequencer assignments per node (pool occupancy).",
    )
    for rank, load in sorted(fleet.pool.loads.items()):
        sample("repro_sequencer_pool_load", load, f'{{node="{rank}"}}')

    metric(
        "repro_group_delivered_total",
        "counter",
        "Member deliveries per group.",
    )
    metric_rows: List[Tuple[str, str, Optional[str]]] = [
        ("repro_group_rate", "gauge", "rate"),
        ("repro_group_delivery_p50_ms", "gauge", "p50_ms"),
        ("repro_group_delivery_p99_ms", "gauge", "p99_ms"),
        ("repro_group_switches_total", "counter", "switches"),
        ("repro_group_aborts_total", "counter", "aborts"),
    ]
    ordered = sorted(snapshot.groups.items())
    for gid, group in ordered:
        sample(
            "repro_group_delivered_total",
            group.delivered,
            f'{{group="{gid}"}}',
        )
    for name, mtype, key in metric_rows:
        help_by_key = {
            "rate": "Delivery rate over the last window, per group.",
            "p50_ms": "p50 delivery latency over the last window (ms).",
            "p99_ms": "p99 delivery latency over the last window (ms).",
            "switches": "Completed switches per group.",
            "aborts": "Aborted switches per group.",
        }
        metric(name, mtype, help_by_key[key])
        for gid, group in ordered:
            sample(name, getattr(group, key), f'{{group="{gid}"}}')
    metric(
        "repro_group_protocol_info",
        "gauge",
        "Current protocol per group (info-style: value is always 1).",
    )
    for gid, group in ordered:
        protocol = group.protocol
        if protocol:
            sample(
                "repro_group_protocol_info",
                1,
                f'{{group="{gid}",protocol="{protocol}"}}',
            )
    metric(
        "repro_group_slo_ok",
        "gauge",
        "1 when no SLO target is burning for the group.",
    )
    for gid, group in ordered:
        sample(
            "repro_group_slo_ok",
            group.slo.ok,
            f'{{group="{gid}"}}',
        )
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# The HTTP server (asyncio runtime only)
# ----------------------------------------------------------------------
class TelemetryServer:
    """Serves a plane's snapshots over localhost HTTP on the run's loop."""

    def __init__(
        self, plane: Any, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.plane = plane
        self.host = host
        self.port = port
        self.requests = 0
        self._server: Optional[asyncio.AbstractServer] = None

    async def open(self) -> "TelemetryServer":
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port
        )
        # port=0 asks the kernel; report what it picked.
        sockets = self._server.sockets or []
        if sockets:
            self.port = sockets[0].getsockname()[1]
        return self

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(reader.readline(), timeout=5.0)
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            while True:  # drain request headers up to the blank line
                header = await asyncio.wait_for(reader.readline(), timeout=5.0)
                if header in (b"\r\n", b"\n", b""):
                    break
            status, content_type, body = self._route(path)
            self.requests += 1
            head = (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {content_type}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("latin-1") + body)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError):
            pass
        finally:
            writer.close()

    def _route(self, path: str) -> Tuple[str, str, bytes]:
        path = path.split("?", 1)[0]
        if path == "/metrics":
            return "200 OK", _CONTENT_PROM, self.plane.prometheus().encode()
        if path == "/snapshot":
            snapshot = dump(self.plane.snapshot())
            body = json.dumps(snapshot, sort_keys=True, allow_nan=False).encode()
            return "200 OK", _CONTENT_JSON, body
        if path == "/healthz":
            return "200 OK", "text/plain", b"ok\n"
        return "404 Not Found", "text/plain", b"not found\n"

    async def aclose(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None


# ----------------------------------------------------------------------
# The matching asyncio client (self-scrape + live `repro top`)
# ----------------------------------------------------------------------
async def _fetch(host: str, port: int, path: str) -> Tuple[int, bytes]:
    reader, writer = await asyncio.open_connection(host, port)
    try:
        request = f"GET {path} HTTP/1.0\r\nHost: {host}\r\n\r\n"
        writer.write(request.encode("latin-1"))
        await writer.drain()
        # Head first, then the body by its declared Content-Length.  A
        # large snapshot spans many TCP segments; keep reading until
        # every declared byte has arrived (``readexactly`` loops) —
        # a single read() would truncate anything past the first
        # buffer's worth and silently hand back half a JSON document.
        head = await reader.readuntil(b"\r\n\r\n")
        length: Optional[int] = None
        for line in head.split(b"\r\n")[1:]:
            name, __, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    pass
        if length is None:
            body = await reader.read(-1)  # legacy: read to EOF
        else:
            body = await reader.readexactly(length)
    finally:
        writer.close()
    status_line = head.split(b"\r\n", 1)[0].decode("latin-1")
    status = int(status_line.split()[1]) if len(status_line.split()) > 1 else 0
    return status, body


async def scrape(host: str, port: int) -> TelemetryPayload:
    """One full scrape of a live endpoint: the snapshot, read closed,
    and the Prometheus text, in a ``scrape`` payload."""
    snap_status, snap_body = await _fetch(host, port, "/snapshot")
    prom_status, prom_body = await _fetch(host, port, "/metrics")
    if snap_status != 200 or prom_status != 200:
        raise ConnectionError(
            f"scrape failed: /snapshot={snap_status} /metrics={prom_status}"
        )
    url = f"http://{host}:{port}"
    return TelemetryPayload(
        "scrape",
        load(TelemetrySnapshot, json.loads(snap_body.decode()), url),
        url=url,
        prometheus=prom_body.decode(),
    )
