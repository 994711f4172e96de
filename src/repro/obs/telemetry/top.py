"""``repro top``: a live terminal dashboard over telemetry snapshots.

Each source is either a **live endpoint** (``http://host:port`` — the
fleet runner's :class:`~repro.obs.telemetry.expo.TelemetryServer`) or a
**snapshot file** (the payload ``repro fleet --telemetry-json`` /
``--scrape-out`` writes, or a bare snapshot dict).  Give several
sources — one per fleet shard — and the dashboard folds them through
:func:`~repro.obs.telemetry.merge.merge_payloads` into a single fleet
view per frame.  Interactive mode
redraws every ``interval`` seconds with the hottest groups on top;
``--once`` renders a single frame and exits, and ``--once --json``
prints the raw payload for scripts — the contract
``scripts/check_telemetry.py`` and CI rely on.

Rendering is pure string building (testable without a TTY); the only
terminal control used is the ANSI clear-home pair between live frames.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from typing import Any, Callable, List, Optional, Sequence, Union

from ...errors import RecordError
from ...records import dump, load
from .aggregate import TelemetrySnapshot
from .payload import TelemetryPayload

__all__ = ["load_payload", "load_sources", "render_top", "run_top"]

_CLEAR = "\x1b[2J\x1b[H"


def load_payload(source: str, timeout: float = 5.0) -> TelemetryPayload:
    """Fetch one telemetry payload from a URL or a snapshot file, read
    closed (else ``RecordError``)."""
    if source.startswith(("http://", "https://")):
        url = source.rstrip("/") + "/snapshot"
        with urllib.request.urlopen(url, timeout=timeout) as response:
            snapshot = json.loads(response.read().decode())
        return TelemetryPayload(
            "scrape", load(TelemetrySnapshot, snapshot, source), url=source
        )
    with open(source) as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or not ("snapshot" in data or "fleet" in data):
        raise ValueError(
            f"{source!r} is neither a telemetry payload nor a snapshot"
        )
    if "snapshot" not in data:  # a bare snapshot
        return TelemetryPayload("file", load(TelemetrySnapshot, data, source))
    return load(TelemetryPayload, data, source)


def load_sources(
    sources: Sequence[str], timeout: float = 5.0
) -> TelemetryPayload:
    """Fetch every source and fold them into one payload.

    One source passes through untouched (the single-fleet fast path);
    several — one per shard — merge via
    :func:`~repro.obs.telemetry.merge.merge_payloads`.
    """
    payloads = [load_payload(source, timeout=timeout) for source in sources]
    if len(payloads) == 1:
        return payloads[0]
    from .merge import merge_payloads

    return merge_payloads(payloads, sources=list(sources))


def _num(value: Any, digits: int = 1, missing: str = "-") -> str:
    if not isinstance(value, (int, float)):
        return missing
    return f"{value:.{digits}f}"


def render_top(payload: TelemetryPayload, limit: int = 15) -> str:
    """One dashboard frame: fleet header + the hottest groups."""
    fleet = payload.snapshot.fleet
    groups = payload.snapshot.groups
    slo = fleet.slo

    lines: List[str] = []
    lines.append(
        f"fleet  t={_num(fleet.time, 2)}s  "
        f"groups={fleet.groups}  "
        f"rate={_num(fleet.rate, 0)}/s  "
        f"delivered={fleet.delivered}  "
        f"switches={fleet.switches}  "
        f"aborts={fleet.aborts}  "
        f"strays={fleet.strays}"
    )
    burning = slo.groups_burning
    verdict = "OK" if not burning else f"BURNING x{burning}"
    lines.append(
        f"slo    {verdict}  burn={_num(slo.burn_minutes, 2)}min  "
        f"alerts={slo.alerts}  "
        f"captures={fleet.captures}  "
        f"escalations={fleet.escalations}"
    )
    if fleet.pool.nodes:
        lines.append(
            f"pool   sequencers on {fleet.pool.nodes} nodes  "
            f"load min={fleet.pool.min} max={fleet.pool.max}"
        )
    lines.append("")
    header = (
        f"{'GROUP':>6}  {'PROT':<10} {'RATE':>8} {'P50ms':>8} "
        f"{'P99ms':>8} {'SW':>3} {'AB':>3}  SLO"
    )
    lines.append(header)
    lines.append("-" * len(header))

    hottest = sorted(
        groups.items(), key=lambda item: item[1].rate, reverse=True
    )[: max(0, limit)]
    for gid, group in hottest:
        verdict = "ok" if group.slo.ok else ",".join(group.slo.burning) or "burn"
        lines.append(
            f"{gid:>6}  {group.protocol or '-':<10} "
            f"{_num(group.rate, 1):>8} "
            f"{_num(group.p50_ms, 2):>8} "
            f"{_num(group.p99_ms, 2):>8} "
            f"{group.switches:>3} "
            f"{group.aborts:>3}  {verdict}"
        )
    if len(groups) > limit:
        lines.append(f"... {len(groups) - limit} more groups")
    return "\n".join(lines)


def run_top(
    source: Union[str, Sequence[str]],
    interval: float = 2.0,
    limit: int = 15,
    once: bool = False,
    as_json: bool = False,
    frames: Optional[int] = None,
    write: Callable[[str], None] = print,
    sleep: Callable[[float], None] = time.sleep,
) -> int:
    """Drive the dashboard; returns a process exit code.

    ``source`` is one snapshot source or a list of them (one per
    shard); lists merge into a single fleet view each frame.
    ``frames`` bounds the number of redraws (tests use it; interactive
    use leaves it None and stops on Ctrl-C).
    """
    sources = [source] if isinstance(source, str) else list(source)
    if once:
        frames = 1
    shown = 0
    while frames is None or shown < frames:
        try:
            payload = load_sources(sources)
        except (
            OSError, RecordError, ValueError, urllib.error.URLError
        ) as exc:
            names = sources[0] if len(sources) == 1 else sources
            write(f"cannot read telemetry from {names!r}: {exc}")
            return 1
        if as_json:
            write(json.dumps(dump(payload), indent=2, sort_keys=True, allow_nan=False))
        else:
            prefix = "" if once or shown == 0 else _CLEAR
            write(prefix + render_top(payload, limit=limit))
        shown += 1
        if frames is not None and shown >= frames:
            break
        try:
            sleep(interval)
        except KeyboardInterrupt:  # pragma: no cover - interactive exit
            break
    return 0
