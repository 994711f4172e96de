#!/usr/bin/env python
"""Validate the observability artifacts a traced run produces.

Usage::

    python scripts/check_obs.py out.trace.json metrics.json

Checks the acceptance contract for ``repro run --trace ... --metrics
...`` (either runtime):

* the trace file is a Chrome trace-event JSON **array** read closed as
  ``TraceEvent`` records (``repro.obs.export``): ``name``/``ph``/``ts``/
  ``pid``/``tid``/``args``, with ``dur`` on every complete span — the
  shape Perfetto actually loads;
* it contains at least one complete span for each switch phase
  (``switch/prepare``, ``switch/switch``, ``switch/flush``) and for
  ``switch/total``;
* the metrics file reads closed as a ``MetricsSnapshot``
  (``repro.obs.metrics``) and carries the switch-duration histogram
  plus the per-phase histograms, each with p50/p90/p99 percentiles
  once it has two or more observations (single-sample histograms
  legitimately omit quantiles — one sample carries no distribution —
  but must still report min/max);
* it carries the components' counters: ``net.sends``/``net.deliveries``
  (no more deliveries than sends plus ``net.loopback``, the copies a UDP
  node hands to itself without a datagram — ``repro run`` injects no
  duplicates), ``port.received``, ``sp.initiated``/``sp.globally_complete``
  and ``core.switches_completed``, and exactly one ``switch.duration_s``
  observation per ``sp.globally_complete``;
* every delivered copy passed a node port: ``port.received`` plus
  ``port.stray_group`` (absent when nothing strayed) equals
  ``net.deliveries``.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import sys
from pathlib import Path
from typing import List

_SCRIPTS = str(Path(__file__).resolve().parent)
if _SCRIPTS not in sys.path:
    sys.path.insert(0, _SCRIPTS)

from _lib import ArtifactError, read_record, report_problems, usage
from repro.obs.export import TraceEvent
from repro.obs.metrics import MetricsSnapshot

PHASE_SPANS = (
    "switch/prepare",
    "switch/switch",
    "switch/flush",
    "switch/total",
)
PERCENTILES = ("p50", "p90", "p99")
REQUIRED_COUNTERS = (
    "net.sends",
    "net.deliveries",
    "port.received",
    "sp.initiated",
    "sp.globally_complete",
    "core.switches_completed",
)


def check_trace(path, problems):
    try:
        records = read_record(path, List[TraceEvent], "trace", problems)
    except ArtifactError as exc:
        problems.append(f"trace: {exc}")
        return
    if records is None:
        return
    if not records:
        problems.append("trace: empty record array")
        return

    spans = {name: 0 for name in PHASE_SPANS}
    for record in records:
        if record.ph == "X":
            if record.dur is None:
                problems.append(
                    f"trace: complete span {record.name!r} has no dur"
                )
            elif record.name in spans:
                spans[record.name] += 1

    for name, count in spans.items():
        if count < 1:
            problems.append(f"trace: no complete {name!r} span")
    ok = sum(spans.values())
    print(f"trace:   {len(records)} records, "
          f"{ok} switch-phase spans ({path})")


def check_metrics(path, problems):
    try:
        snapshot = read_record(path, MetricsSnapshot, "metrics", problems)
    except ArtifactError as exc:
        problems.append(f"metrics: {exc}")
        return
    if snapshot is None:
        return
    histograms = snapshot.histograms

    names = ["switch.duration_s"] + [
        f"switch.phase.{phase}_s" for phase in ("prepare", "switch", "flush")
    ]
    for name in names:
        hist = histograms.get(name)
        if hist is None:
            problems.append(f"metrics: histogram {name!r} missing")
            continue
        if not hist.count:
            problems.append(f"metrics: histogram {name!r} is empty")
            continue
        if hist.count >= 2:
            for pct in PERCENTILES:
                if getattr(hist, pct) is None:
                    problems.append(
                        f"metrics: histogram {name!r} lacks {pct}"
                    )
        elif hist.min is None or hist.max is None:
            problems.append(
                f"metrics: single-sample histogram {name!r} lacks min/max"
            )
    duration = histograms.get("switch.duration_s")
    count = duration.count if duration is not None else 0
    if count:
        if all(getattr(duration, p) is not None for p in PERCENTILES):
            print(f"metrics: switch.duration_s count={count} "
                  f"p50={duration.p50:.6g}s p99={duration.p99:.6g}s "
                  f"({path})")
        else:
            print(f"metrics: switch.duration_s count={count} "
                  f"single sample {duration.max or 0.0:.6g}s "
                  f"(quantiles need >= 2) ({path})")
    check_counters(snapshot.counters, count, problems)


def check_counters(counters, observed, problems):
    missing = [name for name in REQUIRED_COUNTERS if name not in counters]
    if missing:
        problems.append(f"metrics: counters {missing} missing")
        return
    completed = counters["sp.globally_complete"]
    if observed != completed:
        problems.append(
            f"metrics: switch.duration_s has {observed} "
            f"observations but sp.globally_complete is {completed}"
        )
    loopback = counters.get("net.loopback", 0)
    if counters["net.deliveries"] > counters["net.sends"] + loopback:
        problems.append(
            f"metrics: net.deliveries {counters['net.deliveries']} exceeds "
            f"net.sends {counters['net.sends']} + net.loopback {loopback}"
        )
    at_ports = counters["port.received"] + counters.get("port.stray_group", 0)
    if at_ports != counters["net.deliveries"]:
        problems.append(
            f"metrics: port.received + port.stray_group is {at_ports} but "
            f"net.deliveries is {counters['net.deliveries']}"
        )
    print(f"metrics: net.sends={counters['net.sends']} "
          f"net.deliveries={counters['net.deliveries']} "
          f"sp.globally_complete={completed}")


def main(argv):
    if len(argv) != 3:
        return usage(__doc__)
    problems = []
    check_trace(argv[1], problems)
    check_metrics(argv[2], problems)
    if report_problems(problems, leading_newline=True):
        return 1
    print("all observability checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
