#!/usr/bin/env python
"""Validate the observability artifacts a traced run produces.

Usage::

    python scripts/check_obs.py out.trace.json metrics.json

Checks the acceptance contract for ``repro run --trace ... --metrics
...`` (either runtime):

* the trace file is a Chrome trace-event JSON **array** whose records
  all carry ``name``/``ph``/``pid``/``tid``/``ts``, with ``dur`` on
  complete spans — the shape Perfetto actually loads;
* it contains at least one complete span for each switch phase
  (``switch/prepare``, ``switch/switch``, ``switch/flush``) and for
  ``switch/total``;
* the metrics file carries the switch-duration histogram plus the
  per-phase histograms, each with p50/p90/p99 percentiles once it has
  two or more observations (single-sample histograms legitimately omit
  quantiles — one sample carries no distribution — but must still
  report min/max);
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

_SCRIPTS = str(Path(__file__).resolve().parent)
if _SCRIPTS not in sys.path:
    sys.path.insert(0, _SCRIPTS)

from _lib import ArtifactError, load_artifact, report_problems, usage

PHASE_SPANS = (
    "switch/prepare",
    "switch/switch",
    "switch/flush",
    "switch/total",
)
REQUIRED_KEYS = {"name", "ph", "pid", "tid", "ts"}
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
        records = load_artifact(path, list)
    except ArtifactError as exc:
        problems.append(f"trace: {exc}")
        return
    if not records:
        problems.append("trace: empty record array")
        return

    spans = {name: 0 for name in PHASE_SPANS}
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"trace: record {index} is not an object")
            continue
        missing = REQUIRED_KEYS - set(record)
        if missing:
            problems.append(
                f"trace: record {index} missing keys {sorted(missing)}"
            )
            continue
        if not isinstance(record["ts"], (int, float)):
            problems.append(f"trace: record {index} has non-numeric ts")
        if record["ph"] == "X":
            if "dur" not in record:
                problems.append(
                    f"trace: complete span {record['name']!r} has no dur"
                )
            elif record["name"] in spans:
                spans[record["name"]] += 1

    for name, count in spans.items():
        if count < 1:
            problems.append(f"trace: no complete {name!r} span")
    ok = sum(spans.values())
    print(f"trace:   {len(records)} records, "
          f"{ok} switch-phase spans ({path})")


def check_metrics(path, problems):
    try:
        snapshot = load_artifact(path)
    except ArtifactError as exc:
        problems.append(f"metrics: {exc}")
        return
    histograms = snapshot.get("histograms")
    if not isinstance(histograms, dict):
        problems.append("metrics: no histograms section")
        return

    names = ["switch.duration_s"] + [
        f"switch.phase.{phase}_s" for phase in ("prepare", "switch", "flush")
    ]
    for name in names:
        hist = histograms.get(name)
        if not hist:
            problems.append(f"metrics: histogram {name!r} missing")
            continue
        count = hist.get("count")
        if not count:
            problems.append(f"metrics: histogram {name!r} is empty")
            continue
        if count >= 2:
            for pct in PERCENTILES:
                if hist.get(pct) is None:
                    problems.append(
                        f"metrics: histogram {name!r} lacks {pct}"
                    )
        elif "min" not in hist or "max" not in hist:
            problems.append(
                f"metrics: single-sample histogram {name!r} lacks min/max"
            )
    duration = histograms.get("switch.duration_s", {})
    if duration.get("count"):
        if all(duration.get(p) is not None for p in PERCENTILES):
            print(f"metrics: switch.duration_s count={duration['count']} "
                  f"p50={duration['p50']:.6g}s p99={duration['p99']:.6g}s "
                  f"({path})")
        else:
            print(f"metrics: switch.duration_s count={duration['count']} "
                  f"single sample {duration.get('max', 0.0):.6g}s "
                  f"(quantiles need >= 2) ({path})")
    check_counters(snapshot.get("counters"), duration, problems)


def check_counters(counters, duration, problems):
    if not isinstance(counters, dict):
        problems.append("metrics: no counters section")
        return
    missing = [name for name in REQUIRED_COUNTERS if name not in counters]
    if missing:
        problems.append(f"metrics: counters {missing} missing")
        return
    completed = counters["sp.globally_complete"]
    if duration.get("count", 0) != completed:
        problems.append(
            f"metrics: switch.duration_s has {duration.get('count', 0)} "
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
