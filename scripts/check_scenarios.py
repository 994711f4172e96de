#!/usr/bin/env python
"""Validate the scenario-sweep artifact ``repro scenario --all --json``
writes (also produced by ``benchmarks/sweeprunner.py --sweep scenarios``
under its ``sweeps.scenarios`` key).

Usage::

    python scripts/check_scenarios.py benchmarks/results/scenarios.json

Checks the catalog sweep's acceptance contract:

* the artifact reads closed as a ``ScenarioSuite`` of
  ``ScenarioVerdict`` records (``repro.scenarios.runner``): the
  ``suite`` name, an integer ``schema_version``, and for every verdict
  the full evidence record (final protocols, switch counts, decisions,
  delivery ratio, throughput and drain-cost figures) with its types;
* the runtime swept is ``sim`` or ``asyncio``, and a non-empty mapping
  of verdicts;
* the sweep covers the full shipped catalog (at least
  :data:`MIN_SCENARIOS` entries, including every name in
  :data:`REQUIRED_SCENARIOS`);
* every verdict names itself, settles on a known expected protocol,
  recorded casts, and reports sane value ranges;
* every verdict **passed**: ``ok`` is true and ``violations`` is empty
  — a scenario that regressed fails CI here;
* drift scenarios completed at least one switch and report a positive
  time-to-switch and drain cost; stability scenarios report zero
  switches and zero oracle decisions.

Exit code 0 when every check passes, 1 with a report otherwise, 2 on
usage errors.
"""

import sys
from pathlib import Path

_SCRIPTS = str(Path(__file__).resolve().parent)
if _SCRIPTS not in sys.path:
    sys.path.insert(0, _SCRIPTS)

from _lib import ArtifactError, read_record, report_problems, usage
from repro.scenarios.runner import ScenarioSuite

MIN_SCENARIOS = 8

#: Names the shipped catalog must always cover (the testbed's spine).
REQUIRED_SCENARIOS = {
    "baseline_steady",
    "burst_loss",
    "congestion_collapse",
    "diurnal_load",
    "escalating_loss",
    "flash_crowd",
    "high_latency",
    "intermittent_connectivity",
    "mobile_handoff_jitter",
}

PROTOCOLS = {"sequencer", "tokenring"}


def check_verdict(name, verdict, problems):
    if verdict.scenario != name:
        problems.append(f"{name}: verdict names itself {verdict.scenario!r}")
    if not verdict.ok:
        problems.append(f"{name}: scenario FAILED: {verdict.violations}")
    if verdict.violations:
        problems.append(f"{name}: violations recorded {verdict.violations}")
    if verdict.expected_protocol not in PROTOCOLS:
        problems.append(
            f"{name}: unknown expected protocol "
            f"{verdict.expected_protocol!r}"
        )
    finals = verdict.final_protocols
    if not finals:
        problems.append(f"{name}: final_protocols missing or empty")
    elif set(finals.values()) != {verdict.expected_protocol}:
        problems.append(
            f"{name}: group did not settle on "
            f"{verdict.expected_protocol!r}: {finals}"
        )
    if verdict.casts <= 0:
        problems.append(f"{name}: no workload casts recorded")
    if not 0.0 <= verdict.delivery_ratio <= 1.0:
        problems.append(
            f"{name}: delivery_ratio {verdict.delivery_ratio!r} out of range"
        )
    if verdict.settle_time < verdict.duration:
        problems.append(
            f"{name}: settle_time precedes the scripted duration"
        )

    switches = verdict.switches_completed
    decisions = verdict.decisions
    if switches > 0:
        if not decisions:
            problems.append(
                f"{name}: {switches} switches but no oracle decisions"
            )
        if verdict.switch_duration_ms is None or (
            verdict.switch_duration_ms <= 0
        ):
            problems.append(f"{name}: switched but no positive drain cost")
    else:
        if decisions:
            problems.append(
                f"{name}: stability scenario recorded oracle decisions "
                f"{decisions}"
            )
    if verdict.time_to_switch is not None and verdict.time_to_switch < 0:
        problems.append(f"{name}: negative time_to_switch")


def check_suite(suite, problems):
    if suite.runtime not in ("sim", "asyncio"):
        problems.append(f"unknown runtime {suite.runtime!r}")
    scenarios = suite.scenarios
    if not scenarios:
        problems.append("scenarios: missing or empty")
        return
    # The asyncio smoke legitimately sweeps a catalog subset (only
    # clean-net scenarios can run there); the coverage bars apply to
    # sim artifacts only.
    if suite.runtime == "sim":
        if len(scenarios) < MIN_SCENARIOS:
            problems.append(
                f"catalog coverage: only {len(scenarios)} scenarios swept, "
                f"need >= {MIN_SCENARIOS}"
            )
        absent = REQUIRED_SCENARIOS - set(scenarios)
        if absent:
            problems.append(
                f"catalog coverage: required scenarios missing "
                f"{sorted(absent)}"
            )
    for name in sorted(scenarios):
        check_verdict(name, scenarios[name], problems)


def main(argv):
    if len(argv) != 2:
        return usage(__doc__)
    problems = []
    try:
        suite = read_record(argv[1], ScenarioSuite, "artifact", problems)
    except ArtifactError as exc:
        print(exc)
        return 1
    if suite is not None:
        check_suite(suite, problems)

    if report_problems(problems):
        return 1
    scenarios = suite.scenarios
    switched = sum(1 for v in scenarios.values() if v.switches_completed > 0)
    print(
        f"scenarios: {len(scenarios)} verdicts on the "
        f"{suite.runtime!r} runtime ({argv[1]})"
    )
    print(
        f"scenarios: {switched} drift scenarios switched, "
        f"{len(scenarios) - switched} stability scenarios held"
    )
    print("all scenario-sweep checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
