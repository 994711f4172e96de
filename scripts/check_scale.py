#!/usr/bin/env python
"""Validate the scaling-benchmark artifact bench_scale.py produces.

Usage::

    python scripts/check_scale.py benchmarks/results/scale.json

Checks the acceptance contract for ``benchmarks/bench_scale.py``
(either the full sweep or a ``--quick`` artifact):

* the artifact reads closed as the ``ScaleArtifact`` record
  ``benchmarks/bench_scale.py`` declares and writes: benchmark name,
  schema version, config, the sweep points with their full measurement
  record (protocol, group size, batch setting, offered/delivered
  throughput, frame and utilization figures), the switch runs and the
  ``acceptance`` verdict, each with its types;
* the benchmark is ``bench_scale``, there is at least one point and
  one switch run, and every point's figures are in sane ranges;
* the sweep covers both total-order protocols, at least two group
  sizes, and both an unbatched and a batched setting;
* every switch run completed with the whole group on the target
  protocol and members agreeing on the delivery count;
* the acceptance verdict passes: batched sequencer throughput >= 2x
  unbatched at a group of >= 50.

Every check reads simulated-time results, which are deterministic for
a given seed: nothing here judges a wall-clock ratio, so the verdict
does not depend on how loaded the machine that ran the sweep was.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import sys
from pathlib import Path

_HERE = Path(__file__).resolve().parent
for _path in (str(_HERE), str(_HERE.parent / "benchmarks")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from _lib import ArtifactError, read_record, report_problems, usage
from bench_scale import ScaleArtifact

PROTOCOLS = {"sequencer", "tokenring"}


def check_points(points, problems):
    if not points:
        problems.append("points: empty")
        return
    for index, point in enumerate(points):
        label = f"points[{index}]"
        if point.protocol not in PROTOCOLS:
            problems.append(f"{label}: unknown protocol {point.protocol!r}")
        if point.delivered_msgs_per_s <= 0:
            problems.append(f"{label}: no delivered throughput")
        if not 0.0 <= point.medium_utilization <= 1.0:
            problems.append(f"{label}: medium_utilization out of range")
        if point.max_batch > 1 and point.batching.batches <= 0:
            problems.append(f"{label}: batched point recorded no batches")

    protocols = {p.protocol for p in points}
    if protocols != PROTOCOLS:
        problems.append(f"points: protocols covered {sorted(protocols)}, "
                        f"expected {sorted(PROTOCOLS)}")
    sizes = {p.group_size for p in points}
    if len(sizes) < 2:
        problems.append(f"points: only one group size swept ({sorted(sizes)})")
    batches = {p.max_batch for p in points}
    if 1 not in batches or not any(b > 1 for b in batches):
        problems.append(
            f"points: need batch=1 and batch>1 settings, got {sorted(batches)}"
        )


def check_switch_runs(runs, problems):
    if not runs:
        problems.append("switch_runs: empty")
    for index, run in enumerate(runs):
        for flag in (
            "switch_completed", "all_on_target",
            "members_agree_on_delivery_count",
        ):
            if not getattr(run, flag):
                problems.append(f"switch_runs[{index}]: {flag} is False")
        if not run.switch_duration_ms or run.switch_duration_ms <= 0:
            problems.append(
                f"switch_runs[{index}]: no positive switch duration"
            )


def check_acceptance(verdict, problems):
    if verdict.group_size is None:
        problems.append("acceptance: no eligible >=50 group in the sweep")
        return
    if verdict.group_size < 50:
        problems.append(
            f"acceptance: evaluated at group {verdict.group_size}, "
            "criterion requires >= 50"
        )
    if verdict.speedup is None or verdict.speedup < 2.0:
        problems.append(
            f"acceptance: speedup {verdict.speedup!r} below the 2x bar"
        )
    if not verdict.passed:
        problems.append("acceptance: verdict did not pass")


def main(argv):
    if len(argv) != 2:
        return usage(__doc__)
    problems = []
    try:
        artifact = read_record(argv[1], ScaleArtifact, "artifact", problems)
    except ArtifactError as exc:
        print(exc)
        return 1
    if artifact is not None:
        if artifact.benchmark != "bench_scale":
            problems.append(f"benchmark name is {artifact.benchmark!r}")
        check_points(artifact.points, problems)
        check_switch_runs(artifact.switch_runs, problems)
        check_acceptance(artifact.acceptance, problems)

    if report_problems(problems):
        return 1
    verdict = artifact.acceptance
    print(f"scale:   {len(artifact.points)} sweep points, "
          f"{len(artifact.switch_runs)} switch runs ({argv[1]})")
    print(f"scale:   batched sequencer speedup {verdict.speedup}x at "
          f"n={verdict.group_size} (bar: 2x)")
    print("all scale-benchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
