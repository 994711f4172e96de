#!/usr/bin/env python
"""Validate the hot-path microbenchmark artifact bench_hotpath.py writes.

Usage::

    python scripts/check_micro.py benchmarks/results/micro.json

Checks the acceptance contract for ``benchmarks/bench_hotpath.py``:

* top level carries the ``bench_hotpath`` schema: benchmark name,
  integer schema version, the timing methodology, and all three
  kernels (``header_hop``, ``multicast_fanout``, ``decode_fanin``);
* every kernel reports both sides' best-of-N timings, its speedup, its
  threshold, and a passing verdict;
* the pinned bars hold: header hop >= 2x over the dict-copy baseline,
  multicast fan-out >= 2x over per-destination pickling, decode fan-in
  >= 1x over the frozen pre-optimization decoder.

Exit code 0 when every check passes, 1 with a report otherwise.
"""

import sys
from pathlib import Path

_SCRIPTS = str(Path(__file__).resolve().parent)
if _SCRIPTS not in sys.path:
    sys.path.insert(0, _SCRIPTS)

from _lib import ArtifactError, load_artifact, report_problems, usage

KERNELS = {
    # kernel -> (required keys, pinned minimum speedup)
    "header_hop": (
        {"baseline_us", "optimized_us", "speedup", "threshold", "pass",
         "group", "layers"},
        2.0,
    ),
    "multicast_fanout": (
        {"pickle_us", "codec_us", "speedup", "threshold", "pass", "group"},
        2.0,
    ),
    "decode_fanin": (
        {"baseline_us", "optimized_us", "speedup", "threshold", "pass",
         "frames"},
        1.0,
    ),
}


def check_kernel(name, kernel, problems):
    required, floor = KERNELS[name]
    if not isinstance(kernel, dict):
        problems.append(f"{name}: missing or not an object")
        return
    missing = required - set(kernel)
    if missing:
        problems.append(f"{name}: missing keys {sorted(missing)}")
        return
    speedup = kernel["speedup"]
    if not isinstance(speedup, (int, float)) or speedup <= 0:
        problems.append(f"{name}: speedup {speedup!r} is not a positive number")
        return
    if kernel["threshold"] < floor:
        problems.append(
            f"{name}: threshold {kernel['threshold']} below the pinned "
            f"{floor}x bar"
        )
    if speedup < kernel["threshold"]:
        problems.append(
            f"{name}: speedup {speedup}x below its {kernel['threshold']}x bar"
        )
    if kernel["pass"] is not True:
        problems.append(f"{name}: kernel verdict did not pass")
    for field in required:
        if field.endswith("_us") and kernel[field] <= 0:
            problems.append(f"{name}: {field} is not a positive timing")


def main(argv):
    if len(argv) != 2:
        return usage(__doc__)
    try:
        artifact = load_artifact(argv[1])
    except ArtifactError as exc:
        print(exc)
        return 1
    problems = []
    if artifact.get("benchmark") != "bench_hotpath":
        problems.append(f"benchmark name is {artifact.get('benchmark')!r}")
    if not isinstance(artifact.get("schema_version"), int):
        problems.append("schema_version missing or non-integer")
    if not isinstance(artifact.get("timing"), dict):
        problems.append("timing methodology section missing")
    kernels = artifact.get("kernels")
    if not isinstance(kernels, dict):
        problems.append("kernels section missing")
        kernels = {}
    for name in KERNELS:
        check_kernel(name, kernels.get(name), problems)
    if artifact.get("pass") is not True:
        problems.append("top-level verdict did not pass")

    if report_problems(problems):
        return 1
    for name in KERNELS:
        kernel = kernels[name]
        print(f"micro:   {name} {kernel['speedup']}x "
              f"(bar {kernel['threshold']}x)")
    print("all hot-path microbenchmark checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
