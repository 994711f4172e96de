"""Runs the ledger: spawns one process per run and reduces the records.

Two front ends share everything below them:

* ``run.py --workload W --seed N --seconds S --trace 0|1`` — one workload,
  one JSON object on the last line of stdout: the form ``BENCHMARK.json``
  declares and the driver calls.
* ``run.py [--seed N] [--workload W] [--repeats K] [--traced] [--out DIR]
  [--quick]`` — a *set*: K passes over the workloads, interleaved
  round-robin, written to ``results.json`` + ``summary.txt``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from . import metrics
from .stats import median
from .workloads import BY_NAME, WORKLOADS

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
CHILD_TIMEOUT = 170  # seconds; a child that outlives it is killed
SETUP_SAMPLES = 5  # set-up time is the median of this many builds
MAX_RETRIES = 2  # per slot, on evidence that the host misbehaved
SPIN_TOLERANCE = 0.10  # host.spin_ms this far from the set median: discard
LATE_LIMIT_MS = 10.0  # gen.late_ms_p99 above this: discard

Record = Dict[str, Any]


@contextlib.contextmanager
def keep_awake(cpu: int) -> Iterator[None]:
    """Run ``keepawake.py`` (which says why) on ``cpu`` for the length of
    one run; stopped and reaped on the way out."""
    spinner = subprocess.Popen(
        [sys.executable, str(HERE / "keepawake.py"), str(os.getpid()), str(cpu)],
        stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        yield
    finally:
        spinner.kill()
        spinner.wait()


def spawn(workload: str, seed: int, seconds: float, mode: str = "run",
          traced: bool = False, out: Optional[str] = None) -> Record:
    """Run one child to completion, pinned to one CPU that is kept awake,
    and return the record it printed."""
    cpu = max(os.sched_getaffinity(0))
    spec = {"workload": workload, "seed": seed, "seconds": seconds,
            "mode": mode, "traced": traced, "out": out, "cpu": cpu}
    with keep_awake(cpu):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--child", json.dumps(spec)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT, cwd=str(REPO),
        )
    if done.returncode != 0:
        raise RuntimeError(
            f"{workload} ({mode}) exited {done.returncode}:\n{done.stderr[-4000:]}"
        )
    return json.loads(done.stdout.splitlines()[-1])


def declared() -> Dict[str, Any]:
    with open(REPO / "BENCHMARK.json") as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# The form the driver calls
# ----------------------------------------------------------------------
def contract_run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    spec = declared()
    run = spawn(workload, seed, seconds)
    records = [run]
    if not trace:
        setups = [run["setup_s"]] + [
            spawn(workload, seed, seconds, mode="setup")["setup_s"]
            for __ in range(SETUP_SAMPLES - 1)
        ]
        values = metrics.end_to_end([run], setups)
        names = spec["end_to_end"]
        problems: List[str] = []
    else:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        traced = spawn(workload, seed, seconds, traced=True, out=str(out_dir))
        idle = spawn(workload, seed, seconds, mode="idle")
        plain = [spawn(_plain_of(workload), seed, seconds)] if _plain_of(workload) else []
        records += [traced, idle] + plain
        values = metrics.per_layer([run], traced, idle, plain)
        names = spec["per_layer"]
        problems = _digest_problems(workload, [run, traced])
    problems += [v for r in records for v in r.get("violations", [])]
    for problem in problems:
        print(f"violation: {problem}", file=sys.stderr)
    # The driver wants every declared metric on every workload; one that is
    # not defined here (results.json leaves it out) reads 0.
    reported = {}
    for entry in names:
        value = values.get(entry["name"], (0.0, entry["unit"], 0))[0]
        reported[entry["name"]] = {
            "value": value if math.isfinite(value) else 1e12,
            "unit": entry["unit"],
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": run["casts"],
        "failed": run["failed_casts"],
        "metrics": reported,
    }))
    return 0


def _plain_of(workload: str) -> Optional[str]:
    """The same load without obs wiring, for ``obs.cpu_overhead_ratio``."""
    return "udp_steady" if workload == "udp_steady_obs" else None


def _digest_problems(workload: str, runs: Sequence[Record]) -> List[str]:
    """On the simulator every repeat of one seed is bit-identical."""
    if BY_NAME[workload].runtime != "sim":
        return []
    digests = {r["digest"] for r in runs}
    return [f"{workload}: {len(digests)} different run digests"] if len(digests) > 1 else []


# ----------------------------------------------------------------------
# A set of runs
# ----------------------------------------------------------------------
def run_set(names: Sequence[str], seed: int, seconds: float, repeats: int,
            traced: bool, out: Path) -> Tuple[Dict[str, Any], List[str]]:
    out.mkdir(parents=True, exist_ok=True)
    kept: Dict[Tuple[str, int], Record] = {}
    own: Dict[Tuple[str, int], Dict[str, metrics.Metric]] = {}  # each run's diagnostics
    retries: Dict[Tuple[str, int], int] = {}
    discards: List[Dict[str, Any]] = []
    todo = [(name, k) for k in range(repeats) for name in names]  # round-robin
    while todo:
        for slot in todo:
            print(f"run {slot[0]} repeat {slot[1]}", file=sys.stderr)
            kept[slot] = spawn(slot[0], seed, seconds)
            own[slot] = metrics.per_layer([kept[slot]])
        spin_median = median([m["host.spin_ms"][0] for m in own.values()])
        todo = []
        for slot, diagnostics in own.items():
            spin, late = diagnostics["host.spin_ms"][0], diagnostics["gen.late_ms_p99"][0]
            reasons = []
            if abs(spin / spin_median - 1) > SPIN_TOLERANCE:
                reasons.append(f"host.spin_ms {spin:.2f} vs set median {spin_median:.2f}")
            if late > LATE_LIMIT_MS:
                reasons.append(f"gen.late_ms_p99 {late:.1f} ms")
            if reasons and retries.get(slot, 0) < MAX_RETRIES:
                retries[slot] = retries.get(slot, 0) + 1
                discards.append({"workload": slot[0], "repeat": slot[1],
                                 "reasons": reasons})
                todo.append(slot)

    extra: Dict[str, Tuple[Optional[Record], Optional[Record]]] = {}  # traced, idle
    if traced:
        for name in names:
            print(f"run {name} traced + idle", file=sys.stderr)
            extra[name] = (spawn(name, seed, seconds, traced=True, out=str(out)),
                           spawn(name, seed, seconds, mode="idle"))

    result: Dict[str, Any] = {
        "benchmark": "ledger",
        "seed": seed,
        "seconds": seconds,
        "repeats": repeats,
        "traced": traced,
        "host": {"python": platform.python_version(), "cpus": os.cpu_count()},
        "discards": discards,
        "workloads": {},
    }
    problems: List[str] = []
    for name in names:
        runs = [kept[(name, k)] for k in range(repeats)]
        traced_run, idle_run = extra.get(name, (None, None))
        everything = runs + ([traced_run] if traced_run else [])
        violations = [v for r in everything for v in r["violations"]]
        violations += _digest_problems(name, everything)
        problems += [f"{name}: {v}" for v in violations]
        for k, record in enumerate(runs):
            if record["stuck"]:
                with open(out / f"stuck_{name}_{k}.json", "w") as handle:
                    json.dump(record["stuck"], handle, indent=1)
        plain = [kept[(_plain_of(name), k)] for k in range(repeats)
                 if (_plain_of(name), k) in kept]
        attempted, failed = metrics.failures(runs)
        result["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "failed_share": failed / attempted,
            "violations": violations,
            "digests": sorted({r["digest"] for r in everything}),
            "port_collisions": sum(r["port_collisions"] for r in everything),
            "end_to_end": _with_repeats(
                metrics.end_to_end(runs, [r["setup_s"] for r in runs]),
                [metrics.end_to_end([r], [r["setup_s"]]) for r in runs]),
            "per_layer": _with_repeats(
                metrics.per_layer(runs, traced_run, idle_run, plain),
                [own[(name, k)] for k in range(repeats)]),
        }
    return result, problems


def _with_repeats(pooled: Dict[str, metrics.Metric],
                  singles: Sequence[Dict[str, metrics.Metric]]) -> Dict[str, Any]:
    return {
        name: {
            "value": value,
            "unit": unit,
            "samples": samples,
            "repeats": [s[name][0] for s in singles if name in s],
        }
        for name, (value, unit, samples) in pooled.items()
    }


def render_summary(result: Dict[str, Any], problems: Sequence[str]) -> str:
    lines = [
        f"cost ledger: seed {result['seed']}, {result['seconds']} s per run, "
        f"{result['repeats']} repeat(s), traced pass: {result['traced']}",
        f"host: {result['host']['cpus']} cpus, python {result['host']['python']}",
        "",
    ]
    for name, w in result["workloads"].items():
        lines.append(f"== {name}: {BY_NAME[name].why}")
        lines.append(
            f"   casts attempted {w['attempted']}, failed {w['failed']} "
            f"(failed_share {w['failed_share']:.5f}); run digests {len(w['digests'])}"
        )
        for kind in ("end_to_end", "per_layer"):
            lines.append(f"   {kind}:")
            for metric, m in w[kind].items():
                lines.append(
                    f"     {name:<17} {metric:<32} {m['value']:>14.4f} "
                    f"{m['unit']:<6} n={m['samples']}"
                )
        lines.append("")
    lines.append(f"discarded runs: {len(result['discards'])}")
    for d in result["discards"]:
        lines.append(f"  {d['workload']} repeat {d['repeat']}: {'; '.join(d['reasons'])}")
    lines.append("oracle: " + ("all outputs correct" if not problems else "VIOLATIONS"))
    lines.extend(f"  {p}" for p in problems)
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
def main(argv: Sequence[str]) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver form: 0 prints end-to-end, 1 per-layer metrics")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--traced", action="store_true",
                        help="set form: add one traced and one idle run per workload")
    parser.add_argument("--quick", action="store_true",
                        help="1 s per workload, 1 repeat, oracle only, nothing written")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    args = parser.parse_args(argv)
    if not (REPO / "src" / "repro").is_dir():
        print(f"no program to measure: {REPO / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else declared()["run_seconds"]
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return contract_run(args.workload, args.seed, seconds, bool(args.trace))

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    if args.quick:
        problems: List[str] = []
        for name in names:
            record = spawn(name, args.seed, 1.0)
            problems += [f"{name}: {v}" for v in record["violations"]]
            print(f"{name:<17} casts {record['casts']:>6} failed {record['failed_casts']} "
                  f"deliveries {record['deliveries']:>7} oracle "
                  f"{'ok' if not record['violations'] else 'VIOLATED'}")
        for problem in problems:
            print(f"violation: {problem}", file=sys.stderr)
        return 1 if problems else 0

    result, problems = run_set(names, args.seed, seconds, args.repeats,
                               args.traced, args.out)
    summary = render_summary(result, problems)
    with open(args.out / "results.json", "w") as handle:
        json.dump(result, handle, indent=1)
    with open(args.out / "summary.txt", "w") as handle:
        handle.write(summary)
    sys.stdout.write(summary)
    return 1 if problems else 0
