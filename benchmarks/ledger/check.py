#!/usr/bin/env python3
"""Compare two ``results.json`` files against the bounds in BENCHMARK.json.

    python benchmarks/ledger/check.py A.json B.json

A is the base (the parent commit, or the first of two sets of one commit),
B the candidate.  One row per (end-to-end metric, workload): both values,
the ratio B/A with its base, the widest run-to-run spread either file
shows for that metric, and a verdict:

* ``worse``       B is worse than A by more than the bound, and by more
                  than the spread;
* ``unresolved``  the spread is wider than the bound, so the runs cannot
                  tell a change of that size from noise;
* ``ok``          otherwise.

``failed_share`` is held to its own rule: it may not rise at all on the
simulator, and by at most 0.001 on UDP.  Exits 1 if any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

REPO = Path(__file__).resolve().parent.parent.parent
UDP_FAILED_SHARE_SLACK = 0.001


def spread(values: List[float]) -> Optional[float]:
    """Run-to-run spread of one metric: quartile distance over the median
    with four or more repeats, the full range over the median below that."""
    if len(values) < 2 or not statistics.median(values):
        return None
    if len(values) >= 4:
        q1, __, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    return (max(values) - min(values)) / statistics.median(values)


def compare(a: Dict[str, Any], b: Dict[str, Any], spec: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows = []
    for workload in a["workloads"]:
        if workload not in b["workloads"]:
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        for entry in spec["end_to_end"]:
            name = entry["name"]
            if name not in wa["end_to_end"] or name not in wb["end_to_end"]:
                continue
            ma, mb = wa["end_to_end"][name], wb["end_to_end"][name]
            base, value = ma["value"], mb["value"]
            ratio = value / base
            worsening = ratio - 1 if entry["better"] == "lower" else 1 - ratio
            spreads = [s for s in (spread(ma["repeats"]), spread(mb["repeats"]))
                       if s is not None]
            noise = max(spreads) if spreads else None
            if worsening > max(entry["bound"], noise or 0.0):
                verdict = "worse"
            elif noise is not None and noise > entry["bound"]:
                verdict = "unresolved"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": name, "unit": entry["unit"],
                         "a": base, "b": value, "ratio": ratio, "spread": noise,
                         "bound": entry["bound"], "verdict": verdict})
        slack = 0.0 if workload.startswith("sim_") else UDP_FAILED_SHARE_SLACK
        fa, fb = wa["failed_share"], wb["failed_share"]
        rows.append({"workload": workload, "metric": "failed_share", "unit": "share",
                     "a": fa, "b": fb, "ratio": fb / fa if fa else None, "spread": None,
                     "bound": slack, "verdict": "worse" if fb > fa + slack else "ok"})
    return rows


def render(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<17} {'metric':<22} {'A':>13} {'B':>13} "
             f"{'B/A (base A)':>22} {'spread':>7} {'bound':>6}  verdict"]
    for r in rows:
        ratio = "n/a" if r["ratio"] is None else f"{r['ratio']:.3f} ({r['a']:.4g} {r['unit']})"
        noise = "n/a" if r["spread"] is None else f"{r['spread']:.3f}"
        lines.append(f"{r['workload']:<17} {r['metric']:<22} {r['a']:>13.4f} "
                     f"{r['b']:>13.4f} {ratio:>22} {noise:>7} {r['bound']:>6.3f}  "
                     f"{r['verdict']}")
    return "\n".join(lines)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    rows = compare(a, b, spec)
    print(render(rows))
    worse = [r for r in rows if r["verdict"] == "worse"]
    unresolved = [r for r in rows if r["verdict"] == "unresolved"]
    print(f"\n{len(rows)} rows: {len(worse)} worse, {len(unresolved)} unresolved")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
