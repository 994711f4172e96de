#!/usr/bin/env python3
"""Entry point of the cost ledger; see README.md in this directory."""

import time

_T0 = time.perf_counter()  # set-up time is counted from here

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
# Import the benchmark as the package ``ledger`` rather than as loose
# top-level modules: ``trace`` and ``stats`` would shadow other modules.
sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
sys.path[:0] = [str(HERE.parent), str(REPO / "src")]

if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        from ledger import worker

        sys.exit(worker.main(sys.argv[2], _T0))
    from ledger import harness

    sys.exit(harness.main(sys.argv[1:]))
