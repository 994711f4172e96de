"""Self-tests of the ledger; run with ``python -m pytest benchmarks/ledger/tests -q``.

They are not part of tier-1: ``pyproject.toml`` collects ``tests/`` only.
"""

import sys
from pathlib import Path

LEDGER = Path(__file__).resolve().parent.parent
REPO = LEDGER.parent.parent
for entry in (str(LEDGER.parent), str(REPO / "src")):
    if entry not in sys.path:
        sys.path.insert(0, entry)
