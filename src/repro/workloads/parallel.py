"""Deterministic parallel fan-out for sweep cells.

A *sweep* (Figure 2, the scaling benchmark) is a grid of independent
cells — one simulated run per ``(protocol, senders)`` or ``(protocol,
group_size, max_batch)`` combination.  Each cell builds its own
:class:`~repro.sim.engine.Simulator` and seeds its own
:class:`~repro.sim.rng.RandomStreams` purely from the cell parameters,
so cells share no state and their results do not depend on execution
order.  That makes them embarrassingly parallel: this module fans cells
across a :class:`~concurrent.futures.ProcessPoolExecutor` and merges
the results back **in cell-definition order**, so a sweep run with
``workers=8`` is value-identical (and, downstream, byte-identical as a
JSON artifact) to the same sweep run with ``workers=1``.

The contract a cell function must honour to stay deterministic:

* module-level (picklable by reference) and pure — everything it needs
  arrives in the cell mapping, everything it learns leaves in the
  return value;
* all randomness derived from seeds carried *in the cell* (for
  Figure 2 this is ``config.seed + active_senders``, exactly what the
  serial sweep uses);
* no wall-clock reads, global counters, or filesystem side effects.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from .experiment import Figure2Config, LatencyResult, run_total_order_experiment

__all__ = [
    "default_workers",
    "run_cells",
    "figure2_cells",
    "run_figure2_cell",
    "run_figure2_sweep_parallel",
]

Cell = Mapping[str, Any]


def default_workers(requested: Optional[int] = None) -> int:
    """Clamp a ``--workers`` request to something sane for this host."""
    cores = os.cpu_count() or 1
    if requested is None or requested <= 0:
        return cores
    return min(requested, cores)


def run_cells(
    cells: Iterable[Cell],
    worker: Callable[[Cell], Any],
    workers: int = 1,
) -> List[Any]:
    """Run ``worker`` over every cell, in parallel when ``workers > 1``.

    Results come back in cell-definition order regardless of which
    process finished first, so callers may ``zip(cells, results)``.
    ``workers <= 1`` runs inline with no executor (and no pickling),
    which is also the reference path for determinism checks.
    """
    cells = list(cells)
    if workers <= 1 or len(cells) <= 1:
        return [worker(cell) for cell in cells]
    with ProcessPoolExecutor(max_workers=min(workers, len(cells))) as pool:
        # map() preserves input order; chunksize=1 because cells are
        # coarse (whole simulated runs), not tiny work items.
        return list(pool.map(worker, cells, chunksize=1))


# ---------------------------------------------------------------------------
# Figure 2 cells
# ---------------------------------------------------------------------------
def figure2_cells(
    protocols: Sequence[str],
    sender_counts: Sequence[int],
    config: Figure2Config,
) -> List[Dict[str, Any]]:
    """The cell grid of :func:`run_figure2_sweep`, in its loop order."""
    return [
        {"protocol": protocol, "senders": senders, "config": config}
        for protocol in protocols
        for senders in sender_counts
    ]


def run_figure2_cell(cell: Cell) -> LatencyResult:
    """One Figure 2 point; the executor's (picklable) worker function."""
    return run_total_order_experiment(
        cell["protocol"], cell["senders"], cell["config"]
    )


def run_figure2_sweep_parallel(
    protocols: Sequence[str],
    sender_counts: Sequence[int],
    config: Figure2Config,
    workers: int = 1,
) -> Dict[str, List[LatencyResult]]:
    """Drop-in parallel replacement for :func:`run_figure2_sweep`.

    Value-identical to the serial sweep for any worker count: each cell
    seeds from ``config.seed + active_senders`` exactly as the serial
    path does, and results merge back in grid order.
    """
    cells = figure2_cells(protocols, sender_counts, config)
    results = run_cells(cells, run_figure2_cell, workers)
    merged: Dict[str, List[LatencyResult]] = {p: [] for p in protocols}
    for cell, result in zip(cells, results):
        merged[cell["protocol"]].append(result)
    return merged
