"""Differential stress test: the engine vs the frozen reference heap.

The engine inlines its schedule paths, fuses the ``run_until`` drain
loop and compacts in place; the frozen reference
(``_heap_reference.HeapSimulator``) does none of that.  The only
acceptable observable difference is speed.  This test replays seeded
random schedule/cancel/refresh/run workloads (a deadline refresh is
cancel + schedule) on both, and asserts bit-identical firing order,
``pending()`` counts after every operation, clock readings, and
``run_until`` return values.
"""

import random

import pytest

from repro.sim.engine import Simulator

from ._heap_reference import HeapSimulator

#: Quantized delays so ties (same firing instant) occur constantly —
#: ordering bugs hide exactly there.
_DELAYS = (0.0, 0.001, 0.002, 0.005, 0.01, 0.01, 0.05, 0.1, 0.5, 2.0, 50.0)


def drive(engine, seed, ops=600):
    """Replay one seeded workload; return every observable the engine
    exposes along the way."""
    rng = random.Random(seed)
    fired = []
    handles = {}    # event id -> handle (may be fired/cancelled)
    callbacks = {}  # event id -> its callback (for the deadline refresh)
    trace = []
    next_id = 0
    for __ in range(ops):
        roll = rng.random()
        if roll < 0.40 or not handles:
            eid = next_id
            next_id += 1
            callback = lambda eid=eid: fired.append(eid)  # noqa: E731
            handles[eid] = engine.schedule(rng.choice(_DELAYS), callback)
            callbacks[eid] = callback
        elif roll < 0.55:
            eid = rng.choice(sorted(handles))
            handles.pop(eid).cancel()
            callbacks.pop(eid)
        elif roll < 0.80:
            eid = rng.choice(sorted(handles))
            handle = handles[eid]
            # Both engines mark fired handles with _sim = None, so this
            # liveness check resolves identically on both sides.
            if not handle.cancelled and handle._sim is not None:
                handle.cancel()
                handles[eid] = engine.schedule(
                    rng.choice(_DELAYS), callbacks[eid]
                )
        elif roll < 0.90:
            engine.step()
        else:
            count = engine.run_until(
                engine.now + rng.choice((0.0, 0.003, 0.02, 0.3))
            )
            trace.append(("ran", count))
        trace.append((round(engine.now, 9), engine.pending()))
    trace.append(("drain", engine.run()))
    return fired, trace, engine.now, engine.events_processed


@pytest.mark.parametrize("seed", [0, 1, 7, 23, 99])
def test_engine_matches_frozen_heap_reference(seed):
    assert drive(Simulator(), seed) == drive(HeapSimulator(), seed)


@pytest.mark.parametrize("seed", [3, 5])
def test_long_workload_with_tight_compaction(seed):
    # Force both engines through their compaction paths mid-workload.
    reference = HeapSimulator()
    reference.COMPACT_MIN_DEAD = 8
    engine = Simulator()
    engine.COMPACT_MIN_DEAD = 8
    assert drive(engine, seed, ops=1500) == drive(reference, seed, ops=1500)


# ----------------------------------------------------------------------
# run_until in slices: the fused drain loop
# ----------------------------------------------------------------------
#: Delays and slice widths share one 1 ms grid, so a large share of the
#: events land *exactly* on a slice horizon (``run_until`` is inclusive).
_GRID_DELAYS = (0.0, 0.001, 0.001, 0.002, 0.003, 0.005, 0.010, 0.040)
_GRID_SLICES = (0.0, 0.001, 0.002, 0.004, 0.016)


def drive_sliced(engine, seed, ops=500):
    """Advance ``engine`` by ``run_until`` slices only.

    Between slices the script arms timers and cancels the *earliest*
    pending one (so the head of the queue is a cancelled entry when the
    next slice starts); callbacks arm and cancel from inside the drain,
    which is where a compacted queue or a recycled handle would show.  A
    third of the fired handles are retained and must never be recycled
    under the script's feet.
    """
    rng = random.Random(seed)
    fired = []
    live = {}       # event id -> handle of a timer not yet fired or cancelled
    retained = []   # (handle, time, seq) of fired timers the script kept
    trace = []
    ids = iter(range(10**9))

    def cancel_earliest():
        if live:
            eid = min(live, key=lambda e: (live[e].time, live[e]._seq))
            live.pop(eid).cancel()

    def arm(delay):
        eid = next(ids)

        def callback():
            handle = live.pop(eid)
            fired.append((eid, engine.now))
            if eid % 3 == 0:
                retained.append((handle, handle.time, handle._seq))
            roll = rng.random()
            if roll < 0.35:
                arm(rng.choice(_GRID_DELAYS))  # may land on this very instant
            elif roll < 0.50:
                cancel_earliest()

        live[eid] = engine.schedule(delay, callback)

    for __ in range(ops):
        roll = rng.random()
        if roll < 0.50 or not live:
            arm(rng.choice(_GRID_DELAYS))
        elif roll < 0.65:
            cancel_earliest()
        else:
            horizon = engine.now + rng.choice(_GRID_SLICES)
            trace.append(("ran", engine.run_until(horizon), engine.now == horizon))
        trace.append((round(engine.now, 9), engine.pending()))
    trace.append(("drain", engine.run_until(engine.now + 1.0), engine.pending()))
    for handle, time, seq in retained:
        assert (handle.time, handle._seq) == (time, seq), "retained handle recycled"
        assert not handle.cancelled
    return fired, trace, engine.now, engine.events_processed


@pytest.mark.parametrize("seed", [0, 2, 11, 42, 77])
def test_sliced_run_until_matches_frozen_heap_reference(seed):
    reference = drive_sliced(HeapSimulator(), seed)
    result = drive_sliced(Simulator(), seed)
    assert result == reference
    fired = result[0]
    assert len(fired) > 100
    assert fired == sorted(fired, key=lambda entry: entry[1])  # time never runs back


def test_sliced_run_until_under_tight_compaction():
    # Compaction rewrites the heap list that run_until's loop holds, so
    # it must happen from a callback inside the drain, not just between
    # slices, for this test to mean anything.  Dead entries outnumber
    # live ones only briefly in this workload, so the threshold is 2
    # (at 4 no compaction ever ran inside a drain).
    reference = HeapSimulator()
    reference.COMPACT_MIN_DEAD = 2
    engine = Simulator()
    engine.COMPACT_MIN_DEAD = 2
    inside_drain = []
    compact = engine._compact

    def counted_compact():
        inside_drain.append(engine._running)
        compact()

    engine._compact = counted_compact
    assert drive_sliced(engine, 8, ops=1200) == drive_sliced(
        reference, 8, ops=1200
    )
    assert any(inside_drain)


def test_run_until_is_inclusive_and_skips_a_cancelled_head():
    sim = Simulator()
    fired = []
    head = sim.schedule(0.001, lambda: fired.append("head"))
    sim.schedule(0.002, lambda: fired.append("on the horizon"))
    sim.schedule(0.002 + 1e-12, lambda: fired.append("just past"))
    sim.run_until(0.0)
    head.cancel()  # cancels are lazy: the heap's head is now a dead entry
    assert sim.run_until(0.002) == 1
    assert fired == ["on the horizon"]
    assert sim.now == 0.002 and sim.pending() == 1
    assert sim.run_until(0.003) == 1
    assert fired == ["on the horizon", "just past"]
