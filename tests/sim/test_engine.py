"""Unit tests for the discrete-event engine."""

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, lambda: fired.append("c"))
    sim.schedule(0.1, lambda: fired.append("a"))
    sim.schedule(0.2, lambda: fired.append("b"))
    sim.run()
    assert fired == ["a", "b", "c"]


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for name in "abcde":
        sim.schedule(0.5, lambda name=name: fired.append(name))
    sim.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    sim = Simulator()
    seen = []
    sim.schedule(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]
    assert sim.now == 1.5


def test_zero_delay_runs_after_current_instant_queue():
    sim = Simulator()
    fired = []
    sim.schedule(0.0, lambda: fired.append(1))
    sim.schedule(0.0, lambda: fired.append(2))
    sim.run()
    assert fired == [1, 2]


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_in_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


@pytest.mark.parametrize(
    "arm",
    [
        lambda sim, t: sim.schedule(t, lambda: None),
        lambda sim, t: sim.schedule_at(t, lambda: None),
    ],
    ids=["schedule", "schedule_at"],
)
def test_nan_time_rejected_and_inf_accepted(arm):
    # NaN compares False both ways, so a ``< 0`` guard lets it through
    # and the heap then fires it out of order.
    sim = Simulator()
    with pytest.raises(SimulationError):
        arm(sim, float("nan"))
    assert sim.pending() == 0
    arm(sim, float("inf"))
    assert sim.pending() == 1


def test_cancellation_prevents_firing():
    sim = Simulator()
    fired = []
    handle = sim.schedule(0.1, lambda: fired.append("x"))
    handle.cancel()
    sim.run()
    assert fired == []
    assert handle.cancelled


def test_cancellation_is_idempotent():
    sim = Simulator()
    handle = sim.schedule(0.1, lambda: None)
    handle.cancel()
    handle.cancel()
    assert handle.cancelled


def test_events_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def first():
        fired.append("first")
        sim.schedule(0.1, lambda: fired.append("second"))

    sim.schedule(0.1, first)
    sim.run()
    assert fired == ["first", "second"]
    assert sim.now == pytest.approx(0.2)


def test_run_until_stops_at_boundary():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, lambda: fired.append("in"))
    sim.schedule(0.5, lambda: fired.append("out"))
    sim.run_until(0.3)
    assert fired == ["in"]
    assert sim.now == 0.3
    sim.run_until(1.0)
    assert fired == ["in", "out"]


def test_run_until_is_inclusive():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, lambda: fired.append("edge"))
    sim.run_until(0.3)
    assert fired == ["edge"]


def test_run_until_backwards_rejected():
    sim = Simulator()
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.run_until(0.5)


def test_run_for_composes():
    sim = Simulator()
    sim.run_for(1.0)
    sim.run_for(1.0)
    assert sim.now == 2.0


def test_run_max_events():
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
    sim.run(max_events=3)
    assert fired == [0, 1, 2]


def test_step_returns_false_when_empty():
    assert Simulator().step() is False


def test_pending_excludes_cancelled():
    sim = Simulator()
    sim.schedule(0.1, lambda: None)
    handle = sim.schedule(0.2, lambda: None)
    handle.cancel()
    assert sim.pending() == 1


def test_events_processed_counter():
    sim = Simulator()
    for __ in range(4):
        sim.schedule(0.1, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_callback_exception_propagates_and_engine_recovers():
    sim = Simulator()

    def boom():
        raise RuntimeError("bang")

    fired = []
    sim.schedule(0.1, boom)
    sim.schedule(0.2, lambda: fired.append("after"))
    with pytest.raises(RuntimeError):
        sim.run()
    # The engine is not wedged: remaining events still run.
    sim.run()
    assert fired == ["after"]


# ----------------------------------------------------------------------
# Fast path: O(1) pending() + counted lazy cancellation + compaction
# ----------------------------------------------------------------------
def test_pending_tracks_schedule_fire_and_cancel():
    sim = Simulator()
    handles = [sim.schedule(0.1 * (i + 1), lambda: None) for i in range(5)]
    assert sim.pending() == 5
    handles[2].cancel()
    handles[4].cancel()
    assert sim.pending() == 3
    sim.step()
    assert sim.pending() == 2
    sim.run()
    assert sim.pending() == 0


def test_late_cancel_after_firing_does_not_corrupt_pending():
    sim = Simulator()
    handle = sim.schedule(0.1, lambda: None)
    sim.schedule(0.2, lambda: None)
    sim.step()  # fires `handle`
    handle.cancel()  # late cancel of an already-fired event
    handle.cancel()
    assert handle.cancelled
    assert sim.pending() == 1
    sim.run()
    assert sim.pending() == 0


def test_handle_kept_after_firing_is_never_handed_out_again():
    sim = Simulator()
    kept = sim.schedule(0.001, lambda: None)
    sim.schedule(0.001, lambda: None)
    sim.run_until(0.002)
    later = [sim.schedule(0.001, lambda: None) for __ in range(4)]
    assert all(handle is not kept for handle in later)
    assert kept.time == 0.001


def test_compaction_shrinks_queue_after_mass_cancellation():
    sim = Simulator()
    keep = []
    sim.schedule(10.0, lambda: keep.append("live"))
    handles = [sim.schedule(1.0, lambda: keep.append("dead")) for __ in range(1000)]
    for handle in handles:
        handle.cancel()
    # Cancelled entries vastly outnumber live ones, so compaction ran.
    assert sim.footprint() < 1000
    assert sim.pending() == 1
    sim.run()
    assert keep == ["live"]


def test_compaction_preserves_firing_order():
    # Two identical schedules; one cancels enough timers mid-run to force
    # compaction, the other stays below the threshold.  Firing order of
    # the surviving events must be byte-identical.
    def drive(threshold):
        sim = Simulator()
        sim.COMPACT_MIN_DEAD = threshold
        fired = []
        handles = []
        for i in range(50):
            t = 1.0 + (i % 7) * 0.01  # deliberate ties
            handles.append(sim.schedule(t, lambda i=i: fired.append(i)))
        for i in range(0, 50, 2):
            handles[i].cancel()
        sim.run()
        return fired

    assert drive(threshold=4) == drive(threshold=10**9)


def test_compaction_threshold_not_triggered_by_few_due_cancels():
    sim = Simulator()
    fired = []
    handles = [
        sim.schedule(1.0, lambda i=i: fired.append(i)) for i in range(10)
    ]
    sim.step()
    for handle in handles[1:6]:
        handle.cancel()
    # Below COMPACT_MIN_DEAD: cancelled entries stay in the heap.
    assert sim.footprint() == 9
    assert sim.pending() == 4
    sim.run()
    assert fired == [0, 6, 7, 8, 9]


def _scan_live(sim):
    """Count live entries by walking the heap."""
    return sum(1 for __, __s, h in sim._queue if not h.cancelled)


def test_pending_is_constant_time_counter():
    # pending() must not scan: the counter and a manual scan agree after
    # an interleaved schedule/cancel/fire workload.
    sim = Simulator()
    handles = []
    for i in range(200):
        handles.append(sim.schedule(0.001 * (i + 1), lambda: None))
        if i % 3 == 0:
            handles[i // 2].cancel()
        if i % 5 == 0:
            sim.step()
    assert sim.pending() == _scan_live(sim)


# ----------------------------------------------------------------------
# run() runaway guard
# ----------------------------------------------------------------------
def test_run_until_guard_passes_terminating_programs():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, lambda: fired.append("a"))
    sim.schedule(0.2, lambda: fired.append("b"))
    assert sim.run(until=1.0) == 2
    assert fired == ["a", "b"]


def test_run_until_guard_raises_on_runaway_self_rescheduling():
    sim = Simulator()

    def rearm():
        sim.schedule(0.05, rearm)

    rearm()
    with pytest.raises(SimulationError, match="runaway"):
        sim.run(until=2.0)


def test_run_until_guard_error_names_the_deadline_and_backlog():
    sim = Simulator()

    def rearm():
        sim.schedule(0.1, rearm)

    rearm()
    with pytest.raises(SimulationError) as excinfo:
        sim.run(until=0.5)
    message = str(excinfo.value)
    assert "t=0.5" in message
    assert "still queued" in message


def test_run_until_guard_rejects_past_deadlines():
    sim = Simulator()
    sim.run_until(1.0)
    with pytest.raises(SimulationError):
        sim.run(until=0.5)


def test_run_guard_composes_with_max_events():
    # max_events keeps its historical break-without-raising semantics
    # even when an until deadline is also armed.
    sim = Simulator()
    fired = []
    for i in range(10):
        sim.schedule(0.1 * (i + 1), lambda i=i: fired.append(i))
    assert sim.run(max_events=3, until=10.0) == 3
    assert fired == [0, 1, 2]
