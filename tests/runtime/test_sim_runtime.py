"""SimRuntime: interface conformance and engine delegation."""

import pytest

from repro.errors import SimulationError
from repro.runtime import Runtime, Scheduler, SimRuntime, make_runtime
from repro.runtime.api import Clock, TimerHandle
from repro.sim.engine import Simulator


def test_is_a_runtime():
    runtime = SimRuntime()
    assert isinstance(runtime, Runtime)
    assert isinstance(runtime, Scheduler)
    assert isinstance(runtime, Clock)
    assert runtime.name == "sim"


def test_wraps_a_caller_supplied_engine():
    sim = Simulator()
    runtime = SimRuntime(sim)
    assert runtime.sim is sim
    sim.schedule(0.5, lambda: None)
    runtime.run_until(1.0)
    assert sim.now == 1.0
    assert runtime.now == 1.0


def test_schedule_returns_cancellable_timer_handle():
    runtime = SimRuntime()
    fired = []
    handle = runtime.schedule(0.1, lambda: fired.append("a"))
    assert isinstance(handle, TimerHandle)
    handle.cancel()
    assert handle.cancelled
    runtime.run_for(1.0)
    assert fired == []


def test_schedule_at_matches_engine_semantics():
    runtime = SimRuntime()
    fired = []
    runtime.schedule_at(0.25, lambda: fired.append(runtime.now))
    runtime.run_for(1.0)
    assert fired == [0.25]


def test_spawn_runs_callable_at_current_instant():
    runtime = SimRuntime()
    fired = []
    runtime.schedule(1.0, lambda: runtime.spawn(lambda: fired.append(runtime.now)))
    runtime.run_for(2.0)
    assert fired == [1.0]


def test_spawn_rejects_coroutines():
    runtime = SimRuntime()

    async def coro():  # pragma: no cover - never awaited
        pass

    task = coro()
    with pytest.raises(SimulationError, match="AsyncioRuntime"):
        runtime.spawn(task)
    task.close()


def test_engine_passthroughs():
    runtime = SimRuntime()
    for i in range(4):
        runtime.schedule(0.1 * (i + 1), lambda: None)
    assert runtime.pending() == 4
    assert runtime.step() is True
    assert runtime.events_processed == 1
    assert runtime.run() == 3


def test_run_forwards_runaway_guard():
    runtime = SimRuntime()

    def rearm():
        runtime.schedule(0.1, rearm)

    rearm()
    with pytest.raises(SimulationError, match="runaway"):
        runtime.run(until=1.0)


def test_delegation_is_bit_for_bit_identical():
    # The same event program through the boundary and against the bare
    # engine must produce the identical (time, label) firing sequence.
    def program(schedule, now):
        trace = []
        schedule(0.2, lambda: trace.append((now(), "b")))
        schedule(0.1, lambda: trace.append((now(), "a")))
        schedule(0.1, lambda: trace.append((now(), "a2")))  # FIFO tie
        schedule(0.3, lambda: schedule(0.1, lambda: trace.append((now(), "c"))))
        return trace

    sim = Simulator()
    bare = program(sim.schedule, lambda: sim.now)
    sim.run()

    runtime = SimRuntime()
    wrapped = program(runtime.schedule, lambda: runtime.now)
    runtime.run()

    assert bare == wrapped


def test_make_runtime_factory():
    assert isinstance(make_runtime("sim"), SimRuntime)
    with pytest.raises(SimulationError, match="unknown runtime"):
        make_runtime("quantum")
