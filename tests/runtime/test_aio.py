"""AsyncioRuntime: real-clock semantics, driving, and teardown.

Wall-clock assertions use generous bounds — CI machines stall — and the
runs are kept to tens of milliseconds so the suite stays fast.
"""

import asyncio
import statistics

import pytest

from repro.errors import SimulationError
from repro.runtime import AsyncioRuntime, Runtime
from repro.runtime.api import TimerHandle


@pytest.fixture
def runtime():
    rt = AsyncioRuntime()
    yield rt
    rt.close()


def test_is_a_runtime(runtime):
    assert isinstance(runtime, Runtime)
    assert runtime.name == "asyncio"


def test_clock_starts_near_zero_and_advances(runtime):
    assert 0.0 <= runtime.now < 1.0
    before = runtime.now
    runtime.run_for(0.02)
    assert runtime.now >= before + 0.02


def test_timer_fires_at_or_after_deadline(runtime):
    fired = []
    runtime.schedule(0.01, lambda: fired.append(runtime.now))
    runtime.run_for(0.1)
    assert len(fired) == 1
    assert fired[0] >= 0.01


def test_timers_fire_within_half_a_millisecond_of_their_deadline(runtime):
    # A wait rounded up to the next whole millisecond (what epoll_wait
    # does on asyncio's default selector) fires these about 0.9 ms late.
    lateness = []

    def arm(left):
        deadline = runtime.now + 0.0003

        def fire():
            lateness.append(runtime.now - deadline)
            if left:
                arm(left - 1)
            else:
                runtime.stop()

        runtime.schedule(0.0003, fire)

    arm(40)
    runtime.run_for(5.0)
    assert len(lateness) == 41
    assert statistics.median(lateness) < 0.0005


def test_negative_delay_rejected(runtime):
    with pytest.raises(SimulationError, match="past"):
        runtime.schedule(-0.1, lambda: None)


def test_schedule_at_clamps_past_deadlines_to_now(runtime):
    fired = []
    runtime.run_for(0.01)
    runtime.schedule_at(0.0, lambda: fired.append(True))  # already past
    runtime.run_for(0.05)
    assert fired == [True]


def test_cancel_prevents_firing(runtime):
    fired = []
    handle = runtime.schedule(0.01, lambda: fired.append(True))
    assert isinstance(handle, TimerHandle)
    handle.cancel()
    assert handle.cancelled()  # asyncio's handle: a method, not a property
    runtime.run_for(0.05)
    assert fired == []


def test_run_task_returns_result(runtime):
    async def answer():
        await asyncio.sleep(0)
        return 17

    assert runtime.run_task(answer()) == 17


def test_run_until_advances_to_deadline(runtime):
    target = runtime.now + 0.03
    runtime.run_until(target)
    assert runtime.now >= target


def test_stop_from_a_callback_interrupts_run_for(runtime):
    # A callback that re-queues itself with call_soon runs once per loop
    # turn, so it counts the turns the run takes to end after stop():
    # two, to deliver the cancellation and finish the driver task.  A
    # stop() that waited for a 10 ms poll would spin for hundreds.
    turns = []

    def tick():
        turns.append(runtime.now)
        if len(turns) < 10_000:
            runtime.loop.call_soon(tick)

    def stop():
        runtime.stop()
        runtime.loop.call_soon(tick)

    runtime.schedule(0.015, stop)
    runtime.run_for(30.0)
    assert runtime.now < 5.0
    assert len(turns) <= 3


def test_an_idle_run_sleeps_without_polling(runtime, monkeypatch):
    # The run arms no timer of its own, so an idle run_for is one long
    # selector wait (a few if the OS wakes it early).  A 10 ms stop poll
    # made about 195 waits in these 2 s.
    waits = []
    selector = runtime.loop._selector
    select = selector.select

    def counting(timeout=None):
        if timeout is None or timeout > 0:
            waits.append(timeout)
        return select(timeout)

    monkeypatch.setattr(selector, "select", counting)
    runtime.run_for(2.0)
    assert len(waits) <= 10


def test_close_runs_closers_and_rejects_further_driving():
    runtime = AsyncioRuntime()
    closed = []
    runtime.on_close(lambda: closed.append("a"))
    runtime.on_close(lambda: closed.append("b"))
    runtime.close()
    assert closed == ["b", "a"]  # reverse registration order
    runtime.close()  # idempotent
    assert closed == ["b", "a"]
    with pytest.raises(SimulationError, match="closed"):
        runtime.run_for(0.01)
