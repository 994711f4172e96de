"""Both runtimes keep one interface contract.

Every row runs on ``make_runtime("sim")`` (the :class:`Simulator`
itself) and on ``make_runtime("asyncio")``.  What differs by design —
exact versus wall-clock firing times, a past ``schedule_at`` raising
versus clamping — is tested per runtime in ``tests/sim/test_engine.py``
and ``tests/runtime/test_aio.py``.
"""

import pytest

from repro.errors import SimulationError
from repro.runtime import RUNTIME_NAMES, AsyncioRuntime, Simulator, make_runtime
from repro.runtime.api import Clock, Runtime, Scheduler, TimerHandle


@pytest.fixture(params=RUNTIME_NAMES)
def runtime(request):
    rt = make_runtime(request.param)
    yield rt
    if isinstance(rt, AsyncioRuntime):
        rt.close()


def test_is_a_runtime(runtime, request):
    assert isinstance(runtime, Runtime)
    assert isinstance(runtime, Scheduler)
    assert isinstance(runtime, Clock)
    assert runtime.name == request.node.callspec.params["runtime"]


def test_make_runtime_factory():
    assert type(make_runtime("sim")) is Simulator
    aio = make_runtime("asyncio")
    assert type(aio) is AsyncioRuntime
    aio.close()
    with pytest.raises(SimulationError, match="unknown runtime"):
        make_runtime("quantum")


def test_a_cancelled_timer_does_not_fire(runtime):
    fired = []
    handle = runtime.schedule(0.01, lambda: fired.append("a"))
    assert isinstance(handle, TimerHandle)
    handle.cancel()
    handle.cancel()  # idempotent
    runtime.run_for(0.05)
    assert fired == []


@pytest.mark.parametrize(
    "arm",
    [
        lambda rt: rt.schedule(-0.1, lambda: None),
        lambda rt: rt.schedule(float("nan"), lambda: None),
        lambda rt: rt.schedule_at(float("nan"), lambda: None),
    ],
    ids=["negative", "nan", "nan_at"],
)
def test_a_negative_or_nan_deadline_raises(runtime, arm):
    with pytest.raises(SimulationError):
        arm(runtime)


def test_an_infinite_deadline_is_accepted_and_never_fires(runtime):
    fired = []
    runtime.schedule(float("inf"), lambda: fired.append("delay"))
    runtime.schedule_at(float("inf"), lambda: fired.append("at"))
    runtime.run_for(0.01)
    assert fired == []
