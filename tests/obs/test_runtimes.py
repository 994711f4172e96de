"""The same instrumentation on both runtimes.

The bus stamps from the :class:`Clock` interface, so one set of call
sites must yield deterministic virtual-time traces on the ``Simulator``
and monotonic wall-clock traces on ``AsyncioRuntime``.  Wall-clock bounds
are generous (CI machines stall) and the runs stay under ~100 ms.
"""

import pytest

from repro.obs.bus import COMPLETE, Bus
from repro.runtime import AsyncioRuntime, Simulator


def nested_spans(runtime, bus, dwell):
    """Open outer/inner spans separated by runtime timers, then drive."""
    outer = bus.span("outer", rank=0)
    inner = {}

    def open_inner():
        inner["span"] = bus.span("inner", rank=0)
        runtime.schedule(dwell, close_inner)

    def close_inner():
        inner["span"].end()
        runtime.schedule(dwell, lambda: outer.end())

    runtime.schedule(dwell, open_inner)
    runtime.run_for(10 * dwell)


class TestSimRuntime:
    def test_span_durations_are_exact_virtual_time(self):
        runtime = Simulator()
        bus = Bus(clock=runtime, enabled=True)
        nested_spans(runtime, bus, dwell=0.5)
        by_name = {e.name: e for e in bus.events}
        assert by_name["inner"].dur == pytest.approx(0.5)
        assert by_name["outer"].dur == pytest.approx(1.5)
        assert by_name["inner"].time == pytest.approx(0.5)

    def test_trace_is_deterministic_across_runs(self):
        def run():
            runtime = Simulator()
            bus = Bus(clock=runtime, enabled=True)
            nested_spans(runtime, bus, dwell=0.25)
            return [(e.name, e.time, e.dur) for e in bus.events]

        assert run() == run()


class TestAsyncioRuntime:
    def test_spans_use_wall_clock_and_nest(self):
        runtime = AsyncioRuntime()
        try:
            bus = Bus(clock=runtime, enabled=True)
            nested_spans(runtime, bus, dwell=0.01)
        finally:
            runtime.close()
        by_name = {e.name: e for e in bus.events}
        inner, outer = by_name["inner"], by_name["outer"]
        assert inner.kind == COMPLETE and outer.kind == COMPLETE
        # Real time elapsed: durations are positive, inner nests in outer.
        assert inner.dur >= 0.01
        assert outer.dur >= inner.dur
        assert outer.time <= inner.time
        assert inner.time + inner.dur <= outer.time + outer.dur + 1e-6

    def test_schema_matches_sim_runtime(self):
        """Same call sites, same event shape — only the clock differs."""
        sim = Simulator()
        sim_bus = Bus(clock=sim, enabled=True)
        nested_spans(sim, sim_bus, dwell=0.01)

        aio = AsyncioRuntime()
        try:
            aio_bus = Bus(clock=aio, enabled=True)
            nested_spans(aio, aio_bus, dwell=0.01)
        finally:
            aio.close()

        def shape(events):
            return [(e.name, e.kind, e.rank, sorted(e.args)) for e in events]

        assert shape(sim_bus.events) == shape(aio_bus.events)
