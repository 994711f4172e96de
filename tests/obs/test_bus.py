"""Bus core semantics: events, spans, scoping, and the disabled path.

The disabled fast path is load-bearing — figure-parity fixtures require
a run with instrumentation off to be bit-identical to the seed — so this
file pins down not just what an enabled bus records but what a disabled
bus *doesn't* do: no event allocation, no metrics, no subscribers.
"""

import pytest

from repro.obs.bus import (
    COMPLETE,
    INSTANT,
    NULL_SPAN,
    Bus,
    PhaseTracker,
    default_bus,
    null_scope,
    set_default_bus,
)
from repro.obs.metrics import Counter
from repro.runtime import Simulator


@pytest.fixture
def sim_bus():
    runtime = Simulator()
    return runtime, Bus(clock=runtime, enabled=True)


class TestEnabledBus:
    def test_emit_records_instant_with_clock_stamp(self, sim_bus):
        runtime, bus = sim_bus
        runtime.run_until(1.5)
        bus.emit("token/hop", rank=2, to=3)
        (event,) = bus.events
        assert event.name == "token/hop"
        assert event.kind == INSTANT
        assert event.time == pytest.approx(1.5)
        assert event.rank == 2
        assert event.dur == 0.0
        assert event.args == {"to": 3}

    def test_span_times_against_virtual_clock(self, sim_bus):
        runtime, bus = sim_bus
        span = bus.span("switch/prepare", rank=0, switch=[0, 1])
        runtime.run_until(0.25)
        dur = span.end(outcome="done")
        assert dur == pytest.approx(0.25)
        (event,) = bus.events
        assert event.kind == COMPLETE
        assert event.time == pytest.approx(0.0)
        assert event.dur == pytest.approx(0.25)
        assert event.args == {"switch": [0, 1], "outcome": "done"}

    def test_span_nesting_records_inner_before_outer(self, sim_bus):
        runtime, bus = sim_bus
        with bus.span("outer", rank=0):
            runtime.run_until(0.1)
            with bus.span("inner", rank=0):
                runtime.run_until(0.3)
            runtime.run_until(0.4)
        names = [e.name for e in bus.events]
        assert names == ["inner", "outer"]
        inner, outer = bus.events
        # Proper nesting: inner is contained in outer's interval.
        assert outer.time <= inner.time
        assert inner.time + inner.dur <= outer.time + outer.dur
        assert inner.dur == pytest.approx(0.2)
        assert outer.dur == pytest.approx(0.4)

    def test_span_end_is_idempotent(self, sim_bus):
        runtime, bus = sim_bus
        span = bus.span("once", rank=0)
        span.end()
        span.end()
        assert len(bus.events) == 1

    def test_subscribers_fire_live(self, sim_bus):
        __, bus = sim_bus
        seen = []
        bus.subscribe(lambda e: seen.append(e.name))
        bus.emit("a")
        bus.emit("b")
        assert seen == ["a", "b"]

    def test_max_events_drops_and_counts(self):
        bus = Bus(enabled=True, max_events=2)
        for i in range(5):
            bus.emit(f"e{i}")
        assert len(bus.events) == 2
        assert bus.metrics.snapshot().counters["obs.events_dropped"] == 3

    def test_clear_keeps_subscribers(self, sim_bus):
        __, bus = sim_bus
        seen = []
        bus.subscribe(lambda e: seen.append(e.name))
        bus.emit("before")
        bus.count("c")
        bus.clear()
        assert bus.events == []
        assert bus.metrics.empty
        bus.emit("after")
        assert seen == ["before", "after"]

    def test_clear_forgets_attached_counters(self, sim_bus):
        # bench_obs clears one bus between runs: the next run's owners
        # must not sum with the last run's.
        __, bus = sim_bus
        stats = Counter()
        bus.scoped(None).attach("net", stats)
        stats.incr("sends")
        bus.clear()
        assert bus.metrics.empty
        fresh = Counter()
        bus.scoped(None).attach("net", fresh)
        fresh.incr("sends", 2)
        assert bus.metrics.snapshot().counters == {"net.sends": 2}


class TestDisabledBus:
    def test_records_nothing(self):
        bus = Bus(enabled=False)
        bus.emit("e", rank=0, payload="x")
        bus.count("c")
        bus.gauge("g", 1.0)
        bus.observe("h", 0.5)
        assert bus.events == []
        assert bus.metrics.empty

    def test_span_is_the_shared_null_span(self):
        bus = Bus(enabled=False)
        span = bus.span("anything", rank=3)
        assert span is NULL_SPAN
        assert span.annotate(key="value") is span
        assert span.end() == 0.0
        with span:
            pass
        assert bus.events == []

    def test_subscribers_never_fire(self):
        bus = Bus(enabled=False)
        bus.subscribe(lambda e: pytest.fail("disabled bus invoked subscriber"))
        bus.emit("e")

    def test_default_bus_is_disabled(self):
        assert default_bus().enabled is False

    def test_null_scope_is_safe_everywhere(self):
        scope = null_scope()
        assert not scope.enabled
        scope.emit("e")
        scope.attach("net", Counter())
        scope.gauge("g", 1.0)
        scope.observe("h", 2.0)
        assert scope.span("s") is NULL_SPAN
        assert default_bus().metrics.empty

    def test_set_default_bus_swaps_and_restores(self):
        replacement = Bus(enabled=True)
        previous = set_default_bus(replacement)
        try:
            assert default_bus() is replacement
        finally:
            set_default_bus(previous)
        assert default_bus() is previous


class TestBusScope:
    def test_events_carry_the_scope_rank(self, sim_bus):
        __, bus = sim_bus
        scope = bus.scoped(4)
        scope.emit("e")
        scope.span("s").end()
        assert [e.rank for e in bus.events] == [4, 4]

    def test_gauges_are_rank_qualified(self, sim_bus):
        __, bus = sim_bus
        bus.scoped(1).gauge("core.buffer_depth", 3)
        bus.scoped(2).gauge("core.buffer_depth", 7)
        gauges = bus.metrics.snapshot().gauges
        assert gauges["core.buffer_depth[r1]"].value == 3
        assert gauges["core.buffer_depth[r2]"].value == 7

    def test_counters_aggregate_across_ranks(self, sim_bus):
        __, bus = sim_bus
        r0, r1 = Counter(), Counter()
        bus.scoped(0).attach("sp", r0)
        bus.scoped(1).attach("sp", r1)
        r0.incr("hop_retransmits")
        r1.incr("hop_retransmits", 2)
        assert bus.metrics.snapshot().counters["sp.hop_retransmits"] == 3

    def test_global_scope_has_no_rank(self, sim_bus):
        __, bus = sim_bus
        scope = bus.scoped(None)
        scope.emit("net/e")
        scope.gauge("net.inflight", 1.0)
        assert bus.events[0].rank is None
        assert "net.inflight" in bus.metrics.snapshot().gauges


class TestPhaseTracker:
    def test_full_lifecycle_records_all_phase_spans(self, sim_bus):
        runtime, bus = sim_bus
        tracker = PhaseTracker(bus.scoped(0))
        switch_id = (1, 0)
        tracker.begin(switch_id, "sequencer", "tokenring")
        runtime.run_until(0.1)
        tracker.phase(switch_id, "switch")
        runtime.run_until(0.3)
        tracker.phase(switch_id, "flush")
        runtime.run_until(0.6)
        tracker.complete(switch_id, runtime.now)

        by_name = {}
        for event in bus.events:
            by_name.setdefault(event.name, []).append(event)
        for name, dur in [
            ("switch/prepare", 0.1),
            ("switch/switch", 0.2),
            ("switch/flush", 0.3),
            ("switch/total", 0.6),
        ]:
            (span,) = by_name[name]
            assert span.kind == COMPLETE
            assert span.dur == pytest.approx(dur)
        assert by_name["switch/total"][0].args["outcome"] == "completed"
        assert len(by_name["switch/complete"]) == 1

        snapshot = bus.metrics.snapshot()
        # Counting initiations and completions is the SP's stats' job.
        assert snapshot.counters == {}
        for phase in ("prepare", "switch", "flush"):
            assert snapshot.histograms[f"switch.phase.{phase}_s"].count == 1
        assert snapshot.histograms["switch.duration_s"].count == 1

    def test_abort_closes_spans_with_verdict(self, sim_bus):
        runtime, bus = sim_bus
        tracker = PhaseTracker(bus.scoped(0))
        switch_id = (2, 0)
        tracker.begin(switch_id, "a", "b")
        runtime.run_until(0.2)
        tracker.abort(switch_id, "watchdog", "prepare")
        total = next(e for e in bus.events if e.name == "switch/total")
        assert total.args["outcome"] == "aborted"
        assert total.args["reason"] == "watchdog"
        assert [e.args["reason"] for e in bus.events if e.name == "switch/abort"] == [
            "watchdog"
        ]
        assert "switch.duration_s" not in bus.metrics.snapshot().histograms

    def test_noop_on_disabled_bus(self):
        tracker = PhaseTracker(null_scope())
        tracker.begin((0, 0), "a", "b")
        tracker.phase((0, 0), "switch")
        tracker.complete((0, 0), 1.0)
        tracker.abort((0, 0), "x", "prepare")
        assert default_bus().events == []
