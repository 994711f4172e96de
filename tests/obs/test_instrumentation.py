"""End-to-end instrumentation: a real switch run through the bus.

These tests drive the shipped switch demo rather than synthetic
producers, pinning the acceptance contract: an instrumented run records
one complete span per switch phase plus duration percentiles, and an
*uninstrumented* run records nothing anywhere — the process-wide default
bus stays silent no matter how much traffic flows.
"""

import pytest

from repro.net.ethernet import EthernetParams
from repro.obs.bus import Bus, default_bus
from repro.stack.layer import _instrumented_receive
from repro.scenarios.runner import run_scenario
from repro.testing import ChaosConfig
from repro.workloads import switchrun
from repro.workloads.session import Session
from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo

PHASES = ("prepare", "switch", "flush")


@pytest.fixture(scope="module")
def traced_run():
    bus = Bus(enabled=True)
    result = run_switch_demo(
        SwitchRunConfig(runtime="sim", duration=3.0, seed=42), bus=bus
    )
    return bus, result


class TestInstrumentedRun:
    def test_run_still_passes_its_oracle(self, traced_run):
        __, result = traced_run
        assert result.ok, result.violations

    def test_complete_span_per_switch_phase(self, traced_run):
        bus, __ = traced_run
        for phase in PHASES + ("total",):
            spans = [
                e
                for e in bus.events
                if e.kind == "X" and e.name == f"switch/{phase}"
            ]
            assert len(spans) == 1, f"switch/{phase}: {spans}"
            assert spans[0].dur > 0.0

    def test_switch_duration_histogram_present(self, traced_run):
        # One traced run performs exactly one switch, so the duration
        # histogram has a single sample: min/max carry it, and the
        # quantile keys are legitimately absent (one sample is not a
        # distribution).  Multi-switch runs get p50/p90/p99.
        bus, __ = traced_run
        hists = bus.metrics.snapshot().histograms
        duration = hists["switch.duration_s"]
        assert duration.count >= 1
        assert duration.min > 0.0 and duration.max > 0.0
        if duration.count >= 2:
            for key in ("p50", "p90", "p99"):
                assert getattr(duration, key) is not None
        else:
            assert duration.p50 is None
        for phase in PHASES:
            assert hists[f"switch.phase.{phase}_s"].count >= 1

    def test_hot_seams_all_reported(self, traced_run):
        bus, __ = traced_run
        snapshot = bus.metrics.snapshot()
        counters = snapshot.counters
        assert any(e.name == "token/hop" for e in bus.events)
        assert counters["net.sends"] > 0
        assert counters["net.deliveries"] > 0
        assert counters["sp.globally_complete"] == 1
        layer_hists = [
            name
            for name in snapshot.histograms
            if name.startswith("layer.") and name.endswith(".deliver_cpu_s")
        ]
        assert layer_hists, "no per-layer deliver latency recorded"

    def test_dormancy_is_on_the_trace(self, traced_run):
        """"Why is this ring silent" has an answer in the artifact: the
        token ring parks at start-up (the group begins on the sequencer)
        and is released once, by the switch that wakes it."""
        bus, __ = traced_run
        parks = [e for e in bus.events if e.name == "tring/park"]
        resumes = [e for e in bus.events if e.name == "tring/resume"]
        assert len(parks) == 1 and len(resumes) == 1
        assert parks[0].time < resumes[0].time


class TestDisabledOverhead:
    def test_uninstrumented_run_records_nothing(self):
        before_events = len(default_bus().events)
        result = run_switch_demo(
            SwitchRunConfig(runtime="sim", duration=3.0, seed=42)
        )
        assert result.ok
        assert len(default_bus().events) == before_events
        assert default_bus().metrics.empty

    @pytest.mark.parametrize(
        "runtime,session_args",
        [("sim", {"ethernet": EthernetParams()}), ("asyncio", {})],
        ids=["ethernet", "udp"],
    )
    def test_unwired_runs_attach_no_counters(self, runtime, session_args):
        # Every stack, layer and network wires through BusScope.attach;
        # on the disabled default bus that must register nothing.
        config = SwitchRunConfig(
            runtime=runtime, duration=1.5, switch_at=0.5, rate=30.0,
            base_port=48640,
        )
        with Session(
            config.members, config.seed, runtime, base_port=48640,
            **session_args,
        ) as session:
            assert switchrun._drive(session, config).ok
        assert default_bus().metrics.empty

    def test_unwired_chaos_attaches_no_counters(self):
        # The runner's own enabled bus is private to the run.
        assert run_scenario(ChaosConfig(seed=7, duration=2.0).spec()).ok
        assert default_bus().metrics.empty

    def test_disabled_compose_wires_receive_unwrapped(self):
        """The disabled path must not interpose even a thin wrapper."""

        class FakeLayer:
            name = "fake"

            def receive(self, msg):  # pragma: no cover - never called
                pass

        class FakeCtx:
            obs = default_bus().scoped(0)

        layer = FakeLayer()
        wrapped = _instrumented_receive(layer, FakeCtx())
        assert wrapped == layer.receive  # the bound method itself, no wrapper

    def test_enabled_compose_interposes_profiler(self):
        class FakeLayer:
            name = "fake"

            def receive(self, msg):
                pass

        class FakeCtx:
            obs = Bus(enabled=True).scoped(0)

        layer = FakeLayer()
        wrapped = _instrumented_receive(layer, FakeCtx())
        assert wrapped is not layer.receive
        ctx_bus = FakeCtx.obs.bus
        wrapped("msg")
        snapshot = ctx_bus.metrics.snapshot()
        assert snapshot.histograms["layer.fake.deliver_cpu_s"].count == 1
