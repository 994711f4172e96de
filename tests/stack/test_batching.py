"""Unit and integration tests for the batching layer."""

import pytest

from helpers import switch_group
from repro.core.switchable import ProtocolSpec
from repro.errors import StackError
from repro.obs.bus import Bus
from repro.protocols.sequencer import SequencerLayer
from repro.protocols.tokenring import TokenRingLayer
from repro.sim.engine import Simulator
from repro.stack.batching import BatchingLayer
from repro.stack.layer import LayerContext, compose, start_layers
from repro.stack.membership import Group
from repro.stack.message import BASE_WIRE_OVERHEAD


def make_wired(max_batch=3, linger=0.0, rank=0, size=3, bus=None):
    """One BatchingLayer with its wire taps: (sim, layer, sent, delivered)."""
    sim = Simulator()
    ctx = LayerContext(sim, Group.of_size(size), rank, bus=bus)
    layer = BatchingLayer(max_batch=max_batch, linger=linger)
    sent, delivered = [], []
    compose([layer], ctx, sent.append, delivered.append)
    start_layers([layer])
    return sim, ctx, layer, sent, delivered


class TestValidation:
    def test_max_batch_must_be_positive(self):
        with pytest.raises(StackError):
            BatchingLayer(max_batch=0)

    def test_linger_must_be_non_negative(self):
        with pytest.raises(StackError):
            BatchingLayer(linger=-0.1)


class TestBatchAssembly:
    def test_full_batch_is_one_wire_frame(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=3)
        msgs = [ctx.make_message(i, 100) for i in range(3)]
        for m in msgs:
            layer.send(m)
        assert len(sent) == 1
        frame = sent[0]
        assert frame.header("batch") == {"n": 3}
        assert frame.body == tuple(msgs)

    def test_batch_pays_one_wire_overhead(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=2)
        msgs = [ctx.make_message(i, 100) for i in range(2)]
        for m in msgs:
            layer.send(m)
        frame = sent[0]
        separate = sum(m.size_bytes for m in msgs)
        assert frame.size_bytes < separate

    def test_linger_flushes_partial_batch(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=100, linger=0.01)
        layer.send(ctx.make_message("a", 10))
        layer.send(ctx.make_message("b", 10))
        assert sent == []
        assert layer.queued == 2
        sim.run()
        assert len(sent) == 1
        assert sent[0].header("batch") == {"n": 2}
        assert layer.queued == 0

    def test_zero_linger_flushes_after_current_cascade(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=100, linger=0.0)
        layer.send(ctx.make_message("a", 10))
        assert sent == []  # not synchronous...
        sim.run()
        assert len(sent) == 1  # ...but flushed at the same instant
        assert sim.now == 0.0

    def test_singleton_flush_goes_out_bare(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=8, linger=0.001)
        msg = ctx.make_message("solo", 10)
        layer.send(msg)
        sim.run()
        assert sent == [msg]  # the original message, no wrapper
        assert not sent[0].has_header("batch")

    def test_size_flush_cancels_linger_timer(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=2, linger=5.0)
        layer.send(ctx.make_message("a", 10))
        layer.send(ctx.make_message("b", 10))
        assert len(sent) == 1
        sim.run()  # the cancelled timer must not produce a second flush
        assert len(sent) == 1
        assert sim.pending() == 0

    def test_control_traffic_passes_through_unbatched(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=8, linger=1.0)
        control = ctx.make_message(("token",), 16, dest=(1,))
        layer.send(control)
        assert sent == [control]
        assert layer.queued == 0


class TestUnbatching:
    def test_constituents_delivered_in_order(self):
        sim, ctx, layer, sent, delivered = make_wired(max_batch=3)
        msgs = [ctx.make_message(i, 10) for i in range(3)]
        for m in msgs:
            layer.send(m)
        layer.receive(sent[0])
        assert delivered == msgs

    def test_non_batch_traffic_delivered_untouched(self):
        sim, ctx, layer, sent, delivered = make_wired()
        msg = ctx.make_message("plain", 10)
        layer.receive(msg)
        assert delivered == [msg]


class TestObservability:
    def test_batch_metrics_recorded_when_enabled(self):
        bus = Bus(enabled=True)
        sim, ctx, layer, sent, delivered = make_wired(max_batch=2, bus=bus)
        for i in range(4):
            layer.send(ctx.make_message(i, 10))
        counters = bus.metrics.counters()
        assert counters["batch.batches"] == 2
        assert counters["batch.batched_msgs"] == 4
        assert counters["batch.queued"] == 4
        histogram = bus.metrics.histogram("batch.size_msgs")
        assert histogram is not None
        assert histogram.count == 2
        assert histogram.maximum == 2.0

    def test_no_metrics_when_disabled(self):
        bus = Bus(enabled=False)
        sim, ctx, layer, sent, delivered = make_wired(max_batch=2, bus=bus)
        for i in range(2):
            layer.send(ctx.make_message(i, 10))
        assert bus.metrics.empty


def batched_specs(max_batch=4, linger=0.002):
    return [
        ProtocolSpec(
            "seq",
            lambda r: [BatchingLayer(max_batch, linger), SequencerLayer()],
        ),
        ProtocolSpec(
            "tok",
            lambda r: [BatchingLayer(max_batch, linger), TokenRingLayer()],
        ),
    ]


@pytest.mark.parametrize("variant", ["token", "broadcast"])
class TestBatchingUnderTheSwitchingProtocol:
    def test_send_count_vectors_count_constituents(self, variant):
        """A batch counts as its constituent messages: core.sent ticks per
        application cast, core.delivered per unpacked constituent — so the
        SWITCH vector drain check stays exact."""
        sim, stacks, log = switch_group(3, batched_specs(), "seq", variant)
        for i in range(7):  # deliberately not a multiple of max_batch
            sim.schedule_at(
                0.001 * (i + 1), lambda i=i: stacks[i % 3].cast(i, 64)
            )
        sim.run_until(1.0)
        sent_totals = [stacks[r].core.sent["seq"] for r in range(3)]
        assert sum(sent_totals) == 7
        for r in range(3):
            per_member = stacks[r].core.delivered["seq"]
            assert sum(per_member.values()) == 7
            for origin in range(3):
                assert per_member.get(origin, 0) == stacks[origin].core.sent["seq"]

    def test_switch_drains_exactly_with_batches_in_flight(self, variant):
        sim, stacks, log = switch_group(4, batched_specs(), "seq", variant)
        for i in range(24):
            sim.schedule_at(
                0.002 * (i + 1), lambda i=i: stacks[i % 4].cast(("m", i), 64)
            )
        sim.schedule_at(0.02, lambda: stacks[0].request_switch("tok"))
        sim.run_until(2.0)
        assert all(s.current_protocol == "tok" for s in stacks.values())
        assert all(not s.switching for s in stacks.values())
        assert log.all_agree()
        assert len(log.bodies(0)) == 24

    def test_total_order_holds_across_batched_switch(self, variant):
        sim, stacks, log = switch_group(
            3, batched_specs(max_batch=8, linger=0.005), "seq", variant, seed=9
        )
        for i in range(30):
            sim.schedule_at(
                0.003 * (i + 1), lambda i=i: stacks[i % 3].cast(i, 32)
            )
        sim.schedule_at(0.05, lambda: stacks[1].request_switch("tok"))
        sim.run_until(2.0)
        assert log.all_agree()
        assert sorted(log.bodies(0)) == list(range(30))


def test_batched_switch_demo_oracle_holds():
    """End-to-end `repro run` path with batching enabled."""
    from repro.workloads.switchrun import SwitchRunConfig, run_switch_demo

    result = run_switch_demo(
        SwitchRunConfig(
            members=4, duration=1.5, rate=120.0, switch_at=0.7,
            max_batch=6, linger=0.002,
        )
    )
    assert result.ok, result.violations
    assert len(set(result.delivered.values())) == 1
