"""Unit tests for layer composition."""

import pytest

from repro.errors import StackError
from repro.sim.engine import Simulator
from repro.stack.layer import Layer, LayerContext, compose, start_layers
from repro.stack.membership import Group
from repro.stack.message import Message


def make_ctx(rank=0, size=3):
    return LayerContext(Simulator(), Group.of_size(size), rank)


def make_msg(ctx, body="x"):
    return ctx.make_message(body, 10)


class Tagger(Layer):
    """Test layer: tags on the way down, pops on the way up."""

    def __init__(self, key):
        super().__init__()
        self.name = key
        self.key = key

    def send(self, msg):
        self.send_down(msg.with_header(self.key, True, 1))

    def receive(self, msg):
        self.deliver_up(msg.without_header(self.key, 1))


class TestLayerContext:
    def test_rank_must_be_member(self):
        with pytest.raises(StackError):
            LayerContext(Simulator(), Group.of_size(2), 9)

    def test_mids_are_unique_and_monotonic(self):
        ctx = make_ctx(rank=2)
        mids = [ctx.next_mid() for __ in range(5)]
        assert mids == [(2, i) for i in range(5)]

    def test_make_message_uses_rank(self):
        ctx = make_ctx(rank=1)
        msg = ctx.make_message("b", 5, dest=(0,))
        assert msg.sender == 1
        assert msg.dest == (0,)

    def test_cpu_work_zero_is_synchronous(self):
        ctx = make_ctx()
        done = []
        ctx.cpu_work(0.0, lambda: done.append(True))
        assert done == [True]

    def test_cpu_work_falls_back_to_delay(self):
        ctx = make_ctx()
        done = []
        ctx.cpu_work(0.5, lambda: done.append(ctx.now))
        ctx.runtime.run()
        assert done == [0.5]

    def test_after_schedules_timer(self):
        ctx = make_ctx()
        fired = []
        ctx.after(0.2, lambda: fired.append(ctx.now))
        ctx.runtime.run()
        assert fired == [0.2]


class TestCompose:
    def test_empty_pipeline_is_identity(self):
        ctx = make_ctx()
        down, up = [], []
        top_send, bottom_receive = compose([], ctx, down.append, up.append)
        msg = make_msg(ctx)
        top_send(msg)
        bottom_receive(msg)
        assert down == [msg]
        assert up == [msg]

    def test_headers_nest_correctly(self):
        ctx = make_ctx()
        wire, app = [], []
        layers = [Tagger("outer"), Tagger("inner")]
        top_send, bottom_receive = compose(layers, ctx, wire.append, app.append)
        start_layers(layers)
        top_send(make_msg(ctx))
        assert len(wire) == 1
        assert wire[0].has_header("outer") and wire[0].has_header("inner")
        bottom_receive(wire[0])
        assert len(app) == 1
        assert not app[0].has_header("outer")
        assert not app[0].has_header("inner")

    def test_identity_layer_passes_through(self):
        ctx = make_ctx()
        wire, app = [], []
        layers = [Layer()]
        top_send, bottom_receive = compose(layers, ctx, wire.append, app.append)
        start_layers(layers)
        msg = make_msg(ctx)
        top_send(msg)
        bottom_receive(msg)
        assert wire == [msg] and app == [msg]

    def test_layer_cannot_be_bound_twice(self):
        ctx = make_ctx()
        layer = Layer()
        compose([layer], ctx, lambda m: None, lambda m: None)
        with pytest.raises(StackError):
            compose([layer], ctx, lambda m: None, lambda m: None)

    def test_start_before_wiring_rejected(self):
        with pytest.raises(StackError):
            Layer().start()

    def test_unwired_emission_rejected(self):
        layer = Layer()
        layer.bind(make_ctx())
        with pytest.raises(StackError):
            layer.send_down(None)
        with pytest.raises(StackError):
            layer.deliver_up(None)

    def test_default_can_send_true(self):
        assert Layer().can_send() is True
