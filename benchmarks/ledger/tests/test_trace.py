import json

import pytest

from ledger import trace


class FakeClock:
    def __init__(self):
        self.t = 0

    def __call__(self):
        return self.t


@pytest.fixture
def tracer(monkeypatch):
    tracer = trace.Tracer({"pkg.low": "low", "pkg": "high"}, sample_every=10)
    tracer.in_ns = tracer.out_ns = 0  # exact arithmetic: no calibration terms
    clock = FakeClock()
    monkeypatch.setattr(trace, "_now", clock)
    monkeypatch.setattr(trace, "_cpu", clock)
    tracer.clock = clock
    return tracer


def spend(tracer, ns):
    tracer.clock.t += ns


def test_self_time_is_span_minus_children(tracer):
    leaf = tracer.wrap("leaf", lambda: spend(tracer, 5))

    def middle():
        spend(tracer, 10)
        leaf()
        leaf()
        spend(tracer, 1)

    mid = tracer.wrap("mid", middle)

    def top():
        spend(tracer, 100)
        mid()
        spend(tracer, 3)
        leaf()

    with tracer.root("loop"):
        spend(tracer, 7)
        tracer.wrap("top", top)()
        spend(tracer, 2)
    report = tracer.report()
    assert report["leaf"] == {"calls": 3, "self_ns": 15}
    assert report["mid"] == {"calls": 1, "self_ns": 11}
    assert report["top"] == {"calls": 1, "self_ns": 103}
    assert report["loop"] == {"calls": 1, "self_ns": 9}
    assert tracer.cpu_ns == 138
    assert sum(cell["self_ns"] for cell in report.values()) == tracer.cpu_ns


def test_same_layer_nesting_does_not_double_count(tracer):
    inner = tracer.wrap("sp", lambda: spend(tracer, 4))
    outer = tracer.wrap("sp", lambda: (spend(tracer, 6), inner()))
    outer()
    assert tracer.report()["sp"] == {"calls": 2, "self_ns": 10}


def test_wrapper_cost_moves_to_the_trace_layer(tracer):
    tracer.in_ns, tracer.out_ns = 2, 3
    leaf = tracer.wrap("leaf", lambda: spend(tracer, 10))
    parent = tracer.wrap("parent", lambda: (spend(tracer, 20), leaf(), spend(tracer, 3)))
    parent()  # the 3 ns after leaf() stand for the wrapper's tail in the caller
    report = tracer.report()
    assert report["leaf"]["self_ns"] == 10 - 2
    assert report["parent"]["self_ns"] == 33 - 10 - 3 - 2
    assert report["trace"] == {"calls": 2, "self_ns": 2 * (2 + 3)}


def test_reset_keeps_wrappers_working(tracer):
    leaf = tracer.wrap("leaf", lambda: spend(tracer, 5))
    leaf()
    tracer.reset()
    leaf()
    assert tracer.report()["leaf"] == {"calls": 1, "self_ns": 5}


def test_exception_keeps_the_stack_balanced(tracer):
    def boom():
        spend(tracer, 5)
        raise ValueError("x")

    wrapped = tracer.wrap("boom", boom)
    outer = tracer.wrap("outer", lambda: (spend(tracer, 1), wrapped()))
    with pytest.raises(ValueError):
        outer()
    assert tracer._stack == []
    assert tracer.report()["outer"]["self_ns"] == 1


def test_sampled_cast_keeps_its_tree_across_a_timer(tracer, tmp_path):
    armed = []
    child = tracer.wrap("net", lambda: spend(tracer, 2))

    def later():
        spend(tracer, 1)
        child()

    later.__module__ = "pkg.low.timers"

    def send(cast):
        spend(tracer, 3)
        armed.append(tracer.timer(later))

    traced_send = tracer.wrap("proto", send, cast_of=lambda args: args[0])
    traced_send(7)  # not sampled: 7 % 10 != 0
    traced_send(20)  # sampled
    for fire in armed:
        fire()
    spans = tracer.spans
    assert [s[:2] for s in spans] == [[20, "proto"], [20, "low"], [20, "net"]]
    assert [s[4] for s in spans] == [None, 0, 1]  # the span that caused each
    assert all(end > start for __, __, start, end, __ in spans)
    assert tracer.report()["low"]["calls"] == 2  # both timers booked, one kept
    path = tmp_path / "trace.json"
    assert tracer.write_chrome_trace(str(path)) == 3
    events = json.loads(path.read_text())["traceEvents"]
    assert {e["tid"] for e in events} == {20}
    assert events[1]["args"] == {"cast": 20, "span": 1, "parent": 0}


def test_result_side_sampling(tracer):
    decode = tracer.wrap("codec", lambda data: (spend(tracer, 4), data)[1],
                         cast_of_result=lambda result: result)
    decode(3)
    decode(30)
    assert [s[:2] for s in tracer.spans] == [[30, "codec"]]
    assert tracer.report()["codec"] == {"calls": 2, "self_ns": 8}


def test_timer_owner_is_the_longest_module_prefix(tracer):
    def callback():
        pass

    for module, layer in (("pkg.low", "low"), ("pkg.low.x", "low"), ("pkg.other", "high"),
                          ("pkglow", "other"), ("elsewhere", "other")):
        callback.__module__ = module
        assert tracer._owner(callback) == layer


def test_traced_runtime_wraps_callbacks_and_books_arming(tracer):
    class Runtime:
        def __init__(self):
            self.armed = []

        def schedule(self, delay, callback):
            spend(tracer, 1)
            self.armed.append(callback)
            return "handle"

        def schedule_at(self, when, callback):
            return self.schedule(0, callback)

        def rearm(self, handle, delay, callback):
            spend(tracer, 1)
            self.armed.append(callback)
            return handle

    def tick():
        spend(tracer, 9)

    tick.__module__ = "pkg.low"
    runtime = tracer.traced_runtime(Runtime, "arm")()
    assert runtime.schedule(0.1, tick) == "handle"
    runtime.rearm("handle", 0.1, tick)
    for callback in runtime.armed:
        callback()
    report = tracer.report()
    assert report["arm"] == {"calls": 2, "self_ns": 2}
    assert report["low"] == {"calls": 2, "self_ns": 18}


def test_calibration_measures_something_real():
    tracer = trace.Tracer({})
    assert 0 < tracer.in_ns < 5_000
    assert 0 <= tracer.out_ns < 5_000
    assert tracer.cells == {}
