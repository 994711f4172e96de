"""Span tracing from outside the program.

A traced run wraps public callables at layer boundaries (``adapter.py``
says which) and books every call as a span: layer name, start, end and
the span that caused it.  A layer's *self time* is its spans minus the
child spans they contain.  The run loop is the root span, measured in
process CPU time, so its self time is what the engine (or the asyncio
loop and its socket reads) spends outside every callback.

Spans are aggregated in memory as ``[calls, self_ns]`` per layer.  One
cast in ``sample_every`` also keeps its full span tree — across timers
and across the wire — and those trees are written as Chrome-trace JSON
at exit, loadable in Perfetto.

Wrapping costs time.  The part of a wrapper that runs inside its own
timestamps (``in_ns``) and the part that runs outside them, in the
caller (``out_ns``), are calibrated once and booked to the ``trace``
layer instead of to the program.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional

_now = time.perf_counter_ns
_cpu = time.process_time_ns

MAX_SAMPLED_SPANS = 250_000
CALIBRATION_CALLS = 20_000


class Tracer:
    def __init__(self, module_layers: Dict[str, str], sample_every: int = 100) -> None:
        self.module_layers = dict(module_layers)
        self.sample_every = sample_every
        self.cells: Dict[str, List[int]] = {}  # layer -> [calls, self_ns]
        self.spans: List[list] = []  # [cast, layer, start_ns, end_ns, parent]
        self.cpu_ns = 0  # process CPU inside root spans
        self.in_ns = 0
        self.out_ns = 0
        self._stack: List[int] = []  # child time of each open span
        self._ctx: List[Any] = [None, None]  # sampled cast, its open span
        self._owners: Dict[str, str] = {}
        self._calibrate()

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        layer: str,
        fn: Callable,
        cast_of: Optional[Callable[[tuple], Optional[int]]] = None,
        cast_of_result: Optional[Callable[[Any], Optional[int]]] = None,
    ) -> Callable:
        """``fn`` with every call booked as a span of ``layer``.

        ``cast_of(args)`` names the cast a call belongs to (``None`` for
        control traffic); calls made for a sampled cast, and everything
        they cause, keep their individual spans.  ``cast_of_result`` does
        the same from the return value, for callables that only learn the
        cast by running (a decoder)."""
        cell = self.cells.setdefault(layer, [0, 0])
        stack, ctx, spans = self._stack, self._ctx, self.spans
        every, out_ns = self.sample_every, self.out_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            cast = ctx[0]
            if cast is None and cast_of is not None:
                cast = cast_of(args)
                if cast is not None and cast % every:
                    cast = None
            if cast is None:
                result = None
                start = _now()
                stack.append(0)
                try:
                    result = fn(*args, **kwargs)
                    return result
                finally:
                    took = _now() - start
                    cell[0] += 1
                    cell[1] += took - stack.pop()
                    if stack:
                        stack[-1] += took + out_ns
                    if cast_of_result is not None and result is not None:
                        cast = cast_of_result(result)
                        if (
                            cast is not None
                            and not cast % every
                            and len(spans) < MAX_SAMPLED_SPANS
                        ):
                            spans.append([cast, layer, start, start + took, None])
            saved_cast, saved_span = ctx
            record = [cast, layer, 0, 0, saved_span]
            if len(spans) < MAX_SAMPLED_SPANS:
                ctx[1] = len(spans)
                spans.append(record)
            ctx[0] = cast
            start = _now()
            stack.append(0)
            try:
                return fn(*args, **kwargs)
            finally:
                took = _now() - start
                cell[0] += 1
                cell[1] += took - stack.pop()
                if stack:
                    stack[-1] += took + out_ns
                record[2], record[3] = start, start + took
                ctx[0], ctx[1] = saved_cast, saved_span

        return traced

    def timer(self, callback: Callable[[], None]) -> Callable[[], None]:
        """A timer callback booked to the layer whose module defined it, and
        tied to the sampled cast (if any) that armed it."""
        traced = self.wrap(self._owner(callback), callback)
        cast, span = self._ctx
        if cast is None:
            return traced
        ctx = self._ctx

        def fired() -> None:
            saved = ctx[0], ctx[1]
            ctx[0], ctx[1] = cast, span
            try:
                traced()
            finally:
                ctx[0], ctx[1] = saved

        return fired

    def _owner(self, callback: Callable) -> str:
        fn = getattr(callback, "__func__", callback)
        fn = getattr(fn, "func", fn)  # functools.partial
        module = getattr(fn, "__module__", None) or "?"
        layer = self._owners.get(module)
        if layer is None:
            prefixes = [
                p for p in self.module_layers
                if module == p or module.startswith(p + ".")
            ]
            layer = self.module_layers[max(prefixes, key=len)] if prefixes else "other"
            self._owners[module] = layer
        return layer

    def traced_runtime(self, base: type, root_layer: str) -> type:
        """``base`` with every timer callback wrapped by :meth:`timer` and
        the arming calls themselves booked to ``root_layer``."""
        tracer = self

        class Traced(base):  # type: ignore[misc, valid-type]
            pass

        def arming(name: str) -> Callable:
            inner = tracer.wrap(root_layer, getattr(base, name))

            def arm(self: Any, *args: Any) -> Any:
                return inner(self, *args[:-1], tracer.timer(args[-1]))

            return arm

        names = ["schedule", "schedule_at"]
        if "rearm" in vars(base):  # else the inherited rearm calls schedule
            names.append("rearm")
        for name in names:
            setattr(Traced, name, arming(name))
        Traced.__name__ = f"Traced{base.__name__}"
        return Traced

    @contextmanager
    def root(self, layer: str) -> Iterator[None]:
        """The run loop as the root span, in process CPU time."""
        cell = self.cells.setdefault(layer, [0, 0])
        started = _cpu()
        self._stack.append(0)
        try:
            yield
        finally:
            cpu = _cpu() - started
            children = self._stack.pop()
            cell[0] += 1
            cell[1] += max(0, cpu - children)
            self.cpu_ns += cpu

    def patch(self, owner: type, method: str, layer: str, cast_of: Any = None) -> None:
        """Wrap ``owner.method`` at class level (before instances are built,
        so bound methods captured during wiring are the wrapped ones)."""
        setattr(owner, method, self.wrap(layer, vars(owner)[method], cast_of))

    # ------------------------------------------------------------------
    # Calibration and reporting
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget what was booked so far (the wrappers keep their cells)."""
        for cell in self.cells.values():
            cell[0] = cell[1] = 0
        self.cpu_ns = 0

    def _calibrate(self) -> None:
        def noop() -> None:
            pass

        def loop(call: Callable[[], None]) -> None:
            for __ in range(CALIBRATION_CALLS):
                call()

        wrapped = self.wrap("_noop", noop)
        for call, name in ((noop, "_bare"), (wrapped, "_wrapped")):
            self.wrap(name, loop)(call)
        calls = CALIBRATION_CALLS
        self.in_ns = self.cells["_noop"][1] // calls
        self.out_ns = max(
            0, (self.cells["_wrapped"][1] - self.cells["_bare"][1]) // calls
        )
        self.cells.clear()

    def report(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {calls, self_ns}}`` with the wrappers' own cost moved to
        the ``trace`` layer."""
        layers: Dict[str, Dict[str, float]] = {}
        spans = 0
        for layer, (calls, self_ns) in self.cells.items():
            layers[layer] = {
                "calls": calls,
                "self_ns": max(0, self_ns - calls * self.in_ns),
            }
            spans += calls
        layers["trace"] = {
            "calls": spans,
            "self_ns": spans * (self.in_ns + self.out_ns),
        }
        return layers

    def write_chrome_trace(self, path: str) -> int:
        """The sampled casts' span trees as Chrome trace events."""
        events = [
            {
                "name": layer,
                "ph": "X",
                "pid": 1,
                "tid": cast,
                "ts": start / 1e3,
                "dur": (end - start) / 1e3,
                "args": {"cast": cast, "span": index, "parent": parent},
            }
            for index, (cast, layer, start, end, parent) in enumerate(self.spans)
        ]
        with open(path, "w") as out:
            json.dump({"traceEvents": events, "displayTimeUnit": "ns"}, out)
        return len(events)

