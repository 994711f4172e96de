"""One run of one workload, in its own process.

``run.py --child SPEC`` lands here.  The process builds the workload,
drives it with the benchmark's generator and recorder, checks the
outputs, and prints one JSON record on its last line; ``harness.py``
turns records into metrics.  A fresh process per run gives clean RSS,
import state and ports.

``mode`` is ``run`` (load, then settle), ``setup`` (build and exit: a
set-up time sample) or ``idle`` (the same topology with no casts).

The load window is cut into equal slices, each a whole number of switch
cycles.  Throughput, CPU and latency are taken per slice, and the
metrics are medians over slices: a burst of host noise spoils the slices
it hits, not the run.
"""

from __future__ import annotations

import json
import math
import os
import resource
import time
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Tuple

from . import probe
from .loadgen import HEADER, LoadGenerator, Schedule, make_schedule
from .stats import percentile
from .trace import Tracer
from .workloads import BODY_SIZE, BY_NAME, SLOTS, Workload

START_DELAY = 0.05  # runtime-clock seconds between arming and the first due time
IDLE_SECONDS = 3.0  # runtime-clock length of the no-load pass
MAX_LATENCY_SAMPLES = 20_000
PENDING_SAMPLE_EVERY = 0.05
SPIN_ROUNDS = 5

GEN_MODULES = {
    "ledger.loadgen": "gen",
    "ledger.worker": "gen",
    "ledger.probe": "probe",
}


def host_spin_ms() -> float:
    """A fixed pure-Python spin: how fast is this host right now?"""
    best = math.inf
    for __ in range(SPIN_ROUNDS):
        started = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best * 1e3


def _seq_of(carrier: Any) -> Optional[int]:
    """The cast a message (or the packet holding it) carries; ``None`` for
    the program's own traffic."""
    body = getattr(getattr(carrier, "payload", carrier), "body", None)
    if type(body) is bytes and len(body) == BODY_SIZE:
        return HEADER.unpack_from(body)[2]
    return None


def _cast_at(index: Optional[int]) -> Any:
    return None if index is None else (lambda args: _seq_of(args[index]))


class SwitchLog:
    """Requests switches and times them: from the request to the last
    member's ``on_switch_complete``."""

    def __init__(self, world: Any) -> None:
        self.world = world
        self.inflight: Dict[int, Tuple[float, set]] = {}
        self.completed: List[Tuple[int, float, float]] = []  # group, asked, done
        self.skipped = 0
        self.aborted = 0
        for group in range(len(world.members)):
            world.on_switch_complete(
                group, lambda rank, old, new, g=group: self._member_done(g, rank)
            )
            world.on_switch_aborted(group, lambda rank, g=group: self._aborted(g))
        world.on_oracle_decision(self._asked)

    def request(self, group: int) -> None:
        """Ask ``group`` to leave its current protocol, unless its previous
        switch is still in flight."""
        if group in self.inflight:
            self.skipped += 1
            return
        world = self.world
        current = world.protocols(group)[world.members[group][0]]
        self._asked(group)
        world.request_switch(group, SLOTS[1] if current == SLOTS[0] else SLOTS[0])

    def _asked(self, group: int) -> None:
        self.inflight[group] = (self.world.runtime.now, set())

    def _member_done(self, group: int, rank: int) -> None:
        entry = self.inflight.get(group)
        if entry is None:
            return
        entry[1].add(rank)
        if len(entry[1]) == len(self.world.members[group]):
            del self.inflight[group]
            self.completed.append((group, entry[0], self.world.runtime.now))

    def _aborted(self, group: int) -> None:
        if self.inflight.pop(group, None) is not None:
            self.aborted += 1


class Tracing:
    """A traced run's substitutions: traced runtimes, a timing codec, and
    every class-level boundary of ``adapter.trace_points()`` wrapped."""

    def __init__(self, adapter: Any, workload: Workload) -> None:
        tracer = self.tracer = Tracer({**adapter.MODULE_LAYERS, **GEN_MODULES})
        self.root_layer = "engine" if workload.runtime == "sim" else "aio"
        frames = self.frames = {"frames": 0, "framed_bytes": 0}
        base_codec = adapter.Hooks.codec
        timed_frame = tracer.wrap("codec_enc", base_codec.frame)

        class TimingCodec(base_codec):  # type: ignore[misc, valid-type]
            """The codec handed to ``UdpNetwork(codec=)``: same bytes, timed."""

            encode_payload = tracer.wrap(
                "codec_enc", base_codec.encode_payload, lambda args: _seq_of(args[1])
            )
            decode_datagram = tracer.wrap(
                "codec_dec",
                base_codec.decode_datagram,
                cast_of_result=lambda result: _seq_of(result[3]),
            )

            def frame(self, *args: Any, **kwargs: Any) -> bytes:
                data = timed_frame(self, *args, **kwargs)
                frames["frames"] += 1
                frames["framed_bytes"] += len(data)
                return data

        class TracingHooks(adapter.Hooks):
            tracing = True
            sim_runtime = tracer.traced_runtime(adapter.Hooks.sim_runtime, "engine_arm")
            aio_runtime = tracer.traced_runtime(adapter.Hooks.aio_runtime, "aio_arm")
            codec = TimingCodec

            def wrap(self, layer: str, fn: Any, message_at: Any = None) -> Any:
                return tracer.wrap(layer, fn, _cast_at(message_at))

        self.hooks = TracingHooks()
        for layer, owner, method, message_at in adapter.trace_points():
            tracer.patch(owner, method, layer, _cast_at(message_at))

    def start_window(self) -> None:
        self.tracer.reset()
        self.frames.update(frames=0, framed_bytes=0)

    def end_window(self, record: Dict[str, Any]) -> None:
        record["trace"] = self.tracer.report()
        record["trace_cpu_ns"] = self.tracer.cpu_ns
        record["codec_frames"] = dict(self.frames)


def run(spec: Dict[str, Any], t0: float) -> Dict[str, Any]:
    workload = BY_NAME[spec["workload"]]

    from . import adapter  # imports repro: part of the set-up time

    tracing = Tracing(adapter, workload) if spec.get("traced") else None
    hooks = tracing.hooks if tracing is not None else adapter.Hooks()
    world = adapter.World(workload, spec["seed"], hooks)
    record: Dict[str, Any] = {
        "workload": workload.name,
        "seed": spec["seed"],
        "seconds": spec["seconds"],
        "mode": spec["mode"],
        "traced": tracing is not None,
        "setup_s": time.perf_counter() - t0,
        "port_collisions": world.port_collisions,
    }
    try:
        if spec["mode"] != "setup":
            _drive(world, workload, spec, tracing, record)
    finally:
        world.close()
    record["peak_rss_mb"] = peak_rss_mb()
    return record


def peak_rss_mb() -> float:
    """This process's high-water RSS.  ``ru_maxrss`` would do, but on Linux
    it starts from the RSS of the process that forked us, so a harness that
    has grown reports its own size for a small child; ``VmHWM`` starts
    afresh at exec."""
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _drive(
    world: Any,
    workload: Workload,
    spec: Dict[str, Any],
    tracing: Optional[Tracing],
    record: Dict[str, Any],
) -> None:
    runtime = world.runtime
    idle = spec["mode"] == "idle"
    warmup = 0.0 if idle else workload.warmup
    load = IDLE_SECONDS if idle else workload.load_seconds(spec["seconds"])
    settle = 0.0 if idle else workload.settle
    slices = 1 if idle else workload.slices(spec["seconds"])
    schedule = make_schedule(workload, spec["seed"], 0.0 if idle else warmup + load)

    recorder = probe.Recorder(runtime, world.members)
    wrap = world.hooks.wrap
    for group, ranks in enumerate(world.members):
        for rank in ranks:
            world.on_deliver(group, rank, wrap("probe", recorder.sink(group, rank)))
    origins = [world.sender_ranks(g) for g in range(len(world.members))]
    casters = [
        [world.caster(g, rank) for rank in ranks] for g, ranks in enumerate(origins)
    ]
    switches = SwitchLog(world)

    start_at = runtime.now + START_DELAY
    generator = LoadGenerator(runtime, schedule, casters, origins, start_at)
    generator.start()
    window = start_at + warmup
    load_end = window + load
    if any(workload.dwell) and not idle:
        for group in range(len(world.members)):
            at, stay = start_at + group * workload.switch_stagger, 0
            while True:
                at += workload.dwell[stay % 2]
                stay += 1
                if at >= load_end:
                    break
                runtime.schedule_at(at, lambda g=group: switches.request(g))
    pending_max = [0]
    if workload.runtime == "sim":

        def sample_pending() -> None:
            pending_max[0] = max(pending_max[0], runtime.pending())
            if runtime.now < load_end:
                runtime.schedule(PENDING_SAMPLE_EVERY, sample_pending)

        runtime.schedule(PENDING_SAMPLE_EVERY, sample_pending)

    # One mark at every slice boundary: wall, CPU, deliveries so far.
    marks: List[Tuple[float, float, int]] = []

    def mark() -> None:
        marks.append((time.perf_counter(), time.process_time(), recorder.deliveries()))

    for k in range(1, slices):
        runtime.schedule_at(window + k * load / slices, mark)
    world.start()

    spin_before = host_spin_ms()
    runtime.run_until(window)
    counters_before = world.counters()
    if tracing is not None:
        tracing.start_window()
        with tracing.tracer.root(tracing.root_layer):
            mark()
            runtime.run_until(load_end)
            mark()
        tracing.end_window(record)
        if spec.get("out"):
            path = os.path.join(spec["out"], f"trace_{workload.name}.json")
            tracing.tracer.write_chrome_trace(path)
    else:
        mark()
        runtime.run_until(load_end)
        mark()
    counters_window = world.counters()
    runtime.run_until(load_end + settle)
    world.finish()

    record["spin_ms"] = [spin_before, host_spin_ms()]
    record["clock_s"] = load
    record["clock_total_s"] = runtime.now
    record["pending_max"] = pending_max[0]
    record["counters_before"] = counters_before
    record["counters_window"] = counters_window
    record["counters"] = world.counters()
    record["obs_ms"] = world.obs_ms
    record["schedule_digest"] = schedule.digest()
    record["casts_total"] = len(schedule)
    _judge(world, schedule, start_at, warmup, load, marks, recorder, generator,
           switches, record)


def _judge(
    world: Any,
    schedule: Schedule,
    start_at: float,
    warmup: float,
    load: float,
    marks: List[Tuple[float, float, int]],
    recorder: probe.Recorder,
    generator: LoadGenerator,
    switches: SwitchLog,
    record: Dict[str, Any],
) -> None:
    """Check the outputs and reduce the logs to what the metrics need."""
    first = bisect_left(schedule.due, warmup)  # the first cast that is measured
    violations: List[str] = []
    if recorder.corrupt:
        violations.append(f"{recorder.corrupt} delivered bodies are not the bytes cast")
    if len(generator.late) != len(schedule):
        violations.append(
            f"generator made {len(generator.late)} of {len(schedule)} casts"
        )
    casts_by_group: List[List[int]] = [[] for __ in world.members]
    for seq, group in enumerate(schedule.group):
        casts_by_group[group].append(seq)
    count = len(marks) - 1
    width = load / count
    slice_of = [min(count - 1, int((due - warmup) / width)) for due in schedule.due]
    missing_in = [0] * count
    failed_casts = missing = 0
    stuck: Dict[str, Any] = {}
    for group, delivered in enumerate(recorder.seqs):
        violations += probe.find_duplicates(group, delivered)
        violations += probe.find_order_disagreements(group, delivered)
        violations += probe.check_foreign(group, delivered, schedule.group)
        violations += probe.check_convergence(
            group, world.protocols(group), world.switching(group)
        )
        measured = [s for s in casts_by_group[group] if s >= first]
        failed = probe.failed_casts(measured, delivered)
        for seq, lost in failed.items():
            missing_in[slice_of[seq]] += lost
        failed_casts += len(failed)
        missing += sum(failed.values())
        if failed or group in switches.inflight:
            stuck[str(group)] = world.stuck_state(group)

    window = start_at + warmup
    done = [s for s in switches.completed if s[1] >= window]
    unfinished = [(g, asked, math.inf) for g, (asked, __) in switches.inflight.items()]
    latency_in: List[List[float]] = [[] for __ in range(count)]
    in_switch: List[float] = []
    due = schedule.due
    for group, members in enumerate(recorder.seqs):
        spans = [(a, b) for g, a, b in done + unfinished if g == group]
        for rank, seqs in members.items():
            for seq, late in zip(seqs, recorder.latency[group][rank]):
                if seq < first:
                    continue
                latency_in[slice_of[seq]].append(late * 1e3)
                if spans:
                    due_at = start_at + due[seq]
                    if any(a <= due_at <= b for a, b in spans):
                        in_switch.append(late * 1e3)
    sliced = []
    for k in range(count):
        (w0, c0, d0), (w1, c1, d1) = marks[k], marks[k + 1]
        latency_in[k].sort()
        sliced.append({
            "wall_s": w1 - w0,
            "cpu_s": c1 - c0,
            "deliveries": d1 - d0,
            "p50_ms": percentile(latency_in[k], missing_in[k], 0.50),
            "p90_ms": percentile(latency_in[k], missing_in[k], 0.90),
        })
    latency = sorted(v for part in latency_in for v in part)
    late = sorted(v * 1e3 for v in generator.late[first:])
    in_switch.sort()

    def thin(values: List[float]) -> List[float]:
        """At most MAX_LATENCY_SAMPLES evenly spaced values, the largest kept."""
        step = max(1, math.ceil(len(values) / MAX_LATENCY_SAMPLES))
        return [round(v, 4) for v in values[::-1][::step][::-1]]

    record.update(
        slices=sliced,
        casts=len(schedule) - first,
        failed_casts=failed_casts,
        deliveries=len(latency),
        deliveries_total=recorder.deliveries(),
        missing_deliveries=missing,
        latency_ms=thin(latency),
        in_switch_ms=thin(in_switch),
        late_ms=thin(late),
        switch_ms=[round((b - a) * 1e3, 4) for __, a, b in done],
        switches_inflight=len(unfinished),
        switches_aborted=switches.aborted,
        requests_skipped=switches.skipped,
        violations=violations,
        stuck=stuck,
        final_protocols=sorted(
            {p for g in range(len(world.members)) for p in world.protocols(g).values()}
        ),
    )
    record["digest"] = probe.run_digest(
        recorder,
        [record["schedule_digest"], switches.completed, record["final_protocols"]],
    )


def main(spec_json: str, t0: float) -> int:
    spec = json.loads(spec_json)
    if spec.get("cpu") is not None:
        os.sched_setaffinity(0, {spec["cpu"]})  # beside the keep-awake loop
    print(json.dumps(run(spec, t0)))
    return 0
