"""From run records to named metrics.

``worker.py`` prints one record per run; the functions here reduce a
workload's records to the metrics ``BENCHMARK.json`` declares.  A value
computed over several repeats is a percentile of the pooled samples, or
the median of the repeats for everything that is not a percentile.

A metric that is not defined on a workload (a codec metric on the
simulator, a switch time where nothing switches) is left out of the
result, not reported as zero.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from .stats import median, percentile
from .workloads import BY_NAME

Record = Dict[str, Any]
Metric = Tuple[float, str, int]  # value, unit, samples behind it

#: Program layers, named after the modules they cover (README has the table).
LAYERS = (
    "engine", "aio", "net_ptp", "net_ether", "net_udp", "codec", "mux", "msg",
    "seqr", "tring", "rel", "sp", "oracle", "obs", "gen", "probe",
)
# Span names the tracer books separately and the ledger folds into a layer.
_FOLDED = {"engine_arm": "engine", "aio_arm": "aio", "sp_token": "sp",
           "codec_enc": "codec", "codec_dec": "codec"}


def _pooled(records: Sequence[Record], key: str) -> List[float]:
    return sorted(v for r in records for v in r[key])


def _median_of(records: Sequence[Record], fn: Callable[[Record], Optional[float]]):
    values = [v for v in map(fn, records) if v is not None]
    return median(values), len(values)


def _ratio(top: float, bottom: float) -> Optional[float]:
    return top / bottom if bottom else None


def _put(out: Dict[str, Metric], name: str, value: Optional[float], unit: str,
         samples: int) -> None:
    if value is not None:
        out[name] = (value, unit, samples)


# ----------------------------------------------------------------------
# End to end (tracing off)
# ----------------------------------------------------------------------
def end_to_end(runs: Sequence[Record], setups: Sequence[float]) -> Dict[str, Metric]:
    """The metrics a user of the system sees, from untraced ``runs`` and
    every set-up time sample taken (the runs' own and set-up-only ones).

    Throughput, CPU and latency are medians over the slices of the load
    window, pooled over the repeats."""
    out: Dict[str, Metric] = {}
    _put(out, "setup_s", median(setups), "s", len(setups))
    slices = [s for r in runs for s in r["slices"]]

    def sliced(name: str, unit: str, fn: Callable[[Record], Optional[float]]) -> None:
        values = [v for v in map(fn, slices) if v is not None]
        _put(out, name, median(values), unit, len(values))

    sliced("deliveries_per_wall_s", "1/s", lambda s: _ratio(s["deliveries"], s["wall_s"]))
    sliced("cpu_us_per_delivery", "us", lambda s: _ratio(s["cpu_s"] * 1e6, s["deliveries"]))
    sliced("deliver_ms_p50", "ms", lambda s: s["p50_ms"])
    sliced("deliver_ms_p90", "ms", lambda s: s["p90_ms"])
    value, n = _median_of(runs, lambda r: r["peak_rss_mb"])
    _put(out, "peak_rss_mb", value, "MB", n)
    return out


def failures(runs: Sequence[Record]) -> Tuple[int, int]:
    """``(casts attempted, casts failed)`` pooled over the repeats."""
    return sum(r["casts"] for r in runs), sum(r["failed_casts"] for r in runs)


# ----------------------------------------------------------------------
# Per layer
# ----------------------------------------------------------------------
def _counter(record: Record, group: str, name: str) -> float:
    return record["counters"].get(group, {}).get(name, 0)


def _window_counter(record: Record, group: str, name: str) -> float:
    """Growth of a public counter over the load window."""
    before = record["counters_before"].get(group, {}).get(name, 0)
    return record["counters_window"].get(group, {}).get(name, 0) - before


def _trace_layers(traced: Record) -> Dict[str, Dict[str, float]]:
    layers: Dict[str, Dict[str, float]] = {}
    for name, cell in traced["trace"].items():
        into = layers.setdefault(_FOLDED.get(name, name), {"calls": 0, "self_ns": 0})
        into["self_ns"] += cell["self_ns"]
        # A folded root span (one per run_until) is not a call of the layer.
        if name not in ("engine", "aio"):
            into["calls"] += cell["calls"]
    return layers


def per_layer(
    runs: Sequence[Record],
    traced: Optional[Record] = None,
    idle: Optional[Record] = None,
    plain: Sequence[Record] = (),
) -> Dict[str, Metric]:
    """Per-layer metrics of one workload.

    ``runs`` are its untraced runs (public counters, recorder and
    generator diagnostics), ``traced`` its traced run (span self times),
    ``idle`` its no-load pass, and ``plain`` the untraced runs of the same
    load without obs wiring (``udp_steady`` for ``udp_steady_obs``)."""
    out: Dict[str, Metric] = {}
    n = len(runs)

    def counted(name: str, unit: str, fn: Callable[[Record], Optional[float]]) -> None:
        value, samples = _median_of(runs, fn)
        _put(out, name, value, unit, samples)

    first = runs[0]
    network = BY_NAME[first["workload"]].network

    def casts(r: Record) -> int:
        return r["casts_total"]

    def deliveries(r: Record) -> int:
        return r["deliveries_total"]

    if "engine" in first["counters"]:
        counted("engine.events_per_delivery", "count",
                lambda r: _ratio(_counter(r, "engine", "events"), deliveries(r)))
        counted("engine.pending_max", "count", lambda r: r["pending_max"])
    net = f"net_{network}"
    counted(f"{net}.datagrams_per_cast", "count",
            lambda r: _ratio(_counter(r, "net", "sends"), casts(r)))
    if network == "ptp":
        counted("net_ptp.dropped_share", "share",
                lambda r: _ratio(_counter(r, "net", "drops"), _counter(r, "net", "sends")))
    if network == "ether":
        counted("net_ether.medium_utilization", "share",
                lambda r: _ratio(_counter(r, "medium", "busy_s"), r["clock_total_s"]))
    if network == "udp":
        for name in ("undecodable", "misrouted", "socket_errors", "send_after_close"):
            counted(f"net_udp.{name}", "count", lambda r, k=name: _counter(r, "net", k))
    if "port" in first["counters"]:
        counted("mux.stray_group_drops", "count",
                lambda r: _counter(r, "port", "stray_group"))
    counted("seqr.ordered_per_cast", "count",
            lambda r: _ratio(_counter(r, "seqr", "ordered"), casts(r)))
    counted("tring.holds_per_delivery", "count",
            lambda r: _ratio(_counter(r, "tring", "holds"), deliveries(r)))
    # A hold that finds nothing queued sends nothing; holds that send several
    # casts make this a lower bound on the idle share.
    counted("tring.idle_hold_share", "share",
            lambda r: None if not _counter(r, "tring", "holds") else max(
                0.0, 1 - _counter(r, "tring", "multicasts") / _counter(r, "tring", "holds")))
    if first["counters"].get("rel"):
        for name, key in (("retransmits", "retransmits"), ("naks", "naks_sent"),
                          ("acks", "acks_sent")):
            counted(f"rel.{name}_per_cast", "count",
                    lambda r, k=key: _ratio(_counter(r, "rel", k), casts(r)))
        counted("rel.heartbeats_per_s", "1/s",
                lambda r: _ratio(_counter(r, "rel", "heartbeats"), r["clock_total_s"]))
        counted("rel.duplicate_share", "share",
                lambda r: _ratio(_counter(r, "rel", "duplicates"),
                                 _counter(r, "rel", "duplicates")
                                 + _counter(r, "rel", "delivered")))

    switched = sum(len(r["switch_ms"]) for r in runs)
    counted("sp.switches_completed", "count", lambda r: len(r["switch_ms"]))
    counted("sp.switches_failed", "count",
            lambda r: r["switches_aborted"] + r["switches_inflight"])
    counted("sp.requests_skipped", "count", lambda r: r["requests_skipped"])
    counted("sp.hop_retransmits", "count", lambda r: _counter(r, "sp", "hop_retransmits"))
    counted("sp.regenerated_tokens", "count",
            lambda r: _counter(r, "sp", "regenerated_tokens"))
    if switched:
        counted("sp.buffered_per_switch", "count",
                lambda r: _ratio(_window_counter(r, "core", "buffered")
                                 + _window_counter(r, "core", "early_buffered"),
                                 len(r["switch_ms"])))
        times = _pooled(runs, "switch_ms")
        failed = sum(r["switches_aborted"] + r["switches_inflight"] for r in runs)
        _put(out, "sp.switch_ms_p50", percentile(times, failed, 0.5), "ms", len(times))
        _put(out, "sp.switch_ms_p90", percentile(times, failed, 0.9), "ms", len(times))
        _put(out, "sp.switch_ms_max", times[-1], "ms", len(times))
        during = _pooled(runs, "in_switch_ms")
        _put(out, "sp.in_switch_deliver_ms_p50", percentile(during, 0, 0.5), "ms",
             len(during))
    if "oracle" in first["counters"]:
        counted("oracle.decisions", "count", lambda r: _counter(r, "oracle", "decisions"))
    if first["obs_ms"]:
        counted("obs.snapshot_ms", "ms", lambda r: r["obs_ms"]["snapshot"])
        counted("obs.prometheus_ms", "ms", lambda r: r["obs_ms"]["prometheus"])
    if plain:
        own = end_to_end(runs, [])["cpu_us_per_delivery"][0]
        base = end_to_end(plain, [])["cpu_us_per_delivery"][0]
        _put(out, "obs.cpu_overhead_ratio", _ratio(own, base), "ratio", n)

    late = _pooled(runs, "late_ms")
    _put(out, "gen.late_ms_p99", percentile(late, 0, 0.99), "ms", len(late))
    counted("gen.casts", "count", lambda r: r["casts"])
    latency = _pooled(runs, "latency_ms")
    _put(out, "probe.deliver_ms_p99", percentile(latency, 0, 0.99), "ms", len(latency))
    _put(out, "probe.deliver_ms_max", latency[-1] if latency else None, "ms", len(latency))
    counted("probe.samples", "count", lambda r: r["deliveries"])
    counted("host.spin_ms", "ms", lambda r: sum(r["spin_ms"]) / 2)

    if idle is not None:
        clock = idle["clock_s"]
        _put(out, "idle.cpu_ms_per_s", idle["slices"][0]["cpu_s"] * 1e3 / clock, "ms/s", 1)
        if "engine" in idle["counters"]:
            _put(out, "idle.events_per_s",
                 _window_counter(idle, "engine", "events") / clock, "1/s", 1)
        _put(out, "idle.datagrams_per_s",
             _window_counter(idle, "net", "sends") / clock, "1/s", 1)
    if traced is not None:
        out.update(_from_trace(runs, traced))
    return out


def _from_trace(runs: Sequence[Record], traced: Record) -> Dict[str, Metric]:
    out: Dict[str, Metric] = {}
    layers = _trace_layers(traced)
    cpu_ns = traced["trace_cpu_ns"]
    delivered = traced["deliveries"]
    calls = sum(cell["calls"] for cell in layers.values())
    attributed = 0.0
    for layer in LAYERS + ("trace",):
        cell = layers.get(layer)
        if cell is None or not (cell["calls"] or cell["self_ns"]):
            continue  # the layer does not run on this workload
        attributed += cell["self_ns"]
        if layer == "trace":
            continue
        _put(out, f"{layer}.self_us_per_delivery",
             _ratio(cell["self_ns"] / 1e3, delivered), "us", int(cell["calls"]))
        _put(out, f"{layer}.calls_per_delivery",
             _ratio(cell["calls"], delivered), "count", int(cell["calls"]))
        _put(out, f"{layer}.share", _ratio(cell["self_ns"], cpu_ns), "share",
             int(cell["calls"]))
    _put(out, "trace.unattributed_share",
         None if not cpu_ns else max(0.0, 1 - attributed / cpu_ns), "share", int(calls))
    own = end_to_end([traced], [])["cpu_us_per_delivery"][0]
    base = end_to_end(runs, [])["cpu_us_per_delivery"][0]
    _put(out, "trace.overhead_ratio", _ratio(own, base), "ratio", 1)

    raw = traced["trace"]
    arm = raw.get("engine_arm")
    if arm and arm["calls"]:
        _put(out, "engine.schedules_per_delivery", _ratio(arm["calls"], delivered),
             "count", int(arm["calls"]))
        fired = _window_counter(traced, "engine", "events")
        left = _window_counter(traced, "engine", "pending")
        _put(out, "engine.cancelled_share",
             max(0.0, 1 - (fired + left) / arm["calls"]), "share", int(arm["calls"]))
    for side, name in (("codec_enc", "encode"), ("codec_dec", "decode")):
        cell = raw.get(side)
        if cell and cell["calls"]:
            _put(out, f"codec.{name}_us_per_call",
                 cell["self_ns"] / 1e3 / cell["calls"], "us", int(cell["calls"]))
    frames = traced.get("codec_frames", {}).get("frames")
    if frames:
        _put(out, "codec.bytes_per_datagram",
             traced["codec_frames"]["framed_bytes"] / frames, "B", frames)
        # encode_payload and frame are both codec_enc spans; a multicast
        # encodes once and frames once per destination.
        encodes = int(raw["codec_enc"]["calls"]) - frames
        _put(out, "codec.encodes_per_cast", _ratio(encodes, traced["casts"]),
             "count", encodes)
        _put(out, "codec.pickle_fallback_share",
             _ratio(_window_counter(traced, "codec", "pickle_fallbacks"), encodes),
             "share", encodes)
    switched = len(traced["switch_ms"])
    hops = raw.get("sp_token")
    if hops and switched:
        _put(out, "sp.token_hops_per_switch", hops["calls"] / switched, "count", switched)
    polls = raw.get("oracle")
    if polls and polls["calls"]:
        _put(out, "oracle.polls", polls["calls"], "count", int(polls["calls"]))
        _put(out, "oracle.self_us_per_poll",
             polls["self_ns"] / 1e3 / polls["calls"], "us", int(polls["calls"]))
    return out
