"""Process sharding: the multiplexed fleet across CPU cores.

One fleet process multiplexes thousands of groups but saturates one
core.  This module partitions the fleet's group-id space across worker
processes by **consistent hashing** (FNV-1a over the group id, mod
shard count) and runs each slice through the unmodified
:func:`~repro.fleet.runner.run_fleet` engine — every worker owns a full
``Runtime`` + ``GroupManager`` + its slice of the global sequencer
plan, seeded from the *global* group index, so any partition reproduces
exactly the per-group outcomes of the unpartitioned run (see
``run_fleet(indices=...)``).

Workers report results to the supervisor over the fleet's own
group-addressed wire frames (:class:`~repro.net.codec.WireCodec`, the
varint-group-id layout every NodePort speaks): one frame per group
report, addressed to that group id, then a group-0 summary frame with
the shard's aggregates and telemetry snapshot.  The transport is a
``multiprocessing`` pipe, but the *framing* is the wire codec — the
same bytes could cross a socket.

The supervisor (:func:`run_fleet_sharded`) spawns workers via ``fork``,
collects frames with crash detection (a dead worker raises a structured
:class:`~repro.errors.ShardCrashed` instead of hanging the sweep),
joins in shard order, and merges the slices into one
:class:`~repro.fleet.runner.FleetResult` — per-shard telemetry planes
roll up through :func:`~repro.obs.telemetry.merge.merge_payloads`.

Scaling economics: each shard simulates its slice in its own process,
so the run's critical path is the *slowest shard's* CPU time instead of
the whole fleet's.  With enough cores, elapsed wall time follows that
critical path; on fewer cores the workers time-slice one another but
the per-shard ``cpu_s`` recorded in ``shard_stats`` still measures the
parallel critical path honestly.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import CodecError, RecordError, ShardCrashed, ShardError
from ..net.codec import WireCodec
from ..obs.telemetry.payload import TelemetryPayload
from ..records import dump, load
from .runner import FleetConfig, FleetResult, GroupReport, ShardStat, run_fleet

__all__ = [
    "fnv1a32",
    "plan_shards",
    "run_fleet_sharded",
    "shard_of",
]

_FNV_OFFSET = 0x811C9DC5
_FNV_PRIME = 0x01000193

#: Seconds between liveness polls while waiting on a worker's pipe.
_POLL_S = 0.2


def fnv1a32(value: int) -> int:
    """FNV-1a over the value's 4 little-endian bytes (u32 output)."""
    digest = _FNV_OFFSET
    for byte in int(value).to_bytes(4, "little"):
        digest = ((digest ^ byte) * _FNV_PRIME) & 0xFFFFFFFF
    return digest


def shard_of(group_id: int, shards: int) -> int:
    """The shard hosting ``group_id`` under consistent hashing.

    Pure and layout-free: a group's home shard depends only on its id
    and the shard count, never on fleet size or creation order, so two
    processes (or a supervisor checking a frame's provenance) always
    agree on placement.
    """
    if shards < 1:
        raise ShardError(f"shard count must be >= 1, got {shards}")
    return fnv1a32(group_id) % shards


def plan_shards(config: FleetConfig) -> List[List[int]]:
    """Partition the fleet's group *indices* across the config's shards.

    Returns one sorted index list per shard; group ``index`` carries
    wire id ``index + 1`` (id 0 is the legacy single-group frame), and
    the id — not the index — is what gets hashed.
    """
    shards = config.shards if config.shards > 0 else 1
    plan: List[List[int]] = [[] for __ in range(shards)]
    for index in range(config.groups):
        plan[shard_of(index + 1, shards)].append(index)
    empty = [sid for sid, indices in enumerate(plan) if not indices]
    if empty:
        raise ShardError(
            f"shard plan leaves shards {empty} empty: {config.groups} "
            f"groups cannot feed {shards} shards under this hash"
        )
    return plan


@dataclass
class ShardSummary(FleetResult):
    """A worker's last frame (group 0, ``"kind": "shard_summary"``): its
    slice's result, whose reports went ahead in their own frames, and
    what the slice cost.  The defaults only let these fields follow
    :class:`FleetResult`'s; ``load`` still requires their keys."""

    shard: int = 0
    cpu_s: float = 0.0
    wall_s: float = 0.0

    def stats(self) -> ShardStat:
        """This shard's entry in the run's ``shard_stats``."""
        return ShardStat(
            self.shard, self.groups, self.casts, self.delivered, self.cpu_s,
            self.wall_s,
        )


def _shard_worker(
    conn, shard_id: int, config: FleetConfig, indices: List[int]
) -> None:
    """Worker body: run one slice, stream frames back, close, exit.

    Runs in a forked child.  All output rides wire frames: one per
    group report (addressed to that group's id), then a group-0 summary
    carrying the shard's aggregates, resource usage, and telemetry
    payload.  A failure sends a group-0 ``shard_error`` frame before
    exiting nonzero, so the supervisor reports the worker's own
    traceback head instead of a bare exit code.
    """
    codec = WireCodec()
    try:
        cpu_start = time.process_time()
        wall_start = time.perf_counter()
        result = run_fleet(config, indices=indices)
        cpu_s = time.process_time() - cpu_start
        wall_s = time.perf_counter() - wall_start
        for report in result.per_group:
            conn.send_bytes(
                codec.encode(
                    shard_id, 0, report.as_dict(), group=report.group_id
                )
            )
        summary = ShardSummary(
            **{**vars(result), "per_group": []},
            shard=shard_id,
            cpu_s=cpu_s,
            wall_s=wall_s,
        )
        frame = {"kind": "shard_summary", **dump(summary)}
        conn.send_bytes(codec.encode(shard_id, 0, frame))
    except BaseException as exc:  # noqa: BLE001 - forwarded, then fatal
        try:
            conn.send_bytes(
                codec.encode(
                    shard_id,
                    0,
                    {
                        "kind": "shard_error",
                        "shard": shard_id,
                        "error": f"{type(exc).__name__}: {exc}",
                    },
                )
            )
        except Exception:
            pass
        conn.close()
        raise SystemExit(1)
    conn.close()


def _decode(cls, data: Any, shard_id: int, where: str):
    """A frame body read closed as *cls*; a fault is the shard's."""
    try:
        return load(cls, data, where)
    except RecordError as exc:
        raise ShardError(f"shard {shard_id} sent a malformed {exc}") from exc


def _collect_shard(
    conn,
    process,
    shard_id: int,
    expected: set,
    codec: WireCodec,
    deadline: float,
) -> Tuple[List[GroupReport], ShardSummary]:
    """Drain one worker's pipe until its summary frame (or its death).

    Frame bodies are hostile until :func:`_decode` reads them, and a
    report must be about the group its frame is addressed to.
    """
    reports: List[GroupReport] = []
    while True:
        while not conn.poll(_POLL_S):
            if time.monotonic() > deadline:
                process.terminate()
                raise ShardCrashed(
                    shard_id, None, "timed out waiting for results"
                )
            if not process.is_alive() and not conn.poll(0):
                raise ShardCrashed(
                    shard_id, process.exitcode, "worker died before reporting"
                )
        try:
            data = conn.recv_bytes()
        except EOFError:
            raise ShardCrashed(
                shard_id, process.exitcode, "pipe closed before summary"
            )
        try:
            group, src, __, payload = codec.decode_datagram(data)
        except CodecError as exc:
            raise ShardError(
                f"shard {shard_id} sent an undecodable frame: {exc.reason}"
            ) from exc
        if src != shard_id:
            raise ShardError(
                f"frame from worker {src} on shard {shard_id}'s pipe"
            )
        if group == 0:
            body = dict(payload) if isinstance(payload, dict) else {}
            kind = body.pop("kind", None)
            if kind == "shard_error":
                raise ShardCrashed(shard_id, 1, body.get("error", "?"))
            if kind != "shard_summary":
                raise ShardError(
                    f"shard {shard_id} sent unknown control frame {kind!r}"
                )
            summary = _decode(ShardSummary, body, shard_id, "summary")
            if summary.shard != shard_id:
                raise ShardError(
                    f"shard {shard_id} sent shard {summary.shard}'s summary"
                )
            missing = expected - {r.group_id for r in reports}
            if missing:
                raise ShardError(
                    f"shard {shard_id} summary arrived with "
                    f"{len(missing)} groups unreported "
                    f"(e.g. {min(missing)})"
                )
            return reports, summary
        if group not in expected:
            raise ShardError(
                f"group {group} landed on shard {shard_id}: outside its "
                f"hash slice"
            )
        report = _decode(GroupReport, payload, shard_id, f"report {group}")
        if report.group_id != group:
            raise ShardError(
                f"shard {shard_id} sent group {report.group_id}'s report "
                f"in a frame for group {group}"
            )
        reports.append(report)


def run_fleet_sharded(
    config: FleetConfig, timeout: Optional[float] = None
) -> FleetResult:
    """Run the fleet partitioned across ``config.shards`` processes.

    ``timeout`` bounds the wait for any single shard's results (wall
    seconds); ``None`` derives a generous bound from the configured
    duration.  Group outcomes are identical to the in-process run —
    only ``shards``/``shard_stats`` and the wall economics differ.
    """
    if config.shards < 1:
        raise ShardError("run_fleet_sharded needs config.shards >= 1")
    if timeout is None:
        timeout = max(60.0, (config.duration + config.settle) * 20.0)
    plan = plan_shards(config)
    codec = WireCodec()
    ctx = multiprocessing.get_context("fork")

    workers = []
    for shard_id, indices in enumerate(plan):
        recv, send = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_shard_worker,
            args=(send, shard_id, config, indices),
            name=f"fleet-shard-{shard_id}",
        )
        process.start()
        send.close()  # child's end; keeping it open would mask EOF
        workers.append((process, recv, indices))

    reports: List[GroupReport] = []
    summaries: List[ShardSummary] = []
    try:
        deadline = time.monotonic() + timeout
        for shard_id, (process, recv, indices) in enumerate(workers):
            expected = {index + 1 for index in indices}
            shard_reports, summary = _collect_shard(
                recv, process, shard_id, expected, codec, deadline
            )
            reports.extend(shard_reports)
            summaries.append(summary)
    finally:
        # Ordered shutdown, shard order: join the reported, terminate
        # the stuck, close every pipe.
        for process, recv, __ in workers:
            if process.is_alive():
                process.join(timeout=5.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=5.0)
            recv.close()

    return _merge(config, reports, summaries)


def _merge(
    config: FleetConfig,
    reports: List[GroupReport],
    summaries: List[ShardSummary],
) -> FleetResult:
    """Fold per-shard slices into the one-process result shape."""
    violations: List[str] = []
    stray_by_node: Dict[int, int] = {}
    pool_loads: Dict[int, int] = {}
    for summary in summaries:
        violations.extend(
            f"shard {summary.shard}: {violation}"
            for violation in summary.violations
        )
        for node, count in summary.stray_by_node.items():
            stray_by_node[node] = stray_by_node.get(node, 0) + count
        for rank, count in summary.pool_loads.items():
            pool_loads[rank] = pool_loads.get(rank, 0) + count

    telemetry: Optional[TelemetryPayload] = None
    if config.telemetry:
        from ..obs.telemetry.merge import merge_payloads

        payloads = [s.telemetry for s in summaries if s.telemetry is not None]
        if payloads:
            telemetry = merge_payloads(
                payloads, sources=[f"shard{s.shard}" for s in summaries]
            )

    delivered = sum(summary.delivered for summary in summaries)
    return FleetResult(
        runtime="sim",
        groups=config.groups,
        clients=config.clients,
        duration=config.duration,
        casts=sum(summary.casts for summary in summaries),
        delivered=delivered,
        msgs_per_s=delivered / config.duration,
        hot_groups=sum(summary.hot_groups for summary in summaries),
        hot_switched=sum(summary.hot_switched for summary in summaries),
        cold_switched=sum(summary.cold_switched for summary in summaries),
        stray_packets=sum(stray_by_node.values()),
        per_group=sorted(reports, key=lambda report: report.group_id),
        violations=violations,
        stray_by_node=dict(sorted(stray_by_node.items())),
        pool_loads=dict(sorted(pool_loads.items())),
        telemetry=telemetry,
        shards=config.shards,
        shard_stats=[summary.stats() for summary in summaries],
    )
