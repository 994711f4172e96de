"""The benchmark's own open-loop load generator.

The whole cast schedule is computed from ``--seed`` before the run:
Poisson gaps at the workload's aggregate rate, the group drawn in
proportion to its rate (uniform when all groups run at one rate), the
sender drawn uniformly from the group's senders.  The program therefore
receives only generated inputs, and the same seed always produces the
same bytes.

Casts are open-loop: each is *due* at its scheduled instant whatever the
system is doing, and latency is timed from that instant, so a stall is
charged to every cast it delays.  How late the generator itself ran is
kept per cast and reported as ``gen.late_ms_p99``.
"""

from __future__ import annotations

import hashlib
import random
import struct
from array import array
from bisect import bisect_right
from itertools import accumulate
from typing import Any, Callable, List, Sequence

from .workloads import BODY_SIZE, Workload

#: (group index, origin rank, cast sequence number, due time on the runtime clock)
HEADER = struct.Struct("<IIQd")
_PAD = bytes(BODY_SIZE - HEADER.size)


class Schedule:
    """Every cast of one run: when it is due, in which group, from whom."""

    def __init__(self, due: array, group: array, sender: array) -> None:
        self.due = due  # seconds after the load starts, ascending
        self.group = group  # group index
        self.sender = sender  # index into the group's sender ranks

    def __len__(self) -> int:
        return len(self.due)

    def digest(self) -> str:
        h = hashlib.sha256()
        for column in (self.due, self.group, self.sender):
            h.update(column.tobytes())
        return h.hexdigest()


def make_schedule(workload: Workload, seed: int, span: float) -> Schedule:
    """The casts due in ``[0, span)`` runtime-clock seconds."""
    rng = random.Random(seed)
    cumulative = list(accumulate(workload.rate_of(i) for i in range(workload.groups)))
    total, last = cumulative[-1], workload.groups - 1
    due, group, sender = array("d"), array("I"), array("I")
    at = rng.expovariate(total)
    while at < span:
        due.append(at)
        # x * total can round up to total itself; keep the index in range.
        group.append(min(bisect_right(cumulative, rng.random() * total), last))
        sender.append(rng.randrange(workload.senders))
        at += rng.expovariate(total)
    return Schedule(due, group, sender)


def pack_body(group: int, origin: int, seq: int, due_at: float) -> bytes:
    return HEADER.pack(group, origin, seq, due_at) + _PAD


class LoadGenerator:
    """Arms the schedule on a runtime, one pending timer at a time."""

    def __init__(
        self,
        runtime: Any,
        schedule: Schedule,
        casters: Sequence[Sequence[Callable[[bytes], Any]]],
        origins: Sequence[Sequence[int]],
        start_at: float,
    ) -> None:
        self.runtime = runtime
        self.schedule = schedule
        self.casters = casters  # [group][sender index] -> cast(body)
        self.origins = origins  # [group][sender index] -> rank
        self.start_at = start_at
        self.late: List[float] = []  # seconds each cast left after it was due
        self._next = 0

    def start(self) -> None:
        if len(self.schedule):
            self.runtime.schedule_at(
                self.start_at + self.schedule.due[0], self._fire
            )

    def _fire(self) -> None:
        schedule, runtime, start = self.schedule, self.runtime, self.start_at
        due, groups, senders = schedule.due, schedule.group, schedule.sender
        index, count = self._next, len(due)
        while index < count:
            due_at = start + due[index]
            now = runtime.now
            if due_at > now:
                break
            group, sender = groups[index], senders[index]
            body = pack_body(group, self.origins[group][sender], index, due_at)
            self.late.append(now - due_at)
            self.casters[group][sender](body)
            index += 1
        self._next = index
        if index < count:
            runtime.schedule_at(start + due[index], self._fire)
