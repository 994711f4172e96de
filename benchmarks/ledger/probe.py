"""The benchmark's own delivery recorder and output oracle.

The recorder keeps, for every member, the sequence numbers it delivered
in order and each delivery's latency from the cast's due time.  The
oracle then checks the outputs against what a total-order multicast
with protocol switching promises, without comparing to any pinned value:

* no member delivers a cast twice;
* any two members deliver their common casts in the same relative order;
* every member of a group ends on one protocol with no switch in flight.

A cast *fails* if some member of its group has not delivered it exactly
once by the end of settle.  Failed casts are counted, not fatal.
"""

from __future__ import annotations

import hashlib
import struct
from array import array
from typing import Any, Callable, Dict, List, Sequence

from .loadgen import HEADER

Deliveries = Dict[int, Sequence[int]]  # rank -> cast seqs in delivery order


class Recorder:
    """Per-member delivery log, fed by one closure per member."""

    def __init__(self, runtime: Any, members: Sequence[Sequence[int]]) -> None:
        self.runtime = runtime
        self.seqs: List[Dict[int, array]] = [
            {rank: array("Q") for rank in ranks} for ranks in members
        ]
        self.latency: List[Dict[int, array]] = [
            {rank: array("d") for rank in ranks} for ranks in members
        ]
        self.corrupt = 0

    def sink(self, group: int, rank: int) -> Callable[[Any], float]:
        seqs, latency = self.seqs[group][rank], self.latency[group][rank]
        runtime, unpack = self.runtime, HEADER.unpack_from

        def record(body: Any) -> float:
            try:
                body_group, __, seq, due_at = unpack(body)
            except (struct.error, TypeError):  # not the bytes we cast
                self.corrupt += 1
                return 0.0
            if body_group != group:
                self.corrupt += 1
            late = runtime.now - due_at
            seqs.append(seq)
            latency.append(late)
            return late

        return record

    def deliveries(self) -> int:
        return sum(len(s) for group in self.seqs for s in group.values())


# ----------------------------------------------------------------------
# Output oracle
# ----------------------------------------------------------------------
def find_duplicates(group: int, delivered: Deliveries) -> List[str]:
    problems = []
    for rank, seqs in delivered.items():
        extra = len(seqs) - len(set(seqs))
        if extra:
            problems.append(
                f"group {group} rank {rank} delivered {extra} cast(s) more than once"
            )
    return problems


def find_order_disagreements(group: int, delivered: Deliveries) -> List[str]:
    """Pairs of members whose common casts come in different orders."""
    ranks = sorted(delivered)
    lists = [list(delivered[r]) for r in ranks]
    if all(seqs == lists[0] for seqs in lists[1:]):
        return []  # the usual case: everyone delivered the same sequence
    problems = []
    sets = [set(seqs) for seqs in lists]
    for i in range(len(ranks)):
        for j in range(i + 1, len(ranks)):
            common = sets[i] & sets[j]
            if [s for s in lists[i] if s in common] != [
                s for s in lists[j] if s in common
            ]:
                problems.append(
                    f"group {group} ranks {ranks[i]} and {ranks[j]} disagree "
                    f"on the order of their common casts"
                )
    return problems


def failed_casts(casts: Sequence[int], delivered: Deliveries) -> Dict[int, int]:
    """``{cast: member-deliveries it is short of}`` for every cast of
    ``casts`` that fails: one that some member has not delivered exactly
    once (a cast spoiled only by a duplicate is short of none)."""
    times: Dict[int, int] = dict.fromkeys(casts, 0)
    spoiled = set()
    for seqs in delivered.values():
        seen = set()
        for seq in seqs:
            if seq in seen:
                spoiled.add(seq)
            elif seq in times:
                seen.add(seq)
                times[seq] += 1
    members = len(delivered)
    return {
        seq: members - n
        for seq, n in times.items()
        if n < members or seq in spoiled
    }


def check_convergence(
    group: int, protocols: Dict[int, str], switching: Sequence[int]
) -> List[str]:
    problems = []
    if len(set(protocols.values())) != 1:
        problems.append(f"group {group} ends on different protocols: {protocols}")
    if switching:
        problems.append(
            f"group {group} ends with a switch in flight at ranks {list(switching)}"
        )
    return problems


def check_foreign(
    group: int, delivered: Deliveries, cast_group: Sequence[int]
) -> List[str]:
    """Deliveries of casts that were never made in this group."""
    count = len(cast_group)
    foreign = sum(
        1
        for seqs in delivered.values()
        for seq in seqs
        if seq >= count or cast_group[seq] != group
    )
    return [f"group {group} delivered {foreign} cast(s) not made in it"] if foreign else []


def run_digest(recorder: Recorder, extra: Sequence[Any]) -> str:
    """Bit-exact fingerprint of a run's outputs; identical across repeats
    of one seed on the simulator, and only ever compared between repeats."""
    h = hashlib.sha256()
    for seqs, latency in zip(recorder.seqs, recorder.latency):
        for rank in sorted(seqs):
            h.update(seqs[rank].tobytes())
            h.update(latency[rank].tobytes())
    h.update(repr(list(extra)).encode())
    return h.hexdigest()
