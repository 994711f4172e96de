"""Meta-property verification: the Nuprl-proof substitute.

The paper proves in Nuprl that its six meta-properties imply preservation
under the switching protocol [3].  We cannot re-run a theorem prover, but
we can *check* every Table 2 cell mechanically, two ways:

* **Bounded exhaustive model checking** — enumerate every valid trace up
  to a size bound over a small universe of processes/messages, and for
  each trace satisfying the property, check that every R-variant still
  satisfies it.  Any ✗ cell's counterexample that fits the bound is
  found; ✓ cells are verified exhaustively *within the bound*.
* **Randomized search** (see :mod:`repro.traces.generators` and the
  hypothesis tests) — larger universes, sampled.

A verdict is therefore either "refuted, here is the counterexample" or
"no counterexample within the checked universe".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import VerificationError
from ..stack.message import Message, MessageId
from .events import DeliverEvent, Event, SendEvent
from .meta import Composable, MetaProperty
from .properties import Property
from .trace import Trace

__all__ = [
    "Counterexample",
    "Verdict",
    "enumerate_traces",
    "check_preservation",
    "check_composability",
    "composite_variants",
    "shrink_counterexample",
    "MatrixCell",
    "compute_matrix",
]


@dataclass(frozen=True)
class Counterexample:
    """A P-trace below and an R-variant above where P fails."""

    below: Trace
    above: Trace
    explanation: str
    second_below: Optional[Trace] = None  # for Composable: the other half


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one (property, meta-property) cell."""

    preserved: bool
    counterexample: Optional[Counterexample]
    traces_checked: int
    variants_checked: int

    @property
    def symbol(self) -> str:
        return "yes" if self.preserved else "NO"


def enumerate_traces(
    messages: Sequence[Message],
    processes: Sequence[int],
    max_events: int,
    require_send_before_deliver: bool = False,
) -> Iterator[Trace]:
    """All valid traces up to ``max_events`` over the given universe.

    The event alphabet is Send(m) for each message plus Deliver(p, m) for
    each process/message pair.  Validity (no duplicate Sends) is enforced
    during the depth-first walk.  ``require_send_before_deliver``
    restricts to causally well-formed traces (used when a property's
    interesting behaviour doesn't need spurious deliveries — it shrinks
    the universe a lot).

    The empty trace is yielded first.
    """
    if max_events < 0:
        raise VerificationError("max_events must be non-negative")
    sends: List[Event] = [SendEvent(m) for m in messages]
    delivers: List[Event] = [
        DeliverEvent(p, m) for p in processes for m in messages
    ]
    alphabet: List[Event] = sends + delivers

    def walk(prefix: List[Event], sent: frozenset) -> Iterator[Trace]:
        yield Trace(prefix)
        if len(prefix) >= max_events:
            return
        for event in alphabet:
            if isinstance(event, SendEvent):
                if event.mid in sent:
                    continue
                prefix.append(event)
                yield from walk(prefix, sent | {event.mid})
                prefix.pop()
            else:
                if require_send_before_deliver and event.mid not in sent:
                    continue
                prefix.append(event)
                yield from walk(prefix, sent)
                prefix.pop()

    return walk([], frozenset())


def check_preservation(
    prop: Property,
    meta: MetaProperty,
    traces: Iterable[Trace],
    stop_at_first: bool = True,
) -> Verdict:
    """Check Equation (1) for a unary meta-property over ``traces``."""
    if isinstance(meta, Composable):
        raise VerificationError(
            "Composable is binary; use check_composability"
        )
    traces_checked = 0
    variants_checked = 0
    counterexample: Optional[Counterexample] = None
    for below in traces:
        if not prop.holds(below):
            continue
        traces_checked += 1
        for above in meta.variants(below):
            variants_checked += 1
            explanation = prop.explain(above)
            if explanation is not None:
                counterexample = Counterexample(below, above, explanation)
                if stop_at_first:
                    return Verdict(False, counterexample, traces_checked, variants_checked)
    return Verdict(
        counterexample is None, counterexample, traces_checked, variants_checked
    )


def check_composability(
    prop: Property,
    traces: Sequence[Trace],
    other_traces: Optional[Sequence[Trace]] = None,
    stop_at_first: bool = True,
    max_pairs: int = 2_000_000,
) -> Verdict:
    """Check the binary Composable relation over trace pairs.

    ``other_traces`` defaults to ``traces``; pairs sharing messages are
    skipped (the relation does not apply to them).  The pair space is
    quadratic, so it is capped at ``max_pairs`` checked pairs — for a
    "preserved" verdict this bounds the checked universe (which the
    verdict reports via ``variants_checked``); refutations are unaffected
    in practice because counterexamples, when they exist, are dense.
    """
    seconds = other_traces if other_traces is not None else traces
    good_first = [t for t in traces if prop.holds(t)]
    good_second = [t for t in seconds if prop.holds(t)]
    # Index the pair space: one bit per message id, the second traces
    # bucketed by their message mask.  A first trace walks only the
    # buckets disjoint from its own mask, merged back into the original
    # order, so the pairs (and any counterexample) are those the naive
    # scan over every pair with Composable.composable_pair would meet.
    bits: Dict[MessageId, int] = {}

    def mask(trace: Trace) -> int:
        acc = 0
        for event in trace.events:
            acc |= bits.setdefault(event.mid, 1 << len(bits))
        return acc

    buckets: Dict[int, List[int]] = {}
    for index, tr2 in enumerate(good_second):
        buckets.setdefault(mask(tr2), []).append(index)
    partners: Dict[int, List[int]] = {}
    traces_checked = 0
    variants_checked = 0
    counterexample: Optional[Counterexample] = None
    for tr1 in good_first:
        traces_checked += 1
        if variants_checked >= max_pairs:
            break
        first_mask = mask(tr1)
        disjoint = partners.get(first_mask)
        if disjoint is None:
            disjoint = partners[first_mask] = sorted(
                itertools.chain.from_iterable(
                    bucket
                    for second_mask, bucket in buckets.items()
                    if not second_mask & first_mask
                )
            )
        for index in disjoint:
            if variants_checked >= max_pairs:
                break
            tr2 = good_second[index]
            variants_checked += 1
            combined = Composable.compose(tr1, tr2)
            explanation = prop.explain(combined)
            if explanation is not None:
                counterexample = Counterexample(
                    tr1, combined, explanation, second_below=tr2
                )
                if stop_at_first:
                    return Verdict(
                        False, counterexample, traces_checked, variants_checked
                    )
    return Verdict(
        counterexample is None, counterexample, traces_checked, variants_checked
    )


def shrink_counterexample(
    prop: Property,
    meta: MetaProperty,
    counterexample: Counterexample,
    max_rounds: int = 10,
) -> Counterexample:
    """Greedy event-deletion shrinking of a refutation witness.

    Repeatedly tries to drop single events from the *below* trace while
    it (a) still satisfies the property and (b) still has some R-variant
    violating it.  The exhaustive enumerator finds witnesses in DFS
    order, which is not length order; shrinking makes reported
    counterexamples human-readable.  Unary relations only.
    """
    if isinstance(meta, Composable):
        raise VerificationError("shrinking is for unary relations")
    best = counterexample
    for __ in range(max_rounds):
        improved = False
        events = list(best.below.events)
        for index in range(len(events)):
            candidate_events = events[:index] + events[index + 1 :]
            try:
                candidate = Trace(candidate_events)
            except Exception:  # dropping a Send may orphan nothing; keep safe
                continue
            if not prop.holds(candidate):
                continue
            for above in meta.variants(candidate):
                explanation = prop.explain(above)
                if explanation is not None:
                    best = Counterexample(candidate, above, explanation)
                    improved = True
                    break
            if improved:
                break
        if not improved:
            return best
    return best


def composite_variants(
    trace: Trace,
    metas: Sequence[MetaProperty],
    rng,
    steps: int,
    samples: int,
) -> Iterator[Trace]:
    """Random walks through the *composition* of several relations.

    The paper's theorem (§6.3) is about a protocol — the SP — whose trace
    transformations compose prefixing, swapping, appending, and erasure
    arbitrarily.  A property satisfying each relation individually
    satisfies their composition too (each step preserves it), but testing
    the composite directly guards our encodings against subtle
    non-closure bugs.  Yields up to ``samples`` traces, each reached by
    up to ``steps`` random single R-steps from ``trace``.
    """
    unary = [m for m in metas if not isinstance(m, Composable)]
    for __ in range(samples):
        current = trace
        for __step in range(steps):
            choices = []
            for meta in unary:
                choices.extend(meta.variants(current))
            if not choices:
                break
            current = rng.choice(choices)
        yield current


@dataclass
class MatrixCell:
    """One cell of the Table 2 reproduction."""

    property_name: str
    meta_name: str
    verdict: Verdict
    paper_says: Optional[bool] = None  # None when the paper doesn't pin it

    @property
    def agrees_with_paper(self) -> Optional[bool]:
        if self.paper_says is None:
            return None
        return self.paper_says == self.verdict.preserved


def compute_matrix(
    properties: Sequence[Tuple[Property, Iterable[Trace]]],
    metas: Sequence[MetaProperty],
    paper_table: Optional[Dict[Tuple[str, str], bool]] = None,
) -> List[MatrixCell]:
    """Compute the full property × meta-property matrix.

    Each property comes with its own trace universe (an iterable that can
    be re-created per meta-property — pass a list).  ``paper_table`` maps
    (property name, meta name) to the paper's claimed verdict for
    comparison.
    """
    cells: List[MatrixCell] = []
    for prop, universe in properties:
        universe_list = list(universe)
        for meta in metas:
            if isinstance(meta, Composable):
                verdict = check_composability(prop, universe_list)
            else:
                verdict = check_preservation(prop, meta, universe_list)
            expected = None
            if paper_table is not None:
                expected = paper_table.get((prop.name, meta.name))
            cells.append(MatrixCell(prop.name, meta.name, verdict, expected))
    return cells
