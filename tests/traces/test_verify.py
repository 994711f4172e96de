"""Unit tests for bounded-exhaustive verification (the Table 2 engine)."""

import pytest

from repro.errors import VerificationError
from repro.stack.message import Message
from repro.traces.events import deliver, msg, send
from repro.traces.meta import Asynchrony, Composable, Safety, SendEnabled
from repro.traces.properties import (
    Amoeba,
    NoReplay,
    PrioritizedDelivery,
    Reliability,
    TotalOrder,
)
from repro.traces.trace import Trace
from repro.traces.verify import (
    check_composability,
    check_preservation,
    compute_matrix,
    enumerate_traces,
)


def messages(n, senders=(0, 1)):
    return [
        Message(sender=senders[i % len(senders)], mid=(senders[i % len(senders)], i),
                body=f"b{i}", body_size=1)
        for i in range(n)
    ]


class TestEnumeration:
    def test_counts_match_combinatorics(self):
        # 1 message, 1 process: alphabet = {S, D}; valid traces with no
        # duplicate send, lengths 0..2:
        # len0: 1; len1: S, D; len2: SD, DS, DD  -> 6 total
        traces = list(enumerate_traces(messages(1), [0], 2))
        assert len(traces) == 6

    def test_no_duplicate_sends_ever(self):
        for trace in enumerate_traces(messages(2), [0, 1], 4):
            mids = [e.mid for e in trace.sends()]
            assert len(mids) == len(set(mids))

    def test_causal_restriction(self):
        traces = list(
            enumerate_traces(messages(1), [0], 2, require_send_before_deliver=True)
        )
        # len0: 1; len1: S; len2: SD  -> 3
        assert len(traces) == 3

    def test_empty_first(self):
        first = next(iter(enumerate_traces(messages(1), [0], 1)))
        assert first == Trace()

    def test_negative_bound_rejected(self):
        with pytest.raises(VerificationError):
            list(enumerate_traces(messages(1), [0], -1))


class TestCheckPreservation:
    def test_reliability_not_safe(self):
        """The paper's own section 5.1 example, found mechanically."""
        universe = list(enumerate_traces(messages(1), [0, 1], 3))
        verdict = check_preservation(
            Reliability(receivers={0, 1}), Safety(), universe
        )
        assert not verdict.preserved
        ce = verdict.counterexample
        assert Reliability(receivers={0, 1}).holds(ce.below)
        assert not Reliability(receivers={0, 1}).holds(ce.above)

    def test_total_order_is_safe(self):
        universe = list(enumerate_traces(messages(2), [0, 1], 4))
        verdict = check_preservation(TotalOrder(), Safety(), universe)
        assert verdict.preserved
        assert verdict.traces_checked > 0
        assert verdict.variants_checked > 0

    def test_priority_not_asynchronous(self):
        universe = list(enumerate_traces(messages(1), [0, 1], 2))
        verdict = check_preservation(
            PrioritizedDelivery(master=0), Asynchrony(), universe
        )
        assert not verdict.preserved

    def test_amoeba_not_send_enabled(self):
        same_sender = messages(2, senders=(0,))
        universe = list(enumerate_traces(same_sender, [0], 2))
        verdict = check_preservation(Amoeba(), SendEnabled(), universe)
        assert not verdict.preserved

    def test_composable_rejected_here(self):
        with pytest.raises(VerificationError):
            check_preservation(TotalOrder(), Composable(), [])

    def test_stop_at_first_false_counts_everything(self):
        universe = list(enumerate_traces(messages(1), [0, 1], 3))
        fast = check_preservation(
            Reliability(receivers={0, 1}), Safety(), universe
        )
        slow = check_preservation(
            Reliability(receivers={0, 1}), Safety(), universe,
            stop_at_first=False,
        )
        assert slow.variants_checked >= fast.variants_checked


class TestCheckComposability:
    def test_no_replay_not_composable(self):
        m1 = Message(sender=0, mid=(0, 0), body="dup", body_size=1)
        m2 = Message(sender=1, mid=(1, 0), body="dup", body_size=1)
        t1 = Trace([deliver(0, m1)])
        t2 = Trace([deliver(0, m2)])
        verdict = check_composability(NoReplay(), [t1, t2])
        assert not verdict.preserved
        assert verdict.counterexample.second_below is not None

    def test_total_order_composable(self):
        universe = list(enumerate_traces(messages(2), [0, 1], 3))
        verdict = check_composability(TotalOrder(), universe[:200])
        assert verdict.preserved

    def test_shared_messages_skipped(self):
        m = msg(0, 0)
        t = Trace([send(m), deliver(0, m)])
        verdict = check_composability(NoReplay(), [t])
        # t with itself shares messages -> no applicable pair.
        assert verdict.variants_checked == 0


def naive_composability(prop, traces, other_traces=None, stop_at_first=True,
                        max_pairs=2_000_000):
    """The scan ``check_composability`` indexes: every (i, j) pair, in
    order, tested with ``Composable.composable_pair``."""
    seconds = other_traces if other_traces is not None else traces
    good_first = [t for t in traces if prop.holds(t)]
    good_second = [t for t in seconds if prop.holds(t)]
    traces_checked = variants_checked = 0
    counterexample = None
    for tr1 in good_first:
        traces_checked += 1
        if variants_checked >= max_pairs:
            break
        for tr2 in good_second:
            if variants_checked >= max_pairs:
                break
            if not Composable.composable_pair(tr1, tr2):
                continue
            variants_checked += 1
            combined = Composable.compose(tr1, tr2)
            explanation = prop.explain(combined)
            if explanation is not None:
                counterexample = (tr1, combined, explanation, tr2)
                if stop_at_first:
                    return False, counterexample, traces_checked, variants_checked
    return counterexample is None, counterexample, traces_checked, variants_checked


def as_tuple(verdict):
    ce = verdict.counterexample
    if ce is not None:
        ce = (ce.below, ce.above, ce.explanation, ce.second_below)
    return verdict.preserved, ce, verdict.traces_checked, verdict.variants_checked


class TestIndexedPairScan:
    """The message-mask index must meet exactly the pairs, in exactly the
    order, of the naive scan: same verdict, counts and counterexample."""

    SHARED = [
        Message(sender=0, mid=(0, 0), body="x", body_size=1),
        Message(sender=1, mid=(1, 1), body="x", body_size=1),
        Message(sender=0, mid=(0, 2), body="y", body_size=1),
    ]

    @pytest.mark.parametrize(
        "prop",
        [NoReplay(), Amoeba(), Reliability(receivers={0, 1}),
         PrioritizedDelivery(master=0)],
        ids=lambda prop: prop.name,
    )
    @pytest.mark.parametrize("stop_at_first", [True, False])
    @pytest.mark.parametrize("max_pairs", [1, 37, 2_000_000])
    def test_matches_the_naive_scan(self, prop, stop_at_first, max_pairs):
        universe = list(enumerate_traces(self.SHARED, [0, 1], 3))
        expected = naive_composability(
            prop, universe, stop_at_first=stop_at_first, max_pairs=max_pairs
        )
        verdict = check_composability(
            prop, universe, stop_at_first=stop_at_first, max_pairs=max_pairs
        )
        assert as_tuple(verdict) == expected

    def test_matches_the_naive_scan_across_two_universes(self):
        first = list(enumerate_traces(self.SHARED[:2], [0, 1], 3))
        second = list(enumerate_traces(self.SHARED[1:], [0, 1], 3))
        for stop_at_first in (True, False):
            expected = naive_composability(
                NoReplay(), first, second, stop_at_first=stop_at_first
            )
            verdict = check_composability(
                NoReplay(), first, second, stop_at_first=stop_at_first
            )
            assert as_tuple(verdict) == expected
        assert not expected[0]  # the universes do hold a refutation


class TestComputeMatrix:
    def test_small_matrix_shape_and_agreement(self):
        universe = list(enumerate_traces(messages(1), [0, 1], 3))
        cells = compute_matrix(
            [(Reliability(receivers={0, 1}), universe)],
            [Safety(), Asynchrony(), Composable()],
            paper_table={("Reliability", "Safety"): False},
        )
        assert len(cells) == 3
        by_meta = {c.meta_name: c for c in cells}
        assert not by_meta["Safety"].verdict.preserved
        assert by_meta["Safety"].agrees_with_paper is True
        assert by_meta["Asynchrony"].paper_says is None
        assert by_meta["Asynchrony"].agrees_with_paper is None
