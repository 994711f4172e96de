"""Equivalence of the persistent-header Message with a dict model.

The persistent chain is an internal optimization; under any sequence of
pushes and pops a :class:`Message` must behave exactly like the original
dict-copy-on-write implementation.  Hypothesis drives both through
randomized operation sequences and compares every observable.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.stack.message import BASE_WIRE_OVERHEAD, Message, _base

KEYS = ["fifo", "seqr", "tring", "rel", "batch", "mux", "causal", "vs"]

VALUES = st.one_of(
    st.integers(-2**40, 2**40),
    st.text(max_size=8),
    st.dictionaries(st.sampled_from(["k", "gseq", "ep"]), st.integers(), max_size=3),
    st.tuples(st.integers(), st.integers()),
    st.none(),
)


class DictModel:
    """The original copy-on-write semantics, kept as the oracle."""

    def __init__(self):
        self.headers = {}
        self.header_size = 0

    def push(self, key, value, size):
        if key in self.headers:
            raise StackError(f"header {key!r} already present")
        self.headers = dict(self.headers)
        self.headers[key] = value
        self.header_size += size

    def pop(self, key, size):
        if key not in self.headers:
            raise StackError(f"header {key!r} missing")
        self.headers = dict(self.headers)
        del self.headers[key]
        self.header_size = max(0, self.header_size - size)


operations = st.lists(
    st.tuples(
        st.sampled_from(["push", "pop"]),
        st.sampled_from(KEYS),
        VALUES,
        st.integers(0, 64),
    ),
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=operations)
def test_random_push_pop_matches_dict_model(ops):
    msg = Message(sender=0, mid=(0, 0), body="b", body_size=10)
    model = DictModel()
    for op, key, value, size in ops:
        if op == "push":
            try:
                model.push(key, value, size)
            except StackError:
                with pytest.raises(StackError):
                    msg.with_header(key, value, size)
                continue
            msg = msg.with_header(key, value, size)
        else:
            try:
                model.pop(key, size)
            except StackError:
                with pytest.raises(StackError):
                    msg.without_header(key, size)
                continue
            msg = msg.without_header(key, size)
        assert dict(msg.headers) == model.headers
        assert msg.size_bytes == 10 + model.header_size + BASE_WIRE_OVERHEAD
        for probe in KEYS:
            assert msg.has_header(probe) == (probe in model.headers)
            assert msg.header(probe, "absent") == model.headers.get(probe, "absent")
    # Survives the wire: pickling collapses the chain to a plain dict.
    clone = pickle.loads(pickle.dumps(msg))
    assert dict(clone.headers) == model.headers
    assert clone.size_bytes == msg.size_bytes


@settings(max_examples=50, deadline=None)
@given(ops=operations)
def test_persistence_ancestors_unchanged(ops):
    """Every intermediate message keeps its snapshot after later ops."""
    msg = Message(sender=0, mid=(0, 0), body="b", body_size=10)
    snapshots = [(msg, dict(msg.headers))]
    for op, key, value, size in ops:
        try:
            msg = (
                msg.with_header(key, value, size)
                if op == "push"
                else msg.without_header(key, size)
            )
        except StackError:
            continue
        snapshots.append((msg, dict(msg.headers)))
    for snapshot, expected in snapshots:
        assert dict(snapshot.headers) == expected


def _link_depth(msg):
    """Links above the message's base node (or above the empty chain)."""
    node, depth = msg._chain, 0
    while node is not None and len(node) == 4:
        node, depth = node[1], depth + 1
    return depth


def test_deep_churn_stays_bounded():
    """Out-of-order pops rebase the chain, so churn cannot grow it."""
    msg = Message(sender=0, mid=(0, 0), body=None, body_size=0)
    three = msg.with_header("a", 1).with_header("b", 2).with_header("c", 3)
    assert _link_depth(three) == 3  # the walker does follow parent links
    msg = msg.with_header("base", 0)
    for i in range(500):
        msg = msg.with_header("churn", i)
        msg = msg.without_header("base")  # the deep key: not the top link
        msg = msg.with_header("base", i)
        msg = msg.without_header("churn")
    assert _link_depth(msg) <= 2
    assert dict(msg.headers) == {"base": 499}


def test_non_top_pop_rebases_with_an_exact_mask():
    msg = Message(sender=0, mid=(0, 0), body=None, body_size=0)
    for value, key in enumerate(KEYS):
        msg = msg.with_header(key, value)
    popped = msg.without_header(KEYS[2])
    assert len(popped._chain) == 2  # a dict base, no links above it
    assert popped._chain[0] == _base(dict(popped.headers))[0]
    assert not popped.has_header(KEYS[2])
    assert msg.header(KEYS[2]) == 2  # the ancestor is untouched
