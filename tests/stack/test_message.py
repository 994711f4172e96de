"""Unit tests for messages and headers."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StackError
from repro.stack.message import BASE_WIRE_OVERHEAD, Message


def make(body="hello", size=100):
    return Message(sender=1, mid=(1, 0), body=body, body_size=size)


class TestHeaders:
    def test_with_header_returns_new_message(self):
        msg = make()
        tagged = msg.with_header("fifo", 7)
        assert tagged is not msg
        assert tagged.header("fifo") == 7
        assert not msg.has_header("fifo")  # original untouched

    def test_double_push_rejected(self):
        msg = make().with_header("fifo", 1)
        with pytest.raises(StackError):
            msg.with_header("fifo", 2)

    def test_without_header_pops(self):
        msg = make().with_header("fifo", 1)
        plain = msg.without_header("fifo")
        assert not plain.has_header("fifo")

    def test_pop_missing_header_rejected(self):
        with pytest.raises(StackError):
            make().without_header("nope")

    def test_header_default(self):
        assert make().header("absent", "fallback") == "fallback"

    def test_headers_mapping_is_read_only(self):
        msg = make().with_header("x", 1)
        view = msg.headers
        with pytest.raises(TypeError):
            view["x"] = 99
        assert msg.header("x") == 1
        assert dict(view) == {"x": 1}

    def test_headers_view_tracks_push_order(self):
        msg = make().with_header("a", 1).with_header("b", 2)
        assert list(msg.headers) == ["a", "b"]

    def test_out_of_order_pop_shadows(self):
        msg = make().with_header("a", 1).with_header("b", 2)
        inner = msg.without_header("a")
        assert not inner.has_header("a")
        assert inner.header("b") == 2
        assert dict(inner.headers) == {"b": 2}
        # The original is untouched (persistence, not mutation).
        assert msg.header("a") == 1

    def test_repush_after_out_of_order_pop(self):
        msg = make().with_header("a", 1).with_header("b", 2)
        again = msg.without_header("a").with_header("a", 9)
        assert again.header("a") == 9
        assert again.header("b") == 2
        with pytest.raises(StackError):
            again.with_header("a", 10)

    def test_header_dict_constructor_round_trip(self):
        msg = Message(
            sender=1, mid=(1, 0), body="x", body_size=8,
            headers={"a": 1, "b": 2}, header_size=32,
        )
        assert msg.header("a") == 1
        assert msg.without_header("b").header("a") == 1

    def test_pickle_round_trip_preserves_headers(self):
        import pickle

        msg = (
            make()
            .with_header("a", 1)
            .with_header("b", {"k": "ord", "gseq": 7})
            .without_header("a")
        )
        clone = pickle.loads(pickle.dumps(msg))
        assert clone.mid == msg.mid
        assert dict(clone.headers) == dict(msg.headers)
        assert clone.size_bytes == msg.size_bytes

    def test_stacked_headers(self):
        msg = make().with_header("a", 1).with_header("b", 2).with_header("c", 3)
        assert msg.header("a") == 1
        assert msg.header("b") == 2
        assert msg.header("c") == 3


class TestSizeAccounting:
    def test_base_size(self):
        assert make(size=100).size_bytes == 100 + BASE_WIRE_OVERHEAD

    def test_header_size_accumulates(self):
        msg = make(size=100).with_header("a", 1, size=10).with_header("b", 2, size=6)
        assert msg.size_bytes == 100 + 16 + BASE_WIRE_OVERHEAD

    def test_pop_releases_size(self):
        msg = make(size=100).with_header("a", 1, size=10)
        assert msg.without_header("a", size=10).size_bytes == 100 + BASE_WIRE_OVERHEAD

    def test_negative_body_size_rejected(self):
        with pytest.raises(StackError):
            Message(sender=0, mid=(0, 0), body=None, body_size=-1)


class TestRoutingAndBody:
    def test_with_dest(self):
        msg = make().with_dest((2, 3))
        assert msg.dest == (2, 3)
        assert make().dest is None

    def test_with_dest_none_resets(self):
        msg = make().with_dest((2,)).with_dest(None)
        assert msg.dest is None

    def test_with_body_transforms(self):
        msg = make(body="plain").with_body("sealed", 120)
        assert msg.body == "sealed"
        assert msg.body_size == 120
        assert msg.mid == (1, 0)

    def test_with_body_keeps_size_by_default(self):
        msg = make(size=100).with_body("other")
        assert msg.body_size == 100


class TestIdentity:
    def test_equality_by_mid(self):
        a = Message(sender=1, mid=(1, 5), body="x", body_size=1)
        b = Message(sender=1, mid=(1, 5), body="y", body_size=9)
        assert a == b
        assert hash(a) == hash(b)

    def test_inequality(self):
        a = Message(sender=1, mid=(1, 5), body="x", body_size=1)
        b = Message(sender=1, mid=(1, 6), body="x", body_size=1)
        assert a != b

    def test_headers_do_not_affect_identity(self):
        msg = make()
        assert msg == msg.with_header("h", 1)


# The dict model: under any sequence of pushes and pops a Message behaves
# exactly like a dict copied on write.
KEYS = ["fifo", "seqr", "tring", "rel", "batch", "mux", "causal", "vs"]

VALUES = st.one_of(
    st.integers(-2**40, 2**40),
    st.text(max_size=8),
    st.dictionaries(st.sampled_from(["k", "gseq", "ep"]), st.integers(), max_size=3),
    st.tuples(st.integers(), st.integers()),
    st.none(),
)


class DictModel:
    """Copy-on-write header semantics, kept as the oracle."""

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
        assert list(msg.headers) == list(model.headers)  # push order
        assert msg.size_bytes == 10 + model.header_size + BASE_WIRE_OVERHEAD
        for probe in KEYS:
            assert msg.has_header(probe) == (probe in model.headers)
            assert msg.header(probe, "absent") == model.headers.get(probe, "absent")


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


def test_a_multicasts_second_pop_returns_the_memoised_object():
    msg = make().with_header("mux", 1, 2).with_header("rel", 7, 4)
    first = msg.without_header("rel", 4)
    assert msg.without_header("rel", 4) is first
    # Keyed on the popped header and the size: neither is served the memo.
    other = msg.without_header("mux", 2)
    assert other is not first
    assert dict(other.headers) == {"rel": 7}
    assert msg.without_header("rel", 1).size_bytes == first.size_bytes + 3


def test_the_dict_given_to_from_wire_cannot_be_mutated_through_headers():
    given_dict = {"fifo": 3}
    msg = Message._from_wire(1, (1, 0), None, 0, None, 4, given_dict)
    view = msg.headers
    assert view is not given_dict
    with pytest.raises(TypeError):
        view["fifo"] = 9
    with pytest.raises(TypeError):
        del view["fifo"]
    assert not hasattr(view, "pop") and not hasattr(view, "update")
    assert msg.with_header("mux", 1).header("mux") == 1
    assert given_dict == {"fifo": 3}  # a push copied, it did not write
