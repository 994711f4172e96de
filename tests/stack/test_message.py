"""Unit tests for messages and headers."""

import pytest

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
