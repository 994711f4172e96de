"""Round-trip property tests for the binary wire codec."""

import pickle
import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.codec import (
    FRAME_OVERHEAD,
    WireCodec,
    register_header_codec,
    registered_header_keys,
)
from repro.stack.message import Message

# ---------------------------------------------------------------------------
# Strategies: one per registered header key, matching what its layer ships.
# ---------------------------------------------------------------------------
ranks = st.integers(0, 999)
seqs = st.integers(0, 2**31 - 1)

HEADER_STRATEGIES = {
    "fifo": seqs,
    "mux": st.integers(0, 2**16 - 1),
    "batch": st.fixed_dictionaries({"n": st.integers(0, 2**16 - 1)}),
    "seqr": st.one_of(
        st.just({"k": "raw"}),
        st.fixed_dictionaries({"k": st.just("ord"), "gseq": seqs}),
    ),
    "tring": st.one_of(
        st.fixed_dictionaries({"k": st.just("dat"), "gseq": seqs}),
        st.fixed_dictionaries(
            {"k": st.just("tok"), "gseq": seqs, "ep": st.integers(0, 2**31)}
        ),
    ),
    "rel": st.one_of(
        st.fixed_dictionaries(
            {
                "k": st.just("data"),
                "seq": seqs,
                "dk": st.one_of(
                    st.just("G"),
                    st.just(()),  # empty dest tuple
                    st.lists(ranks, min_size=1, max_size=5, unique=True).map(
                        lambda l: tuple(sorted(l))
                    ),
                    # Wide tuples past the old u8 count limit.
                    st.integers(250, 400).map(lambda n: tuple(range(n))),
                ),
                "src": ranks,
            }
        ),
        st.sampled_from([{"k": "nak"}, {"k": "ack"}, {"k": "hb"}]),
    ),
    "conf": st.sampled_from(["clear", "sealed"]),
    "prio": st.sampled_from([{"k": "data"}, {"k": "release"}]),
}

# Unregistered headers travel through the generic TLV path.
generic_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-(2**70), 2**70),
        st.floats(allow_nan=False),
        st.text(max_size=12),
        st.binary(max_size=12),
    ),
    lambda leaf: st.one_of(
        st.tuples(leaf, leaf),
        st.lists(leaf, max_size=3),
        st.dictionaries(st.text(string.ascii_lowercase, max_size=4), leaf, max_size=3),
    ),
    max_leaves=8,
)

bodies = st.one_of(
    st.none(),
    st.text(max_size=64),
    st.binary(max_size=64),
    st.tuples(st.text(max_size=8), st.integers(-(2**40), 2**40)),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=4),
)


def assert_messages_equal(a: Message, b: Message) -> None:
    assert a.sender == b.sender
    assert a.mid == b.mid
    assert a.body == b.body
    assert a.body_size == b.body_size
    assert a.dest == b.dest
    assert a.size_bytes == b.size_bytes
    assert dict(a.headers) == dict(b.headers)


@st.composite
def wire_messages(draw):
    keys = draw(
        st.lists(
            st.sampled_from(sorted(HEADER_STRATEGIES)),
            unique=True,
            max_size=6,
        )
    )
    msg = Message(
        sender=draw(ranks),
        mid=(draw(ranks), draw(st.integers(-1, 2**40))),
        body=draw(bodies),
        body_size=draw(st.integers(0, 2**20)),
        dest=draw(
            st.one_of(
                st.none(),
                st.lists(ranks, max_size=4).map(tuple),
            )
        ),
    )
    for key in keys:
        msg = msg.with_header(
            key, draw(HEADER_STRATEGIES[key]), draw(st.integers(0, 64))
        )
    if draw(st.booleans()):
        msg = msg.with_header("x-custom", draw(generic_values), 8)
    return msg


@settings(max_examples=200, deadline=None)
@given(msg=wire_messages(), src=ranks, dst=ranks)
def test_message_round_trip(msg, src, dst):
    codec = WireCodec()
    got_src, got_dst, back = codec.decode(codec.encode(src, dst, msg))
    assert (got_src, got_dst) == (src, dst)
    assert_messages_equal(msg, back)


@settings(max_examples=100, deadline=None)
@given(value=generic_values)
def test_generic_value_round_trip(value):
    codec = WireCodec()
    __, __, back = codec.decode(codec.encode(0, 1, value))
    assert back == value


def test_registered_keys_cover_hot_layers():
    keys = set(registered_header_keys())
    assert {"fifo", "seqr", "tring", "rel", "batch", "mux"} <= keys


def test_batch_frame_round_trips_nested_messages():
    codec = WireCodec()
    inner = tuple(
        Message(sender=i, mid=(i, 7), body=f"m{i}", body_size=4).with_header(
            "fifo", i, 4
        )
        for i in range(4)
    )
    frame = Message(
        sender=0, mid=(0, 50), body=inner, body_size=16
    ).with_header("batch", {"n": 4}, 8)
    __, __, back = codec.decode(codec.encode(0, 2, frame))
    assert_messages_equal(frame, back)
    for a, b in zip(inner, back.body):
        assert_messages_equal(a, b)


def test_smaller_and_correct_vs_pickle_for_sequencer_data():
    codec = WireCodec()
    msg = (
        Message(sender=3, mid=(3, 41), body=("payload", 41), body_size=256)
        .with_header("fifo", 41, 4)
        .with_header("seqr", {"k": "ord", "gseq": 1041}, 8)
        .with_header("rel", {"k": "data", "seq": 41, "dk": "G", "src": 3}, 10)
    )
    data = codec.encode(3, 5, msg)
    assert len(data) < len(pickle.dumps((3, 5, msg), -1))


class TestUnencodable:
    """A value with no TLV tag fails at the sender, naming the type."""

    def test_set_body_raises_at_encode_naming_set(self):
        codec = WireCodec()
        msg = Message(sender=0, mid=(0, 1), body={1, 2, 3}, body_size=8)
        with pytest.raises(CodecError, match="set") as caught:
            codec.encode(0, 1, msg)
        assert caught.value.reason == "unencodable"
        # The same values as plain data travel.
        codec.encode(0, 1, ("abc", 1, None, {"k": (2.5, b"raw")}))

    def test_dataclass_and_object_bodies_name_their_type(self):
        import dataclasses

        @dataclasses.dataclass(frozen=True)
        class Stamp:
            at: float

        class Oddball:
            pass

        codec = WireCodec()
        for body in (Stamp(1.0), Oddball()):
            msg = Message(sender=0, mid=(0, 1), body=body, body_size=8)
            with pytest.raises(CodecError, match=type(body).__name__):
                codec.encode_payload(msg)

    def test_named_tuple_travels_as_its_fields(self):
        from repro.workloads.generator import Payload

        codec = WireCodec()
        __, __, back = codec.decode(codec.encode(0, 1, Payload(3, 9, 0.25)))
        assert type(back) is tuple and back == (3, 9, 0.25)
        assert Payload.read(back) == Payload(3, 9, 0.25)

    def test_field_outside_the_skeleton_raises_at_encode(self):
        codec = WireCodec()
        for msg in (
            Message(sender=2**16, mid=(0, 1), body=None, body_size=0),
            Message(sender=0, mid=(0, 2**63), body=None, body_size=0),
            Message(sender=0, mid=(0, 1), body=None, body_size=2**32),
            Message(sender=0, mid=(0, 1), body=None, body_size=0,
                    dest=tuple(range(2**16 - 1))),
        ):
            with pytest.raises(CodecError) as caught:
                codec.encode(0, 1, msg)
            assert caught.value.reason == "unencodable"

    def test_a_group_wider_than_254_still_encodes(self):
        codec = WireCodec()
        dest = tuple(range(300))
        msg = Message(sender=0, mid=(0, 1), body=None, body_size=0, dest=dest)
        assert codec.decode(codec.encode(0, 1, msg))[2].dest == dest


class TestFraming:
    def test_bad_magic_rejected(self):
        codec = WireCodec()
        data = bytearray(codec.encode(0, 1, "hi"))
        data[0] ^= 0xFF
        with pytest.raises(CodecError, match="magic"):
            codec.decode(bytes(data))
        assert codec.stats.get("undecodable.magic") == 1

    def test_unknown_version_rejected(self):
        codec = WireCodec()
        data = bytearray(codec.encode(0, 1, "hi"))
        data[1] = 9
        with pytest.raises(CodecError, match="version"):
            codec.decode(bytes(data))

    def test_trailing_garbage_rejected(self):
        codec = WireCodec()
        with pytest.raises(CodecError, match="trailing"):
            codec.decode(codec.encode(0, 1, "hi") + b"junk")

    def test_frame_prefix_is_fixed_size(self):
        codec = WireCodec()
        body = codec.encode_payload("payload")
        one = codec.frame(0, 1, body)
        other = codec.frame(0, 2, body)
        assert len(one) == len(other) == FRAME_OVERHEAD + len(body)
        assert one[FRAME_OVERHEAD:] == other[FRAME_OVERHEAD:]  # reused bytes

    def test_custom_codec_registration_round_trips(self):
        marker = "x-test-codec"
        register_header_codec(
            marker,
            lambda v: bytes([v]),
            lambda raw: raw[0],
        )
        try:
            codec = WireCodec()
            msg = Message(sender=0, mid=(0, 1), body=None, body_size=0)
            msg = msg.with_header(marker, 7, 1)
            __, __, back = codec.decode(codec.encode(0, 1, msg))
            assert back.header(marker) == 7
        finally:
            # Re-register with a pack that always defers to the generic
            # path, so later tests see the default behaviour.
            register_header_codec(
                marker,
                lambda v: bytes([v]),
                lambda raw: raw[0],
            )


class TestRelHeaderCodec:
    """The reliable layer's header: one data shape, u16 dest-key count."""

    def _roundtrip(self, value):
        from repro.net.codec import _pack_rel, _unpack_rel

        return _unpack_rel(_pack_rel(value))

    def test_wide_dest_tuple_survives(self):
        # 300 ranks overflowed the old u8 count byte.
        value = {"k": "data", "seq": 9, "dk": tuple(range(300)), "src": 2}
        assert self._roundtrip(value) == value

    def test_empty_dest_tuple_survives(self):
        value = {"k": "data", "seq": 0, "dk": (), "src": 0}
        assert self._roundtrip(value) == value

    def test_dispatch_is_on_kind_not_dict_width(self):
        from repro.net.codec import _pack_rel

        # A data header missing its fields is rejected as malformed,
        # not silently packed as kind-only.
        with pytest.raises(ValueError):
            _pack_rel({"k": "data"})
        with pytest.raises(ValueError):
            _pack_rel({"k": "bogus"})

    def test_kind_only_headers_round_trip(self):
        for kind in ("nak", "ack", "hb"):
            assert self._roundtrip({"k": kind}) == {"k": kind}

    @settings(max_examples=100, deadline=None)
    @given(
        seq=seqs,
        src=st.integers(0, 2**16 - 1),
        dk=st.one_of(
            st.just("G"),
            st.just(()),
            st.lists(
                st.integers(0, 2**16 - 1), max_size=600, unique=True
            ).map(tuple),
        ),
    )
    def test_data_header_round_trip(self, seq, src, dk):
        value = {"k": "data", "seq": seq, "dk": dk, "src": src}
        assert self._roundtrip(value) == value
