"""Group-id framing: varint boundaries, group-0 parity, and round trips.

The fleet runtime multiplexes thousands of groups over one socket per
node, so every frame carries a group id — except group 0, the
single-group world, which keeps the id-less ``VERSION_BINARY`` frame
(``test_wire_pin.py`` pins the exact bytes).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import NetworkError
from repro.net.codec import (
    FRAME_OVERHEAD,
    MAX_GROUP_ID,
    VERSION_BINARY,
    VERSION_GROUP,
    WireCodec,
)
from repro.stack.message import Message

#: The varint edges: one byte up to 127, then one more byte per 7 bits.
BOUNDARY_IDS = [
    1,
    2**7 - 1,
    2**7,
    2**14 - 1,
    2**14,
    2**21 - 1,
    2**21,
    MAX_GROUP_ID,
]


def sample_message():
    return Message(sender=1, mid=(1, 9), body="payload", body_size=16)


class TestGroupZeroParity:
    def test_group_zero_emits_legacy_version(self):
        codec = WireCodec()
        data = codec.encode(3, 4, sample_message(), group=0)
        assert data[1] == VERSION_BINARY

    def test_group_zero_is_the_default(self):
        codec = WireCodec()
        msg = sample_message()
        assert codec.encode(3, 4, msg) == codec.encode(3, 4, msg, group=0)

    def test_group_zero_frame_matches_explicit(self):
        codec = WireCodec()
        body = codec.encode_payload(sample_message())
        assert codec.frame(3, 4, body) == codec.frame(3, 4, body, group=0)

    def test_decode_datagram_reports_group_zero_for_legacy(self):
        codec = WireCodec()
        data = codec.encode(3, 4, sample_message())
        group, src, dst, __ = codec.decode_datagram(data)
        assert (group, src, dst) == (0, 3, 4)


class TestGroupBoundaries:
    @pytest.mark.parametrize("group", BOUNDARY_IDS)
    def test_round_trip(self, group):
        codec = WireCodec()
        msg = sample_message()
        data = codec.encode(5, 6, msg, group=group)
        assert data[1] == VERSION_GROUP
        got_group, src, dst, back = codec.decode_datagram(data)
        assert (got_group, src, dst) == (group, 5, 6)
        assert back.body == msg.body

    @pytest.mark.parametrize("group", BOUNDARY_IDS)
    def test_frame_and_encode_agree(self, group):
        codec = WireCodec()
        msg = sample_message()
        body = codec.encode_payload(msg)
        assert codec.frame(5, 6, body, group=group) == codec.encode(
            5, 6, msg, group=group
        )

    @pytest.mark.parametrize(
        "last, first, width",
        [
            (2**7 - 1, 2**7, 1),
            (2**14 - 1, 2**14, 2),
            (2**21 - 1, 2**21, 3),
        ],
    )
    def test_varint_width_steps_at_seven_bit_multiples(
        self, last, first, width
    ):
        # ``last`` is the widest id of its byte class; ``first`` needs
        # one more byte.
        codec = WireCodec()
        body = codec.encode_payload("x")
        assert len(codec.frame(0, 1, body, group=last)) == (
            FRAME_OVERHEAD + width + len(body)
        )
        assert len(codec.frame(0, 1, body, group=first)) == (
            FRAME_OVERHEAD + width + 1 + len(body)
        )

    def test_u32_cap_takes_five_bytes(self):
        codec = WireCodec()
        body = codec.encode_payload("x")
        data = codec.frame(0, 1, body, group=MAX_GROUP_ID)
        assert len(data) == FRAME_OVERHEAD + 5 + len(body)
        assert codec.decode_datagram(data)[0] == MAX_GROUP_ID

    def test_shard_placement_is_stable_at_the_boundaries(self):
        # The ids whose wire width changes are exactly the ids a
        # placement bug would scramble; their home shard is a pure
        # function of (id, shards) on both sides of each edge.
        from repro.fleet.sharding import shard_of

        for group in BOUNDARY_IDS:
            for shards in (1, 2, 4, 7):
                assert shard_of(group, shards) == shard_of(group, shards)
                assert 0 <= shard_of(group, shards) < shards

    @pytest.mark.parametrize("group", [-1, MAX_GROUP_ID + 1])
    def test_out_of_range_rejected(self, group):
        codec = WireCodec()
        with pytest.raises(NetworkError, match="group id"):
            codec.encode(0, 1, "hi", group=group)
        with pytest.raises(NetworkError, match="group id"):
            codec.frame(0, 1, codec.encode_payload("hi"), group=group)

    def test_oversized_varint_rejected_on_decode(self):
        codec = WireCodec()
        # Six continuation bytes: more than a u32 can ever need.
        data = bytes([0xC5, VERSION_GROUP, 0, 0, 0, 1]) + b"\xff" * 6 + b"\x01"
        with pytest.raises(NetworkError, match="varint"):
            codec.decode_datagram(data)

    def test_value_over_u32_rejected_on_decode(self):
        codec = WireCodec()
        # A five-byte varint whose value exceeds the u32 group-id range.
        data = bytes([0xC5, VERSION_GROUP, 0, 0, 0, 1]) + b"\xff" * 4 + b"\x1f"
        with pytest.raises(NetworkError, match="group id"):
            codec.decode_datagram(data)


@settings(max_examples=100, deadline=None)
@given(
    group=st.integers(0, MAX_GROUP_ID),
    src=st.integers(0, 999),
    dst=st.integers(0, 999),
    body=st.one_of(st.none(), st.text(max_size=32), st.binary(max_size=32)),
)
def test_any_group_round_trips(group, src, dst, body):
    codec = WireCodec()
    msg = Message(sender=src, mid=(src, 3), body=body, body_size=8)
    got = codec.decode_datagram(codec.encode(src, dst, msg, group=group))
    assert got[:3] == (group, src, dst)
    assert got[3].body == body
