"""Pinned wire bytes: the frames this codec version emits must never drift.

Group 0 — every single-group run — must keep emitting exactly these
bytes: peers at the same frame version interoperate with it, and the
repo's parity artifacts depend on it.

If a codec change breaks these assertions, that change is a wire-format
break for every existing deployment — bump the frame version instead,
and leave no decoder for the old one: versions 0-2 are refused.
"""

import pytest

from repro.errors import CodecError
from repro.net.codec import WireCodec
from repro.stack.message import Message

#: The three registered header entries of headered_message(); kept
#: apart so a version bump that changes only the body shows them intact.
PINNED_HEADER_ENTRIES = "030405010000002901040000000902020001"

#: codec.encode(2, 5, headered_message()).
PINNED_HEADERED = (
    "c503000200050b000200020000000000000007000000400000000bffff0a00"
    "000002060000000178030000000000000001060000000174053fe000000000"
    "0000" + PINNED_HEADER_ENTRIES
)

#: codec.frame(3, 4, encode_payload(headered_message())).
PINNED_FRAMED = (
    "c503000300040b000200020000000000000007000000400000000bffff0a00"
    "000002060000000178030000000000000001060000000174053fe000000000"
    "0000" + PINNED_HEADER_ENTRIES
)

#: codec.encode(1, 2, mixed_tuple()).
PINNED_TUPLE = (
    "c503000100020800000005060000000568656c6c6f03000000000000002a05"
    "400c0000000000000007000000020001"
)


def headered_message():
    return (
        Message(2, (2, 7), {"x": 1, "t": 0.5}, 64)
        .with_header("seqr", {"k": "ord", "gseq": 41}, 5)
        .with_header("fifo", 9, 4)
        .with_header("mux", 1, 2)
    )


def test_headered_message_bytes_pinned():
    codec = WireCodec()
    assert codec.encode(2, 5, headered_message()).hex() == PINNED_HEADERED


def test_frame_bytes_pinned():
    codec = WireCodec()
    body = codec.encode_payload(headered_message())
    assert codec.frame(3, 4, body).hex() == PINNED_FRAMED


def test_tuple_payload_bytes_pinned():
    codec = WireCodec()
    payload = ("hello", 42, 3.5, None, b"\x00\x01")
    assert codec.encode(1, 2, payload).hex() == PINNED_TUPLE


def test_pinned_bytes_still_decode():
    codec = WireCodec()
    src, dst, msg = codec.decode(bytes.fromhex(PINNED_HEADERED))
    assert (src, dst) == (2, 5)
    assert msg.header("fifo") == 9
    assert msg.header("seqr") == {"k": "ord", "gseq": 41}
    assert msg.body == {"x": 1, "t": 0.5}

    src, dst, payload = codec.decode(bytes.fromhex(PINNED_TUPLE))
    assert (src, dst) == (1, 2)
    assert payload == ("hello", 42, 3.5, None, b"\x00\x01")


@pytest.mark.parametrize("version", [0, 1, 2])
def test_retired_versions_are_refused(version):
    codec = WireCodec()
    data = bytearray.fromhex(PINNED_TUPLE)
    data[1] = version
    with pytest.raises(CodecError) as caught:
        codec.decode_datagram(bytes(data))
    assert caught.value.reason == "version"
