"""Hostile bytes in, ``CodecError`` out.

Whatever a datagram holds, ``decode_datagram`` returns or raises
``CodecError`` with a reason from the closed set — never another
exception, never unbounded work.  Structure-aware cases start from a
valid frame (so the mutation lands deep inside the grammar, not on the
first byte); raw cases put arbitrary bytes behind a valid prefix.
"""

import gc
import struct
import time

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CodecError
from repro.net.codec import (
    DECODE_REASONS,
    FRAME_OVERHEAD,
    MAGIC,
    VERSION_BINARY,
    VERSION_GROUP,
    WireCodec,
)
from repro.stack.message import Message

from .test_codec import generic_values, wire_messages

#: CPU seconds one decode may take, however the buffer lies about lengths.
BUDGET_S = 0.05

#: The bound is ``BUDGET_S`` of CPU per decode, not hypothesis's
#: wall-clock deadline per example, which a busy host overruns.
cpu_budget_only = settings(deadline=None)

payloads = st.one_of(wire_messages(), generic_values)
groups = st.sampled_from([0, 1, 200, 2**32 - 1])


def decode_or_reason(data: bytes):
    """The decoded tuple, or the reason; anything else fails the test."""
    codec = WireCodec()
    gc.disable()  # a collection inside the window is not the decoder's time
    started = time.process_time()
    try:
        return codec.decode_datagram(data)
    except CodecError as exc:
        assert exc.reason in DECODE_REASONS
        assert codec.stats.get("undecodable." + exc.reason) == 1
        return exc.reason
    finally:
        spent = time.process_time() - started
        gc.enable()
        assert spent < BUDGET_S, spent


@cpu_budget_only
@given(payload=payloads, group=groups)
def test_truncated_at_every_offset(payload, group):
    data = WireCodec().encode(1, 2, payload, group=group)
    for cut in range(len(data)):
        assert decode_or_reason(data[:cut]) in DECODE_REASONS


@cpu_budget_only
@given(payload=payloads, group=groups, where=st.integers(0), byte=st.integers(1, 255))
def test_one_flipped_byte(payload, group, where, byte):
    data = bytearray(WireCodec().encode(1, 2, payload, group=group))
    data[where % len(data)] ^= byte
    decode_or_reason(bytes(data))


@cpu_budget_only
@given(
    payload=payloads,
    group=groups,
    where=st.integers(0),
    width=st.sampled_from([1, 2, 4]),
    value=st.sampled_from([0, 2**16 - 1, 2**32 - 1]),
)
def test_one_overwritten_length_or_count_field(payload, group, where, width, value):
    """Every offset is tried as if a length or count field started there."""
    data = bytearray(WireCodec().encode(1, 2, payload, group=group))
    at = FRAME_OVERHEAD + where % (len(data) - FRAME_OVERHEAD)
    field = (value & (2 ** (8 * width) - 1)).to_bytes(width, "big")
    data[at:at + width] = field
    decode_or_reason(bytes(data))


@cpu_budget_only
@given(
    version=st.sampled_from([VERSION_BINARY, VERSION_GROUP]),
    tail=st.binary(max_size=512),
)
def test_raw_bytes_behind_a_valid_prefix(version, tail):
    decode_or_reason(struct.pack("!BBHH", MAGIC, version, 1, 2) + tail)


def test_a_datagram_of_nested_tuples_is_depth_not_a_recursion_error():
    nested = b"\x08\x00\x00\x00\x01" * 12_000  # a 1-tuple of a 1-tuple of ...
    data = struct.pack("!BBHH", MAGIC, VERSION_BINARY, 1, 2) + nested
    assert len(data) > 60_000
    assert decode_or_reason(data) == "depth"


def test_an_unhashable_dict_key_is_a_bad_tag():
    # {[]: None}: a list where only a hashable value may stand.
    body = b"\x0a\x00\x00\x00\x01" + b"\x09\x00\x00\x00\x00" + b"\x00"
    data = struct.pack("!BBHH", MAGIC, VERSION_BINARY, 1, 2) + body
    assert decode_or_reason(data) == "tag"


def test_every_reason_is_reachable():
    good = WireCodec().encode(1, 2, "héllo")
    message = WireCodec().encode(
        1, 2, Message(1, (1, 0), None, 0).with_header("fifo", 7, 4)
    )
    cases = {
        "magic": b"\x00" + good[1:],
        "version": good[:1] + b"\x02" + good[2:],
        "group": struct.pack("!BBHH", MAGIC, VERSION_GROUP, 1, 2) + b"\xff" * 6,
        "truncated": good[:-1],
        "tag": good[:FRAME_OVERHEAD] + b"\x7f",
        "header": message[:-6] + b"\xee" + message[-5:],
        "utf8": good[:-2] + b"\xff\xff",
        "trailing": good + b"\x00",
    }
    for reason, data in cases.items():
        assert decode_or_reason(data) == reason, reason
    assert set(cases) | {"depth"} == set(DECODE_REASONS)

