"""Binary wire codec: one closed tag-length-value grammar.

Every byte that crosses a socket or a shard pipe is written and read
here, and :meth:`WireCodec.decode_datagram` is the only way in.  Bytes
it cannot read raise :class:`~repro.errors.CodecError` — nothing else —
with a ``reason`` from :data:`DECODE_REASONS`; a value the grammar
cannot carry is a ``CodecError`` at the *sender*, naming the type.
There is no second encoding behind it.

Frame (all integers big-endian)::

    0      1      2        4        6
    +------+------+--------+--------+----------+----------------+
    | 0xC5 | ver  |  src   |  dst   | group id |  one TLV value |
    +------+------+--------+--------+----------+----------------+
      magic  u8      u16      u16     uvarint, VERSION_GROUP only

``ver`` is :data:`VERSION_BINARY` for group 0 (every single-group run)
and :data:`VERSION_GROUP` for a fleet group, whose id follows the
prefix as an unsigned LEB128 varint (≤ 5 bytes, u32 range).  Versions
0–2 are retired: no decoder for them remains and they read as reason
``version``.

A value is a tag byte and its content (the ``_T_*`` table below).
A message's skeleton is ``sender u16, mid (u16, i64), body_size u32,
header_size u32``; ``dest`` is a u16 count (``0xFFFF`` = whole group)
and that many u16 ranks; the body is one value; the headers are a u8
count of entries in push order.  An entry is a registered header's
one-byte id, a u8 length and its packed bytes
(:func:`register_header_codec`), or ``0x00``, a u8-length utf-8 key and
one value for a header with no registered codec.

A multicast encodes its payload once (:meth:`WireCodec.encode_payload`)
and reuses the bytes for every destination; only the prefix
(:meth:`WireCodec.frame`) differs per target.
"""

from __future__ import annotations

import struct
from typing import Any, Callable, Dict, Tuple

from ..errors import CodecError, NetworkError
from ..obs.metrics import Counter

__all__ = [
    "WireCodec",
    "register_header_codec",
    "registered_header_keys",
    "DECODE_REASONS",
    "FRAME_OVERHEAD",
    "MAGIC",
    "MAX_GROUP_ID",
    "VERSION_BINARY",
    "VERSION_GROUP",
]

MAGIC = 0xC5

#: A frame for group 0: the prefix, then one TLV value.
VERSION_BINARY = 3
#: A varint group id follows the fixed prefix, then one TLV value.
VERSION_GROUP = 4

#: Every ``reason`` a :class:`~repro.errors.CodecError` out of
#: :meth:`WireCodec.decode_datagram` can carry.
DECODE_REASONS = (
    "magic",      # first byte is not MAGIC
    "version",    # not a frame version this codec reads
    "group",      # group id varint over 5 bytes or over u32
    "truncated",  # the buffer ends inside a field
    "tag",        # unknown TLV tag, or an unhashable dict key
    "header",     # unknown header id, or bytes its codec cannot unpack
    "utf8",       # a string or header key that is not utf-8
    "depth",      # values nested past the interpreter's recursion limit
    "trailing",   # bytes left over after the payload
)

_FRAME = struct.Struct("!BBHH")  # magic, version, src, dst
FRAME_OVERHEAD = _FRAME.size

#: Largest group id the frame carries (u32 range; ≤ 5 varint bytes).
MAX_GROUP_ID = 2 ** 32 - 1


def _uvarint(value: int) -> bytes:
    """``value`` as an unsigned LEB128 varint."""
    out = bytearray()
    while value > 0x7F:
        out.append(0x80 | (value & 0x7F))
        value >>= 7
    out.append(value)
    return bytes(out)


def _read_uvarint(buf: bytes, pos: int) -> Tuple[int, int]:
    """Decode an unsigned LEB128 varint at ``pos``; returns (value, end)."""
    value = shift = 0
    while True:
        byte = buf[pos]
        pos += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return value, pos
        shift += 7
        if shift > 35:
            raise CodecError("group", "group id varint over 5 bytes")

# ---------------------------------------------------------------------------
# TLV tags
# ---------------------------------------------------------------------------
_T_NONE = 0x00
_T_TRUE = 0x01
_T_FALSE = 0x02
_T_INT = 0x03       # !q
_T_BIGINT = 0x04    # !I length + signed big-endian bytes
_T_FLOAT = 0x05     # !d
_T_STR = 0x06       # !I length + utf-8
_T_BYTES = 0x07     # !I length + raw
_T_TUPLE = 0x08     # !I count + values
_T_LIST = 0x09      # !I count + values
_T_DICT = 0x0A      # !I count + key/value pairs
_T_MESSAGE = 0x0B   # see _encode_message

_Q = struct.Struct("!q")
_D = struct.Struct("!d")
_I = struct.Struct("!I")
_H = struct.Struct("!H")
_B = struct.Struct("!B")

_INT64_MIN = -(2 ** 63)
_INT64_MAX = 2 ** 63 - 1

#: Message skeleton: sender u16, mid (u16 origin, i64 seq), body_size
#: u32, header_size u32; dest follows as a u16 count (_DEST_NONE for
#: the whole group) plus that many u16 ranks.
_MSG_FIXED = struct.Struct("!HHqII")
_DEST_NONE = 0xFFFF

#: Length-prefixed encoded header keys (tiny, bounded set).
_KEY_CACHE: Dict[str, bytes] = {}

#: Precompiled ``!<n>H`` rank-tuple structs, keyed by rank count.
#: ``struct.pack("!%dH" % n, ...)`` pays a string format plus struct's
#: format-cache probe on every message; dest tuples reuse a handful of
#: counts, so compiling once per count removes both from the hot path.
#: Only the encoder adds entries, so a peer cannot grow it: a decoded
#: count this process never sent goes through ``struct``'s own bounded
#: format cache.
_RANK_STRUCTS: Dict[int, struct.Struct] = {}


def _pack_ranks(ranks: Tuple[int, ...]) -> bytes:
    """A u16 count, then each rank as u16."""
    count = len(ranks)
    entry = _RANK_STRUCTS.get(count)
    if entry is None:
        entry = _RANK_STRUCTS[count] = struct.Struct("!%dH" % count)
    return _H.pack(count) + entry.pack(*ranks)


def _unpack_ranks(buf: bytes, pos: int, count: int) -> Tuple[int, ...]:
    entry = _RANK_STRUCTS.get(count)
    if entry is None:
        return struct.unpack_from("!%dH" % count, buf, pos)
    return entry.unpack_from(buf, pos)

# ---------------------------------------------------------------------------
# Per-layer header codec registry
# ---------------------------------------------------------------------------
HeaderPack = Callable[[Any], bytes]
HeaderUnpack = Callable[[bytes], Any]

#: key -> (wire id byte, pack); decode side indexes _ID_TABLE[id] for
#: (key, unpack).
_KEY_IDS: Dict[str, Tuple[int, HeaderPack]] = {}
_ID_TABLE: list = [None]  # id 0x00 marks a string-keyed entry

#: What a pack refuses a value with, and what an unpack fed foreign
#: bytes fails with.
_SHAPE_ERRORS = (struct.error, KeyError, TypeError, ValueError, IndexError)


def register_header_codec(key: str, pack: HeaderPack, unpack: HeaderUnpack) -> None:
    """Register a compact codec for the header named ``key``.

    ``pack`` may raise (``struct.error``, ``KeyError``, ``TypeError``,
    ``ValueError``, ``IndexError``) on values outside its compact shape;
    the encoder then falls back to the generic TLV encoding for that
    value, so a registration never has to be total.  ``unpack`` raising
    one of the same on bytes it did not produce makes the datagram
    undecodable (reason ``header``).

    Registered keys travel as one-byte ids assigned in registration
    order, so encoder and decoder must register the same codecs in the
    same order — true by construction for this single program, and why
    the module performs its standard registrations at import time.
    """
    if key in _KEY_IDS:
        key_id = _KEY_IDS[key][0]
        _ID_TABLE[key_id] = (key, unpack)
    else:
        if len(_ID_TABLE) > 0xFE:
            raise NetworkError("header codec id space exhausted")
        key_id = len(_ID_TABLE)
        _ID_TABLE.append((key, unpack))
    _KEY_IDS[key] = (key_id, pack)


def registered_header_keys() -> Tuple[str, ...]:
    """The header keys with a registered compact codec."""
    return tuple(_KEY_IDS)


# -- standard registrations for the repo's layers ---------------------------

def _pack_u32(value: Any) -> bytes:
    return _I.pack(value)


def _unpack_u32(data: bytes) -> int:
    return _I.unpack(data)[0]


def _pack_u16(value: Any) -> bytes:
    return _H.pack(value)


def _unpack_u16(data: bytes) -> int:
    return _H.unpack(data)[0]


def _pack_batch(value: Any) -> bytes:
    if set(value) != {"n"}:
        raise ValueError(value)
    return _H.pack(value["n"])


def _unpack_batch(data: bytes) -> Dict[str, int]:
    return {"n": _H.unpack(data)[0]}


def _pack_seqr(value: Any) -> bytes:
    kind = value["k"]
    if kind == "raw" and len(value) == 1:
        return b"\x00"
    if kind == "ord" and len(value) == 2:
        return b"\x01" + _I.pack(value["gseq"])
    raise ValueError(value)


def _unpack_seqr(data: bytes) -> Dict[str, Any]:
    if data[0] == 0:
        return {"k": "raw"}
    return {"k": "ord", "gseq": _I.unpack_from(data, 1)[0]}


def _pack_tring(value: Any) -> bytes:
    kind = value["k"]
    if kind == "dat" and len(value) == 2:
        return b"\x00" + _I.pack(value["gseq"])
    if kind == "tok" and len(value) == 3:
        return b"\x01" + struct.pack("!Iq", value["gseq"], value["ep"])
    raise ValueError(value)


_TOK = struct.Struct("!Iq")


def _unpack_tring(data: bytes) -> Dict[str, Any]:
    if data[0] == 0:
        return {"k": "dat", "gseq": _I.unpack_from(data, 1)[0]}
    gseq, epoch = _TOK.unpack_from(data, 1)
    return {"k": "tok", "gseq": gseq, "ep": epoch}


_REL_KINDS = ("data", "nak", "ack", "hb")
_REL_DATA = struct.Struct("!IH")

# rel shape bytes: 0x00 = data with the whole-group dest key "G";
# 0x02 = data with a u16-counted dest tuple; 0x10+i = kind-only.


def _pack_rel(value: Any) -> bytes:
    kind = value["k"]
    if kind == "data":
        try:
            head = _REL_DATA.pack(value["seq"], value["src"])
            dest_key = value["dk"]
        except KeyError:
            raise ValueError(value) from None
        if dest_key == "G":
            return b"\x00" + head
        return b"\x02" + head + _pack_ranks(dest_key)
    if kind in _REL_KINDS:
        return _B.pack(0x10 + _REL_KINDS.index(kind))
    raise ValueError(value)


def _unpack_rel(data: bytes) -> Dict[str, Any]:
    shape = data[0]
    if shape >= 0x10:
        return {"k": _REL_KINDS[shape - 0x10]}
    seq, src = _REL_DATA.unpack_from(data, 1)
    if shape == 0:
        dest_key: Any = "G"
    elif shape == 2:
        dest_key = _unpack_ranks(data, 9, _H.unpack_from(data, 7)[0])
    else:
        raise ValueError(shape)
    return {"k": "data", "seq": seq, "dk": dest_key, "src": src}


def _register_oneof(key: str, choices: Tuple[Any, ...]) -> None:
    def pack(value: Any, _choices=choices) -> bytes:
        return _B.pack(_choices.index(value))

    def unpack(data: bytes, _choices=choices) -> Any:
        return _choices[data[0]]

    register_header_codec(key, pack, unpack)


register_header_codec("fifo", _pack_u32, _unpack_u32)
register_header_codec("mux", _pack_u16, _unpack_u16)
register_header_codec("batch", _pack_batch, _unpack_batch)
register_header_codec("seqr", _pack_seqr, _unpack_seqr)
register_header_codec("tring", _pack_tring, _unpack_tring)
register_header_codec("rel", _pack_rel, _unpack_rel)
_register_oneof("conf", ("clear", "sealed"))
_register_oneof("prio", ({"k": "data"}, {"k": "release"}))


# ---------------------------------------------------------------------------
# Codec
# ---------------------------------------------------------------------------
class WireCodec:
    """Encodes/decodes ``(src, dst, payload)`` datagram frames.

    Stateless apart from :attr:`stats`, so one instance may serve a
    whole network.  ``stats`` counts ``undecodable.<reason>`` for every
    datagram :meth:`decode_datagram` refused.
    """

    def __init__(self) -> None:
        self.stats = Counter()
        # Late import: stack depends on net for nothing, net.codec needs
        # the Message type only for type dispatch and _from_wire.
        from ..stack.message import Message

        self._message_type = Message

    # -- encoding ----------------------------------------------------------
    def encode_payload(self, payload: Any) -> bytes:
        """TLV-encode ``payload`` into reusable body bytes."""
        out = bytearray()
        self._encode_value(out, payload)
        return bytes(out)

    def frame(self, src: int, dst: int, body: bytes, group: int = 0) -> bytes:
        """Prefix already-encoded ``body`` bytes for one destination."""
        if group == 0:
            return _FRAME.pack(MAGIC, VERSION_BINARY, src, dst) + body
        if not 0 < group <= MAX_GROUP_ID:
            raise NetworkError(f"group id {group} outside [0, {MAX_GROUP_ID}]")
        return (
            _FRAME.pack(MAGIC, VERSION_GROUP, src, dst)
            + _uvarint(group) + body
        )

    def encode(self, src: int, dst: int, payload: Any, group: int = 0) -> bytes:
        """One-shot ``frame(src, dst, encode_payload(payload), group)``."""
        return self.frame(src, dst, self.encode_payload(payload), group)

    # -- decoding ----------------------------------------------------------
    def decode(self, data: bytes) -> Tuple[int, int, Any]:
        """Decode a datagram into ``(src, dst, payload)``.

        Group-aware receivers call :meth:`decode_datagram` to also get
        the frame's group id.
        """
        __, src, dst, payload = self.decode_datagram(data)
        return src, dst, payload

    def decode_datagram(self, data: bytes) -> Tuple[int, int, int, Any]:
        """Decode a datagram into ``(group, src, dst, payload)``.

        ``data`` is hostile: whatever it holds, this returns or raises
        :class:`~repro.errors.CodecError` with a reason from
        :data:`DECODE_REASONS`, counted on :attr:`stats`.  The readers
        below do not bounds-check; this is the one place that turns
        what running off the end of a buffer raises into a reason.

        Deliberately *not* zero-copy: every variable-length field is a
        plain ``bytes`` slice, so decoded values own their storage and
        never alias the receive buffer, which the transport is free to
        reuse; see docs/ARCHITECTURE.md (decode ownership rules).
        """
        try:
            magic, version, src, dst = _FRAME.unpack_from(data)
            if magic != MAGIC:
                raise CodecError("magic", f"first byte 0x{magic:02X}")
            group = 0
            pos = FRAME_OVERHEAD
            if version == VERSION_GROUP:
                group, pos = _read_uvarint(data, pos)
                if group > MAX_GROUP_ID:
                    raise CodecError(
                        "group", f"group id {group} over {MAX_GROUP_ID}"
                    )
            elif version != VERSION_BINARY:
                raise CodecError("version", f"frame version {version}")
            payload, end = self._decode_value(data, pos)
            if end < len(data):
                raise CodecError(
                    "trailing", f"{len(data) - end} B after the payload"
                )
            if end > len(data):  # a length field reached past the end
                raise CodecError("truncated")
            return group, src, dst, payload
        except CodecError as exc:
            error = exc
        except (IndexError, struct.error):
            error = CodecError("truncated")
        except UnicodeDecodeError:
            error = CodecError("utf8")
        except RecursionError:
            error = CodecError("depth")
        self.stats.incr("undecodable." + error.reason)
        raise error

    # -- value encoding ----------------------------------------------------
    # Both dispatches are ordered by the tag mix measured over one
    # udp_steady and one udp_switch_churn ledger run (seed 1, 10 s;
    # 166 323 values): message 30 %, int 24 %, tuple 21 %, bytes 13 %,
    # str 9 %, None 3 %, dict 0.6 %; float, bool, list and big ints did
    # not occur.
    def _encode_value(self, out: bytearray, value: Any) -> None:
        kind = type(value)
        if kind is self._message_type:
            self._encode_message(out, value)
        elif kind is int:
            if _INT64_MIN <= value <= _INT64_MAX:
                out.append(_T_INT)
                out += _Q.pack(value)
            else:
                raw = value.to_bytes(
                    (value.bit_length() + 8) // 8, "big", signed=True
                )
                out.append(_T_BIGINT)
                out += _I.pack(len(raw))
                out += raw
        elif kind is tuple:
            out.append(_T_TUPLE)
            out += _I.pack(len(value))
            for item in value:
                self._encode_value(out, item)
        elif kind is bytes:
            out.append(_T_BYTES)
            out += _I.pack(len(value))
            out += value
        elif kind is str:
            raw = value.encode("utf-8")
            out.append(_T_STR)
            out += _I.pack(len(raw))
            out += raw
        elif value is None:
            out.append(_T_NONE)
        elif kind is dict:
            out.append(_T_DICT)
            out += _I.pack(len(value))
            for key, item in value.items():
                self._encode_value(out, key)
                self._encode_value(out, item)
        elif kind is float:
            out.append(_T_FLOAT)
            out += _D.pack(value)
        elif value is True:
            out.append(_T_TRUE)
        elif value is False:
            out.append(_T_FALSE)
        elif kind is list:
            out.append(_T_LIST)
            out += _I.pack(len(value))
            for item in value:
                self._encode_value(out, item)
        elif isinstance(value, tuple):
            # A tuple subclass (a NamedTuple) travels as its fields.
            self._encode_value(out, tuple(value))
        else:
            raise CodecError(
                "unencodable", f"no TLV tag for a {kind.__name__}"
            )

    def _encode_message(self, out: bytearray, msg: Any) -> None:
        mid = msg.mid
        dest = msg.dest
        try:
            skeleton = _MSG_FIXED.pack(
                msg.sender, mid[0], mid[1], msg.body_size, msg._header_size
            )
            if dest is None:
                dest_raw = b"\xff\xff"
            elif len(dest) < _DEST_NONE:
                dest_raw = _pack_ranks(dest)
            else:
                raise struct.error(f"{len(dest)} destinations")
        except (struct.error, TypeError, IndexError) as exc:
            raise CodecError(
                "unencodable", f"message {mid!r} outside the skeleton: {exc}"
            ) from None
        out.append(_T_MESSAGE)
        out += skeleton
        out += dest_raw
        self._encode_value(out, msg.body)
        headers = msg.headers
        out.append(len(headers))
        key_ids = _KEY_IDS
        key_cache = _KEY_CACHE
        for key, value in headers.items():
            entry = key_ids.get(key)
            if entry is not None:
                try:
                    packed = entry[1](value)
                except _SHAPE_ERRORS:
                    packed = None
                if packed is not None and len(packed) <= 0xFF:
                    out.append(entry[0])
                    out.append(len(packed))
                    out += packed
                    continue
            # String-keyed entry: id 0x00, length-prefixed key, TLV value.
            out.append(0)
            raw_key = key_cache.get(key)
            if raw_key is None:
                raw = key.encode("utf-8")
                raw_key = key_cache[key] = _B.pack(len(raw)) + raw
            out += raw_key
            self._encode_value(out, value)

    # -- value decoding ----------------------------------------------------
    def _decode_value(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _T_MESSAGE:
            return self._decode_message(buf, pos)
        if tag == _T_INT:
            return _Q.unpack_from(buf, pos)[0], pos + 8
        if tag == _T_TUPLE or tag == _T_LIST:
            count = _I.unpack_from(buf, pos)[0]
            pos += 4
            items = []
            for __ in range(count):
                item, pos = self._decode_value(buf, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag == _T_BYTES:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            return buf[pos:pos + length], pos + length
        if tag == _T_STR:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            return buf[pos:pos + length].decode("utf-8"), pos + length
        if tag == _T_NONE:
            return None, pos
        if tag == _T_DICT:
            count = _I.unpack_from(buf, pos)[0]
            pos += 4
            mapping = {}
            for __ in range(count):
                key, pos = self._decode_value(buf, pos)
                value, pos = self._decode_value(buf, pos)
                try:
                    mapping[key] = value
                except TypeError:
                    raise CodecError("tag", "unhashable dict key") from None
            return mapping, pos
        if tag == _T_FLOAT:
            return _D.unpack_from(buf, pos)[0], pos + 8
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_BIGINT:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            raw = buf[pos:pos + length]
            return int.from_bytes(raw, "big", signed=True), pos + length
        raise CodecError("tag", f"unknown TLV tag 0x{tag:02X}")

    def _decode_message(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        sender, mid0, mid1, body_size, header_size = _MSG_FIXED.unpack_from(
            buf, pos
        )
        pos += _MSG_FIXED.size
        dest_count = _H.unpack_from(buf, pos)[0]
        pos += 2
        if dest_count == _DEST_NONE:
            dest: Any = None
        else:
            dest = _unpack_ranks(buf, pos, dest_count)
            pos += 2 * dest_count
        body, pos = self._decode_value(buf, pos)
        count = buf[pos]
        pos += 1
        id_table = _ID_TABLE
        headers: Dict[str, Any] = {}
        for __ in range(count):
            key_id = buf[pos]
            pos += 1
            if key_id:
                end = pos + 1 + buf[pos]
                try:
                    key, unpack = id_table[key_id]
                    headers[key] = unpack(buf[pos + 1:end])
                except _SHAPE_ERRORS:
                    raise CodecError(
                        "header", f"id {key_id}: unknown, or malformed bytes"
                    ) from None
                pos = end
            else:
                key_len = buf[pos]
                pos += 1
                key = buf[pos:pos + key_len].decode("utf-8")
                headers[key], pos = self._decode_value(buf, pos + key_len)
        message = self._message_type._from_wire(
            sender, (mid0, mid1), body, body_size, dest, header_size, headers
        )
        return message, pos
