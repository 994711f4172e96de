#!/usr/bin/env python
"""Hot-path microbenchmarks: headers, fan-out encode and decode.

Three kernels, each timing the optimized implementation against the
baseline it replaced:

``header_hop``
    One multicast hop through a 9-layer stack delivered to a group of
    8: push every layer's header once on the way down, then pop all 9
    in reverse at *each* receiver.  The baseline is the seed's
    dict-copy-on-write ``Message`` (reproduced inline below); the
    optimized path is the persistent header chain, whose LIFO pops are
    O(1) unlinks and whose multicast pops after the first receiver are
    memoized loads.  Bar: >= 2x.

``multicast_fanout``
    The datagram bytes for one 8-destination multicast.  The codec
    encodes the payload once and re-frames 6 bytes per destination;
    the baseline pickles the whole triple once per destination, as the
    seed's UDP transport did.  Bar: >= 2x.

``decode_fanin``
    Decode of the datagram mix a sequencer fan-in sees (mostly small
    ordered data messages, a few fat bodies) against the frozen
    pre-optimization decoder (reproduced inline below).  The rebuilt
    decoder wins on precompiled rank-tuple structs, precomputed header
    bloom bits, and frequency-ordered tag dispatch — *not* on
    memoryview zero-copy, which was built, measured slower at every
    site on CPython 3.11, and rejected (see docs/ARCHITECTURE.md).
    Bar: >= 1x (strictly faster).

Timings use best-of-N (``min`` over ``timeit.repeat``), which is the
stable estimator on noisy shared runners — the minimum approaches the
true cost while means drift with scheduler interference.

Usage::

    PYTHONPATH=src python benchmarks/bench_hotpath.py
    PYTHONPATH=src python benchmarks/bench_hotpath.py --out micro.json

Writes ``benchmarks/results/micro.json`` (validated in CI by
``scripts/check_micro.py``).  Exit code 0 when every kernel clears its
bar, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import marshal
import os
import pickle
import struct
import sys
import timeit
from typing import Any, Dict, Optional, Tuple

from repro.errors import NetworkError
from repro.net.codec import (
    FRAME_OVERHEAD, WireCodec, _D, _I, _ID_TABLE, _MSG_FIXED, _Q,
    _T_BIGINT, _T_BYTES, _T_DICT, _T_FALSE, _T_FLOAT, _T_INT, _T_LIST,
    _T_MESSAGE, _T_NONE, _T_PICKLE, _T_STR, _T_TRUE, _T_TUPLE,
)
from repro.stack.message import BASE_WIRE_OVERHEAD, Message

SCHEMA_VERSION = 1

#: (key, value, size) pushed top-to-bottom on the way down — the shape
#: of the deep composed stack from the preservation suite.
STACK = (
    ("prio", {"k": "data"}, 6),
    ("batch", {"n": 4}, 8),
    ("mux", 3, 2),
    ("conf", "clear", 4),
    ("mac", b"\x00" * 16, 32),
    ("causal", {0: 1, 1: 5, 2: 9}, 24),
    ("rel", {"k": "data", "seq": 41, "dk": "G", "src": 3}, 10),
    ("seqr", {"k": "ord", "gseq": 1041}, 8),
    ("fifo", 41, 4),
)
GROUP = 8


class _DictMessage:
    """The seed's ``Message`` header behaviour: one dict copy per op.

    Kept as the in-benchmark baseline so the header kernel measures the
    persistent chain against exactly what it replaced, without digging
    the old class out of history.
    """

    __slots__ = ("sender", "mid", "body", "body_size", "dest", "_headers",
                 "_header_size")

    def __init__(self, sender, mid, body, body_size, dest=None, headers=None,
                 header_size=0):
        self.sender = sender
        self.mid = mid
        self.body = body
        self.body_size = body_size
        self.dest = dest
        self._headers = dict(headers) if headers else {}
        self._header_size = header_size

    def with_header(self, key, value, size=16):
        if key in self._headers:
            raise ValueError(key)
        headers = dict(self._headers)
        headers[key] = value
        return _DictMessage(self.sender, self.mid, self.body, self.body_size,
                            self.dest, headers, self._header_size + size)

    def without_header(self, key, size=16):
        if key not in self._headers:
            raise ValueError(key)
        headers = dict(self._headers)
        del headers[key]
        return _DictMessage(self.sender, self.mid, self.body, self.body_size,
                            self.dest, headers,
                            max(0, self._header_size - size))

    def with_dest(self, dest):
        return _DictMessage(self.sender, self.mid, self.body, self.body_size,
                            None if dest is None else tuple(dest),
                            self._headers, self._header_size)

    @property
    def size_bytes(self):
        return self.body_size + self._header_size + BASE_WIRE_OVERHEAD


def _hop(cls) -> int:
    """One multicast hop: sender-side pushes, ``GROUP`` receiver pops."""
    msg = cls(sender=3, mid=(3, 41), body="payload", body_size=256)
    for key, value, size in STACK:
        msg = msg.with_header(key, value, size)
    msg = msg.with_dest(None)
    total = 0
    for __ in range(GROUP):
        up = msg  # every receiver starts from the same wire object
        for key, __unused, size in reversed(STACK):
            up = up.without_header(key, size)
        total += up.size_bytes
    return total


def _compare_us(baseline, optimized, number: int,
                repeat: int) -> Tuple[float, float]:
    """Best-of-``repeat`` per-call cost of both sides, in microseconds.

    Samples alternate between the two functions so scheduler noise or a
    frequency shift lands on both sides instead of biasing whichever
    happened to run during the disturbance.
    """
    best_base = best_opt = float("inf")
    for __ in range(repeat):
        best_base = min(best_base, timeit.timeit(baseline, number=number))
        best_opt = min(best_opt, timeit.timeit(optimized, number=number))
    scale = 1e6 / number
    return best_base * scale, best_opt * scale


def _representative_message() -> Message:
    """A sequencer-ordered reliable data message, as seen on the wire."""
    return (
        Message(sender=3, mid=(3, 41), body=("payload", 41), body_size=256)
        .with_header("fifo", 41, 4)
        .with_header("seqr", {"k": "ord", "gseq": 1041}, 8)
        .with_header("rel", {"k": "data", "seq": 41, "dk": "G", "src": 3}, 10)
    )


def kernel_header_hop(number: int, repeat: int) -> Dict[str, Any]:
    assert _hop(Message) == _hop(_DictMessage)  # same observable result
    baseline, optimized = _compare_us(
        lambda: _hop(_DictMessage), lambda: _hop(Message), number, repeat
    )
    speedup = baseline / optimized
    return {
        "group": GROUP,
        "layers": len(STACK),
        "baseline_us": round(baseline, 3),
        "optimized_us": round(optimized, 3),
        "speedup": round(speedup, 3),
        "threshold": 2.0,
        "pass": speedup >= 2.0,
    }


def kernel_multicast_fanout(number: int, repeat: int) -> Dict[str, Any]:
    codec = WireCodec()
    msg = _representative_message()
    dsts = tuple(range(GROUP))

    def codec_fanout():
        body = codec.encode_payload(msg)
        return [codec.frame(3, dst, body) for dst in dsts]

    def pickle_fanout():
        # The seed pickled the whole (src, dst, payload) triple per
        # destination: the payload bytes were re-serialized GROUP times.
        return [
            pickle.dumps((3, dst, msg), pickle.HIGHEST_PROTOCOL)
            for dst in dsts
        ]

    pickle_us, codec_us = _compare_us(
        pickle_fanout, codec_fanout, number, repeat
    )
    speedup = pickle_us / codec_us
    datagrams = codec_fanout()
    body_bytes = len(datagrams[0]) - FRAME_OVERHEAD
    return {
        "group": GROUP,
        "per_destination_overhead_bytes": FRAME_OVERHEAD,
        "shared_body_bytes": body_bytes,
        "pickle_us": round(pickle_us, 3),
        "codec_us": round(codec_us, 3),
        "speedup": round(speedup, 3),
        "threshold": 2.0,
        "pass": speedup >= 2.0,
    }


class _ReferenceDecode(WireCodec):
    """The decoder this repo shipped before the raw-speed pass, frozen
    as the kernel baseline.

    Byte-for-byte the pre-optimization decode loop: original dispatch
    order, a ``"!%dH" %`` format string built per packed dest tuple,
    and a hash + shift per decoded header for the chain's bloom bit.
    Decoded output is asserted identical to the optimized decoder at
    kernel setup.
    """

    def __init__(self) -> None:
        super().__init__()
        # Pre-optimization id-table rows were (key, unpack) pairs; the
        # live table now carries the precomputed bloom bit as a third
        # element.  Rebuild the old shape so the frozen loop below pays
        # exactly the old costs, no more.
        self._ref_table = [None] + [
            (key, unpack) for key, unpack, __ in _ID_TABLE[1:]
        ]

    def _decode_value(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        tag = buf[pos]
        pos += 1
        if tag == _T_NONE:
            return None, pos
        if tag == _T_TRUE:
            return True, pos
        if tag == _T_FALSE:
            return False, pos
        if tag == _T_INT:
            return _Q.unpack_from(buf, pos)[0], pos + 8
        if tag == _T_BIGINT:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            raw = buf[pos:pos + length]
            return int.from_bytes(raw, "big", signed=True), pos + length
        if tag == _T_FLOAT:
            return _D.unpack_from(buf, pos)[0], pos + 8
        if tag == _T_STR:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            return str(buf[pos:pos + length], "utf-8"), pos + length
        if tag == _T_BYTES:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            return buf[pos:pos + length], pos + length
        if tag == _T_TUPLE or tag == _T_LIST:
            count = _I.unpack_from(buf, pos)[0]
            pos += 4
            items = []
            for __ in range(count):
                item, pos = self._decode_value(buf, pos)
                items.append(item)
            return (tuple(items) if tag == _T_TUPLE else items), pos
        if tag == _T_DICT:
            count = _I.unpack_from(buf, pos)[0]
            pos += 4
            mapping = {}
            for __ in range(count):
                key, pos = self._decode_value(buf, pos)
                mapping[key], pos = self._decode_value(buf, pos)
            return mapping, pos
        if tag == _T_MESSAGE:
            return self._decode_message(buf, pos)
        if tag == _T_PICKLE:
            length = _I.unpack_from(buf, pos)[0]
            pos += 4
            return pickle.loads(buf[pos:pos + length]), pos + length
        raise NetworkError(f"unknown TLV tag 0x{tag:02X}")

    def _decode_message(self, buf: bytes, pos: int) -> Tuple[Any, int]:
        variant = buf[pos]
        pos += 1
        if variant == 0:
            sender, mid0, mid1, body_size, header_size = (
                _MSG_FIXED.unpack_from(buf, pos)
            )
            mid: Any = (mid0, mid1)
            pos += _MSG_FIXED.size
            dest_count = buf[pos]
            pos += 1
            if dest_count == 0xFF:
                dest: Any = None
            else:
                dest = struct.unpack_from("!%dH" % dest_count, buf, pos)
                pos += 2 * dest_count
        else:
            sender, pos = self._decode_value(buf, pos)
            mid, pos = self._decode_value(buf, pos)
            body_size, pos = self._decode_value(buf, pos)
            dest, pos = self._decode_value(buf, pos)
            header_size, pos = self._decode_value(buf, pos)
        if buf[pos] == 0:  # marshalled body
            pos += 1
            body_len = _I.unpack_from(buf, pos)[0]
            pos += 4
            body = marshal.loads(buf[pos:pos + body_len])
            pos += body_len
        else:
            pos += 1
            body, pos = self._decode_value(buf, pos)
        count = buf[pos]
        pos += 1
        id_table = self._ref_table
        chain = None
        mask = 0
        for __ in range(count):
            key_id = buf[pos]
            pos += 1
            if key_id:
                key, unpack = id_table[key_id]
                length = buf[pos]
                pos += 1
                end = pos + length
                value = unpack(buf[pos:end])
                pos = end
            else:
                key_len = buf[pos]
                pos += 1
                key = str(buf[pos:pos + key_len], "utf-8")
                pos += key_len
                value, pos = self._decode_value(buf, pos)
            mask |= 1 << (hash(key) & 63)
            chain = (mask, chain, key, value)
        message = self._message_type._from_wire(
            sender, mid, body, body_size, dest, header_size, chain
        )
        return message, pos


def _fanin_frames(codec: WireCodec) -> list:
    """The datagram mix a sequencer fan-in sees: mostly small ordered
    data messages, a few fat bodies."""

    def frame(sender, body, headers=None, dest=(1, 2, 3)):
        msg = Message(sender, (sender, 41), body, 64, dest=dest,
                      headers=headers or {})
        return codec.encode(sender, 7, msg, group=9)

    seqr = {"k": "ord", "gseq": 1041}
    rel = {"k": "data", "seq": 41, "dk": "G", "src": 3}
    frames = [
        frame(s, ("payload", 41 + s),
              {"fifo": 41 + s, "seqr": seqr, "rel": rel})
        for s in range(5)
    ]
    frames.append(frame(5, "x" * 1024, {"fifo": 99}))
    frames.append(frame(6, {"cmd": "put", "key": "k1", "val": "z" * 512}))
    frames.append(frame(7, "y" * 4096, dest=tuple(range(8))))
    return frames


def kernel_decode_fanin(number: int, repeat: int) -> Dict[str, Any]:
    codec = WireCodec()
    reference = _ReferenceDecode()
    frames = _fanin_frames(codec)
    for wire in frames:  # both decoders agree on every observable
        new = codec.decode_datagram(wire)
        old = reference.decode_datagram(wire)
        assert new[:3] == old[:3]
        assert new[3].mid == old[3].mid and new[3].body == old[3].body
        assert new[3].dest == old[3].dest
        assert dict(new[3].headers) == dict(old[3].headers)

    def baseline():
        for wire in frames:
            reference.decode_datagram(wire)

    def optimized():
        for wire in frames:
            codec.decode_datagram(wire)

    baseline_us, optimized_us = _compare_us(
        baseline, optimized, number, repeat
    )
    speedup = baseline_us / optimized_us
    return {
        "frames": len(frames),
        "baseline_us": round(baseline_us, 3),
        "optimized_us": round(optimized_us, 3),
        "speedup": round(speedup, 3),
        "threshold": 1.0,
        "pass": speedup >= 1.0 and optimized_us < baseline_us,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", default=None,
        help="artifact path (default benchmarks/results/micro.json)",
    )
    parser.add_argument(
        "--number", type=int, default=2000,
        help="kernel invocations per timing sample",
    )
    parser.add_argument(
        "--repeat", type=int, default=13,
        help="timing samples per kernel (the minimum is reported)",
    )
    args = parser.parse_args(argv)

    kernels = {
        "header_hop": kernel_header_hop(args.number, args.repeat),
        "multicast_fanout": kernel_multicast_fanout(args.number, args.repeat),
        "decode_fanin": kernel_decode_fanin(args.number, args.repeat),
    }
    for name, result in kernels.items():
        verdict = "PASS" if result["pass"] else "FAIL"
        print(f"{name:<18} {result['speedup']:6.2f}x "
              f"(bar {result['threshold']}x)  {verdict}")

    artifact = {
        "benchmark": "bench_hotpath",
        "schema_version": SCHEMA_VERSION,
        "timing": {"estimator": "best-of-N", "number": args.number,
                   "repeat": args.repeat},
        "kernels": kernels,
        "pass": all(k["pass"] for k in kernels.values()),
    }
    out = args.out
    if out is None:
        out = os.path.join(
            os.path.dirname(os.path.abspath(__file__)), "results", "micro.json"
        )
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"\nartifact: {out}")
    return 0 if artifact["pass"] else 1


if __name__ == "__main__":
    sys.exit(main())
