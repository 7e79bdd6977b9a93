"""Lossless columnar codec for sorted methylation records.

Block layout (byte-exact reference in docs/codec.md):

    magic "MCP1" | version u8 | chromosome dictionary | record count |
    six length-prefixed streams | crc32 of everything before it

Streams: chromosome runs, start-delta runs, interval-length runs, strand
runs, coverage varints, meth_pct varints. All integers are LEB128
varints; start deltas are zigzag-encoded (they go negative at chromosome
boundaries). Encoding requires input sorted by (chrom, start, end,
strand); sorting is the upstream stage's job, so unsorted input is an
error here, not something to fix quietly.
"""

from __future__ import annotations

import gzip
import zlib
from typing import Sequence

from faaslab.errors import (
    BadMagic,
    ChecksumMismatch,
    Overflow,
    Truncated,
    UnsortedInput,
)
from faaslab.methpipe.records import MethRecord

MAGIC = b"MCP1"
VERSION = 1

_UVARINT_MAX = (1 << 64) - 1


def _write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0 or value > _UVARINT_MAX:
        raise Overflow(f"value out of varint range: {value}")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _write_uvarints(buf: bytearray, values) -> None:
    append = buf.append
    for value in values:
        if value < 0 or value > _UVARINT_MAX:
            raise Overflow(f"value out of varint range: {value}")
        while value >= 0x80:
            append((value & 0x7F) | 0x80)
            value >>= 7
        append(value)


def _write_runs(buf: bytearray, values) -> None:
    """Run-length encode a value sequence as (value, run_length) pairs."""
    prev = None
    run = 0
    for value in values:
        if value == prev:
            run += 1
        else:
            if run:
                _write_uvarint(buf, prev)
                _write_uvarint(buf, run)
            prev = value
            run = 1
    if run:
        _write_uvarint(buf, prev)
        _write_uvarint(buf, run)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return -((value + 1) >> 1) if value & 1 else value >> 1


class _Reader:
    __slots__ = ("data", "pos", "end")

    def __init__(self, data: bytes, pos: int = 0, end: int | None = None):
        self.data = data
        self.pos = pos
        self.end = len(data) if end is None else end

    def uvarint(self) -> int:
        data, pos, end = self.data, self.pos, self.end
        result = 0
        shift = 0
        while True:
            if pos >= end:
                raise Truncated("varint runs past end of block")
            byte = data[pos]
            pos += 1
            result |= (byte & 0x7F) << shift
            if byte < 0x80:
                break
            shift += 7
            if shift > 63:
                raise Truncated("varint exceeds 64 bits")
        self.pos = pos
        return result

    def uvarints(self, count: int) -> list[int]:
        return [self.uvarint() for _ in range(count)]

    def runs(self, total: int) -> list[int]:
        out: list[int] = []
        while len(out) < total:
            value = self.uvarint()
            run = self.uvarint()
            if run == 0 or len(out) + run > total:
                raise Truncated("run-length stream inconsistent with record count")
            out.extend([value] * run)
        return out

    def exhausted(self) -> bool:
        return self.pos >= self.end


def encode_block(records: Sequence[MethRecord]) -> bytes:
    """Encode sorted records into one self-checking binary block."""
    chrom_ids: dict[str, int] = {}
    chrom_idx: list[int] = []
    starts: list[int] = []
    lengths: list[int] = []
    strands: list[int] = []
    coverages: list[int] = []
    meths: list[int] = []

    prev_c, prev_s, prev_e, prev_t = "", -1, -1, ""
    for record in records:
        c, s, e, t = record[0], record[1], record[2], record[3]
        if c < prev_c or (
            c == prev_c
            and (s < prev_s or (s == prev_s and (e < prev_e or (e == prev_e and t < prev_t))))
        ):
            raise UnsortedInput(
                f"record ({c}, {s}, {e}, {t}) sorts before its predecessor"
            )
        prev_c, prev_s, prev_e, prev_t = c, s, e, t
        idx = chrom_ids.get(c)
        if idx is None:
            idx = chrom_ids[c] = len(chrom_ids)
        chrom_idx.append(idx)
        starts.append(s)
        lengths.append(e - s)
        strands.append(0 if t == "+" else 1)
        coverages.append(record[4])
        meths.append(record[5])

    head = bytearray(MAGIC)
    head.append(VERSION)
    _write_uvarint(head, len(chrom_ids))
    for name in chrom_ids:
        encoded = name.encode("utf-8")
        _write_uvarint(head, len(encoded))
        head += encoded
    _write_uvarint(head, len(starts))

    streams: list[bytearray] = [bytearray() for _ in range(6)]
    _write_runs(streams[0], chrom_idx)
    prev = 0
    deltas = []
    for s in starts:
        deltas.append(_zigzag(s - prev))
        prev = s
    _write_runs(streams[1], deltas)
    _write_runs(streams[2], lengths)
    _write_runs(streams[3], strands)
    _write_uvarints(streams[4], coverages)
    _write_uvarints(streams[5], meths)

    block = head
    for stream in streams:
        _write_uvarint(block, len(stream))
        block += stream
    block += zlib.crc32(block).to_bytes(4, "big")
    return bytes(block)


def decode_block(payload: bytes) -> list[MethRecord]:
    """Decode a block back to its records; exact inverse of encode_block."""
    if len(payload) < len(MAGIC) + 1 or payload[: len(MAGIC)] != MAGIC:
        raise BadMagic("payload does not start with the MCP1 magic")
    if payload[len(MAGIC)] != VERSION:
        raise BadMagic(f"unsupported codec version {payload[len(MAGIC)]}")
    if len(payload) < len(MAGIC) + 1 + 4:
        raise Truncated("block shorter than header plus checksum")
    body, checksum = payload[:-4], payload[-4:]
    if zlib.crc32(body).to_bytes(4, "big") != checksum:
        raise ChecksumMismatch("crc32 does not match block contents")

    reader = _Reader(body, len(MAGIC) + 1)
    chrom_count = reader.uvarint()
    chroms: list[str] = []
    for _ in range(chrom_count):
        length = reader.uvarint()
        if reader.pos + length > reader.end:
            raise Truncated("chromosome dictionary runs past end of block")
        chroms.append(body[reader.pos : reader.pos + length].decode("utf-8"))
        reader.pos += length
    count = reader.uvarint()

    columns: list[list[int]] = []
    for i in range(6):
        length = reader.uvarint()
        if reader.pos + length > reader.end:
            raise Truncated(f"stream {i} runs past end of block")
        sub = _Reader(body, reader.pos, reader.pos + length)
        if i < 4:
            columns.append(sub.runs(count))
        else:
            columns.append(sub.uvarints(count))
        if not sub.exhausted():
            raise Truncated(f"stream {i} has trailing bytes")
        reader.pos = sub.end
    if not reader.exhausted():
        raise Truncated("block has trailing bytes after streams")

    chrom_idx, delta_zz, lengths, strands, coverages, meths = columns
    records: list[MethRecord] = []
    append = records.append
    pos = 0
    for i in range(count):
        ci = chrom_idx[i]
        if ci >= chrom_count:
            raise Truncated(f"chromosome index {ci} outside dictionary")
        pos += _unzigzag(delta_zz[i])
        append(
            MethRecord(
                chroms[ci],
                pos,
                pos + lengths[i],
                "+" if strands[i] == 0 else "-",
                coverages[i],
                meths[i],
            )
        )
    return records


def is_encoded_block(payload: bytes) -> bool:
    """True when the payload starts with the codec magic."""
    return payload[: len(MAGIC)] == MAGIC


def baseline_compressed_size(data: bytes) -> int:
    """Size of `data` under gzip at level 9, compressed in process."""
    return len(gzip.compress(data, compresslevel=9))
