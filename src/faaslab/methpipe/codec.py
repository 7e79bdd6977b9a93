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

The encoder works on `Batches`: records cut into chunks, each checked
for order and written at once as far as its edges allow, into varint
bytes and the runs that may go on across an edge. `tsv_to_batches`
builds them straight from a TSV payload's parse chunks, without record
tuples; a record sequence is cut into batches of BATCH_RECORDS.
"""

from __future__ import annotations

import gzip
import zlib
from bisect import bisect_right
from functools import partial
from itertools import accumulate, chain, compress, islice, repeat
from operator import ne, not_, sub
from typing import Callable, Iterable, NamedTuple

from faaslab.errors import (
    BadMagic,
    ChecksumMismatch,
    Overflow,
    Truncated,
    UnsortedInput,
)
from faaslab.methpipe.records import MethRecord, _chunks, _parse_chunk, _parse_lines

MAGIC = b"MCP1"
VERSION = 1

_UVARINT_MAX = (1 << 64) - 1

# Records per batch when a record sequence is encoded.
BATCH_RECORDS = 4096


def _write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0 or value > _UVARINT_MAX:
        raise Overflow(f"value out of varint range: {value}")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def _unzigzag(value: int) -> int:
    return -((value + 1) >> 1) if value & 1 else value >> 1


class _Varints(dict):
    """Maps a value to its varint bytes, encoding each distinct value once.

    Raises Overflow for a value outside varint range. Each Batches owns
    its maps, so nothing outlives the block encoded from it.
    """

    __slots__ = ()

    @staticmethod
    def _varint_of(value: int) -> int:
        return value

    def __missing__(self, value: int) -> bytes:
        buf = bytearray()
        _write_uvarint(buf, self._varint_of(value))
        encoded = self[value] = bytes(buf)
        return encoded


class _ZigzagVarints(_Varints):
    """Maps a signed value to the varint bytes of its zigzag form."""

    __slots__ = ()
    _varint_of = staticmethod(_zigzag)


def _runs(column) -> tuple[list, list]:
    """A non-empty column as run-length pairs: (run values, run lengths)."""
    n = len(column)
    if column.count(column[0]) == n:
        return [column[0]], [n]
    cuts = list(compress(range(1, n), map(ne, islice(column, 1, None), column)))
    firsts = [0, *cuts]
    cuts.append(n)
    return list(map(column.__getitem__, firsts)), list(map(sub, cuts, firsts))


def _chrom_runs(chroms) -> tuple[list, list] | None:
    """A chromosome column's runs as (keys, sizes), or None unless it is sorted.

    Each run is found with bisect_right and verified with a count; on a
    sorted column that finds exactly the runs, and a column whose runs
    all verify, with keys strictly ascending, is sorted.
    """
    keys: list = []
    sizes: list = []
    i, n = 0, len(chroms)
    while i < n:
        key = chroms[i]
        j = bisect_right(chroms, key, i)
        if chroms[i:j].count(key) != j - i or (keys and not keys[-1] < key):
            return None
        keys.append(key)
        sizes.append(j - i)
        i = j
    return keys, sizes


def _runs_in_order(sizes: list, deltas: list, ends, strands) -> bool:
    """Whether each chromosome run's records ascend by (start, end, strand).

    Starts must not fall inside a run; where a start repeats, its
    (end, strand) must not fall either. A run's first record is checked
    against its predecessor by the caller.
    """
    firsts = list(accumulate(sizes[:-1], initial=0))
    if min(deltas) < 0 and any(
        min(islice(deltas, first + 1, first + size), default=0) < 0
        for first, size in zip(firsts, sizes)
    ):
        return False
    if 0 not in deltas:
        return True
    firsts = set(firsts)
    return not any(
        (ends[k], strands[k]) < (ends[k - 1], strands[k - 1])
        for k in compress(range(len(deltas)), map(not_, deltas))
        if k not in firsts
    )


def _first_unsorted(last: tuple, keys) -> tuple:
    """The first (chrom, start, end, strand) key that sorts before its predecessor."""
    for key in keys:
        if key < last:
            return key
        last = key
    raise AssertionError("no record out of order")


def _same(value):
    return value


def _now_or_later(build: Callable[[], bytes]) -> bytes | Callable[[], bytes]:
    """build(), or build itself when a value has no varint form.

    A deferred piece is built again when its stream is written, so its
    error is raised in stream order, after every earlier error.
    """
    try:
        return build()
    except (Overflow, TypeError):
        return build


def _built(piece: bytes | Callable[[], bytes]) -> bytes:
    return piece if isinstance(piece, bytes) else piece()


def _varints(values, value_bytes: _Varints) -> bytes:
    return b"".join(map(value_bytes.__getitem__, values))


def _pairs(values: list, sizes: list, value_bytes: _Varints, size_bytes: _Varints) -> bytes:
    """(value, size) runs as varint pairs."""
    pairs = [None] * (2 * len(values))
    pairs[::2] = map(value_bytes.__getitem__, values)
    pairs[1::2] = map(size_bytes.__getitem__, sizes)
    return b"".join(pairs)


class _Runs(NamedTuple):
    """One batch's runs of a stream, the inner ones already written.

    The first and last runs stay (value, size) pairs, since they may go
    on in the neighbouring batches; `tail` is None for a single run.
    """

    head: tuple
    inner: bytes | Callable[[], bytes]
    tail: tuple | None


def _batch_runs(runs: tuple[list, list], value_bytes: _Varints, size_bytes: _Varints) -> _Runs:
    values, sizes = runs
    last = len(values) - 1
    if not last:
        return _Runs((values[0], sizes[0]), b"", None)
    inner = partial(_pairs, values[1:last], sizes[1:last], value_bytes, size_bytes)
    return _Runs((values[0], sizes[0]), _now_or_later(inner), (values[last], sizes[last]))


class _Batch(NamedTuple):
    """One chunk of sorted records, written as far as batch edges allow."""

    names: list  # chromosome runs: names and sizes
    sizes: list
    deltas: _Runs  # start-delta runs
    lengths: _Runs  # (end - start) runs
    strands: _Runs  # strand-bit runs, '+' = 0
    coverages: bytes | Callable[[], bytes]  # varints
    meths: bytes | Callable[[], bytes]


class Batches:
    """Sorted records as order-checked compact batches; the encoder's input.

    `add` turns one chunk's columns into a `_Batch` at once: run-length
    and varint bytes, with no record tuples and no start or end ints.
    Start deltas are taken from the previous record, across batch edges.
    len() is the record count.
    """

    __slots__ = ("batches", "count", "varints", "zigzags", "_last", "_start")

    def __init__(self) -> None:
        self.batches: list[_Batch] = []
        self.count = 0
        self.varints = _Varints()
        self.zigzags = _ZigzagVarints()
        # the first record's predecessor in the order check, and start[-1]
        self._last: tuple = ("", -1, -1, "")
        self._start = 0

    def __len__(self) -> int:
        return self.count

    @classmethod
    def of_records(cls, records: Iterable[MethRecord]) -> Batches:
        """Cut records into batches of BATCH_RECORDS; fields past the sixth are ignored."""
        batches = cls()
        records = iter(records)
        while chunk := list(islice(records, BATCH_RECORDS)):
            batches.add(*islice(zip(*chunk), 6))
        return batches

    def add(self, chroms, starts, ends, strands, coverages, meths, bits=None, name=_same) -> None:
        """Append one chunk of records, given as six equal-length columns.

        `chroms` may hold any keys that sort as the names do, `name`
        turning a key into its name; `strands` may be any sequence of
        strand strings, such as one str. `bits` are the strand bits,
        when the caller has them. Raises UnsortedInput naming the first
        record that sorts before its predecessor by (chrom, start, end,
        strand). A value with no varint form raises nothing here: its
        piece is written, and raises, with its stream.
        """
        n = len(starts)
        if not n:
            return
        deltas = list(map(sub, starts, chain((self._start,), starts)))
        runs = _chrom_runs(chroms)
        if (
            runs is None
            or (name(chroms[0]), starts[0], ends[0], strands[0]) < self._last
            or not _runs_in_order(runs[1], deltas, ends, strands)
        ):
            keys = zip(map(name, chroms), starts, ends, strands)
            c, s, e, t = _first_unsorted(self._last, keys)
            raise UnsortedInput(f"record ({c}, {s}, {e}, {t}) sorts before its predecessor")
        self._last = (name(chroms[-1]), starts[-1], ends[-1], strands[-1])
        self._start = starts[-1]
        self.count += n
        if bits is None:
            bits = bytes(map(ne, strands, repeat("+")))
        self.batches.append(
            _Batch(
                list(map(name, runs[0])),
                runs[1],
                _batch_runs(_runs(deltas), self.zigzags, self.varints),
                _batch_runs(_runs(list(map(sub, ends, starts))), self.varints, self.varints),
                _batch_runs(_runs(bits), self.varints, self.varints),
                _now_or_later(partial(_varints, coverages, self.varints)),
                _now_or_later(partial(_varints, meths, self.varints)),
            )
        )


_STRAND_BITS = bytes.maketrans(b"+-", b"\x00\x01")


def tsv_to_batches(payload: bytes) -> Batches:
    """Parse a sorted TSV payload straight into encoder batches.

    Each parse chunk (see records.tsv_to_records) becomes one batch; the
    records, and the ParseError on bad input, are those of
    tsv_to_records. A batch-parsed chunk is checked and run-length coded
    on its raw chromosome and strand fields. A record out of order
    raises UnsortedInput, but only after the whole payload has parsed,
    so a parse error anywhere in the payload comes first.
    """
    batches = Batches()
    unsorted = None
    for chunk in _chunks(payload):
        parsed = _parse_chunk(chunk)
        if parsed is None:
            columns = list(zip(*_parse_lines(chunk)))
            extra = {}
        else:
            strands = b"".join(parsed.raw_strands)
            columns = [parsed.raw_chroms, parsed.starts, parsed.ends, strands.decode(),
                       parsed.coverages, parsed.meths]
            extra = {"bits": strands.translate(_STRAND_BITS), "name": parsed.names.__getitem__}
        if columns and unsorted is None:
            try:
                batches.add(*columns, **extra)
            except UnsortedInput as exc:
                unsorted = exc
    if unsorted is not None:
        raise unsorted
    return batches


def _run_stream(runs: Iterable[_Runs], value_bytes: _Varints, size_bytes: _Varints) -> bytes:
    """A run stream's bytes from each batch's runs.

    A batch's last run is held back until the next batch shows whether
    it goes on, so runs that cross batch edges are written once.
    """
    pieces = []
    value, size = None, 0
    for head, inner, tail in runs:
        if size and head[0] == value:
            size += head[1]
        else:
            if size:
                pieces.append(value_bytes[value] + size_bytes[size])
            value, size = head
        if tail is not None:
            pieces.append(value_bytes[value] + size_bytes[size])
            pieces.append(_built(inner))
            value, size = tail
    if size:
        pieces.append(value_bytes[value] + size_bytes[size])
    return b"".join(pieces)


def _streams(batches: Batches, ids: dict[str, int]):
    """Yield the six streams' bytes in order, each gathered from every batch."""
    parts, varints = batches.batches, batches.varints
    yield _run_stream(
        (_batch_runs((list(map(ids.__getitem__, b.names)), b.sizes), varints, varints) for b in parts),
        varints,
        varints,
    )
    yield _run_stream((b.deltas for b in parts), batches.zigzags, varints)
    yield _run_stream((b.lengths for b in parts), varints, varints)
    yield _run_stream((b.strands for b in parts), varints, varints)
    yield b"".join([_built(b.coverages) for b in parts])
    yield b"".join([_built(b.meths) for b in parts])


def encode_block(records: Batches | Iterable[MethRecord]) -> bytes:
    """Encode sorted records into one self-checking binary block.

    `records` is Batches (see tsv_to_batches) or a record sequence, which
    is cut into batches first. Writes the dictionary and header, then
    the six streams one at a time. Errors, first found first:
    UnsortedInput, a chromosome name with no UTF-8 form
    (UnicodeEncodeError), then Overflow for the first value out of
    varint range in stream order.
    """
    batches = records if isinstance(records, Batches) else Batches.of_records(records)
    ids: dict[str, int] = {}
    for batch in batches.batches:
        for name in batch.names:
            if name not in ids:
                ids[name] = len(ids)

    block = bytearray(MAGIC)
    block.append(VERSION)
    _write_uvarint(block, len(ids))
    for name in ids:
        encoded = name.encode("utf-8")
        _write_uvarint(block, len(encoded))
        block += encoded
    _write_uvarint(block, batches.count)

    for data in _streams(batches, ids):
        _write_uvarint(block, len(data))
        block += data
    block += zlib.crc32(block).to_bytes(4, "big")
    return bytes(block)


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
