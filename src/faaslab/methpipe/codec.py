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

The encoder takes one input, `Batches`, which `tsv_to_batches` builds
from a TSV payload: each parse chunk (`records._Chunk`, the one form
every chunk parses to) is checked for order and appended at once to six
stream writers, without record tuples; a run stream's last run stays
open, since the next chunk may go on with it. Coverage and meth_pct are
written from their texts, each distinct text encoded once.
"""

from __future__ import annotations

import gzip
import zlib
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice
from operator import ne, not_, sub

from faaslab.errors import (
    BadMagic,
    ChecksumMismatch,
    Overflow,
    Truncated,
    UnsortedInput,
)
from faaslab.methpipe.records import (
    COVERAGE_LIMIT,
    END_LIMIT,
    METH_PCT_MAX,
    MethRecord,
    _Chunk,
    _parsed_chunks,
)

MAGIC = b"MCP1"
VERSION = 1

# 64 bits: each coverage, length and zigzag start delta of the record domain
_UVARINT_MAX = COVERAGE_LIMIT - 1


def _write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0 or value > _UVARINT_MAX:
        raise Overflow(f"value out of varint range: {value}")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _zigzag(value: int) -> int:
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


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


def _pairs(values: list, sizes: list, value_bytes: _Varints, size_bytes: _Varints) -> bytes:
    """(value, size) runs as varint pairs."""
    pairs = [None] * (2 * len(values))
    pairs[::2] = map(value_bytes.__getitem__, values)
    pairs[1::2] = map(size_bytes.__getitem__, sizes)
    return b"".join(pairs)


class _Stream:
    """One stream's bytes so far, with its open run.

    A run stream's last run stays open as (value, size), since the next
    chunk may go on with it.
    """

    __slots__ = ("data", "value", "size", "value_bytes", "size_bytes")

    def __init__(self, value_bytes: _Varints, size_bytes: _Varints) -> None:
        self.data = bytearray()
        self.value = None
        self.size = 0  # no open run
        self.value_bytes = value_bytes
        self.size_bytes = size_bytes

    def runs(self, values: list, sizes: list) -> None:
        """Append one chunk's (values, sizes) runs, taking the lists over."""
        if self.size:
            if values[0] == self.value:
                sizes[0] += self.size
            else:
                values.insert(0, self.value)
                sizes.insert(0, self.size)
        self.value, self.size = values.pop(), sizes.pop()
        self.data += _pairs(values, sizes, self.value_bytes, self.size_bytes)

    def varints(self, texts: list[bytes], value_of: dict[bytes, int]) -> None:
        """Append one chunk's values as plain varints, from their texts and
        a {text: value} map, each distinct text encoded once."""
        encode = self.value_bytes.__getitem__
        encoded = {text: encode(value) for text, value in value_of.items()}
        self.data += b"".join(map(encoded.__getitem__, texts))

    def open_run(self) -> bytes:
        """The open run's bytes."""
        return self.value_bytes[self.value] + self.size_bytes[self.size] if self.size else b""


_STRAND_BITS = bytes.maketrans(b"+-", b"\x00\x01")


class Batches:
    """Sorted records, order-checked and written to the six streams as they come.

    `add` takes one parsed chunk and writes it at once: run-length and
    varint bytes, with no record tuples. Start deltas are taken from the
    previous record, across chunk edges. `ids` is the chromosome
    dictionary in first-seen order. len() is the record count.
    """

    __slots__ = ("ids", "count", "streams", "_last", "_start")

    def __init__(self) -> None:
        self.ids: dict[str, int] = {}
        self.count = 0
        varints, zigzags = _Varints(), _ZigzagVarints()
        # chromosome, start-delta, length, strand, coverage, meth_pct
        self.streams = tuple(
            _Stream(values, varints)
            for values in (varints, zigzags, varints, varints, varints, varints)
        )
        # the first record's predecessor in the order check, and start[-1]
        self._last: tuple = ("", -1, -1, "")
        self._start = 0

    def __len__(self) -> int:
        return self.count

    def add(self, parsed: _Chunk) -> None:
        """Append one parsed chunk's records.

        The order check and the chromosome and strand runs work on the
        raw fields, which sort as the names and strands do. Raises
        UnsortedInput naming the first record that sorts before its
        predecessor by (chrom, start, end, strand).
        """
        chroms, starts, ends = parsed.raw_chroms, parsed.starts, parsed.ends
        name = parsed.names.__getitem__
        strand_bytes = b"".join(parsed.raw_strands)
        strands = strand_bytes.decode()
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
        self.count += len(starts)
        ids = self.ids
        chrom, delta, length, strand, coverage, meth = self.streams
        chrom.runs([ids.setdefault(name(key), len(ids)) for key in runs[0]], runs[1])
        delta.runs(*_runs(deltas))
        length.runs(*_runs(list(map(sub, ends, starts))))
        strand.runs(*_runs(strand_bytes.translate(_STRAND_BITS)))
        coverage.varints(parsed.numbers[2], parsed.coverage_of)
        meth.varints(parsed.numbers[3], parsed.meth_of)


def tsv_to_batches(payload: bytes) -> Batches:
    """Parse a sorted TSV payload straight into the encoder's Batches.

    Each parse chunk (see records._parsed_chunks) is added as it parses; the
    records, and the ParseError on bad input, are those of
    records.tsv_to_records. A record out of order raises UnsortedInput,
    but only after the whole payload has parsed, so a parse error
    anywhere in the payload comes first.
    """
    batches = Batches()
    unsorted = None
    for _, parsed in _parsed_chunks(payload):
        if unsorted is None:
            try:
                batches.add(parsed)
            except UnsortedInput as exc:
                unsorted = exc
    if unsorted is not None:
        raise unsorted
    return batches


def encode_block(batches: Batches) -> bytes:
    """Encode sorted records, added to Batches (see tsv_to_batches), into
    one self-checking binary block.

    Writes the header and dictionary, then each stream's bytes and open
    run; the Batches is left as it was.
    """
    block = bytearray(MAGIC)
    block.append(VERSION)
    _write_uvarint(block, len(batches.ids))
    for name in batches.ids:
        encoded = name.encode("utf-8")
        _write_uvarint(block, len(encoded))
        block += encoded
    _write_uvarint(block, batches.count)

    for stream in batches.streams:
        tail = stream.open_run()
        _write_uvarint(block, len(stream.data) + len(tail))
        block += stream.data
        block += tail
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
        if result > _UVARINT_MAX:
            raise Truncated("varint exceeds 64 bits")
        self.pos = pos
        return result

    def uvarints(self, count: int) -> list[int]:
        return [self.uvarint() for _ in range(count)]

    def runs(self, total: int, low: int, top: int) -> list[int]:
        """`total` values from (value, run length) pairs, each in [low, top]."""
        out: list[int] = []
        while len(out) < total:
            value = self.uvarint()
            run = self.uvarint()
            if run == 0 or len(out) + run > total:
                raise Truncated("run-length stream inconsistent with record count")
            if not low <= value <= top:
                raise Truncated(f"run value {value} is outside [{low}, {top}]")
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
        name = body[reader.pos : reader.pos + length]
        # the names the parser accepts: non-empty, no field or line break, not a comment
        if not name or name[:1] == b"#" or b"\t" in name or b"\n" in name or b"\r" in name:
            raise Truncated(f"chromosome dictionary entry {len(chroms)} is not a parsable name")
        try:
            chroms.append(name.decode("utf-8"))
        except UnicodeDecodeError:
            raise Truncated(f"chromosome dictionary entry {len(chroms)} is not UTF-8") from None
        reader.pos += length
    count = reader.uvarint()
    if count > reader.end - reader.pos:  # each record takes a byte in streams 4 and 5
        raise Truncated(f"record count {count} exceeds the bytes left in the block")

    # the run values of streams 0 to 3: a dictionary index, any start
    # delta, a length of at least 1, a strand bit
    bounds = ((0, chrom_count - 1), (0, _UVARINT_MAX), (1, _UVARINT_MAX), (0, 1))
    columns: list[list[int]] = []
    for i in range(6):
        length = reader.uvarint()
        if reader.pos + length > reader.end:
            raise Truncated(f"stream {i} runs past end of block")
        sub = _Reader(body, reader.pos, reader.pos + length)
        if i < 4:
            columns.append(sub.runs(count, *bounds[i]))
        else:
            columns.append(sub.uvarints(count))
        if not sub.exhausted():
            raise Truncated(f"stream {i} has trailing bytes")
        reader.pos = sub.end
    if not reader.exhausted():
        raise Truncated("block has trailing bytes after streams")

    chrom_idx, delta_zz, lengths, strands, coverages, meths = columns
    top_meth = max(meths, default=0)
    if top_meth > METH_PCT_MAX:
        raise Truncated(f"meth_pct {top_meth} is above {METH_PCT_MAX}")
    records: list[MethRecord] = []
    append = records.append
    # _make takes the tuple MethRecord's own __new__ would build, without its Python frame
    make = MethRecord._make
    signs = ("+", "-")
    pos = 0
    for i, chrom, delta, length, strand, coverage, meth in zip(
        range(count), chrom_idx, delta_zz, lengths, strands, coverages, meths
    ):
        pos += -((delta + 1) >> 1) if delta & 1 else delta >> 1  # zigzag decode
        end = pos + length
        if pos < 0 or end >= END_LIMIT:
            raise Truncated(f"record {i} spans [{pos}, {end}), outside [0, 2**63)")
        append(make((chroms[chrom], pos, end, signs[strand], coverage, meth)))
    return records


def baseline_compressed_size(data: bytes) -> int:
    """Size of `data` under gzip at level 9, compressed in process."""
    return len(gzip.compress(data, compresslevel=9))
