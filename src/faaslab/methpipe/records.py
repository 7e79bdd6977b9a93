"""Methylation record model and tab-separated text forms.

Two line layouts are accepted:

* the internal 6-column form ``chrom, start, end, strand, coverage, meth_pct``
  (strand in column 4), which is what every object written by the pipeline
  contains, and
* BED-style lines of 6 to 11 columns with strand in column 6 and, when
  present, coverage in column 10 and methylation percent in column 11
  (the bedMethyl layout), supported read-only for ingesting real files.

A line whose column 4 is ``+`` or ``-`` is taken as the internal form;
anything else is parsed BED-style.

A payload is parsed in chunks, and every chunk parses to one form, a
batch-parsed ``_Chunk`` (see ``_parsed_chunks``): a chunk of internal lines
as it is; any other chunk line by line with ``parse_meth_record``, then
its records' canonical lines, the bytes ``record_lines`` writes. A batch
chunk converts and checks each distinct coverage and meth_pct text once.
Three readers take that form:

* ``tsv_to_records`` returns plain 6-tuples in ``MethRecord`` field order
  ``(chrom, start, end, strand, coverage, meth_pct)``, which compare and
  sort exactly like ``MethRecord``; ``parse_meth_record`` returns a
  ``MethRecord``;
* ``tsv_to_lines`` returns each record's chromosome, start and canonical
  line. The sort stage keeps only the line and the start, packed into
  8 bytes;
* ``codec.tsv_to_batches`` adds each chunk to the encoder's batches,
  without building records, and writes coverage and meth_pct from their
  texts.

Every parser checks one record domain, all of which MCP1 can encode:
``0 <= start < end < END_LIMIT`` (2**63), ``0 <= coverage < COVERAGE_LIMIT``
(2**64) and ``0 <= meth_pct <= METH_PCT_MAX``. A value outside it is a
ParseError naming its column.

Sort order is (chrom, start, end, strand), compared field by field.
Chromosome names compare in raw byte order, so "chr10" sorts before "chr2";
the pipeline only needs a total order, not the genomics natural order.
"""

from __future__ import annotations

import operator
import re
import sys
from itertools import islice
from typing import Iterable, Iterator, NamedTuple

from faaslab.errors import ParseError

_STRANDS = ("+", "-")

# The record domain (see the module docstring).
END_LIMIT = 1 << 63
COVERAGE_LIMIT = 1 << 64
METH_PCT_MAX = 100


class MethRecord(NamedTuple):
    chrom: str
    start: int
    end: int
    strand: str
    coverage: int
    meth_pct: int


# Key for sorting records: equal keys compare equal regardless of
# coverage or methylation percent.
SORT_KEY = operator.itemgetter(0, 1, 2, 3)


def _int_field(text: str, column: int, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ParseError(column, f"{name} is not an integer: {text!r}") from None


def _pct_field(text: str, column: int) -> int:
    try:
        value = int(text)
    except ValueError:
        try:
            value = round(float(text))
        except (ValueError, OverflowError):  # OverflowError: inf and 1e400
            raise ParseError(column, f"meth_pct is not numeric: {text!r}") from None
    if not 0 <= value <= METH_PCT_MAX:
        raise ParseError(column, f"meth_pct out of [0, {METH_PCT_MAX}]: {text!r}")
    return value


def parse_meth_record(line: str) -> MethRecord | None:
    """Parse one text line into a MethRecord.

    Returns None for skippable lines (blank, whitespace-only, or starting
    with '#'). Raises ParseError with the offending 1-based column index
    otherwise.
    """
    if not line or line.isspace() or line.startswith("#"):
        return None
    cols = line.rstrip("\n").split("\t")
    if len(cols) < 6:
        raise ParseError(len(cols), f"expected at least 6 tab-separated columns, got {len(cols)}")

    internal = len(cols) == 6 and cols[3] in _STRANDS
    if internal:
        strand = cols[3]
        coverage = _int_field(cols[4], 5, "coverage")
        meth_pct = _pct_field(cols[5], 6)
    else:
        strand = cols[5]
        if strand not in _STRANDS:
            raise ParseError(6, f"strand must be '+' or '-', got {strand!r}")
        coverage = _int_field(cols[9], 10, "coverage") if len(cols) >= 10 else 0
        meth_pct = _pct_field(cols[10], 11) if len(cols) >= 11 else 0

    chrom = cols[0]
    if not chrom:
        raise ParseError(1, "empty chromosome name")
    start = _int_field(cols[1], 2, "start")
    end = _int_field(cols[2], 3, "end")
    if start < 0:
        raise ParseError(2, f"start is negative: {start}")
    if end <= start:
        raise ParseError(3, f"end must exceed start: start={start} end={end}")
    if end >= END_LIMIT:
        raise ParseError(3, f"end is not below 2**63: {end}")
    if not 0 <= coverage < COVERAGE_LIMIT:
        raise ParseError(5 if internal else 10, f"coverage out of [0, 2**64): {coverage}")
    return MethRecord(chrom, start, end, strand, coverage, meth_pct)


def record_lines(records: Iterable[MethRecord]) -> list[bytes]:
    """Serialize records to internal TSV lines, without newlines."""
    chrom_cache: dict[str, bytes] = {}
    lines = []
    append = lines.append
    for chrom, start, end, strand, coverage, meth_pct in records:
        cb = chrom_cache.get(chrom)
        if cb is None:
            cb = chrom_cache[chrom] = chrom.encode("utf-8")
        append(b"%s\t%d\t%d\t%c\t%d\t%d" % (cb, start, end, ord(strand), coverage, meth_pct))
    return lines


# Records per join in records_to_tsv.
SERIALIZE_BATCH = 4096


def records_to_tsv(records: Iterable[MethRecord]) -> bytes:
    """Serialize records to the internal 6-column TSV form.

    Joins SERIALIZE_BATCH lines at a time, so no line list for the whole
    payload is ever alive, and the payload is copied once, by the last join.
    """
    records = iter(records)
    pieces = []
    while lines := record_lines(islice(records, SERIALIZE_BATCH)):
        lines.append(b"")
        pieces.append(b"\n".join(lines))
    return b"".join(pieces)


# Bytes per batch-parse chunk; chunks are cut after a newline.
CHUNK_BYTES = 1 << 16

_STRAND_TEXT = {b"+": "+", b"-": "-"}


def _chunks(payload: bytes) -> Iterator[bytes]:
    """Cut a payload after a newline every CHUNK_BYTES or so; each chunk ends with one."""
    size = len(payload)
    start = 0
    while start < size:
        stop = payload.find(b"\n", start + CHUNK_BYTES - 1) + 1 or size
        chunk = payload[start:stop]
        yield chunk if chunk[-1:] == b"\n" else chunk + b"\n"
        start = stop


class _Chunk(NamedTuple):
    """A batch-parsed chunk: raw text columns and converted numbers."""

    numbers: list[list[bytes]]  # raw start, end, coverage and meth_pct texts
    raw_chroms: list[bytes]  # each chromosome field with a leading newline
    names: dict[bytes, str]  # raw chromosome field -> interned name
    raw_strands: list[bytes]
    starts: list[int]
    ends: list[int]
    coverage_of: dict[bytes, int]  # distinct coverage text -> int; mapped by columns()
    meth_of: dict[bytes, int]  # distinct meth_pct text -> int

    def columns(self) -> tuple:
        """The six record columns, in MethRecord field order."""
        return (
            map(self.names.__getitem__, self.raw_chroms),
            self.starts,
            self.ends,
            map(_STRAND_TEXT.__getitem__, self.raw_strands),
            map(self.coverage_of.__getitem__, self.numbers[2]),
            map(self.meth_of.__getitem__, self.numbers[3]),
        )


def _split_fields(chunk: bytes) -> tuple[list[bytes], list[bytes], set[bytes]] | None:
    """Split a newline-terminated chunk into its lines' fields, six per line.

    Each newline becomes the first byte of the field after it, and the
    first field gets one too. With 6 fields per newline, every line has
    exactly 6 columns when each chromosome field (every sixth) starts with
    one. Returns the fields, the chromosome fields and the distinct
    chromosome fields, or None when the chunk holds a ``\\r``, or a line
    without 6 columns or whose chromosome is empty or starts with '#'.
    """
    if b"\r" in chunk:
        return None
    fields = chunk.replace(b"\n", b"\t\n").split(b"\t")
    if len(fields) != 6 * chunk.count(b"\n") + 1:
        return None
    fields[0] = b"\n" + fields[0]
    raw_chroms = fields[0:-1:6]
    distinct = set(raw_chroms)
    for raw in distinct:
        if raw[:1] != b"\n" or len(raw) < 2 or raw[1:2] == b"#":
            return None
    return fields, raw_chroms, distinct


def _parse_chunk(chunk: bytes) -> _Chunk | None:
    """Batch-parse a newline-terminated chunk of internal 6-column lines.

    Returns None when any line is not a valid internal line, in which
    case _parsed_chunks parses the chunk line by line.
    """
    split = _split_fields(chunk)
    if split is None:
        return None
    fields, raw_chroms, distinct = split
    try:
        # interned, so records share one object per name and sort
        # comparisons of equal names take the identity fast path
        names = {raw: sys.intern(raw[1:].decode("utf-8")) for raw in distinct}
    except UnicodeDecodeError:
        return None
    raw_strands = fields[3::6]
    if not set(raw_strands) <= _STRAND_TEXT.keys():
        return None
    numbers = [fields[1::6], fields[2::6], fields[4::6], fields[5::6]]
    try:
        starts, ends = [list(map(int, column)) for column in numbers[:2]]
        # Coverage and meth_pct repeat few values per chunk: convert and
        # check each distinct one once, and let records share the ints.
        coverage_of, meth_of = [{raw: int(raw) for raw in set(column)} for column in numbers[2:]]
    except ValueError:
        return None
    if (
        min(starts) < 0
        or max(ends) >= END_LIMIT
        or min(coverage_of.values()) < 0 or max(coverage_of.values()) >= COVERAGE_LIMIT
        or min(meth_of.values()) < 0 or max(meth_of.values()) > METH_PCT_MAX
        or any(map(operator.le, ends, starts))
    ):
        return None
    return _Chunk(numbers, raw_chroms, names, raw_strands, starts, ends, coverage_of, meth_of)


def _parse_lines(chunk: bytes) -> list[MethRecord]:
    """Parse a chunk line by line with parse_meth_record."""
    out = []
    for raw in chunk.splitlines():
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            column = raw.count(b"\t", 0, exc.start) + 1
            raise ParseError(column, f"not valid UTF-8 at byte {exc.start} of the line") from None
        record = parse_meth_record(line)
        if record is not None:
            out.append(record)
    return out


def _parsed_chunks(payload: bytes) -> Iterator[tuple[bytes, _Chunk]]:
    """Each parse chunk that holds a record, as a text and its batch parse.

    The payload is cut into newline-aligned chunks of about CHUNK_BYTES.
    A chunk made only of valid internal 6-column lines is batch-parsed as
    it is. Any other chunk (BED-style or comment lines, blank lines, ``\\r``
    line ends, or any line parse_meth_record rejects) is parsed line by
    line with parse_meth_record, so its records, and the ParseError on bad
    input, are those of parsing each line on its own; non-UTF-8 bytes
    raise ParseError naming their column. Its records' canonical text,
    which records_to_tsv writes, is then batch-parsed: the batch parser
    accepts every record in the domain.
    """
    for chunk in _chunks(payload):
        parsed = _parse_chunk(chunk)
        if parsed is None:
            records = _parse_lines(chunk)
            if not records:
                continue
            chunk = records_to_tsv(records)
            parsed = _parse_chunk(chunk)
        yield chunk, parsed


def tsv_to_records(payload: bytes) -> list[tuple]:
    """Parse a TSV payload (see _parsed_chunks) into plain 6-tuples in
    MethRecord field order."""
    out: list[tuple] = []
    for _, parsed in _parsed_chunks(payload):
        out.extend(zip(*parsed.columns()))
    return out


# A number written with a leading zero; int() accepts it, record_lines
# would not write it.
_LEADING_ZERO = re.compile(rb"\t0[0-9]")


def _is_canonical(chunk: bytes, parsed: _Chunk) -> bool:
    """Whether a batch-parsed chunk's lines are the ones record_lines writes.

    Chrom and strand bytes always are. A number is when it is plain ASCII
    digits without a leading zero; int() also accepts "+7", " 7", "7_0"
    and "007". Coverage and meth_pct are checked once per distinct text.
    """
    texts = (*parsed.numbers[:2], parsed.coverage_of, parsed.meth_of)
    return all(b"".join(column).isdigit() for column in texts) and _LEADING_ZERO.search(chunk) is None


def tsv_to_lines(payload: bytes) -> list[tuple[list[str], list[int], list[bytes]]]:
    """Per parse chunk that holds records, their chromosomes, starts and canonical lines.

    The records, and the ParseError on bad input, are those tsv_to_records
    parses. A batch chunk whose lines are already canonical keeps its own
    line bytes; any other is written with records_to_tsv and parsed again.
    """
    out = []
    for text, parsed in _parsed_chunks(payload):
        if not _is_canonical(text, parsed):
            text = records_to_tsv(zip(*parsed.columns()))
            parsed = _parse_chunk(text)
        lines = text.split(b"\n")
        lines.pop()
        columns = parsed.columns()
        out.append((list(columns[0]), columns[1], lines))
    return out
