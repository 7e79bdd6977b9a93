"""The batch encoder against the per-record MCP1 encoder it replaced.

`oracle_encode_block` is the record-at-a-time encoder, kept here as the
reference: the batch encoder must give the same bytes, and the same
exception type and message, on TSV payloads (through `tsv_to_batches`),
and on record lists written to their payload.
"""

import tracemalloc
import zlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.errors import Overflow, ParseError, UnsortedInput
from faaslab.methpipe import (
    MethRecord,
    encode_block,
    generate_synthetic,
    records_to_tsv,
    tsv_to_batches,
    tsv_to_records,
)
from faaslab.methpipe import codec
from faaslab.methpipe import records as records_module
from faaslab.methpipe.records import CHUNK_BYTES, COVERAGE_LIMIT, END_LIMIT, record_lines
from helpers import encode_records

# --- the per-record encoder ---------------------------------------------------------

_UVARINT_MAX = (1 << 64) - 1


def _write_uvarint(buf, value):
    if value < 0 or value > _UVARINT_MAX:
        raise Overflow(f"value out of varint range: {value}")
    while value >= 0x80:
        buf.append((value & 0x7F) | 0x80)
        value >>= 7
    buf.append(value)


def _write_runs(buf, values):
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


def _zigzag(value):
    return (value << 1) ^ (value >> 63) if value >= 0 else ((-value) << 1) - 1


def oracle_encode_block(records):
    chrom_ids = {}
    chrom_idx, starts, lengths, strands, coverages, meths = [], [], [], [], [], []
    prev_c, prev_s, prev_e, prev_t = "", -1, -1, ""
    for record in records:
        c, s, e, t = record[0], record[1], record[2], record[3]
        if c < prev_c or (
            c == prev_c
            and (s < prev_s or (s == prev_s and (e < prev_e or (e == prev_e and t < prev_t))))
        ):
            raise UnsortedInput(f"record ({c}, {s}, {e}, {t}) sorts before its predecessor")
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

    head = bytearray(codec.MAGIC)
    head.append(codec.VERSION)
    _write_uvarint(head, len(chrom_ids))
    for name in chrom_ids:
        encoded = name.encode("utf-8")
        _write_uvarint(head, len(encoded))
        head += encoded
    _write_uvarint(head, len(starts))

    streams = [bytearray() for _ in range(6)]
    _write_runs(streams[0], chrom_idx)
    prev = 0
    deltas = []
    for s in starts:
        deltas.append(_zigzag(s - prev))
        prev = s
    _write_runs(streams[1], deltas)
    _write_runs(streams[2], lengths)
    _write_runs(streams[3], strands)
    for value in coverages:
        _write_uvarint(streams[4], value)
    for value in meths:
        _write_uvarint(streams[5], value)

    block = head
    for stream in streams:
        _write_uvarint(block, len(stream))
        block += stream
    block += zlib.crc32(block).to_bytes(4, "big")
    return bytes(block)


def outcome(encode, *args):
    """("ok", bytes) or (exception type, message)."""
    try:
        return "ok", encode(*args)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)


def new_path(payload):
    return encode_block(tsv_to_batches(payload))


def oracle_path(payload):
    return oracle_encode_block(tsv_to_records(payload))


# --- strategies ---------------------------------------------------------------------

def _ints(*ranges):
    return st.one_of(*(st.integers(min_value=lo, max_value=hi) for lo, hi in ranges))


@st.composite
def _ordered(draw, in_domain=False):
    """Sorted records, duplicates included, with one swap a third of the time.

    A quarter of the examples hold starts, lengths and coverages at the
    record domain's edges: past them (2**63 and 2**64), or, with
    `in_domain`, at the largest values inside it.
    """
    big = draw(st.integers(0, 3)) == 0
    names = ["chr1", "chr2", "chr10", "chrX", "chré", "染色体2"]
    starts = [(0, 6), (0, 10**6)]  # small starts make (chrom, start) ties
    lengths = [(1, 3)]
    coverages = [(0, 300)]
    meths = [(0, 100)]
    if big and in_domain:
        starts.append((END_LIMIT - 8, END_LIMIT - 4))  # ends up to 2**63 - 1
        coverages.append((COVERAGE_LIMIT - 3, COVERAGE_LIMIT - 1))
    elif big:
        starts += [(2**63 - 3, 2**63 + 3), (2**64 - 3, 2**64 + 3)]
        lengths.append((2**64 - 2, 2**64 + 2))
        coverages.append((2**64 - 2, 2**64 + 2))
    fields = st.tuples(
        st.sampled_from(names), _ints(*starts), _ints(*lengths),
        st.sampled_from("+-"), _ints(*coverages), _ints(*meths),
    )
    records = [
        MethRecord(chrom, start, start + length, strand, coverage, meth)
        for chrom, start, length, strand, coverage, meth in draw(st.lists(fields, max_size=60))
    ]
    records += draw(st.lists(st.sampled_from(records), max_size=5)) if records else []
    records.sort()
    if len(records) > 1 and draw(st.integers(0, 2)) == 0:
        i, j = sorted(draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2)))
        records[i], records[j] = records[j], records[i]
    return records


def _written(n: int, form: str) -> str:
    """n as int() reads it; only "plain" is how record_lines writes it."""
    text = str(n)
    if form == "underscore":
        return text[:1] + "_" + text[1:] if len(text) > 1 else text
    return {"plain": text, "zero": "0" + text, "plus": "+" + text, "space": " " + text}[form]


_form = st.one_of(st.just("plain"), st.sampled_from(["zero", "plus", "space", "underscore"]))


@st.composite
def _line(draw, record):
    """A record's line: internal or BED layout, numbers canonical or not, any line end."""
    chrom, start, end, strand, coverage, meth = record
    numbers = [_written(n, draw(_form)) for n in (start, end, coverage, meth)]
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        cols = [chrom, numbers[0], numbers[1], ".", "0", strand, "0", "0", "0,0,0", numbers[2], numbers[3]]
    else:
        cols = [chrom, *numbers[:2], strand, *numbers[2:]]
    return "\t".join(cols).encode() + draw(st.sampled_from([b"\n", b"\n", b"\n", b"\r\n"]))


@st.composite
def _payload(draw):
    lines = [draw(_line(record)) for record in draw(_ordered())]
    skipped = [b"\n", b"#note\n", b"#chr1\t1\t2\t+\t3\t4\n", b"  \n", b"\r\n"]
    bad = [b"chr1\tx\t5\t+\t1\t2\n", b"chr1\t9\t9\t+\t1\t2\n", b"chr\xff1\t1\t5\t+\t1\t2\n"]
    inserts = draw(st.lists(st.sampled_from(skipped), max_size=3))
    if draw(st.integers(0, 5)) == 0:
        inserts.append(draw(st.sampled_from(bad)))
    for line in inserts:
        lines.insert(draw(st.integers(min_value=0, max_value=len(lines))), line)
    payload = b"".join(lines)
    return payload if draw(st.booleans()) else payload[:-1]


# --- properties ---------------------------------------------------------------------

@settings(deadline=None, max_examples=200)
@given(_payload(), st.sampled_from([1, 40, 200, CHUNK_BYTES]))
def test_payload_encodes_as_oracle(payload, chunk_bytes):
    with mock.patch.object(records_module, "CHUNK_BYTES", chunk_bytes):
        expected = outcome(oracle_path, payload)
        assert outcome(new_path, payload) == expected
        if expected[0] == "ok":
            assert len(tsv_to_batches(payload)) == len(tsv_to_records(payload))
        if expected[0] is not ParseError:
            # each chunk that holds records batch-parses, BED rows, comments,
            # \r\n and non-canonical numbers after the re-parse of its records
            assert all(parsed is not None for _, parsed in records_module._parsed_chunks(payload))


@settings(deadline=None, max_examples=200)
@given(_ordered(in_domain=True))
def test_record_list_encodes_as_oracle(records):
    assert outcome(encode_records, records) == outcome(oracle_encode_block, records)


def test_empty_input_encodes_as_oracle():
    assert new_path(b"") == oracle_path(b"") == encode_records([]) == oracle_encode_block([])
    assert len(tsv_to_batches(b"#only a comment\n\n")) == 0


def _lines(*rows):
    return b"".join(b"chr1\t%d\t%d\t+\t%d\t%d\n" % row for row in rows)


def test_coverage_and_meth_texts_encode_as_oracle():
    # 1-, 2- and 3-byte varints, each text more than once, in one chunk
    coverages, meths = [5, 300, 20000, 300, 5, 20000, 5], [0, 100, 100, 0, 0, 100, 0]
    payload = _lines(*((start, start + 1, c, m) for start, (c, m) in enumerate(zip(coverages, meths))))
    assert len(list(records_module._chunks(payload))) == 1
    assert new_path(payload) == oracle_path(payload)


def test_coverage_past_varint_range_is_a_parse_error():
    # a TSV payload cannot reach Overflow: its parse rejects a coverage
    # past varint range, on the encoder's path and the oracle's alike
    big = 2**64
    payload = _lines((1, 2, big + 1, 5), (2, 3, big, 5), (3, 4, big + 1, 5), (4, 5, big, 5))
    expected = outcome(oracle_path, payload)
    assert expected == (ParseError, f"column 5: coverage out of [0, 2**64): {big + 1}")
    assert outcome(new_path, payload) == expected


def test_error_precedence():
    # a parse error anywhere comes before an out-of-order record
    unsorted = b"chr2\t5\t6\t+\t1\t2\nchr1\t5\t6\t+\t1\t2\n"
    tail = b"chr1\t1\t2\t+\t3\t4\n" * 5000 + b"chr1\tx\t5\t+\t1\t2\n"
    for payload in (unsorted + tail, unsorted):
        assert outcome(new_path, payload) == outcome(oracle_path, payload)
    assert outcome(new_path, unsorted + tail)[0] is ParseError
    assert outcome(new_path, unsorted)[0] is UnsortedInput


def test_runs_cross_chunk_edges_at_real_chunk_size():
    # one and three chromosomes, so runs span many 64 KiB chunks
    for chroms in (1, 3):
        payload = records_to_tsv(generate_synthetic(20_000, seed=31, chroms=chroms))
        batches = tsv_to_batches(payload)
        assert len(list(records_module._chunks(payload))) > 4
        assert len(batches) == 20_000
        assert encode_block(batches) == oracle_path(payload)
    # one swap across a chunk edge, one inside a chunk
    records = generate_synthetic(20_000, seed=32)
    payload = records_to_tsv(records)
    edge = payload[: payload.index(b"\n", CHUNK_BYTES - 1)].count(b"\n") + 1  # second chunk's first
    for i in (edge, 10_000):
        swapped = list(records)
        swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
        payload = records_to_tsv(swapped)
        assert outcome(new_path, payload) == outcome(oracle_path, payload)
        assert outcome(new_path, payload)[0] is UnsortedInput


def test_encoding_leaves_batches_as_they_were():
    # runs cross chunk edges, and each run stream ends on an open run
    payload = records_to_tsv(generate_synthetic(5_000, seed=33, chroms=1))
    with mock.patch.object(records_module, "CHUNK_BYTES", 4096):
        batches = tsv_to_batches(payload)
    first = encode_block(batches)
    assert encode_block(batches) == first == oracle_path(payload)


def _peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    del result
    return peak


def test_encode_path_peak_is_at_most_the_oracle_paths():
    payload = records_to_tsv(generate_synthetic(20_000, seed=33))
    new = _peak(new_path, payload)
    assert new <= _peak(oracle_path, payload)


def test_records_to_tsv_takes_any_iterable():
    records = generate_synthetic(12_293, seed=34)
    for n in (0, 1, 4095, 4096, 4097, 12_293):
        expected = b"".join(line + b"\n" for line in record_lines(records[:n]))
        assert records_to_tsv(records[:n]) == expected
        assert records_to_tsv(iter(records[:n])) == expected
        assert records_to_tsv(r for r in records[:n]) == expected


def test_chromosome_order_is_checked_as_oracle():
    line = b"%s\t%d\t%d\t+\t1\t2\n"
    # one chunk: each chromosome run is in order, the runs are not
    one_chunk = b"".join(line % row for row in ((b"chr1", 5, 6), (b"chr2", 1, 2), (b"chr1", 9, 10)))
    # two chunks of two lines, each in order; the second chunk's first
    # chromosome sorts before the first chunk's last
    rows = ((b"chr1", 1, 2), (b"chr3", 1, 2), (b"chr2", 1, 2), (b"chr4", 1, 2))
    across_chunks = b"".join(line % row for row in rows)
    two_lines = len(line % rows[0]) + 1
    cases = (
        (one_chunk, CHUNK_BYTES, [3], "chr1, 9, 10"),
        (across_chunks, two_lines, [2, 2], "chr2, 1, 2"),
    )
    for payload, chunk_bytes, lines_per_chunk, record in cases:
        with mock.patch.object(records_module, "CHUNK_BYTES", chunk_bytes):
            assert [c.count(b"\n") for c in records_module._chunks(payload)] == lines_per_chunk
            expected = (UnsortedInput, f"record ({record}, +) sorts before its predecessor")
            assert outcome(oracle_path, payload) == expected
            assert outcome(new_path, payload) == expected
