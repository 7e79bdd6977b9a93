"""Record parsing, synthetic generation, and codec tests."""

import gzip
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.errors import (
    BadMagic,
    ChecksumMismatch,
    Overflow,
    ParseError,
    Truncated,
    UnsortedInput,
)
from faaslab.methpipe import (
    MethRecord,
    baseline_compressed_size,
    decode_block,
    encode_block,
    generate_synthetic,
    parse_meth_record,
    records_to_tsv,
    rows_to_tsv,
    split_into_objects,
    tsv_to_records,
    tsv_to_rows,
)
from faaslab.methpipe import records as records_module
from faaslab.methpipe.codec import MAGIC
from faaslab.methpipe.records import CHUNK_BYTES, record_lines


# --- parsing ---------------------------------------------------------------

def test_parse_full_bedmethyl_line():
    line = "chr1\t100\t101\t.\t0\t+\t100\t101\t0,0,0\t25\t80"
    assert parse_meth_record(line) == MethRecord("chr1", 100, 101, "+", 25, 80)

def test_parse_end_not_after_start_is_error():
    with pytest.raises(ParseError) as err:
        parse_meth_record("chr1\t5\t5\t.\t0\t+")
    assert err.value.column == 3

def test_parse_comment_and_blank_lines_skip():
    assert parse_meth_record("#comment") is None
    assert parse_meth_record("   ") is None
    assert parse_meth_record("") is None

def test_parse_internal_six_column_layout():
    assert parse_meth_record("chr2\t10\t11\t-\t7\t93") == MethRecord("chr2", 10, 11, "-", 7, 93)

def test_parse_bed_six_column_defaults_coverage_and_meth():
    record = parse_meth_record("chr2\t10\t11\tname\t0\t-")
    assert record == MethRecord("chr2", 10, 11, "-", 0, 0)

@pytest.mark.parametrize(
    "line,column",
    [
        ("chr1\t100", 2),                                  # too few columns
        ("chr1\tx\t101\t+\t1\t2", 2),                      # bad start
        ("chr1\t100\ty\t+\t1\t2", 3),                      # bad end
        ("chr1\t100\t101\t.\t0\t*", 6),                    # bad strand, BED layout
        ("chr1\t100\t101\t+\t1\t200", 6),                  # meth_pct out of range
        ("\t100\t101\t+\t1\t2", 1),                        # empty chrom
    ],
)
def test_parse_errors_carry_column(line, column):
    with pytest.raises(ParseError) as err:
        parse_meth_record(line)
    assert err.value.column == column

def test_parse_rounds_float_percent():
    record = parse_meth_record("chr1\t1\t2\t.\t0\t+\t1\t2\t0,0,0\t12\t79.6")
    assert record.meth_pct == 80

def test_tsv_round_trip_mixed_layouts():
    internal = b"chr1\t5\t6\t+\t3\t50\n"
    bed = b"chr1\t7\t8\tsite\t0\t-\t7\t8\t0,0,0\t9\t10\n"
    records = tsv_to_records(internal + b"#note\n" + bed)
    assert records == [
        MethRecord("chr1", 5, 6, "+", 3, 50),
        MethRecord("chr1", 7, 8, "-", 9, 10),
    ]
    assert tsv_to_records(records_to_tsv(records)) == records


# --- synthetic generation ----------------------------------------------------

def test_generate_empty():
    assert generate_synthetic(0, seed=1) == []

def test_generate_deterministic():
    a = generate_synthetic(5000, seed=42)
    b = generate_synthetic(5000, seed=42)
    assert records_to_tsv(a) == records_to_tsv(b)
    assert generate_synthetic(5000, seed=43) != a

def test_generate_sorted_unless_shuffled():
    records = generate_synthetic(3000, seed=9, chroms=3)
    assert records == sorted(records)
    shuffled = generate_synthetic(3000, seed=9, chroms=3, shuffled=True)
    assert sorted(shuffled) == records

def test_generate_field_ranges():
    for r in generate_synthetic(2000, seed=5):
        assert r.end > r.start >= 0
        assert 0 <= r.meth_pct <= 100
        assert r.coverage >= 0
        assert r.strand in "+-"

def test_split_into_objects_balanced():
    records = generate_synthetic(20_000, seed=2, shuffled=True)
    payloads = split_into_objects(records, 8)
    assert len(payloads) == 8
    longest_line = max(len(l) + 1 for p in payloads for l in p.splitlines())
    sizes = [len(p) for p in payloads]
    assert max(sizes) - min(sizes) <= longest_line
    merged = []
    for p in payloads:
        merged.extend(tsv_to_records(p))
    assert sorted(merged) == sorted(records)

def test_split_single_record_many_objects():
    payloads = split_into_objects(generate_synthetic(1, seed=0), 3)
    assert sum(1 for p in payloads if p) == 1
    assert sum(1 for p in payloads if not p) == 2

def _split_least_loaded_scan(records, k):
    """split_into_objects by scanning every bucket for the least-loaded one."""
    buckets = [[] for _ in range(k)]
    sizes = [0] * k
    for line in record_lines(records):
        i = sizes.index(min(sizes))
        buckets[i].append(line)
        sizes[i] += len(line) + 1
    return [b"\n".join(bucket) + b"\n" if bucket else b"" for bucket in buckets]

def test_split_into_objects_matches_least_loaded_scan():
    rng = random.Random(13)
    for _ in range(200):
        # few distinct line lengths, so equal bucket sizes tie often
        records = [
            MethRecord("chr1", start, start + 1, "+", rng.choice((1, 10)), rng.choice((0, 50)))
            for start in (rng.choice((10, 100)) for _ in range(rng.randrange(40)))
        ]
        k = rng.randrange(1, 50)  # k > n included
        assert split_into_objects(records, k) == _split_least_loaded_scan(records, k)
    records = generate_synthetic(5000, seed=3, shuffled=True)
    assert split_into_objects(records, 7) == _split_least_loaded_scan(records, 7)


# --- codec -------------------------------------------------------------------

def test_encode_empty_block():
    block = encode_block([])
    assert block.startswith(MAGIC)
    assert decode_block(block) == []

def test_encode_single_record():
    records = [MethRecord("chr1", 100, 101, "+", 25, 80)]
    assert decode_block(encode_block(records)) == records

def test_encode_10k_round_trip_and_smaller_than_text():
    records = generate_synthetic(10_000, seed=7)
    block = encode_block(records)
    assert decode_block(block) == records
    assert len(block) < len(records_to_tsv(records))

def test_encode_rejects_unsorted():
    records = [
        MethRecord("chr1", 10, 11, "+", 1, 1),
        MethRecord("chr1", 5, 6, "+", 1, 1),
    ]
    with pytest.raises(UnsortedInput):
        encode_block(records)

def test_equal_keys_different_payloads_are_sorted_input():
    records = [
        MethRecord("chr1", 10, 11, "+", 9, 90),
        MethRecord("chr1", 10, 11, "+", 1, 10),
    ]
    assert decode_block(encode_block(records)) == records

def test_encode_rejects_negative_field():
    with pytest.raises(Overflow):
        encode_block([MethRecord("chr1", 5, 6, "+", -1, 0)])

def test_decode_bad_magic():
    with pytest.raises(BadMagic):
        decode_block(b"NOPE" + b"\x00" * 16)

def test_decode_corrupt_byte():
    block = bytearray(encode_block(generate_synthetic(200, seed=3)))
    block[len(block) // 2] ^= 0x40
    with pytest.raises(ChecksumMismatch):
        decode_block(bytes(block))

def test_decode_truncated():
    block = encode_block(generate_synthetic(200, seed=3))
    # keep the checksum consistent with a shortened body
    import zlib
    body = block[: len(block) // 2]
    with pytest.raises(Truncated):
        decode_block(body + zlib.crc32(body).to_bytes(4, "big"))

_records_strategy = st.lists(
    st.builds(
        MethRecord,
        chrom=st.sampled_from(["chr1", "chr2", "chr10", "chrX"]),
        start=st.integers(min_value=0, max_value=2**40),
        end=st.integers(min_value=1, max_value=10**6),
        strand=st.sampled_from(["+", "-"]),
        coverage=st.integers(min_value=0, max_value=10**6),
        meth_pct=st.integers(min_value=0, max_value=100),
    ).map(lambda r: r._replace(end=r.start + max(1, r.end % 1000))),
    max_size=120,
)

@settings(deadline=None)
@given(_records_strategy)
def test_codec_round_trip_property(records):
    records = sorted(records)
    assert decode_block(encode_block(records)) == records

@settings(deadline=None)
@given(_records_strategy)
def test_decode_output_is_sorted(records):
    decoded = decode_block(encode_block(sorted(records)))
    assert all(
        a[:4] <= b[:4] for a, b in zip(decoded, decoded[1:])
    )

def test_encode_deterministic():
    records = generate_synthetic(5000, seed=13)
    assert encode_block(records) == encode_block(records)


# --- compression baseline -----------------------------------------------------

def test_baseline_external_matches_inprocess_scale():
    data = records_to_tsv(generate_synthetic(2000, seed=1))
    external = baseline_compressed_size(data)
    inprocess = len(gzip.compress(data, compresslevel=9))
    assert abs(external - inprocess) <= 0.05 * inprocess

def test_baseline_falls_back_without_binary():
    data = b"x" * 10_000
    assert baseline_compressed_size(data, command=("definitely-not-a-compressor",)) == len(
        gzip.compress(data, compresslevel=9)
    )


# --- batch parser parity ------------------------------------------------------

@pytest.mark.parametrize(
    "line,column",
    [
        (b"chr1\t-5\t3\t+\t1\t200", 6),                    # negative start, meth_pct > 100
        (b"chr1\t-5\t3\t+\t1\t20", 2),                     # negative start
        (b"chr1\t10\t5\t+\t1\t50", 3),                     # end <= start
        (b"chr1\t10\t10\t+\t1\t50", 3),                    # end == start
        (b"chr1\t1\t5\t+\t-1\t50", 5),                     # negative coverage
        (b"\t1\t5\t+\t1\t2", 1),                           # empty chrom
        (b"chr1\tx\t5\t+\t1\t2", 2),                       # start not an integer
    ],
)
def test_tsv_rejects_what_line_parser_rejects(line, column):
    with pytest.raises(ParseError) as line_err:
        parse_meth_record(line.decode())
    assert line_err.value.column == column
    good = b"chr1\t1\t2\t+\t3\t4\n"
    for payload in (line + b"\n", line, good * 5000 + line + b"\n" + good):
        with pytest.raises(ParseError) as err:
            tsv_to_records(payload)
        assert err.value.column == column

def test_tsv_non_utf8_is_parse_error():
    with pytest.raises(ParseError) as err:
        tsv_to_records(b"chr\xff1\t1\t5\t+\t1\t2\n")
    assert err.value.column == 1
    with pytest.raises(ParseError) as err:
        tsv_to_records(b"chr1\t1\t5\t+\t1\t2\n" * 5000 + b"chr1\t1\t5\t+\t1\t\xfe2\n")
    assert err.value.column == 6

def test_tsv_skips_comment_with_internal_shape():
    assert tsv_to_records(b"#chr1\t1\t2\t+\t1\t2\nchr1\t1\t2\t-\t1\t2\n") == [
        ("chr1", 1, 2, "-", 1, 2)
    ]

def test_records_to_tsv_writes_utf8_chrom():
    record = MethRecord("chré", 5, 6, "-", 3, 50)
    payload = records_to_tsv([record])
    assert payload == "chré\t5\t6\t-\t3\t50\n".encode()
    assert tsv_to_records(payload) == [record]
    assert decode_block(encode_block([record])) == [record]
    ascii_records = generate_synthetic(500, seed=6)
    assert records_to_tsv(ascii_records).decode("ascii").count("\n") == 500

def test_tsv_returns_plain_tuples():
    records = generate_synthetic(3000, seed=4, shuffled=True)
    parsed = tsv_to_records(records_to_tsv(records))
    assert parsed == records
    assert all(type(r) is tuple for r in parsed)
    bed = tsv_to_records(b"chr1\t7\t8\tsite\t0\t-\t7\t8\t0,0,0\t9\t10\n")
    assert type(bed[0]) is tuple

def _line_oracle(payload: bytes):
    """Parse each line on its own: ("ok", records) or ("error", column)."""
    out = []
    for raw in payload.splitlines():
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError:
            return "error", None
        try:
            record = parse_meth_record(line)
        except ParseError as exc:
            return "error", exc.column
        if record is not None:
            out.append(record)
    return "ok", out

@pytest.mark.parametrize(
    "payload",
    [
        b"chr1\t1\t2\t+\t3\t4\tchrX\n5\t6\t+\t7\t8\n",   # 7 then 5 columns, 12 in all
        b"chr1\t1\t2\t+\n3\t4\n",                         # 4 then 2 columns, 6 in all
        b"chr1\t1\r\t2\t+\t3\t4\n",                       # a lone \r ends a line
        b"chr1\t1\t2\t+\t3\t4\r\nchr1\t1\t2\t-\t3\t4\r\n",
    ],
)
def test_tsv_line_structure_matches_line_oracle(payload):
    expected = _line_oracle(payload)
    try:
        got = "ok", tsv_to_records(payload)
    except ParseError as exc:
        got = "error", exc.column
    assert got == expected

_BASE = records_to_tsv(generate_synthetic(7000, seed=21, shuffled=True))
_BASE_LINES = _BASE.splitlines(keepends=True)
# index of the first line after the first parse chunk
_SECOND_CHUNK_LINE = _BASE[: _BASE.index(b"\n", CHUNK_BYTES - 1)].count(b"\n") + 1

_field_text = st.sampled_from(
    ["chr1", "chr2", "", "#c", "-5", "0", "5", "10", "101", "200", " 7", "1_0", "3.5", "+",
     "-", ".", "x", "\r", "7\r", "c\rhr", "\x0b", "٣", "\xe9"]
)
_hostile_line = st.one_of(
    st.sampled_from(
        [
            b"chr1\t-5\t3\t+\t1\t200",
            b"chr1\t10\t5\t+\t1\t50",
            b"\t1\t5\t+\t1\t2",
            b"chr1\tx\t5\t+\t1\t2",
            b"chr\xff1\t1\t5\t+\t1\t2",
            b"#chr1\t1\t2\t+\t1\t2",
            b"chr1\t1\t2\t+\t3\t4\tchrX\n5\t6\t+\t7\t8",
            b"chr1\t1\r\t2\t+\t3\t4",
            b"chr1\t1\t2\t+\n3\t4",
            b"",
            b"chr1\t1\t2\t+\t3\t4\r",
            b"chr1\t7\t8\tsite\t0\t-\t7\t8\t0,0,0\t9\t10",
        ]
    ),
    st.lists(_field_text, min_size=1, max_size=12).map(lambda f: "\t".join(f).encode()),
    st.binary(max_size=40),
)

@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(min_value=_SECOND_CHUNK_LINE, max_value=len(_BASE_LINES)), _hostile_line),
        max_size=3,
    ),
    st.booleans(),
)
def test_tsv_matches_line_oracle(insertions, trailing_newline):
    lines = list(_BASE_LINES)
    for index, line in sorted(insertions, reverse=True):
        lines.insert(index, line + b"\n")
    payload = b"".join(lines)
    if not trailing_newline:
        payload = payload[:-1]
    assert len(payload) > 2 * CHUNK_BYTES
    expected = _line_oracle(payload)
    try:
        got = "ok", tsv_to_records(payload)
    except ParseError as exc:
        got = "error", exc.column
    if expected[0] == "error" and expected[1] is None:
        assert got[0] == "error"
    else:
        assert got == expected


# --- rows: records with their canonical line ------------------------------------

def _written(n: int, form: str) -> str:
    """n as int() reads it; only "plain" is how record_lines writes it."""
    text = str(n)
    if form == "underscore":
        return text[:1] + "_" + text[1:] if len(text) > 1 else text
    return {"plain": text, "zero": "0" + text, "plus": "+" + text, "space": " " + text}[form]

_number_form = st.one_of(st.just("plain"), st.sampled_from(["zero", "plus", "space", "underscore"]))
_chrom_name = st.sampled_from(["chr1", "chr10", "chrX", "chré", "染色体2"])

@st.composite
def _record_line(draw):
    chrom = draw(_chrom_name)
    start = draw(st.integers(min_value=0, max_value=10**7))
    end = start + draw(st.integers(min_value=1, max_value=5))
    strand = draw(st.sampled_from("+-"))
    cov = draw(st.integers(min_value=0, max_value=1000))
    meth = draw(st.integers(min_value=0, max_value=100))
    forms = draw(st.lists(_number_form, min_size=4, max_size=4))
    numbers = [_written(n, f) for n, f in zip((start, end, cov, meth), forms)]
    if draw(st.integers(min_value=0, max_value=7)) == 0:  # BED-style
        cols = [chrom, numbers[0], numbers[1], ".", "0", strand, "0", "0", "0,0,0", numbers[2], numbers[3]]
    else:
        cols = [chrom, numbers[0], numbers[1], strand, numbers[2], numbers[3]]
    return "\t".join(cols).encode()

_rows_line = st.one_of(
    _record_line(),
    _record_line(),
    _record_line(),
    st.sampled_from([b"", b"#note", b"   ", "#染色体".encode()]),
)

def _outcome(parse, payload):
    try:
        return "ok", parse(payload)
    except ParseError as exc:
        return "error", (exc.column, exc.reason)

@settings(deadline=None, max_examples=150)
@given(
    st.lists(st.tuples(_rows_line, st.sampled_from([b"\n", b"\n", b"\r\n"])), max_size=40),
    st.one_of(st.none(), st.tuples(st.integers(min_value=0, max_value=40), _hostile_line)),
    st.booleans(),
    st.sampled_from([1, 60, 400, CHUNK_BYTES]),
)
def test_rows_match_records_and_serialize_identically(lines, bad, trailing_newline, chunk_bytes):
    body = [line + end for line, end in lines]
    if bad is not None:
        body.insert(bad[0], bad[1] + b"\n")
    payload = b"".join(body)
    if not trailing_newline:
        payload = payload[:-1]
    with mock.patch.object(records_module, "CHUNK_BYTES", chunk_bytes):
        expected = _outcome(tsv_to_records, payload)
        got = _outcome(tsv_to_rows, payload)
    if expected[0] == "error":
        assert got == expected
        return
    assert got[0] == "ok"
    records, rows = expected[1], got[1]
    assert [row[:6] for row in rows] == records
    assert rows_to_tsv(rows) == records_to_tsv(records)
    assert rows_to_tsv(sorted(rows)) == records_to_tsv(sorted(records))
