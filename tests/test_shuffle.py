"""Exchange strategy tests: planning, partition laws, merges, equivalence."""

import bisect
import math
import operator
import random
import tracemalloc
from functools import partial
from itertools import chain, compress, count, islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab import shuffle
from faaslab.blobstore import Blobstore, StoreProfile, VirtualClock
from faaslab.engine import Mode, run_workflow
from faaslab.errors import DomainError, MissingPartition, ParseError
from faaslab.methpipe import (
    MethRecord,
    generate_synthetic,
    records_to_tsv,
    split_into_objects,
    tsv_to_records,
)
from faaslab.methpipe import records as records_module
from faaslab.methpipe.records import CHUNK_BYTES, END_LIMIT, SORT_KEY, record_lines, tsv_to_lines
from faaslab.perfmodel import builtin_profiles
from faaslab.shuffle import (
    ShufflePlan,
    merge_fragments,
    partition_key,
    partition_records,
    plan_partitions,
    read_fragments,
    sample_object,
    sort_lines,
    split_sorted,
    write_fragments,
)
from faaslab.workflow import DataRef, ExchangeStrategy, StageKind, StageSpec, WorkflowSpec

INF = math.inf


def fast_store():
    return Blobstore(StoreProfile(0.0, INF, INF, INF), clock=VirtualClock())


def lines_of(records):
    """The sorted canonical lines of records, as a mapper sorts its input."""
    return sort_lines([("raw/0", records_to_tsv(records))])


def map_side(records, plan, mapper, session, stage):
    """One mapper of the all-to-all exchange: sort, partition, then write w fragments."""
    write_fragments(partition_records(lines_of(records), plan), stage, mapper, session)


def keyed(payloads, reducer=0):
    """Fragment payloads as the (key, payload) pairs read_fragments returns."""
    return [(partition_key("s", mapper, reducer), p) for mapper, p in enumerate(payloads)]


def reduce_side(reducer, w, session, stage):
    """One reducer: read its w fragments and merge them into an output payload."""
    return merge_fragments(read_fragments(reducer, w, session, stage))


def sort_only_run(exchange, records, n_objects, w):
    """run_workflow over a sort-only workflow; returns the store and report."""
    return sort_only_payloads(exchange, split_into_objects(records, n_objects), w)


def sort_only_payloads(exchange, payloads, w):
    """sort_only_run over the given input payloads."""
    store = Blobstore(StoreProfile(0.0, INF, INF, INF), clock=VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i}", payload)
    spec = WorkflowSpec(
        name="sort-only",
        input=DataRef("data", "raw/"),
        exchange=exchange,
        stages=(StageSpec("s", StageKind.SORT_EXCHANGE),),
        profiles=builtin_profiles("desk-v1"),
        parallelism=w,
    )
    report = run_workflow(spec, Mode.EMULATED, store=store)
    return store, report


def sorted_payloads(store, stage="s"):
    keys = sorted(
        (k for k, _ in store.peek_prefix(f"sorted/{stage}/")), key=lambda k: int(k.rsplit("/", 1)[1])
    )
    return [store.get_object(k) for k in keys]


def sorted_outputs(store, stage="s"):
    return [tsv_to_records(payload) for payload in sorted_payloads(store, stage)]


def rec(chrom, start, cov=1, meth=50, strand="+"):
    return MethRecord(chrom, start, start + 1, strand, cov, meth)


# --- planning ----------------------------------------------------------------

def test_plan_quantile_boundaries():
    samples = list(range(1, 101))
    plan = plan_partitions(samples, 4)
    assert list(plan.boundaries) == [25, 50, 75]

def test_plan_single_worker():
    assert plan_partitions([], 1).boundaries == ()

def test_plan_empty_sample_multiworker_rejected():
    with pytest.raises(DomainError):
        plan_partitions([], 3)

def test_plan_identical_samples_leaves_empty_tail():
    plan = plan_partitions([7] * 50, 3)
    assert list(plan.boundaries) == [7]
    assert plan.range_of(7) == 0
    assert plan.range_of(8) == 1

def test_plan_nudges_duplicate_boundaries():
    samples = [1] * 80 + [2] * 10 + [3] * 10
    plan = plan_partitions(samples, 4)
    assert list(plan.boundaries) == [1, 2, 3]

def test_plan_boundaries_strictly_ascending_random():
    rng = random.Random(5)
    for _ in range(50):
        samples = [rng.randrange(10) for _ in range(rng.randrange(1, 200))]
        plan = plan_partitions(samples, rng.randrange(2, 12))
        assert all(a < b for a, b in zip(plan.boundaries, plan.boundaries[1:]))

def test_plan_rejects_descending_boundaries():
    with pytest.raises(DomainError):
        ShufflePlan(3, (5, 4))

def test_closed_upper_boundary_tie_rule():
    plan = ShufflePlan(2, ((("chr1", 10, 11, "+")),))
    assert plan.range_of(("chr1", 10, 11, "+")) == 0
    assert plan.range_of(("chr1", 10, 12, "+")) == 1


# --- partitioning ----------------------------------------------------------------

def test_partition_records_respects_ranges_and_sorts():
    records = [rec("chr1", n) for n in (30, 10, 50, 20, 40)]
    plan = plan_partitions([SORT_KEY(r) for r in records], 2)
    payloads = partition_records(lines_of(records), plan)
    fragments = [tsv_to_records(p) for p in payloads]
    assert len(fragments) == 2
    for fragment, payload in zip(fragments, payloads):
        assert fragment == sorted(fragment)
        assert payload == records_to_tsv(fragment)
    restored = sorted(r for f in fragments for r in f)
    assert restored == sorted(records)
    boundary = plan.boundaries[0]
    assert all(SORT_KEY(r) <= boundary for r in fragments[0])
    assert all(SORT_KEY(r) > boundary for r in fragments[1])

@settings(deadline=None, max_examples=80)
@given(
    st.lists(
        st.builds(
            rec,
            chrom=st.sampled_from(["chr1", "chr2", "chr10"]),
            start=st.integers(min_value=0, max_value=10_000),
            cov=st.integers(min_value=0, max_value=100),
            meth=st.integers(min_value=0, max_value=100),
            strand=st.sampled_from(["+", "-"]),
        ),
        max_size=300,
    ),
    st.integers(min_value=1, max_value=9),
)
def test_partition_permutation_law(records, w):
    if w > 1 and not records:
        return
    plan = plan_partitions([SORT_KEY(r) for r in records], w) if records else ShufflePlan(1, ())
    payloads = partition_records(lines_of(records), plan)
    fragments = [tsv_to_records(p) for p in payloads]
    assert len(fragments) == plan.w
    assert sorted(r for f in fragments for r in f) == sorted(records)
    assert b"".join(payloads) == records_to_tsv(sorted(records))
    for i, fragment in enumerate(fragments):
        for r in fragment:
            assert plan.range_of(SORT_KEY(r)) == i


# --- mapper side against the store ----------------------------------------------------

def test_zero_records_still_writes_w_objects():
    store = fast_store()
    map_side([], ShufflePlan(3, ()), 0, store.session(), "sort")
    assert store.store_metrics().put_count == 3
    assert [k for k, _ in store.list_prefix("part/sort/")] == [
        "part/sort/0-0",
        "part/sort/0-1",
        "part/sort/0-2",
    ]
    assert all(size == 0 for _, size in store.list_prefix("part/sort/"))

def test_map_phase_writes_w_squared_objects():
    w = 4
    store = fast_store()
    records = generate_synthetic(2000, seed=1, shuffled=True)
    plan = plan_partitions([SORT_KEY(r) for r in records], w)
    per_mapper = [records[i::w] for i in range(w)]
    for mapper in range(w):
        map_side(per_mapper[mapper], plan, mapper, store.session(), "sort")
    listed = store.list_prefix("part/")
    assert len(listed) == 16
    assert store.store_metrics().put_count == 16


# --- reducer side -------------------------------------------------------------------------

def test_merge_two_fragments():
    a = records_to_tsv([rec("chr1", 1), rec("chr1", 3)])
    b = records_to_tsv([rec("chr1", 2), rec("chr1", 4)])
    payload = merge_fragments(keyed([a, b]))
    merged = tsv_to_records(payload)
    assert [r[1] for r in merged] == [1, 2, 3, 4]
    assert payload == records_to_tsv([rec("chr1", n) for n in (1, 2, 3, 4)])

def test_merge_single_mapper_copy_through():
    store = fast_store()
    records = [rec("chr1", n) for n in (5, 1, 3)]
    map_side(records, ShufflePlan(1, ()), 0, store.session(), "s")
    payload = reduce_side(0, 1, store.session(), "s")
    out = tsv_to_records(payload)
    assert len(out) == 3
    assert out == sorted(records)
    assert payload == records_to_tsv(sorted(records))

def test_merge_missing_partition_names_object():
    store = fast_store()
    with pytest.raises(MissingPartition) as err:
        read_fragments(2, 4, store.session(), "sort")
    assert partition_key("sort", 0, 2) in str(err.value)

def test_full_exchange_matches_oracle():
    w = 8
    store = fast_store()
    records = generate_synthetic(20_000, seed=6, shuffled=True)
    plan = plan_partitions([SORT_KEY(r) for r in records[:4000]], w)
    for mapper in range(w):
        map_side(records[mapper::w], plan, mapper, store.session(), "x")
    out = []
    payloads = []
    mins_maxes = []
    for reducer in range(w):
        payloads.append(reduce_side(reducer, w, store.session(), "x"))
        chunk = tsv_to_records(payloads[-1])
        out.extend(chunk)
        if chunk:
            mins_maxes.append((SORT_KEY(chunk[0]), SORT_KEY(chunk[-1])))
    assert out == sorted(records)
    assert b"".join(payloads) == records_to_tsv(sorted(records))
    for (_, prev_max), (next_min, _) in zip(mins_maxes, mins_maxes[1:]):
        assert next_min > prev_max
    assert store.store_metrics().get_count == w * w


# --- vm exchange ----------------------------------------------------------------------------

def seeded_inputs(store, records, n_objects):
    payloads = split_into_objects(records, n_objects)
    objects = []
    for i, payload in enumerate(payloads):
        key = f"raw/{i}"
        store.seed_object(key, payload)
        objects.append((key, len(payload)))
    return objects

def test_vm_exchange_single_output():
    records = generate_synthetic(5000, seed=2, shuffled=True)
    store, _ = sort_only_run(ExchangeStrategy.VM, records, 4, 1)
    assert sorted_outputs(store) == [sorted(records)]

def test_vm_exchange_request_counts():
    records = generate_synthetic(3000, seed=4, shuffled=True)
    _, report = sort_only_run(ExchangeStrategy.VM, records, 8, 8)
    assert report.store_metrics.get_count == 8
    assert report.store_metrics.put_count == 8

def test_cross_strategy_equivalence():
    w = 8
    records = generate_synthetic(20_000, seed=10, shuffled=True)
    serverless_store, _ = sort_only_run(ExchangeStrategy.SERVERLESS, records, w, w)
    vm_store, _ = sort_only_run(ExchangeStrategy.VM, records, w, w)
    serverless_out = [r for chunk in sorted_outputs(serverless_store) for r in chunk]
    vm_out = [r for chunk in sorted_outputs(vm_store) for r in chunk]
    assert serverless_out == vm_out == sorted(records)


def _fmt_numbers(fmt):
    """A record's internal line with each number written by fmt."""
    return lambda r: "\t".join([r[0], fmt(r[1]), fmt(r[2]), r[3], fmt(r[4]), fmt(r[5])])


def _underscored(n):
    text = str(n)
    return text[:1] + "_" + text[1:] if len(text) > 1 else text


# every line of an input written one way; int() reads them all, but only
# "canonical" lines may be passed through as they are
_INPUT_FORMS = {
    "canonical": _fmt_numbers(str),
    "leading-zero": _fmt_numbers(lambda n: f"0{n}"),
    "plus-sign": _fmt_numbers(lambda n: f"+{n}"),
    "space": _fmt_numbers(lambda n: f" {n}"),
    "underscore": _fmt_numbers(_underscored),
    "bed": lambda r: f"{r[0]}\t{r[1]}\t{r[2]}\t.\t0\t{r[3]}\t{r[1]}\t{r[2]}\t0,0,0\t{r[4]}\t{r[5]}",
    "crlf": lambda r: _fmt_numbers(str)(r) + "\r",
    "comment-blank": lambda r: "#note\n\n" + _fmt_numbers(str)(r),
    "non-ascii": lambda r: _fmt_numbers(str)(r._replace(chrom=r.chrom.replace("chr", "染色体é"))),
}


@pytest.mark.parametrize("form", sorted(_INPUT_FORMS))
def test_sorted_output_is_canonical_for_each_input_form(form):
    records = generate_synthetic(3000, seed=41, shuffled=True)
    lines = [_INPUT_FORMS[form](r) for r in records]
    payloads = [("\n".join(lines[i::4]) + "\n").encode() for i in range(4)]
    if form == "non-ascii":
        records = [r._replace(chrom=r.chrom.replace("chr", "染色体é")) for r in records]
    expected = records_to_tsv(sorted(records))
    for exchange in ExchangeStrategy:
        store, _ = sort_only_payloads(exchange, payloads, 3)
        assert b"".join(sorted_payloads(store)) == expected, exchange


# --- helpers -----------------------------------------------------------------------------------

def test_split_sorted_counts():
    records = [rec("chr1", n) for n in range(10)]
    chunks = split_sorted(records, 4)
    assert [len(c) for c in chunks] == [3, 3, 2, 2]
    assert [r for c in chunks for r in c] == records

def test_sample_object_counts_one_get_per_object():
    store = fast_store()
    records = generate_synthetic(4000, seed=12, shuffled=True)
    objects = seeded_inputs(store, records, 5)
    session = store.session()
    keys = [k for key, size in objects for k in sample_object(session, key, size, sample_bytes=4096)]
    assert store.store_metrics().get_count == 5
    assert keys
    assert all(isinstance(k, tuple) and len(k) == 4 for k in keys)


# --- sort-once partition and sort-based merge against references ----------------

_small_records = st.lists(
    st.builds(
        rec,
        chrom=st.sampled_from(["chr1", "chr2"]),
        start=st.integers(min_value=0, max_value=30),
        cov=st.integers(min_value=0, max_value=3),
        meth=st.integers(min_value=0, max_value=100),
        strand=st.sampled_from(["+", "-"]),
    ),
    max_size=200,
)

@settings(deadline=None, max_examples=100)
@given(_small_records, st.data())
def test_partition_matches_route_then_sort_reference(records, data):
    keys = sorted({SORT_KEY(r) for r in records} | {("chr1", 15, 16, "+"), ("chr3", 0, 1, "+")})
    boundaries = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=8).map(sorted))
    w = data.draw(st.integers(min_value=len(boundaries) + 1, max_value=len(boundaries) + 3))
    plan = ShufflePlan(w, tuple(boundaries))
    reference = [[] for _ in range(w)]
    for r in records:
        reference[bisect.bisect_left(plan.boundaries, SORT_KEY(r))].append(r)
    for fragment in reference:
        fragment.sort()
    payloads = partition_records(lines_of(records), plan)
    assert [tsv_to_records(p) for p in payloads] == reference
    assert payloads == [records_to_tsv(f) for f in reference]

def test_merge_fragments_across_parse_chunks(monkeypatch):
    # fragments of several parse chunks each, so chromosome blocks cross
    # chunk edges; mapper output never takes the reference merge
    monkeypatch.setattr(shuffle, "parse_object", None)
    records = generate_synthetic(12_000, seed=3, shuffled=True)
    payloads = [records_to_tsv(sorted(records[0::2])), records_to_tsv(sorted(records[1::2]))]
    assert min(map(len, payloads)) > 2 * CHUNK_BYTES
    assert merge_fragments(keyed(payloads)) == records_to_tsv(sorted(records))

def test_merge_fragment_without_final_newline_or_empty():
    a = records_to_tsv([rec("chr1", 1), rec("chr1", 3)])
    b = records_to_tsv([rec("chr1", 2), rec("chr2", 0)])
    expected = records_to_tsv(sorted([rec("chr1", 1), rec("chr1", 3), rec("chr1", 2), rec("chr2", 0)]))
    assert merge_fragments(keyed([a[:-1], b"", b[:-1]])) == expected
    assert merge_fragments(keyed([b"", a, b"", b[:-1], b""])) == expected
    assert merge_fragments(keyed([b"", b""])) == b""


# Records off CPython's sort fast paths: starts past one int digit (2**30) and
# at the record domain's int64 edge, chromosome names outside Latin-1,
# (chrom, start) ties that differ only in a later field, and exact duplicates.
_off_fast_path_records = st.lists(
    st.builds(
        lambda chrom, start, span, strand, cov, meth: MethRecord(chrom, start, start + span, strand, cov, meth),
        chrom=st.sampled_from(["chr1", "chr2", "chré", "染色体", "chr\U0001F600"]),
        start=st.one_of(
            st.integers(min_value=0, max_value=20),
            st.integers(min_value=2**30 - 2, max_value=2**30 + 20),
            st.integers(min_value=END_LIMIT - 26, max_value=END_LIMIT - 4),
        ),
        span=st.integers(min_value=1, max_value=3),
        strand=st.sampled_from(["+", "-"]),
        cov=st.one_of(st.integers(min_value=0, max_value=3), st.just(2**40)),
        meth=st.integers(min_value=0, max_value=100),
    ),
    max_size=120,
)

# Records that tie on (chrom, start) and differ in an end, coverage or
# meth_pct written with a different number of digits (9 and 10), so the
# order of their lines is not the order of their tuples; "c" sorts before
# "c\x01" as a name, but its line ("c\t...") sorts after.
_tied_records = st.lists(
    st.builds(
        lambda chrom, start, span, strand, cov, meth: MethRecord(chrom, start, start + span, strand, cov, meth),
        chrom=st.sampled_from(["c", "c\x01"]),
        start=st.sampled_from([0, 1, END_LIMIT - 101]),
        span=st.sampled_from([9, 10, 99, 100]),
        strand=st.sampled_from(["+", "-"]),
        cov=st.sampled_from([9, 10]),
        meth=st.sampled_from([9, 10, 100]),
    ),
    max_size=40,
)

@settings(deadline=None, max_examples=200)
@given(st.lists(st.one_of(_small_records, _off_fast_path_records, _tied_records), max_size=9), st.data())
def test_merge_fragments_equals_sorted_concat(fragments, data):
    everything = [r for f in fragments for r in f]
    if everything:
        # exact duplicates, in another fragment
        fragments.append(data.draw(st.lists(st.sampled_from(everything), max_size=10)))
    payloads = [records_to_tsv(sorted(f)) for f in fragments]
    cut = data.draw(st.lists(st.booleans(), min_size=len(payloads), max_size=len(payloads)))
    # fragments with no final newline
    payloads = [p[:-1] if drop else p for p, drop in zip(payloads, cut)]
    merged = merge_fragments(keyed(payloads))
    expected = sorted(r for f in fragments for r in f)
    assert tsv_to_records(merged) == expected
    assert merged == records_to_tsv(expected)

@settings(deadline=None, max_examples=150)
@given(_off_fast_path_records, st.data())
def test_partition_matches_sort_then_route_off_fast_paths(records, data):
    if records:
        records += data.draw(st.lists(st.sampled_from(records), max_size=20))
    order = data.draw(st.sampled_from(["drawn", "sorted", "reversed"]))
    if order != "drawn":
        records.sort(reverse=order == "reversed")
    keys = sorted({SORT_KEY(r) for r in records} | {("chr1", 2**30, 2**30 + 1, "+")})
    boundaries = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=6).map(sorted))
    plan = ShufflePlan(len(boundaries) + data.draw(st.integers(min_value=1, max_value=2)), tuple(boundaries))
    reference = [[] for _ in range(plan.w)]
    for r in sorted(records):
        reference[plan.range_of(SORT_KEY(r))].append(r)
    assert partition_records(lines_of(records), plan) == [records_to_tsv(fragment) for fragment in reference]

@pytest.mark.parametrize("boundary_end, boundary_strand", [(12, "+"), (12, "-"), (11, "-"), (13, "+")])
def test_partition_splits_lines_tied_with_a_boundary(boundary_end, boundary_strand):
    # lines that share (chromosome, start) with the boundary fall on either
    # side of it by end and strand, so the cut must read both
    records = [
        MethRecord("chr1", 10, end, strand, cov, 5)
        for end in (11, 12, 13)
        for strand in "+-"
        for cov in (3, 1)
    ] + [rec("chr1", 9), rec("chr1", 11), rec("chr0", 10), rec("chr2", 10)]
    boundary = ("chr1", 10, boundary_end, boundary_strand)
    low = sorted(r for r in records if SORT_KEY(r) <= boundary)
    high = sorted(r for r in records if SORT_KEY(r) > boundary)
    assert any(r[:2] == ("chr1", 10) for r in low) and any(r[:2] == ("chr1", 10) for r in high)
    plan = ShufflePlan(3, (boundary,))
    assert partition_records(lines_of(records), plan) == [records_to_tsv(low), records_to_tsv(high), b""]

def test_partition_fragments_hold_canonical_lines_of_non_canonical_input():
    payload = (
        b"chr1\t007\t8\t+\t01\t+5\n"
        b"chr1\t+7\t9\t-\t2\t 6\n"
        b"chr1\t3\t4\t.\t0\t-\t0\t0\t0\t+9\t010\n"
        b"chr2\t 1\t2\t+\t1_0\t7\n"
    )
    records = sorted(tsv_to_records(payload))
    plan = ShufflePlan(2, (("chr1", 7, 8, "+"),))
    reference = [[r for r in records if plan.range_of(SORT_KEY(r)) == i] for i in range(2)]
    fragments = partition_records(sort_lines([("raw/0", payload)]), plan)
    assert fragments == [records_to_tsv(fragment) for fragment in reference]
    assert fragments[0] == b"chr1\t3\t4\t-\t9\t10\nchr1\t7\t8\t+\t1\t5\n"

# Lines no mapper writes: comments, blank and whitespace-only lines,
# BED-style lines of 7 to 11 columns (strand in column 6, coverage and
# meth_pct in columns 10 and 11) and internal lines ending in "\r\n". A
# fragment holding one is merged by parsing every fragment in full. (A
# 6-column line with an integer start is trusted as a mapper's line.)
_text = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\r\n"), max_size=12)
_foreign_lines = st.one_of(
    _text.map(lambda text: b"#" + text.encode("utf-8")),
    st.sampled_from([b"", b" ", b"\t", b" \t "]),
    st.builds(
        lambda r, extra: "\t".join(
            [r.chrom, str(r.start), str(r.end), "site", "0", r.strand, "0", "0", "0", str(r.coverage), str(r.meth_pct)][:extra]
        ).encode("utf-8"),
        _off_fast_path_records.filter(bool).map(lambda rs: rs[0]),
        st.integers(min_value=7, max_value=11),
    ),
    _tied_records.filter(bool).map(lambda rs: records_to_tsv(rs[:1])[:-1] + b"\r"),
)

@settings(deadline=None, max_examples=100)
@given(st.lists(st.one_of(_off_fast_path_records, _tied_records), min_size=1, max_size=4), st.data())
def test_partition_then_merge_equals_sorted_rows(per_mapper, data):
    everything = sorted(r for records in per_mapper for r in records)
    keys = sorted({SORT_KEY(r) for r in everything} | {("c", 1, 11, "+")})
    boundaries = data.draw(st.lists(st.sampled_from(keys), unique=True, max_size=4).map(sorted))
    plan = ShufflePlan(len(boundaries) + 1, tuple(boundaries))
    fragments = [partition_records(lines_of(records), plan) for records in per_mapper]
    reference = [[] for _ in range(plan.w)]
    for r in everything:
        reference[plan.range_of(SORT_KEY(r))].append(r)
    for line in data.draw(st.lists(_foreign_lines, max_size=4)):
        # into one fragment, at a line boundary
        mapper = data.draw(st.integers(min_value=0, max_value=len(fragments) - 1))
        reducer = data.draw(st.integers(min_value=0, max_value=plan.w - 1))
        lines = fragments[mapper][reducer].split(b"\n")[:-1]
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), line)
        fragments[mapper][reducer] = b"\n".join(lines) + b"\n"
        reference[reducer] += tsv_to_records(line)
    merged = [merge_fragments(keyed([f[reducer] for f in fragments], reducer)) for reducer in range(plan.w)]
    assert merged == [records_to_tsv(sorted(reducer_records)) for reducer_records in reference]

@pytest.mark.parametrize(
    "bad, column",
    [
        (b"not a fragment\n", 1),
        (b"chr1\t5\t6\t+\t1\n", 5),
        # BED-style for the line parser, whose strand column 6 is "2"
        (b"chr1\t5\t6\t+\t1\t2\t3\n", 6),
        (b"chr1\t5\t6\t+\t1\t2\t3\n4\t7\t8\t+\t1\n", 6),
        (b"chr1\tx\t6\t+\t1\t2\n", 2),
        (b"chr1\t5\t6\t+\t1\t2\nchr1\t\xff\t8\t+\t1\t2", 2),
        # lines that share (chromosome, start) are ordered by their
        # numbers: a bad end tied with another line takes the fallback
        (b"chr1\t1\tx\t+\t1\t2\n", 3),
    ],
)
def test_merge_rejects_malformed_fragment(bad, column):
    good = records_to_tsv([rec("chr1", 1)])
    with pytest.raises(ParseError) as err:
        merge_fragments(keyed([good, b"", bad, good]))
    assert err.value.column == column
    assert "in object 'part/s/2-0'" in str(err.value)


def test_merge_skips_tied_comment_lines():
    # tied comment lines are what the line parser skips, as in any object
    good = records_to_tsv([rec("c", 5)])
    comments = b"#c\t5\t6\t+\t1\t2\n#c\t5\t7\t+\t1\t2\n"
    assert merge_fragments(keyed([good, comments, good])) == good + good


# --- packed starts ----------------------------------------------------------------------------

def _list_merge_lines(chunks):
    """The line merge with every start held as an int in a list until its
    chromosome merges: the form before starts were packed, kept as the
    memory reference."""
    blocks = {}
    for chroms, starts, lines in chunks:
        if not all(map(operator.le, chroms, islice(chroms, 1, None))):
            order = sorted(range(len(chroms)), key=chroms.__getitem__)
            chroms, starts, lines = [list(map(column.__getitem__, order)) for column in (chroms, starts, lines)]
        lo, n = 0, len(chroms)
        while lo < n:
            hi = bisect.bisect_right(chroms, chroms[lo], lo)
            block_starts, block_lines = blocks.setdefault(chroms[lo], ([], []))
            block_starts += starts[lo:hi]
            block_lines += lines[lo:hi]
            lo = hi
    merged = []
    for chrom in sorted(blocks):
        merged += _list_merge_block(*blocks.pop(chrom))
    return merged


def _list_merge_block(starts, lines):
    lines.sort(key=partial(next, iter(starts)))
    starts.sort()
    shared = list(map(operator.eq, starts, islice(starts, 1, None)))
    del starts
    if True in shared:
        before, after = chain((False,), shared), chain(shared, (False,))
        tied = list(compress(count(), map(operator.or_, before, after)))
        del shared
        records = tsv_to_records(b"\n".join(map(lines.__getitem__, tied)))
        if len(records) != len(tied):
            raise ParseError(1, "a tied line is blank or a comment")
        records.sort()
        for i, line in zip(tied, record_lines(records)):
            lines[i] = line
    return lines


def _traced_peak(sort):
    """sort()'s result and the tracemalloc peak it reached, in bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = sort()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_packed_starts_peak_below_the_list_merge():
    # each gathered line costs its bytes plus an 8-byte packed start, not
    # an int object and a list slot; on this presorted input the list
    # form peaked about 11% higher
    objects = [
        (f"raw/{i}", payload)
        for i, payload in enumerate(split_into_objects(generate_synthetic(20_000, seed=5), 4))
    ]
    packed, packed_peak = _traced_peak(lambda: sort_lines(objects))
    listed, list_peak = _traced_peak(
        lambda: _list_merge_lines(chunk for _, payload in objects for chunk in tsv_to_lines(payload))
    )
    assert packed == listed
    assert packed_peak < 0.95 * list_peak


# --- ties ---------------------------------------------------------------------------------

def _whole_merge_block(starts, lines):
    """The block merge that sorted the starts again whatever they held and
    serialized all tied records at once: kept as the memory reference."""
    keys = list(starts)
    lines.sort(key=partial(next, iter(keys)))
    keys.sort()
    shared = list(map(operator.eq, keys, islice(keys, 1, None)))
    del keys
    if True in shared:
        before, after = chain((False,), shared), chain(shared, (False,))
        tied = list(compress(count(), map(operator.or_, before, after)))
        del shared
        records = tsv_to_records(b"\n".join(map(lines.__getitem__, tied)))
        if len(records) != len(tied):
            raise ParseError(1, "a tied line is blank or a comment")
        records.sort()
        for i, line in zip(tied, record_lines(records)):
            lines[i] = line
    return lines


def test_all_tied_block_sorts_by_key_below_the_reparse_peak(monkeypatch):
    # every line on one (chromosome, start), so every line is ordered by
    # the tie key read from it; small parse chunks keep the parse's own
    # peak below the tie sort's
    monkeypatch.setattr(records_module, "CHUNK_BYTES", 1024)
    records = [
        r._replace(chrom="chr1", start=7, end=8 + r.start % 3)
        for r in generate_synthetic(5 * records_module.SERIALIZE_BATCH + 11, seed=41, shuffled=True)
    ]
    objects = [(f"raw/{i}", p) for i, p in enumerate(split_into_objects(records, 8))]
    expected = record_lines(sorted(records))
    merged, peak = _traced_peak(lambda: sort_lines(objects))
    assert merged == expected
    fragments = keyed([shuffle._join_lines(sort_lines([obj])) for obj in objects])
    assert merge_fragments(fragments) == shuffle._join_lines(expected)
    # on this input the form that parsed the tied lines again and
    # serialized all their records at once peaked about 19% higher
    monkeypatch.setattr(shuffle, "_merge_block", _whole_merge_block)
    whole, whole_peak = _traced_peak(lambda: sort_lines(objects))
    assert whole == expected
    assert peak < 0.9 * whole_peak


def test_sort_and_merge_parse_no_line_again(monkeypatch):
    def refuse(payload):
        raise AssertionError("a line was parsed again")

    # generated starts ascend within a chromosome, so none repeats
    records = generate_synthetic(3000, seed=42, shuffled=True)
    objects = [(f"raw/{i}", p) for i, p in enumerate(split_into_objects(records, 4))]
    fragments = keyed([shuffle._join_lines(sort_lines([obj])) for obj in objects])
    expected = record_lines(sorted(records))
    monkeypatch.setattr(shuffle, "tsv_to_records", refuse)
    assert sort_lines(objects) == expected
    assert merge_fragments(fragments) == shuffle._join_lines(expected)
    # still refused: one start tied across two objects, one across two
    # fragments; ends 9 and 10, whose lines sort in byte order the other
    # way round, are ordered by the tie key, not by a parse
    pair = [rec("chr2", 4)._replace(end=10), rec("chr2", 4)._replace(end=9)]
    tied = records + pair
    objects += [("raw/tied-0", records_to_tsv(pair[:1])), ("raw/tied-1", records_to_tsv(pair[1:]))]
    assert sort_lines(objects) == record_lines(sorted(tied))
    fragments += keyed([records_to_tsv(pair[:1]), records_to_tsv(pair[1:])])
    assert merge_fragments(fragments) == shuffle._join_lines(record_lines(sorted(tied)))
