"""Exchange strategy tests: planning, partition laws, merges, equivalence."""

import bisect
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab import shuffle
from faaslab.blobstore import Blobstore, StoreProfile, VirtualClock
from faaslab.engine import EngineOptions, Mode, run_workflow
from faaslab.errors import DomainError, ExecutionError, MemoryBudgetError, MissingPartition
from faaslab.methpipe import (
    MethRecord,
    generate_synthetic,
    records_to_tsv,
    split_into_objects,
    tsv_to_records,
    tsv_to_rows,
)
from faaslab.methpipe.records import SORT_KEY
from faaslab.perfmodel import builtin_profiles
from faaslab.shuffle import (
    ShufflePlan,
    external_sort,
    merge_fragments,
    partition_key,
    partition_records,
    plan_partitions,
    read_fragments,
    sample_object,
    split_sorted,
    write_fragments,
)
from faaslab.workflow import DataRef, ExchangeStrategy, StageKind, StageSpec, WorkflowSpec

INF = math.inf


def fast_store():
    return Blobstore(StoreProfile(0.0, INF, INF, INF), clock=VirtualClock())


def rows_of(records):
    """Rows of records, as a mapper parses them from its input."""
    return tsv_to_rows(records_to_tsv(records))


def map_side(records, plan, mapper, session, stage):
    """One mapper of the all-to-all exchange: partition, then write w fragments."""
    write_fragments(partition_records(rows_of(records), plan), stage, mapper, session)


def reduce_side(reducer, w, session, stage):
    """One reducer: read its w fragments and merge them into an output payload."""
    return merge_fragments(read_fragments(reducer, w, session, stage))


def sort_only_run(exchange, records, n_objects, w, options=None):
    """run_workflow over a sort-only workflow; returns the store and report."""
    return sort_only_payloads(exchange, split_into_objects(records, n_objects), w, options)


def sort_only_payloads(exchange, payloads, w, options=None):
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
    report = run_workflow(spec, Mode.EMULATED, store=store, options=options)
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
    payloads = partition_records(rows_of(records), plan)
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
    payloads = partition_records(rows_of(records), plan)
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
    payload = merge_fragments([a, b])
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

def test_vm_exchange_budget_enforced():
    records = generate_synthetic(2000, seed=8, shuffled=True)
    with pytest.raises(ExecutionError) as err:
        sort_only_run(ExchangeStrategy.VM, records, 2, 2, EngineOptions(vm_mem_gb=1e-6))
    assert isinstance(err.value.cause, MemoryBudgetError)

def keyed(payloads):
    """(key, payload) pairs, as the engine fetches them for external_sort."""
    return ((f"raw/{i:04d}", payload) for i, payload in enumerate(payloads))

def test_vm_external_sort_fallback_equivalent():
    records = generate_synthetic(8000, seed=9, shuffled=True)
    payloads = split_into_objects(records, 4)
    ranges = list(external_sort(keyed(payloads), 4, mem_budget=10_000))
    assert ranges == split_sorted(sorted(records), 4)

    store, report = sort_only_run(
        ExchangeStrategy.VM, records, 4, 4, EngineOptions(vm_mem_gb=1e-5, external_sort=True)
    )
    assert [r for chunk in sorted_outputs(store) for r in chunk] == sorted(records)
    assert report.store_metrics.get_count == 4
    assert report.store_metrics.put_count == 4

def test_external_sort_merges_many_runs():
    records = generate_synthetic(80_000, seed=19, shuffled=True)
    payloads = split_into_objects(records, 16)
    ranges = list(external_sort(keyed(payloads), 3, mem_budget=1))
    assert ranges == split_sorted(sorted(records), 3)

def test_external_sort_honours_small_budget(monkeypatch):
    # a 100 KB budget over about 146 KB of input cannot sort in one run
    runs_merged = []
    real_merge = shuffle.heapq.merge

    def merge(*runs):
        runs_merged.append(len(runs))
        return real_merge(*runs)

    monkeypatch.setattr(shuffle.heapq, "merge", merge)
    records = generate_synthetic(6000, seed=31, shuffled=True)
    payloads = split_into_objects(records, 6)
    assert sum(map(len, payloads)) > 100_000
    ranges = list(external_sort(keyed(payloads), 4, mem_budget=100_000))
    assert ranges == split_sorted(sorted(records), 4)
    assert runs_merged and runs_merged[0] > 1

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
    payloads = partition_records(rows_of(records), plan)
    assert [tsv_to_records(p) for p in payloads] == reference
    assert payloads == [records_to_tsv(f) for f in reference]

@settings(deadline=None, max_examples=100)
@given(st.lists(_small_records, max_size=9))
def test_merge_fragments_equals_sorted_concat(fragments):
    payloads = [records_to_tsv(sorted(f)) for f in fragments]
    merged = merge_fragments(payloads)
    expected = sorted(r for f in fragments for r in f)
    assert tsv_to_records(merged) == expected
    assert merged == records_to_tsv(expected)
