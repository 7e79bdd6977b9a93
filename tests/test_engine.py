"""Engine tests: stage mechanics, determinism, accounting, agreement."""

import gc
import itertools
import json
import math
import tracemalloc
from dataclasses import fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab import shuffle
from faaslab.blobstore import Blobstore, StoreMetrics, StoreProfile, VirtualClock
from faaslab.engine import (
    VM_VOLUME_GB,
    EngineOptions,
    ExecHooks,
    Mode,
    RunReport,
    request_laws,
    run_workflow,
)
from faaslab.errors import (
    ExecutionError,
    FaaslabError,
    MemoryBudgetError,
    ParseError,
    TaskError,
    ValidationError,
)
from faaslab.methpipe import records as records_module
from faaslab.methpipe import (
    MethRecord,
    decode_block,
    generate_synthetic,
    records_to_tsv,
    split_into_objects,
    tsv_to_records,
)
from faaslab.methpipe.records import END_LIMIT, record_lines
from faaslab.perfmodel import (
    ComputeProfile,
    PriceSheet,
    Profiles,
    builtin_profiles,
    compute_cost,
    encode_latency_model,
    optimal_worker_count,
    shuffle_latency_model,
    vm_exchange_latency_model,
)
from faaslab.report import parse_report, report_to_json
from faaslab.workflow import (
    DataRef,
    ExchangeStrategy,
    StageKind,
    StageSpec,
    WorkflowSpec,
    parse_workflow,
    with_exchange,
)

INF = math.inf

FAST_STORE = StoreProfile(0.0, INF, INF, INF)
DESK_STORE = StoreProfile(0.002, 32e6, 256e6, 500.0)


def profiles(store=DESK_STORE, **compute_overrides):
    compute_kwargs = dict(
        fn_startup=0.4,
        fn_mem_gb=2.0,
        fn_sort_rate=24e6,
        fn_encode_rate=48e6,
        vm_provision=3.0,
        vm_bandwidth=96e6,
        vm_sort_rate=40e6,
    )
    compute_kwargs.update(compute_overrides)
    return Profiles(store, ComputeProfile(**compute_kwargs), PriceSheet(7.5e-6, 2e-7, 5e-6, 4e-7, 6.3e-5, 4e-8))


def two_stage_spec(prof=None, exchange=ExchangeStrategy.SERVERLESS, w=8, **stage_opts):
    return WorkflowSpec(
        name="t",
        input=DataRef("data", "raw/"),
        exchange=exchange,
        stages=(
            StageSpec("sort", StageKind.SORT_EXCHANGE, stage_opts.get("sort", {})),
            StageSpec("enc", StageKind.ENCODE, stage_opts.get("enc", {})),
        ),
        profiles=prof or profiles(),
        parallelism=w,
    )


def seeded_store(records, n_objects, store_profile=DESK_STORE):
    store = Blobstore(store_profile, clock=VirtualClock())
    for i, payload in enumerate(split_into_objects(records, n_objects)):
        store.seed_object(f"raw/{i:04d}", payload)
    return store


def decoded_outputs(store):
    out = []
    for key, _ in store.list_prefix("encoded/enc/"):
        out.extend(decode_block(store.get_object(key)))
    return out


# --- full runs -----------------------------------------------------------------

def test_emulated_run_produces_sorted_encoded_output():
    records = generate_synthetic(10_000, seed=1, shuffled=True)
    store = seeded_store(records, 8)
    report = run_workflow(two_stage_spec(), Mode.EMULATED, store=store)
    assert decoded_outputs(store) == sorted(records)
    assert report.parallelism == 8
    assert report.end_to_end_s == sum(s.latency.total for s in report.stages)

def test_empty_input_degenerate_run():
    store = Blobstore(DESK_STORE, clock=VirtualClock())
    store.seed_object("raw/0000", b"")
    report = run_workflow(two_stage_spec(), Mode.EMULATED, store=store)
    sort_stage = report.stages[0]
    assert sort_stage.requests.bytes_in == 0
    assert sort_stage.requests.bytes_out == 0
    assert decoded_outputs(store) == []
    assert report.end_to_end_s > 0  # startup waves still counted

def test_missing_input_is_validation_error():
    store = Blobstore(DESK_STORE, clock=VirtualClock())
    with pytest.raises(ValidationError):
        run_workflow(two_stage_spec(), Mode.EMULATED, store=store)

def test_invalid_spec_rejected_before_execution():
    spec = two_stage_spec(w=0)
    with pytest.raises(ValidationError):
        run_workflow(spec, Mode.EMULATED, store=Blobstore(DESK_STORE, clock=VirtualClock()))

def test_emulated_determinism_byte_identical():
    records = generate_synthetic(5000, seed=5, shuffled=True)

    def run():
        store = seeded_store(records, 8)
        report = run_workflow(two_stage_spec(), Mode.EMULATED, store=store, seed=3)
        objects = {k: store.get_object(k) for k, _ in store.list_prefix("")}
        return report_to_json(report), objects

    first, second = run(), run()
    assert first[0] == second[0]
    assert first[1] == second[1]

@pytest.mark.parametrize("exchange", [ExchangeStrategy.SERVERLESS, ExchangeStrategy.VM])
def test_unshaped_run_completes(exchange):
    # infinite rates and zero latency: every request replays in no time
    records = generate_synthetic(2000, seed=6, shuffled=True)
    store = seeded_store(records, 4, store_profile=FAST_STORE)
    prof = profiles(store=FAST_STORE, fn_startup=0.01, vm_provision=0.01)
    report = run_workflow(two_stage_spec(prof, exchange, w=4), Mode.EMULATED, store=store)
    assert decoded_outputs(store) == sorted(records)
    assert report.end_to_end_s > 0


# --- request accounting -------------------------------------------------------------

def check_request_laws(exchange, w, n_objects):
    """Emulated per-stage requests equal request_laws: counts, and sort-stage bytes."""
    records = generate_synthetic(6000, seed=16, shuffled=True)
    store = seeded_store(records, n_objects, store_profile=FAST_STORE)
    spec = two_stage_spec(profiles(store=FAST_STORE), exchange, w, sort={"sample_bytes": 512})
    report = run_workflow(spec, Mode.EMULATED, store=store)
    size = sum(size for _, size in store.peek_prefix("raw/"))
    sort_stage, enc_stage = report.stages
    laws = request_laws(StageKind.SORT_EXCHANGE, exchange, w, n_objects, size, sample_bytes=512)
    assert sort_stage.requests == laws
    laws = request_laws(StageKind.ENCODE, exchange, w, w, size)
    assert (enc_stage.requests.put_count, enc_stage.requests.get_count) == (
        laws.put_count,
        laws.get_count,
    )
    assert len(store.peek_prefix("sorted/sort/")) == len(store.peek_prefix("encoded/enc/")) == w

def test_request_count_laws_serverless():
    check_request_laws(ExchangeStrategy.SERVERLESS, 8, 8)

def test_request_count_laws_vm():
    check_request_laws(ExchangeStrategy.VM, 8, 8)

@pytest.mark.parametrize("exchange", [ExchangeStrategy.SERVERLESS, ExchangeStrategy.VM])
@pytest.mark.parametrize("w, n_objects", [(1, 1), (4, 4), (4, 6), (8, 3)])
def test_request_count_laws_per_shape(exchange, w, n_objects):
    check_request_laws(exchange, w, n_objects)

def test_report_conservation():
    records = generate_synthetic(6000, seed=3, shuffled=True)
    store = seeded_store(records, 4)
    before = store.store_metrics()
    report = run_workflow(two_stage_spec(w=4), Mode.EMULATED, store=store)
    after = store.store_metrics()
    total = StoreMetrics()
    for stage in report.stages:
        total = total + stage.requests
    assert total == report.store_metrics
    assert after - before == total

def test_modeled_sort_bytes_use_stage_sample_bytes():
    records = generate_synthetic(40_000, seed=17, shuffled=True)
    store = seeded_store(records, 8)
    spec = two_stage_spec(w=8, sort={"sample_bytes": 4096})
    emulated = run_workflow(spec, Mode.EMULATED, store=store).stages[0].requests
    size = sum(size for _, size in store.peek_prefix("raw/"))
    declared = replace(spec.input, size_bytes=float(size), object_count=8)
    modeled = run_workflow(replace(spec, input=declared), Mode.MODELED).stages[0].requests
    assert modeled == emulated


# --- failure handling ------------------------------------------------------------------

def test_failing_task_cleans_stage_outputs():
    records = generate_synthetic(3000, seed=8, shuffled=True)
    store = seeded_store(records, 4, store_profile=FAST_STORE)

    calls = {"n": 0}

    def explode(stage, phase, worker):
        if phase == "partition_write" and worker == 2:
            calls["n"] += 1
            raise RuntimeError("synthetic fault")

    with pytest.raises(ExecutionError) as err:
        run_workflow(
            two_stage_spec(profiles(store=FAST_STORE, fn_startup=0.01, vm_provision=0.01), w=4),
            Mode.EMULATED,
            store=store,
            options=EngineOptions(hooks=ExecHooks(on_task_start=explode)),
        )
    assert err.value.stage_id == "sort"
    assert isinstance(err.value.cause, TaskError)
    assert err.value.cause.worker == 2
    assert err.value.cause.phase == "partition_write"
    assert calls["n"] == 1
    assert store.list_prefix("part/sort/") == []
    assert store.list_prefix("sorted/sort/") == []

def test_run_workflow_wraps_stage_failure():
    records = generate_synthetic(1000, seed=9, shuffled=True)
    store = seeded_store(records, 4)

    def explode(stage, phase, worker):
        if stage == "enc" and phase == "encode":
            raise RuntimeError("boom")

    with pytest.raises(ExecutionError) as err:
        run_workflow(
            two_stage_spec(w=4),
            Mode.EMULATED,
            store=store,
            options=EngineOptions(hooks=ExecHooks(on_task_start=explode)),
        )
    assert err.value.stage_id == "enc"
    # sort-stage outputs stay, encode outputs are cleaned
    assert store.list_prefix("sorted/sort/") != []
    assert store.list_prefix("encoded/enc/") == []


@pytest.mark.parametrize(
    "exchange, bad, worker, phase",
    [
        (ExchangeStrategy.SERVERLESS, 0, 0, "input_read"),
        (ExchangeStrategy.SERVERLESS, 2, 2, "input_read"),
        (ExchangeStrategy.VM, 0, 0, "sort_compute"),
    ],
    ids=["sampler", "sampler-of-object-2", "vm"],
)
def test_parse_error_names_stage(exchange, bad, worker, phase):
    # serverless: object `bad`'s sampler parses the bad line first, names
    # the object and is named as the mapper that reads the object (with 4
    # objects and w = 4, mapper `bad`); VM: the one VM task parses it in
    # sort_compute
    payloads = split_into_objects(generate_synthetic(2000, seed=18, shuffled=True), 4)
    payloads[bad] = b"chr1\tx\t5\t+\t1\t2\n" + payloads[bad]
    store = Blobstore(DESK_STORE, clock=VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i:04d}", payload)
    with pytest.raises(ExecutionError) as err:
        run_workflow(two_stage_spec(exchange=exchange, w=4), Mode.EMULATED, store=store)
    assert err.value.stage_id == "sort"
    assert isinstance(err.value.cause, TaskError)
    assert err.value.cause.worker == worker
    assert err.value.cause.phase == phase
    assert isinstance(err.value.cause.cause, ParseError)
    if phase == "input_read":
        assert f"raw/{bad:04d}" in str(err.value)
    assert store.list_prefix("part/sort/") == store.list_prefix("sorted/sort/") == []


@pytest.mark.parametrize(
    "exchange, worker",
    [(ExchangeStrategy.SERVERLESS, 1), (ExchangeStrategy.VM, 0)],
    ids=["mapper", "vm"],
)
def test_sort_compute_parse_error_names_object(exchange, worker):
    # the samplers read 512 bytes of each object's head, so the bad last
    # line of raw/0001 is first parsed in sort_compute, by mapper 1 or by
    # the one VM task
    payloads = split_into_objects(generate_synthetic(2000, seed=18, shuffled=True), 4)
    payloads[1] += b"chr1\tx\t5\t+\t1\t2\n"
    store = Blobstore(DESK_STORE, clock=VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i:04d}", payload)
    spec = two_stage_spec(exchange=exchange, w=4, sort={"sample_bytes": 512})
    with pytest.raises(ExecutionError) as err:
        run_workflow(spec, Mode.EMULATED, store=store)
    cause = err.value.cause
    assert isinstance(cause, TaskError)
    assert (cause.worker, cause.phase) == (worker, "sort_compute")
    assert isinstance(cause.cause, ParseError)
    assert cause.cause.column == 2
    assert "raw/0001" in str(err.value)
    assert store.list_prefix("part/sort/") == store.list_prefix("sorted/sort/") == []


@pytest.mark.parametrize("exchange", list(ExchangeStrategy), ids=lambda e: e.value)
def test_encode_parse_error_names_object(exchange):
    # as encoder 1 starts reading, its sorted input gets a malformed line
    store = seeded_store(generate_synthetic(2000, seed=19, shuffled=True), 4)

    def corrupt(stage, phase, worker):
        if (stage, phase, worker) == ("enc", "input_read", 1):
            store.seed_object("sorted/sort/1", b"chr1\tx\t5\t+\t1\t2\n")

    options = EngineOptions(hooks=ExecHooks(on_task_start=corrupt))
    with pytest.raises(ExecutionError) as err:
        run_workflow(two_stage_spec(exchange=exchange, w=4), Mode.EMULATED, store=store, options=options)
    cause = err.value.cause
    assert (err.value.stage_id, cause.worker, cause.phase) == ("enc", 1, "encode")
    assert isinstance(cause.cause, ParseError)
    assert "'sorted/sort/1'" in str(err.value)
    assert store.list_prefix("encoded/enc/") == []


def test_bad_fragment_names_partition_object():
    # as reducer 0 starts reading, mapper 0's fragment for it is garbage
    store = seeded_store(generate_synthetic(2000, seed=19, shuffled=True), 4)

    def corrupt(stage, phase, worker):
        if (stage, phase, worker) == ("sort", "partition_read", 0):
            store.seed_object("part/sort/0-0", b"not a fragment\n")

    options = EngineOptions(hooks=ExecHooks(on_task_start=corrupt))
    with pytest.raises(ExecutionError) as err:
        run_workflow(two_stage_spec(w=4), Mode.EMULATED, store=store, options=options)
    cause = err.value.cause
    assert (err.value.stage_id, cause.worker, cause.phase) == ("sort", 0, "output_write")
    assert err.value.__cause__ is cause
    assert isinstance(cause.cause, ParseError)
    assert cause.cause.column == 1
    assert "'part/sort/0-0'" in str(err.value)
    assert store.list_prefix("part/sort/") == store.list_prefix("sorted/sort/") == []


def test_all_tied_input_gives_identical_outputs():
    # every record in two input objects, so every fragment line a reducer
    # merges shares (chromosome, start) with another line
    records = generate_synthetic(3000, seed=28, shuffled=True)
    payloads = split_into_objects(records, 2) * 2
    outputs = []
    for exchange in ExchangeStrategy:
        store = Blobstore(DESK_STORE, clock=VirtualClock())
        for i, payload in enumerate(payloads):
            store.seed_object(f"raw/{i:04d}", payload)
        run_workflow(two_stage_spec(exchange=exchange, w=4), Mode.EMULATED, store=store)
        outputs.append(
            [{k: store.get_object(k) for k, _ in store.list_prefix(p)} for p in ("sorted/sort/", "encoded/enc/")]
        )
        assert decoded_outputs(store) == sorted(records * 2)
    assert outputs[0] == outputs[1]


_SOUND_TSV = records_to_tsv(generate_synthetic(60, seed=29, shuffled=True))


@st.composite
def _hostile_object(draw):
    """Arbitrary bytes, or valid TSV with up to 3 edits: cut short, or bytes
    flipped, duplicated or deleted."""
    if draw(st.integers(min_value=0, max_value=3)) == 0:
        return draw(st.binary(max_size=300))
    payload = bytearray(_SOUND_TSV)
    for edit in draw(st.lists(st.sampled_from(["cut", "flip", "duplicate", "delete"]), max_size=3)):
        if not payload:
            break
        i = draw(st.integers(min_value=0, max_value=len(payload) - 1))
        n = draw(st.integers(min_value=1, max_value=20))
        if edit == "cut":
            del payload[i:]
        elif edit == "flip":
            payload[i] ^= 1 << draw(st.integers(min_value=0, max_value=7))
        elif edit == "duplicate":
            payload[i:i] = payload[i : i + n]
        else:
            del payload[i : i + n]
    return bytes(payload)


@settings(deadline=None, max_examples=100)
@given(st.lists(_hostile_object(), min_size=1, max_size=4), st.sampled_from([1, 3]))
def test_hostile_input_fails_alike_or_decodes_alike(payloads, w):
    # both strategies succeed with the same records, or both fail with a
    # FaaslabError at the root of the stage's failure
    prof = profiles(store=FAST_STORE, fn_startup=0.01, vm_provision=0.01)
    outcomes = []
    for exchange in ExchangeStrategy:
        store = Blobstore(FAST_STORE, clock=VirtualClock())
        for i, payload in enumerate(payloads):
            store.seed_object(f"raw/{i:04d}", payload)
        try:
            run_workflow(two_stage_spec(prof, exchange, w), Mode.EMULATED, store=store)
        except FaaslabError as exc:
            while isinstance(exc, (ExecutionError, TaskError)):
                exc = exc.cause
            assert isinstance(exc, FaaslabError), repr(exc)
            outcomes.append(None)
        else:
            outcomes.append(decoded_outputs(store))
    assert outcomes[0] == outcomes[1]


def test_non_ascii_chrom_sorts_identically_and_round_trips():
    names = {"chr1": "chr1", "chr2": "chré", "chr3": "染色体3", "chr4": "chr4"}
    records = [
        r._replace(chrom=names[r.chrom]) for r in generate_synthetic(3000, seed=27, shuffled=True)
    ]
    expected = records_to_tsv(sorted(records))
    assert "chré".encode() in expected
    for exchange in ExchangeStrategy:
        store = seeded_store(records, 4)
        run_workflow(two_stage_spec(exchange=exchange, w=3), Mode.EMULATED, store=store)
        payloads = [store.get_object(k) for k, _ in store.list_prefix("sorted/sort/")]
        assert b"".join(payloads) == expected
        assert decoded_outputs(store) == sorted(records)


# --- memory budget -----------------------------------------------------------------------

def test_mapper_budget_enforced():
    records = generate_synthetic(5000, seed=10, shuffled=True)
    store = seeded_store(records, 4)
    prof = profiles(fn_mem_gb=1e-7)  # 100-byte budget
    with pytest.raises(ExecutionError) as err:
        run_workflow(two_stage_spec(prof, w=4), Mode.EMULATED, store=store)
    assert isinstance(err.value.cause, MemoryBudgetError)

def test_buffer_instrumentation_within_chunk_law():
    records = generate_synthetic(8000, seed=12, shuffled=True)
    store = seeded_store(records, 8)
    buffers = []
    hooks = ExecHooks(on_buffer=lambda stage, worker, n: buffers.append(n))
    run_workflow(
        two_stage_spec(), Mode.EMULATED, store=store, options=EngineOptions(hooks=hooks)
    )
    assert buffers
    budget = int(2.0 * 1e9)
    assert max(buffers) <= budget / 4

def test_vm_output_write_releases_each_range():
    # the VM serializes and writes one sorted range at a time and drops its
    # records first, so traced memory falls from range to range while the
    # written output grows; holding every record to the end makes it rise
    store = seeded_store(generate_synthetic(20_000, seed=5), 4, store_profile=FAST_STORE)
    phase, traced = [None], []

    def start(stage, name, worker):
        phase[0] = (stage, name)

    def buffer(stage, worker, nbytes):
        if phase[0] == ("sort", "output_write"):
            traced.append(tracemalloc.get_traced_memory()[0])

    spec = two_stage_spec(profiles(store=FAST_STORE), exchange=ExchangeStrategy.VM, w=4)
    hooks = ExecHooks(on_task_start=start, on_buffer=buffer)
    tracemalloc.start()
    try:
        run_workflow(spec, Mode.EMULATED, store=store, options=EngineOptions(hooks=hooks))
    finally:
        tracemalloc.stop()
    assert len(traced) == 4
    assert traced == sorted(traced, reverse=True)
    assert traced[-1] < traced[0]


# --- the VM's sort against the record-tuple oracle -------------------------------------

def oracle_vm_outputs(objects, w):
    """The VM's sorted/ payloads the record way: parse every object into
    record tuples, sort them, cut w ranges and serialize each."""
    records = []
    for key, payload in objects:
        records.extend(shuffle.parse_object(tsv_to_records, payload, key))
    records.sort()
    return [records_to_tsv(records_range) for records_range in shuffle.split_sorted(records, w)]


def vm_sort_outcome(objects, w):
    """The sorted/ payloads of an emulated VM sort, or its root error as
    (type, column, reason)."""
    store = Blobstore(FAST_STORE, clock=VirtualClock())
    for key, payload in objects:
        store.seed_object(key, payload)
    spec = replace(
        two_stage_spec(profiles(store=FAST_STORE), ExchangeStrategy.VM, w),
        stages=(StageSpec("sort", StageKind.SORT_EXCHANGE),),
    )
    try:
        run_workflow(spec, Mode.EMULATED, store=store)
    except ExecutionError as exc:
        while isinstance(exc, (ExecutionError, TaskError)):
            exc = exc.cause
        return type(exc), exc.column, exc.reason
    return [store.get_object(key) for key, _ in store.list_prefix("sorted/sort/")]


def oracle_outcome(objects, w):
    try:
        return oracle_vm_outputs(objects, w)
    except ParseError as exc:
        return type(exc), exc.column, exc.reason


# Chromosomes off the ASCII fast path, and "c" + chr(1), which sorts after
# "c" as a name while its line sorts before.
_VM_CHROMS = ["chr1", "chr2", "chré", "染色体", "c", "c\x01"]

_vm_records = st.lists(
    st.builds(
        lambda chrom, start, span, strand, cov, meth: MethRecord(chrom, start, start + span, strand, cov, meth),
        chrom=st.sampled_from(_VM_CHROMS),
        start=st.one_of(st.integers(min_value=0, max_value=30), st.just(END_LIMIT - 101)),
        span=st.sampled_from([1, 9, 10, 100]),
        strand=st.sampled_from(["+", "-"]),
        cov=st.sampled_from([0, 9, 10, 500]),
        meth=st.sampled_from([0, 9, 10, 100]),
    ),
    max_size=60,
)


def _written(record, form, field):
    """One record's line: canonical, with a non-canonical number in the
    field-th numeric column, BED-style or ending in \\r."""
    chrom, start, end, strand, cov, meth = record
    numbers = [str(start), str(end), str(cov), str(meth)]
    if form in ("+", "00", " "):
        numbers[field] = form + numbers[field]
    start_text, end_text, cov_text, meth_text = numbers
    if form == "bed":
        fields = [chrom, start_text, end_text, "site", "0", strand, "0", "0", "0", cov_text, meth_text]
    else:
        fields = [chrom, start_text, end_text, strand, cov_text, meth_text]
    return "\t".join(fields).encode("utf-8") + (b"\r" if form == "cr" else b"")


_FORMS = st.sampled_from(["canonical"] * 6 + ["+", "00", " ", "bed", "cr"])
_SKIPPED = st.sampled_from([b"", b"  ", b"#chr1\t1\t2\t+\t1\t2", b"#comment"])
_BAD = st.sampled_from([
    b"chr1\tx\t6\t+\t1\t2",  # start
    b"chr1\t5\t6\t+\t1",  # five columns
    b"chr1\t5\t5\t+\t1\t2",  # end not past start
    b"chr1\t5\t6\t+\t1\t101",  # meth_pct
    b"\t5\t6\t+\t1\t2",  # empty chromosome
    b"chr\xff\t5\t6\t+\t1\t2",  # not UTF-8
    b"chr1\t5\t6\t*\t1\t2\t3",  # BED-style, bad strand
])


@settings(deadline=None, max_examples=150)
@given(_vm_records, st.data())
def test_vm_sort_matches_the_record_sort(recs, data):
    order = data.draw(st.sampled_from(["shuffled", "presorted", "tied"]))
    if recs:
        recs += data.draw(st.lists(st.sampled_from(recs), max_size=10))  # duplicates
    if order == "tied":
        # every record on one (chromosome, start)
        recs = [r._replace(chrom=recs[0].chrom, start=7, end=7 + r.end - r.start) for r in recs]
    elif order == "presorted":
        recs.sort()
    lines = [_written(r, data.draw(_FORMS), data.draw(st.integers(0, 3))) for r in recs]
    for extra in data.draw(st.lists(st.one_of(_SKIPPED, _SKIPPED, _BAD), max_size=3)):
        lines.insert(data.draw(st.integers(min_value=0, max_value=len(lines))), extra)
    n_objects = data.draw(st.integers(min_value=1, max_value=4))
    objects = []
    for i in range(n_objects):
        payload = b"\n".join(lines[i::n_objects])
        if payload and data.draw(st.booleans()):
            payload += b"\n"
        objects.append((f"raw/{i:04d}", payload))
    w = data.draw(st.sampled_from([1, 3]))
    # chunk edges inside a chromosome's lines, a few lines per chunk
    chunk_bytes = data.draw(st.sampled_from([records_module.CHUNK_BYTES, 64, 200]))
    with mock.patch.object(records_module, "CHUNK_BYTES", chunk_bytes):
        assert vm_sort_outcome(objects, w) == oracle_outcome(objects, w)


def _int64_edge_records(case):
    """Records whose starts and ends reach the record domain's int64 edge, in input order."""
    if case == "int64-edges":
        spans = [(0, 10), (5, 15), (END_LIMIT - 12, END_LIMIT - 2), (END_LIMIT - 11, END_LIMIT - 1),
                 (END_LIMIT - 2, END_LIMIT - 1)]
        return [MethRecord(chrom, s, e, "+", 1, 2) for s, e in spans for chrom in ("chr2", "chr1")][::-1]
    if case == "edge-after-packed-chunks":
        # chr1's first chunks pack small starts; a later chunk holds the
        # largest start, and the chunks after it pack small ones again
        recs = [MethRecord("chr1", s, s + 1, "+", 1, 2) for s in range(300, 0, -1)]
        recs[200:200] = [MethRecord("chr1", END_LIMIT - 2, END_LIMIT - 1, "-", 3, 4)]
        return recs + [MethRecord("chr2", s, s + 1, "+", 1, 2) for s in range(50)]
    # lines tied on a start at the edge, ordered by the rest of the record
    return [
        MethRecord("chr1", s, s + span, strand, cov, 5)
        for s in (END_LIMIT - 10, 7) for span in (9, 1) for strand in "-+" for cov in (2, 1)
    ]


def _parse_error(call):
    with pytest.raises(ParseError) as caught:
        call()
    return caught.value.column, caught.value.reason


@pytest.mark.parametrize("case", ["int64-edges", "edge-after-packed-chunks", "ties-at-int64-edge"])
def test_vm_sort_matches_the_record_sort_at_the_int64_edge(case):
    # every start packs into int64; mapper, reducer and VM give the record sort
    recs = _int64_edge_records(case)
    objects = [(f"raw/{i:04d}", records_to_tsv(recs[i::2])) for i in range(2)]
    fragments = [(shuffle.partition_key("sort", i, 0), records_to_tsv(sorted(recs[i::3]))) for i in range(3)]
    expected = record_lines(sorted(r for _, payload in objects for r in tsv_to_records(payload)))
    with mock.patch.object(records_module, "CHUNK_BYTES", 64):
        assert shuffle.sort_lines(objects) == expected
        assert shuffle.merge_fragments(fragments) == b"".join(line + b"\n" for line in expected)
        assert vm_sort_outcome(objects, 3) == oracle_outcome(objects, 3)
        # an end of 2**63 is outside the record domain
        bad = records_to_tsv(recs[:5]) + b"chr1\t5\t%d\t+\t1\t2\n" % END_LIMIT
        objects.append(("raw/bad", bad))
        error = (3, f"end is not below 2**63: {END_LIMIT} in object 'raw/bad'")
        assert _parse_error(lambda: shuffle.sort_lines(objects)) == error
        assert _parse_error(
            lambda: [shuffle.parse_object(tsv_to_records, payload, key) for key, payload in objects]
        ) == error
        assert vm_sort_outcome(objects, 3) == oracle_outcome(objects, 3) == (ParseError, *error)
        # a blank line makes the fragment no mapper's output, so the
        # reducer falls back to the full parse
        fragments.append(("raw/bad", b"\n" + bad))
        assert _parse_error(lambda: shuffle.merge_fragments(fragments)) == error


def test_merge_fragments_orders_ties_by_key_and_falls_back_below_int64():
    # the reducer's light parse takes any int64 start: lines tied at -1
    # merge by the tie key, end 9 before end 10 though its line sorts after
    fragments = [
        ("raw/0", b"chr1\t-1\t10\t+\t1\t2\nchr1\t3\t4\t+\t1\t2\n"),
        ("raw/1", b"chr1\t-1\t9\t+\t1\t2\nchr1\t5\t6\t+\t1\t2\n"),
    ]
    assert shuffle.merge_fragments(fragments) == (
        b"chr1\t-1\t9\t+\t1\t2\nchr1\t-1\t10\t+\t1\t2\nchr1\t3\t4\t+\t1\t2\nchr1\t5\t6\t+\t1\t2\n"
    )
    # a start below int64 does not pack: the fragments take the fallback,
    # whose error is the one every full parse raises
    huge = -(2**64)
    fragments[0] = ("raw/0", f"chr1\t{huge}\t5\t+\t1\t2\n".encode() + fragments[0][1])
    error = (2, f"start is negative: {huge} in object 'raw/0'")
    assert _parse_error(lambda: shuffle.merge_fragments(fragments)) == error
    assert _parse_error(lambda: shuffle.sort_lines(fragments)) == error
    assert vm_sort_outcome(fragments, 3) == oracle_outcome(fragments, 3) == (ParseError, *error)


def test_vm_sort_stage_peaks_below_the_record_sort():
    # the VM holds each record as its canonical line plus an 8-byte packed
    # start, so its sort stage's traced peak stays under the record-tuple
    # sort's on the same presorted input
    objects = [
        (f"raw/{i:04d}", payload)
        for i, payload in enumerate(split_into_objects(generate_synthetic(20_000, seed=5), 4))
    ]
    store = Blobstore(FAST_STORE, clock=VirtualClock())
    for key, payload in objects:
        store.seed_object(key, payload)
    spec = two_stage_spec(profiles(store=FAST_STORE), exchange=ExchangeStrategy.VM, w=4)
    marks = {}

    def start(stage, name, worker):
        if (stage, name) == ("sort", "input_read"):
            marks["base"] = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
        elif stage == "enc" and "peak" not in marks:
            marks["peak"] = tracemalloc.get_traced_memory()[1] - marks["base"]

    tracemalloc.start()
    try:
        run_workflow(spec, Mode.EMULATED, store=store, options=EngineOptions(hooks=ExecHooks(on_task_start=start)))
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        outputs = oracle_vm_outputs(objects, 4)
        oracle_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert outputs == [store.get_object(k) for k, _ in store.list_prefix("sorted/sort/")]
    assert marks["peak"] < oracle_peak


@pytest.fixture
def gc_setting():
    """Restores the collector's setting whatever a test leaves it at."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _run_seeing_gc(mode, hooks=None):
    """Run a small workflow; returns gc.isenabled() at each progress event."""
    seen = []
    options = EngineOptions(progress=lambda event: seen.append(gc.isenabled()), hooks=hooks)
    if mode is Mode.MODELED:
        run_workflow(modeled_spec(), mode, options=options)
    else:
        store = seeded_store(generate_synthetic(2000, seed=4, shuffled=True), 4)
        run_workflow(two_stage_spec(w=4), mode, store=store, options=options)
    return seen


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_emulated_run_pauses_cyclic_gc_and_restores_it(enabled, gc_setting):
    gc.enable() if enabled else gc.disable()
    seen = _run_seeing_gc(Mode.EMULATED)
    assert seen and not any(seen)
    assert gc.isenabled() is enabled


def test_failed_emulated_run_restores_cyclic_gc(gc_setting):
    def explode(stage, phase, worker):
        raise RuntimeError("synthetic fault")

    gc.enable()
    with pytest.raises(ExecutionError):
        _run_seeing_gc(Mode.EMULATED, ExecHooks(on_task_start=explode))
    assert gc.isenabled()


def test_modeled_run_leaves_cyclic_gc_alone(gc_setting):
    gc.enable()
    seen = _run_seeing_gc(Mode.MODELED)
    assert seen and all(seen)
    assert gc.isenabled()


# --- modeled mode ----------------------------------------------------------------------------

def modeled_spec(exchange=ExchangeStrategy.SERVERLESS, parallelism=8):
    return WorkflowSpec(
        name="m",
        input=DataRef("data", "raw/", size_bytes=3.5e9, object_count=8),
        exchange=exchange,
        stages=(
            StageSpec("sort", StageKind.SORT_EXCHANGE),
            StageSpec("enc", StageKind.ENCODE, {"ratio": 10}),
        ),
        profiles=builtin_profiles(),
        parallelism=parallelism,
    )

def test_modeled_serverless_matches_direct_model():
    spec = modeled_spec()
    report = run_workflow(spec, Mode.MODELED)
    prof = spec.profiles
    sort_model = shuffle_latency_model(3.5e9, 8, 8, prof.store, prof.compute)
    enc_model = encode_latency_model(3.5e9, 8, 10, prof.store, prof.compute)
    assert report.stages[0].latency == sort_model
    assert report.stages[1].latency == enc_model
    assert report.end_to_end_s == sort_model.total + enc_model.total

def test_modeled_vm_matches_direct_model():
    spec = modeled_spec(exchange=ExchangeStrategy.VM)
    report = run_workflow(spec, Mode.MODELED)
    prof = spec.profiles
    assert report.stages[0].latency == vm_exchange_latency_model(
        3.5e9, 8, 8, prof.store, prof.compute
    )
    assert report.stages[0].vm_seconds == report.stages[0].latency.total

def test_modeled_requires_size_hint():
    spec = modeled_spec()
    bad = replace(spec, input=DataRef("data", "raw/"))
    with pytest.raises(ValidationError):
        run_workflow(bad, Mode.MODELED)

def test_modeled_counts_follow_laws():
    report = run_workflow(modeled_spec(), Mode.MODELED)
    sort_laws = request_laws(StageKind.SORT_EXCHANGE, ExchangeStrategy.SERVERLESS, 8, 8, 3.5e9)
    encode_laws = request_laws(StageKind.ENCODE, ExchangeStrategy.SERVERLESS, 8, 8, 3.5e9, ratio=10)
    assert [s.requests for s in report.stages] == [sort_laws, encode_laws]

def test_auto_parallelism_resolved_and_recorded():
    spec = modeled_spec(parallelism=None)
    report = run_workflow(spec, Mode.MODELED)
    prof = spec.profiles
    expected = optimal_worker_count(3.5e9, 8, prof.store, prof.compute, 256, 10)
    assert report.parallelism == expected

def test_auto_parallelism_emulated():
    records = generate_synthetic(4000, seed=13, shuffled=True)
    store = seeded_store(records, 4)
    spec = two_stage_spec(w=8)
    auto = replace(spec, parallelism=None, w_max=16)
    report = run_workflow(auto, Mode.EMULATED, store=store)
    size = sum(s for _, s in store.list_prefix("raw/")) - report.store_metrics.bytes_in
    expected = optimal_worker_count(
        sum(len(p) for p in split_into_objects(records, 4)), 4,
        spec.profiles.store, spec.profiles.compute, 16,
    )
    assert report.parallelism == expected


# --- model/emulator agreement ------------------------------------------------------------------

@pytest.mark.parametrize(
    "store_profile",
    [
        StoreProfile(0.002, 32e6, 2e9, 100_000.0),   # per-connection bandwidth binds
        StoreProfile(0.002, 64e6, 64e6, 100_000.0),  # aggregate cap saturated
    ],
    ids=["conn-bound", "aggregate-bound"],
)
def test_virtual_emulation_agrees_with_model(store_profile):
    records = generate_synthetic(120_000, seed=11, shuffled=True)
    payloads = split_into_objects(records, 8)
    S = sum(len(p) for p in payloads)
    compute = ComputeProfile(0.4, 2.0, 1e18, 1e18, 3.0, 96e6, 1e18)
    prof = Profiles(store_profile, compute, PriceSheet(0, 0, 0, 0, 0, 0))
    spec = two_stage_spec(prof, w=8, sort={"sample_bytes": 4096})
    store = Blobstore(store_profile, clock=VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i:04d}", payload)
    report = run_workflow(spec, Mode.EMULATED, store=store)

    sort_model = shuffle_latency_model(S, 8, 8, store_profile, compute)
    enc_model = encode_latency_model(S, 8, 10, store_profile, compute)
    sort_emulated = report.stages[0].latency
    enc_emulated = report.stages[1].latency
    checks = [
        (sort_model.startup, sort_emulated.startup),
        (sort_model.input_read, sort_emulated.input_read),
        (sort_model.partition_write, sort_emulated.partition_write),
        (sort_model.partition_read, sort_emulated.partition_read),
        (sort_model.output_write, sort_emulated.output_write),
        (enc_model.startup, enc_emulated.startup),
        (enc_model.input_read, enc_emulated.input_read),
    ]
    for modeled, emulated in checks:
        assert emulated == pytest.approx(modeled, rel=0.10), (modeled, emulated, checks)


# --- progress events -----------------------------------------------------------------------------

def test_progress_monotone_and_final_equals_total():
    records = generate_synthetic(4000, seed=14, shuffled=True)
    store = seeded_store(records, 4)
    events = []
    report = run_workflow(
        two_stage_spec(w=4),
        Mode.EMULATED,
        store=store,
        options=EngineOptions(progress=events.append),
    )
    assert events
    costs = [e["cost_so_far"] for e in events]
    assert all(a <= b + 1e-15 for a, b in zip(costs, costs[1:]))
    assert costs[-1] == report.cost.total
    assert events[-1]["phase"] == "done"
    for event in events:
        assert 0.0 <= event["fraction"] <= 1.0
        assert set(event) == {"stage", "phase", "fraction", "cost_so_far"}


def billed_so_far(stages, spec):
    """compute_cost of `stages` by the billing rule written out here: the VM
    sort stage bills VM time and the volume, every other stage its workers'
    busy time; the store counters are summed field by field."""
    busy_seconds, workers, vm_seconds, vol_gb = [], [], 0.0, 0.0
    for stage in stages:
        if stage.kind == "sort" and spec.exchange is ExchangeStrategy.VM:
            vm_seconds += stage.vm_seconds
            vol_gb = VM_VOLUME_GB
        else:
            busy_seconds.append(stage.busy_seconds)
            workers.append(stage.workers)
    metrics = StoreMetrics(
        **{f.name: sum(getattr(s.requests, f.name) for s in stages) for f in fields(StoreMetrics)}
    )
    prof = spec.profiles
    return compute_cost(busy_seconds, workers, metrics, vm_seconds, vol_gb, prof.prices, prof.compute)


@pytest.mark.parametrize("exchange", list(ExchangeStrategy))
@pytest.mark.parametrize("mode", list(Mode))
def test_progress_cost_is_compute_cost_of_recorded_stages_bit_for_bit(mode, exchange):
    spec = modeled_spec(exchange, parallelism=4)
    store = None
    if mode is Mode.EMULATED:
        spec = replace(spec, input=DataRef("data", "raw/"), profiles=profiles())
        store = seeded_store(generate_synthetic(3000, seed=16, shuffled=True), 4)
    events = []
    report = run_workflow(spec, mode, store=store, options=EngineOptions(progress=events.append))
    assert len(report.stages) == 2
    assert events[-1]["phase"] == "done"
    recorded = 0
    for event in events:
        if event["phase"] == "stage-complete":
            assert event["stage"] == report.stages[recorded].stage_id
            recorded += 1
        elif event["phase"] == "done":
            assert recorded == 2
        expected = billed_so_far(report.stages[:recorded], spec)
        assert event["cost_so_far"].hex() == expected.total.hex(), event
    assert report.cost == billed_so_far(report.stages, spec)
    assert recorded == 2


# --- misc -----------------------------------------------------------------------------------------

_BAD_SHAPES = [
    kinds
    for n in range(4)
    for kinds in itertools.product(list(StageKind), repeat=n)
    if kinds not in ((StageKind.SORT_EXCHANGE,), (StageKind.SORT_EXCHANGE, StageKind.ENCODE))
]


@pytest.mark.parametrize(
    "kinds", _BAD_SHAPES, ids=lambda kinds: "-".join(k.value for k in kinds) or "none"
)
@pytest.mark.parametrize("mode", list(Mode))
def test_stage_shapes_other_than_sort_then_encode_fail_before_any_request(mode, kinds):
    # a chained encode ([sort, encode, encode]) is one of these
    stages = tuple(StageSpec(f"s{i}", kind) for i, kind in enumerate(kinds))
    spec = replace(modeled_spec(parallelism=4), stages=stages, profiles=profiles())
    store = seeded_store(generate_synthetic(500, seed=15, shuffled=True), 4)
    before = store.store_metrics()
    with pytest.raises(ValidationError) as info:
        run_workflow(spec, mode, store=store)
    names = ", ".join(k.value for k in kinds)
    assert info.value.violations == [
        f"stage kinds must be [sort] or [sort, encode], got [{names}]" if kinds
        else "workflow has no stages"
    ]
    assert store.store_metrics() == before
    assert [key for key, _ in store.peek_prefix("")] == [f"raw/{i:04d}" for i in range(4)]

def test_report_json_round_trip():
    report = run_workflow(modeled_spec(), Mode.MODELED)
    assert parse_report(report_to_json(report)) == report

def test_busy_excludes_startup():
    report = run_workflow(modeled_spec(), Mode.MODELED)
    for stage in report.stages:
        assert stage.busy_seconds == pytest.approx(
            stage.latency.total - stage.latency.startup
        )
