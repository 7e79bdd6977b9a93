"""Engine tests: stage mechanics, determinism, accounting, agreement."""

import json
import math
from dataclasses import replace

import pytest

from faaslab.blobstore import Blobstore, StoreMetrics, StoreProfile, VirtualClock
from faaslab.engine import (
    EngineOptions,
    ExecHooks,
    Mode,
    RunReport,
    request_laws,
    run_workflow,
)
from faaslab.errors import (
    ExecutionError,
    MemoryBudgetError,
    ParseError,
    TaskError,
    ValidationError,
)
from faaslab.methpipe import decode_block, generate_synthetic, records_to_tsv, split_into_objects
from faaslab.perfmodel import (
    ComputeProfile,
    PriceSheet,
    Profiles,
    builtin_profiles,
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


def decoded_outputs(store, stage_id="enc"):
    out = []
    for key, _ in store.list_prefix(f"encoded/{stage_id}/"):
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
    "exchange, worker, phase",
    [(ExchangeStrategy.SERVERLESS, 4, "input_read"), (ExchangeStrategy.VM, 0, "sort_compute")],
    ids=["sampler", "vm"],
)
def test_parse_error_names_stage(exchange, worker, phase):
    # serverless: object 0's sampler (worker w + 0) parses the bad line
    # first and names the object; VM: the one VM task parses it in
    # sort_compute
    payloads = split_into_objects(generate_synthetic(2000, seed=18, shuffled=True), 4)
    payloads[0] = b"chr1\tx\t5\t+\t1\t2\n" + payloads[0]
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
        assert "raw/0000" in str(err.value)
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


def test_external_sort_parse_error_names_object():
    # about 100 KB of input over a 10 KB VM budget takes the external
    # sort, whose one task parses every object in sort_compute
    payloads = split_into_objects(generate_synthetic(4000, seed=18, shuffled=True), 4)
    payloads[1] += b"chr1\tx\t5\t+\t1\t2\n"
    store = Blobstore(DESK_STORE, clock=VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i:04d}", payload)
    spec = two_stage_spec(exchange=ExchangeStrategy.VM, w=4)
    options = EngineOptions(vm_mem_gb=1e-5, external_sort=True)
    with pytest.raises(ExecutionError) as err:
        run_workflow(spec, Mode.EMULATED, store=store, options=options)
    cause = err.value.cause
    assert isinstance(cause, TaskError)
    assert (cause.worker, cause.phase) == (0, "sort_compute")
    assert isinstance(cause.cause, ParseError)
    assert cause.cause.column == 2
    assert "raw/0001" in str(err.value)
    assert store.list_prefix("sorted/sort/") == []


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

def test_vm_budget_enforced_and_fallback():
    records = generate_synthetic(5000, seed=11, shuffled=True)
    store = seeded_store(records, 4)
    spec = two_stage_spec(exchange=ExchangeStrategy.VM, w=4)
    with pytest.raises(ExecutionError) as err:
        run_workflow(
            spec, Mode.EMULATED, store=store, options=EngineOptions(vm_mem_gb=1e-7)
        )
    assert isinstance(err.value.cause, MemoryBudgetError)

    store2 = seeded_store(records, 4)
    report = run_workflow(
        spec,
        Mode.EMULATED,
        store=store2,
        options=EngineOptions(vm_mem_gb=1e-4, external_sort=True),
    )
    assert decoded_outputs(store2) == sorted(records)
    assert report.stages[0].requests.get_count == 4

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


# --- misc -----------------------------------------------------------------------------------------

def test_encode_chain_re_encodes_blocks():
    records = generate_synthetic(2000, seed=15, shuffled=True)
    store = seeded_store(records, 4)
    spec = WorkflowSpec(
        name="chain",
        input=DataRef("data", "raw/"),
        exchange=ExchangeStrategy.SERVERLESS,
        stages=(
            StageSpec("sort", StageKind.SORT_EXCHANGE),
            StageSpec("e1", StageKind.ENCODE),
            StageSpec("e2", StageKind.ENCODE),
        ),
        profiles=profiles(),
        parallelism=4,
    )
    run_workflow(spec, Mode.EMULATED, store=store)
    assert decoded_outputs(store, "e2") == sorted(records)

def test_report_json_round_trip():
    report = run_workflow(modeled_spec(), Mode.MODELED)
    assert parse_report(report_to_json(report)) == report

def test_busy_excludes_startup():
    report = run_workflow(modeled_spec(), Mode.MODELED)
    for stage in report.stages:
        assert stage.busy_seconds == pytest.approx(
            stage.latency.total - stage.latency.startup
        )
