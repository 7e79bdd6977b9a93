"""Acceptance criteria, one test per criterion.

Each test pins the criterion's stated tolerance and prints one
"ACCEPTANCE PASS" line when it holds (run with -s or -rP to see them).
"""

import json
import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.blobstore import Blobstore, StoreMetrics, StoreProfile, VirtualClock
from faaslab.cli import main as cli_main
from faaslab.engine import EngineOptions, Mode, run_workflow
from faaslab.methpipe import (
    MethRecord,
    baseline_compressed_size,
    decode_block,
    generate_synthetic,
    records_to_tsv,
    split_into_objects,
)
from faaslab.perfmodel import (
    ComputeProfile,
    PriceSheet,
    Profiles,
    builtin_profiles,
    encode_latency_model,
    optimal_worker_count,
    shuffle_latency_model,
)
from faaslab.workflow import (
    DataRef,
    ExchangeStrategy,
    StageKind,
    StageSpec,
    WorkflowSpec,
    parse_workflow,
    serialize_workflow,
    with_exchange,
)
from helpers import encode_records

REF_SERVERLESS_S = 83.32
REF_VM_S = 142.77
REF_SERVERLESS_COST = 0.008
REF_VM_COST = 0.010


def two_stage_spec(profiles, exchange=ExchangeStrategy.SERVERLESS, w=8, input_ref=None):
    return WorkflowSpec(
        name="acceptance",
        input=input_ref or DataRef("data", "raw/"),
        exchange=exchange,
        stages=(
            StageSpec("sort", StageKind.SORT_EXCHANGE),
            StageSpec("enc", StageKind.ENCODE, {"ratio": 10}),
        ),
        profiles=profiles,
        parallelism=w,
    )


def seeded_store(payloads, profile, clock=None):
    store = Blobstore(profile, clock=clock or VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i:04d}", payload)
    return store


def decoded_outputs(store, stage_id="enc"):
    out = []
    for key, _ in store.peek_prefix(f"encoded/{stage_id}/"):
        out.extend(decode_block(store.get_object(key)))
    return out


# --- criterion 1: reference-scale modeled compare ------------------------------------

def test_criterion_table1_reproduction(tmp_path, capsys):
    wf = tmp_path / "paper.json"
    wf.write_text(
        json.dumps(
            {
                "version": "v1",
                "name": "paper-scale",
                "input": {"bucket": "data", "prefix": "raw/", "size_bytes": 3.5e9, "objects": 8},
                "exchange": "serverless",
                "parallelism": 8,
                "stages": [
                    {"id": "sort", "kind": "sort"},
                    {"id": "encode", "kind": "encode", "options": {"ratio": 10}},
                ],
            }
        )
    )
    t0 = time.perf_counter()
    code = cli_main(["compare", "--workflow", str(wf), "--mode", "model", "--json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    rows = {row["configuration"]: row for row in payload["rows"]}
    serverless = rows["purely serverless"]
    vm = rows["VM-supported"]

    assert abs(serverless["latency_s"] - REF_SERVERLESS_S) <= 0.25 * REF_SERVERLESS_S
    assert abs(vm["latency_s"] - REF_VM_S) <= 0.25 * REF_VM_S
    assert abs(serverless["cost"] - REF_SERVERLESS_COST) <= 0.50 * REF_SERVERLESS_COST
    assert abs(vm["cost"] - REF_VM_COST) <= 0.50 * REF_VM_COST
    assert serverless["latency_s"] < vm["latency_s"]
    assert elapsed < 1.0

    print(
        f"\nACCEPTANCE PASS: table-1 reproduction "
        f"(serverless {serverless['latency_s']:.2f}s/${serverless['cost']:.4f}, "
        f"vm {vm['latency_s']:.2f}s/${vm['cost']:.4f}, {elapsed:.3f}s runtime)"
    )


# --- criterion 2: desk-scale emulated ordering ------------------------------------------

def test_criterion_desk_scale_emulated_ordering():
    profiles = builtin_profiles("desk-v1")
    records = generate_synthetic(2_200_000, seed=7, shuffled=True)
    payloads = split_into_objects(records, 8)
    total = sum(len(p) for p in payloads)
    assert 60e6 <= total <= 70e6  # ~64 MB

    t0 = time.perf_counter()
    results = {}
    for exchange in (ExchangeStrategy.SERVERLESS, ExchangeStrategy.VM):
        store = seeded_store(payloads, profiles.store)
        spec = two_stage_spec(profiles, exchange=exchange)
        results[exchange] = run_workflow(spec, Mode.EMULATED, store=store)
    elapsed = time.perf_counter() - t0

    serverless = results[ExchangeStrategy.SERVERLESS].end_to_end_s
    vm = results[ExchangeStrategy.VM].end_to_end_s
    assert serverless < vm
    assert elapsed < 120.0

    print(
        f"\nACCEPTANCE PASS: desk-scale emulated ordering "
        f"(serverless {serverless:.2f}s < vm {vm:.2f}s; ran in {elapsed:.1f}s)"
    )


# --- criterion 3: sort correctness against the oracle --------------------------------------

def test_criterion_sort_correctness_both_strategies():
    profile = StoreProfile(0.0, math.inf, math.inf, math.inf)
    compute = ComputeProfile(0.0, 2.0, 1e18, 1e18, 0.0, 1e18, 1e18)
    profiles = Profiles(profile, compute, PriceSheet(0, 0, 0, 0, 0, 0))
    rng = random.Random(101)
    records = [
        MethRecord(
            f"chr{rng.randrange(1, 23)}",
            rng.randrange(0, 10**8),
            0,
            rng.choice("+-"),
            rng.randrange(0, 1000),
            rng.randrange(0, 101),
        )
        for _ in range(100_000)
    ]
    records = [r._replace(end=r.start + rng.randrange(1, 3)) for r in records]
    oracle = sorted(records)
    payloads = split_into_objects(records, 8)

    t0 = time.perf_counter()
    outputs = {}
    for exchange in (ExchangeStrategy.SERVERLESS, ExchangeStrategy.VM):
        store = seeded_store(payloads, profile)
        run_workflow(two_stage_spec(profiles, exchange=exchange), Mode.EMULATED, store=store)
        outputs[exchange] = decoded_outputs(store)
    elapsed = time.perf_counter() - t0

    assert outputs[ExchangeStrategy.SERVERLESS] == oracle
    assert outputs[ExchangeStrategy.VM] == oracle
    assert sorted(outputs[ExchangeStrategy.SERVERLESS]) == oracle  # permutation, trivially
    assert elapsed < 30.0

    print(
        f"\nACCEPTANCE PASS: sort correctness, both strategies equal the "
        f"single-node oracle on 100000 records ({elapsed:.1f}s)"
    )


# --- criterion 4: request-count laws ----------------------------------------------------------

def test_criterion_request_count_laws():
    profiles = builtin_profiles("desk-v1")
    records = generate_synthetic(20_000, seed=4, shuffled=True)
    store = seeded_store(split_into_objects(records, 8), profiles.store)
    report = run_workflow(two_stage_spec(profiles), Mode.EMULATED, store=store)
    sort_stage, enc_stage = report.stages

    assert sort_stage.requests.get_count == 2 * 8 + 64 == 80
    assert sort_stage.requests.put_count == 64 + 8 == 72
    assert enc_stage.requests.get_count == 8
    assert enc_stage.requests.put_count == 8

    print(
        "\nACCEPTANCE PASS: request-count laws "
        "(sort GET=80 PUT=72, encode GET=8 PUT=8, exact)"
    )


# --- criterion 5: optimizer equals exhaustive scan ----------------------------------------------

def test_criterion_optimizer_oracle():
    def brute_force(S, n_in, store_profile, compute_profile, w_max, ratio=10.0):
        best_w, best_total = 1, math.inf
        for w in range(1, w_max + 1):
            total = (
                shuffle_latency_model(S, w, n_in, store_profile, compute_profile).total
                + encode_latency_model(S, w, ratio, store_profile, compute_profile).total
            )
            if total < best_total:
                best_w, best_total = w, total
        return best_w

    rng = random.Random(424242)
    for case in range(20):
        b = rng.uniform(10e6, 500e6)
        store_profile = StoreProfile(
            rng.uniform(0, 0.2), b, b * rng.uniform(1, 32), rng.uniform(10, 1e5)
        )
        compute_profile = ComputeProfile(
            rng.uniform(0, 20), 2.0,
            rng.uniform(5e6, 200e6), rng.uniform(5e6, 200e6),
            rng.uniform(0, 60), rng.uniform(50e6, 1e9), rng.uniform(5e6, 500e6),
        )
        S = rng.uniform(1e8, 2e10)
        n_in = rng.randrange(1, 64)
        got = optimal_worker_count(S, n_in, store_profile, compute_profile, 64)
        want = brute_force(S, n_in, store_profile, compute_profile, 64)
        assert got == want, f"case {case}: {got} != {want}"

    # analytic limit cases
    inf = math.inf
    bandwidth_only = StoreProfile(0.0, 100e6, inf, inf)
    comp = ComputeProfile(1.0, 2.0, 50e6, 100e6, 5.0, 200e6, 80e6)
    assert optimal_worker_count(1e10, 8, bandwidth_only, comp, 64) == 64
    request_dominated = StoreProfile(0.0, inf, inf, 0.5)
    comp_inf = ComputeProfile(1.0, 2.0, 1e18, 1e18, 5.0, 200e6, 80e6)
    assert optimal_worker_count(1e9, 8, request_dominated, comp_inf, 64) == 1

    print(
        "\nACCEPTANCE PASS: optimizer equals exhaustive argmin on 20 random "
        "profiles (w_max=64) plus both analytic limit cases"
    )


# --- criterion 6: codec round-trip and compression -------------------------------------------------

_record_strategy = st.builds(
    MethRecord,
    chrom=st.sampled_from(["chr1", "chr2", "chr10", "chrX"]),
    start=st.integers(min_value=0, max_value=2**40),
    end=st.integers(min_value=1, max_value=1000),
    strand=st.sampled_from(["+", "-"]),
    coverage=st.integers(min_value=0, max_value=10**6),
    meth_pct=st.integers(min_value=0, max_value=100),
).map(lambda r: r._replace(end=r.start + max(1, r.end)))

@settings(deadline=None, max_examples=1000)
@given(st.lists(_record_strategy, max_size=60))
def test_criterion_codec_round_trip_property(records):
    records = sorted(records)
    assert decode_block(encode_records(records)) == records

def test_criterion_codec_round_trip_bulk_and_compression():
    records = generate_synthetic(20_000, seed=77)
    assert decode_block(encode_records(records)) == records

    text = records_to_tsv(records)
    encoded_size = len(encode_records(records))
    baseline = baseline_compressed_size(text)
    ratio = encoded_size / baseline
    assert ratio <= 0.5

    print(
        f"\nACCEPTANCE PASS: codec round-trip (1000 property cases + 20000-record bulk) "
        f"and encoded size = {ratio:.3f} x gzip of the text form (<= 0.5)"
    )


# --- criterion 7: accounting conservation -----------------------------------------------------------

def test_criterion_accounting_conservation():
    profiles = builtin_profiles("desk-v1")
    records = generate_synthetic(30_000, seed=8, shuffled=True)
    payloads = split_into_objects(records, 8)

    for exchange in (ExchangeStrategy.SERVERLESS, ExchangeStrategy.VM):
        store = seeded_store(payloads, profiles.store)
        before = store.store_metrics()
        report = run_workflow(two_stage_spec(profiles, exchange=exchange), Mode.EMULATED, store=store)
        after = store.store_metrics()

        summed = StoreMetrics()
        for stage in report.stages:
            summed = summed + stage.requests
        assert summed == report.store_metrics
        assert after - before == summed

        cost = report.cost
        assert cost.total == (
            cost.fn_compute + cost.storage_requests + cost.vm_time
            + cost.vm_volume + cost.invocations
        )
        assert report.end_to_end_s == sum(s.latency.total for s in report.stages)

    modeled = run_workflow(
        two_stage_spec(
            builtin_profiles(),
            input_ref=DataRef("data", "raw/", size_bytes=3.5e9, object_count=8),
        ),
        Mode.MODELED,
    )
    summed = StoreMetrics()
    for stage in modeled.stages:
        summed = summed + stage.requests
    assert summed == modeled.store_metrics
    assert modeled.cost.total == (
        modeled.cost.fn_compute + modeled.cost.storage_requests + modeled.cost.vm_time
        + modeled.cost.vm_volume + modeled.cost.invocations
    )
    assert modeled.end_to_end_s == sum(s.latency.total for s in modeled.stages)

    print(
        "\nACCEPTANCE PASS: accounting conservation (stage deltas == final "
        "counters, cost components == total, end-to-end == stage sum; "
        "emulated both strategies + modeled)"
    )
