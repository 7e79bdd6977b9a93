"""Analytic model tests: closed forms, monotonicity, optimizer oracle, cost."""

import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.blobstore import StoreMetrics, StoreProfile
from faaslab.errors import DomainError, SchemaError
from faaslab import perfmodel
from faaslab.perfmodel import (
    CALIBRATED_PROFILE,
    DESK_PROFILE,
    ComputeProfile,
    CostBreakdown,
    LatencyBreakdown,
    PriceSheet,
    builtin_profiles,
    compute_cost,
    encode_latency_model,
    load_profiles,
    optimal_worker_count,
    parse_profiles,
    profiles_to_dict,
    shuffle_latency_model,
    vm_exchange_latency_model,
)
from faaslab.workflow import W_MAX_LIMIT

INF = math.inf
GB = 1e9


def store(L=0.0, b=INF, A=None, R=INF):
    return StoreProfile(L, b, A if A is not None else b, R)


def compute(
    fn_startup=1.0,
    c_fn=50e6,
    c_enc=100e6,
    vm_provision=5.0,
    b_vm=200e6,
    c_vm=80e6,
):
    return ComputeProfile(fn_startup, 2.0, c_fn, c_enc, vm_provision, b_vm, c_vm)


# --- shuffle model -------------------------------------------------------------

def test_shuffle_unshaped_closed_form():
    S, w, b, c_fn = 8e9, 8, 100e6, 25e6
    got = shuffle_latency_model(S, w, 8, store(b=b, A=INF), compute(c_fn=c_fn))
    expected = 1.0 + 4 * S / (w * b) + S / (w * c_fn)
    assert got.total == pytest.approx(expected, rel=1e-12)

def test_shuffle_single_worker_penalty_is_one_over_r():
    S, b, R = 1e9, 100e6, 100.0
    got = shuffle_latency_model(S, 1, 1, store(b=b, R=R), compute())
    assert got.partition_write == pytest.approx(max(S / b + 0.0, 1 / R))
    assert got.partition_read == got.partition_write

def test_shuffle_aggregate_cap_binds():
    S, w = 8e9, 8
    profile = store(b=100e6, A=400e6)
    got = shuffle_latency_model(S, w, 8, profile, compute())
    # e(w) = A/w = 50 MB/s < b
    assert got.input_read == pytest.approx((S / w) / 50e6)

def test_shuffle_request_floor_binds():
    profile = store(b=INF, A=INF, R=10.0)
    got = shuffle_latency_model(1e9, 8, 8, profile, compute(c_fn=INF))
    assert got.partition_write == pytest.approx(64 / 10.0)

def test_shuffle_latency_counts_input_batches():
    profile = store(L=0.5, b=INF, A=INF)
    got = shuffle_latency_model(1e9, 4, 10, profile, compute(c_fn=INF))
    # ceil(10/4) = 3 serial GETs per worker
    assert got.input_read == pytest.approx(1.5)

@pytest.mark.parametrize("bad", [dict(S=0), dict(w=0), dict(n_in=0)])
def test_shuffle_domain_errors(bad):
    kwargs = dict(S=1e9, w=4, n_in=4)
    kwargs.update(bad)
    with pytest.raises(DomainError):
        shuffle_latency_model(kwargs["S"], kwargs["w"], kwargs["n_in"], store(b=1e6), compute())


# --- vm model ---------------------------------------------------------------------

def test_vm_cap_coincidence():
    S = 2e9
    profile = store(b=150e6, A=150e6)
    got = vm_exchange_latency_model(S, 4, 8, profile, compute(b_vm=150e6))
    assert got.input_read == pytest.approx(S / 150e6 + 4 * 0.0)
    assert got.output_write == pytest.approx(S / 150e6)

def test_vm_unshaped_closed_form():
    S, b_vm, c_vm = 2e9, 200e6, 80e6
    got = vm_exchange_latency_model(S, 4, 8, store(b=INF), compute(vm_provision=0.0, b_vm=b_vm, c_vm=c_vm))
    assert got.total == pytest.approx(2 * S / b_vm + S / c_vm)
    assert got.partition_write == 0.0
    assert got.partition_read == 0.0

def test_vm_domain_error():
    with pytest.raises(DomainError):
        vm_exchange_latency_model(0, 1, 1, store(b=1e6), compute())


# --- encode model --------------------------------------------------------------------

def test_encode_infinite_ratio_leaves_latency_only():
    profile = store(L=0.25, b=100e6, A=INF)
    got = encode_latency_model(1e9, 4, 1e15, profile, compute())
    assert got.output_write == pytest.approx(0.25, rel=1e-6)

def test_encode_worker_scaling():
    profile = store(b=100e6, A=INF)
    four = encode_latency_model(1e9, 4, 10, profile, compute())
    eight = encode_latency_model(1e9, 8, 10, profile, compute())
    assert eight.input_read == pytest.approx(four.input_read / 2)

def test_encode_ratio_below_one_rejected():
    with pytest.raises(DomainError):
        encode_latency_model(1e9, 4, 0.5, store(b=1e6), compute())


# --- breakdown invariants ------------------------------------------------------------

def test_latency_total_is_exact_component_sum():
    got = shuffle_latency_model(3.5e9, 8, 8, store(L=0.02, b=100e6, A=800e6, R=2000), compute())
    assert got.total == (
        got.startup + got.input_read + got.sort_compute
        + got.partition_write + got.partition_read + got.output_write + got.encode
    )

def test_cost_total_is_exact_component_sum():
    cost = CostBreakdown(0.1, 0.2, 0.3, 0.4, 0.5)
    assert cost.total == 0.1 + 0.2 + 0.3 + 0.4 + 0.5


# --- monotonicity properties -----------------------------------------------------------

_param = st.floats(min_value=1e5, max_value=1e12, allow_nan=False)

@settings(deadline=None, max_examples=60)
@given(
    S=st.floats(min_value=1e6, max_value=1e11),
    w=st.integers(min_value=1, max_value=64),
    n_in=st.integers(min_value=1, max_value=64),
    L=st.floats(min_value=0, max_value=1.0),
    b=_param,
    A_scale=st.floats(min_value=1.0, max_value=100.0),
    R=st.floats(min_value=0.1, max_value=1e6),
    c_fn=_param,
    factor=st.floats(min_value=1.01, max_value=100.0),
)
def test_shuffle_monotonicity(S, w, n_in, L, b, A_scale, R, c_fn, factor):
    A = b * A_scale
    base_store = StoreProfile(L, b, A, R)
    base = shuffle_latency_model(S, w, n_in, base_store, compute(c_fn=c_fn)).total

    assert shuffle_latency_model(S, w, n_in, StoreProfile(L, b * factor, max(A, b * factor), R), compute(c_fn=c_fn)).total <= base + 1e-9
    assert shuffle_latency_model(S, w, n_in, StoreProfile(L, b, A * factor, R), compute(c_fn=c_fn)).total <= base + 1e-9
    assert shuffle_latency_model(S, w, n_in, StoreProfile(L, b, A, R * factor), compute(c_fn=c_fn)).total <= base + 1e-9
    assert shuffle_latency_model(S, w, n_in, base_store, compute(c_fn=c_fn * factor)).total <= base + 1e-9
    assert shuffle_latency_model(S, w, n_in, StoreProfile(L * factor, b, A, R), compute(c_fn=c_fn)).total >= base - 1e-9
    assert shuffle_latency_model(S * factor, w, n_in, base_store, compute(c_fn=c_fn)).total >= base - 1e-9


# --- optimizer ------------------------------------------------------------------------

def brute_force_w(S, n_in, store_profile, compute_profile, w_max, ratio=10.0):
    best_w, best_total = 1, math.inf
    for w in range(1, w_max + 1):
        total = (
            shuffle_latency_model(S, w, n_in, store_profile, compute_profile).total
            + encode_latency_model(S, w, ratio, store_profile, compute_profile).total
        )
        if total < best_total:
            best_w, best_total = w, total
    return best_w

def test_optimizer_bandwidth_only_prefers_w_max():
    assert optimal_worker_count(1e10, 8, store(b=100e6), compute(), 32) == 32

def test_optimizer_request_dominated_prefers_one():
    profile = store(b=INF, A=INF, R=0.5)
    assert optimal_worker_count(1e9, 8, profile, compute(c_fn=INF, c_enc=INF), 32) == 1

def test_optimizer_matches_brute_force_on_random_profiles():
    rng = random.Random(20240317)
    for _ in range(20):
        b = rng.uniform(10e6, 500e6)
        profile = StoreProfile(
            rng.uniform(0, 0.2),
            b,
            b * rng.uniform(1, 32),
            rng.uniform(10, 1e5),
        )
        comp = compute(
            fn_startup=rng.uniform(0, 20),
            c_fn=rng.uniform(5e6, 200e6),
            c_enc=rng.uniform(5e6, 200e6),
        )
        S = rng.uniform(1e8, 2e10)
        n_in = rng.randrange(1, 64)
        assert optimal_worker_count(S, n_in, profile, comp, 64) == brute_force_w(
            S, n_in, profile, comp, 64
        )

def regime_profiles(rng, regime):
    """A (store, compute) pair whose scan at large w is bound by `regime`.

    Compute rates are infinite a quarter of the time.
    """
    def rate(lo, hi):
        return INF if rng.random() < 0.25 else rng.uniform(lo, hi)

    if regime == "conn":
        b = rng.uniform(10e6, 200e6)
        profile = StoreProfile(rng.uniform(0, 0.005), b, rng.choice([INF, b * 300]), rng.choice([INF, 1e6]))
    elif regime == "aggregate":
        b = rng.uniform(50e6, 500e6)
        profile = StoreProfile(rng.uniform(0, 0.005), b, b * rng.uniform(1, 8), rng.choice([INF, 1e6]))
    elif regime == "ops":
        b = rng.choice([INF, rng.uniform(50e6, 500e6)])
        profile = StoreProfile(rng.uniform(0, 0.01), b, INF, rng.uniform(1, 200))
    else:
        profile = StoreProfile(rng.uniform(0.05, 1.0), INF, INF, INF)
    comp = compute(
        fn_startup=rng.uniform(0, 20), c_fn=rate(5e6, 200e6), c_enc=rate(5e6, 200e6)
    )
    return profile, comp


def regime_binds(regime, S, profile):
    """Whether `regime` is what bounds the scan at w = 256."""
    e = bandwidth_per_worker(256, profile)
    if regime == "conn":
        return e == profile.conn_bandwidth < INF
    if regime == "aggregate":
        return e == profile.aggregate_bandwidth / 256 < profile.conn_bandwidth
    if regime == "ops":
        return 256 * 256 / profile.ops_rate_cap > S / 256 / e + 256 * profile.req_latency
    return e == INF and profile.req_latency > 0

# The documented phase formulas, written out independently of perfmodel's
# generator: e(w) = min(b, A/w) per worker, each worker's share S/w, a
# w^2/R request floor on the partition phases, ceil(n_in/w) input batches.

def bandwidth_per_worker(w, profile):
    return min(profile.conn_bandwidth, profile.aggregate_bandwidth / w)


def closed_form_shuffle(S, w, n_in, profile, comp):
    e = bandwidth_per_worker(w, profile)
    L = profile.req_latency
    partition = max(S / w / e + w * L, w * w / profile.ops_rate_cap)
    return LatencyBreakdown(
        startup=comp.fn_startup,
        input_read=S / w / e + math.ceil(n_in / w) * L,
        sort_compute=S / w / comp.fn_sort_rate,
        partition_write=partition,
        partition_read=partition,
        output_write=S / w / e + L,
    )


def closed_form_encode(S, w, ratio, profile, comp):
    e = bandwidth_per_worker(w, profile)
    L = profile.req_latency
    return LatencyBreakdown(
        startup=comp.fn_startup,
        input_read=S / w / e + L,
        output_write=S / ratio / w / e + L,
        encode=S / w / comp.fn_encode_rate,
    )


def hex_phases(breakdown):
    return {name: value.hex() for name, value in breakdown.as_dict().items()}


@pytest.mark.parametrize("regime", ["conn", "aggregate", "ops", "latency"])
def test_public_models_are_the_documented_closed_form_bit_for_bit(regime):
    rng = random.Random(f"closed-form-{regime}")
    for _ in range(25):
        profile, comp = regime_profiles(rng, regime)
        S = 10 ** rng.uniform(6, 11)
        n_in = rng.choice((1, 7, 64, 300))
        ratio = rng.choice((1.0, 2.5, 7.75, 10.0, 1e6))
        assert regime_binds(regime, S, profile)
        for w in range(1, 257):
            assert hex_phases(shuffle_latency_model(S, w, n_in, profile, comp)) == hex_phases(
                closed_form_shuffle(S, w, n_in, profile, comp)
            ), w
            assert hex_phases(encode_latency_model(S, w, ratio, profile, comp)) == hex_phases(
                closed_form_encode(S, w, ratio, profile, comp)
            ), w

@pytest.mark.parametrize("regime", ["conn", "aggregate", "ops", "latency"])
def test_scan_totals_are_the_public_models_bit_for_bit(regime):
    rng = random.Random(f"scan-{regime}")
    for _ in range(25):
        profile, comp = regime_profiles(rng, regime)
        S = 10 ** rng.uniform(6, 11)
        n_in = rng.choice((1, 7, 64, 300))
        ratio = rng.choice((1.0, 2.5, 7.75, 10.0, 1e6))
        assert regime_binds(regime, S, profile)
        totals = list(perfmodel._scan_totals(S, n_in, profile, comp, 256, ratio))
        assert len(totals) == 256
        for w, total in enumerate(totals, 1):
            expected = (
                shuffle_latency_model(S, w, n_in, profile, comp).total
                + encode_latency_model(S, w, ratio, profile, comp).total
            )
            assert total.hex() == expected.hex(), (w, total, expected)
        assert optimal_worker_count(S, n_in, profile, comp, 256, ratio) == brute_force_w(
            S, n_in, profile, comp, 256, ratio
        )

@pytest.mark.parametrize("regime", ["conn", "aggregate", "ops", "latency"])
def test_scan_is_the_latency_curve_and_auto_takes_its_first_minimum(regime):
    rng = random.Random(f"curve-{regime}")
    for _ in range(25):
        profile, comp = regime_profiles(rng, regime)
        S = 10 ** rng.uniform(6, 11)
        n_in = rng.choice((1, 7, 64, 300))
        ratio = rng.choice((1.0, 2.5, 7.75, 10.0, 1e6))
        w_max = rng.choice((1, 17, 256))
        totals = perfmodel._scan_totals(S, n_in, profile, comp, w_max, ratio)
        assert type(totals) is list and len(totals) == w_max
        assert all(type(total) is float for total in totals)
        assert optimal_worker_count(S, n_in, profile, comp, w_max, ratio) == totals.index(min(totals)) + 1
    # the whole range a workflow may declare
    S, n_in = 10 ** rng.uniform(6, 11), rng.choice((1, 7, 64, 300))
    assert optimal_worker_count(S, n_in, profile, comp, W_MAX_LIMIT) == brute_force_w(
        S, n_in, profile, comp, W_MAX_LIMIT
    )

def test_scan_keeps_the_connection_bandwidth_where_the_aggregate_share_ties_it():
    # A = 8b: A/w == b exactly at w = 8, where min(b, A/w) keeps b
    b = 100e6
    profile = StoreProfile(0.01, b, 8 * b, 3500.0)
    comp = compute()
    S, n_in, ratio = 3.5e9, 8, 10.0
    assert profile.aggregate_bandwidth / 8 == profile.conn_bandwidth
    totals = perfmodel._scan_totals(S, n_in, profile, comp, 64, ratio)
    for w, total in enumerate(totals, 1):
        expected = (
            closed_form_shuffle(S, w, n_in, profile, comp).total
            + closed_form_encode(S, w, ratio, profile, comp).total
        )
        assert total.hex() == expected.hex(), w
    assert optimal_worker_count(S, n_in, profile, comp, 64, ratio) == brute_force_w(
        S, n_in, profile, comp, 64, ratio
    )

@pytest.mark.parametrize(
    "overrides, message",
    [
        (dict(ratio=0.5), "compression ratio must be >= 1, got 0.5"),
        (dict(w_max=0), "w_max must be >= 1, got 0"),
        (dict(S=0.0), "S must be > 0, got 0.0"),
        (dict(n_in=0), "n_in must be > 0, got 0"),
        (dict(w_max=0, S=0.0, ratio=0.5), "w_max must be >= 1, got 0"),
        (dict(S=0.0, ratio=0.5), "S must be > 0, got 0.0"),
        (dict(n_in=0, ratio=0.5), "n_in must be > 0, got 0"),
    ],
)
def test_optimizer_domain_errors_keep_their_order_and_messages(overrides, message):
    args = dict(S=1e9, n_in=8, w_max=16, ratio=10.0)
    args.update(overrides)
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        optimal_worker_count(args["S"], args["n_in"], store(b=1e6), compute(), args["w_max"], args["ratio"])

def test_optimizer_tie_breaks_to_smaller_w():
    # latency independent of w: everything infinite except startup
    profile = store(b=INF, A=INF, R=INF)
    comp = compute(c_fn=INF, c_enc=INF)
    assert optimal_worker_count(1e9, 1, profile, comp, 16) == 1


# --- cost ------------------------------------------------------------------------------

def test_cost_zero_prices():
    prices = PriceSheet(0, 0, 0, 0, 0, 0)
    cost = compute_cost([10.0], [8], StoreMetrics(put_count=5, get_count=5), 100.0, 50.0, prices, compute())
    assert cost.total == 0.0

def test_cost_fn_compute_arithmetic():
    prices = PriceSheet(0.000017, 0, 0, 0, 0, 0)
    cost = compute_cost([30.0], [8], StoreMetrics(), 0.0, 0.0, prices, compute())
    assert cost.fn_compute == pytest.approx(0.00816)

def test_cost_components():
    prices = PriceSheet(1e-5, 1e-6, 2e-6, 3e-7, 1e-4, 1e-8)
    metrics = StoreMetrics(put_count=100, get_count=200)
    cost = compute_cost([10.0, 20.0], [4, 8], metrics, 50.0, 100.0, prices, compute())
    assert cost.fn_compute == pytest.approx((4 * 10 + 8 * 20) * 2.0 * 1e-5)
    assert cost.storage_requests == pytest.approx(100 * 2e-6 + 200 * 3e-7)
    assert cost.vm_time == pytest.approx(50.0 * 1e-4)
    assert cost.vm_volume == pytest.approx(100.0 * 50.0 * 1e-8)
    assert cost.invocations == pytest.approx(12 * 1e-6)
    assert cost.total == pytest.approx(
        cost.fn_compute + cost.storage_requests + cost.vm_time + cost.vm_volume + cost.invocations
    )

def test_cost_rejects_misaligned_stages():
    with pytest.raises(DomainError):
        compute_cost([1.0], [1, 2], StoreMetrics(), 0, 0, PriceSheet(0, 0, 0, 0, 0, 0), compute())


# --- profile files ------------------------------------------------------------------------

def test_builtin_profiles_load():
    for name in (CALIBRATED_PROFILE, DESK_PROFILE):
        profiles = builtin_profiles(name)
        assert profiles.store.conn_bandwidth > 0
        assert profiles.compute.fn_mem_gb == 2.0

def test_profiles_round_trip():
    profiles = builtin_profiles(CALIBRATED_PROFILE)
    assert parse_profiles(profiles_to_dict(profiles)) == profiles

def test_profiles_reject_unknown_field():
    data = profiles_to_dict(builtin_profiles(CALIBRATED_PROFILE))
    data["store"]["color"] = "blue"
    with pytest.raises(SchemaError):
        parse_profiles(data)

def test_profiles_reject_missing_section():
    data = profiles_to_dict(builtin_profiles(CALIBRATED_PROFILE))
    del data["prices"]
    with pytest.raises(SchemaError):
        parse_profiles(data)

@pytest.mark.parametrize(
    "section, name",
    [
        (section, name)
        for section, values in profiles_to_dict(builtin_profiles(CALIBRATED_PROFILE)).items()
        for name, value in values.items()
        if isinstance(value, float)
    ],
)
def test_profiles_reject_nan(section, name):
    data = profiles_to_dict(builtin_profiles(CALIBRATED_PROFILE))
    data[section][name] = math.nan
    with pytest.raises(SchemaError, match=f"^{section}: "):
        parse_profiles(data)

def test_profiles_allow_infinite_rates_in_code():
    StoreProfile(0.0, INF, INF, INF)
    ComputeProfile(0.0, 2.0, INF, INF, 0.0, INF, INF)
    PriceSheet(0.0, 0.0, 0.0, 0.0, 0.0, INF)

def test_load_profiles_from_file(tmp_path):
    import json

    path = tmp_path / "p.json"
    path.write_text(json.dumps(profiles_to_dict(builtin_profiles(DESK_PROFILE))))
    assert load_profiles(str(path)) == builtin_profiles(DESK_PROFILE)

def test_load_profiles_deeply_nested_json(tmp_path):
    path = tmp_path / "p.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(SchemaError, match="nested too deeply"):
        load_profiles(str(path))
