#!/usr/bin/env python3
"""Fit the default profile sheets and write them into the package.

The calibrated profile reproduces, under the analytic model at the
reference scale (3.5 GB input, 8 workers), the end-to-end latency and
cost figures reported for the original cloud deployment of this
pipeline. Shape parameters (latencies, bandwidths, request caps, unit
prices for requests) are set to plausible cloud magnitudes; the
remaining free parameters (processing rates, provisioning time, compute
prices) are solved so the modeled totals land on the reference point.
None of the resulting numbers is a measured constant; they are a
consistent fit, committed so runs are reproducible.

Usage: python scripts/calibrate.py [--check]
`--check` verifies the committed files still reproduce the fit instead
of rewriting them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from faaslab.blobstore import StoreMetrics, StoreProfile
from faaslab.engine import VM_VOLUME_GB, request_laws
from faaslab.perfmodel import (
    ComputeProfile,
    PriceSheet,
    Profiles,
    compute_cost,
    encode_latency_model,
    profiles_to_dict,
    shuffle_latency_model,
    vm_exchange_latency_model,
)
from faaslab.workflow import ExchangeStrategy, StageKind

PROFILE_DIR = Path(__file__).resolve().parent.parent / "src" / "faaslab" / "profiles"

# Reference scale and measured totals of the original deployment.
S = 3.5e9
W = 8
N_IN = 8
RATIO = 10.0
REF_SERVERLESS_S = 83.32
REF_VM_S = 142.77
REF_SERVERLESS_COST = 0.008
REF_VM_COST = 0.010

# Fixed shape parameters (cloud-magnitude choices, not measurements).
REQ_LATENCY = 0.02
CONN_BW = 100e6
AGG_BW = 800e6
OPS_CAP = 2000.0
FN_STARTUP = 10.0
FN_MEM_GB = 2.0
VM_BW = 400e6
PRICE_PUT = 5e-6
PRICE_GET = 4e-7
PRICE_INVOCATION = 2e-7
PRICE_VOL_GB_S = 4e-8


def _round_sig(value: float, digits: int = 3) -> float:
    return float(f"{value:.{digits}g}")


def reference_requests(exchange: ExchangeStrategy) -> StoreMetrics:
    """Store requests of the reference sort+encode run, by the engine's count laws."""
    sort = request_laws(StageKind.SORT_EXCHANGE, exchange, W, N_IN, S)
    encode = request_laws(StageKind.ENCODE, exchange, W, W, S, ratio=RATIO)
    return sort + encode


def fit_calibrated() -> Profiles:
    store = StoreProfile(REQ_LATENCY, CONN_BW, AGG_BW, OPS_CAP)
    inf_compute = ComputeProfile(
        FN_STARTUP, FN_MEM_GB, math.inf, math.inf, 0.0, VM_BW, math.inf
    )

    # I/O-only phase times, with compute rates infinite
    io_sort = shuffle_latency_model(S, W, N_IN, store, inf_compute).total - FN_STARTUP
    io_enc = encode_latency_model(S, W, RATIO, store, inf_compute).total - FN_STARTUP

    compute_budget = REF_SERVERLESS_S - 2 * FN_STARTUP - io_sort - io_enc
    if compute_budget <= 0:
        raise SystemExit("shape parameters leave no room for compute time")
    share = S / W
    fn_sort_rate = _round_sig(share / (compute_budget * 2 / 3))
    fn_encode_rate = _round_sig(share / (compute_budget / 3))

    enc_total = (
        FN_STARTUP + io_enc + share / fn_encode_rate
    )

    pipe = min(VM_BW, AGG_BW)
    vm_io = 2 * S / pipe + (N_IN + W) * REQ_LATENCY
    vm_budget = REF_VM_S - enc_total - vm_io
    if vm_budget <= 0:
        raise SystemExit("shape parameters leave no room for the VM stage")
    vm_provision = round(0.4 * vm_budget, 1)
    vm_sort_rate = _round_sig(S / (0.6 * vm_budget))

    compute = ComputeProfile(
        FN_STARTUP, FN_MEM_GB, fn_sort_rate, fn_encode_rate, vm_provision, VM_BW, vm_sort_rate
    )

    # price fit: serverless target sets the GB-second price, VM target
    # the per-second VM price
    sort_total = shuffle_latency_model(S, W, N_IN, store, compute).total
    enc_total = encode_latency_model(S, W, RATIO, store, compute).total
    busy = (sort_total - FN_STARTUP) + (enc_total - FN_STARTUP)
    requests_s = reference_requests(ExchangeStrategy.SERVERLESS)
    req_cost_s = requests_s.put_count * PRICE_PUT + requests_s.get_count * PRICE_GET
    inv_cost_s = 2 * W * PRICE_INVOCATION
    price_gb_s = _round_sig(
        (REF_SERVERLESS_COST - req_cost_s - inv_cost_s) / (W * FN_MEM_GB * busy), 2
    )

    vm_total = vm_exchange_latency_model(S, N_IN, W, store, compute).total
    vm_seconds = vm_total
    enc_busy = enc_total - FN_STARTUP
    fn_cost_v = W * enc_busy * FN_MEM_GB * price_gb_s
    requests_v = reference_requests(ExchangeStrategy.VM)
    req_cost_v = requests_v.put_count * PRICE_PUT + requests_v.get_count * PRICE_GET
    inv_cost_v = W * PRICE_INVOCATION
    vol_cost_v = VM_VOLUME_GB * vm_seconds * PRICE_VOL_GB_S
    price_vm_s = _round_sig(
        (REF_VM_COST - fn_cost_v - req_cost_v - inv_cost_v - vol_cost_v) / vm_seconds, 2
    )

    prices = PriceSheet(
        price_gb_s, PRICE_INVOCATION, PRICE_PUT, PRICE_GET, price_vm_s, PRICE_VOL_GB_S
    )
    return Profiles(store=store, compute=compute, prices=prices)


def desk_profiles(calibrated: Profiles) -> Profiles:
    """Desk-scale variant: same structure, bandwidths and delays a laptop
    can actually shape in seconds rather than minutes."""
    return Profiles(
        store=StoreProfile(0.002, 32e6, 256e6, 500.0),
        compute=ComputeProfile(0.4, 2.0, 24e6, 48e6, 3.0, 96e6, 40e6),
        prices=calibrated.prices,
    )


def summarize(profiles: Profiles) -> dict:
    store, compute, prices = profiles.store, profiles.compute, profiles.prices
    sort_total = shuffle_latency_model(S, W, N_IN, store, compute).total
    enc_total = encode_latency_model(S, W, RATIO, store, compute).total
    vm_total = vm_exchange_latency_model(S, N_IN, W, store, compute).total
    serverless_latency = sort_total + enc_total
    vm_latency = vm_total + enc_total

    cost_s = compute_cost(
        [sort_total - compute.fn_startup, enc_total - compute.fn_startup],
        [W, W],
        reference_requests(ExchangeStrategy.SERVERLESS),
        0.0,
        0.0,
        prices,
        compute,
    ).total
    cost_v = compute_cost(
        [enc_total - compute.fn_startup],
        [W],
        reference_requests(ExchangeStrategy.VM),
        vm_total,
        VM_VOLUME_GB,
        prices,
        compute,
    ).total
    return {
        "serverless_latency_s": serverless_latency,
        "vm_latency_s": vm_latency,
        "serverless_cost": cost_s,
        "vm_cost": cost_v,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--check", action="store_true", help="verify committed profiles")
    args = parser.parse_args()

    calibrated = fit_calibrated()
    desk = desk_profiles(calibrated)
    achieved = summarize(calibrated)

    print("reference point:")
    print(f"  serverless latency {REF_SERVERLESS_S:8.2f} s   -> model {achieved['serverless_latency_s']:8.2f} s")
    print(f"  vm latency         {REF_VM_S:8.2f} s   -> model {achieved['vm_latency_s']:8.2f} s")
    print(f"  serverless cost    ${REF_SERVERLESS_COST:7.4f}    -> model ${achieved['serverless_cost']:7.4f}")
    print(f"  vm cost            ${REF_VM_COST:7.4f}    -> model ${achieved['vm_cost']:7.4f}")

    ok = (
        abs(achieved["serverless_latency_s"] - REF_SERVERLESS_S) <= 0.25 * REF_SERVERLESS_S
        and abs(achieved["vm_latency_s"] - REF_VM_S) <= 0.25 * REF_VM_S
        and abs(achieved["serverless_cost"] - REF_SERVERLESS_COST) <= 0.5 * REF_SERVERLESS_COST
        and abs(achieved["vm_cost"] - REF_VM_COST) <= 0.5 * REF_VM_COST
        and achieved["serverless_latency_s"] < achieved["vm_latency_s"]
    )
    if not ok:
        print("FIT OUT OF TOLERANCE", file=sys.stderr)
        return 1

    files = {
        "calibrated-v1.json": profiles_to_dict(calibrated),
        "desk-v1.json": profiles_to_dict(desk),
    }
    PROFILE_DIR.mkdir(parents=True, exist_ok=True)
    for name, payload in files.items():
        path = PROFILE_DIR / name
        text = json.dumps(payload, indent=2) + "\n"
        if args.check:
            if not path.exists() or path.read_text() != text:
                print(f"STALE: {path} does not match the fit", file=sys.stderr)
                return 1
            print(f"ok: {path}")
        else:
            path.write_text(text)
            print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
