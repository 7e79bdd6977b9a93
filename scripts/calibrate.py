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

Every figure is read from the engine's modeled reference run
(`reference_run`), so the fit applies the engine's count laws and
billing rules. Rates are fitted around the I/O time of a run with
infinite compute rates. Each unknown price is solved from a run billing
it at 1.0, whose cost component then equals the billed quantity.

Usage: python scripts/calibrate.py [--check]
`--check` verifies the committed files still reproduce the fit instead
of rewriting them.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace
from pathlib import Path

from faaslab.blobstore import StoreProfile
from faaslab.engine import Mode, RunReport, run_workflow
from faaslab.perfmodel import ComputeProfile, CostBreakdown, PriceSheet, Profiles, profiles_to_dict
from faaslab.workflow import DataRef, ExchangeStrategy, StageKind, StageSpec, WorkflowSpec

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


def reference_run(profiles: Profiles, exchange: ExchangeStrategy) -> RunReport:
    """The engine's modeled sort+encode run at the reference scale."""
    spec = WorkflowSpec(
        name="reference",
        input=DataRef("data", "raw/", size_bytes=S, object_count=N_IN),
        exchange=exchange,
        stages=(
            StageSpec("sort", StageKind.SORT_EXCHANGE),
            StageSpec("encode", StageKind.ENCODE, {"ratio": RATIO}),
        ),
        profiles=profiles,
        parallelism=W,
    )
    return run_workflow(spec, Mode.MODELED)


def _solve_price(target: float, cost: CostBreakdown, component: str) -> float:
    """The price of `component`, billed at 1.0 in `cost`, that brings the total to `target`."""
    billed = getattr(cost, component)
    return _round_sig((target - (cost.total - billed)) / billed, 2)


def fit_calibrated() -> Profiles:
    store = StoreProfile(REQ_LATENCY, CONN_BW, AGG_BW, OPS_CAP)
    inf_compute = ComputeProfile(
        FN_STARTUP, FN_MEM_GB, math.inf, math.inf, 0.0, VM_BW, math.inf
    )
    unit = PriceSheet(1.0, PRICE_INVOCATION, PRICE_PUT, PRICE_GET, 1.0, PRICE_VOL_GB_S)

    # I/O-only stage times: compute rates infinite, provisioning free
    io_only = Profiles(store, inf_compute, unit)
    serverless_io = reference_run(io_only, ExchangeStrategy.SERVERLESS)
    io_sort, io_enc = (stage.busy_seconds for stage in serverless_io.stages)
    vm_io = reference_run(io_only, ExchangeStrategy.VM).stages[0].vm_seconds

    compute_budget = REF_SERVERLESS_S - 2 * FN_STARTUP - io_sort - io_enc
    if compute_budget <= 0:
        raise SystemExit("shape parameters leave no room for compute time")
    share = S / W
    fn_sort_rate = _round_sig(share / (compute_budget * 2 / 3))
    fn_encode_rate = _round_sig(share / (compute_budget / 3))

    enc_total = (
        FN_STARTUP + io_enc + share / fn_encode_rate
    )

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
    serverless = reference_run(Profiles(store, compute, unit), ExchangeStrategy.SERVERLESS)
    price_gb_s = _solve_price(REF_SERVERLESS_COST, serverless.cost, "fn_compute")
    unit = replace(unit, price_gb_s=price_gb_s)
    vm = reference_run(Profiles(store, compute, unit), ExchangeStrategy.VM)
    prices = replace(unit, price_vm_s=_solve_price(REF_VM_COST, vm.cost, "vm_time"))
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
    serverless = reference_run(profiles, ExchangeStrategy.SERVERLESS)
    vm = reference_run(profiles, ExchangeStrategy.VM)
    return {
        "serverless_latency_s": serverless.end_to_end_s,
        "vm_latency_s": vm.end_to_end_s,
        "serverless_cost": serverless.cost.total,
        "vm_cost": vm.cost.total,
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
