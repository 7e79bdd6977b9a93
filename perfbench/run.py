"""Host-cost benchmark for faaslab's emulator and model.

Run from the repository root:

    python3 perfbench/run.py --workload serverless-shuffled --seed 7 --seconds 30 --trace 0

Workloads: serverless-shuffled, vm-sorted, model-sweep (see
perfbench/README.md). `--trace 0` prints the end-to-end metrics, `--trace 1`
the per-layer metrics of a separate traced run. The last stdout line is
one JSON object with the keys correct, attempted, failed and metrics; the
exit code is 1 when any output check fails.

This process only orchestrates. Inputs are generated by gen.py in a child
process and cached under perfbench/_out/. Set-up is timed in several fresh
processes (measure.py --setup-only), then one more measure.py process runs
the workload for --seconds and reports the rest.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import common

SETUP_PROCESSES = 8
CHILD_TIMEOUT_S = 170


def _child(script: str, args: list[str], timeout: float) -> dict:
    """Run a perfbench script in a fresh interpreter; return its last stdout line as JSON."""
    env = dict(os.environ)
    env.pop("FAASLAB_PROFILE", None)  # the workloads fix their own profiles
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(common.HERE / script), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env, cwd=common.ROOT, timeout=timeout, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: {script} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def _measure(args, extra: list[str], timeout: float) -> dict:
    return _child(
        "measure.py",
        ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
         "--trace", str(args.trace), "--spawned-at", repr(time.time()), *extra],
        timeout,
    )


def main() -> int:
    parser = argparse.ArgumentParser(description="faaslab host-cost benchmark")
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (common.SRC / "faaslab" / "__init__.py").is_file():
        print(f"perfbench: no faaslab sources under {common.SRC}", file=sys.stderr)
        return 2
    with open(common.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    units = {m["name"]: m["unit"] for m in declared["end_to_end"] + declared["per_layer"]}

    if args.workload in common.EMULATED:
        order = common.EMULATED[args.workload]["order"]
        if not (common.input_dir(args.seed, order) / "inputs.json").is_file():
            _child("gen.py", ["--seed", str(args.seed), "--order", order], CHILD_TIMEOUT_S)

    setups = [_measure(args, ["--setup-only"], 60) for _ in range(SETUP_PROCESSES)]
    result = _measure(args, [], CHILD_TIMEOUT_S)
    setups.append(result)
    setup = [s["setup_s"] for s in setups]

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    names = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(metrics) != sorted(names):
        missing, extra = set(names) - set(metrics), set(metrics) - set(names)
        print(f"perfbench: metrics differ from BENCHMARK.json: missing {missing}, extra {extra}",
              file=sys.stderr)
        return 1

    correct = result["failed"] == 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}"
          f" runs={result['samples']} attempted={result['attempted']} failed={result['failed']}")
    if not args.trace:
        print(f"  error_rate = {result['failed'] / result['attempted']:.6g} ratio")
        print(f"  setup_s samples = {[round(s, 4) for s in setup]}")
        print(f"  not normalized: run p50 = {result['host_run_s.p50']:.6g} s,"
              f" setup = {statistics.median(s['host_setup_s'] for s in setups):.6g} s")
    for name in names:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    fingerprints = result["fingerprints"]
    if args.workload in common.EMULATED:
        if fingerprints:
            print(f"fingerprint {args.workload} seed={args.seed} virtual_s={fingerprints['virtual_s']!r}"
                  f" sha256={fingerprints['sha256']}")
    else:
        for name, strategies in sorted(fingerprints.items()):
            for strategy, fp in strategies.items():
                print(f"fingerprint {args.workload} seed={args.seed} {name} {strategy}"
                      f" virtual_s={fp['virtual_s']!r} sha256={fp['sha256']}")
    if "trace_file" in result:
        print(f"trace file: {result['trace_file']}")
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
