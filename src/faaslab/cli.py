"""Command line interface.

Three subcommands: `generate` writes synthetic input objects into an
on-disk store directory, `run` executes one workflow in emulated or
modeled mode, `compare` runs both exchange strategies at one worker
count and prints the two-row latency/cost table.

The store directory is plain files, one per object:
`<store>/<bucket>/<key percent-encoded with urllib.parse.quote(key, safe="")>`.
`generate` writes them; an emulated run reads the ones under its input
prefix into a fresh in-memory `Blobstore` and writes nothing back.

Human-readable tables go to stdout and progress events to stderr (one
JSON object per line), so `--json` output stays pipeable. Exit codes:
0 success, 1 runtime failure, 2 usage or validation errors, including
a path that cannot be read or written. The
FAASLAB_PROFILE environment variable may point at a profile JSON file
that overrides the workflow's embedded profiles.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
import urllib.parse
from dataclasses import replace

from faaslab.blobstore import Blobstore
from faaslab.engine import EngineOptions, Mode, RunReport, run_workflow
from faaslab.errors import (
    CapacityError,
    FaaslabError,
    SchemaError,
    SemanticError,
    ValidationError,
    WorkflowSyntaxError,
    read_utf8,
)
from faaslab.methpipe import generate_synthetic, split_into_objects
from faaslab.perfmodel import load_profiles
from faaslab.report import indented_json, report_to_json
from faaslab.workflow import (
    ExchangeStrategy,
    WorkflowSpec,
    check_bucket,
    parse_workflow,
    with_exchange,
    with_profiles,
)

_USAGE_ERRORS = (WorkflowSyntaxError, SchemaError, SemanticError, ValidationError)


def _fail(message: str, code: int) -> int:
    print(f"faaslab: {message}", file=sys.stderr)
    return code


def _progress_printer(event: dict) -> None:
    print(json.dumps(event), file=sys.stderr, flush=True)


def _load_spec(path: str) -> WorkflowSpec:
    spec = parse_workflow(read_utf8(path))
    override = os.environ.get("FAASLAB_PROFILE")
    if override:
        spec = with_profiles(spec, load_profiles(override))
    return spec


def _read_inputs(spec: WorkflowSpec, store_dir: str) -> dict[str, bytes]:
    """The input objects under the spec's prefix, read from disk once, by key.

    A missing `<store_dir>/<bucket>` holds no objects: a run only reads
    the store, so it creates no directory. Any other failure to reach the
    directory, such as a file in its path, is raised, and so is
    SchemaError when two file names decode to one key.
    """
    directory = os.path.join(store_dir, spec.input.bucket)
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return {}
    inputs: dict[str, bytes] = {}
    files: dict[str, str] = {}
    for name in sorted(names):
        key = urllib.parse.unquote(name)
        if not key.startswith(spec.input.prefix):
            continue
        path = os.path.join(directory, name)
        if key in files:
            raise SchemaError(path, f"decodes to key {key!r}, as {files[key]} does")
        files[key] = path
        with open(path, "rb") as fh:
            inputs[key] = fh.read()
    return inputs


def _build_run_store(spec: WorkflowSpec, inputs: dict[str, bytes]) -> Blobstore:
    """Fresh run store seeded with the input objects."""
    run_store = Blobstore(spec.profiles.store, bucket=spec.input.bucket)
    for key, payload in inputs.items():
        run_store.seed_object(key, payload)
    return run_store


def _print_report(report: RunReport) -> None:
    print(f"workflow {report.workflow}  mode={report.mode}  exchange={report.exchange}"
          f"  workers={report.parallelism}  seed={report.seed}")
    header = f"{'stage':<12}{'kind':<8}{'w':>4}{'total s':>10}  phase breakdown (s)"
    print(header)
    print("-" * len(header))
    for stage in report.stages:
        phases = ", ".join(
            f"{name}={value:.3f}"
            for name, value in stage.latency.as_dict().items()
            if name != "total" and value
        )
        print(
            f"{stage.stage_id:<12}{stage.kind:<8}{stage.workers:>4}"
            f"{stage.latency.total:>10.3f}  {phases}"
        )
        req = stage.requests
        print(
            f"{'':<24}requests: put={req.put_count} get={req.get_count}"
            f" bytes_in={req.bytes_in} bytes_out={req.bytes_out}"
        )
    print(f"end-to-end latency: {report.end_to_end_s:.3f} s")
    print("cost breakdown ($):")
    for name, value in report.cost.as_dict().items():
        print(f"  {name:<18}{value:.6f}")


def cmd_generate(args: argparse.Namespace) -> int:
    if args.records < 0:
        return _fail("--records must be >= 0", 2)
    if args.objects < 1:
        return _fail("--objects must be >= 1", 2)
    if args.chroms < 1:
        return _fail("--chroms must be >= 1", 2)
    check_bucket(args.bucket, "--bucket")
    keys = [f"{args.out}{index:04d}" for index in range(args.objects)]
    directory = os.path.join(args.store, args.bucket)
    os.makedirs(directory, exist_ok=True)
    # a run reads every object under the prefix, so none may be left over
    stored = {urllib.parse.unquote(name) for name in os.listdir(directory)}
    stale = sorted({key for key in stored if key.startswith(args.out)} - set(keys))
    if stale:
        return _fail(
            f"--out prefix {args.out!r} already holds {stale[0]!r}, which this call would not write", 2
        )
    records = generate_synthetic(args.records, args.seed, chroms=args.chroms, shuffled=not args.sorted)
    manifest = []
    for key, payload in zip(keys, split_into_objects(records, args.objects)):
        try:
            with open(os.path.join(directory, urllib.parse.quote(key, safe="")), "wb") as fh:
                fh.write(payload)
        except OSError as exc:
            if exc.errno == errno.ENOSPC:
                raise CapacityError(f"store directory full writing {key!r}") from exc
            raise
        manifest.append({"key": key, "size": len(payload)})
    total = sum(entry["size"] for entry in manifest)
    print(
        json.dumps(
            {
                "bucket": args.bucket,
                "records": args.records,
                "seed": args.seed,
                "objects": manifest,
                "total_bytes": total,
            },
            indent=2,
        )
    )
    return 0


def _inputs(spec: WorkflowSpec, args: argparse.Namespace) -> dict[str, bytes] | None:
    """The input objects an emulated run reads; None in modeled mode."""
    return None if Mode(args.mode) is Mode.MODELED else _read_inputs(spec, args.store)


def _execute(spec: WorkflowSpec, args: argparse.Namespace, inputs: dict[str, bytes] | None) -> RunReport:
    """Run `spec` modeled if `inputs` is None, else emulated on a fresh
    store seeded with `inputs`."""
    store = None if inputs is None else _build_run_store(spec, inputs)
    options = EngineOptions(progress=_progress_printer)
    return run_workflow(spec, args.mode, seed=args.seed, store=store, options=options)


def cmd_run(args: argparse.Namespace) -> int:
    spec = _load_spec(args.workflow)
    if args.exchange:
        spec = with_exchange(spec, ExchangeStrategy(args.exchange))
    report = _execute(spec, args, _inputs(spec, args))
    if args.json:
        sys.stdout.write(report_to_json(report))
    else:
        _print_report(report)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    spec = _load_spec(args.workflow)
    # both strategies see the same input, profiles and w_max: the input
    # files are read once, and the VM runs at the w the serverless run
    # resolved, so `auto` scans once
    inputs = _inputs(spec, args)
    serverless = _execute(with_exchange(spec, ExchangeStrategy.SERVERLESS), args, inputs)
    vm_spec = replace(with_exchange(spec, ExchangeStrategy.VM), parallelism=serverless.parallelism)
    reports = {"serverless": serverless, "vm": _execute(vm_spec, args, inputs)}
    rows = [
        (
            "purely serverless" if name == "serverless" else "VM-supported",
            report.end_to_end_s,
            report.cost.total,
        )
        for name, report in reports.items()
    ]
    if args.json:
        head = indented_json(
            {
                "schema": "faaslab-compare-v1",
                "rows": [
                    {"configuration": c, "latency_s": latency, "cost": cost}
                    for c, latency, cost in rows
                ],
            }
        )
        # each report is its `run --json` text, nested two levels deep;
        # indented JSON has no raw newline inside a string, so indenting
        # every line after the first gives json.dumps(..., indent=2)'s bytes
        nested = ",\n".join(
            f"    {json.dumps(name)}: " + report_to_json(report).rstrip("\n").replace("\n", "\n    ")
            for name, report in reports.items()
        )
        # head ends in "\n}"; the reports go in before that brace
        print(f'{head[:-2]},\n  "reports": {{\n{nested}\n  }}\n}}')
    else:
        header = f"{'configuration':<20}{'latency (s)':>14}{'cost ($)':>12}"
        print(header)
        print("-" * len(header))
        for config, latency, cost in rows:
            print(f"{config:<20}{latency:>14.2f}{cost:>12.4f}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `faaslab` parser, built on first use and shared by later calls.

    `parse_args` returns a new namespace per call and changes no parser
    state, so one process needs one parser.
    """
    parser = argparse.ArgumentParser(
        prog="faaslab",
        description="Compare object-storage and VM data exchange for a sort+compress pipeline.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write synthetic input objects to a store directory")
    gen.add_argument("--records", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--objects", type=int, required=True)
    gen.add_argument("--out", default="raw/", help="key prefix for generated objects")
    gen.add_argument("--store", default="faaslab-store", help="store root directory")
    gen.add_argument("--bucket", default="data")
    gen.add_argument("--chroms", type=int, default=4)
    gen.add_argument("--sorted", action="store_true", help="emit records in sort order")
    gen.set_defaults(fn=cmd_generate)

    for name, fn, help_text in (
        ("run", cmd_run, "run one workflow"),
        ("compare", cmd_compare, "run both exchange strategies and tabulate"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--workflow", required=True, help="workflow JSON file")
        cmd.add_argument("--mode", choices=[m.value for m in Mode], required=True)
        if name == "run":
            cmd.add_argument("--exchange", choices=[e.value for e in ExchangeStrategy])
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--json", action="store_true", help="emit the JSON report on stdout")
        cmd.add_argument("--store", default="faaslab-store", help="store root directory")
        cmd.set_defaults(fn=fn)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _USAGE_ERRORS as exc:
        return _fail(str(exc), 2)
    except OSError as exc:
        return _fail(str(exc), 2)
    except FaaslabError as exc:
        return _fail(str(exc), 1)


if __name__ == "__main__":
    sys.exit(main())
