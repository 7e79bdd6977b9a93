"""The measured process: set up one workload, time runs, check every output.

Started by run.py, once per setup sample (`--setup-only`) and once for
the measurement. Prints one JSON object on its last stdout line. Only
faaslab's public API is used; everything runs in this one thread.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import io
import json
import random
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import fields, replace

import common
import reference
import tracing

PHASES = {
    "sort": ("input_read", "sort_compute", "partition_write", "partition_read", "output_write"),
    "encode": ("input_read", "encode", "output_write"),
}


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds > 0 else 0.0


def _p90(samples: list[float]) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=10, method="inclusive")[8]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def shared_layer_metrics(t: tracing.Totals, runs: int, input_bytes: int) -> dict[str, float]:
    """Per-layer numbers every workload reports, per run (mean over `runs`)."""
    m: dict[str, float] = {}
    requests = t.n("blobstore.get") + t.n("blobstore.put")
    m["blobstore.get.count"] = t.n("blobstore.get") / runs
    m["blobstore.put.count"] = t.n("blobstore.put") / runs
    m["blobstore.bytes"] = (t.sum("blobstore.get", "bytes") + t.sum("blobstore.put", "bytes")) / runs
    m["blobstore.host_us_per_request"] = _rate(
        (t.duration("blobstore.get") + t.duration("blobstore.put")) * 1e6, requests
    )
    m["blobstore.virtual_s"] = (
        t.sum("blobstore.get", "virtual_s") + t.sum("blobstore.put", "virtual_s")
    ) / runs
    for kind, name in (("parse", "records.parse"), ("serialize", "records.serialize")):
        nbytes = t.sum(name, "bytes")
        m[f"records.{kind}.calls"] = t.n(name) / runs
        m[f"records.{kind}.mb"] = nbytes / 1e6 / runs
        m[f"records.{kind}.self_s"] = t.self_time(name) / runs
        m[f"records.{kind}.mb_per_s"] = _rate(nbytes / 1e6, t.self_time(name))
        m[f"records.{kind}.amplification"] = _rate(nbytes, input_bytes * runs)
    m["shuffle.plan.self_s"] = t.self_time("shuffle.plan") / runs
    m["shuffle.partition.self_s"] = t.self_time("shuffle.partition") / runs
    m["shuffle.partition.records_per_s"] = _rate(
        t.sum("shuffle.partition", "records"), t.self_time("shuffle.partition")
    )
    m["shuffle.merge.self_s"] = t.self_time("shuffle.merge") / runs
    m["shuffle.split.self_s"] = t.self_time("shuffle.split") / runs
    m["codec.encode.self_s"] = t.self_time("codec.encode") / runs
    m["codec.encode.records_per_s"] = _rate(t.sum("codec.encode", "records"), t.self_time("codec.encode"))
    m["perfmodel.optimize.calls"] = t.n("perfmodel.optimize") / runs
    m["perfmodel.optimize.self_ms"] = t.self_time("perfmodel.optimize") * 1e3 / runs
    m["perfmodel.evals"] = t.n("perfmodel.eval") / runs
    m["perfmodel.eval_us"] = _rate(t.self_time("perfmodel.eval") * 1e6, t.n("perfmodel.eval"))
    m["workflow.parse.self_us"] = t.self_time("workflow.parse") * 1e6 / runs
    m["report.to_json.self_us"] = t.self_time("report.to_json") * 1e6 / runs
    m["cli.self_ms"] = t.self_time("cli.main") * 1e3 / runs
    m["engine.self_s"] = t.self_time("engine.run") / runs
    return m


class EmulatedBench:
    """One emulated sort+encode run per sample, on a fresh virtual-clock store."""

    def __init__(self, workload: str, seed: int):
        from faaslab.workflow import ExchangeStrategy, parse_workflow, with_exchange

        conf = common.EMULATED[workload]
        self.seed = seed
        self.exchange = conf["exchange"]
        directory = common.input_dir(seed, conf["order"])
        self.meta = json.loads((directory / "inputs.json").read_text(encoding="utf-8"))
        self.objects = []
        for entry in self.meta["objects"]:
            payload = (directory / entry["name"]).read_bytes()
            if len(payload) != entry["size"]:
                raise SystemExit(f"perfbench: cached input {entry['name']} has the wrong size")
            self.objects.append((common.INPUT_PREFIX + entry["name"], payload))
        self.input_bytes = self.meta["total_bytes"]
        self.run_mb = self.input_bytes / 1e6
        spec = parse_workflow(common.DESK_WORKFLOW.read_text(encoding="utf-8"))
        self.spec = with_exchange(spec, ExchangeStrategy(self.exchange))
        self.store = self._new_store()
        self.laws = None
        self.fingerprint = None
        self.verified_output = None

    def _new_store(self):
        from faaslab.blobstore import Blobstore, VirtualClock

        store = Blobstore(self.spec.profiles.store, clock=VirtualClock(), bucket=self.spec.input.bucket)
        for key, payload in self.objects:
            store.seed_object(key, payload)
        return store

    def prepare_checks(self) -> None:
        """Request-count laws: the documented formula, confirmed by run_modeled."""
        from faaslab.engine import Mode, run_workflow

        w, n_in = self.spec.parallelism, len(self.objects)
        if self.exchange == "serverless":
            # sort: PUT w^2 + w, GET 2 n_in + w^2; encode: PUT = GET = w
            self.laws = (w * w + 2 * w, 2 * n_in + w * w + w)
        else:
            # sort: PUT w, GET n_in; encode: PUT = GET = w
            self.laws = (2 * w, n_in + w)
        declared = replace(self.spec.input, size_bytes=float(self.input_bytes), object_count=n_in)
        modeled = run_workflow(replace(self.spec, input=declared), Mode.MODELED, seed=self.seed)
        stated = (modeled.store_metrics.put_count, modeled.store_metrics.get_count)
        if stated != self.laws:
            raise SystemExit(f"perfbench: run_modeled states counts {stated}, the law gives {self.laws}")

    def run(self, tracer: tracing.Tracer | None = None) -> dict:
        """One timed run on a freshly seeded store, then its output check."""
        from faaslab.engine import EngineOptions, ExecHooks, Mode, run_workflow

        store = self.store or self._new_store()
        self.store = None
        events: list = []
        # Untraced, every hook call ends one timed segment and starts the
        # next, with a reference sample taken between them (see
        # reference.py). Traced, samples inside the run would land in the
        # phase intervals, so the run is one segment sampled at its ends.
        samples: list[float] = []
        gaps: list[tuple[float, float]] = []

        def mark(*_):
            t = time.perf_counter()
            samples.append(reference.sample())
            gaps.append((t, time.perf_counter()))

        if tracer is None:
            options = EngineOptions(progress=mark, hooks=ExecHooks(on_task_start=mark, on_buffer=mark))
        else:
            tracer.run += 1
            tracer.virtual_clock = store.clock
            options = EngineOptions(
                progress=lambda e: events.append((time.perf_counter(), e)),
                hooks=ExecHooks(on_task_start=lambda stage, phase, worker: tracer.instant(
                    f"task {stage}.{phase}.{worker}")),
            )
        outcome = {"ok": False, "problems": []}
        gc.collect()
        samples.append(reference.sample())
        span = tracer.begin("engine.run") if tracer else None
        t0 = time.perf_counter()
        try:
            report = run_workflow(self.spec, Mode.EMULATED, seed=self.seed, store=store, options=options)
        except Exception as exc:  # a failed run is counted, not fatal
            outcome["problems"].append(f"run raised {type(exc).__name__}: {exc}")
            report = None
        t1 = time.perf_counter()
        samples.append(reference.sample())
        starts = [t0] + [resumed for _, resumed in gaps]
        ends = [paused for paused, _ in gaps] + [t1]
        segments = [e - s for s, e in zip(starts, ends)]
        outcome["run_s"] = sum(segments)
        outcome["norm_s"] = reference.normalize(segments, samples)
        if tracer:
            tracer.end(span)
            outcome.update(span=span, events=events)
        if report is not None:
            outcome.update(report=report, store=store)
            try:
                self._check(store, report, outcome, decode=tracer is not None)
            except Exception as exc:  # a check that cannot complete is a failure
                outcome["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
        outcome["ok"] = not outcome["problems"]
        return outcome

    def _check(self, store, report, outcome: dict, decode: bool) -> None:
        """Check counts, output records and fingerprint of one run.

        The output is decoded and compared with sorted() of the generated
        records on the first run and on traced runs (which time the
        decode). Any other run must produce the same encoded bytes as the
        first run did, which is the same check at a fraction of the cost.
        """
        from faaslab.methpipe.codec import decode_block
        from faaslab.report import report_to_json

        problems = outcome["problems"]
        metrics = store.store_metrics()
        counts = (metrics.put_count, metrics.get_count)
        if counts != self.laws:
            problems.append(f"store put/get counts {counts} differ from the count laws {self.laws}")
        if report.store_metrics != metrics:
            problems.append("report store_metrics differ from the store's own counters")

        w = self.spec.parallelism
        blocks = sorted(store.peek_prefix("encoded/"), key=lambda kv: int(kv[0].rsplit("/", 1)[1]))
        if [key.rsplit("/", 1)[1] for key, _ in blocks] != [str(i) for i in range(w)]:
            problems.append(f"expected encoded blocks 0..{w - 1}, found {[k for k, _ in blocks]}")
        payloads = [store.get_object(key) for key, _ in blocks]
        output = hashlib.sha256(b"".join(payloads)).hexdigest()
        if decode or self.verified_output is None:
            digest = common.RecordDigest()
            decode_s = 0.0
            for payload in payloads:
                t0 = time.perf_counter()
                records = decode_block(payload)
                decode_s += time.perf_counter() - t0
                digest.update(records)
            outcome["decode_s"] = decode_s
            expected = (self.meta["expected_records"], self.meta["expected_sha256"])
            if (digest.count, digest.hexdigest()) != expected:
                problems.append("decoded output differs from sorted() of the generated records")
            elif self.verified_output is None:
                self.verified_output = output
        if self.verified_output is not None and output != self.verified_output:
            problems.append("encoded output differs from the first run's verified output")

        fingerprint = {"virtual_s": report.end_to_end_s, "sha256": _sha256(report_to_json(report))}
        if self.fingerprint is None:
            self.fingerprint = fingerprint
        elif fingerprint != self.fingerprint:
            problems.append(f"virtual-time fingerprint changed between runs: {fingerprint}")

    def run_pass(self, tracer: tracing.Tracer | None = None) -> list[dict]:
        return [self.run(tracer)]

    def run_times(self, passes: list[list[dict]]) -> tuple[float, float]:
        """(p50, p90) of normalized run seconds over every run.

        A run lasts seconds, so there are too few for a 90th percentile:
        p90 equals p50.
        """
        p50 = statistics.median(o["norm_s"] for p in passes for o in p)
        return p50, p50

    def layer_metrics(self, tracer: tracing.Tracer, outcomes: list[dict]) -> dict[str, float] | None:
        """Per-layer numbers of one traced run, plus the trace cross-check."""
        (outcome,) = outcomes
        if "report" not in outcome:
            return None
        span, events, store, report = outcome["span"], outcome["events"], outcome["store"], outcome["report"]
        problems = outcome["problems"]
        runs = [s for s in tracer.spans if s.run == span.run]
        t = tracing.Totals(runs)
        m = shared_layer_metrics(t, 1, self.input_bytes)

        # one phase interval per progress event, tiling the run from its start
        start = span.start
        phase_s: dict[str, float] = {}
        for ts, event in events:
            name = f"engine.phase.{event['stage']}.{event['phase']}"
            if name in phase_s:
                problems.append(f"two progress events for {name}")
            phase_s[name] = tracer.interval(name, start, ts, span.id).duration
            start = ts
        if len(phase_s) != len(events) or not span.start <= start <= span.end:
            problems.append("phase intervals do not match the progress events")
        for stage, phases in PHASES.items():
            for phase in phases:
                m[f"engine.phase.{stage}.{phase}.host_s"] = phase_s.get(f"engine.phase.{stage}.{phase}", 0.0)

        traced = (t.n("blobstore.get"), t.n("blobstore.put"))
        reported = (report.store_metrics.get_count, report.store_metrics.put_count)
        if traced != reported:
            problems.append(f"traced get/put {traced} differ from the report's store_metrics {reported}")
        outcome["ok"] = not problems

        m["engine.tasks"] = sum(1 for _, _, run in tracer.instants if run == span.run)
        sorted_sizes = [size for _, size in store.peek_prefix("sorted/")]
        encoded_bytes = sum(size for _, size in store.peek_prefix("encoded/"))
        m["engine.reducer_skew"] = max(sorted_sizes) / statistics.fmean(sorted_sizes)
        m["shuffle.partition_objects"] = len(store.peek_prefix("part/"))
        m["codec.ratio"] = sum(sorted_sizes) / encoded_bytes
        m["codec.decode.mb_per_s"] = _rate(self.input_bytes / 1e6, outcome.get("decode_s", 0.0))
        return m



class ModelSweep:
    """One `faaslab compare --mode model --json` per sample, cycling a fixed grid."""

    def __init__(self, seed: int):
        from faaslab.workflow import parse_workflow

        files = sorted(common.GRID_DIR.glob("*.json")) + [common.PAPER_WORKFLOW]
        random.Random(seed).shuffle(files)
        self.files = files
        self.argvs = [
            ["compare", "--workflow", str(path), "--mode", "model", "--json", "--seed", str(seed)]
            for path in files
        ]
        sizes = [parse_workflow(path.read_text(encoding="utf-8")).input.size_bytes for path in files]
        self.run_mb = statistics.fmean(sizes) / 1e6
        self.fingerprint: dict[str, dict] = {}

    def prepare_checks(self) -> None:
        pass

    def run_times(self, passes: list[list[dict]]) -> tuple[float, float]:
        """(p50, p90) of normalized seconds per compare, over every compare."""
        times = [o["norm_s"] for p in passes for o in p]
        return statistics.median(times), _p90(times)

    def run_pass(self, tracer: tracing.Tracer | None = None) -> list[dict]:
        return [self.run(i, tracer) for i in range(len(self.argvs))]

    def run(self, index: int, tracer: tracing.Tracer | None = None) -> dict:
        from faaslab import cli

        argv = self.argvs[index]
        out, err = io.StringIO(), io.StringIO()
        outcome = {"ok": False, "problems": []}
        if tracer:
            tracer.run += 1
        before = reference.sample()
        with redirect_stdout(out), redirect_stderr(err):
            span = tracer.begin("cli.main") if tracer else None
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except Exception as exc:  # a failed run is counted, not fatal
                outcome["problems"].append(f"compare raised {type(exc).__name__}: {exc}")
                code = None
            outcome["run_s"] = time.perf_counter() - t0
            outcome["norm_s"] = reference.normalize([outcome["run_s"]], [before, reference.sample()])
            if tracer:
                tracer.end(span)
                outcome["span"] = span
        if code is not None:
            try:
                self._check(index, code, out.getvalue(), err.getvalue(), outcome["problems"])
            except Exception as exc:  # a check that cannot complete is a failure
                outcome["problems"].append(f"output check raised {type(exc).__name__}: {exc}")
        outcome["ok"] = not outcome["problems"]
        return outcome

    def _check(self, index: int, code: int, out: str, err: str, problems: list) -> None:
        from faaslab.perfmodel import CostBreakdown, LatencyBreakdown
        from faaslab.report import parse_report, report_to_json

        # totals are summed in field order, so they must match bit for bit
        phases = [f.name for f in fields(LatencyBreakdown)]
        components = [f.name for f in fields(CostBreakdown)]
        name = self.files[index].name
        if code != 0:
            problems.append(f"{name}: compare exited {code}: {err.strip()[-200:]}")
            return
        doc = json.loads(out)
        fingerprint = {}
        for row, strategy in zip(doc["rows"], ("serverless", "vm")):
            data = doc["reports"][strategy]
            text = json.dumps(data, indent=2) + "\n"
            if report_to_json(parse_report(text)) != text:
                problems.append(f"{name}/{strategy}: report does not round-trip")
            for stage in data["stages"]:
                latency = stage["latency"]
                if latency["total"] != sum(latency[f] for f in phases):
                    problems.append(f"{name}/{strategy}/{stage['id']}: latency total != phase sum")
            if data["end_to_end_s"] != sum(s["latency"]["total"] for s in data["stages"]):
                problems.append(f"{name}/{strategy}: end_to_end_s != sum of stage totals")
            if data["cost"]["total"] != sum(data["cost"][f] for f in components):
                problems.append(f"{name}/{strategy}: cost total != component sum")
            if (row["latency_s"], row["cost"]) != (data["end_to_end_s"], data["cost"]["total"]):
                problems.append(f"{name}/{strategy}: table row differs from its report")
            fingerprint[strategy] = {"virtual_s": data["end_to_end_s"], "sha256": _sha256(text)}
        # two strategies, each emitting one event per stage and one at the end
        events = err.count("\n")
        if events != 2 * (len(doc["reports"]["serverless"]["stages"]) + 1):
            problems.append(f"{name}: {events} progress events")
        known = self.fingerprint.setdefault(name, fingerprint)
        if known != fingerprint:
            problems.append(f"{name}: virtual-time fingerprint changed between runs")

    def layer_metrics(self, tracer: tracing.Tracer, outcomes: list[dict]) -> dict[str, float]:
        run_ids = {o["span"].run for o in outcomes}
        t = tracing.Totals([s for s in tracer.spans if s.run in run_ids])
        compares = len(outcomes)
        if (t.n("cli.main"), t.n("engine.run"), t.n("report.to_json")) != (
            compares, 2 * compares, 2 * compares
        ):
            outcomes[0]["problems"].append("traced compare spans do not match the compares run")
            outcomes[0]["ok"] = False
        m = shared_layer_metrics(t, compares, 0)
        for stage, phases in PHASES.items():
            for phase in phases:
                m[f"engine.phase.{stage}.{phase}.host_s"] = 0.0
        m.update({
            "engine.tasks": 0,
            "engine.reducer_skew": 0.0,
            "shuffle.partition_objects": 0,
            "codec.ratio": 0.0,
            "codec.decode.mb_per_s": 0.0,
        })
        return m


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _measure(bench, seconds: float, traced: bool) -> dict:
    """Run passes until the next one would end after `seconds`.

    Traced mode alternates an untraced pass with a traced one, so both
    see the same host conditions.
    """
    deadline = time.perf_counter() + seconds
    tracer = tracing.Tracer() if traced else None
    untraced, traced_passes, layers, outcomes = [], [], [], []
    first_trace = None
    peak_rss_mb = None
    while True:
        began = time.perf_counter()
        new = bench.run_pass()
        untraced.append(list(new))
        if peak_rss_mb is None:
            peak_rss_mb = _peak_rss_mb()
        if traced:
            undo = tracing.instrument(tracer)
            try:
                traced_pass = bench.run_pass(tracer)
            finally:
                undo()
            new += traced_pass
            traced_passes.append(traced_pass)
            layer = bench.layer_metrics(tracer, traced_pass)
            if layer is not None:
                layers.append(layer)
            if first_trace is None:
                first_trace = (list(tracer.spans), list(tracer.instants))
            tracer.clear()
        for outcome in new:
            outcome.pop("store", None)
        outcomes += new
        elapsed = time.perf_counter() - began
        if time.perf_counter() + elapsed > deadline:
            break
    return {
        "untraced": untraced,
        "traced": traced_passes,
        "layers": layers,
        "outcomes": outcomes,
        "trace": first_trace,
        "peak_rss_mb": peak_rss_mb,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=common.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() just before this process was started")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    common.import_faaslab()
    if args.workload == common.MODEL_SWEEP:
        bench = ModelSweep(args.seed)
    else:
        bench = EmulatedBench(args.workload, args.seed)
    host_setup_s = time.time() - args.spawned_at
    reference.warm_up()
    # set-up is one segment; only its end can be sampled
    setup_s = host_setup_s * reference.REFERENCE_S / reference.sample()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "host_setup_s": host_setup_s}))
        return
    bench.prepare_checks()

    result = _measure(bench, args.seconds, bool(args.trace))

    outcomes = result["outcomes"]
    failed = sum(1 for o in outcomes if not o["ok"])
    for o in outcomes:
        for problem in o["problems"]:
            print(f"perfbench: check failed: {problem}", file=sys.stderr)
    run_p50, run_p90 = bench.run_times(result["untraced"])
    out = {
        "attempted": len(outcomes),
        "failed": failed,
        "samples": sum(len(p) for p in result["untraced"]),
        "fingerprints": bench.fingerprint,
        "setup_s": setup_s,
        "host_setup_s": host_setup_s,
        "host_run_s.p50": statistics.median(o["run_s"] for p in result["untraced"] for o in p),
    }
    if args.trace:
        layer = {
            name: statistics.median(run[name] for run in result["layers"])
            for name in result["layers"][0]
        } if result["layers"] else {}
        layer["trace.overhead_s"] = bench.run_times(result["traced"])[0] - run_p50
        layer["error_rate"] = failed / len(outcomes)
        out["metrics"] = layer
        if result["trace"] is not None:
            spans, instants = result["trace"]
            common.OUT.mkdir(parents=True, exist_ok=True)
            path = common.OUT / f"trace-{args.workload}-seed{args.seed}.json"
            tracing.write_chrome_trace(path, spans, instants, {"workload": args.workload, "seed": args.seed})
            out["trace_file"] = str(path.relative_to(common.ROOT))
    else:
        out["metrics"] = {
            "run_s.p50": run_p50,
            "run_s.p90": run_p90,
            "input_mb_per_s": bench.run_mb / run_p50,
            "peak_rss_mb": result["peak_rss_mb"],
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
