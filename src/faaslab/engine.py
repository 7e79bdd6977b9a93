"""Workflow execution in emulated and modeled modes.

Emulated mode moves real bytes through the store. Each stage runs as a
sequence of phases with a full barrier between them (read, compute,
write, ...), mirroring the breakdown the analytic model produces. A
stage takes and returns its objects as a (key, size) list, the form
`peek_prefix` gives for the input. A phase's tasks run one after another
and take no time while they run: each appends its store requests and
its compute, charged at the profile's processing rates, to the store's
request ledger, and returns what it produced. A task's slice of the
ledger is its operation log, and `blobstore.replay` computes the phase's
w-wide concurrent timeline from those logs, every task starting at 0, so
timings are bit-for-bit reproducible regardless of host cores. The phase hands its tasks' results to the next phase and
records its time under its own name, which is the stage's
`LatencyBreakdown` field. A stage's request counts are its slice of the
ledger, counted by `StoreMetrics.of`.

Modeled mode skips data movement entirely and evaluates the closed-form
phase formulas, taking request counts from the exchange's exact count
laws (`request_laws`).

Every stage starts with one startup wave, VM provisioning for the VM
sort stage and a function cold start otherwise (`_Run._startup`). It is
a per-stage constant in both modes: emulated stages record it ahead of
their phases and do not replay it.

An emulated run allocates millions of lines and ints that never form
reference cycles, so it turns the cyclic garbage collector off while it
runs; reference counting still frees each one once it is dropped.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass
from enum import Enum
from functools import partial
from typing import Callable, Iterator

from faaslab import shuffle
from faaslab.blobstore import Blobstore, Session, StoreMetrics, replay
from faaslab.errors import ExecutionError, MemoryBudgetError, TaskError, ValidationError
from faaslab.methpipe.codec import encode_block, tsv_to_batches
# perfbench/tracing.py patches records_to_tsv and tsv_to_records here
from faaslab.methpipe.records import records_to_tsv, tsv_to_records  # noqa: F401
from faaslab.perfmodel import (
    DEFAULT_COMPRESSION_RATIO,
    CostBreakdown,
    LatencyBreakdown,
    compute_cost,
    encode_latency_model,
    optimal_worker_count,
    shuffle_latency_model,
    vm_exchange_latency_model,
)
from faaslab.workflow import (
    RESERVED_PREFIXES,
    ExchangeStrategy,
    StageKind,
    StageSpec,
    WorkflowSpec,
    validate_workflow,
)

GB = 1e9

# Block volume billed for the whole life of a VM exchange, in GB.
VM_VOLUME_GB = 100.0

ENCODED_TEMPLATE = "encoded/{stage}/{worker}"


class Mode(str, Enum):
    EMULATED = "emulate"
    MODELED = "model"


ProgressFn = Callable[[dict], None]


@dataclass
class ExecHooks:
    """Test and observability hooks; all optional.

    `on_task_start` runs at the top of every phase task and may raise to
    simulate worker failure; `on_buffer` observes the byte size of each
    payload a task materializes.
    """

    on_task_start: Callable[[str, str, int], None] | None = None
    on_buffer: Callable[[str, int, int], None] | None = None


@dataclass
class EngineOptions:
    progress: ProgressFn | None = None
    hooks: ExecHooks | None = None


@dataclass(frozen=True)
class StageReport:
    stage_id: str
    kind: str
    workers: int
    latency: LatencyBreakdown
    requests: StoreMetrics
    busy_seconds: float
    vm_seconds: float


@dataclass(frozen=True)
class RunReport:
    mode: str
    workflow: str
    exchange: str
    seed: int
    parallelism: int
    stages: tuple[StageReport, ...]
    cost: CostBreakdown
    store_metrics: StoreMetrics

    @property
    def end_to_end_s(self) -> float:
        total = 0.0
        for stage in self.stages:
            total += stage.latency.total
        return total


def request_laws(
    kind: StageKind,
    exchange: ExchangeStrategy,
    w: int,
    n_in: int,
    size: float = 0.0,
    sample_bytes: int = shuffle.DEFAULT_SAMPLE_BYTES,
    ratio: float = DEFAULT_COMPRESSION_RATIO,
) -> StoreMetrics:
    """Store requests of one stage with w workers and n_in input objects.

    Counts are exact for both modes:
    - serverless sort: GET = 2*n_in + w^2 (one sampler range GET and one
      read per input, w^2 partition reads), PUT = w^2 + w (partitions
      and sorted outputs);
    - VM sort: GET = n_in, PUT = w;
    - encode: GET = PUT = n_in.

    Byte counters are estimates from the stage's input `size`: the
    sampler reads min(sample_bytes, size / n_in) of each input, and an
    encode stage writes size / ratio.
    """
    if kind is StageKind.ENCODE:
        return StoreMetrics(
            put_count=n_in, get_count=n_in, bytes_in=int(size / ratio), bytes_out=int(size)
        )
    if exchange is ExchangeStrategy.VM:
        return StoreMetrics(put_count=w, get_count=n_in, bytes_in=int(size), bytes_out=int(size))
    sample = n_in * min(sample_bytes, size / max(n_in, 1))
    return StoreMetrics(
        put_count=w * w + w,
        get_count=2 * n_in + w * w,
        bytes_in=int(2 * size),
        bytes_out=int(2 * size + sample),
    )


def _resolve_input(spec: WorkflowSpec, store: Blobstore) -> list[tuple[str, int]]:
    """The (key, size) of each input object, in key order."""
    objects = store.peek_prefix(spec.input.prefix)
    if not objects:
        raise ValidationError(
            [f"input prefix {spec.input.prefix!r} resolves to no objects"]
        )
    return objects


def _stage_ratio(stage: StageSpec) -> float:
    return float(stage.options.get("ratio", DEFAULT_COMPRESSION_RATIO))


def _sample_bytes(stage: StageSpec) -> int:
    return int(stage.options.get("sample_bytes", shuffle.DEFAULT_SAMPLE_BYTES))


def _fetch(session: Session, objects, track) -> Iterator[tuple[str, bytes]]:
    """GET each (key, size) object in order; yields (key, payload)."""
    for key, _ in objects:
        payload = session.get_object(key)
        if track:
            track(len(payload))
        yield key, payload


def _write_sorted(
    session: Session, stage_id: str, reducer: int, payload: bytes, track
) -> tuple[str, int]:
    """PUT one sorted output range; returns its (key, size)."""
    if track:
        track(len(payload))
    key = shuffle.output_key(stage_id, reducer)
    session.put_object(key, payload)
    return key, len(payload)


def _cleanup_stage_outputs(store: Blobstore, stage: StageSpec) -> None:
    """Failed stages leave no outputs behind."""
    for prefix in RESERVED_PREFIXES:
        for key, _ in store.peek_prefix(f"{prefix}{stage.id}/"):
            store.delete_object(key)


class _Run:
    def __init__(
        self,
        spec: WorkflowSpec,
        mode: Mode,
        seed: int,
        store: Blobstore | None,
        options: EngineOptions,
    ):
        self.spec = spec
        self.mode = mode
        self.seed = seed
        self.store = store
        self.options = options
        self.profiles = spec.profiles
        # what one function task may hold in memory at once
        self.fn_budget = int(spec.profiles.compute.fn_mem_gb * GB)
        # the run's only accounting state: cost and totals derive from it
        self.stage_reports: list[StageReport] = []
        # elapsed virtual time of each phase of the running stage, by name
        self.times: dict[str, float] = {}

    # -- shared plumbing ---------------------------------------------------

    def _emit(
        self, stage: str, phase: str, fraction: float, cost: CostBreakdown | None = None
    ) -> None:
        """Report progress with the cost of the stages recorded so far."""
        if self.options.progress is None:
            return
        if cost is None:
            cost = self._cost_so_far(self._store_metrics())
        self.options.progress(
            {
                "stage": stage,
                "phase": phase,
                "fraction": round(fraction, 6),
                "cost_so_far": cost.total,
            }
        )

    def _bills_as_vm(self, kind: str) -> bool:
        return kind == StageKind.SORT_EXCHANGE and self.spec.exchange is ExchangeStrategy.VM

    def _startup(self, stage: StageSpec) -> float:
        """The stage's startup wave: VM provisioning for the VM sort
        stage, a function cold start for any other."""
        compute = self.profiles.compute
        return compute.vm_provision if self._bills_as_vm(stage.kind) else compute.fn_startup

    def _store_metrics(self) -> StoreMetrics:
        return StoreMetrics.total(report.requests for report in self.stage_reports)

    def _cost_so_far(self, metrics: StoreMetrics) -> CostBreakdown:
        """Bill the recorded stages, whose store requests sum to `metrics`;
        the VM sort stage also bills its volume."""
        busy_seconds, workers = [], []
        vm_seconds, vol_gb = 0.0, 0.0
        for report in self.stage_reports:
            if self._bills_as_vm(report.kind):
                vm_seconds += report.vm_seconds
                vol_gb = VM_VOLUME_GB
            else:
                busy_seconds.append(report.busy_seconds)
                workers.append(report.workers)
        return compute_cost(
            busy_seconds,
            workers,
            metrics,
            vm_seconds,
            vol_gb,
            self.profiles.prices,
            self.profiles.compute,
        )

    def _resolve_w(self, size: float, n_in: int, store_profile) -> int:
        """The declared parallelism, or the optimizer's choice for auto."""
        spec = self.spec
        if spec.parallelism is not None:
            w = spec.parallelism
        elif size > 0:
            ratio = next(
                (_stage_ratio(s) for s in spec.stages if s.kind is StageKind.ENCODE),
                DEFAULT_COMPRESSION_RATIO,
            )
            w = optimal_worker_count(
                size, n_in, store_profile, self.profiles.compute, spec.w_max, ratio
            )
        else:
            w = 1
        self.resolved_w = w
        return w

    def _record_stage(
        self, stage: StageSpec, latency: LatencyBreakdown, requests: StoreMetrics
    ) -> None:
        vm_stage = self._bills_as_vm(stage.kind)
        self.stage_reports.append(
            StageReport(
                stage_id=stage.id,
                kind=stage.kind.value,
                workers=self.resolved_w,
                latency=latency,
                requests=requests,
                busy_seconds=0.0 if vm_stage else latency.total - latency.startup,
                vm_seconds=latency.total if vm_stage else 0.0,
            )
        )
        self._emit(stage.id, "stage-complete", 1.0)

    def _finish(self) -> RunReport:
        metrics = self._store_metrics()
        cost = self._cost_so_far(metrics)
        report = RunReport(
            mode=self.mode.value,
            workflow=self.spec.name,
            exchange=self.spec.exchange.value,
            seed=self.seed,
            parallelism=self.resolved_w,
            stages=tuple(self.stage_reports),
            cost=cost,
            store_metrics=metrics,
        )
        self._emit("-", "done", 1.0, cost)
        return report

    # -- modeled mode --------------------------------------------------------

    def run_modeled(self) -> RunReport:
        spec = self.spec
        store, compute = self.profiles.store, self.profiles.compute
        if spec.input.size_bytes is None:
            raise ValidationError(["modeled runs need input.size_bytes"])
        size = float(spec.input.size_bytes)
        count = spec.input.object_count or 1
        w = self._resolve_w(size, count, store)
        for stage in spec.stages:
            ratio = _stage_ratio(stage)
            requests = request_laws(
                stage.kind, spec.exchange, w, count, size, _sample_bytes(stage), ratio
            )
            # models are looked up by name here, so they can be patched on this module
            if stage.kind is StageKind.ENCODE:
                model, args = encode_latency_model, (size, w, ratio)
            elif spec.exchange is ExchangeStrategy.VM:
                model, args = vm_exchange_latency_model, (size, count, w)
            else:
                model, args = shuffle_latency_model, (size, w, count)
            latency = model(*args, store, compute) if size > 0 else LatencyBreakdown(startup=self._startup(stage))
            self._record_stage(stage, latency, requests)
            # the encode stage reads the sort stage's w outputs
            count = w
        return self._finish()

    # -- emulated mode ---------------------------------------------------------

    def run_emulated(self) -> RunReport:
        """Run every stage on the store with the cyclic collector off.

        The caller's collector setting is restored however the run ends.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            return self._emulate()
        finally:
            if enabled:
                gc.enable()

    def _emulate(self) -> RunReport:
        spec = self.spec
        store = self.store
        if store is None:
            raise ValidationError(["emulated runs need a store with the input objects"])
        objects = _resolve_input(spec, store)
        self._resolve_w(sum(size for _, size in objects), len(objects), store.profile)
        for stage in spec.stages:
            if stage.kind is StageKind.ENCODE:
                execute = self._encode
            elif spec.exchange is ExchangeStrategy.VM:
                execute = self._sort_vm
            else:
                execute = self._sort_serverless
            self.times = {"startup": self._startup(stage)}
            first = len(store.ledger)
            try:
                self._emit(stage.id, "startup", 0.0)
                objects = execute(stage, objects)
            except BaseException as exc:
                _cleanup_stage_outputs(store, stage)
                if isinstance(exc, TaskError) and isinstance(exc.cause, MemoryBudgetError):
                    raise ExecutionError(stage.id, exc.cause) from exc.cause
                if isinstance(exc, (TaskError, MemoryBudgetError)):
                    raise ExecutionError(stage.id, exc) from exc
                raise
            latency = LatencyBreakdown(**self.times)
            self._record_stage(stage, latency, StoreMetrics.of(store.ledger[first:]))
        return self._finish()

    def _phase(
        self,
        stage: StageSpec,
        name: str,
        fraction: float,
        tasks: list[Callable[[], object]],
    ) -> list:
        """Run one barrier phase and return its tasks' results in worker order.

        Runs the tasks in index order, task i as worker i, each
        appending its requests and compute charges to the store's
        ledger. Since the tasks run one after another, task i's ledger
        slice is its operation log. Replays the logs, every task
        starting at 0, records the phase's span, its last task's finish,
        under `name` in the stage's phase times, which build the stage's
        latency, and emits the phase's progress event. A failing task
        raises TaskError with its worker index and the phase.
        """
        store = self.store
        ledger = store.ledger
        hooks = self.options.hooks
        on_start = hooks.on_task_start if hooks else None
        logs, results = [], []
        for worker, task in enumerate(tasks):
            first = len(ledger)
            try:
                if on_start:
                    on_start(stage.id, name, worker)
                results.append(task())
            except BaseException as exc:
                # sampler j (task w + j) samples object j, which mapper j mod w reads
                raise TaskError(worker % self.resolved_w, exc, name) from exc
            logs.append(ledger[first:])
        self.times[name] = max(replay(logs, store.profile))
        self._emit(stage.id, name, fraction)
        return results

    def _tracker(self, stage: StageSpec, worker: int):
        hooks = self.options.hooks
        if hooks and hooks.on_buffer:
            return lambda nbytes: hooks.on_buffer(stage.id, worker, nbytes)
        return None

    def _each(self, fn: Callable[[int], object]) -> list:
        """One task per function: worker i runs fn(i)."""
        return [partial(fn, i) for i in range(self.resolved_w)]

    def _readers(self, stage: StageSpec, role: str, objects: list, session: Session) -> list:
        """input_read tasks: deal objects round-robin to the w functions, within
        their memory; function i GETs objects i, i + w, i + 2w, ..."""
        w = self.resolved_w
        assigned = [list(objects[i::w]) for i in range(w)]
        for worker, objs in enumerate(assigned):
            total = sum(size for _, size in objs)
            if total > self.fn_budget:
                raise MemoryBudgetError(
                    f"{role} {worker} assigned {total} bytes, budget {self.fn_budget}"
                )

        def read(worker: int):
            return list(_fetch(session, assigned[worker], self._tracker(stage, worker)))

        return self._each(read)

    def _sort_serverless(self, stage: StageSpec, objects: list) -> list:
        compute, w = self.profiles.compute, self.resolved_w
        sample_bytes = _sample_bytes(stage)
        session = self.store.session()
        readers = self._readers(stage, "mapper", objects, session)

        # map reads and the sampler's range GETs run concurrently in one
        # input_read phase; the plan is built at the phase barrier, before
        # any record is partitioned
        samplers = [
            partial(shuffle.sample_object, session, key, size, sample_bytes)
            for key, size in objects
        ]
        payloads = self._phase(stage, "input_read", 0.3, readers + samplers)
        keys = [key for keys in payloads[w:] for key in keys]
        del payloads[w:]
        plan = shuffle.plan_partitions(keys, w) if keys else shuffle.ShufflePlan(w, ())

        def partition(worker: int):
            nbytes = sum(len(p) for _, p in payloads[worker])
            lines = shuffle.sort_lines(payloads[worker])
            payloads[worker] = None
            routed = shuffle.partition_records(lines, plan)
            self.store.charge(nbytes / compute.fn_sort_rate)
            return routed

        fragments = self._phase(stage, "sort_compute", 0.5, self._each(partition))

        def scatter(worker: int):
            track = self._tracker(stage, worker)
            shuffle.write_fragments(fragments[worker], stage.id, worker, session, track)
            fragments[worker] = None

        self._phase(stage, "partition_write", 0.65, self._each(scatter))

        def gather(worker: int):
            got = shuffle.read_fragments(worker, w, session, stage.id)
            total = sum(len(p) for _, p in got)
            if total > self.fn_budget:
                raise MemoryBudgetError(
                    f"reducer {worker} holds {total} bytes, budget {self.fn_budget}"
                )
            return got

        gathered = self._phase(stage, "partition_read", 0.85, self._each(gather))

        def reduce(worker: int):
            payload = shuffle.merge_fragments(gathered[worker])
            gathered[worker] = None
            track = self._tracker(stage, worker)
            return _write_sorted(session, stage.id, worker, payload, track)

        return self._phase(stage, "output_write", 1.0, self._each(reduce))

    def _sort_vm(self, stage: StageSpec, objects: list) -> list:
        compute, w = self.profiles.compute, self.resolved_w
        size = sum(size for _, size in objects)
        session = self.store.session(conn_bandwidth=compute.vm_bandwidth)
        track = self._tracker(stage, 0)
        [payloads] = self._phase(
            stage, "input_read", 0.35, [lambda: list(_fetch(session, objects, track))]
        )

        def sort():
            lines = shuffle.sort_lines(payloads)
            payloads.clear()
            self.store.charge(size / compute.vm_sort_rate)
            return lines

        [lines] = self._phase(stage, "sort_compute", 0.7, [sort])

        def write():
            # the ranges take over the lines; each range is released once
            # written, so the lines shrink as the written output grows
            ranges = shuffle.split_sorted(lines, w)
            lines.clear()
            outputs = []
            for reducer in range(w):
                ranges[reducer].append(b"")
                payload = b"\n".join(ranges[reducer])
                outputs.append(_write_sorted(session, stage.id, reducer, payload, track))
                ranges[reducer] = None
            return outputs

        [outputs] = self._phase(stage, "output_write", 1.0, [write])
        return outputs

    def _encode(self, stage: StageSpec, objects: list) -> list:
        """Encode the sort stage's w outputs, one object per worker."""
        compute = self.profiles.compute
        session = self.store.session()
        readers = self._readers(stage, "encoder", objects, session)
        payloads = self._phase(stage, "input_read", 0.35, readers)

        def encode(worker: int):
            [(key, payload)] = payloads[worker]
            block = encode_block(shuffle.parse_object(tsv_to_batches, payload, key))
            track = self._tracker(stage, worker)
            if track:
                track(len(block))
            payloads[worker] = None
            self.store.charge(len(payload) / compute.fn_encode_rate)
            return block

        blocks = self._phase(stage, "encode", 0.7, self._each(encode))

        def write(worker: int):
            key = ENCODED_TEMPLATE.format(stage=stage.id, worker=worker)
            block, blocks[worker] = blocks[worker], None
            session.put_object(key, block)
            return key, len(block)

        return self._phase(stage, "output_write", 1.0, self._each(write))


def run_workflow(
    spec: WorkflowSpec,
    mode: Mode | str = Mode.EMULATED,
    seed: int = 0,
    store: Blobstore | None = None,
    options: EngineOptions | None = None,
) -> RunReport:
    """Execute a workflow end to end and return its report.

    Emulated mode needs a store already holding the input objects; each
    phase's replayed span goes into its stage's latency, and the store's
    clock is not read or advanced. Modeled mode needs the input's
    declared size. Auto parallelism is resolved by the optimizer before
    execution and recorded in the report. A failed stage raises
    ExecutionError naming it, after deleting its outputs. Deterministic
    given (spec, mode, seed), timings included.
    """
    mode = Mode(mode)
    violations = validate_workflow(spec)
    if violations:
        raise ValidationError(violations)
    run = _Run(spec, mode, seed, store, options or EngineOptions())
    if mode is Mode.MODELED:
        return run.run_modeled()
    return run.run_emulated()
