"""Spans recorded around faaslab's public functions, from outside the program.

`instrument` replaces module attributes and `Session` methods with
wrappers that open a span, call the original and close the span; the
returned callable puts every original back. Spans live in memory until
the benchmark derives per-layer numbers from them or writes them as a
Chrome trace-event file (`write_chrome_trace`), which opens in Perfetto.

A span's self time is its duration minus the durations of its direct
children. Calls are single-threaded (the virtual clock runs phase tasks
one after another), so children nest and never overlap.
"""

from __future__ import annotations

import functools
import json
import time

# Chrome trace track (thread id) of each layer, in display order.
LAYERS = ("engine", "records", "shuffle", "codec", "blobstore", "perfmodel", "workflow", "report", "cli")


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "child_s", "attrs")

    def __init__(self, span_id, name, start, parent, run):
        self.id = span_id
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run
        self.child_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.instants: list[tuple[float, str, int]] = []
        self.run = 0
        self.virtual_clock = None
        self._stack: list[Span] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), parent, self.run)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")
        if self._stack:
            self._stack[-1].child_s += span.end - span.start

    def interval(self, name: str, start: float, end: float, parent: int | None) -> Span:
        """Record a span derived after the fact; it is nobody's child time."""
        span = Span(len(self.spans), name, start, parent, self.run)
        span.end = end
        self.spans.append(span)
        return span

    def instant(self, name: str) -> None:
        self.instants.append((time.perf_counter(), name, self.run))

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()


def _wrap(tracer: Tracer, name: str, fn, attrs=None):
    """Wrap fn in a span; attrs(args, result) may annotate the span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        if attrs is not None:
            span.attrs = attrs(args, result)
        return result

    return wrapper


def _wrap_request(tracer: Tracer, name: str, fn, payload_size):
    """Wrap a store request; records bytes and the virtual time it took."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        clock = tracer.virtual_clock
        v0 = clock.now() if clock is not None else 0.0
        span = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(span)
        v1 = clock.now() if clock is not None else 0.0
        span.attrs = {"bytes": payload_size(args, result), "virtual_s": v1 - v0}
        return result

    return wrapper


def _parse_attrs(args, records):
    return {"bytes": len(args[0]), "records": len(records)}


def _serialize_attrs(args, payload):
    return {"bytes": len(payload)}


def _records_in(args, result):
    return {"records": len(args[0])}


def instrument(tracer: Tracer):
    """Patch faaslab's layer boundaries to record spans; returns an undo callable."""
    from faaslab import blobstore, cli, engine, perfmodel, shuffle

    patched = []

    def patch(owner, attr, wrapper_of):
        original = getattr(owner, attr)
        patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_of(original))

    for module in (engine, shuffle):
        patch(module, "tsv_to_records", lambda f: _wrap(tracer, "records.parse", f, _parse_attrs))
        patch(module, "records_to_tsv", lambda f: _wrap(tracer, "records.serialize", f, _serialize_attrs))
    patch(shuffle, "plan_partitions", lambda f: _wrap(tracer, "shuffle.plan", f))
    patch(shuffle, "partition_records", lambda f: _wrap(tracer, "shuffle.partition", f, _records_in))
    patch(shuffle, "merge_fragments", lambda f: _wrap(tracer, "shuffle.merge", f))
    patch(shuffle, "split_sorted", lambda f: _wrap(tracer, "shuffle.split", f))
    patch(engine, "encode_block", lambda f: _wrap(tracer, "codec.encode", f, _records_in))
    patch(engine, "optimal_worker_count", lambda f: _wrap(tracer, "perfmodel.optimize", f))
    for name in ("shuffle_latency_model", "vm_exchange_latency_model", "encode_latency_model"):
        patch(engine, name, lambda f: _wrap(tracer, "perfmodel.eval", f))
    for name in ("shuffle_latency_model", "encode_latency_model"):
        patch(perfmodel, name, lambda f: _wrap(tracer, "perfmodel.eval", f))
    patch(blobstore.Session, "get_object",
          lambda f: _wrap_request(tracer, "blobstore.get", f, lambda a, r: len(r)))
    patch(blobstore.Session, "put_object",
          lambda f: _wrap_request(tracer, "blobstore.put", f, lambda a, r: len(a[2])))
    patch(cli, "parse_workflow", lambda f: _wrap(tracer, "workflow.parse", f))
    patch(cli, "report_to_json", lambda f: _wrap(tracer, "report.to_json", f))
    patch(cli, "run_workflow", lambda f: _wrap(tracer, "engine.run", f))

    def undo():
        for owner, attr, original in reversed(patched):
            setattr(owner, attr, original)

    return undo


class Totals:
    """Per-span-name sums over a set of spans."""

    def __init__(self, spans):
        self.count: dict[str, int] = {}
        self.dur: dict[str, float] = {}
        self.self_s: dict[str, float] = {}
        self.attr: dict[tuple[str, str], float] = {}
        for span in spans:
            name = span.name
            self.count[name] = self.count.get(name, 0) + 1
            self.dur[name] = self.dur.get(name, 0.0) + span.duration
            self.self_s[name] = self.self_s.get(name, 0.0) + span.self_s
            if span.attrs:
                for key, value in span.attrs.items():
                    self.attr[name, key] = self.attr.get((name, key), 0) + value

    def n(self, name: str) -> int:
        return self.count.get(name, 0)

    def self_time(self, name: str) -> float:
        return self.self_s.get(name, 0.0)

    def duration(self, name: str) -> float:
        return self.dur.get(name, 0.0)

    def sum(self, name: str, key: str) -> float:
        return self.attr.get((name, key), 0)


def write_chrome_trace(path, spans, instants, meta: dict) -> None:
    """Write spans as Chrome trace-event JSON, one track per layer."""
    tid = {layer: i + 1 for i, layer in enumerate(LAYERS)}
    origin = min((s.start for s in spans), default=0.0)
    events = [{"name": "process_name", "ph": "M", "pid": 1, "args": {"name": "faaslab"}}]
    for layer, t in tid.items():
        events.append({"name": "thread_name", "ph": "M", "pid": 1, "tid": t, "args": {"name": layer}})
        events.append({"name": "thread_sort_index", "ph": "M", "pid": 1, "tid": t, "args": {"sort_index": t}})
    for span in spans:
        layer = span.name.split(".", 1)[0]
        args = {"span": span.id, "parent": span.parent, "run": span.run}
        if span.attrs:
            args.update(span.attrs)
        events.append(
            {
                "name": span.name,
                "cat": layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.duration * 1e6,
                "pid": 1,
                "tid": tid[layer],
                "args": args,
            }
        )
    for ts, name, run in instants:
        events.append(
            {
                "name": name,
                "cat": "engine",
                "ph": "i",
                "s": "t",
                "ts": (ts - origin) * 1e6,
                "pid": 1,
                "tid": tid["engine"],
                "args": {"run": run},
            }
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms", "otherData": meta}, fh)
