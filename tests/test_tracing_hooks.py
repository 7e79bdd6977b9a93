"""The benchmark's tracing hooks find every attribute they patch, and undo restores them.

`perfbench/tracing.py` wraps faaslab functions by module attribute name,
so renaming one of them breaks the benchmark's traced run. These tests
load the hooks from the checkout and fail on such a rename first.
"""

import math
import types
from pathlib import Path

from faaslab import blobstore, cli, engine, perfmodel, shuffle
from faaslab.blobstore import Blobstore, StoreProfile, VirtualClock
from faaslab.engine import Mode, run_workflow
from faaslab.methpipe import generate_synthetic, split_into_objects
from faaslab.perfmodel import builtin_profiles
from faaslab.workflow import DataRef, ExchangeStrategy, StageKind, StageSpec, WorkflowSpec

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"

# everything instrument() may patch
OWNERS = (engine, shuffle, perfmodel, cli, blobstore.Session)


def load_tracing():
    """Execute perfbench/tracing.py as a module, writing no bytecode beside it."""
    module = types.ModuleType("perfbench_tracing")
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), module.__dict__)
    return module


def attributes():
    return {owner: dict(vars(owner)) for owner in OWNERS}


def sort_encode_run(exchange):
    store = Blobstore(StoreProfile(0.0, math.inf, math.inf, math.inf), clock=VirtualClock())
    records = generate_synthetic(2000, seed=3, shuffled=True)
    for i, payload in enumerate(split_into_objects(records, 4)):
        store.seed_object(f"raw/{i}", payload)
    spec = WorkflowSpec(
        name="traced",
        input=DataRef("data", "raw/"),
        exchange=exchange,
        stages=(StageSpec("sort", StageKind.SORT_EXCHANGE), StageSpec("enc", StageKind.ENCODE)),
        profiles=builtin_profiles("desk-v1"),
        parallelism=3,
    )
    return run_workflow(spec, Mode.EMULATED, store=store)


def auto_modeled_run():
    """A modeled run whose parallelism the optimizer resolves."""
    spec = WorkflowSpec(
        name="traced-auto",
        input=DataRef("data", "raw/", size_bytes=3.5e9, object_count=8),
        exchange=ExchangeStrategy.SERVERLESS,
        stages=(StageSpec("sort", StageKind.SORT_EXCHANGE), StageSpec("enc", StageKind.ENCODE)),
        profiles=builtin_profiles(),
    )
    return run_workflow(spec, Mode.MODELED)


def test_instrument_patches_existing_attributes_and_undo_restores_them():
    tracing = load_tracing()
    before = attributes()
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        during = attributes()
        patched = {
            (getattr(owner, "__name__", owner), name)
            for owner in OWNERS
            for name, value in during[owner].items()
            if before[owner].get(name) is not value
        }
        for ex in ExchangeStrategy:
            seen = len(tracer.spans)
            report = sort_encode_run(ex)
            # a request that bypasses the Session methods opens no span
            totals = tracing.Totals(tracer.spans[seen:])
            traced = (totals.n("blobstore.get"), totals.n("blobstore.put"))
            assert traced == (report.store_metrics.get_count, report.store_metrics.put_count), ex
        auto_modeled_run()
    finally:
        undo()
    assert attributes() == before
    assert {
        ("faaslab.engine", "tsv_to_records"),
        ("faaslab.engine", "records_to_tsv"),
        ("faaslab.shuffle", "tsv_to_records"),
        ("faaslab.shuffle", "records_to_tsv"),
        ("faaslab.shuffle", "partition_records"),
        ("faaslab.shuffle", "merge_fragments"),
        ("faaslab.shuffle", "split_sorted"),
        ("faaslab.engine", "encode_block"),
        ("faaslab.engine", "optimal_worker_count"),
        ("Session", "get_object"),
        ("Session", "put_object"),
    } <= patched
    # the wrapped functions ran, and their span attributes could be read
    names = {span.name for span in tracer.spans}
    assert {
        "records.parse",
        "shuffle.plan",
        "shuffle.partition",
        "shuffle.merge",
        "shuffle.split",
        "codec.encode",
        "perfmodel.optimize",
        "blobstore.get",
        "blobstore.put",
    } <= names


def test_traced_model_compare_opens_the_spans_the_benchmark_counts(capsys):
    # perfbench's model-sweep rejects a traced compare unless it opens one
    # workflow.parse, two engine.run and two report.to_json spans
    tracing = load_tracing()
    before = attributes()
    tracer = tracing.Tracer()
    undo = tracing.instrument(tracer)
    try:
        code = cli.main(["compare", "--workflow", str(ROOT / "workflows" / "auto-parallelism.json"),
                         "--mode", "model", "--json"])
    finally:
        undo()
    assert attributes() == before
    assert code == 0
    assert capsys.readouterr().out
    totals = tracing.Totals(tracer.spans)
    assert (totals.n("workflow.parse"), totals.n("engine.run"), totals.n("report.to_json")) == (1, 2, 2)
