"""Golden reports: the engine's output for a fixed set of runs never moves.

Each file under tests/golden/ holds one run's `report_to_json` output,
its progress events and its `on_task_start` calls. Reports and events
must match byte for byte. Task starts must keep their names, order and
count; the boundary sampler's tasks may report the phase `input_read`
(the phase they run in) or `sample`.
"""

import json
from pathlib import Path

import pytest

from faaslab.blobstore import Blobstore, VirtualClock
from faaslab.engine import EngineOptions, ExecHooks, Mode, run_workflow
from faaslab.methpipe import generate_synthetic, split_into_objects
from faaslab.perfmodel import builtin_profiles
from faaslab.report import report_to_json
from faaslab.workflow import (
    DataRef,
    ExchangeStrategy,
    StageKind,
    StageSpec,
    WorkflowSpec,
    parse_workflow,
    with_exchange,
)

GOLDEN = Path(__file__).parent / "golden"
WORKFLOWS = Path(__file__).parent.parent / "workflows"

SERVERLESS = ExchangeStrategy.SERVERLESS
VM = ExchangeStrategy.VM
SORT_ENCODE = (
    StageSpec("sort", StageKind.SORT_EXCHANGE),
    StageSpec("enc", StageKind.ENCODE, {"ratio": 10}),
)
CHAINED = SORT_ENCODE + (StageSpec("enc2", StageKind.ENCODE),)


def _model(workflow: str, exchange):
    spec = parse_workflow((WORKFLOWS / workflow).read_text(encoding="utf-8"))
    return with_exchange(spec, exchange), Mode.MODELED, None, {}


def _emulate(exchange, w, payloads, stages=SORT_ENCODE, **options):
    spec = WorkflowSpec(
        name="golden",
        input=DataRef("data", "raw/"),
        exchange=exchange,
        stages=stages,
        profiles=builtin_profiles("desk-v1"),
        parallelism=w,
    )
    store = Blobstore(spec.profiles.store, clock=VirtualClock())
    for i, payload in enumerate(payloads):
        store.seed_object(f"raw/{i:04d}", payload)
    return spec, Mode.EMULATED, store, options


def _shuffled():
    return split_into_objects(generate_synthetic(6000, seed=31, shuffled=True), 6)


def _presorted():
    return split_into_objects(generate_synthetic(6000, seed=32), 6)


CASES = {
    "model-paper-serverless": lambda: _model("paper-scale.json", SERVERLESS),
    "model-paper-vm": lambda: _model("paper-scale.json", VM),
    "model-auto-serverless": lambda: _model("auto-parallelism.json", SERVERLESS),
    "model-auto-vm": lambda: _model("auto-parallelism.json", VM),
    "emulate-serverless-w4": lambda: _emulate(SERVERLESS, 4, _shuffled()),
    "emulate-vm-w4": lambda: _emulate(VM, 4, _shuffled()),
    "emulate-serverless-auto": lambda: _emulate(SERVERLESS, None, _shuffled()),
    "emulate-serverless-presorted": lambda: _emulate(SERVERLESS, 4, _presorted()),
    "emulate-vm-presorted": lambda: _emulate(VM, 4, _presorted()),
    "emulate-serverless-empty": lambda: _emulate(SERVERLESS, 4, [b""] * 3),
    "emulate-vm-empty": lambda: _emulate(VM, 4, [b""] * 3),
    "emulate-serverless-chained": lambda: _emulate(SERVERLESS, 4, _shuffled(), CHAINED),
}


def run_case(name: str) -> tuple[str, list, list]:
    """Run one case: its report JSON, progress events and task starts."""
    spec, mode, store, options = CASES[name]()
    progress, tasks = [], []
    hooks = ExecHooks(on_task_start=lambda stage, phase, worker: tasks.append([stage, phase, worker]))
    engine_options = EngineOptions(progress=progress.append, hooks=hooks, **options)
    report = run_workflow(spec, mode, seed=5, store=store, options=engine_options)
    return report_to_json(report), progress, tasks


def _task_names(tasks):
    return [[stage, "input_read" if phase == "sample" else phase, worker] for stage, phase, worker in tasks]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_run(name):
    golden = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    report, progress, tasks = run_case(name)
    assert report == json.dumps(golden["report"], indent=2) + "\n"
    assert progress == golden["progress"]
    assert _task_names(tasks) == _task_names(golden["tasks"])


def test_golden_set_is_complete():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)
