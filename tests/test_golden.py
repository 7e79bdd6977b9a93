"""Golden reports: the engine's output for a fixed set of runs never moves.

Each file under tests/golden/ holds one run's `report_to_json` output,
its progress events and its `on_task_start` calls. Reports and events
must match byte for byte. Task starts must keep their names, order and
count; the boundary sampler's tasks may report the phase `input_read`
(the phase they run in) or `sample`.

Each file under tests/golden/compare/ holds one `faaslab compare` run's
exit code, stdout and stderr, which must match byte for byte.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from faaslab.blobstore import Blobstore, VirtualClock
from faaslab.cli import main
from faaslab.engine import EngineOptions, ExecHooks, Mode, run_workflow
from faaslab.methpipe import generate_synthetic, split_into_objects
from faaslab.perfmodel import builtin_profiles, profiles_to_dict
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


# --- faaslab compare ------------------------------------------------------------

COMPARE_GOLDEN = GOLDEN / "compare"


def _compare_model(workflow, *flags):
    return lambda tmp_path: ["--workflow", str(WORKFLOWS / workflow), "--mode", "model", *flags]


def _compare_emulate_auto(tmp_path):
    """An auto workflow on 20,000 generated records in 8 objects (w = 3)."""
    store = str(tmp_path / "store")
    with redirect_stdout(io.StringIO()):
        assert main(["generate", "--records", "20000", "--objects", "8", "--seed", "17",
                     "--store", store]) == 0
    doc = {
        "version": "v1",
        "name": "emulate-auto",
        "input": {"bucket": "data", "prefix": "raw/"},
        "exchange": "serverless",
        "parallelism": "auto",
        "stages": [
            {"id": "sort", "kind": "sort"},
            {"id": "encode", "kind": "encode", "options": {"ratio": 10}},
        ],
        "profiles": profiles_to_dict(builtin_profiles("desk-v1")),
    }
    path = tmp_path / "emulate-auto.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return ["--workflow", str(path), "--mode", "emulate", "--store", store, "--json"]


COMPARE_CASES = {
    "model-auto": _compare_model("auto-parallelism.json"),
    "model-auto-json": _compare_model("auto-parallelism.json", "--json"),
    "model-paper": _compare_model("paper-scale.json"),
    "model-paper-json": _compare_model("paper-scale.json", "--json"),
    "emulate-auto-json": _compare_emulate_auto,
}


def run_compare_case(name: str, tmp_path) -> dict:
    """Run one `faaslab compare` case: its exit code, stdout and stderr."""
    argv = ["compare", *COMPARE_CASES[name](tmp_path), "--seed", "5"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("name", sorted(COMPARE_CASES))
def test_golden_compare(name, tmp_path, monkeypatch):
    monkeypatch.delenv("FAASLAB_PROFILE", raising=False)
    golden = json.loads((COMPARE_GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    assert run_compare_case(name, tmp_path) == golden


def test_golden_compare_after_usage_error(tmp_path, monkeypatch, capsys):
    # calls in one process share one parser; a call that argparse rejects
    # after reading --json and --seed leaves nothing for the next call
    monkeypatch.delenv("FAASLAB_PROFILE", raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["compare", *COMPARE_CASES["model-auto-json"](tmp_path), "--seed", "9", "--bogus"])
    assert exc.value.code == 2
    assert "--bogus" in capsys.readouterr().err
    golden = json.loads((COMPARE_GOLDEN / "model-auto.json").read_text(encoding="utf-8"))
    assert run_compare_case("model-auto", tmp_path) == golden


def test_golden_compare_set_is_complete():
    assert sorted(p.stem for p in COMPARE_GOLDEN.glob("*.json")) == sorted(COMPARE_CASES)
