"""CLI tests: flags, exit codes, JSON output, progress stream."""

import json
from pathlib import Path

import pytest

from faaslab import engine
from faaslab.cli import _build_run_store, main
from faaslab.engine import Mode, request_laws, run_workflow
from faaslab.methpipe import generate_synthetic, split_into_objects
from faaslab.perfmodel import builtin_profiles, profiles_to_dict
from faaslab.report import parse_report, report_to_json
from faaslab.workflow import ExchangeStrategy, StageKind, parse_workflow, with_exchange

AUTO_WORKFLOW = Path(__file__).parent.parent / "workflows" / "auto-parallelism.json"

PAPER_DOC = {
    "version": "v1",
    "name": "paper",
    "input": {"bucket": "data", "prefix": "raw/", "size_bytes": 3.5e9, "objects": 8},
    "exchange": "serverless",
    "parallelism": 8,
    "stages": [
        {"id": "sort", "kind": "sort"},
        {"id": "encode", "kind": "encode", "options": {"ratio": 10}},
    ],
}


@pytest.fixture
def paper_workflow(tmp_path):
    path = tmp_path / "wf.json"
    path.write_text(json.dumps(PAPER_DOC))
    return str(path)


@pytest.fixture
def desk_workflow(tmp_path):
    doc = dict(PAPER_DOC)
    doc["name"] = "desk"
    doc["input"] = {"bucket": "data", "prefix": "raw/"}
    doc["profiles"] = profiles_to_dict(builtin_profiles("desk-v1"))
    path = tmp_path / "desk.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- generate ----------------------------------------------------------------

def test_generate_zero_records(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--records", "0", "--objects", "1", "--store", str(tmp_path)
    )
    assert code == 0
    manifest = json.loads(out)
    assert manifest["total_bytes"] == 0
    assert manifest["objects"] == [{"key": "raw/0000", "size": 0}]

def test_generate_deterministic(tmp_path, capsys):
    args = ["generate", "--records", "5000", "--seed", "9", "--objects", "4"]
    code1, out1, _ = run_cli(capsys, *args, "--store", str(tmp_path / "a"))
    code2, out2, _ = run_cli(capsys, *args, "--store", str(tmp_path / "b"))
    assert code1 == code2 == 0
    m1, m2 = json.loads(out1), json.loads(out2)
    assert m1["objects"] == m2["objects"]
    for entry in m1["objects"]:
        a = (tmp_path / "a" / "data" / entry["key"].replace("/", "%2F")).read_bytes()
        b = (tmp_path / "b" / "data" / entry["key"].replace("/", "%2F")).read_bytes()
        assert a == b

def test_generate_balanced_sizes(tmp_path, capsys):
    code, out, _ = run_cli(
        capsys, "generate", "--records", "100000", "--objects", "8",
        "--store", str(tmp_path), "--seed", "3",
    )
    assert code == 0
    sizes = [o["size"] for o in json.loads(out)["objects"]]
    assert len(sizes) == 8
    assert max(sizes) - min(sizes) <= 40  # one record's bytes

def test_generate_bad_flags_exit_2(tmp_path, capsys):
    assert run_cli(capsys, "generate", "--records", "-1", "--objects", "1",
                   "--store", str(tmp_path))[0] == 2
    assert run_cli(capsys, "generate", "--records", "1", "--objects", "0",
                   "--store", str(tmp_path))[0] == 2

def test_generate_after_sorted_generate_is_shuffled(tmp_path, capsys):
    # calls in one process share one parser: `--sorted` must not stick
    args = ["generate", "--records", "2000", "--seed", "4", "--objects", "2"]
    assert run_cli(capsys, *args, "--sorted", "--store", str(tmp_path / "a"))[0] == 0
    assert run_cli(capsys, *args, "--store", str(tmp_path / "b"))[0] == 0
    objects = [
        [(tmp_path / side / "data" / f"raw%2F{i:04d}").read_bytes() for i in range(2)]
        for side in ("a", "b")
    ]
    assert objects[1] == split_into_objects(generate_synthetic(2000, 4, shuffled=True), 2)
    assert objects[0] != objects[1]


# --- run ---------------------------------------------------------------------------

def test_run_model_json_round_trips(paper_workflow, capsys):
    code, out, err = run_cli(
        capsys, "run", "--workflow", paper_workflow, "--mode", "model", "--json"
    )
    assert code == 0
    report = parse_report(out)
    assert report.mode == "model"
    assert report.exchange == "serverless"
    assert 0 < report.end_to_end_s < 1000
    # progress lines are JSON objects on stderr
    lines = [json.loads(line) for line in err.strip().splitlines()]
    assert lines[-1]["phase"] == "done"
    assert lines[-1]["cost_so_far"] == report.cost.total

def test_run_model_human_output(paper_workflow, capsys):
    code, out, _ = run_cli(capsys, "run", "--workflow", paper_workflow, "--mode", "model")
    assert code == 0
    assert "end-to-end latency" in out
    assert "fn_compute" in out

def test_run_exchange_override(paper_workflow, capsys):
    code, out, _ = run_cli(
        capsys, "run", "--workflow", paper_workflow, "--mode", "model",
        "--exchange", "vm", "--json",
    )
    assert code == 0
    assert parse_report(out).exchange == "vm"

def test_run_after_exchange_override_keeps_workflow_exchange(paper_workflow, capsys):
    # calls in one process share one parser: `--exchange` must not stick
    argv = ["run", "--workflow", paper_workflow, "--mode", "model", "--json"]
    assert run_cli(capsys, *argv, "--exchange", "vm")[0] == 0
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert parse_report(out).exchange == "serverless"

def test_run_emulate_empty_input(desk_workflow, tmp_path, capsys):
    code, _, _ = run_cli(
        capsys, "generate", "--records", "0", "--objects", "1", "--store", str(tmp_path / "s")
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "run", "--workflow", desk_workflow, "--mode", "emulate",
        "--store", str(tmp_path / "s"), "--json",
    )
    assert code == 0
    report = parse_report(out)
    assert report.store_metrics.bytes_out == 0

def test_run_emulate_small_input(desk_workflow, tmp_path, capsys):
    run_cli(capsys, "generate", "--records", "20000", "--objects", "8",
            "--store", str(tmp_path / "s"))
    code, out, _ = run_cli(
        capsys, "run", "--workflow", desk_workflow, "--mode", "emulate",
        "--store", str(tmp_path / "s"), "--json",
    )
    assert code == 0
    report = parse_report(out)
    assert report.stages[0].requests.get_count == 80
    assert report.stages[0].requests.put_count == 72

def test_run_emulate_json_round_trips_and_follows_laws(desk_workflow, tmp_path, capsys):
    run_cli(capsys, "generate", "--records", "300", "--objects", "4",
            "--store", str(tmp_path / "s"))
    code, out, _ = run_cli(
        capsys, "run", "--workflow", desk_workflow, "--mode", "emulate",
        "--store", str(tmp_path / "s"), "--json",
    )
    assert code == 0
    report = parse_report(out)
    assert report_to_json(report) == out
    sort_stage, encode_stage = report.stages
    for stage, laws in (
        (sort_stage, request_laws(StageKind.SORT_EXCHANGE, ExchangeStrategy.SERVERLESS, 8, 4)),
        (encode_stage, request_laws(StageKind.ENCODE, ExchangeStrategy.SERVERLESS, 8, 8)),
    ):
        assert (stage.requests.put_count, stage.requests.get_count) == (
            laws.put_count,
            laws.get_count,
        )

def test_run_missing_workflow_exit_2(capsys):
    assert run_cli(capsys, "run", "--workflow", "/nope.json", "--mode", "model")[0] == 2

def test_run_invalid_schema_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"version": "v1", "name": "x"}))
    assert run_cli(capsys, "run", "--workflow", str(bad), "--mode", "model")[0] == 2

def test_run_semantic_error_exit_2(tmp_path, capsys):
    doc = dict(PAPER_DOC)
    doc["stages"] = [{"id": "e", "kind": "encode"}, {"id": "s", "kind": "sort"}]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "run", "--workflow", str(bad), "--mode", "model")
    assert code == 2
    assert "Encode precedes SortExchange" in err

def test_run_execution_failure_exit_1(tmp_path, capsys):
    # a one-byte function memory budget cannot hold any mapper input
    doc = dict(PAPER_DOC)
    doc["name"] = "tiny-budget"
    doc["input"] = {"bucket": "data", "prefix": "raw/"}
    profiles = profiles_to_dict(builtin_profiles("desk-v1"))
    profiles["compute"]["fn_mem_gb"] = 1e-9
    doc["profiles"] = profiles
    wf = tmp_path / "wf.json"
    wf.write_text(json.dumps(doc))
    run_cli(capsys, "generate", "--records", "5000", "--objects", "4",
            "--store", str(tmp_path / "s"))
    code, _, err = run_cli(
        capsys, "run", "--workflow", str(wf), "--mode", "emulate",
        "--store", str(tmp_path / "s"),
    )
    assert code == 1
    assert "sort" in err  # failing stage named

def test_emulate_without_input_objects_exit_2(desk_workflow, tmp_path, capsys):
    code, _, err = run_cli(
        capsys, "run", "--workflow", desk_workflow, "--mode", "emulate",
        "--store", str(tmp_path / "empty"),
    )
    assert code == 2
    assert "resolves to no objects" in err

@pytest.mark.parametrize("root_exists", [False, True])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_emulate_missing_store_creates_nothing(command, root_exists, desk_workflow, tmp_path,
                                               capsys):
    # a missing store reads as an empty one; a read-only command creates no directory
    store = tmp_path / "store"
    if root_exists:
        store.mkdir()
    code, out, err = run_cli(
        capsys, command, "--workflow", desk_workflow, "--mode", "emulate", "--store", str(store)
    )
    assert code == 2
    assert out == ""
    assert "resolves to no objects" in err
    assert store.exists() == root_exists
    assert not (store / "data").exists()


# --- compare ----------------------------------------------------------------------------

def test_compare_model_two_rows(paper_workflow, capsys):
    code, out, _ = run_cli(capsys, "compare", "--workflow", paper_workflow, "--mode", "model")
    assert code == 0
    lines = [l for l in out.splitlines() if l and not l.startswith(("configuration", "-"))]
    assert len(lines) == 2
    assert lines[0].startswith("purely serverless")
    assert lines[1].startswith("VM-supported")

def test_compare_model_json(paper_workflow, capsys):
    code, out, _ = run_cli(
        capsys, "compare", "--workflow", paper_workflow, "--mode", "model", "--json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == "faaslab-compare-v1"
    rows = {row["configuration"]: row for row in payload["rows"]}
    assert rows["purely serverless"]["latency_s"] < rows["VM-supported"]["latency_s"]
    for name in ("serverless", "vm"):
        assert payload["reports"][name]["workflow"] == "paper"

ODD_NAME = 'odd "name" \\ with\ttab, caf\u00e9'


@pytest.mark.parametrize("mode", ["model", "emulate"])
def test_compare_json_is_canonical_and_nests_run_documents(mode, tmp_path, capsys):
    # compare nests each strategy's `run --json` text; the workflow name's
    # quote, backslash, tab and non-ASCII letter are all escaped in it
    doc = dict(PAPER_DOC, name=ODD_NAME)
    flags = ()
    if mode == "emulate":
        store = str(tmp_path / "s")
        run_cli(capsys, "generate", "--records", "3000", "--objects", "4", "--store", store)
        doc["input"] = {"bucket": "data", "prefix": "raw/"}
        doc["profiles"] = profiles_to_dict(builtin_profiles("desk-v1"))
        flags = ("--store", store)
    wf = tmp_path / "wf.json"
    wf.write_text(json.dumps(doc))
    argv = ("--workflow", str(wf), "--mode", mode, "--seed", "3", *flags, "--json")
    code, out, _ = run_cli(capsys, "compare", *argv)
    assert code == 0
    payload = json.loads(out)
    assert out == json.dumps(payload, indent=2) + "\n"
    assert payload["reports"]["vm"]["workflow"] == ODD_NAME
    for exchange in ("serverless", "vm"):
        code, run_out, _ = run_cli(capsys, "run", "--exchange", exchange, *argv)
        assert code == 0
        assert json.dumps(payload["reports"][exchange], indent=2) + "\n" == run_out


def test_compare_unbounded_w_max_exit_2(tmp_path, capsys):
    # the auto-parallelism scan visits every w up to w_max; 10^9 is rejected
    # before any scan instead of running for minutes
    doc = dict(PAPER_DOC, parallelism="auto", w_max=10**9)
    wf = tmp_path / "wf.json"
    wf.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "compare", "--workflow", str(wf), "--mode", "model")
    assert code == 2
    assert "w_max" in err
    assert out == ""

def test_compare_zero_record_input(desk_workflow, tmp_path, capsys):
    run_cli(capsys, "generate", "--records", "0", "--objects", "1",
            "--store", str(tmp_path / "s"))
    code, out, _ = run_cli(
        capsys, "compare", "--workflow", desk_workflow, "--mode", "emulate",
        "--store", str(tmp_path / "s"), "--json",
    )
    assert code == 0
    payload = json.loads(out)
    for report in payload["reports"].values():
        assert report["store_metrics"]["bytes_out"] == 0

def test_progress_cost_monotone(paper_workflow, capsys):
    code, out, err = run_cli(
        capsys, "compare", "--workflow", paper_workflow, "--mode", "model", "--json"
    )
    assert code == 0
    events = [json.loads(line) for line in err.strip().splitlines()]
    payload = json.loads(out)
    # per run: monotone within each strategy's event stream
    dones = [e for e in events if e["phase"] == "done"]
    assert len(dones) == 2
    assert dones[0]["cost_so_far"] == payload["reports"]["serverless"]["cost"]["total"]
    assert dones[1]["cost_so_far"] == payload["reports"]["vm"]["cost"]["total"]


@pytest.fixture
def count_scans(monkeypatch):
    """The arguments of every auto-parallelism scan the engine runs."""
    calls = []
    scan = engine.optimal_worker_count

    def counted(*args):
        calls.append(args)
        return scan(*args)

    monkeypatch.setattr(engine, "optimal_worker_count", counted)
    return calls


def _auto_desk_workflow(tmp_path, capsys):
    """An auto workflow with desk profiles over a generated store (w = 2)."""
    store = str(tmp_path / "s")
    run_cli(capsys, "generate", "--records", "6000", "--objects", "4", "--store", store)
    doc = dict(PAPER_DOC, name="desk-auto", parallelism="auto")
    doc["input"] = {"bucket": "data", "prefix": "raw/"}
    doc["profiles"] = profiles_to_dict(builtin_profiles("desk-v1"))
    path = tmp_path / "desk-auto.json"
    path.write_text(json.dumps(doc))
    return str(path), store


@pytest.mark.parametrize("mode", ["model", "emulate"])
def test_compare_scans_auto_once(mode, tmp_path, capsys, count_scans):
    if mode == "model":
        workflow, store = str(AUTO_WORKFLOW), None
        flags = ()
    else:
        workflow, store = _auto_desk_workflow(tmp_path, capsys)
        flags = ("--store", store)
    code, out, _ = run_cli(
        capsys, "compare", "--workflow", workflow, "--mode", mode, *flags, "--json"
    )
    assert code == 0
    assert len(count_scans) == 1
    # the VM run pinned to the serverless run's w is the unpinned VM run
    spec = with_exchange(parse_workflow(Path(workflow).read_text()), ExchangeStrategy.VM)
    assert spec.parallelism is None
    run_store = _build_run_store(spec, store) if store else None
    standalone = run_workflow(spec, Mode(mode), store=run_store)
    reports = json.loads(out)["reports"]
    assert json.dumps(reports["vm"], indent=2) + "\n" == report_to_json(standalone)
    assert reports["serverless"]["parallelism"] == standalone.parallelism > 1


def test_compare_fixed_w_scans_nothing(paper_workflow, capsys, count_scans):
    assert run_cli(capsys, "compare", "--workflow", paper_workflow, "--mode", "model")[0] == 0
    assert count_scans == []


# --- unreadable paths -----------------------------------------------------------------------

@pytest.mark.parametrize(
    "target, problem",
    [
        ("workflow", "directory"),
        ("workflow", "not-utf8"),
        ("profile", "directory"),
        ("profile", "not-utf8"),
        ("run-store", "file"),
        ("generate-store", "file"),
    ],
)
def test_unreadable_path_exit_2_without_traceback(target, problem, paper_workflow, desk_workflow,
                                                   tmp_path, capsys, monkeypatch):
    latin1 = tmp_path / "latin1.json"  # a regular file that is not UTF-8
    latin1.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
    path = str(tmp_path if problem == "directory" else latin1)
    argv = {
        "workflow": ["compare", "--mode", "model", "--workflow", path],
        "profile": ["compare", "--mode", "model", "--workflow", paper_workflow],
        "run-store": ["run", "--workflow", desk_workflow, "--mode", "emulate", "--store", path],
        "generate-store": ["generate", "--records", "10", "--objects", "1", "--store", path],
    }[target]
    if target == "profile":
        monkeypatch.setenv("FAASLAB_PROFILE", path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("faaslab: ")
    assert path in err
    assert "Traceback" not in err


# --- profile override -----------------------------------------------------------------------

def test_faaslab_profile_env_override(paper_workflow, tmp_path, capsys, monkeypatch):
    override = tmp_path / "prof.json"
    data = profiles_to_dict(builtin_profiles())
    data["compute"]["fn_startup"] = 50.0
    override.write_text(json.dumps(data))
    _, base_out, _ = run_cli(capsys, "run", "--workflow", paper_workflow,
                             "--mode", "model", "--json")
    monkeypatch.setenv("FAASLAB_PROFILE", str(override))
    _, slow_out, _ = run_cli(capsys, "run", "--workflow", paper_workflow,
                             "--mode", "model", "--json")
    base = parse_report(base_out)
    slow = parse_report(slow_out)
    assert slow.end_to_end_s == pytest.approx(base.end_to_end_s + 2 * 40.0)

@pytest.mark.parametrize(
    "bad",
    [b"chr1\tx\t5\t+\t1\t2\n", b"chr\xff1\t1\t5\t+\t1\t2\n"],
)
def test_run_emulate_malformed_input_line_exit_1(desk_workflow, tmp_path, capsys, bad):
    store = tmp_path / "s"
    run_cli(capsys, "generate", "--records", "2000", "--objects", "4", "--store", str(store))
    # object 0's head is parsed by its sampler task in the sort stage's input_read phase
    first = store / "data" / "raw%2F0000"
    first.write_bytes(bad + first.read_bytes())
    code, _, err = run_cli(
        capsys, "run", "--workflow", desk_workflow, "--mode", "emulate",
        "--store", str(store), "--json",
    )
    assert code == 1
    assert "column" in err
    # stage, phase and object key
    assert "'sort'" in err
    assert "input_read" in err
    assert "raw/0000" in err
    assert "Traceback" not in err


def test_run_emulate_bad_line_past_sampled_head_names_object(tmp_path, capsys):
    doc = dict(PAPER_DOC)
    doc["input"] = {"bucket": "data", "prefix": "raw/"}
    doc["stages"] = [
        {"id": "sort", "kind": "sort", "options": {"sample_bytes": 512}},
        {"id": "encode", "kind": "encode"},
    ]
    doc["profiles"] = profiles_to_dict(builtin_profiles("desk-v1"))
    wf = tmp_path / "wf.json"
    wf.write_text(json.dumps(doc))
    store = tmp_path / "s"
    run_cli(capsys, "generate", "--records", "2000", "--objects", "4", "--store", str(store))
    # past the sampled head, so mapper 1 parses it in sort_compute
    second = store / "data" / "raw%2F0001"
    second.write_bytes(second.read_bytes() + b"chr1\tx\t5\t+\t1\t2\n")
    code, _, err = run_cli(
        capsys, "run", "--workflow", str(wf), "--mode", "emulate", "--store", str(store)
    )
    assert code == 1
    assert "'sort'" in err
    assert "worker 1 in sort_compute" in err
    assert "raw/0001" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("prefix", ["", "sorted/"])
def test_run_reserved_input_prefix_exit_2(tmp_path, capsys, prefix):
    # a prefix overlapping the stage outputs would read a previous run's
    # outputs as input; it is rejected before the store is opened
    doc = dict(PAPER_DOC)
    doc["input"] = {"bucket": "data", "prefix": prefix}
    doc["profiles"] = profiles_to_dict(builtin_profiles("desk-v1"))
    wf = tmp_path / "wf.json"
    wf.write_text(json.dumps(doc))
    store = tmp_path / "s"
    code, _, err = run_cli(
        capsys, "run", "--workflow", str(wf), "--mode", "emulate", "--store", str(store)
    )
    assert code == 2
    assert "reserved" in err
    assert not store.exists()
