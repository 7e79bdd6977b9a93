"""Workflow declaration tests: parsing, validation, round-trip."""

import itertools
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.errors import SchemaError, SemanticError, WorkflowSyntaxError
from faaslab.perfmodel import CALIBRATED_PROFILE, DESK_PROFILE, builtin_profiles, profiles_to_dict
from faaslab.workflow import (
    DataRef,
    ExchangeStrategy,
    StageKind,
    StageSpec,
    WorkflowSpec,
    parse_workflow,
    serialize_workflow,
    validate_workflow,
)

MINIMAL = {
    "version": "v1",
    "name": "two-stage",
    "input": {"bucket": "data", "prefix": "raw/"},
    "exchange": "serverless",
    "stages": [
        {"id": "sort", "kind": "sort"},
        {"id": "encode", "kind": "encode"},
    ],
}


WORKFLOWS = Path(__file__).parent.parent / "workflows"
# the benchmark's grid of auto-parallelism workflows
GRID = Path(__file__).parent.parent / "perfbench" / "grid"


def shape_error(*kinds: str) -> str:
    """The violation a stage-kind sequence other than [sort] or [sort, encode] reports."""
    return f"stage kinds must be [sort] or [sort, encode], got [{', '.join(kinds)}]"


def doc(**overrides) -> str:
    data = json.loads(json.dumps(MINIMAL))
    data.update(overrides)
    return json.dumps(data)


# --- parsing -----------------------------------------------------------------

def test_minimal_document_defaults():
    spec = parse_workflow(doc())
    assert spec.name == "two-stage"
    assert spec.parallelism is None  # Auto
    assert spec.w_max == 256
    assert spec.exchange is ExchangeStrategy.SERVERLESS
    assert spec.profiles == builtin_profiles(CALIBRATED_PROFILE)
    assert [s.kind for s in spec.stages] == [StageKind.SORT_EXCHANGE, StageKind.ENCODE]

def test_encode_before_sort_is_semantic_error():
    bad = doc(stages=[{"id": "encode", "kind": "encode"}, {"id": "sort", "kind": "sort"}])
    with pytest.raises(SemanticError, match=re.escape(shape_error("encode", "sort"))):
        parse_workflow(bad)

@pytest.mark.parametrize(
    "kinds",
    [kinds for n in range(4) for kinds in itertools.product(("sort", "encode"), repeat=n)],
    ids=lambda kinds: "-".join(kinds) or "none",
)
def test_only_sort_or_sort_then_encode_parses(kinds):
    stages = [{"id": f"s{i}", "kind": kind} for i, kind in enumerate(kinds)]
    if kinds in (("sort",), ("sort", "encode")):
        assert [s.kind.value for s in parse_workflow(doc(stages=stages)).stages] == list(kinds)
        return
    expected = shape_error(*kinds) if kinds else "workflow has no stages"
    with pytest.raises(SemanticError) as info:
        parse_workflow(doc(stages=stages))
    assert str(info.value) == expected

@pytest.mark.parametrize(
    "path", sorted(WORKFLOWS.glob("*.json")) + sorted(GRID.glob("*.json")), ids=lambda p: p.name
)
def test_shipped_workflow_parses_validates_and_round_trips(path):
    spec = parse_workflow(path.read_text(encoding="utf-8"))
    assert validate_workflow(spec) == []
    assert parse_workflow(serialize_workflow(spec)) == spec

def test_fixed_parallelism_vm_exchange():
    spec = parse_workflow(doc(parallelism=8, exchange="vm"))
    assert spec.parallelism == 8
    assert spec.exchange is ExchangeStrategy.VM

def test_malformed_json():
    with pytest.raises(WorkflowSyntaxError):
        parse_workflow("{not json")

def test_deeply_nested_json():
    with pytest.raises(WorkflowSyntaxError, match="nested too deeply"):
        parse_workflow("[" * 100_000 + "]" * 100_000)

@pytest.mark.parametrize(
    "overrides,path_fragment",
    [
        (dict(extra=1), "extra"),
        (dict(version="v2"), "version"),
        (dict(name=""), "name"),
        (dict(exchange="carrier-pigeon"), "exchange"),
        (dict(parallelism="many"), "parallelism"),
        (dict(parallelism=2.5), "parallelism"),
        (dict(w_max=0), "w_max"),
        (dict(input={"bucket": "b"}), "input.prefix"),
        (dict(input={"bucket": "b", "prefix": "p/", "color": 1}), "input.color"),
        (dict(input={"bucket": "b", "prefix": "p/", "size_bytes": -5}), "input.size_bytes"),
        (dict(stages=[{"id": "s", "kind": "shuffle"}]), "stages[0].kind"),
        (dict(stages=[{"id": "s", "kind": "sort", "options": {"bogus": 1}}]), "options.bogus"),
        (
            dict(stages=[{"id": "e", "kind": "encode", "options": {"ratio": {"deep": 1}}}]),
            "options.ratio",
        ),
        (dict(stages=[{"id": "e", "kind": "encode", "options": {"ratio": 0.5}}]), "ratio"),
        (dict(profiles={"store": {"req_latency": -1}}), "store"),
        (dict(profiles={"fabric": {}}), "profiles.fabric"),
        (
            dict(stages=[{"id": "s", "kind": "sort"}, {"id": "e", "kind": "encode", "options": {"codec": "zstd"}}]),
            "stages[1].options.codec",
        ),
        (dict(w_max=1001), "w_max"),
        (dict(stages=[{"id": "e", "kind": "encode", "options": {"ratio": 10**400}}]), "options.ratio"),
        (dict(stages=[{"id": "e", "kind": "encode", "options": {"ratio": math.nan}}]), "options.ratio"),
        (dict(input={"bucket": "", "prefix": "p/"}), "input.bucket"),
        (dict(input={"bucket": "../outside", "prefix": "p/"}), "input.bucket"),
        (dict(input={"bucket": "..", "prefix": "p/"}), "input.bucket"),
        (dict(input={"bucket": "a\0b", "prefix": "p/"}), "input.bucket"),
    ],
)
def test_schema_errors_carry_paths(overrides, path_fragment):
    with pytest.raises(SchemaError) as err:
        parse_workflow(doc(**overrides))
    assert path_fragment in str(err.value)

def test_missing_version_rejected():
    data = json.loads(doc())
    del data["version"]
    with pytest.raises(SchemaError, match="version"):
        parse_workflow(json.dumps(data))

def test_profiles_partial_override_keeps_other_defaults():
    desk = profiles_to_dict(builtin_profiles(DESK_PROFILE))
    spec = parse_workflow(doc(profiles={"store": desk["store"]}))
    assert spec.profiles.store == builtin_profiles(DESK_PROFILE).store
    assert spec.profiles.compute == builtin_profiles(CALIBRATED_PROFILE).compute

def test_profiles_file_reference(tmp_path):
    path = tmp_path / "profiles.json"
    path.write_text(json.dumps(profiles_to_dict(builtin_profiles(DESK_PROFILE))))
    spec = parse_workflow(doc(profiles=str(path)))
    assert spec.profiles == builtin_profiles(DESK_PROFILE)

def test_input_hints_parsed():
    spec = parse_workflow(doc(input={"bucket": "b", "prefix": "p/", "size_bytes": 3.5e9, "objects": 8}))
    assert spec.input.size_bytes == 3.5e9
    assert spec.input.object_count == 8

def test_sample_bytes_option():
    spec = parse_workflow(doc(stages=[
        {"id": "sort", "kind": "sort", "options": {"sample_bytes": 4096}},
        {"id": "encode", "kind": "encode", "options": {"ratio": 12, "codec": "mcp1"}},
    ]))
    assert spec.stages[0].options["sample_bytes"] == 4096
    assert spec.stages[1].options["ratio"] == 12
    assert spec.stages[1].options["codec"] == "mcp1"


# --- validation ------------------------------------------------------------------

def valid_spec(**overrides) -> WorkflowSpec:
    spec = parse_workflow(doc())
    from dataclasses import replace

    return replace(spec, **overrides)

def test_validate_valid_spec_is_empty():
    assert validate_workflow(valid_spec()) == []

def test_validate_parallelism_out_of_range():
    assert validate_workflow(valid_spec(parallelism=0)) == ["parallelism out of range"]
    assert validate_workflow(valid_spec(parallelism=257)) == ["parallelism out of range"]
    assert validate_workflow(valid_spec(parallelism=256)) == []

def test_validate_duplicate_stage_id():
    stages = (
        StageSpec("sort", StageKind.SORT_EXCHANGE),
        StageSpec("sort", StageKind.ENCODE),
    )
    assert "duplicate stage id: sort" in validate_workflow(valid_spec(stages=stages))

def test_validate_mutants_each_break_one_invariant():
    base = valid_spec()
    mutants = [
        ("workflow has no stages", valid_spec(stages=())),
        (shape_error("encode"), valid_spec(stages=(StageSpec("e", StageKind.ENCODE),))),
        (
            shape_error("sort", "sort"),
            valid_spec(
                stages=(
                    StageSpec("s1", StageKind.SORT_EXCHANGE),
                    StageSpec("s2", StageKind.SORT_EXCHANGE),
                )
            ),
        ),
        (
            shape_error("encode", "sort"),
            valid_spec(
                stages=(
                    StageSpec("e", StageKind.ENCODE),
                    StageSpec("s", StageKind.SORT_EXCHANGE),
                )
            ),
        ),
        ("parallelism out of range", valid_spec(parallelism=-3)),
        (
            "stage id contains '/': e/x",
            valid_spec(
                stages=(
                    StageSpec("s", StageKind.SORT_EXCHANGE),
                    StageSpec("e/x", StageKind.ENCODE),
                )
            ),
        ),
    ]
    assert validate_workflow(base) == []
    for expected, mutant in mutants:
        violations = validate_workflow(mutant)
        assert expected in violations, (expected, violations)

@pytest.mark.parametrize(
    "prefix, clashes",
    [
        ("", "part/, sorted/, encoded/"),
        ("p", "part/"),
        ("part/", "part/"),
        ("sorted/sort/", "sorted/"),
        ("encoded", "encoded/"),
    ],
)
def test_validate_rejects_reserved_input_prefixes(prefix, clashes):
    spec = valid_spec(input=DataRef("data", prefix))
    assert validate_workflow(spec) == [
        f"input prefix {prefix!r} overlaps the reserved output prefixes {clashes}"
    ]

@pytest.mark.parametrize("prefix", ["raw/", "partition/", "sorted_in/", "in/encoded/"])
def test_validate_accepts_unreserved_input_prefixes(prefix):
    assert validate_workflow(valid_spec(input=DataRef("data", prefix))) == []

def test_validate_reports_all_violations():
    spec = valid_spec(
        stages=(
            StageSpec("x", StageKind.ENCODE),
            StageSpec("x", StageKind.SORT_EXCHANGE),
        ),
        parallelism=0,
    )
    violations = validate_workflow(spec)
    assert len(violations) == 3


# --- round trip ----------------------------------------------------------------------

_spec_strategy = st.builds(
    WorkflowSpec,
    name=st.text(st.characters(whitelist_categories=("Ll", "Nd")), min_size=1, max_size=12),
    input=st.builds(
        DataRef,
        bucket=st.sampled_from(["data", "bkt"]),
        prefix=st.sampled_from(["raw/", "in/", "in"]),
        size_bytes=st.one_of(st.none(), st.floats(min_value=1, max_value=1e12)),
        object_count=st.one_of(st.none(), st.integers(min_value=1, max_value=64)),
    ),
    exchange=st.sampled_from(list(ExchangeStrategy)),
    stages=st.tuples(
        st.builds(
            StageSpec,
            id=st.just("sort"),
            kind=st.just(StageKind.SORT_EXCHANGE),
            options=st.one_of(
                st.just({}), st.fixed_dictionaries({"sample_bytes": st.integers(1, 1 << 20)})
            ),
        ),
        st.builds(
            StageSpec,
            id=st.just("encode"),
            kind=st.just(StageKind.ENCODE),
            options=st.one_of(
                st.just({}),
                st.fixed_dictionaries({"ratio": st.floats(min_value=1, max_value=100)}),
            ),
        ),
    ),
    profiles=st.sampled_from([builtin_profiles(CALIBRATED_PROFILE), builtin_profiles(DESK_PROFILE)]),
    parallelism=st.one_of(st.none(), st.integers(min_value=1, max_value=256)),
    w_max=st.just(256),
)

@settings(deadline=None, max_examples=60)
@given(_spec_strategy)
def test_round_trip_identity(spec):
    assert parse_workflow(serialize_workflow(spec)) == spec

def test_serialize_includes_hints():
    spec = parse_workflow(doc(input={"bucket": "b", "prefix": "p/", "size_bytes": 5.0, "objects": 2}))
    again = parse_workflow(serialize_workflow(spec))
    assert again.input == spec.input
