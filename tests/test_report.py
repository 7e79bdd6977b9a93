"""Report writer tests: `indented_json` against `json.dumps(..., indent=2)`."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faaslab.blobstore import StoreMetrics
from faaslab.cli import main
from faaslab.engine import RunReport, StageReport
from faaslab.errors import SchemaError
from faaslab.perfmodel import CostBreakdown, LatencyBreakdown
from faaslab.report import indented_json, parse_report, report_to_dict, report_to_json

# quote, backslash, control characters, DEL, non-ASCII, a line separator,
# a non-BMP emoji and a lone surrogate, mixed into arbitrary text
_SPECIAL = ['"', "\\", "\x00", "\n", "\t", "\x1f", "\x7f", "é", " ", "\U0001F600", "\ud800"]
texts = st.text(
    alphabet=st.one_of(st.sampled_from(_SPECIAL), st.characters(exclude_categories=())),
    max_size=12,
)
floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan, 0.1]),
    st.floats(allow_nan=True, allow_infinity=True),
)
ints = st.integers(min_value=-(2**70), max_value=2**70)


stages = st.builds(
    StageReport,
    stage_id=texts,
    kind=texts,
    workers=ints,
    latency=st.builds(LatencyBreakdown, *[floats] * 7),
    requests=st.builds(StoreMetrics, ints, ints, ints, ints, ints, ints),
    busy_seconds=floats,
    vm_seconds=floats,
)
reports = st.builds(
    RunReport,
    mode=texts,
    workflow=texts,
    exchange=texts,
    seed=ints,
    parallelism=ints,
    stages=st.lists(stages, max_size=3).map(tuple),
    cost=st.builds(CostBreakdown, floats, floats, floats, floats, floats),
    store_metrics=st.builds(StoreMetrics, ints, ints, ints, ints, ints, ints),
)

json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), ints, floats, texts),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(texts, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(deadline=None, max_examples=150)
@given(reports)
def test_report_to_json_is_indented_json_dumps(report):
    assert report_to_json(report) == json.dumps(report_to_dict(report), indent=2) + "\n"


@settings(deadline=None, max_examples=150)
@given(json_values)
def test_indented_json_is_json_dumps_indent_2(value):
    assert indented_json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [{1: "a"}, {None: 1}, {1.5: 2}, {"a": {True: 0}}])
def test_indented_json_rejects_non_str_keys(value):
    with pytest.raises(TypeError, match="keys must be str"):
        indented_json(value)


@pytest.mark.parametrize("value", [object(), {"a": {1, 2}}, [b"x"]])
def test_indented_json_rejects_what_json_cannot_encode(value):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        indented_json(value)


def test_compare_head_is_json_dumps_head(tmp_path, capsys):
    # the schema/rows head `compare --json` writes before the two reports
    doc = {
        "version": "v1",
        "name": 'odd "name" \\ café \U0001F600',
        "input": {"bucket": "data", "prefix": "raw/", "size_bytes": 3.5e9, "objects": 8},
        "exchange": "serverless",
        "parallelism": "auto",
        "stages": [{"id": "sort", "kind": "sort"}, {"id": "encode", "kind": "encode"}],
    }
    wf = tmp_path / "wf.json"
    wf.write_text(json.dumps(doc))
    assert main(["compare", "--workflow", str(wf), "--mode", "model", "--json"]) == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    head = json.dumps({"schema": payload["schema"], "rows": payload["rows"]}, indent=2)
    assert out.startswith(head[:-2] + ",\n  \"reports\": {\n")
    assert out == json.dumps(payload, indent=2) + "\n"


def test_parse_report_deeply_nested_json():
    with pytest.raises(SchemaError, match="nested too deeply"):
        parse_report("[" * 100_000 + "]" * 100_000)


@pytest.mark.parametrize("text", ["[1]", "1", '"report"', "null", "true"])
def test_parse_report_non_object_is_schema_error(text):
    with pytest.raises(SchemaError, match="expected a JSON object"):
        parse_report(text)


@pytest.mark.parametrize(
    "text", ["1" * 5000, '{"schema": ' + "1" * 5000 + "}"], ids=["document", "field"]
)
def test_parse_report_overlong_integer_is_schema_error(text):
    with pytest.raises(SchemaError, match="integer of more than"):
        parse_report(text)


_REPORT = RunReport(
    mode="model",
    workflow="w",
    exchange="serverless",
    seed=0,
    parallelism=2,
    stages=(
        StageReport("s", "sort", 2, LatencyBreakdown(*[0.0] * 7), StoreMetrics(*[0] * 6), 0.0, 0.0),
    ),
    cost=CostBreakdown(*[0.0] * 5),
    store_metrics=StoreMetrics(*[0] * 6),
)


@pytest.mark.parametrize("value", [[], 5, "x"])
@pytest.mark.parametrize("field", ["latency", "cost"])
def test_parse_report_non_object_breakdown_is_schema_error(field, value):
    data = report_to_dict(_REPORT)
    assert parse_report(json.dumps(data)) == _REPORT
    if field == "latency":
        data["stages"][0]["latency"] = value
    else:
        data["cost"] = value
    with pytest.raises(SchemaError, match="must be an object"):
        parse_report(json.dumps(data))
