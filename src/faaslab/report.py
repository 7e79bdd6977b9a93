"""Run report JSON form; schema documented in docs/report-schema.md.

Totals are emitted for readers but recomputed from components on parse,
so a report round-trips to an equal RunReport value. `indented_json`
writes what `json.dumps(value, indent=2)` would, without the
generator-based encoder the standard library falls back to when it
indents.
"""

from __future__ import annotations

from functools import partial
from json.encoder import encode_basestring_ascii

from faaslab.blobstore import StoreMetrics
from faaslab.engine import RunReport, StageReport
from faaslab.errors import SchemaError, load_json
from faaslab.perfmodel import CostBreakdown, LatencyBreakdown

REPORT_SCHEMA = "faaslab-report-v1"


def report_to_dict(report: RunReport) -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "mode": report.mode,
        "workflow": report.workflow,
        "exchange": report.exchange,
        "seed": report.seed,
        "parallelism": report.parallelism,
        "end_to_end_s": report.end_to_end_s,
        "stages": [
            {
                "id": s.stage_id,
                "kind": s.kind,
                "workers": s.workers,
                "latency": s.latency.as_dict(),
                "requests": s.requests.as_dict(),
                "busy_seconds": s.busy_seconds,
                "vm_seconds": s.vm_seconds,
            }
            for s in report.stages
        ],
        "cost": report.cost.as_dict(),
        "store_metrics": report.store_metrics.as_dict(),
    }


_INF = float("inf")


def _float_text(value: float) -> str:
    if value != value:
        return "NaN"
    if value == _INF:
        return "Infinity"
    if value == -_INF:
        return "-Infinity"
    return float.__repr__(value)


def _write(value, newline: str, out: list) -> None:
    """Append value's indented JSON text to out; newline opens its lines."""
    if isinstance(value, float):
        out.append(_float_text(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            out.append(separator)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def indented_json(value) -> str:
    """`json.dumps(value, indent=2)`, byte for byte, for str-keyed values."""
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def report_to_json(report: RunReport) -> str:
    return indented_json(report_to_dict(report)) + "\n"


def _breakdown_from_dict(cls, data: dict):
    """Rebuild a latency or cost breakdown; its total is recomputed, not read."""
    if not isinstance(data, dict):
        raise TypeError(f"{cls.__name__} must be an object, got {type(data).__name__}")
    return cls(**{k: v for k, v in data.items() if k != "total"})


def parse_report(text: str) -> RunReport:
    data = load_json(text, "report", partial(SchemaError, "$"))
    if not isinstance(data, dict):
        raise SchemaError("$", f"expected a JSON object, got {type(data).__name__}")
    if data.get("schema") != REPORT_SCHEMA:
        raise SchemaError("schema", f"expected {REPORT_SCHEMA!r}, got {data.get('schema')!r}")
    try:
        stages = tuple(
            StageReport(
                stage_id=s["id"],
                kind=s["kind"],
                workers=s["workers"],
                latency=_breakdown_from_dict(LatencyBreakdown, s["latency"]),
                requests=StoreMetrics(**s["requests"]),
                busy_seconds=s["busy_seconds"],
                vm_seconds=s["vm_seconds"],
            )
            for s in data["stages"]
        )
        return RunReport(
            mode=data["mode"],
            workflow=data["workflow"],
            exchange=data["exchange"],
            seed=data["seed"],
            parallelism=data["parallelism"],
            stages=stages,
            cost=_breakdown_from_dict(CostBreakdown, data["cost"]),
            store_metrics=StoreMetrics(**data["store_metrics"]),
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError("$", f"report field missing or ill-typed: {exc}") from exc
