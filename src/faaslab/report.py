"""Run report JSON form; schema documented in docs/report-schema.md.

Totals are emitted for readers but recomputed from components on parse,
so a report round-trips to an equal RunReport value.
"""

from __future__ import annotations

import json

from faaslab.blobstore import StoreMetrics
from faaslab.engine import RunReport, StageReport
from faaslab.errors import SchemaError
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


def report_to_json(report: RunReport) -> str:
    return json.dumps(report_to_dict(report), indent=2) + "\n"


def _breakdown_from_dict(cls, data: dict):
    """Rebuild a latency or cost breakdown; its total is recomputed, not read."""
    return cls(**{k: v for k, v in data.items() if k != "total"})


def parse_report(text: str) -> RunReport:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("$", f"report is not valid JSON: {exc}") from exc
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
