"""Workflow declarations: JSON schema v1, validation, and round-tripping.

A workflow is a linear pipeline: one sort-exchange stage, then at most
one encode stage, over one input prefix, with an exchange strategy and a
parallelism that is either a fixed worker count or resolved by the
optimizer at plan time. The full schema with defaults is documented in
docs/workflow-schema.md; example declarations ship under workflows/.

All values are immutable after construction and safe to share across
concurrent executors.
"""

from __future__ import annotations

import enum
import json
import math
from dataclasses import dataclass, field, replace
from typing import Any, Mapping

from faaslab.errors import SchemaError, SemanticError, WorkflowSyntaxError, load_json
from faaslab.perfmodel import (
    CALIBRATED_PROFILE,
    Profiles,
    builtin_profiles,
    load_profiles,
    parse_profiles,
    profiles_to_dict,
)

SCHEMA_VERSION = "v1"
DEFAULT_W_MAX = 256
# largest accepted w_max: the default concurrency limit of AWS Lambda and
# IBM Cloud Functions; the auto-parallelism scan visits every w up to w_max
W_MAX_LIMIT = 1000
# largest accepted input.size_bytes, 1 EB: far past any one pipeline's
# input, and small enough that every byte counter the count laws derive
# from it (twice the size, plus the sampled heads) is a finite integer
SIZE_BYTES_LIMIT = 1e18
# largest accepted input.objects: the model's per-object request terms
# stay exact in float arithmetic well past it
OBJECTS_LIMIT = 10**9

AUTO = "auto"

# The one block codec the encode stage implements (docs/codec.md).
CODEC = "mcp1"

# key prefixes the stages write their outputs under
RESERVED_PREFIXES = ("part/", "sorted/", "encoded/")


class ExchangeStrategy(str, enum.Enum):
    SERVERLESS = "serverless"
    VM = "vm"


class StageKind(str, enum.Enum):
    SORT_EXCHANGE = "sort"
    ENCODE = "encode"


# The stage-kind sequences a workflow may declare: one sort, then at most
# one encode. The model, the optimizer's scan and the emulator each
# describe exactly these.
STAGE_SHAPES = (
    (StageKind.SORT_EXCHANGE,),
    (StageKind.SORT_EXCHANGE, StageKind.ENCODE),
)


@dataclass(frozen=True)
class DataRef:
    """Reference to input objects under one bucket/prefix.

    `objects` is runtime state filled in by the engine when it lists the
    store; `size_bytes`/`object_count` are optional declared hints that
    let modeled runs describe inputs that are never materialized.
    """

    bucket: str
    prefix: str
    size_bytes: float | None = None
    object_count: int | None = None
    objects: tuple[tuple[str, int], ...] | None = None


@dataclass(frozen=True)
class StageSpec:
    id: str
    kind: StageKind
    options: Mapping[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class WorkflowSpec:
    name: str
    input: DataRef
    exchange: ExchangeStrategy
    stages: tuple[StageSpec, ...]
    profiles: Profiles
    parallelism: int | None = None  # None means Auto
    w_max: int = DEFAULT_W_MAX


_STAGE_OPTION_SCHEMA: dict[StageKind, dict[str, type | tuple[type, ...]]] = {
    StageKind.SORT_EXCHANGE: {"sample_bytes": int},
    StageKind.ENCODE: {"ratio": (int, float), "codec": str},
}

_TOP_KEYS = {"version", "name", "input", "exchange", "parallelism", "stages", "profiles", "w_max"}
_INPUT_KEYS = {"bucket", "prefix", "size_bytes", "objects"}


def _expect(data: Mapping, key: str, types, path: str, required: bool = True):
    if key not in data:
        if required:
            raise SchemaError(f"{path}.{key}" if path else key, "missing field")
        return None
    value = data[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in (
        types if isinstance(types, tuple) else (types,)
    ):
        raise SchemaError(
            f"{path}.{key}" if path else key,
            f"expected {types}, got {type(value).__name__}",
        )
    return value


def _finite_positive(value: int | float) -> bool:
    """Whether value is > 0 and finite as a float; NaN is neither."""
    try:
        return 0 < float(value) < math.inf
    except OverflowError:
        return False


def check_bucket(bucket: str, path: str) -> None:
    """A bucket names one directory under a store root, so it is one path
    component: not empty, ``.`` or ``..``, and holding no ``/`` or NUL.
    Raises SchemaError at `path`."""
    if bucket in ("", ".", "..") or "/" in bucket or "\0" in bucket:
        raise SchemaError(path, f"must be one path component without '/' or NUL, got {bucket!r}")


def _parse_input(data: Any) -> DataRef:
    if not isinstance(data, dict):
        raise SchemaError("input", f"expected an object, got {type(data).__name__}")
    unknown = set(data) - _INPUT_KEYS
    if unknown:
        raise SchemaError(f"input.{sorted(unknown)[0]}", "unknown field")
    bucket = _expect(data, "bucket", str, "input")
    prefix = _expect(data, "prefix", str, "input")
    check_bucket(bucket, "input.bucket")
    size_bytes = _expect(data, "size_bytes", (int, float), "input", required=False)
    # NaN fails the comparison, and so does an integer too large for a float
    if size_bytes is not None and not 0 < size_bytes <= SIZE_BYTES_LIMIT:
        raise SchemaError(
            "input.size_bytes", f"must be a number in (0, {SIZE_BYTES_LIMIT:g}], got {size_bytes}"
        )
    object_count = _expect(data, "objects", int, "input", required=False)
    if object_count is not None and not 1 <= object_count <= OBJECTS_LIMIT:
        raise SchemaError(
            "input.objects", f"must be an integer in [1, {OBJECTS_LIMIT}], got {object_count}"
        )
    return DataRef(bucket, prefix, size_bytes, object_count)


def _parse_stage(data: Any, index: int) -> StageSpec:
    path = f"stages[{index}]"
    if not isinstance(data, dict):
        raise SchemaError(path, f"expected an object, got {type(data).__name__}")
    unknown = set(data) - {"id", "kind", "options"}
    if unknown:
        raise SchemaError(f"{path}.{sorted(unknown)[0]}", "unknown field")
    stage_id = _expect(data, "id", str, path)
    if not stage_id:
        raise SchemaError(f"{path}.id", "must be non-empty")
    kind_text = _expect(data, "kind", str, path)
    try:
        kind = StageKind(kind_text)
    except ValueError:
        raise SchemaError(
            f"{path}.kind",
            f"must be one of {[k.value for k in StageKind]}, got {kind_text!r}",
        ) from None
    raw_options = data.get("options", {})
    if not isinstance(raw_options, dict):
        raise SchemaError(f"{path}.options", "expected an object")
    allowed = _STAGE_OPTION_SCHEMA[kind]
    options: dict[str, Any] = {}
    for key, value in raw_options.items():
        if key not in allowed:
            raise SchemaError(f"{path}.options.{key}", f"unknown option for kind {kind.value!r}")
        if isinstance(value, (dict, list)):
            raise SchemaError(f"{path}.options.{key}", "options must be flat scalars")
        if not isinstance(value, allowed[key]) or isinstance(value, bool):
            raise SchemaError(
                f"{path}.options.{key}", f"expected {allowed[key]}, got {type(value).__name__}"
            )
        options[key] = value
    if kind is StageKind.ENCODE and "ratio" in options and not (
        _finite_positive(options["ratio"]) and options["ratio"] >= 1
    ):
        raise SchemaError(f"{path}.options.ratio", f"must be a finite number >= 1, got {options['ratio']}")
    if kind is StageKind.ENCODE and options.get("codec", CODEC) != CODEC:
        raise SchemaError(f"{path}.options.codec", f"must be {CODEC!r}, got {options['codec']!r}")
    if kind is StageKind.SORT_EXCHANGE and "sample_bytes" in options and options["sample_bytes"] < 1:
        raise SchemaError(f"{path}.options.sample_bytes", "must be >= 1")
    return StageSpec(stage_id, kind, options)


def _parse_profiles_field(data: Any) -> Profiles:
    if data is None:
        return builtin_profiles(CALIBRATED_PROFILE)
    if isinstance(data, str):
        return load_profiles(data)
    if not isinstance(data, dict):
        raise SchemaError("profiles", f"expected an object or path, got {type(data).__name__}")
    defaults = builtin_profiles(CALIBRATED_PROFILE)
    merged = profiles_to_dict(defaults)
    for section in ("store", "compute", "prices"):
        if section not in data:
            continue
        value = data[section]
        if isinstance(value, str):
            merged[section] = profiles_to_dict(load_profiles(value))[section]
        else:
            merged[section] = value
    unknown = set(data) - {"store", "compute", "prices"}
    if unknown:
        raise SchemaError(f"profiles.{sorted(unknown)[0]}", "unknown profile section")
    return parse_profiles(merged)


def parse_workflow(text: str) -> WorkflowSpec:
    """Parse and validate a JSON workflow document.

    Raises WorkflowSyntaxError for malformed JSON, SchemaError with a
    field path for missing/ill-typed/unknown fields, and SemanticError
    when the document violates a structural invariant.
    """
    data = load_json(text, "workflow document", WorkflowSyntaxError)
    if not isinstance(data, dict):
        raise SchemaError("$", f"expected a JSON object, got {type(data).__name__}")
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown field")
    version = _expect(data, "version", str, "")
    if version != SCHEMA_VERSION:
        raise SchemaError("version", f"expected {SCHEMA_VERSION!r}, got {version!r}")
    name = _expect(data, "name", str, "")
    if not name:
        raise SchemaError("name", "must be non-empty")
    input_ref = _parse_input(data.get("input")) if "input" in data else None
    if input_ref is None:
        raise SchemaError("input", "missing field")
    exchange_text = _expect(data, "exchange", str, "")
    try:
        exchange = ExchangeStrategy(exchange_text)
    except ValueError:
        raise SchemaError(
            "exchange",
            f"must be one of {[e.value for e in ExchangeStrategy]}, got {exchange_text!r}",
        ) from None

    parallelism_raw = data.get("parallelism", AUTO)
    if parallelism_raw == AUTO:
        parallelism = None
    elif isinstance(parallelism_raw, int) and not isinstance(parallelism_raw, bool):
        parallelism = parallelism_raw
    else:
        raise SchemaError("parallelism", f"expected 'auto' or an integer, got {parallelism_raw!r}")

    w_max = data.get("w_max", DEFAULT_W_MAX)
    if not isinstance(w_max, int) or isinstance(w_max, bool) or not 1 <= w_max <= W_MAX_LIMIT:
        raise SchemaError("w_max", f"expected an integer in [1, {W_MAX_LIMIT}], got {w_max!r}")

    stages_raw = _expect(data, "stages", list, "")
    stages = tuple(_parse_stage(s, i) for i, s in enumerate(stages_raw))
    profiles = _parse_profiles_field(data.get("profiles"))

    spec = WorkflowSpec(
        name=name,
        input=input_ref,
        exchange=exchange,
        stages=stages,
        profiles=profiles,
        parallelism=parallelism,
        w_max=w_max,
    )
    violations = validate_workflow(spec)
    if violations:
        raise SemanticError("; ".join(violations))
    return spec


def validate_workflow(spec: WorkflowSpec) -> list[str]:
    """Return every invariant violation; an empty list means valid."""
    violations = []
    if not spec.stages:
        violations.append("workflow has no stages")
    seen: set[str] = set()
    for stage in spec.stages:
        if stage.id in seen:
            violations.append(f"duplicate stage id: {stage.id}")
        if "/" in stage.id:
            # a stage's outputs live under <reserved prefix><stage id>/
            violations.append(f"stage id contains '/': {stage.id}")
        seen.add(stage.id)
    kinds = tuple(s.kind for s in spec.stages)
    if spec.stages and kinds not in STAGE_SHAPES:
        violations.append(
            "stage kinds must be [sort] or [sort, encode], got "
            f"[{', '.join(kind.value for kind in kinds)}]"
        )
    if spec.parallelism is not None and not 1 <= spec.parallelism <= spec.w_max:
        violations.append("parallelism out of range")
    prefix = spec.input.prefix
    clashes = [r for r in RESERVED_PREFIXES if r.startswith(prefix) or prefix.startswith(r)]
    if clashes:
        violations.append(
            f"input prefix {prefix!r} overlaps the reserved output prefixes {', '.join(clashes)}"
        )
    return violations


def serialize_workflow(spec: WorkflowSpec) -> str:
    """Emit the JSON document form; parse_workflow inverts this exactly."""
    doc: dict[str, Any] = {
        "version": SCHEMA_VERSION,
        "name": spec.name,
        "input": {"bucket": spec.input.bucket, "prefix": spec.input.prefix},
        "exchange": spec.exchange.value,
        "parallelism": AUTO if spec.parallelism is None else spec.parallelism,
        "w_max": spec.w_max,
        "stages": [
            {"id": s.id, "kind": s.kind.value, "options": dict(s.options)} for s in spec.stages
        ],
        "profiles": profiles_to_dict(spec.profiles),
    }
    if spec.input.size_bytes is not None:
        doc["input"]["size_bytes"] = spec.input.size_bytes
    if spec.input.object_count is not None:
        doc["input"]["objects"] = spec.input.object_count
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def with_exchange(spec: WorkflowSpec, exchange: ExchangeStrategy) -> WorkflowSpec:
    """Copy of the spec with the exchange strategy swapped."""
    return replace(spec, exchange=exchange)


def with_profiles(spec: WorkflowSpec, profiles: Profiles) -> WorkflowSpec:
    """Copy of the spec with all three profile sheets replaced."""
    return replace(spec, profiles=profiles)
