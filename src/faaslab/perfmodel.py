"""Analytic latency and cost model for both data exchange strategies.

The phase formulas capture the two forces that decide whether all-to-all
exchange through object storage beats a gather-sort VM: aggregate
bandwidth scales with worker count until the store-wide cap binds
(effective per-worker bandwidth e(w) = min(b, A/w)), while the w*w
partition objects of a shuffle push against the store's
operations-per-second cap (a w^2/R floor on the partition phases).

The generator `_phase_tuples` is the one place each shuffle and encode
formula lives: for each w of a sequence it yields the sort stage's and
the encode stage's phase values in `LatencyBreakdown` field order,
reading the profile fields once per call. The public models validate
their arguments and wrap the single tuple it yields for their w, and
the worker-count scan `_scan_totals` sums the same tuples, without
building a breakdown per w, into a list of per-w totals: the model's
latency curve, whose first minimum is the `auto` worker count.
`_phase_total` is the one summation of a phase tuple, in one
fixed order, so a breakdown's total, the scan's per-w total and the
component sum agree bit for bit. The VM model, which the scan never
evaluates, builds its breakdown directly.

All operations are pure.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import MISSING, dataclass, fields
from importlib import resources

from faaslab.blobstore import StoreMetrics, StoreProfile
from faaslab.errors import DomainError, SchemaError, load_json, read_utf8

DEFAULT_COMPRESSION_RATIO = 10.0

CALIBRATED_PROFILE = "calibrated-v1"
DESK_PROFILE = "desk-v1"


@dataclass(frozen=True)
class ComputeProfile:
    """Function and VM execution parameters.

    Rates are bytes/s of input processed; startup and provision times are
    charged once per stage wave, since workers launch concurrently.
    """

    fn_startup: float
    fn_mem_gb: float
    fn_sort_rate: float
    fn_encode_rate: float
    vm_provision: float
    vm_bandwidth: float
    vm_sort_rate: float

    def __post_init__(self):
        # each check is written so that NaN fails it
        for name in ("fn_mem_gb", "fn_sort_rate", "fn_encode_rate", "vm_bandwidth", "vm_sort_rate"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not (self.fn_startup >= 0 and self.vm_provision >= 0):
            raise ValueError("startup and provision times must be >= 0")


@dataclass(frozen=True)
class PriceSheet:
    """Unit prices; GB means 1e9 bytes throughout."""

    price_gb_s: float
    price_invocation: float
    price_put: float
    price_get: float
    price_vm_s: float
    price_vol_gb_s: float

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) >= 0:  # NaN fails this too
                raise ValueError(f"{f.name} must be >= 0, got {getattr(self, f.name)}")


@dataclass(frozen=True)
class LatencyBreakdown:
    startup: float = 0.0
    input_read: float = 0.0
    sort_compute: float = 0.0
    partition_write: float = 0.0
    partition_read: float = 0.0
    output_write: float = 0.0
    encode: float = 0.0

    @property
    def total(self) -> float:
        return _phase_total(_phase_values(self))

    def as_dict(self) -> dict[str, float]:
        values = _phase_values(self)
        d = dict(zip(_PHASES, values))
        d["total"] = _phase_total(values)
        return d


_PHASES = tuple(f.name for f in fields(LatencyBreakdown))
_phase_values = operator.attrgetter(*_PHASES)


def _phase_total(phases: tuple) -> float:
    """Sum a phase tuple in LatencyBreakdown field order.

    The one fixed summation order keeps every total equal to the sum of
    its phases bit for bit.
    """
    startup, input_read, sort_compute, partition_write, partition_read, output_write, encode = phases
    return (
        startup
        + input_read
        + sort_compute
        + partition_write
        + partition_read
        + output_write
        + encode
    )


@dataclass(frozen=True)
class CostBreakdown:
    fn_compute: float = 0.0
    storage_requests: float = 0.0
    vm_time: float = 0.0
    vm_volume: float = 0.0
    invocations: float = 0.0

    @property
    def total(self) -> float:
        return (
            self.fn_compute
            + self.storage_requests
            + self.vm_time
            + self.vm_volume
            + self.invocations
        )

    def as_dict(self) -> dict[str, float]:
        d = dict(zip(_COST_COMPONENTS, _cost_values(self)))
        d["total"] = self.total
        return d


_COST_COMPONENTS = tuple(f.name for f in fields(CostBreakdown))
_cost_values = operator.attrgetter(*_COST_COMPONENTS)


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not value > 0:
            raise DomainError(f"{name} must be > 0, got {value}")


def _phase_tuples(S, ws, n_in, ratio, store: StoreProfile, compute: ComputeProfile):
    """Yield (sort phases, encode phases) for each w in `ws`; unvalidated.

    The one copy of the shuffle sort and encode stage formulas. Each
    phase tuple is in `LatencyBreakdown` field order; the profile fields
    are read once per call, not once per w.
    """
    L = store.req_latency
    b = store.conn_bandwidth
    A = store.aggregate_bandwidth
    R = store.ops_rate_cap
    startup = compute.fn_startup
    sort_rate = compute.fn_sort_rate
    encode_rate = compute.fn_encode_rate
    ceil = math.ceil
    out = S / ratio
    # min and max are written as comparisons, cheaper per w than builtin
    # calls; a tie keeps the operand they keep, b and read + w*L
    for w in ws:
        e = A / w  # per-worker bandwidth of w concurrent streams, min(b, A/w)
        if not e < b:
            e = b
        share = S / w
        read = share / e
        partition_phase = read + w * L  # max(read + w*L, w*w/R)
        floor = w * w / R
        if floor > partition_phase:
            partition_phase = floor
        yield (
            (
                startup,
                read + ceil(n_in / w) * L,
                share / sort_rate,
                partition_phase,
                partition_phase,
                read + L,
                0.0,
            ),
            (startup, read + L, 0.0, 0.0, 0.0, out / w / e + L, share / encode_rate),
        )


def _require_ratio(ratio: float) -> None:
    if not ratio >= 1:
        raise DomainError(f"compression ratio must be >= 1, got {ratio}")


def shuffle_latency_model(
    S: float, w: int, n_in: int, store: StoreProfile, compute: ComputeProfile
) -> LatencyBreakdown:
    """Sort stage via object-storage all-to-all exchange with w workers."""
    _require_positive(S=S, w=w, n_in=n_in)
    # the ratio shapes only the encode tuple, n_in only the sort tuple
    [(phases, _)] = _phase_tuples(S, (w,), n_in, 1.0, store, compute)
    return LatencyBreakdown(*phases)


def vm_exchange_latency_model(
    S: float, n_in: int, w_out: int, store: StoreProfile, compute: ComputeProfile
) -> LatencyBreakdown:
    """Sort stage gathered into a single VM, scattered to w_out objects."""
    _require_positive(S=S, n_in=n_in, w_out=w_out)
    pipe = min(compute.vm_bandwidth, store.aggregate_bandwidth)
    L = store.req_latency
    return LatencyBreakdown(
        startup=compute.vm_provision,
        input_read=S / pipe + n_in * L,
        sort_compute=S / compute.vm_sort_rate,
        output_write=S / pipe + w_out * L,
    )


def encode_latency_model(
    S: float,
    w: int,
    ratio: float,
    store: StoreProfile,
    compute: ComputeProfile,
) -> LatencyBreakdown:
    """Embarrassingly parallel encode stage shrinking data by `ratio`."""
    _require_positive(S=S, w=w)
    _require_ratio(ratio)
    [(_, phases)] = _phase_tuples(S, (w,), 1, ratio, store, compute)
    return LatencyBreakdown(*phases)


def _scan_totals(S, n_in, store: StoreProfile, compute: ComputeProfile, w_max, ratio) -> list[float]:
    """Modeled sort+encode latency for w = 1..w_max, in order; unvalidated.

    The latency curve of the scan: each total is the shuffle and encode
    phase tuples summed, equal bit for bit to the public models' totals
    added.
    """
    return [
        _phase_total(sort) + _phase_total(encode)
        for sort, encode in _phase_tuples(S, range(1, w_max + 1), n_in, ratio, store, compute)
    ]


def optimal_worker_count(
    S: float,
    n_in: int,
    store: StoreProfile,
    compute: ComputeProfile,
    w_max: int,
    ratio: float = DEFAULT_COMPRESSION_RATIO,
) -> int:
    """Worker count minimizing modeled sort+encode latency.

    Takes the first minimum of the per-w totals of every w in [1, w_max]
    (`_scan_totals`): ties go to the smallest w, which is the cheaper
    configuration at equal latency.
    """
    if w_max < 1:
        raise DomainError(f"w_max must be >= 1, got {w_max}")
    _require_positive(S=S, n_in=n_in)
    _require_ratio(ratio)
    totals = _scan_totals(S, n_in, store, compute, w_max, ratio)
    return totals.index(min(totals)) + 1


def compute_cost(
    busy_seconds: list[float],
    workers: list[int],
    metrics: StoreMetrics,
    vm_seconds: float,
    vol_gb: float,
    prices: PriceSheet,
    compute: ComputeProfile,
) -> CostBreakdown:
    """Dollar cost of a run.

    `busy_seconds` and `workers` are aligned per function stage; billable
    time excludes the startup wave, which providers do not charge for.
    """
    if len(busy_seconds) != len(workers):
        raise DomainError("busy_seconds and workers must align per stage")
    if vm_seconds < 0 or vol_gb < 0:
        raise DomainError("vm_seconds and vol_gb must be >= 0")
    fn_compute = 0.0
    calls = 0
    for busy, w in zip(busy_seconds, workers):
        if busy < 0 or w < 0:
            raise DomainError("per-stage busy time and workers must be >= 0")
        fn_compute += w * busy * compute.fn_mem_gb * prices.price_gb_s
        calls += w
    return CostBreakdown(
        fn_compute=fn_compute,
        storage_requests=metrics.put_count * prices.price_put
        + metrics.get_count * prices.price_get,
        vm_time=vm_seconds * prices.price_vm_s,
        vm_volume=vol_gb * vm_seconds * prices.price_vol_gb_s,
        invocations=calls * prices.price_invocation,
    )


# --- profile files ---------------------------------------------------------

@dataclass(frozen=True)
class Profiles:
    """The three parameter sheets a run needs, as one unit."""

    store: StoreProfile
    compute: ComputeProfile
    prices: PriceSheet


_PROFILE_SECTIONS = {
    "store": StoreProfile,
    "compute": ComputeProfile,
    "prices": PriceSheet,
}


def _parse_section(name: str, cls, data: dict):
    if not isinstance(data, dict):
        raise SchemaError(name, f"expected an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise SchemaError(f"{name}.{sorted(unknown)[0]}", "unknown field")
    required = {
        f.name
        for f in fields(cls)
        if f.default is MISSING and f.default_factory is MISSING
    }
    missing = required - set(data)
    if missing:
        raise SchemaError(f"{name}.{sorted(missing)[0]}", "missing field")
    for key, value in data.items():
        # every field is used as a float: an integer past the float range
        # would overflow inside a formula, and an infinity (JSON's 1e999 or
        # Infinity) would turn its result into NaN. Sheets built in code,
        # not parsed, may hold infinite rates.
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            try:
                fits = not math.isinf(value)
            except OverflowError:
                fits = False
            if not fits:
                raise SchemaError(f"{name}.{key}", "does not fit a float")
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(name, str(exc)) from exc


def parse_profiles(data: dict) -> Profiles:
    """Build Profiles from a {store, compute, prices} mapping."""
    unknown = set(data) - set(_PROFILE_SECTIONS)
    if unknown:
        raise SchemaError(sorted(unknown)[0], "unknown profile section")
    sections = {}
    for name, cls in _PROFILE_SECTIONS.items():
        if name not in data:
            raise SchemaError(name, "missing profile section")
        sections[name] = _parse_section(name, cls, data[name])
    return Profiles(**sections)


def profiles_to_dict(profiles: Profiles) -> dict:
    out: dict[str, dict] = {}
    for name, cls in _PROFILE_SECTIONS.items():
        section = getattr(profiles, name)
        out[name] = {f.name: getattr(section, f.name) for f in fields(cls)}
    return out


def load_profiles(path: str) -> Profiles:
    """Read and validate the profile file at `path`."""
    data = load_json(read_utf8(path), "profile file", functools.partial(SchemaError, path))
    return parse_profiles(data)


@functools.cache
def builtin_profiles(name: str = CALIBRATED_PROFILE) -> Profiles:
    """Load a profile sheet shipped with the package.

    The sheet is package data and `Profiles` is frozen, so each name is
    read and validated once per process and the same value is shared.
    """
    text = resources.files("faaslab").joinpath(f"profiles/{name}.json").read_text("utf-8")
    return parse_profiles(json.loads(text))
