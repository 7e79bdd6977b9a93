"""The two sort-stage exchange strategies.

Serverless path: sample input heads, derive range-partition boundaries,
have each of w mappers sort and write one fragment object per reducer
(w*w objects through the store), then let each reducer merge its w
sorted fragments into one sorted output object.

VM path: gather every input object into one machine, sort globally, and
scatter w_out range outputs for the encode stage.

Partition objects follow the stable naming template
``part/<stage-id>/<mapper>-<reducer>``; sorted outputs are
``sorted/<stage-id>/<reducer>``. Records sort by their full field tuple,
which refines the (chrom, start, end, strand) key order without changing
it, so both strategies produce the identical record sequence for the
same input.
"""

from __future__ import annotations

import heapq
import shutil
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from faaslab.blobstore import Session
from faaslab.errors import DomainError, MemoryBudgetError, MissingPartition, NotFound
from faaslab.methpipe.records import (
    CHUNK_BYTES,
    SORT_KEY,
    MethRecord,
    records_to_tsv,
    tsv_to_records,
)

SortKeyT = tuple[str, int, int, str]

PARTITION_TEMPLATE = "part/{stage}/{mapper}-{reducer}"
OUTPUT_TEMPLATE = "sorted/{stage}/{reducer}"

DEFAULT_SAMPLE_BYTES = 65536

Tracker = Callable[[int], None]


def partition_key(stage: str, mapper: int, reducer: int) -> str:
    return PARTITION_TEMPLATE.format(stage=stage, mapper=mapper, reducer=reducer)


def output_key(stage: str, reducer: int) -> str:
    return OUTPUT_TEMPLATE.format(stage=stage, reducer=reducer)


@dataclass(frozen=True)
class ShufflePlan:
    """Worker count, range boundaries, and the partition naming scheme.

    Range r owns keys in (boundaries[r-1], boundaries[r]], open at the
    extremes; a key equal to a boundary goes to the lower range. Fewer
    than w-1 boundaries means the tail ranges are empty.
    """

    w: int
    boundaries: tuple[SortKeyT, ...]
    key_template: str = PARTITION_TEMPLATE

    def __post_init__(self):
        if self.w < 1:
            raise DomainError(f"worker count must be >= 1, got {self.w}")
        if len(self.boundaries) > self.w - 1:
            raise DomainError("more boundaries than ranges")
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise DomainError("boundaries must be strictly ascending")

    def range_of(self, key: SortKeyT) -> int:
        return bisect_left(self.boundaries, key)

    def partition_key(self, stage: str, mapper: int, reducer: int) -> str:
        return self.key_template.format(stage=stage, mapper=mapper, reducer=reducer)


@dataclass
class ManifestEntry:
    reducer: int
    key: str
    record_count: int
    byte_size: int


@dataclass
class PartitionManifest:
    """mapper index -> the w fragment objects that mapper wrote."""

    w: int
    fragments: dict[int, list[ManifestEntry]] = field(default_factory=dict)

    def add(self, mapper: int, entries: list[ManifestEntry]) -> None:
        if len(entries) != self.w:
            raise DomainError(
                f"mapper {mapper} wrote {len(entries)} fragments, expected {self.w}"
            )
        self.fragments[mapper] = entries


def plan_partitions(samples: Sequence[SortKeyT], w: int) -> ShufflePlan:
    """Derive boundaries from sampled keys as w-quantile order statistics.

    Equal quantiles are nudged up to the next distinct sample; when the
    sample has too few distinct values, the plan simply ends up with
    fewer boundaries and empty tail ranges.
    """
    if w < 1:
        raise DomainError(f"worker count must be >= 1, got {w}")
    if w == 1:
        return ShufflePlan(1, ())
    if not samples:
        raise DomainError("cannot plan multiple ranges from an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    boundaries: list[SortKeyT] = []
    for i in range(1, w):
        target = ordered[max(0, (i * n) // w - 1)]
        if boundaries and target <= boundaries[-1]:
            nxt = bisect_right(ordered, boundaries[-1])
            if nxt >= n:
                break
            target = ordered[nxt]
        boundaries.append(target)
    return ShufflePlan(w, tuple(boundaries))


def sample_keys(
    session: Session,
    objects: Sequence[tuple[str, int]],
    sample_bytes: int = DEFAULT_SAMPLE_BYTES,
) -> list[SortKeyT]:
    """Read the head of every input object and return all parsed keys.

    Costs exactly one range GET per input object.
    """
    keys: list[SortKeyT] = []
    for key, size in objects:
        head = session.get_object(key, (0, min(sample_bytes, size)))
        complete = head if len(head) >= size else head[: head.rfind(b"\n") + 1]
        keys.extend(SORT_KEY(record) for record in tsv_to_records(complete))
    return keys


def partition_records(records: Iterable[MethRecord], plan: ShufflePlan) -> list[list[MethRecord]]:
    """Split records into w sorted fragments by key range.

    Sorts once, then cuts the sorted list at each boundary; bisect_right
    keeps a key equal to a boundary in the lower range.
    """
    ordered = sorted(records)
    fragments = []
    lo = 0
    for boundary in plan.boundaries:
        hi = bisect_right(ordered, boundary, lo, key=SORT_KEY)
        fragments.append(ordered[lo:hi])
        lo = hi
    fragments.append(ordered[lo:])
    fragments.extend([] for _ in range(plan.w - len(fragments)))
    return fragments


def write_fragments(
    fragments: list[list[MethRecord]],
    plan: ShufflePlan,
    stage: str,
    mapper: int,
    session: Session,
    track: Tracker | None = None,
) -> list[ManifestEntry]:
    """PUT one object per reducer, empty fragments included."""
    entries = []
    for reducer, fragment in enumerate(fragments):
        payload = records_to_tsv(fragment)
        if track:
            track(len(payload))
        key = plan.partition_key(stage, mapper, reducer)
        session.put_object(key, payload)
        entries.append(ManifestEntry(reducer, key, len(fragment), len(payload)))
    return entries


def partition_and_write(
    records: Iterable[MethRecord],
    plan: ShufflePlan,
    mapper: int,
    session: Session,
    stage: str,
    track: Tracker | None = None,
) -> list[ManifestEntry]:
    """Mapper side of the all-to-all exchange: w sorted fragment objects."""
    return write_fragments(partition_records(records, plan), plan, stage, mapper, session, track)


def read_fragments(
    reducer: int, w: int, session: Session, stage: str
) -> list[bytes]:
    """GET this reducer's w fragment objects; names the first missing one."""
    payloads = []
    for mapper in range(w):
        key = partition_key(stage, mapper, reducer)
        try:
            payloads.append(session.get_object(key))
        except NotFound:
            raise MissingPartition(f"partition object {key!r} is absent") from None
    return payloads


def merge_fragments(payloads: list[bytes]) -> list[MethRecord]:
    """Merge sorted fragments into one sorted list.

    Parses the concatenated fragments once; list.sort finds the w sorted
    runs and merges them.
    """
    records = tsv_to_records(
        b"".join(p if p.endswith(b"\n") or not p else p + b"\n" for p in payloads)
    )
    records.sort()
    return records


def merge_partition(
    reducer: int,
    w: int,
    session: Session,
    stage: str,
    track: Tracker | None = None,
) -> ManifestEntry:
    """Reducer side: read w fragments, merge, write one sorted object."""
    payloads = read_fragments(reducer, w, session, stage)
    records = merge_fragments(payloads)
    payload = records_to_tsv(records)
    if track:
        track(len(payload))
    key = output_key(stage, reducer)
    session.put_object(key, payload)
    return ManifestEntry(reducer, key, len(records), len(payload))


def split_sorted(records: list[MethRecord], w_out: int) -> list[list[MethRecord]]:
    """Cut a sorted list into w_out near-equal record-count ranges."""
    n = len(records)
    slices = []
    start = 0
    for i in range(w_out):
        count = n // w_out + (1 if i < n % w_out else 0)
        slices.append(records[start : start + count])
        start += count
    return slices


def vm_sort_exchange(
    input_objects: Sequence[tuple[str, int]],
    w_out: int,
    session: Session,
    stage: str,
    mem_budget: int,
    external_sort: bool = False,
    track: Tracker | None = None,
) -> list[ManifestEntry]:
    """Gather-sort-scatter inside one VM.

    GETs all n_in inputs, sorts globally in memory, PUTs w_out sorted
    range objects. Inputs larger than the memory budget raise unless the
    external-sort fallback is enabled.
    """
    if w_out < 1:
        raise DomainError(f"w_out must be >= 1, got {w_out}")
    total = sum(size for _, size in input_objects)
    if total > mem_budget:
        if not external_sort:
            raise MemoryBudgetError(
                f"input of {total} bytes exceeds VM memory budget of {mem_budget}"
            )
        return _external_sort_exchange(input_objects, w_out, session, stage, mem_budget, track)
    records: list[MethRecord] = []
    for key, _ in input_objects:
        payload = session.get_object(key)
        if track:
            track(len(payload))
        records.extend(tsv_to_records(payload))
    records.sort()
    entries = []
    for reducer, chunk in enumerate(split_sorted(records, w_out)):
        payload = records_to_tsv(chunk)
        if track:
            track(len(payload))
        key = output_key(stage, reducer)
        session.put_object(key, payload)
        entries.append(ManifestEntry(reducer, key, len(chunk), len(payload)))
    return entries


def _external_sort_exchange(
    input_objects: Sequence[tuple[str, int]],
    w_out: int,
    session: Session,
    stage: str,
    mem_budget: int,
    track: Tracker | None,
) -> list[ManifestEntry]:
    """Chunked on-disk merge for inputs beyond the VM memory budget.

    Off by default; request counts against the store are identical to the
    in-memory path (n_in GETs, w_out PUTs).
    """
    chunk_cap = max(mem_budget // 4, 1 << 20)
    runs: list[str] = []
    buffer: list[MethRecord] = []
    buffered = 0
    total_records = 0
    tmp = tempfile.mkdtemp(prefix="faaslab-extsort-")

    def spill():
        nonlocal buffered, total_records
        if not buffer:
            return
        buffer.sort()
        path = f"{tmp}/run-{len(runs)}.tsv"
        with open(path, "wb") as fh:
            fh.write(records_to_tsv(buffer))
        runs.append(path)
        total_records += len(buffer)
        buffer.clear()
        buffered = 0

    try:
        for key, _ in input_objects:
            payload = session.get_object(key)
            if track:
                track(len(payload))
            buffer.extend(tsv_to_records(payload))
            buffered += len(payload)
            if buffered >= chunk_cap:
                spill()
        spill()

        def run_reader(path: str):
            with open(path, "rb") as fh:
                for lines in iter(lambda: fh.readlines(CHUNK_BYTES), []):
                    yield from tsv_to_records(b"".join(lines))

        merged = heapq.merge(*(run_reader(p) for p in runs)) if runs else iter(())
        entries = []
        for reducer in range(w_out):
            count = total_records // w_out + (1 if reducer < total_records % w_out else 0)
            chunk = [next(merged) for _ in range(count)]
            payload = records_to_tsv(chunk)
            if track:
                track(len(payload))
            key = output_key(stage, reducer)
            session.put_object(key, payload)
            entries.append(ManifestEntry(reducer, key, len(chunk), len(payload)))
        return entries
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
