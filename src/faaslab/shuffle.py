"""Exchange primitives for the sort stage.

Serverless path: sample every input object's head, derive
range-partition boundaries, have each of w mappers sort and write one
fragment object per reducer (w*w objects through the store), then let
each reducer merge its w sorted fragments into one sorted output. Both
sides sort rows (`tsv_to_rows`) and write payloads by joining the rows'
canonical lines, so neither serializes a record again.

VM path: gather every input object into one machine, sort globally
(spilling sorted runs to local disk when the input exceeds memory), and
cut the sorted records into w_out ranges for the encode stage.

Partition objects follow the stable naming template
``part/<stage-id>/<mapper>-<reducer>``; sorted outputs are
``sorted/<stage-id>/<reducer>``. Records sort by their full field tuple,
which refines the (chrom, start, end, strand) key order without changing
it, so both strategies produce the identical record sequence for the
same input.
"""

from __future__ import annotations

import heapq
import tempfile
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from faaslab.blobstore import Session
from faaslab.errors import DomainError, MissingPartition, NotFound, ParseError
from faaslab.methpipe.records import (
    CHUNK_BYTES,
    SORT_KEY,
    MethRecord,
    records_to_tsv,
    rows_to_tsv,
    tsv_to_records,
    tsv_to_rows,
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
    """Worker count and range boundaries.

    Range r owns keys in (boundaries[r-1], boundaries[r]], open at the
    extremes; a key equal to a boundary goes to the lower range. Fewer
    than w-1 boundaries means the tail ranges are empty.
    """

    w: int
    boundaries: tuple[SortKeyT, ...]

    def __post_init__(self):
        if self.w < 1:
            raise DomainError(f"worker count must be >= 1, got {self.w}")
        if len(self.boundaries) > self.w - 1:
            raise DomainError("more boundaries than ranges")
        if any(a >= b for a, b in zip(self.boundaries, self.boundaries[1:])):
            raise DomainError("boundaries must be strictly ascending")

    def range_of(self, key: SortKeyT) -> int:
        return bisect_left(self.boundaries, key)


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


def parse_object(parse: Callable[[bytes], list], payload: bytes, key: str) -> list:
    """parse(payload), with a ParseError naming the object it came from."""
    try:
        return parse(payload)
    except ParseError as exc:
        raise ParseError(exc.column, f"{exc.reason} in object {key!r}") from exc


def sample_object(
    session: Session, key: str, size: int, sample_bytes: int = DEFAULT_SAMPLE_BYTES
) -> list[SortKeyT]:
    """Sort keys of the complete lines in an object's head; one range GET.

    A malformed line raises ParseError naming the object.
    """
    head = session.get_object(key, (0, min(sample_bytes, size)))
    complete = head if len(head) >= size else head[: head.rfind(b"\n") + 1]
    return [SORT_KEY(record) for record in parse_object(tsv_to_records, complete, key)]


def partition_records(rows: Iterable[tuple], plan: ShufflePlan) -> list[bytes]:
    """Split rows (see `tsv_to_rows`) into w sorted fragment payloads by key range.

    Sorts once, then cuts the sorted list at each boundary; bisect_right
    keeps a key equal to a boundary in the lower range. A fragment's
    payload joins its rows' lines.
    """
    ordered = sorted(rows)
    fragments = []
    lo = 0
    for boundary in plan.boundaries:
        hi = bisect_right(ordered, boundary, lo, key=SORT_KEY)
        fragments.append(rows_to_tsv(ordered[lo:hi]))
        lo = hi
    fragments.append(rows_to_tsv(ordered[lo:]))
    fragments.extend(b"" for _ in range(plan.w - len(fragments)))
    return fragments


def write_fragments(
    fragments: list[bytes],
    stage: str,
    mapper: int,
    session: Session,
    track: Tracker | None = None,
) -> None:
    """Mapper side: PUT one object per reducer, empty fragments included."""
    for reducer, payload in enumerate(fragments):
        if track:
            track(len(payload))
        session.put_object(partition_key(stage, mapper, reducer), payload)


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


def merge_fragments(payloads: list[bytes]) -> bytes:
    """Merge sorted fragment payloads into one sorted output payload.

    Parses the concatenated fragments once into rows; list.sort finds
    the w sorted runs and merges them, and the output joins their lines.
    """
    rows = tsv_to_rows(
        b"".join(p if p.endswith(b"\n") or not p else p + b"\n" for p in payloads)
    )
    rows.sort()
    return rows_to_tsv(rows)


def _range_counts(n: int, w_out: int) -> list[int]:
    return [n // w_out + (1 if i < n % w_out else 0) for i in range(w_out)]


def split_sorted(records: list[MethRecord], w_out: int) -> list[list[MethRecord]]:
    """Cut a sorted list into w_out near-equal record-count ranges."""
    slices = []
    start = 0
    for count in _range_counts(len(records), w_out):
        slices.append(records[start : start + count])
        start += count
    return slices


def external_sort(
    objects: Iterable[tuple[str, bytes]], w_out: int, mem_budget: int
) -> Iterator[list[MethRecord]]:
    """Sort inputs beyond the memory budget; yield w_out sorted ranges.

    Parses the (key, payload) objects in order, a ParseError naming the
    object; spills a sorted run to local disk each time about a quarter
    of the budget is buffered, then k-way merges the runs and yields the
    same ranges `split_sorted` would cut from the fully sorted records.
    """
    chunk_cap = max(mem_budget // 4, 1)
    with tempfile.TemporaryDirectory(prefix="faaslab-extsort-") as tmp:
        runs: list[str] = []
        buffer: list[MethRecord] = []
        buffered = 0
        total = 0

        def spill():
            nonlocal buffered, total
            if not buffer:
                return
            buffer.sort()
            path = f"{tmp}/run-{len(runs)}.tsv"
            with open(path, "wb") as fh:
                fh.write(records_to_tsv(buffer))
            runs.append(path)
            total += len(buffer)
            buffer.clear()
            buffered = 0

        for key, payload in objects:
            buffer.extend(parse_object(tsv_to_records, payload, key))
            buffered += len(payload)
            if buffered >= chunk_cap:
                spill()
        spill()

        def run_reader(path: str):
            with open(path, "rb") as fh:
                for lines in iter(lambda: fh.readlines(CHUNK_BYTES), []):
                    yield from tsv_to_records(b"".join(lines))

        merged = heapq.merge(*(run_reader(p) for p in runs))
        for count in _range_counts(total, w_out):
            yield [next(merged) for _ in range(count)]
