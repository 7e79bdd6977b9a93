"""Exchange primitives for the sort stage.

Serverless path: sample every input object's head, derive
range-partition boundaries, have each of w mappers sort and write one
fragment object per reducer (w*w objects through the store), then let
each reducer merge its w sorted fragments into one sorted output. A
mapper parses its input into rows (`tsv_to_rows`), sorts them by start,
then stably by chromosome, then by the full tuple (see
`partition_records`): the first two passes compare single ints and
single strings on CPython's fast paths, so the last pass meets an
almost sorted list. Its fragments join the rows' canonical lines, so no
record is serialized again. A reducer does not parse its fragments
again: it merges their lines on (chromosome, start) and parses in full
only the lines that share both. A fragment that no mapper writes falls
back to the reference merge, which parses and sorts every fragment's
rows (see `merge_fragments`).

VM path: gather every input object into one machine, sort globally in
its memory, and cut the sorted records into w_out ranges for the encode
stage.

Partition objects follow the stable naming template
``part/<stage-id>/<mapper>-<reducer>``; sorted outputs are
``sorted/<stage-id>/<reducer>``. Records sort by their full field tuple,
which refines the (chrom, start, end, strand) key order without changing
it, so both strategies produce the identical record sequence for the
same input.
"""

from __future__ import annotations

import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import chain, compress, count, islice
from typing import Callable, Iterable, Iterator, Sequence

from faaslab.blobstore import Session
from faaslab.errors import DomainError, MissingPartition, NotFound, ParseError
from faaslab.methpipe.records import (
    CHROM_KEY,
    SORT_KEY,
    START_KEY,
    MethRecord,
    _chunks,
    _split_fields,
    records_to_tsv,  # noqa: F401 -- perfbench/tracing.py patches it here
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

    Sorts, then cuts the sorted list at each boundary; bisect_right
    keeps a key equal to a boundary in the lower range. A fragment's
    payload joins its rows' lines.

    The sort is three stable passes: by start, by chromosome, then by the
    full tuple. The first two compare one int or one str per step, which
    CPython's sort does without rich comparisons, and leave the rows in
    (chrom, start) order. The tuple pass then costs n - 1 comparisons
    where no two rows share (chrom, start), and orders the rows that do
    by end, strand, coverage, meth_pct and line, so the result equals
    ``sorted(rows)``; it stays because the first two passes alone would
    leave such ties in input order.
    """
    ordered = sorted(rows, key=START_KEY)
    ordered.sort(key=CHROM_KEY)
    ordered.sort()
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
) -> list[tuple[str, bytes]]:
    """GET this reducer's w fragment objects as (key, payload) pairs; names
    the first missing one."""
    fragments = []
    for mapper in range(w):
        key = partition_key(stage, mapper, reducer)
        try:
            fragments.append((key, session.get_object(key)))
        except NotFound:
            raise MissingPartition(f"partition object {key!r} is absent") from None
    return fragments


# (start, line) pairs of a reducer's merge
_PAIR_START = operator.itemgetter(0)
_PAIR_LINE = operator.itemgetter(1)


def merge_fragments(fragments: list[tuple[str, bytes]]) -> bytes:
    """Merge sorted (key, payload) fragments into one sorted output payload.

    Each fragment is `partition_records` output of the run's own mapper:
    canonical lines in full-tuple order, so one contiguous block per
    chromosome, sorted by start within it. The merge trusts that, and does
    not parse the fragments again: it checks only that every line has 6
    tab-separated fields, no ``\\r``, a chromosome that is neither empty
    nor a comment and an integer start, and it parses in full only the
    lines that share (chromosome, start) with another line. It does not
    check the other fields of the other lines, that the lines are
    canonical or that they are sorted.

    Per chromosome, in name order, one stable sort by start merges the
    fragments' blocks (timsort finds them as sorted runs). Only lines that
    share (chromosome, start) are still ordered by the rest of the
    tuple: all of a chromosome's such lines are parsed with one
    `tsv_to_rows` call and reordered, so the cost of ties is bounded by
    one parse of the tied lines.

    A fragment that fails a check, or whose tied lines do not parse as one
    record each, is no mapper's output: then the merge parses every
    fragment with `tsv_to_rows` and sorts the rows, so a malformed line
    raises ParseError naming its fragment's key. Either way the result
    equals ``rows_to_tsv(sorted(rows))`` of the fragments' rows.
    """
    try:
        merged = _merge_lines([payload for _, payload in fragments])
    except (ValueError, ParseError):
        merged = None
    if merged is None:
        rows: list[tuple] = []
        for key, payload in fragments:
            rows += parse_object(tsv_to_rows, payload, key)
        rows.sort()
        return rows_to_tsv(rows)
    if not merged:
        return b""
    return b"\n".join(merged) + b"\n"


def _merge_lines(payloads: list[bytes]) -> list[bytes] | None:
    """The fragments' lines in full-tuple order, or None when a check fails.

    Reads each fragment in the parse chunks of `records._chunks`, so only
    one chunk's fields are alive at a time, and cuts each chunk into
    chromosome blocks; a chromosome's blocks keep fragment order. A block's
    raw chromosome is the name's UTF-8 bytes after a newline byte. Those
    compare as the names do; whole lines would not, because a name
    holding a byte below tab, such as "c" + chr(1), sorts after "c" while
    its line sorts before. Raises ValueError for a start that is not an
    integer and ParseError for tied lines that do not parse.
    """
    blocks: dict[bytes, list[Iterator[tuple[int, bytes]]]] = {}
    for payload in payloads:
        for chunk in _chunks(payload):
            split = _split_fields(chunk)
            if split is None:
                return None
            fields, chroms, _ = split
            starts = list(map(int, fields[1::6]))
            del fields, split
            lines = chunk.split(b"\n")
            lo, n = 0, len(chroms)
            while lo < n:
                hi = bisect_right(chroms, chroms[lo], lo)
                blocks.setdefault(chroms[lo], []).append(zip(starts[lo:hi], lines[lo:hi]))
                lo = hi
    merged: list[bytes] = []
    for chrom in sorted(blocks):
        merged += _merge_runs(blocks.pop(chrom))
    return merged


def _merge_runs(runs: list[Iterator[tuple[int, bytes]]]) -> list[bytes]:
    """One chromosome's lines in full-tuple order, from sorted (start, line) runs.

    A function of its own, so that its lists are freed before the caller
    joins the output. Raises ParseError when a tied line is not one record.
    """
    pairs = list(chain.from_iterable(runs))
    pairs.sort(key=_PAIR_START)
    lines = list(map(_PAIR_LINE, pairs))
    starts = list(map(_PAIR_START, pairs))
    del pairs
    # Lines that share a start are still to be ordered by the rest of the
    # tuple. Line i is tied when its start equals line i - 1's or i + 1's.
    # Sorted, the rows of all tied lines group by start in the groups'
    # order, so the k-th row's line goes to the k-th tied place.
    shared = list(map(operator.eq, starts, islice(starts, 1, None)))
    del starts
    if True in shared:
        before, after = chain((False,), shared), chain(shared, (False,))
        tied = list(compress(count(), map(operator.or_, before, after)))
        del shared
        rows = tsv_to_rows(b"\n".join(map(lines.__getitem__, tied)))
        if len(rows) != len(tied):
            raise ParseError(1, "a tied line is blank or a comment")
        rows.sort()
        for i, row in zip(tied, rows):
            lines[i] = row[6]
    return lines


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

