"""Exchange primitives for the sort stage.

Serverless path: sample every input object's head, derive
range-partition boundaries, have each of w mappers sort and write one
fragment object per reducer (w*w objects through the store), then let
each reducer merge its w sorted fragments into one sorted output. A
mapper parses its input into canonical lines and orders them with
`sort_lines`, then cuts them at the plan's boundaries
(`partition_records`); its fragments join those lines, so no record is
serialized again. A reducer does not parse its fragments again: it
merges their lines on (chromosome, start), and orders lines that share
both by the rest of the record, read from the line. A fragment that no
mapper writes falls back to `sort_lines`, which parses every fragment
in full (see `merge_fragments`). The parse keeps every start below
2**63, so a block's starts always pack into an int64 array.

VM path: gather every input object into one machine, order their
canonical lines with `sort_lines` and cut them into w_out ranges for the
encode stage; no record tuple outlives its parse chunk. Every sort here
is the one line merge, `_merge_lines`.

Partition objects follow the stable naming template
``part/<stage-id>/<mapper>-<reducer>``; sorted outputs are
``sorted/<stage-id>/<reducer>``. Records sort by their full field tuple,
which refines the (chrom, start, end, strand) key order without changing
it, so both strategies produce the identical record sequence for the
same input.
"""

from __future__ import annotations

import operator
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, count, islice
from typing import Callable, Iterable, Iterator, Sequence

from faaslab.blobstore import Session
from faaslab.errors import DomainError, MissingPartition, NotFound, ParseError
from faaslab.methpipe.records import (
    SORT_KEY,
    _chunks,
    _split_fields,
    records_to_tsv,  # noqa: F401 -- perfbench/tracing.py patches it here
    tsv_to_lines,
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


def partition_records(lines: list[bytes], plan: ShufflePlan) -> list[bytes]:
    """Cut sorted canonical lines (see `sort_lines`) into w fragment payloads by key range.

    bisect_right keeps a key equal to a boundary in the lower range, and
    parses only the lines it probes, about log2(len(lines)) per boundary.
    """
    fragments = []
    lo = 0
    for boundary in plan.boundaries:
        hi = bisect_right(lines, boundary, lo, key=_line_key)
        fragments.append(_join_lines(lines[lo:hi]))
        lo = hi
    fragments.append(_join_lines(lines[lo:]))
    fragments.extend(b"" for _ in range(plan.w - len(fragments)))
    return fragments


def _line_key(line: bytes) -> SortKeyT:
    """The sort key of a canonical line."""
    chrom, start, end, strand, _ = line.split(b"\t", 4)
    return chrom.decode("utf-8"), int(start), int(end), strand.decode("ascii")


def _join_lines(lines: list[bytes]) -> bytes:
    """The payload of lines: each one ends with a newline."""
    return b"\n".join(lines) + b"\n" if lines else b""


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


def merge_fragments(fragments: list[tuple[str, bytes]]) -> bytes:
    """Merge sorted (key, payload) fragments into one sorted output payload.

    Each fragment is `partition_records` output of the run's own mapper:
    canonical lines in full-tuple order. The merge trusts that, and does
    not parse the fragments again: it orders their lines with
    `_merge_lines`, making only the checks listed there.

    A fragment that fails a check, with a start outside int64
    (OverflowError) or a tied line whose numbers are not integers, is no
    mapper's output: then the fragments are sorted as the VM sorts its
    input, with `sort_lines`, whose full parse raises a ParseError naming
    the fragment's key on a malformed line. On mapper output both ways
    give the same lines.
    """
    try:
        merged = _merge_lines(_fragment_chunks(payload for _, payload in fragments))
    except (ValueError, OverflowError):
        merged = sort_lines(fragments)
    return _join_lines(merged)


def sort_lines(objects: list[tuple[str, bytes]]) -> list[bytes]:
    """The (key, payload) objects' canonical lines in full-tuple order.

    The sort of the VM, of each mapper and of the reducer's fallback. A
    malformed line raises the ParseError tsv_to_records raises, naming its
    object.
    """
    return _merge_lines(
        chunk for key, payload in objects for chunk in parse_object(tsv_to_lines, payload, key)
    )


def _fragment_chunks(payloads: Iterable[bytes]) -> Iterator[tuple]:
    """The reducer's (chromosomes, starts, lines) per parse chunk.

    A chromosome is its raw field, the name's UTF-8 bytes after a newline
    byte, which orders as the name does.
    """
    for payload in payloads:
        for chunk in _chunks(payload):
            split = _split_fields(chunk)
            if split is None:
                raise ValueError("not a fragment of internal lines")
            fields, chroms, _ = split
            starts = list(map(int, fields[1::6]))
            del fields, split
            yield chroms, starts, chunk.split(b"\n")


def _merge_lines(chunks: Iterable[tuple[Sequence, list[int], list[bytes]]]) -> list[bytes]:
    """Lines in full-tuple order, from (chromosomes, starts, lines) chunks.

    The reducer's chunks come from `_fragment_chunks`, and the merge relies
    on its checks only: every line has 6 tab-separated fields, no ``\\r``,
    a chromosome that is neither empty nor a comment and an integer start
    (ValueError otherwise), which fits int64 (OverflowError otherwise);
    tied lines must have integer numbers (ValueError otherwise).
    `sort_lines`' chunks come from `tsv_to_lines`, whose full parse adds
    every other check of `tsv_to_records` and makes each line canonical.

    Chunks may come in any order: one out of chromosome order (unsorted
    input) is grouped by a stable sort on its chromosomes, which a chunk
    in order skips. A chromosome's blocks keep chunk order. Chromosomes
    must compare as their names do; whole lines would not, as "c" + chr(1)
    sorts after "c" but its line sorts before.

    A block packs its starts into an int64 array, 8 bytes a line, not an
    int object.
    """
    blocks: dict[object, tuple[array, list[bytes]]] = {}
    for chroms, starts, lines in chunks:
        if not all(map(operator.le, chroms, islice(chroms, 1, None))):
            order = sorted(range(len(chroms)), key=chroms.__getitem__)
            chroms, starts, lines = [list(map(column.__getitem__, order)) for column in (chroms, starts, lines)]
        lo, n = 0, len(chroms)
        while lo < n:
            hi = bisect_right(chroms, chroms[lo], lo)
            block_starts, block_lines = blocks.setdefault(chroms[lo], (array("q"), []))
            block_starts.fromlist(starts[lo:hi])
            block_lines += lines[lo:hi]
            lo = hi
    merged: list[bytes] = []
    for chrom in sorted(blocks):
        merged += _merge_block(*blocks.pop(chrom))
    return merged


def _merge_block(starts: array, lines: list[bytes]) -> list[bytes]:
    """One chromosome's lines in full-tuple order, given their packed starts.

    The line sort and the tie count read the starts from the block, so no
    list of them is built. Only when two lines share a start are the
    starts sorted, for the tie scan, and the tied lines alone sorted by
    `_tie_key` and written back in place. A function of its own, so that
    its lists are freed before the caller joins the output.
    """
    # list.sort calls the key once per line, in list order, before it
    # sorts, so next() on the starts hands every line its own start
    lines.sort(key=partial(next, iter(starts)))
    if len(set(starts)) == len(lines):
        return lines
    keys = sorted(starts)
    # Lines that share a start are still to be ordered by the rest of the
    # tuple. Line i is tied when its start equals line i - 1's or i + 1's.
    # Sorted by their keys, the tied lines group by start in the groups'
    # order, so the k-th of them goes to the k-th tied place.
    shared = list(map(operator.eq, keys, islice(keys, 1, None)))
    del keys
    before, after = chain((False,), shared), chain(shared, (False,))
    tied = list(compress(count(), map(operator.or_, before, after)))
    del shared
    for i, line in zip(tied, sorted(map(lines.__getitem__, tied), key=_tie_key)):
        lines[i] = line
    return lines


def _tie_key(line: bytes) -> tuple:
    """A line's (start, end, strand, coverage, meth_pct); strand bytes order as its strings do."""
    _, start, end, strand, coverage, meth_pct = line.split(b"\t")
    return int(start), int(end), strand, int(coverage), int(meth_pct)


def split_sorted(items: list[bytes], w_out: int) -> list[list[bytes]]:
    """Cut sorted lines into w_out near-equal count ranges."""
    n = len(items)
    slices = []
    start = 0
    for i in range(w_out):
        count = n // w_out + (1 if i < n % w_out else 0)
        slices.append(items[start : start + count])
        start += count
    return slices

