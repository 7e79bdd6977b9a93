"""Deterministic synthetic methylation data.

Stands in for a real multi-GB bedMethyl file at desk scale. The shape
mimics WGBS calls enough to exercise the codec: positions increase within
a chromosome with small CpG-like gaps, coverage follows a bounded skewed
distribution, methylation percent is bimodal near 0 and 100, and strand
flips in runs rather than per site.
"""

from __future__ import annotations

import heapq
import random

from faaslab.methpipe.records import MethRecord, record_lines

_SITE_LEN = 1
_MAX_COVERAGE = 1000


def _chrom_names(chroms: int) -> list[str]:
    # byte-order sorted so the generated stream is already in sort order
    return sorted(f"chr{i}" for i in range(1, chroms + 1))


def generate_synthetic(
    n: int,
    seed: int,
    chroms: int = 4,
    shuffled: bool = False,
) -> list[MethRecord]:
    """Generate n records, deterministically for a given seed.

    Records come out sorted by (chrom, start, end, strand) unless
    `shuffled` is set, which permutes them for use as sort-stage input.
    """
    if n < 0:
        raise ValueError(f"record count must be >= 0, got {n}")
    if chroms < 1:
        raise ValueError(f"chromosome count must be >= 1, got {chroms}")
    rng = random.Random(seed)
    names = _chrom_names(chroms)
    per_chrom = [n // chroms + (1 if i < n % chroms else 0) for i in range(chroms)]

    records: list[MethRecord] = []
    append = records.append
    for chrom, count in zip(names, per_chrom):
        pos = rng.randrange(10_000, 50_000)
        strand = rng.choice("+-")
        for _ in range(count):
            if rng.random() < 0.6:
                gap = 2
            else:
                gap = 2 + min(int(rng.expovariate(1 / 80.0)), 5000)
            pos += gap
            if rng.random() < 1 / 64.0:
                strand = "-" if strand == "+" else "+"
            coverage = min(int(rng.lognormvariate(2.6, 0.9)), _MAX_COVERAGE)
            u = rng.random()
            if u < 0.45:
                meth = min(int(abs(rng.gauss(2.0, 6.0))), 100)
            elif u < 0.90:
                meth = 100 - min(int(abs(rng.gauss(2.0, 6.0))), 100)
            else:
                meth = rng.randrange(0, 101)
            append(MethRecord(chrom, pos, pos + _SITE_LEN, strand, coverage, meth))

    if shuffled:
        rng.shuffle(records)
    return records


def split_into_objects(records: list[MethRecord], k: int) -> list[bytes]:
    """Serialize records into k TSV payloads balanced by byte size.

    Greedy least-loaded assignment keeps payload sizes within one record's
    bytes of each other. Deterministic: ties go to the lowest index, which
    the heap of (size, index) pairs yields first.
    """
    if k < 1:
        raise ValueError(f"object count must be >= 1, got {k}")
    buckets: list[list[bytes]] = [[] for _ in range(k)]
    loads = [(0, i) for i in range(k)]  # ascending, so already a heap
    for line in record_lines(records):
        size, i = loads[0]
        buckets[i].append(line)
        heapq.heapreplace(loads, (size + len(line) + 1, i))
    return [b"\n".join(bucket) + b"\n" if bucket else b"" for bucket in buckets]
