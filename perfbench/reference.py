"""Host-speed reference: turns host seconds into seconds at a fixed speed.

The host is shared. Other tenants slow every process on it by up to
about 1.8x, in spells that switch within a second and can last minutes,
so the same run takes 2.6 s or 4.7 s depending on when it runs. The
benchmark therefore times, next to the program, a small kernel it owns:
the same kinds of work as faaslab's records layer (split lines, parse
ints, sort tuples, format and encode), but none of faaslab's code, so no
change to faaslab moves it. A stretch of program time divided by the
kernel's time around it, times REFERENCE_S, is that stretch at a fixed
host speed. A program change moves it in full; a slow spell moves the
program and the kernel alike and cancels out.
"""

from __future__ import annotations

import time

# About the kernel's time, fastest of three calls, on an undisturbed
# 2.1 GHz x86-64 vCPU under CPython 3.11 (87 us in a slow spell there).
# Normalized seconds are host seconds scaled to the speed at which the
# kernel takes this long. It is a fixed scale: any value gives the same
# ratio between two commits.
REFERENCE_S = 50e-6

_LINES = [
    "chr%d\t%d\t%d\tm\t%d\t%d" % (i % 22, i * 7919 % 100003, i * 7919 % 100003 + 1, i % 50, i % 100)
    for i in range(40)
]


def _kernel() -> bytes:
    records = []
    for line in _LINES:
        chrom, start, end, strand, cov, meth = line.split("\t")
        records.append((chrom, int(start), int(end), strand, int(cov), int(meth)))
    records.sort()
    return "".join("%s\t%d\t%d\t%s\t%d\t%d\n" % r for r in records).encode("ascii")


def warm_up() -> None:
    """Run the kernel until the interpreter has specialized its bytecode."""
    for _ in range(20):
        _kernel()


def sample() -> float:
    """Host seconds of the kernel now: the fastest of three back-to-back calls."""
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - t0)
    return best


def normalize(segments: list[float], samples: list[float]) -> float:
    """Seconds of `segments` at the reference speed.

    `samples` has one kernel sample per segment boundary, the outer two
    included, so len(samples) == len(segments) + 1. Each segment is
    scaled by the mean of the samples at its two ends.
    """
    if len(samples) != len(segments) + 1:
        raise ValueError(f"{len(segments)} segments need {len(segments) + 1} samples, got {len(samples)}")
    return sum(
        seconds * 2 * REFERENCE_S / (samples[i] + samples[i + 1]) for i, seconds in enumerate(segments)
    )
