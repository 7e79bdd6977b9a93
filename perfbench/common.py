"""Paths, workload table and helpers shared by the benchmark's processes."""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

DESK_WORKFLOW = ROOT / "workflows" / "desk-64mb.json"
PAPER_WORKFLOW = ROOT / "workflows" / "paper-scale.json"
GRID_DIR = HERE / "grid"

# Emulated workloads: exchange strategy and the order of the generated
# records. Size and object count are the ROADMAP item 1 profiling point.
EMULATED = {
    "serverless-shuffled": {"exchange": "serverless", "order": "shuffled"},
    "vm-sorted": {"exchange": "vm", "order": "sorted"},
}
MODEL_SWEEP = "model-sweep"
WORKLOADS = (*EMULATED, MODEL_SWEEP)

RECORDS = 550_000
OBJECTS = 8
INPUT_PREFIX = "raw/"


def import_faaslab():
    """Import faaslab from this checkout's src/, never from elsewhere."""
    if not (SRC / "faaslab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no faaslab sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import faaslab

    if Path(faaslab.__file__).resolve().parent != SRC / "faaslab":
        raise SystemExit(f"perfbench: imported faaslab from {faaslab.__file__}, not {SRC}")
    return faaslab


def input_dir(seed: int, order: str) -> Path:
    """Cache directory of one generated input set."""
    return OUT / "inputs" / f"{order}-{RECORDS}-{OBJECTS}-seed{seed}"


class RecordDigest:
    """sha256 over records in a canonical text form owned by the benchmark.

    The generator digests sorted() of the records it made; the output
    check digests the decoded output blocks in key order. Equal digests
    mean equal record sequences, without holding both lists at once.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.count = 0

    def update(self, records) -> None:
        lines = [
            "%s\t%d\t%d\t%s\t%d\t%d\n" % (c, s, e, t, cov, m) for c, s, e, t, cov, m in records
        ]
        self._hash.update("".join(lines).encode("ascii"))
        self.count += len(lines)

    def hexdigest(self) -> str:
        return self._hash.hexdigest()
