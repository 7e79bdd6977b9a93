"""Generate one emulated workload's input objects and the expected output digest.

Runs in its own process so that the generator's memory and time never
show in the measured process. Writes, atomically, a directory holding
the objects (`0000`, `0001`, ...) and `inputs.json`:

    python3 perfbench/gen.py --seed 7 --order shuffled
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import common


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--order", choices=["shuffled", "sorted"], required=True)
    args = parser.parse_args()

    common.import_faaslab()
    from faaslab.methpipe import generate_synthetic, split_into_objects

    final = common.input_dir(args.seed, args.order)
    if (final / "inputs.json").is_file():
        return
    records = generate_synthetic(common.RECORDS, args.seed, shuffled=args.order == "shuffled")
    payloads = split_into_objects(records, common.OBJECTS)
    records.sort()
    digest = common.RecordDigest()
    digest.update(records)
    del records

    tmp = final.with_name(final.name + f".tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    objects = []
    for index, payload in enumerate(payloads):
        name = f"{index:04d}"
        (tmp / name).write_bytes(payload)
        objects.append({"name": name, "size": len(payload)})
    meta = {
        "seed": args.seed,
        "order": args.order,
        "records": common.RECORDS,
        "total_bytes": sum(o["size"] for o in objects),
        "objects": objects,
        "expected_records": digest.count,
        "expected_sha256": digest.hexdigest(),
    }
    (tmp / "inputs.json").write_text(json.dumps(meta, indent=2) + "\n")
    try:
        tmp.rename(final)
    except OSError:
        # another generator finished first; its result is identical
        shutil.rmtree(tmp, ignore_errors=True)
        if not (final / "inputs.json").is_file():
            raise


if __name__ == "__main__":
    main()
