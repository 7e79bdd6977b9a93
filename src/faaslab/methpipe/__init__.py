"""Genomics payload: methylation records, synthetic data, and the block codec."""

from faaslab.methpipe.records import (
    MethRecord,
    SORT_KEY,
    parse_meth_record,
    records_to_tsv,
    tsv_to_records,
)
from faaslab.methpipe.synth import generate_synthetic, split_into_objects
from faaslab.methpipe.codec import (
    MAGIC,
    baseline_compressed_size,
    decode_block,
    encode_block,
    tsv_to_batches,
)

__all__ = [
    "MethRecord",
    "SORT_KEY",
    "MAGIC",
    "baseline_compressed_size",
    "decode_block",
    "encode_block",
    "generate_synthetic",
    "parse_meth_record",
    "records_to_tsv",
    "split_into_objects",
    "tsv_to_batches",
    "tsv_to_records",
]
