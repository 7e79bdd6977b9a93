"""Helpers shared by the test modules."""

from faaslab.methpipe import encode_block, records_to_tsv, tsv_to_batches


def encode_records(records):
    """Encode sorted records as the encode stage does: by way of their TSV payload."""
    return encode_block(tsv_to_batches(records_to_tsv(records)))
