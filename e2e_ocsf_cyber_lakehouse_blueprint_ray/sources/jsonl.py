"""Incremental JSONL file source — the Auto Loader analog (operator S1/S2).

Reference: ``spark.readStream.format("cloudFiles")`` with
``cloudFiles.format=json``, ``singleVariantColumn=data``, exactly-once via a
checkpoint/schema location (/root/reference/transformations/pipelines/github/
audit_logs/bronze_github_audit_logs.py:43-50; paths utilities/utils.py:29-39).

Our exactly-once story is file-granularity: the consumed input files go
through the input ledger of state/lineage.py — recorded ATOMICALLY WITH the
append commit in its snapshot extras, mirrored into the lineage log, read
back as the union of both — so a crash before the commit re-reads the new
files (the append never became visible) and a crash after it re-reads
nothing. Each ``ingest_jsonl`` call lists the directory, subtracts the
consumed set, reads ONLY the new files (``ray.data.read_text`` → one row per
JSON line, ``include_paths=True`` giving the reference's
``_metadata.file_path`` column, bronze_github_audit_logs.py:26), applies the
caller's transform and appends + commits. A 100 TB deployment lists
object-store prefixes the same way — listing cost is per-ingest-cycle, not
per-file-read, and the read itself streams.
"""

from __future__ import annotations

import glob
import os

from ..state import lineage
from ..table import Table


def ingest_jsonl(
    table: Table,
    source_dir: str,
    transform,
    *,
    pattern: str = "*.jsonl",
    batch_size: int | None = None,
    concurrency: int | None = None,
    use_actor: bool = False,
) -> tuple[int | None, list[str]]:
    """Ingest new JSONL files under ``source_dir`` through ``transform``
    (a map_batches callable class, e.g. functions.meta.BronzeMeta) into
    ``table``. Returns (snapshot_id | None, new_files)."""
    all_files = sorted(glob.glob(os.path.join(source_dir, pattern)))
    consumed = lineage.consumed_inputs(table.dir, ["ingest"])["ingest"]
    new = [f for f in all_files if f not in consumed]
    if not new:
        return None, []

    import ray.data as rd

    from ..table import DATASET_CONSTRUCT_LOCK

    cfg = table.config
    with DATASET_CONSTRUCT_LOCK:
        ds = rd.read_text(new, include_paths=True)
    out = ds.map_batches(
        transform,
        batch_format="pyarrow",
        batch_size=batch_size or cfg.batch_size,
        concurrency=concurrency or cfg.rewrite_concurrency,
    )
    parent = table.current_snapshot_id()
    sid = table.append_dataset(
        out, operation="ingest", use_actor=use_actor, extra=lineage.inputs_extra({"ingest": new})
    )
    lineage.record_inputs(table.dir, "ingest", parent, sid, new)
    return sid, new
