"""Incremental JSONL file source — the Auto Loader analog (operator S1/S2).

Reference: ``spark.readStream.format("cloudFiles")`` with
``cloudFiles.format=json``, ``singleVariantColumn=data``, exactly-once via a
checkpoint/schema location (/root/reference/transformations/pipelines/github/
audit_logs/bronze_github_audit_logs.py:43-50; paths utilities/utils.py:29-39).

Our exactly-once story is file-granularity: the set of consumed input files
is recorded ATOMICALLY WITH the append commit, in the committed snapshot's
extra metadata (``engine.x.ingest_inputs``), and mirrored into the lineage
log (state/lineage.py) right after. ``consumed_files`` unions both, so there
is no crash window in either direction: crash before the commit ⇒ nothing
consumed, next run re-reads the new files (the append never became visible);
crash between commit and lineage write ⇒ the snapshot metadata already names
the files. Each ``ingest_jsonl`` call lists the directory, subtracts the
consumed set, reads ONLY the new files (``ray.data.read_text`` → one row per
JSON line, ``include_paths=True`` giving the reference's
``_metadata.file_path`` column, bronze_github_audit_logs.py:26), applies the
caller's transform and appends + commits. A 100 TB deployment lists
object-store prefixes the same way — listing cost is per-ingest-cycle, not
per-file-read, and the read itself streams.
"""

from __future__ import annotations

import glob
import json
import os

from ..state import lineage, manifest
from ..table import Table


def consumed_files(table: Table) -> set[str]:
    out: set[str] = set()
    log = lineage.read_log(table.dir)
    max_logged = -1
    if log.num_rows:
        for files, job, snap in zip(
            log["input_files"].to_pylist(),
            log["job_id"].to_pylist(),
            log["snapshot_id"].to_pylist(),
        ):
            if job.startswith("ingest"):
                out.update(files)
                max_logged = max(max_logged, int(snap))
    # crash-window safety: snapshots committed after the newest finalized
    # lineage record carry their consumed set in snapshot metadata
    for sid in manifest.list_snapshot_ids(table.dir):
        if sid <= max_logged:
            continue
        raw = manifest.snapshot_extra(table.dir, sid).get("ingest_inputs")
        if raw:
            out.update(json.loads(raw))
    return out


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
    new = [f for f in all_files if f not in consumed_files(table)]
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
    job_id = lineage.job_id_for("ingest", parent, params="|".join(new))
    # consumed-file record rides IN the commit (snapshot extra metadata) so
    # it is atomic with data visibility; the lineage log below mirrors it
    sid = table.append_dataset(
        out,
        operation="ingest",
        use_actor=use_actor,
        extra={"ingest_inputs": json.dumps(sorted(new))},
    )
    uid = lineage.unit_id(new)
    lineage.save_unit(
        table.dir,
        job_id,
        uid,
        {"partition": "", "inputs": new, "input_rows": 0},
    )
    lineage.finalize_job(table.dir, job_id, sid)
    return sid, new
