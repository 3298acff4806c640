"""Per-partition / per-unit lineage checkpointing.

Analog of the reference's Auto Loader + SDP checkpoints
(/root/reference/transformations/pipelines/github/audit_logs/bronze_github_audit_logs.py:49,
utilities/utils.py:23-27; "SDP handles checkpointing"
_resources/PIPELINE_OVERVIEW.md:165): every maintenance/ingest job records,
per work unit (a compaction bin, a clustered partition, a merged partition,
an ingested input file), the input files, output files, row counts and stats
— atomically, BEFORE the commit — so a killed job resumes idempotently: a
re-run with the same deterministic ``job_id`` sees the unit record, verifies
the outputs exist, and skips the work.

Layout:  <table>/_lineage/<job_id>/<unit_id>.json   (atomic tmp+rename)
         <table>/_lineage/log/lineage-<snapshot>.parquet   (committed log)
"""

from __future__ import annotations

import hashlib
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq

LINEAGE_DIR = "_lineage"

LOG_SCHEMA = pa.schema(
    [
        ("snapshot_id", pa.int64()),
        ("job_id", pa.string()),
        ("unit_id", pa.string()),
        ("partition", pa.string()),
        ("input_files", pa.list_(pa.string())),
        ("output_files", pa.list_(pa.string())),
        ("input_rows", pa.int64()),
        ("output_rows", pa.int64()),
    ]
)


def unit_id(inputs: list[str], params: str = "") -> str:
    h = hashlib.blake2b(digest_size=12)
    for p in sorted(inputs):
        h.update(p.encode())
        h.update(b"\x00")
    h.update(params.encode())
    return h.hexdigest()


def job_id_for(op: str, parent_snapshot: int | None, params: str = "") -> str:
    """Deterministic job id: a resumed run of the same op on the same parent
    snapshot computes the same id and finds its prior unit records."""
    return f"{op}-{parent_snapshot if parent_snapshot is not None else 'init'}" + (
        f"-{hashlib.blake2b(params.encode(), digest_size=6).hexdigest()}" if params else ""
    )


def _jdir(table_dir: str, job_id: str) -> str:
    return os.path.join(table_dir, LINEAGE_DIR, job_id)


def save_unit(table_dir: str, job_id: str, uid: str, record: dict) -> None:
    d = _jdir(table_dir, job_id)
    os.makedirs(d, exist_ok=True)
    final = os.path.join(d, f"{uid}.json")
    tmp = final + f".tmp.{os.getpid()}.{time.monotonic_ns()}"
    with open(tmp, "w") as f:
        json.dump(record, f, sort_keys=True)
    os.replace(tmp, final)


def load_unit(table_dir: str, job_id: str, uid: str) -> dict | None:
    """Unit record if present AND all its output files still exist."""
    p = os.path.join(_jdir(table_dir, job_id), f"{uid}.json")
    try:
        with open(p) as f:
            rec = json.load(f)
    except FileNotFoundError:
        return None
    for e in rec.get("entries", []) + rec.get("changes", []):
        if not os.path.exists(os.path.join(table_dir, e["path"])):
            return None
    return rec


def finalize_job(table_dir: str, job_id: str, snapshot_id: int) -> None:
    """Compile the job's unit records into the committed lineage log."""
    d = _jdir(table_dir, job_id)
    rows = {k: [] for k in LOG_SCHEMA.names}
    if os.path.isdir(d):
        for f in sorted(os.listdir(d)):
            if not f.endswith(".json"):
                continue
            with open(os.path.join(d, f)) as fh:
                rec = json.load(fh)
            rows["snapshot_id"].append(snapshot_id)
            rows["job_id"].append(job_id)
            rows["unit_id"].append(f[:-5])
            rows["partition"].append(rec.get("partition", ""))
            rows["input_files"].append(rec.get("inputs", []))
            rows["output_files"].append([e["path"] for e in rec.get("entries", [])])
            rows["input_rows"].append(int(rec.get("input_rows", 0)))
            rows["output_rows"].append(int(sum(e["rows"] for e in rec.get("entries", []))))
    log_dir = os.path.join(table_dir, LINEAGE_DIR, "log")
    os.makedirs(log_dir, exist_ok=True)
    out = os.path.join(log_dir, f"lineage-{snapshot_id:08d}-{job_id}.parquet")
    tmp = out + f".tmp.{os.getpid()}"
    pq.write_table(pa.table(rows, schema=LOG_SCHEMA), tmp, compression="zstd")
    os.replace(tmp, out)


def read_log(table_dir: str) -> pa.Table:
    log_dir = os.path.join(table_dir, LINEAGE_DIR, "log")
    if not os.path.isdir(log_dir):
        return LOG_SCHEMA.empty_table()
    files = [os.path.join(log_dir, f) for f in sorted(os.listdir(log_dir)) if f.endswith(".parquet")]
    if not files:
        return LOG_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(f) for f in files])
