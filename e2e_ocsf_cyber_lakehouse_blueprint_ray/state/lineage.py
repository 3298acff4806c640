"""Per-partition / per-unit lineage checkpointing.

Analog of the reference's Auto Loader + SDP checkpoints
(/root/reference/transformations/pipelines/github/audit_logs/bronze_github_audit_logs.py:49,
utilities/utils.py:23-27; "SDP handles checkpointing"
_resources/PIPELINE_OVERVIEW.md:165): every maintenance/ingest job records,
per work unit (a compaction bin, a clustered partition, a merged partition,
an ingested input file), the input files and the output files' manifest
entries (rows, bytes, stats) — atomically, BEFORE the commit — so a killed
job resumes idempotently: a re-run with the same deterministic ``job_id``
sees the unit record, verifies the outputs exist, and skips the work.

Layout:  <table>/_lineage/<job_id>/<unit_id>.arrow  (atomic tmp+rename):
             the unit's output entries (manifest ENTRY_SCHEMA, data and
             change files) as an Arrow IPC file, the rest of the record as
             JSON in its schema metadata
         <table>/_lineage/<job_id>/runs/   a cluster job's staging run
             files (stages/cluster.py)
         <table>/_lineage/log/lineage-<snapshot>.parquet   (committed log)

A job's dir lives only until its commit: ``finalize_job`` copies the unit
records into the log and then deletes the dir, runs included.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import manifest
from .manifest import CHANGE_DIR, ENTRY_SCHEMA

LINEAGE_DIR = "_lineage"
_UNIT = ".arrow"
_RECORD = b"lineage.record"

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


def runs_dir(job_id: str) -> str:
    """Table-relative dir of a job's staging run files."""
    return os.path.join(LINEAGE_DIR, job_id, "runs")


def save_unit(
    table_dir: str, job_id: str, uid: str, record: dict, entries: pa.Table | None = None
) -> None:
    """Write a unit record: ``record`` (partition, inputs, input_rows) plus
    the unit's output manifest ``entries``."""
    d = _jdir(table_dir, job_id)
    os.makedirs(d, exist_ok=True)
    t = entries if entries is not None else ENTRY_SCHEMA.empty_table()
    t = t.replace_schema_metadata({_RECORD: json.dumps(record, sort_keys=True)})
    final = os.path.join(d, uid + _UNIT)
    tmp = final + f".tmp.{os.getpid()}.{time.monotonic_ns()}"
    with pa.OSFile(tmp, "wb") as sink, pa.ipc.new_file(sink, t.schema) as w:
        w.write_table(t)
    os.replace(tmp, final)


def _read_unit(path: str) -> tuple[dict, pa.Table]:
    with pa.OSFile(path, "rb") as src:
        t = pa.ipc.open_file(src).read_all()
    return json.loads(t.schema.metadata[_RECORD]), t.replace_schema_metadata(None)


def _unit_paths(table_dir: str, job_id: str) -> list[str]:
    d = _jdir(table_dir, job_id)
    names = sorted(os.listdir(d)) if os.path.isdir(d) else []
    return [os.path.join(d, f) for f in names if f.endswith(_UNIT)]


def units_done(table_dir: str, job_id: str) -> int:
    """How many of the job's units have a durable record."""
    return len(_unit_paths(table_dir, job_id))


def load_unit(table_dir: str, job_id: str, uid: str) -> pa.Table | None:
    """A unit's output entries if its record is present AND all its output
    files still exist."""
    try:
        _, ents = _read_unit(os.path.join(_jdir(table_dir, job_id), uid + _UNIT))
    except FileNotFoundError:
        return None
    if all(os.path.exists(os.path.join(table_dir, p)) for p in ents["path"].to_pylist()):
        return ents
    return None


def finalize_job(table_dir: str, job_id: str, snapshot_id: int) -> None:
    """Compile the job's unit records into the committed lineage log, then
    delete the job's dir: the log now holds what a resume would need. A
    crash between the two leaves a dir that ``expire.remove_orphans``
    deletes."""
    rows = {k: [] for k in LOG_SCHEMA.names}
    for path in _unit_paths(table_dir, job_id):
        rec, ents = _read_unit(path)
        data = ents.filter(pc.invert(pc.starts_with(ents["path"], CHANGE_DIR + "/")))
        rows["snapshot_id"].append(snapshot_id)
        rows["job_id"].append(job_id)
        rows["unit_id"].append(os.path.basename(path)[: -len(_UNIT)])
        rows["partition"].append(rec.get("partition", ""))
        rows["input_files"].append(rec.get("inputs", []))
        rows["output_files"].append(data["path"].to_pylist())
        rows["input_rows"].append(int(rec.get("input_rows", 0)))
        rows["output_rows"].append(int(pc.sum(data["rows"]).as_py() or 0))
    log = pa.table(rows, schema=LOG_SCHEMA)
    _write_log(table_dir, f"lineage-{snapshot_id:08d}-{job_id}.parquet", log)
    shutil.rmtree(_jdir(table_dir, job_id), ignore_errors=True)


def _write_log(table_dir: str, name: str, log: pa.Table) -> None:
    log_dir = os.path.join(table_dir, LINEAGE_DIR, "log")
    os.makedirs(log_dir, exist_ok=True)
    out = os.path.join(log_dir, name)
    tmp = out + f".tmp.{os.getpid()}"
    pq.write_table(log, tmp, compression="zstd")
    os.replace(tmp, out)


def read_log(table_dir: str) -> pa.Table:
    log_dir = os.path.join(table_dir, LINEAGE_DIR, "log")
    if not os.path.isdir(log_dir):
        return LOG_SCHEMA.empty_table()
    files = [os.path.join(log_dir, f) for f in sorted(os.listdir(log_dir)) if f.endswith(".parquet")]
    if not files:
        return LOG_SCHEMA.empty_table()
    return pa.concat_tables([pq.read_table(f) for f in files])


# -- exactly-once input ledger -------------------------------------------------
#
# An input-consuming op (an append flow, pipelines/builder.py) names the
# files it consumed in its commit's snapshot extras — atomic with the data
# becoming visible — and mirrors them into the lineage log right after. The reader
# unions both, so there is no crash window in either direction: crash before
# the commit ⇒ nothing consumed; crash between commit and lineage write ⇒
# the snapshot already names the files.

#: snapshot-extras key of an input-consuming commit: JSON ``{op: [files]}``
INPUTS_EXTRA = "inputs"


def inputs_extra(inputs_by_op: dict) -> dict:
    """The commit ``extra`` recording that one commit consumes, for each op
    in ``inputs_by_op``, that op's inputs."""
    by_op = {op: sorted(files) for op, files in sorted(inputs_by_op.items())}
    return {INPUTS_EXTRA: json.dumps(by_op)}


def record_inputs(table_dir: str, parent: int | None, snapshot_id: int, inputs_by_op: dict) -> None:
    """Mirror one commit's consumed inputs into one lineage log file: a row
    per op, under the op's ``job_id_for`` id."""
    rows = [
        dict(snapshot_id=snapshot_id, job_id=job_id_for(op, parent, "|".join(files)),
             unit_id=unit_id(files), partition="", input_files=list(files), output_files=[],
             input_rows=0, output_rows=0)
        for op, files in sorted(inputs_by_op.items())
    ]
    log = pa.Table.from_pylist(rows, schema=LOG_SCHEMA)
    _write_log(table_dir, f"lineage-{snapshot_id:08d}-inputs.parquet", log)


def consumed_inputs(table_dir: str, ops) -> dict[str, set[str]]:
    """``{op: every file an op commit consumed}`` from one pass over the
    lineage log: each op's logged jobs, plus the extras of snapshots
    committed after that op's newest logged one."""
    log = read_log(table_dir)
    out: dict[str, set[str]] = {op: set() for op in ops}
    max_logged = dict.fromkeys(out, -1)
    for files, job, snap in zip(
        log["input_files"].to_pylist(), log["job_id"].to_pylist(), log["snapshot_id"].to_pylist()
    ):
        op = job.rsplit("-", 2)[0]  # job_id_for(op, parent, params)
        if op in out:
            out[op].update(files)
            max_logged[op] = max(max_logged[op], int(snap))
    since = min(max_logged.values(), default=-1)
    for sid in manifest.list_snapshot_ids(table_dir):
        if sid > since:
            raw = manifest.snapshot_extra(table_dir, sid).get(INPUTS_EXTRA)
            for op, files in json.loads(raw).items() if raw else ():
                if op in out and sid > max_logged[op]:
                    out[op].update(files)
    return out
