"""Incremental JSONL file source — the Auto Loader analog (operator S1/S2).

Reference: ``spark.readStream.format("cloudFiles")`` with
``cloudFiles.format=json``, ``singleVariantColumn=data``, exactly-once via a
checkpoint/schema location (/root/reference/transformations/pipelines/github/
audit_logs/bronze_github_audit_logs.py:43-50; paths utilities/utils.py:29-39).

A directory of JSONL files is an upstream of the engine's one append-flow
runner (pipelines/builder.py), which needs two operations of it: list its
files (``list_files``) and read one file's lines (``read_lines``).
``ingest_jsonl`` runs one flow per (table, directory) target in one runner
call. Exactly-once is the runner's, at file granularity: the consumed input
files go through the sink's input ledger (state/lineage.py) — recorded
ATOMICALLY WITH the append commit in its snapshot extras, mirrored into the
lineage log, read back as the union of both — so a crash before the commit
re-reads the new files (the append never became visible) and a crash after
it re-reads nothing. A 100 TB deployment lists object-store prefixes the
same way — listing cost is per-ingest-cycle, not per-file-read.
"""

from __future__ import annotations

import glob
import os

import pyarrow as pa

from ..table import Table


def list_files(source_dir: str) -> list[dict]:
    """The ``*.jsonl`` files under ``source_dir`` as the runner's upstream
    listing: ``{path, partition, bytes}``, all in partition ``""``."""
    paths = sorted(glob.glob(os.path.join(source_dir, "*.jsonl")))
    return [{"path": p, "partition": "", "bytes": os.path.getsize(p)} for p in paths]


def read_lines(path: str) -> pa.Table:
    """One JSONL file's records: ``text``, one UTF-8 line each, and
    ``path`` (the reference's ``_metadata.file_path``,
    bronze_github_audit_logs.py:26). Lines end at ``\\n`` only (JSON Lines)
    with one trailing ``\\r`` dropped — ``str.splitlines`` also breaks at
    U+0085, U+2028 and U+2029, which JSON allows raw inside strings — and
    whitespace-only lines are skipped."""
    with open(path, "rb") as f:
        lines = f.read().decode("utf-8").split("\n")
    text = pa.array([s for s in (ln.removesuffix("\r") for ln in lines) if s.strip()], pa.string())
    return pa.table({"text": text, "path": pa.array([path] * len(text), pa.string())})


def ingest_jsonl(targets: list[tuple[Table, str, object]]) -> list[tuple[int | None, list[str]]]:
    """Append the new JSONL files of each ``(table, source_dir, transform)``
    target through ``transform`` (a batch callable, e.g.
    functions.meta.BronzeMeta) to ``table``, all targets in one runner
    call; a target's flow is tagged ``ingest-<basename of source_dir>``,
    and the runner takes each tag once per call, so the source directories'
    basenames must be distinct within one call. Returns ``(snapshot_id |
    None, new_files)`` per target."""
    from ..pipelines.builder import Flow, run_flows

    flows = [
        Flow(f"ingest-{os.path.basename(os.path.normpath(d))}", d, table, [fn])
        for table, d, fn in targets
    ]
    out = run_flows(flows)
    return [out[f.tag] for f in flows]
