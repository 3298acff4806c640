"""Z-order / Hilbert clustering job — the engine's liquid clustering.

Reference analog: ``cluster_by=["_event_date"]`` on bronze/silver
(/root/reference/transformations/pipelines/github/audit_logs/
bronze_github_audit_logs.py:32) and ``ALTER TABLE ... CLUSTER BY (time)`` on
the six gold tables (utilities/post_setup_ocsf_tables.py:40-53). One key,
``cluster_key``, serves every table and every mode: the
bit-interleave of one coordinate per clustering column — the high bits of
hash64 for a string column, the table-wide min-max normalized value for a
number or timestamp — on a Z-order curve, or a Hilbert curve for two
columns. The default columns are (conv_id, ts), so scans filtering on either
conv_id or time ranges prune files via manifest min/max stats; a key-less
table clusters by its time column alone. Column ranges come from manifest
stats, never from the rows a task holds, so every task builds the same key.

One rewrite path, ``rewrite.run_bins``: every partition becomes k key-range
sub-bins, each sorted in one task by ``BinRewriter(cluster_key=)``, with
per-unit lineage for a mid-job crash resume.

- k = 1 (``mode="partition"``, and ``mode="auto"`` for a partition whose
  on-disk bytes fit under ``partition_sort_max_bytes``): the partition's
  files are one bin, sorted whole.
- k > 1 (``mode="auto"``: k = ceil(bytes / cap); ``mode="global"``: at
  least 2): k - 1 boundaries are quantiles of the key over a fixed-stride
  row sample of the partition's files, read in path order. Scatter units
  (byte-capped groups of the partition's files) write each row to a staging
  run file of its range, ``_lineage/<job>/runs/<partition>/r<range>/``;
  each range's run files are then one sub-bin. This is a bounded fan-out,
  two-stage repartition with no object-store shuffle, and the same input
  always writes the same files. The runs live in the job's lineage dir,
  which its commit deletes (``lineage.finalize_job``).
"""

from __future__ import annotations

import functools
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..hashing import hash64_column, hilbert_xy2d, morton2, morton_nd
from ..state import lineage, manifest
from ..table import Table, align_to, read_file
from . import rewrite

#: the time column a default key uses: the first of these the table has
_TIME_COLS = ("ts", "time", "_event_time")


def _stats_range(ents: pa.Table, col: str) -> tuple[int, int] | None:
    """Table-wide (min, max) of a numeric column from manifest stats — free
    (timestamps in their int unit)."""
    lo, hi, _ = manifest.col_bounds(ents, col)
    lo, hi = pc.min(lo).as_py(), pc.max(hi).as_py()
    return (int(lo), int(hi)) if lo is not None and hi is not None else None


def _is_text(typ: pa.DataType) -> bool:
    return pa.types.is_string(typ) or pa.types.is_large_string(typ)


def default_cols(names) -> list[str]:
    """conv_id plus the table's time column; a key-less table clusters by
    time alone — the reference's gold-table ``CLUSTER BY (time)``
    (post_setup_ocsf_tables.py:44)."""
    key = ["conv_id"] if "conv_id" in names else []
    return key + [c for c in _TIME_COLS if c in names][:1]


def cluster_key(
    batch: pa.Table, cols: list[str], ranges: dict, curve: str = "zorder"
) -> np.ndarray:
    """Clustering key of each row of ``batch`` as a non-negative int64.

    One coordinate per column of ``cols``, 63 // len(cols) bits wide: the
    high bits of hash64 for a string column; for a number or timestamp
    column the value min-max normalized over ``ranges[col]`` (the
    table-wide manifest bounds — a time column is cut into 2^bits buckets
    over the table's time range), or 0 when the column has no bounds. Two
    coordinates interleave with ``morton2`` (zorder) or ``hilbert_xy2d``;
    three or more with ``morton_nd`` (zorder only).
    """
    bits = 63 // len(cols)
    mask = (np.uint64(1) << np.uint64(bits)) - np.uint64(1)
    top = float(int(mask))
    coords = []
    for c in cols:
        col = batch[c]
        rng = ranges.get(c)
        if _is_text(col.type):
            coords.append(hash64_column(col) >> np.uint64(64 - bits))
        elif rng is None or rng[1] <= rng[0]:
            coords.append(np.zeros(batch.num_rows, np.uint64))
        else:
            lo, hi = rng
            v = col if pa.types.is_floating(col.type) else col.cast(pa.int64())
            v = pc.fill_null(v, lo).to_numpy(zero_copy_only=False).astype(np.float64)
            scaled = np.clip((v - lo) * (top / (hi - lo)), 0.0, top)
            # float(mask) rounds up to 2^63 for one 63-bit coordinate
            coords.append(np.minimum(scaled.astype(np.uint64), mask))
    if len(coords) == 1:
        key = coords[0]
    elif curve == "zorder":
        key = morton2(*coords) if len(coords) == 2 else morton_nd(coords, bits)
    elif curve == "hilbert" and len(coords) == 2:
        key = hilbert_xy2d(bits, *coords)
    else:
        raise ValueError(f"curve {curve!r} cannot cluster {len(cols)} columns")
    return key.astype(np.int64)


#: sample rows per key range when a partition is cut into ranges: the
#: driver keys the sample, ~2 s for 1024 per range at sf1 with k = 2
_SAMPLE_PER_RANGE = 256


def _num_ranges(mode: str, nbytes: int, cap: int) -> int:
    """k, the key ranges a partition of ``nbytes`` on-disk bytes is cut
    into: 1 in partition mode, enough to bring each range under ``cap`` in
    auto mode, and at least 2 in global mode."""
    if mode not in ("auto", "partition", "global"):
        raise ValueError(f"unknown mode {mode!r}")
    return 1 if mode == "partition" else max(-(-nbytes // cap), 2 if mode == "global" else 1)


def _range_bounds(
    table_dir: str, files: list[tuple[str, list]], rows: int, k: int, target: pa.Schema, key
) -> list[int]:
    """The k - 1 key boundaries that cut a partition of ``rows`` live rows
    into k ranges of about equal rows: quantiles of the cluster key over a
    fixed-stride sample of the live rows of its ``files`` ((path, deleted
    positions), in path order), read from the cluster columns (``target``)
    only; the same input cuts at the same keys."""
    stride = max(1, rows // (k * _SAMPLE_PER_RANGE))
    picks, off = [], 0
    for p, deleted in files:
        t = align_to(read_file(os.path.join(table_dir, p), target.names, deleted), target)
        picks.append(t.take(pa.array(np.arange(-off % stride, t.num_rows, stride))))
        off += t.num_rows
    keys = np.sort(key(pa.concat_tables(picks)))
    return [int(keys[i * len(keys) // k]) for i in range(1, k)]


def _range_bins(runs: pa.Table, per_row: dict[str, float]) -> list[dict]:
    """One sub-bin per non-empty (partition, key range): its run files,
    sorted by path. A run counts its partition's bytes ``per_row``, so a
    range cuts its files at the partition's rows per file, and k ranges
    write at most k - 1 more files than the whole partition would."""
    by_path: dict[str, dict] = {}
    groups: dict[str, list[str]] = {}
    for r in runs.select(["path", "partition", "rows"]).to_pylist():
        by_path[r["path"]] = dict(r, bytes=r["rows"] * per_row[r["partition"]])
        groups.setdefault(os.path.dirname(r["path"]), []).append(r["path"])
    return [
        rewrite.make_bin(sorted(fs), by_path[fs[0]]["partition"], by_path)
        for _, fs in sorted(groups.items())
    ]


def cluster(
    table: Table,
    *,
    cols: list[str] | None = None,
    mode: str = "auto",
    curve: str = "zorder",
    concurrency: int | None = None,
    use_actor: bool = False,
    fail_after: int | None = None,
) -> int | None:
    """Cluster the table on ``cols`` (default: ``default_cols``) — the
    ``ALTER TABLE ... CLUSTER BY (c1, c2, ...)`` analog — and commit the
    rewritten files as one content-preserving snapshot."""
    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    if ents.num_rows == 0:
        return None
    sch = meta["schema"]
    cols = list(cols) if cols else default_cols(sch.names)
    if not cols:
        raise ValueError("no clustering columns: pass cols=")
    for c in cols:
        if c not in sch.names:
            raise ValueError(f"unknown cluster column {c!r}")
    if curve not in ("zorder", "hilbert"):
        raise ValueError(f"unknown curve {curve!r}")
    ranges = {c: _stats_range(ents, c) for c in cols if not _is_text(sch.field(c).type)}
    key = functools.partial(cluster_key, cols=cols, ranges=ranges, curve=curve)

    cap = table.config.partition_sort_max_bytes
    by_path = rewrite.entries_by_path(ents)
    parts: dict[str, list[str]] = {}
    for r in by_path.values():
        parts.setdefault(r["partition"], []).append(r["path"])
    size = {p: [sum(by_path[f][c] for f in fs) for c in ("rows", "bytes")] for p, fs in parts.items()}
    split = {p: k for p in sorted(parts) if (k := _num_ranges(mode, size[p][1], cap)) > 1}
    # an unsplit plan keeps the per-partition job id; a split plan names its ks
    job_id = lineage.job_id_for(
        f"cluster-{curve}-{'ranges' if split else 'partition'}",
        parent,
        ",".join(cols) + (f"|{json.dumps(split)}" if split else ""),
    )
    kw = dict(concurrency=concurrency, schema=sch, stats_cols=manifest.stats_cols(meta))
    kw.update(cluster_key=key, fail_after=fail_after)
    bins = [
        rewrite.make_bin(sorted(fs), p, by_path) for p, fs in sorted(parts.items()) if p not in split
    ]
    if split:
        target = pa.schema([sch.field(c) for c in cols])
        scatter = []
        for p, k in split.items():
            files = [(f, by_path[f]["deleted"]) for f in sorted(parts[p])]
            bounds = json.dumps(_range_bounds(table.dir, files, size[p][0], k, target, key))
            scatter += [
                dict(rewrite.make_bin(g, p, by_path, bounds), bounds_json=bounds)
                for g in rewrite.pack_bins(parts[p], by_path, cap)
            ]
        runs = rewrite.run_bins(table, scatter, job_id, **kw)
        bins += _range_bins(runs, {p: b / max(1, r) for p, (r, b) in size.items()})
    added = rewrite.run_bins(table, bins, job_id, **kw)

    sid = table.commit(
        added=added,
        removed=ents["path"].to_pylist(),
        operation=f"cluster-{curve}",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        changes=[],  # content-preserving: no row changed
    )
    return sid
