"""Z-order / Hilbert clustering job — the engine's liquid clustering.

Reference analog: ``cluster_by=["_event_date"]`` on bronze/silver
(/root/reference/transformations/pipelines/github/audit_logs/
bronze_github_audit_logs.py:32) and ``ALTER TABLE ... CLUSTER BY (time)`` on
the six gold tables (utilities/post_setup_ocsf_tables.py:40-53). One key,
``cluster_key``, serves every table and both execution modes: the
bit-interleave of one coordinate per clustering column — the high bits of
hash64 for a string column, the table-wide min-max normalized value for a
number or timestamp — on a Z-order curve, or a Hilbert curve for two
columns. The default columns are (conv_id, ts), so scans filtering on either
conv_id or time ranges prune files via manifest min/max stats; a key-less
table clusters by its time column alone. Column ranges come from manifest
stats, never from the rows a task holds, so both modes build the same key.

Two execution modes:

``mode="global"`` — ONE Ray Data pipeline over every live file:
    read → map_batches(add _part,_zkey) → sort(["_part","_zkey"]) →
    stateless writer tasks (split each sorted batch at partition
    boundaries, write target-size files, emit manifest entries) → single
    commit. The sort is Ray's range-partitioned shuffle: the path for a
    partition too large to sort in one task (spills via the object store;
    skewed hot conv_ids are fine because their rows spread across
    ts-buckets of the curve).

``mode="partition"`` — one bin per table partition, rewritten independently
    as a task with an in-memory key sort; per-partition lineage → mid-job
    crash resume. ``mode="auto"`` picks it when every partition's on-disk
    bytes fit under ``partition_sort_max_bytes``.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..hashing import hash64_column, hilbert_xy2d, morton2, morton_nd
from ..state import lineage, manifest
from ..state.manifest import ENTRY_SCHEMA
from ..table import Table
from . import rewrite

#: the time column a default key uses: the first of these the table has
_TIME_COLS = ("ts", "time", "_event_time")


def _part_column(batch: pa.Table, spec: str) -> pa.Array:
    """Per-row ``_part`` routing column for ANY partition spec: int32 codes
    for ``hash:`` (fast range-sort key) / ``none`` (-1 = root dir), the
    partition NAME string for ``col:`` specs (codes are batch-local there —
    see table.spec_partition_codes). The sorted-batch writer dispatches on
    the column type."""
    from ..table import spec_partition_codes

    if spec.startswith("hash:"):
        n = int(spec.rsplit(":", 1)[1])
        h = hash64_column(batch[spec.split(":")[1]])
        return pa.array((h % np.uint64(n)).astype(np.int32))
    if spec == "none":
        return pa.array(np.full(batch.num_rows, -1, np.int32))
    codes, names = spec_partition_codes(spec, batch)
    return pa.array(names[codes], pa.string())


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


def _add_key(batch: pa.Table, *, key, spec: str) -> pa.Table:
    """Global-mode routing and sort columns: ``_part`` by the table's spec
    (hash:/col:/none, so manifest partition names keep matching it) and
    ``_zkey``."""
    return batch.append_column("_part", _part_column(batch, spec)).append_column(
        "_zkey", pa.array(key(batch))
    )


def _write_sorted_batch(
    batch: pa.Table,
    *,
    table_dir: str,
    config: EngineConfig,
    rows_per_file: int,
    stats_cols: list[str],
) -> pa.Table:
    """Write one sorted batch as data files, splitting at partition
    boundaries. A stateless task fn; the upstream batch_size is already
    target-file-sized."""
    import uuid

    rewrite.limit_arrow_threads()
    table = Table(table_dir, config)
    wid = uuid.uuid4().hex[:10]
    seq = 0
    entries = []
    part_is_name = pa.types.is_string(batch.schema.field("_part").type)
    parts = batch["_part"].to_numpy(zero_copy_only=False)
    data = batch.drop_columns(["_part", "_zkey"])
    bounds = np.flatnonzero(np.r_[True, parts[1:] != parts[:-1]])
    for i, b in enumerate(bounds):
        e = bounds[i + 1] if i + 1 < len(bounds) else len(parts)
        chunk = data.slice(b, e - b)
        if part_is_name:  # "col:" specs route by partition NAME string
            pdir = str(parts[b])
        else:
            pdir = "" if parts[b] < 0 else f"part-{int(parts[b])}"  # -1: spec "none"
        for off in range(0, chunk.num_rows, rows_per_file):
            sl = chunk.slice(off, rows_per_file)
            name = f"z-{wid}-{seq:06d}.parquet"
            seq += 1
            entries.append(table.write_file(sl, pdir, name, stats_cols))
    if not entries:
        return ENTRY_SCHEMA.empty_table()
    return pa.Table.from_pylist(entries, schema=ENTRY_SCHEMA)


def _global_sort_write(
    table: Table,
    parent: int,
    ents: pa.Table,
    stats_cols: list[str],
    add_key,
    concurrency: int | None,
) -> pa.Table:
    """The global cluster pipeline: scan snapshot ``parent``, add
    ``_part``/``_zkey`` per whole block with ``add_key``, ONE range-shuffle
    sort on (_part, _zkey), then stateless writer tasks batched at target
    file size. Returns the manifest entries of the written files."""
    cfg = table.config
    total_rows = int(pc.sum(ents["rows"]).as_py() or 0)
    total_bytes = int(pc.sum(ents["bytes"]).as_py() or 0)
    conc = max(1, concurrency or cfg.rewrite_concurrency)
    # Size the sort's partition count from the data, not Ray's min-200-
    # blocks default: on a ~100 MB table that default makes 200+ 0.5 MB
    # blocks and the range shuffle becomes pure per-block overhead. One
    # block ≈ one uncompressed target file's worth keeps reduce tasks
    # meaningful at every scale (zstd ≈ 3× expansion estimate).
    n_blocks = max(conc, min(4096, -(-(total_bytes * 3) // cfg.target_file_bytes)))
    ds = table.scan(snapshot_id=parent, override_num_blocks=n_blocks)
    # whole-block batches: no rebatch copy before the shuffle
    ds = ds.map_batches(add_key, batch_format="pyarrow", batch_size=None)
    ds = ds.sort(["_part", "_zkey"])
    # batch the writer at target-file granularity so output files land
    # near target_file_bytes instead of one file per sorted block
    rpf = rewrite.rows_per_file(cfg, total_rows, total_bytes)
    ent_ds = ds.map_batches(
        _write_sorted_batch,
        fn_kwargs=dict(table_dir=table.dir, config=cfg, rows_per_file=rpf, stats_cols=stats_cols),
        batch_format="pyarrow",
        batch_size=rpf,
        concurrency=conc,
    )
    rows = ent_ds.take_all()  # manifest entries only — data stays distributed
    return pa.Table.from_pylist(rows, schema=ENTRY_SCHEMA) if rows else ENTRY_SCHEMA.empty_table()


def plan_partition_bins(ents: pa.Table) -> list[dict]:
    """One bin per table partition containing ALL its files — the unit of
    the shuffle-free cluster path (the whole partition is sorted in-task)."""
    cols = ["path", "partition", "rows", "bytes"]
    by_path = {r["path"]: r for r in ents.select(cols).to_pylist()}
    by_part: dict[str, list[str]] = {}
    for r in by_path.values():
        by_part.setdefault(r["partition"], []).append(r["path"])
    return [
        rewrite.make_bin(sorted(paths), part, by_path) for part, paths in sorted(by_part.items())
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
    cfg = table.config
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
    stats_cols = manifest.stats_cols(meta)

    if mode == "auto":
        part_bytes = ents.group_by("partition").aggregate([("bytes", "sum")])["bytes_sum"]
        mode = (
            "partition"
            if pc.max(part_bytes).as_py() <= cfg.partition_sort_max_bytes
            else "global"
        )
    job_id = lineage.job_id_for(f"cluster-{curve}-{mode}", parent, ",".join(cols))

    if mode == "partition":
        added = rewrite.run_bins(
            table,
            plan_partition_bins(ents),
            job_id,
            concurrency=concurrency,
            schema=sch,
            stats_cols=stats_cols,
            cluster_key=key,
            fail_after=fail_after,
        )
    elif mode == "global":
        add_key = functools.partial(_add_key, key=key, spec=meta["partition_spec"])
        added = _global_sort_write(table, parent, ents, stats_cols, add_key, concurrency)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return table.commit(
        added=added,
        removed=ents["path"].to_pylist(),
        operation=f"cluster-{curve}",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        changes=[],  # content-preserving: no row changed
    )
