"""Z-order / Hilbert clustering job — the engine's liquid clustering.

Reference analog: ``cluster_by=["_event_date"]`` on bronze/silver
(/root/reference/transformations/pipelines/github/audit_logs/
bronze_github_audit_logs.py:32) and ``ALTER TABLE ... CLUSTER BY (time)`` on
the six gold tables (utilities/post_setup_ocsf_tables.py:40-53). Our key is
the bit-interleave of (high bits of hash64(conv_id), ts-bucket) with a
Hilbert-curve fallback (hashing.curve_key) so scans filtering on either
conv_id or time ranges prune files via manifest min/max stats.

Two execution modes:

``mode="global"`` — ONE Ray Data pipeline over every live file:
    read → map_batches(add _part,_zkey) → sort(["_part","_zkey"]) →
    actor-pool writer (split each sorted batch at partition boundaries,
    write target-size files, emit manifest entries) → single commit.
    The sort is Ray's range-partitioned shuffle: this is the op's intended
    scale path (spills via the object store; skewed hot conv_ids are fine
    because their rows spread across ts-buckets of the curve).

``mode="partition"`` — one bin per table partition, rewritten independently
    on the actor pool with an in-memory zkey sort; per-partition lineage →
    mid-job crash resume. Right choice when partitions are modest and
    resumability matters more than cross-partition pipelining.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..hashing import curve_key, hash64_column
from ..state import lineage, manifest
from ..state.manifest import ENTRY_SCHEMA
from ..table import Table
from . import rewrite


def _part_column(batch: pa.Table, spec: str, h: np.ndarray | None = None) -> pa.Array:
    """Per-row ``_part`` routing column for ANY partition spec: int32 codes
    for ``hash:`` (fast range-sort key) / ``none`` (-1 = root dir), the
    partition NAME string for ``col:`` specs (codes are batch-local there —
    see table.spec_partition_codes). The sorted-batch writer dispatches on
    the column type."""
    from ..table import spec_partition_codes

    if spec.startswith("hash:"):
        n = int(spec.rsplit(":", 1)[1])
        if h is None:
            h = hash64_column(batch[spec.split(":")[1]])
        return pa.array((h % np.uint64(n)).astype(np.int32))
    if spec == "none":
        return pa.array(np.full(batch.num_rows, -1, np.int32))
    codes, names = spec_partition_codes(spec, batch)
    return pa.array(names[codes], pa.string())


def add_cluster_key(
    batch: pa.Table,
    *,
    config: EngineConfig,
    curve: str,
    spec: str,
    ts_range: tuple[int, int] | None = None,
) -> pa.Table:
    h = hash64_column(batch["conv_id"])
    zk = curve_key(
        h,
        batch["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False),
        bucket_s=config.zorder_ts_bucket_s,
        curve=curve,
        bits=config.curve_bits,
        ts_range=ts_range,
    )
    # reuse the conv_id hash only when the spec's column segment IS conv_id
    # (startswith would also match e.g. "hash:conv_id2:8" and mis-route rows)
    reuse = spec.startswith("hash:") and spec.split(":")[1] == "conv_id"
    part = _part_column(batch, spec, h if reuse else None)
    return batch.append_column("_part", part).append_column("_zkey", pa.array(zk))


def _stats_range(ents: pa.Table, col: str) -> tuple[int, int] | None:
    """Table-wide (min, max) of a numeric column from manifest stats — free
    (timestamps in their int unit)."""
    lo, hi, _ = manifest.col_bounds(ents, col)
    lo, hi = pc.min(lo).as_py(), pc.max(hi).as_py()
    return (int(lo), int(hi)) if lo is not None and hi is not None else None


def _write_sorted_batch(
    batch: pa.Table,
    *,
    table_dir: str,
    config: EngineConfig,
    bytes_per_row: float,
    stats_cols: list[str],
) -> pa.Table:
    """Write one sorted batch as data files, splitting at partition
    boundaries. A stateless task fn (no actor pool on the critical path);
    the upstream batch_size is already target-file-sized."""
    import uuid

    rewrite.limit_arrow_threads()
    table = Table(table_dir, config)
    rows_per_file = max(
        1,
        min(config.max_rows_per_file, int(config.target_file_bytes / max(1.0, bytes_per_row))),
    )
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
    bpr = total_bytes / max(1, total_rows)
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
    writer_rows = max(1, min(cfg.max_rows_per_file, int(cfg.target_file_bytes / max(1.0, bpr))))
    ent_ds = ds.map_batches(
        _write_sorted_batch,
        fn_kwargs=dict(table_dir=table.dir, config=cfg, bytes_per_row=bpr, stats_cols=stats_cols),
        batch_format="pyarrow",
        batch_size=writer_rows,
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
    mode: str = "auto",
    curve: str | None = None,
    key_col: str | None = None,
    ts_col: str | None = None,
    concurrency: int | None = None,
    use_actor: bool = False,
    fail_after: int | None = None,
) -> int | None:
    cfg = table.config
    curve = curve or cfg.curve
    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    if ents.num_rows == 0:
        return None
    removed = ents["path"].to_pylist()
    sch = meta["schema"]
    stats_cols = manifest.stats_cols(meta)
    names = set(sch.names) if sch is not None else set()
    if ts_col is None:
        ts_col = next((c for c in ("ts", "time", "_event_time") if c in names), "ts")
    if key_col is None:
        key_col = "conv_id" if "conv_id" in names else ""
    # no key column ⇒ clustering degenerates to a pure time sort per
    # partition — the reference's gold-table ``CLUSTER BY (time)``
    # (post_setup_ocsf_tables.py:44)

    if mode == "auto":
        part_bytes = ents.group_by("partition").aggregate([("bytes", "sum")])["bytes_sum"]
        mode = (
            "partition"
            if pc.max(part_bytes).as_py() <= cfg.partition_sort_max_bytes
            else "global"
        )
    job_id = lineage.job_id_for(f"cluster-{curve}-{mode}", parent)

    if mode == "partition":
        added = rewrite.run_bins(
            table,
            plan_partition_bins(ents),
            job_id,
            concurrency=concurrency,
            schema=sch,
            stats_cols=stats_cols,
            sort_mode="zorder",
            curve=curve,
            cluster_key_col=key_col or "__missing__",
            cluster_ts_col=ts_col,
            fail_after=fail_after,
        )
    elif mode == "global":
        if not key_col or key_col not in names:
            raise ValueError(
                "global cluster mode needs the hash key column "
                "(conv_id); key-less tables cluster per partition"
            )
        added = _global_sort_write(
            table,
            parent,
            ents,
            stats_cols,
            functools.partial(
                add_cluster_key,
                config=cfg,
                curve=curve,
                spec=meta["partition_spec"],
                ts_range=_stats_range(ents, "ts"),
            ),
            concurrency,
        )
    else:
        raise ValueError(f"unknown mode {mode!r}")

    return table.commit(
        added=added,
        removed=removed,
        operation=f"cluster-{curve}",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        changes=[],  # content-preserving: no row changed
    )


def cluster_by_columns(
    table: Table,
    cols: list[str],
    *,
    concurrency: int | None = None,
    use_actor: bool = False,
) -> int | None:
    """Generalized liquid clustering: Z-order on ANY column set (the
    ``ALTER TABLE ... CLUSTER BY (c1, c2, ...)`` analog beyond the built-in
    (conv_id, ts) pair). Per column coordinate: numeric/timestamp columns
    min-max normalize onto 2^bits using manifest stats (free), string
    columns use hash64 high bits; coordinates interleave via
    ``hashing.morton_nd`` with 64 // ndim bits each. Execution is the same
    global pipeline as ``cluster(mode="global")``: one range-shuffle sort
    on (_part, _zkey), target-size file writer, single commit."""
    from ..hashing import morton_nd

    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    if ents.num_rows == 0 or not cols:
        return None
    removed = ents["path"].to_pylist()
    sch = meta["schema"]
    for c in cols:
        if c not in sch.names:
            raise ValueError(f"unknown cluster column {c!r}")
    # 63, not 64: the sort key rides as int64 and must stay non-negative
    bits = 63 // len(cols)
    ranges = {
        c: _stats_range(ents, c) for c in cols if not pa.types.is_string(sch.field(c).type)
    }
    spec = meta["partition_spec"]

    def add_key(batch: pa.Table) -> pa.Table:
        mask = (np.uint64(1) << np.uint64(bits)) - np.uint64(1)
        coords = []
        for c in cols:
            col = batch[c]
            if pa.types.is_string(col.type):
                coords.append((hash64_column(col) >> np.uint64(64 - bits)) & mask)
                continue
            v = col.cast(pa.int64()).to_numpy(zero_copy_only=False).astype(np.float64)
            rng = ranges.get(c)
            if rng and rng[1] > rng[0]:
                scaled = (v - rng[0]) * (float(int(mask)) / float(rng[1] - rng[0]))
                coords.append(np.clip(scaled, 0, float(int(mask))).astype(np.uint64))
            else:
                coords.append(np.zeros(batch.num_rows, np.uint64))
        zk = morton_nd(coords, bits)
        # route by the table's ACTUAL spec (hash:/col:/none) so manifest
        # partition names keep matching it — a 'col:'-partitioned table
        # previously collapsed every row into partition '' here, breaking
        # partition-scoped scans and MERGE/DELETE routing afterwards
        part = _part_column(batch, spec)
        return batch.append_column("_part", part).append_column(
            "_zkey", pa.array(zk.astype(np.int64))
        )

    added = _global_sort_write(
        table, parent, ents, manifest.stats_cols(meta), add_key, concurrency
    )
    return table.commit(
        added=added,
        removed=removed,
        operation=f"cluster-by-{'-'.join(cols)}",
        expected_parent=parent,
        use_actor=use_actor,
        changes=[],  # content-preserving: no row changed
    )
