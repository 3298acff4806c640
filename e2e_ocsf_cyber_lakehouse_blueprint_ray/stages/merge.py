"""Copy-on-write MERGE INTO.

The reference has NO joins ("No JOINs needed - it's one unified table!",
/root/reference/_resources/PIPELINE_OVERVIEW.md:311); its hook for selective
rewrite is the ``metadata.log_version`` convention + deletion-vector/DML
table flags (transformations/mappings/ocsf/iam/gold_github_audit_logs.py:36-37,47;
utilities/utils.py:90-95). This module supplies the real thing: MERGE INTO a
transcript table keyed on (conv_id, turn_idx) with upsert/delete semantics —

    survivors = target ANTI JOIN source-keys        (per touched file)
    result    = survivors ∪ source[op != 'delete']  (per partition, sorted)

Copy-on-write: only files whose manifest (conv_id min/max) stats overlap the
source keys of their partition are rewritten; untouched files carry over to
the new snapshot untouched. Each rewrite unit also writes a change file of
the rows it dropped and appended, which the commit's change record names for
the change feed (stages/changes.py).

Scale shape: the SOURCE side of a MERGE is small relative to the target
(edits/inserts, not the 10^12-row table), so it is split by the target's
partitioning on the driver and broadcast as one object-store ref per
partition; each rewrite task fetches only its own partitions' keys and
upserts and drops matched rows with an Acero hash left-anti join on
(conv_id, turn_idx). Sources above ``config.merge_broadcast_max_rows`` are
merged in conv_id-range chunks (``merge_chunked``), one commit each.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from ..state import lineage, manifest
from ..table import Table, split_by_partition
from . import rewrite


def _key_array(t: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        t["conv_id"], pc.cast(t["turn_idx"], pa.string()), "\x1f"
    ).combine_chunks()


def _source_hash(source: pa.Table) -> str:
    """Deterministic digest of the source key set — hashes the Arrow key
    array's raw buffers (C-level) instead of a per-row Python loop."""
    keys = _key_array(source)
    # IPC-serialize to get a layout-normalized byte image (value-stable even
    # when the source is a slice sharing offset buffers)
    t = pa.table({"k": keys})
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return hashlib.blake2b(sink.getvalue(), digest_size=8).hexdigest()


def _key_table(keys: pa.Table, schema: pa.Schema) -> pa.Table:
    """Source keys cast to the target's key types. A key the target type
    cannot hold (an int64 ``turn_idx`` above int32 max) can match no row, so
    it is dropped here instead of failing the cast inside a rewrite task."""
    ok = None
    for c in ("conv_id", "turn_idx"):
        col, typ = keys[c], schema.field(c).type
        if col.type != typ and pa.types.is_integer(col.type) and pa.types.is_integer(typ):
            # a value survives the round trip through the narrower type iff
            # that type holds it
            fit = pc.equal(pc.cast(pc.cast(col, typ, safe=False), col.type), col)
            ok = fit if ok is None else pc.and_(ok, fit)
    if ok is not None:
        keys = keys.filter(ok)
    return pa.table({c: keys[c].cast(schema.field(c).type) for c in ("conv_id", "turn_idx")})


def merge(
    table: Table,
    source: pa.Table,
    *,
    concurrency: int | None = None,
    use_actor: bool = False,
    fail_after: int | None = None,
    extra: dict | None = None,
    _skip_chunking: bool = False,
) -> int:
    """Apply a MERGE source (transcript columns + ``op``) copy-on-write.

    op semantics: "update"/"insert" upsert the row; "delete" removes the
    matched key. Returns the new snapshot id.
    """
    import ray

    # pin the parent first: the schema, partition spec and files all come
    # from this one snapshot read
    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    tbl_schema = meta["schema"]
    missing = [c for c in tbl_schema.names + ["op"] if c not in source.schema.names]
    if missing:
        raise ValueError(f"MERGE source lacks target column(s) {missing}")
    # ANSI MERGE: a NULL key matches no target row, so a null-key delete or
    # update is a no-op. A null-key insert is dropped as well: it could never
    # be matched again, so every retry of the same source would append it
    # once more.
    source = source.filter(
        pc.and_(pc.is_valid(source["conv_id"]), pc.is_valid(source["turn_idx"]))
    )
    if source.num_rows > table.config.merge_broadcast_max_rows and not _skip_chunking:
        return merge_chunked(
            table, source, concurrency=concurrency, use_actor=use_actor
        )
    by_path = {r["path"]: r for r in ents.select(["path", "rows", "bytes"]).to_pylist()}

    delete_keys: dict[str, pa.Table] = {}
    extra_rows: dict[str, bytes] = {}
    conv_ranges: dict[str, tuple[str, str]] = {}
    # split source rows by target partition (driver-side: source is small)
    for part, chunk in split_by_partition(source, meta["partition_spec"]).items():
        # all source keys leave the target; shipped as a 2-column key table
        # for the rewriter's Acero left-anti join (no key-string building)
        delete_keys[part] = _key_table(
            chunk.select(["conv_id", "turn_idx"]).combine_chunks(), tbl_schema
        )
        ups = chunk.filter(pc.not_equal(chunk["op"], "delete")).drop_columns(["op"])
        # MERGE INTO coerces source columns to the target schema (widened
        # ints, reordered columns); out-of-range values raise loudly here,
        # at planning time, not inside a rewrite task
        ups = pa.table({f.name: ups[f.name].cast(f.type) for f in tbl_schema})
        sink = pa.BufferOutputStream()
        with pa.ipc.new_stream(sink, ups.schema) as w:
            w.write_table(ups)
        extra_rows[part] = sink.getvalue().to_pybytes()
        convs = chunk["conv_id"]
        conv_ranges[part] = (pc.min(convs).as_py(), pc.max(convs).as_py())

    # plan: touched files = partition has source keys AND conv_id stats
    # overlap. Units are byte-capped BINS of touched files (a hot partition
    # must not become one unbounded task); upserts/inserts attach to the
    # partition's FIRST bin only, deletes/updates drop keys in every bin —
    # per-file anti-join is correct because a key lives in exactly the files
    # whose stats cover it, and they are all in some bin.
    units: list[dict] = []
    removed: list[str] = []
    params = _source_hash(source)
    bin_cap = max(table.config.target_file_bytes, 1)
    parts = sorted(conv_ranges)
    # each file against its own partition's source key range (null for a
    # partition without source keys: untouched)
    at = pc.index_in(ents["partition"], value_set=pa.array(parts, pa.string()))
    lo, hi = (
        pc.take(pa.array([conv_ranges[p][i] for p in parts], pa.string()), at) for i in (0, 1)
    )
    hit = pc.and_(pc.is_valid(at), manifest.may_overlap(ents, "conv_id", lo, hi))
    touched_by_part: dict[str, list[str]] = {}
    for part, path in zip(
        ents["partition"].filter(hit).to_pylist(), ents["path"].filter(hit).to_pylist()
    ):
        touched_by_part.setdefault(part, []).append(path)
    for part in parts:
        touched = sorted(touched_by_part.get(part, ()))
        removed.extend(touched)
        if not touched:
            unit = rewrite.make_bin([], part, by_path, params=params)
            unit["unit_id"] = lineage.unit_id([f"<empty:{part}>"], params)
            unit["apply_extra"] = True
            units.append(unit)
            continue
        for i, b in enumerate(rewrite.pack_bins(touched, by_path, bin_cap)):
            unit = rewrite.make_bin(b, part, by_path, params=params)
            unit["apply_extra"] = i == 0  # upserts land in ONE bin per partition
            units.append(unit)

    job_id = lineage.job_id_for("merge", parent, params)
    # two-level broadcast: outer dict holds one ObjectRef per partition so a
    # rewrite task only fetches its own partition's keys/upserts
    dk_ref = ray.put({p: ray.put(v) for p, v in delete_keys.items()})
    ex_ref = ray.put({p: ray.put(v) for p, v in extra_rows.items()})
    added = rewrite.run_bins(
        table,
        units,
        job_id,
        concurrency=concurrency,
        schema=tbl_schema,
        stats_cols=manifest.stats_cols(meta),
        sort_key=["conv_id", "turn_idx"],
        extra_rows_ref=ex_ref,
        delete_keys_ref=dk_ref,
        fail_after=fail_after,
    )
    added, changes = rewrite.split_changes(added)
    return table.commit(
        added=added,
        removed=removed,
        operation="merge",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        extra=extra,
        changes=changes,
    )


def merge_chunked(
    table: Table,
    source: pa.Table,
    *,
    concurrency: int | None = None,
    use_actor: bool = False,
) -> int:
    """Large-source path: split the source into conv_id-range chunks that fit
    the broadcast budget and MERGE chunk by chunk. Each chunk commit is
    atomic (readers see snapshot k or k+1, never a partial chunk), and chunks
    touch DISJOINT key ranges so the result equals one big merge. At 100 TB
    this is the bounded-memory shape: the driver never holds more than one
    chunk's keys, and a source that is itself a Dataset can be iterated
    ``iter_batches``-style into the same loop.
    """
    budget = table.config.merge_broadcast_max_rows
    idx = pc.sort_indices(source, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    src = source.take(idx)
    conv = src["conv_id"].to_numpy(zero_copy_only=False)
    sid = table.current_snapshot_id()
    start = 0
    while start < src.num_rows:
        end = min(start + budget, src.num_rows)
        # never split a conversation across chunks (keys within a conv must
        # land in one atomic commit)
        if end < src.num_rows:
            while end > start and conv[end - 1] == conv[min(end, len(conv) - 1)]:
                end -= 1
            if end == start:  # single conv larger than budget: take it whole
                end = start + 1
                while end < src.num_rows and conv[end] == conv[start]:
                    end += 1
        sid = merge(
            table,
            src.slice(start, end - start),
            concurrency=concurrency,
            use_actor=use_actor,
            _skip_chunking=True,  # an over-budget single conv merges whole
        )
        start = end
    return sid
