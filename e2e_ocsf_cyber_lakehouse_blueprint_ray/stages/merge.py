"""MERGE INTO with deletion vectors, copy-on-write past a cap.

The reference has NO joins ("No JOINs needed - it's one unified table!",
/root/reference/_resources/PIPELINE_OVERVIEW.md:311); its hook for selective
rewrite is the ``metadata.log_version`` convention + deletion-vector/DML
table flags (transformations/mappings/ocsf/iam/gold_github_audit_logs.py:36-37,47;
utilities/utils.py:90-95). This module supplies the real thing: MERGE INTO a
transcript table keyed on (conv_id, turn_idx) with upsert/delete semantics —

    survivors = target ANTI JOIN source-keys        (per touched file)
    result    = survivors ∪ source[op != 'delete']  (per partition)

Only files whose manifest (conv_id min/max) stats overlap the source keys of
their partition are read; the others carry over untouched. A unit then
decides file by file (``rewrite.BinRewriter._dml_unit``), with Delta's
merge-on-read deletion vectors:

    no row matched            the file stays as it is
    no live row left          the file is removed, nothing written
    old + new positions ≤ 64  the matched rows' physical positions go in the
                              file's manifest entry (``deleted``); the file
                              is not written (``manifest.DV_MAX_POSITIONS``)
    more                      the file is folded: its survivors are
                              rewritten sorted on (conv_id, turn_idx)

The partition's upserts join a fold's output when its first unit has one,
else they are one small file sorted on (conv_id, turn_idx). So a churn-sized
MERGE writes one small file per touched partition, and a bulk one (FIXTURES
§2, ~280 matches per file) rewrites what it touches as before. Each unit
also writes a change file of the rows it dropped and appended, which the
commit's change record names for the change feed (stages/changes.py).

Scale shape: the driver holds the whole source (``merge`` takes a
``pa.Table``) and splits it by the target's partitioning; each unit row
carries its own partition's payload as Arrow IPC bytes: the source keys in
every unit, the upserts in the partition's first unit only. A rewrite task
thus receives only its own units' keys and upserts, with its input, and
drops matched rows with an Acero hash left-anti join on (conv_id,
turn_idx). Whatever the source size, one call plans one job and publishes
one snapshot, so readers and the change feed never see a MERGE half done.
"""

from __future__ import annotations

import hashlib

import pyarrow as pa
import pyarrow.compute as pc

from ..state import lineage, manifest
from ..table import Table, split_by_partition
from . import rewrite

OPS = pa.array(["insert", "update", "delete"])


def _key_array(t: pa.Table) -> pa.Array:
    return pc.binary_join_element_wise(
        t["conv_id"], pc.cast(t["turn_idx"], pa.string()), "\x1f"
    ).combine_chunks()


def _ipc(t: pa.Table) -> bytes:
    """``t`` as Arrow IPC stream bytes: a layout-normalized byte image (the
    same for a slice that shares offset buffers) that a unit row carries."""
    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, t.schema) as w:
        w.write_table(t)
    return sink.getvalue().to_pybytes()


def _source_hash(source: pa.Table) -> str:
    """Deterministic digest of the source key set — hashes the Arrow key
    array's raw buffers (C-level) instead of a per-row Python loop."""
    return hashlib.blake2b(_ipc(pa.table({"k": _key_array(source)})), digest_size=8).hexdigest()


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
) -> int:
    """Apply a MERGE source (transcript columns + ``op``) in one commit.

    op semantics: "update"/"insert" upsert the row; "delete" removes the
    matched key. A source with an ``op`` outside those three, or with two
    rows for one (conv_id, turn_idx), is rejected before anything runs.
    The driver holds the source; at any size the call commits exactly one
    snapshot, whose id it returns.
    """
    # pin the parent first: the schema, partition spec and files all come
    # from this one snapshot read
    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    tbl_schema = meta["schema"]
    missing = [c for c in tbl_schema.names + ["op"] if c not in source.schema.names]
    if missing:
        raise ValueError(f"MERGE source lacks target column(s) {missing}")
    # a null op would join the anti-join keys but no upsert: a silent delete
    op = source["op"].cast(pa.string())
    bad = pc.invert(pc.is_in(op, value_set=OPS))
    if pc.any(bad).as_py():
        vals = pc.unique(op.filter(bad)).to_pylist()
        raise ValueError(f"MERGE source op(s) {vals} are not one of {OPS.to_pylist()}")
    # ANSI MERGE: a NULL key matches no target row, so a null-key delete or
    # update is a no-op. A null-key insert is dropped as well: it could never
    # be matched again, so every retry of the same source would append it
    # once more.
    source = source.filter(
        pc.and_(pc.is_valid(source["conv_id"]), pc.is_valid(source["turn_idx"]))
    )
    # two rows for one key would both upsert: a keyed table with a key twice
    per_key = source.group_by(["conv_id", "turn_idx"]).aggregate([([], "count_all")])
    dup = per_key.filter(pc.greater(per_key["count_all"], 1))
    if dup.num_rows:
        key = (dup["conv_id"][0].as_py(), dup["turn_idx"][0].as_py())
        raise ValueError(
            f"MERGE source repeats {dup.num_rows} (conv_id, turn_idx) key(s), e.g. {key}"
        )
    by_path = rewrite.entries_by_path(ents)

    payload: dict[str, tuple[bytes, bytes]] = {}  # partition -> (keys, upserts)
    conv_ranges: dict[str, tuple[str, str]] = {}
    # split source rows by target partition (on the driver, which holds the source)
    for part, chunk in split_by_partition(source, meta["partition_spec"]).items():
        # all source keys leave the target; shipped as a 2-column key table
        # for the rewriter's Acero left-anti join (no key-string building)
        keys = _key_table(chunk.select(["conv_id", "turn_idx"]).combine_chunks(), tbl_schema)
        ups = chunk.filter(pc.not_equal(chunk["op"], "delete")).drop_columns(["op"])
        # MERGE INTO coerces source columns to the target schema (widened
        # ints, reordered columns); out-of-range values raise loudly here,
        # at planning time, not inside a rewrite task
        ups = pa.table({f.name: ups[f.name].cast(f.type) for f in tbl_schema})
        payload[part] = (_ipc(keys), _ipc(ups))
        convs = chunk["conv_id"]
        conv_ranges[part] = (pc.min(convs).as_py(), pc.max(convs).as_py())

    # plan: touched files = partition has source keys AND conv_id stats
    # overlap. Units are byte-capped BINS of touched files (a hot partition
    # must not become one unbounded task). Each unit row carries its
    # partition's payload: every bin the keys (deletes/updates drop keys in
    # every bin — per-file anti-join is correct because a key lives in
    # exactly the files whose stats cover it, and they are all in some bin),
    # the FIRST bin alone the upserts, so each lands once.
    units: list[dict] = []
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
        keys, ups = payload[part]
        # a partition no file of which is touched gets one empty-input unit
        bins = rewrite.pack_bins(touched_by_part.get(part, ()), by_path, bin_cap) or [[]]
        for i, b in enumerate(bins):
            unit = rewrite.make_bin(b, part, by_path, params=params)
            if not b:
                unit["unit_id"] = lineage.unit_id([f"<empty:{part}>"], params)
            units.append(dict(unit, keys=keys, upserts=ups if i == 0 else None))

    job_id = lineage.job_id_for("merge", parent, params)
    out = rewrite.run_bins(
        table,
        units,
        job_id,
        concurrency=concurrency,
        schema=tbl_schema,
        stats_cols=manifest.stats_cols(meta),
        sort_key=["conv_id", "turn_idx"],
        fail_after=fail_after,
    )
    added, removed, changes = rewrite.dml_entries(ents, units, out)
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
