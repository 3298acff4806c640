"""Snapshot change feed (CDC) — the Delta Change Data Feed analog.

``snapshot_changes(t, A, B)`` emits the net row-level difference between two
snapshots as full rows of B's schema labeled ``change ∈ {'added', 'removed'}``.

Writers say what changed. Every commit in (A, B] contributes ``(file, side)``
items from the change record it stored (``Table.commit``):

    MERGE / DELETE     the change files its rewrite units wrote under
                       ``_change_data/`` — the rows they dropped ('removed')
                       and the upserts they appended ('added') — plus
                       DELETE's contained-drop files as whole-file removals
    compact / cluster / respec
                       an empty record: they preserve content (the
                       scan-equality contract), so they cost the feed nothing
    any other commit   no record (appends, rollback, view commits, snapshots
                       written before records existed): the commit's own
                       whole-file diff, removed files side −1 and added
                       files +1 — always correct

Whole-file items net at path level first, so a file added and removed inside
the range is never read. The records carry row counts, so the feed picks its
path before reading anything: up to ``SUBSET_DRIVER_MAX_ROWS`` rows the files
are read with pyarrow on the driver and netted in one Arrow group_by; above
it a two-phase distributed netting (``_distributed_net``) runs over the same
files. A range with an expired snapshot inside falls back to the two
snapshots' manifest diff as whole files.

Netting always groups by the FULL row content — encoded as one exact,
NON-NULL key string per row (nullable raw columns make unreliable Arrow
group keys; a hash only routes the distributed shuffle) — so 64-bit
collisions can never cancel or merge distinct rows. An update surfaces as
one 'removed' (old version) plus one 'added' (new version); a no-op update
cancels. Multiset note: nets are emitted once per distinct content with
``|net|`` = 1 expected for keyed tables; duplicate-row tables net to ±k and
are emitted once per distinct content (documented, not expanded k times).

Reference analog: Delta Change Data Feed, which the reference's table flags
opt into implicitly via row-level DML support
(/root/reference/utilities/utils.py:90-95); the reference's
``metadata.log_version`` selective-deletion convention
(/root/reference/transformations/mappings/ocsf/iam/gold_github_audit_logs.py:36-37)
is the intended consumer of such a feed. Schema evolution inside the range is
supported: every file aligns to the TARGET snapshot's schema (older files
null-fill evolved columns), so content compares under one schema.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..state import manifest
from ..table import Table

_NET, _EDGE, _HASH, _KEY = "_net", "_edge", "_h", "_k"


def _content_key(t: pa.Table, cols: list[str]) -> pa.Array:
    """One string per row encoding the full row content (\\x1f-joined,
    nulls → \\x00): hashed for routing; exact grouping uses the columns."""
    parts = []
    for c in cols:
        col = t[c]
        if pa.types.is_timestamp(col.type):
            col = col.cast(pa.int64())
        parts.append(pc.cast(col, pa.string()))
    parts.append("\x1f")
    return pc.binary_join_element_wise(
        *parts, null_handling="replace", null_replacement="\x00"
    ).combine_chunks()


def _net_table(t: pa.Table, cols: list[str]) -> pa.Table:
    """Exact per-content signed sum. Groups by the non-null content-key
    string (grouping by raw nullable columns is unreliable in Arrow's hash
    aggregate); content columns (and the routing hash, when present) ride
    along via ``min``, which is exact because every row in a group is
    identical by construction."""
    ride = cols + [_HASH] if _HASH in t.schema.names else cols
    agg = t.group_by([_KEY]).aggregate([(_NET, "sum")] + [(c, "min") for c in ride])
    out = {c: agg[f"{c}_min"] for c in ride}
    out[_KEY] = agg[_KEY]
    out[_NET] = agg[f"{_NET}_sum"]
    return pa.table(out)


def _label(t: pa.Table, cols: list[str]) -> pa.Table:
    nz = t.filter(pc.not_equal(t[_NET], 0))
    change = pc.if_else(pc.greater(nz[_NET], 0), pa.scalar("added"), pa.scalar("removed"))
    return nz.select(cols).append_column("change", change)


def _aligned(b: pa.Table, schema: pa.Schema) -> pa.Table:
    """Rows under the target snapshot's schema: evolved (added) columns
    null-fill for older files, so a row diffs as removed + added only when
    its content actually changed under the target schema."""
    return pa.table(
        {
            f.name: (
                b[f.name].cast(f.type)
                if f.name in b.schema.names
                else pa.nulls(b.num_rows, f.type)
            )
            for f in schema
        }
    )


def _signs(b: pa.Table, side: int) -> np.ndarray:
    """Per-row ±1: a whole file's side, or a change file's ``change`` label."""
    if side != manifest.CHANGE_FILE:
        return np.full(b.num_rows, side, np.int64)
    added = pc.equal(b["change"], "added").to_numpy(zero_copy_only=False)
    return np.where(added, 1, -1).astype(np.int64)


#: phase-1 partials of the distributed netting fold on the driver below this
#: many rows (~24 B each); above it a distributed narrow-row sort takes
#: over. Env-tunable so the two folds can be A/B-measured on one input (0
#: forces the distributed fold — the 100-TB shape — everywhere).
PARTIAL_DRIVER_MAX_ROWS = int(
    os.environ.get("ENGINE_CHANGES_PARTIAL_DRIVER_MAX_ROWS", 8_000_000)
)
#: at most this many change rows (known from the change records before any
#: read) net on the driver with pyarrow; more run the distributed netting.
#: The distributed netting's phase 2 uses the same cap on changed hashes.
SUBSET_DRIVER_MAX_ROWS = 500_000


def _file_diff(a: pa.Table, b: pa.Table) -> list[list]:
    """Whole-file change items turning manifest entries ``a`` into ``b``."""
    in_a, in_b = set(a["path"].to_pylist()), set(b["path"].to_pylist())
    out = []
    for ents, keep, side in (
        (a, in_a - in_b, manifest.WHOLE_REMOVED),
        (b, in_b - in_a, manifest.WHOLE_ADDED),
    ):
        rows = ents.select(["path", "rows", "bytes"]).to_pylist()
        out += manifest.change_items((r for r in rows if r["path"] in keep), side)
    return out


def change_files(table: Table, from_id: int, to_id: int) -> list[list]:
    """``[path, side, rows, bytes]`` items whose rows, signed by ``side``
    (``manifest.CHANGE_FILE`` = per-row ``change`` column), sum to the
    content of ``to_id`` minus that of ``from_id``."""
    ids = set(manifest.list_snapshot_ids(table.dir))
    walk = range(from_id + 1, to_id + 1)
    if from_id > to_id or from_id not in ids or any(s not in ids for s in walk):
        # a reversed range or an expired snapshot inside it: diff the ends
        return _file_diff(table.entries(from_id), table.entries(to_id))
    cdf: list[list] = []
    whole: dict[str, list] = {}
    prev = None  # entries of the previous snapshot, when already read
    for sid in walk:
        rec = manifest.change_record(table.dir, sid)
        if rec is None:
            cur = table.entries(sid)
            rec = _file_diff(prev if prev is not None else table.entries(sid - 1), cur)
            prev = cur
        else:
            prev = None
        for path, side, rows, nbytes in rec:
            if side == manifest.CHANGE_FILE:
                cdf.append([path, side, rows, nbytes])
            else:
                whole.setdefault(path, [path, 0, rows, nbytes])[1] += side
    return cdf + [w for w in whole.values() if w[1]]


def snapshot_changes(table: Table, from_id: int, to_id: int):
    """Lazy Dataset of net row changes between two snapshots: full rows of
    ``to_id``'s schema plus a ``change`` column."""
    import ray.data as rd

    schema = table.schema(to_id)
    out_schema = schema.append(pa.field("change", pa.string()))
    items = change_files(table, from_id, to_id)
    if not items:
        return rd.from_arrow(out_schema.empty_table())
    if sum(rows for _p, _s, rows, _b in items) <= SUBSET_DRIVER_MAX_ROWS:
        return rd.from_arrow(_driver_net(table, items, schema).cast(out_schema))
    return _distributed_net(table, items, schema)


def _driver_net(table: Table, items: list[list], schema: pa.Schema) -> pa.Table:
    """Read the change items with pyarrow and net them in one group_by."""
    cols = list(schema.names)
    parts = []
    for path, side, _rows, _bytes in items:
        b = pq.read_table(os.path.join(table.dir, path))
        parts.append(_aligned(b, schema).append_column(_NET, pa.array(_signs(b, side))))
    t = pa.concat_tables(parts).combine_chunks()
    return _label(_net_table(t.append_column(_KEY, _content_key(t, cols)), cols), cols)


def _distributed_net(table: Table, items: list[list], schema: pa.Schema):
    """Two phases so the shuffle is proportional to the CHANGE set, not to
    the files read: (1) net per 128-bit content hash — per-batch
    pre-aggregated (h1, h2, net) partials, 24 bytes/row through the
    groupby; (2) re-read the files keeping only rows of nonzero-net hashes
    (broadcast sorted hash set, searchsorted membership) and run the exact
    content-key netting on that churn-sized subset. When the changed set
    exceeds the driver cap the exact netting runs distributed too. Phase-1
    zero-nets of two DISTINCT contents would need a 128-bit hash collision;
    phase 2 stays content-exact."""
    import ray
    import ray.data as rd

    cols = list(schema.names)
    out_schema = schema.append(pa.field("change", pa.string()))
    groups: dict[int, list[list]] = {}
    for it in items:
        groups.setdefault(it[1], []).append(it)

    def _hashes(a: pa.Table) -> tuple[np.ndarray, np.ndarray]:
        # vectorized 2×64-bit row hash straight off the columns — no
        # per-row key-string materialization in the full-data phase
        import polars as pl

        df = pl.from_arrow(a)
        h1 = df.hash_rows(seed=0).to_numpy().astype(np.uint64).astype(np.int64)
        h2 = df.hash_rows(seed=1).to_numpy().astype(np.uint64).astype(np.int64)
        return h1, h2

    def _sides(fn_factory):
        # Pin the target snapshot's schema on every read (change files also
        # carry ``change``): a path set can mix pre- and post-evolution
        # files, and pyarrow.dataset otherwise infers the read schema from
        # one sampled fragment — a pre-evolution sample would silently drop
        # evolved columns, so carried rows fail to cancel. With the pin,
        # missing columns null-fill per fragment and _aligned is a cheap
        # no-op.
        sides = []
        for side_val, its in sorted(groups.items()):
            # size the read's block count from the bytes, not Ray's
            # min-200-blocks default: a few hundred SMALL files would each
            # become their own read task — pure per-task overhead
            # (zstd ≈ 3× expansion est.)
            side_bytes = sum(it[3] for it in its)
            n_blocks = max(
                table.config.rewrite_concurrency,
                min(4096, -(-(side_bytes * 3) // table.config.target_file_bytes)),
            )
            sides.append(
                rd.read_parquet(
                    [os.path.join(table.dir, it[0]) for it in its],
                    schema=out_schema if side_val == manifest.CHANGE_FILE else schema,
                    override_num_blocks=min(n_blocks, len(its) * 4),
                ).map_batches(fn_factory(side_val), batch_format="pyarrow")
            )
        return sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]

    # -- phase 1: hash-level netting over narrow partials -------------------
    def hash_partial(side_val: int):
        def fn(b: pa.Table) -> pa.Table:
            h1, h2 = _hashes(_aligned(b, schema))
            t = pa.table(
                {"_h1": pa.array(h1), "_h2": pa.array(h2), _NET: pa.array(_signs(b, side_val))}
            )
            return t.group_by(["_h1", "_h2"]).aggregate([(_NET, "sum")])

        return fn

    # The partials are one 24-byte row per distinct content per batch. Up to
    # the cap they fold on the driver (one Arrow group_by — the mergeable-
    # partials pattern, cf. HLL/k-means); past it, a distributed sort on the
    # narrow rows + per-block netting + edge combine takes over, where the
    # sort's fixed per-block overhead is amortized by the (then large) input.
    parts: list[pa.Table] = []
    n_part = 0
    overflow = False
    part_iter = _sides(hash_partial).iter_batches(batch_size=None, batch_format="pyarrow")
    for b in part_iter:
        parts.append(b.select(["_h1", "_h2", f"{_NET}_sum"]))
        n_part += b.num_rows
        if n_part > PARTIAL_DRIVER_MAX_ROWS:
            overflow = True
            break

    if not overflow:
        if not parts:
            return rd.from_arrow(out_schema.empty_table())
        pt = pa.concat_tables(parts).combine_chunks()
        agg = pt.group_by(["_h1", "_h2"]).aggregate([(f"{_NET}_sum", "sum")])
        nz = agg.filter(pc.not_equal(agg[f"{_NET}_sum_sum"], 0))
        changed1 = nz["_h1"].to_numpy(zero_copy_only=False).astype(np.int64)
        changed2 = nz["_h2"].to_numpy(zero_copy_only=False).astype(np.int64)
    else:
        # distributed hash netting: sort the narrow partial rows and net per
        # block, holding out block-edge hashes for a tiny driver combine
        del parts, part_iter

        def per_block_hash_net(b: pa.Table) -> pa.Table:
            if b.num_rows == 0:
                return pa.table(
                    {
                        "_h1": pa.array([], pa.int64()),
                        "_h2": pa.array([], pa.int64()),
                        "net": pa.array([], pa.int64()),
                        "_edge": pa.array([], pa.bool_()),
                    }
                )
            agg = b.group_by(["_h1", "_h2"]).aggregate([(f"{_NET}_sum", "sum")])
            agg = pa.table(
                {
                    "_h1": agg["_h1"],
                    "_h2": agg["_h2"],
                    "net": agg[f"{_NET}_sum_sum"],
                }
            )
            hmin, hmax = pc.min_max(b["_h1"]).values()
            edge = pc.or_(pc.equal(agg["_h1"], hmin), pc.equal(agg["_h1"], hmax))
            keep = pc.or_(edge, pc.not_equal(agg["net"], 0))
            return agg.filter(keep).append_column("_edge", edge.filter(keep))

        hn = (
            _sides(hash_partial)
            .sort("_h1")
            .map_batches(per_block_hash_net, batch_format="pyarrow", batch_size=None)
        )
        interior1: list[np.ndarray] = []
        interior2: list[np.ndarray] = []
        edge_parts1: list[pa.Table] = []
        for b in hn.iter_batches(batch_size=None, batch_format="pyarrow"):
            nzb = b.filter(pc.and_(pc.invert(b["_edge"]), pc.not_equal(b["net"], 0)))
            interior1.append(nzb["_h1"].to_numpy(zero_copy_only=False).astype(np.int64))
            interior2.append(nzb["_h2"].to_numpy(zero_copy_only=False).astype(np.int64))
            e = b.filter(b["_edge"])
            if e.num_rows:
                edge_parts1.append(e.drop_columns(["_edge"]))
        if edge_parts1:
            et1 = pa.concat_tables(edge_parts1).combine_chunks()
            ea1 = et1.group_by(["_h1", "_h2"]).aggregate([("net", "sum")])
            nze = ea1.filter(pc.not_equal(ea1["net_sum"], 0))
            interior1.append(nze["_h1"].to_numpy(zero_copy_only=False).astype(np.int64))
            interior2.append(nze["_h2"].to_numpy(zero_copy_only=False).astype(np.int64))
        changed1 = np.concatenate(interior1) if interior1 else np.array([], np.int64)
        changed2 = np.concatenate(interior2) if interior2 else np.array([], np.int64)

    if len(changed1) == 0:
        return rd.from_arrow(out_schema.empty_table())

    # -- phase 2: exact content netting over the churn-sized subset ---------
    order = np.argsort(changed1, kind="stable")
    cref = ray.put((changed1[order], changed2[order]))

    def tag_subset(side_val: int):
        def fn(b: pa.Table) -> pa.Table:
            a = _aligned(b, schema)
            h1, h2 = _hashes(a)
            c1, c2 = ray.get(cref)
            pos = np.searchsorted(c1, h1)
            posc = np.clip(pos, 0, max(len(c1) - 1, 0))
            hit = (c1[posc] == h1) if len(c1) else np.zeros(len(h1), bool)
            ok = hit & (c2[posc] == h2)
            # h1 ties in the changed set: scan the tie run for a matching h2
            amb = hit & ~ok
            for i in np.flatnonzero(amb):
                j = pos[i]
                while j < len(c1) and c1[j] == h1[i]:
                    if c2[j] == h2[i]:
                        ok[i] = True
                        break
                    j += 1
            a = a.filter(pa.array(ok))
            # the exact content key is only built for the churn-sized subset
            key = _content_key(a, cols)
            return (
                a.append_column(_KEY, key)
                .append_column(_NET, pa.array(_signs(b, side_val)[ok]))
                .append_column(_HASH, pa.array(h1[ok]))
            )

        return fn

    subset = _sides(tag_subset)
    if len(changed1) <= SUBSET_DRIVER_MAX_ROWS:
        # churn-bounded: collect the matching rows and net exactly in one
        # Arrow group_by on the driver — no shuffle at all
        rows = [
            b
            for b in subset.iter_batches(batch_size=None, batch_format="pyarrow")
            if b.num_rows
        ]
        if not rows:
            return rd.from_arrow(out_schema.empty_table())
        rt = pa.concat_tables(rows).combine_chunks()
        return rd.from_arrow(_label(_net_table(rt, cols), cols).cast(out_schema))

    # large churn: distributed exact netting over the subset
    def per_block_net(b: pa.Table) -> pa.Table:
        if b.num_rows == 0:
            return b.append_column(_EDGE, pa.array([], pa.bool_()))
        agg = _net_table(b, cols)
        hmin, hmax = pc.min_max(b[_HASH]).values()
        edge = pc.or_(pc.equal(agg[_HASH], hmin), pc.equal(agg[_HASH], hmax))
        keep = pc.or_(edge, pc.not_equal(agg[_NET], 0))
        return agg.filter(keep).append_column(_EDGE, edge.filter(keep))

    netted = (
        subset.sort(_HASH)
        .map_batches(per_block_net, batch_format="pyarrow", batch_size=None)
        .materialize()  # change-sized, not table-sized: read twice below
    )
    interior = netted.map_batches(
        lambda b: _label(b.filter(pc.invert(b[_EDGE])), cols), batch_format="pyarrow"
    )
    edge_parts = [
        b.filter(b[_EDGE])
        for b in netted.iter_batches(batch_size=None, batch_format="pyarrow")
    ]
    edge_parts = [b for b in edge_parts if b.num_rows]
    if edge_parts:
        et = pa.concat_tables(edge_parts).combine_chunks()
        edge_final = _label(_net_table(et, cols), cols).cast(out_schema)
        return interior.union(rd.from_arrow(edge_final))
    return interior
