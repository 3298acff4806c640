"""Snapshot change feed (CDC) — the Delta Change Data Feed analog.

``snapshot_changes(t, A, B)`` emits the net row-level difference between two
snapshots as full rows of B's schema labeled ``change ∈ {'added', 'removed'}``.

Writers say what changed. Every commit in (A, B] contributes ``(file, side)``
items from the change record it stored (``Table.commit``):

    MERGE / DELETE     the change files its units wrote under
                       ``_change_data/`` — the rows they dropped ('removed'),
                       whether by deleted positions or a rewrite, and the
                       upserts they appended ('added') — plus DELETE's
                       contained-drop files as whole-file removals
    compact / cluster / respec
                       an empty record: they preserve content (the
                       scan-equality contract), so they cost the feed nothing
    any other commit   no record (appends, rollback, view commits, snapshots
                       written before records existed): the commit's own
                       whole-file diff, removed files side −1 and added
                       files +1 — always correct

Every item is read through the one live-row reader (``table.read_file``):
a whole-file item carries its entry's deleted positions, and an entry is
its (path, positions). Whole-file items net at that level first, so a file
added and removed inside the range is never read. The records carry row
counts, so the feed picks its
path before reading anything: up to ``SUBSET_DRIVER_MAX_ROWS`` rows the files
are read with pyarrow on the driver and netted in one Arrow group_by; above
it a two-phase distributed netting (``_distributed_net``) runs over the same
files, each phase past its driver cap on the engine's one sorted pass
(``order.fold_sorted``). A range with an expired snapshot inside falls back
to the two snapshots' manifest diff as whole files; an expired end is a
``ValueError`` naming the oldest retained snapshot.

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

import functools
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..state import manifest
from ..table import Table, align_to, read_file, read_files
from .order import EDGE, fold_sorted

_NET, _HASH, _KEY = "_net", "_h", "_k"


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


def _hash_net(t: pa.Table) -> pa.Table:
    """Signed sum per 128-bit content hash: the phase-1 netting of a batch,
    of the driver fold and of each sorted block."""
    agg = t.group_by(["_h1", "_h2"]).aggregate([(_NET, "sum")])
    return pa.table({"_h1": agg["_h1"], "_h2": agg["_h2"], _NET: agg[f"{_NET}_sum"]})


def _net_block(net, hash_col: str):
    """``fold_sorted`` block pass around a netting kernel: groups whose
    hash is the block's min or max may continue in a neighbour block (edge
    bit 1); interior groups that net to zero are dropped here."""

    def per_block(b: pa.Table) -> pa.Table:
        agg = net(b)
        hmin, hmax = pc.min_max(b[hash_col]).values()
        edge = pc.or_(pc.equal(agg[hash_col], hmin), pc.equal(agg[hash_col], hmax))
        keep = pc.or_(edge, pc.not_equal(agg[_NET], 0))
        return agg.filter(keep).append_column(EDGE, pc.cast(edge.filter(keep), pa.int8()))

    return per_block


def _label(t: pa.Table, cols: list[str]) -> pa.Table:
    nz = t.filter(pc.not_equal(t[_NET], 0))
    change = pc.if_else(pc.greater(nz[_NET], 0), pa.scalar("added"), pa.scalar("removed"))
    return nz.select(cols).append_column("change", change)


def _signs(b: pa.Table, side: int) -> np.ndarray:
    """Per-row ±1: a whole file's side, or a change file's ``change`` label."""
    if side != manifest.CHANGE_FILE:
        return np.full(b.num_rows, side, np.int64)
    added = pc.equal(b["change"], "added").to_numpy(zero_copy_only=False)
    return np.where(added, 1, -1).astype(np.int64)


#: phase-1 partials of the distributed netting fold on the driver below this
#: many rows (~24 B each); above it ``fold_sorted`` over the narrow rows
#: takes over. Measured on 4 CPUs, the forced distributed fold was slower
#: at every sf that fits this path's inputs (see BASELINE.md), so the driver
#: fold stays below the cap. Tests set the attribute to force the other side.
PARTIAL_DRIVER_MAX_ROWS = 8_000_000
#: at most this many change rows (known from the change records before any
#: read) net on the driver with pyarrow; more run the distributed netting.
#: The distributed netting's phase 2 uses the same cap on changed hashes.
SUBSET_DRIVER_MAX_ROWS = 500_000


def _file_diff(a: pa.Table, b: pa.Table) -> list[list]:
    """Whole-file change items turning manifest entries ``a`` into ``b``.
    An entry is its (path, deleted positions): a file whose positions
    changed is removed with the old ones and added with the new."""
    in_a, in_b = set(manifest.entry_keys(a)), set(manifest.entry_keys(b))
    out = []
    for ents, keep, side in (
        (a, in_a - in_b, manifest.WHOLE_REMOVED),
        (b, in_b - in_a, manifest.WHOLE_ADDED),
    ):
        rows = ents.select(["path", "rows", "bytes", "deleted"]).to_pylist()
        keys = manifest.entry_keys(ents)
        out += manifest.change_items((r for r, k in zip(rows, keys) if k in keep), side)
    return out


def change_files(table: Table, from_id: int, to_id: int) -> list[list]:
    """``[path, side, rows, bytes, deleted]`` items whose live rows, signed
    by ``side`` (``manifest.CHANGE_FILE`` = per-row ``change`` column), sum
    to the content of ``to_id`` minus that of ``from_id``."""
    ids = set(manifest.list_snapshot_ids(table.dir))
    for sid in (from_id, to_id):
        if sid not in ids:
            raise ValueError(
                f"snapshot {sid} of {table.dir} is expired or was never written; "
                f"the oldest retained snapshot is {min(ids, default=None)}"
            )
    walk = range(from_id + 1, to_id + 1)
    if from_id > to_id or any(s not in ids for s in walk):
        # a reversed range or an expired snapshot inside it: diff the ends
        return _file_diff(table.entries(from_id), table.entries(to_id))
    cdf: list[list] = []
    whole: dict[tuple, list] = {}
    prev = None  # entries of the previous snapshot, when already read
    for sid in walk:
        rec = manifest.change_record(table.dir, sid)
        if rec is None:
            cur = table.entries(sid)
            rec = _file_diff(prev if prev is not None else table.entries(sid - 1), cur)
            prev = cur
        else:
            prev = None
        for path, side, rows, nbytes, *dv in rec:
            deleted = dv[0] if dv else []  # records older than deletion vectors
            if side == manifest.CHANGE_FILE:
                cdf.append([path, side, rows, nbytes, deleted])
            else:
                key = (path, tuple(deleted))
                whole.setdefault(key, [path, 0, rows, nbytes, deleted])[1] += side
    return cdf + [w for w in whole.values() if w[1]]


def snapshot_changes(table: Table, from_id: int, to_id: int):
    """Lazy Dataset of net row changes between two snapshots: full rows of
    ``to_id``'s schema plus a ``change`` column."""
    import ray.data as rd

    items = change_files(table, from_id, to_id)
    schema = table.schema(to_id)
    out_schema = schema.append(pa.field("change", pa.string()))
    if not items:
        return rd.from_arrow(out_schema.empty_table())
    if sum(it[2] for it in items) <= SUBSET_DRIVER_MAX_ROWS:
        return rd.from_arrow(_driver_net(table, items, schema).cast(out_schema))
    return _distributed_net(table, items, schema)


def _driver_net(table: Table, items: list[list], schema: pa.Schema) -> pa.Table:
    """Read the change items with pyarrow and net them in one group_by."""
    cols = list(schema.names)
    parts = []
    for path, side, _rows, _bytes, deleted in items:
        b = read_file(os.path.join(table.dir, path), deleted=deleted)
        # under the target schema a carried pre-evolution row nets to zero
        parts.append(align_to(b, schema).append_column(_NET, pa.array(_signs(b, side))))
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
        # every file's live rows, aligned to the target snapshot's schema
        # (change files keep their ``change`` column): a path set can mix
        # pre- and post-evolution files, and carried rows must compare under
        # one schema to cancel
        sides = []
        for side_val, its in sorted(groups.items()):
            # size the read's task count from the bytes, not Ray's 200-task
            # default (a task per small file); ×3 under-counts the in-memory
            # size (sf0.1: 3.9× for change files, 6.7× for data files) but
            # puts bench-sized feeds at the concurrency floor either way
            side_bytes = sum(it[3] for it in its)
            n_blocks = max(
                table.config.rewrite_concurrency,
                min(4096, -(-(side_bytes * 3) // table.config.target_file_bytes)),
            )
            sides.append(
                read_files(
                    table.dir,
                    [(it[0], it[4]) for it in its],
                    out_schema if side_val == manifest.CHANGE_FILE else schema,
                    num_blocks=n_blocks,
                ).map_batches(fn_factory(side_val), batch_format="pyarrow")
            )
        return sides[0].union(*sides[1:]) if len(sides) > 1 else sides[0]

    # -- phase 1: hash-level netting over narrow partials -------------------
    def hash_partial(side_val: int):
        def fn(b: pa.Table) -> pa.Table:
            h1, h2 = _hashes(align_to(b, schema))
            signs = pa.array(_signs(b, side_val))
            return _hash_net(pa.table({"_h1": pa.array(h1), "_h2": pa.array(h2), _NET: signs}))

        return fn

    # The partials are one 24-byte row per distinct content per batch. Up to
    # the cap they fold on the driver (one Arrow group_by — the mergeable-
    # partials pattern, cf. HLL/k-means); past it, the sorted pass over the
    # narrow rows takes over, where the sort's fixed per-block overhead is
    # amortized by the (then large) input.
    parts: list[pa.Table] = []
    n_part = 0
    partials = _sides(hash_partial).iter_batches(batch_size=None, batch_format="pyarrow")
    for b in partials:
        parts.append(b)
        n_part += b.num_rows
        if n_part > PARTIAL_DRIVER_MAX_ROWS:
            break
    del partials
    if n_part > PARTIAL_DRIVER_MAX_ROWS:
        del parts
        folded = fold_sorted(
            _sides(hash_partial), ["_h1"], _net_block(_hash_net, "_h1"), _hash_net
        )
        parts = list(folded.iter_batches(batch_size=None, batch_format="pyarrow"))
    elif parts:
        parts = [_hash_net(pa.concat_tables(parts))]
    nz = [p.filter(pc.not_equal(p[_NET], 0)) for p in parts]
    changed1 = np.concatenate(
        [p["_h1"].to_numpy(zero_copy_only=False) for p in nz] or [np.array([], np.int64)]
    ).astype(np.int64)
    changed2 = np.concatenate(
        [p["_h2"].to_numpy(zero_copy_only=False) for p in nz] or [np.array([], np.int64)]
    ).astype(np.int64)

    if len(changed1) == 0:
        return rd.from_arrow(out_schema.empty_table())

    # -- phase 2: exact content netting over the churn-sized subset ---------
    order = np.argsort(changed1, kind="stable")
    cref = ray.put((changed1[order], changed2[order]))

    def tag_subset(side_val: int):
        def fn(b: pa.Table) -> pa.Table:
            a = align_to(b, schema)
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

    # large churn: the sorted pass nets the subset distributed
    net = functools.partial(_net_table, cols=cols)
    return fold_sorted(subset, [_HASH], _net_block(net, _HASH), net).map_batches(
        lambda b: _label(b, cols).cast(out_schema), batch_format="pyarrow"
    )
