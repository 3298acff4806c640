"""Incremental materialized view: per-conversation turn counts kept in
sync with a source table through the snapshot change feed (stages/changes).

The reference ships full-recompute streaming flows (every gold table is
re-derived from its silver stream); Delta's CDF + MERGE is the platform
feature that makes DOWNSTREAM aggregates incremental. This module is that
consumer: the view table holds one row per conv_id with its turn count,
and ``refresh`` advances it from src snapshot A→B by reading ONLY the
change feed (snapshot_changes: the commits' change files, or their file
diffs where a commit recorded none), netting per-conv deltas, and
MERGE-ing churn-sized updates into the view — cost O(churn + view scan),
never O(source scan).

Crash safety: the sync marker (``engine.x.synced_src_snapshot``) rides in
the SAME commit as the merged deltas, so a crashed refresh leaves the view
at its previous consistent (snapshot, marker) pair and the next refresh
re-reads the same diff. The refresh merge is forced down the single-commit
path (no chunking) to keep that atomicity; a churn set too large to
broadcast is a signal to rebuild instead.

Assumes the source is keyed — (conv_id, turn_idx) unique — which the
transcript table guarantees; on a keyed table every change-feed net is ±1
so count deltas are exact.

View schema: (conv_id, turn_idx ≡ 0, n_turns) — the constant turn_idx
makes the view mergeable by the existing (conv_id, turn_idx) MERGE
machinery with per-file conv_id stats targeting.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..state import manifest
from ..table import Table
from ..stages import changes as changes_mod
from ..stages import merge as merge_mod

MARKER = "synced_src_snapshot"

VIEW_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("n_turns", pa.int64()),
    ]
)


def _counts_ds(src: Table, snapshot_id: int):
    """Distributed per-conv counts of a source snapshot (combiner + small
    groupby), shaped to the view schema."""
    from ray.data.aggregate import Sum

    ds = src.scan(columns=["conv_id"], snapshot_id=snapshot_id)

    def partial(b: pa.Table) -> pa.Table:
        t = pa.table(
            {"conv_id": b["conv_id"], "n": pa.array(np.ones(b.num_rows, dtype=np.int64))}
        )
        return t.group_by(["conv_id"]).aggregate([("n", "sum")])

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("n_sum"))
    )

    def shape(b: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": b["conv_id"],
                "turn_idx": pa.array(np.zeros(b.num_rows, dtype=np.int32)),
                "n_turns": b["sum(n_sum)"],
            },
            schema=VIEW_SCHEMA,
        )

    return agg.map_batches(shape, batch_format="pyarrow")


def create_conv_count_view(
    src: Table, view_dir: str, *, config: EngineConfig, num_partitions: int | None = None
) -> Table:
    """Create + initially populate the view from the source's CURRENT
    snapshot (one distributed aggregate; the only full-source pass)."""
    parts = num_partitions or config.num_partitions
    view = Table.create(
        view_dir,
        VIEW_SCHEMA,
        partition_spec=f"hash:conv_id:{parts}",
        config=config,
        stats_cols=["conv_id", "n_turns"],
    )
    sid = src.current_snapshot_id()
    view.append_dataset(
        _counts_ds(src, sid),
        operation="view-build",
        sort_within_file=["conv_id"],
        extra={MARKER: str(sid)},
    )
    return view


def synced_snapshot(view: Table) -> int:
    raw = manifest.snapshot_extra(view.dir, view.current_snapshot_id()).get(MARKER)
    if raw is None:
        raise ValueError(f"{view.dir} is not a synced view (no {MARKER} marker)")
    return int(raw)


def refresh_conv_count_view(
    src: Table, view: Table, *, use_actor: bool = False
) -> int:
    """Advance the view to the source's current snapshot via the change
    feed. Returns the view's (possibly unchanged) snapshot id."""
    cur = src.current_snapshot_id()
    last = synced_snapshot(view)
    if last == cur:
        return view.current_snapshot_id()
    try:
        src.snapshot(last)
    except FileNotFoundError:
        raise ValueError(
            f"source snapshot {last} expired; rebuild the view with "
            "create_conv_count_view"
        ) from None

    diff = changes_mod.snapshot_changes(src, last, cur)

    def delta_partial(b: pa.Table) -> pa.Table:
        side = pc.if_else(
            pc.equal(b["change"], "added"),
            pa.scalar(1, pa.int64()),
            pa.scalar(-1, pa.int64()),
        )
        t = pa.table({"conv_id": b["conv_id"], "d": side})
        return t.group_by(["conv_id"]).aggregate([("d", "sum")])

    from ray.data.aggregate import Sum

    deltas_ds = (
        diff.map_batches(delta_partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("d_sum"))
    )
    # churn-sized from here on (one row per conv that changed) — but bound
    # the driver fold EXPLICITLY: stream the delta batches up to the
    # broadcast budget, and past it switch to a fully distributed rebuild
    # (one _counts_ds pass + replace-commit). At that churn level the
    # rebuild is cheaper than a churn merge anyway, and the driver never
    # holds more than budget rows (round-2 verdict item 5).
    budget = view.config.merge_broadcast_max_rows
    parts: list[pa.Table] = []
    n_delta = 0
    overflow = False
    for b in deltas_ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        parts.append(b)
        n_delta += b.num_rows
        if n_delta > budget:
            overflow = True
            break
    if overflow:
        parent = view.current_snapshot_id()
        added = view.stage_dataset_files(
            _counts_ds(src, cur), sort_within_file=["conv_id"], name_prefix="vr"
        )
        removed = view.entries(parent)["path"].to_pylist()
        return view.commit(
            added=added,
            removed=removed,
            operation="view-rebuild",
            expected_parent=parent,
            use_actor=use_actor,
            extra={MARKER: str(cur)},
        )
    if not parts or n_delta == 0:
        # maintenance-only diff: nothing to apply, just advance the marker
        return view.commit(
            added=None,
            removed=[],
            operation="view-sync",
            expected_parent=view.current_snapshot_id(),
            use_actor=use_actor,
            extra={MARKER: str(cur)},
        )
    cat = pa.concat_tables(parts)
    dt = pa.table(
        {
            "conv_id": cat["conv_id"].cast(pa.string()),
            "delta": cat["sum(d_sum)"].cast(pa.int64()),
        }
    )
    dt = dt.filter(pc.not_equal(dt["delta"], 0))

    # old counts for the affected keys only: streaming view scan filtered
    # against the broadcast churn-key set (the view is conv-cardinality
    # sized — ~3 orders smaller than the source it summarizes)
    import ray

    key_ref = ray.put(dt["conv_id"].combine_chunks())

    def pick(b: pa.Table) -> pa.Table:
        keys = ray.get(key_ref)
        return b.filter(pc.is_in(b["conv_id"], value_set=keys))

    old = pa.concat_tables(
        view.scan(columns=["conv_id", "n_turns"])
        .map_batches(pick, batch_format="pyarrow")
        .iter_batches(batch_size=None, batch_format="pyarrow"),
        promote_options="default",
    )

    joined = dt.join(
        old.rename_columns(["conv_id", "old_n"]), keys=["conv_id"], join_type="left outer"
    )
    new_n = pc.add(
        pc.fill_null(joined["old_n"], 0), joined["delta"]
    )
    if pc.any(pc.less(new_n, 0)).as_py():
        raise RuntimeError("negative view count: source is not keyed or view diverged")
    op = pc.if_else(pc.equal(new_n, 0), pa.scalar("delete"), pa.scalar("update"))
    msrc = pa.table(
        {
            "conv_id": joined["conv_id"],
            "turn_idx": pa.array(np.zeros(joined.num_rows, dtype=np.int32)),
            "n_turns": new_n,
            "op": op,
        }
    )
    # single-commit merge: the sync marker must land ATOMICALLY with the
    # applied deltas (see module docstring)
    return merge_mod.merge(
        view,
        msrc,
        use_actor=use_actor,
        extra={MARKER: str(cur)},
        _skip_chunking=True,
    )
