"""Partition evolution — rewrite a table into a NEW partition spec.

The reference's analog is Delta/liquid-clustering re-layout (``ALTER TABLE
... CLUSTER BY`` re-keys physical layout without a table copy,
/root/reference/utilities/post_setup_ocsf_tables.py:40-53); hash-partition
count and partition key are the equivalent layout decisions for this
engine, and growing a table 1000× makes the original partition count wrong.

Shape: one streaming pass — scan the current snapshot, route every batch
by the NEW spec through the shared staging writer (stateless writer tasks,
per-file stats + blooms recomputed), then ONE atomic commit that
swaps in the new file set and the new spec. Readers pinned to older
snapshots keep the old layout (specs are per-snapshot metadata); time
travel across the respec works because each snapshot carries its own spec.
Routing is a map-side exchange of whole batches — no sort; within-file
order restores via ``sort_within_file`` (default (conv_id, turn_idx), the
scan-order invariant).
"""

from __future__ import annotations

from ..table import Table


def repartition_table(
    table: Table,
    new_spec: str,
    *,
    sort_within_file: list[str] | None = ("conv_id", "turn_idx"),
    use_actor: bool = False,
) -> int:
    """Rewrite the whole table under ``new_spec``; returns the snapshot id.

    A no-op (returns the current id) when the spec is unchanged.
    """
    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    if meta["partition_spec"] == new_spec:
        return parent
    swf = [c for c in (sort_within_file or ()) if c in meta["schema"].names] or None
    added = table.stage_dataset_files(
        table.scan(snapshot=(ents, meta)),
        sort_within_file=swf,
        name_prefix="rs",
        spec=new_spec,
        meta=meta,
    )
    return table.commit(
        added=added,
        removed=ents["path"].to_pylist(),
        operation=f"respec:{new_spec}",
        expected_parent=parent,
        use_actor=use_actor,
        new_partition_spec=new_spec,
        changes=[],  # content-preserving: no row changed
    )
