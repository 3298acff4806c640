"""Bin-packing small-file compaction.

Analog of the reference's declarative auto-compaction
(``delta.autoOptimize.optimizeWrite`` / ``autoCompact``,
/root/reference/utilities/utils.py:86-87) made an explicit, resumable Ray
job. The plan is computed driver-side FROM THE MANIFEST ONLY (a few KB —
never the data): per partition, files smaller than
``small_file_fraction × target_file_bytes`` are greedily first-fit packed
into bins capped at ``target_file_bytes``; each bin rewrites independently as
a task with a per-file sort on (conv_id, turn_idx) — no shuffle at
any point, which is why this op scales near-linearly with cores/nodes.
"""

from __future__ import annotations

import json

import pyarrow as pa

from ..config import EngineConfig
from ..state import lineage, manifest
from ..table import Table
from . import rewrite


def plan_compaction(
    ents: pa.Table, cfg: EngineConfig, *, partitions: list[str] | None = None
) -> list[dict]:
    """Bin descriptors from a snapshot's manifest entries: small files
    only, and single-file bins are skipped (nothing to gain). ``partitions``
    scopes the plan to named partitions (the OPTIMIZE WHERE analog: maintain
    a hot slice without touching the rest of a 10^12-row table)."""
    by_path = rewrite.entries_by_path(ents)
    threshold = cfg.small_file_fraction * cfg.target_file_bytes
    small: dict[str, list[str]] = {}
    for r in by_path.values():
        if r["bytes"] < threshold and (partitions is None or r["partition"] in partitions):
            small.setdefault(r["partition"], []).append(r["path"])
    return [
        rewrite.make_bin(b, part, by_path)
        for part in sorted(small)
        for b in rewrite.pack_bins(small[part], by_path, cfg.target_file_bytes)
        if len(b) > 1
    ]


def compact(
    table: Table,
    *,
    sort_key: list[str] | None = None,
    concurrency: int | None = None,
    use_actor: bool = False,
    fail_after: int | None = None,
    partitions: list[str] | None = None,
) -> int | None:
    """Run compaction; returns the new snapshot id (None if nothing to do).

    Resume: the job id derives from the parent snapshot, so a re-run after a
    crash re-plans the identical bins, finds completed units in the lineage
    checkpoint and only rewrites the remainder.
    """
    from .. import schema as schema_mod

    parent = table.current_snapshot_id()
    ents, meta = table.snapshot(parent)
    bins = plan_compaction(ents, table.config, partitions=partitions)
    if not bins:
        return None
    sch = meta["schema"]
    if sort_key is None:
        sort_key = schema_mod.sort_key(sch) if sch is not None else []
    job_id = lineage.job_id_for(
        "compact", parent, ",".join(sorted(partitions)) if partitions else ""
    )
    added = rewrite.run_bins(
        table,
        bins,
        job_id,
        concurrency=concurrency,
        schema=sch,
        stats_cols=manifest.stats_cols(meta),
        sort_key=sort_key,
        fail_after=fail_after,
    )
    removed = [p for b in bins for p in json.loads(b["inputs_json"])]
    return table.commit(
        added=added,
        removed=removed,
        operation="compact",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        changes=[],  # content-preserving: no row changed
    )
