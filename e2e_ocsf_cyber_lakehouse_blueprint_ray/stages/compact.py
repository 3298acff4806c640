"""Bin-packing small-file compaction.

Analog of the reference's declarative auto-compaction
(``delta.autoOptimize.optimizeWrite`` / ``autoCompact``,
/root/reference/utilities/utils.py:86-87) made an explicit, resumable Ray
job. The plan is computed driver-side FROM THE MANIFEST ONLY (a few KB —
never the data): per partition, files smaller than
``small_file_fraction × target_file_bytes`` are greedily first-fit packed
into bins capped at ``target_file_bytes``; each bin rewrites independently on
the actor pool with a per-file sort on (conv_id, turn_idx) — no shuffle at
any point, which is why this op scales near-linearly with cores/nodes.
"""

from __future__ import annotations

import json

from ..state import lineage
from ..table import Table
from . import rewrite


def plan_compaction(
    table: Table,
    *,
    recluster: bool = False,
    snapshot_id: int | None = None,
    partitions: list[str] | None = None,
) -> list[dict]:
    """Bin descriptors from manifest entries. ``recluster=True`` packs ALL
    files (used by per-partition clustering); otherwise only small files, and
    single-file bins are skipped (nothing to gain). ``partitions`` scopes
    the plan to named partitions (the OPTIMIZE WHERE analog: maintain a hot
    slice without touching the rest of a 10^12-row table)."""
    cfg = table.config
    ents = table.entries(snapshot_id)
    by_path = {
        r["path"]: r for r in ents.to_pylist()
    }
    by_part: dict[str, list[dict]] = {}
    for r in by_path.values():
        if partitions is not None and r["partition"] not in partitions:
            continue
        by_part.setdefault(r["partition"], []).append(r)

    threshold = cfg.small_file_fraction * cfg.target_file_bytes
    bins: list[dict] = []
    for part in sorted(by_part):
        files = sorted(by_part[part], key=lambda r: r["path"])
        if not recluster:
            files = [f for f in files if f["bytes"] < threshold]
        cur: list[str] = []
        cur_bytes = 0
        for f in files:
            if cur and cur_bytes + f["bytes"] > cfg.target_file_bytes:
                if recluster or len(cur) > 1:
                    bins.append(rewrite.make_bin(cur, part, by_path))
                cur, cur_bytes = [], 0
            cur.append(f["path"])
            cur_bytes += f["bytes"]
        if cur and (recluster or len(cur) > 1):
            bins.append(rewrite.make_bin(cur, part, by_path))
    return bins


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
    bins = plan_compaction(table, partitions=partitions)
    if not bins:
        return None
    if sort_key is None:
        sch = table.schema(parent)
        sort_key = schema_mod.sort_key(sch) if sch is not None else []
    job_id = lineage.job_id_for(
        "compact", parent, ",".join(sorted(partitions)) if partitions else ""
    )
    added = rewrite.run_bins(
        table,
        bins,
        job_id,
        concurrency=concurrency,
        sort_mode="key" if sort_key else "none",
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
