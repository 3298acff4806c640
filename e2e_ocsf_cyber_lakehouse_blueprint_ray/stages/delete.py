"""Row-level DELETE WHERE — copy-on-write with stats-driven file skipping.

Reference analog: Delta row-level DML the reference enables via table flags
(``delta.enableDeletionVectors`` / DML feature flags,
/root/reference/transformations/mappings/ocsf/iam/gold_github_audit_logs.py:36-37,
utilities/utils.py:90-95). We implement the copy-on-write form (no deletion
vectors): for ``DELETE WHERE lo <= col <= hi`` the manifest stats partition
the live files into three classes —

    disjoint   (max < lo or min > hi)          → untouched, zero IO
    contained  (lo <= min, max <= hi, 0 nulls) → DROPPED from the manifest
                                                 without being read — the
                                                 file-level fast path that
                                                 makes retention deletes on a
                                                 time-clustered table O(files)
    straddling (everything else / no stats)    → rewritten without matching
                                                 rows via the shared bin
                                                 machinery (byte-capped bins,
                                                 lineage resume, LPT order)

Timestamp columns compare as int64 µs — the exact representation the
manifest stats store (state/manifest.py::_plain).
"""

from __future__ import annotations

import json

from ..state import lineage, manifest
from ..table import Table
from . import rewrite


def delete_where(
    table: Table,
    col: str,
    lo,
    hi,
    *,
    concurrency: int | None = None,
    use_actor: bool = False,
    fail_after: int | None = None,
) -> int:
    """Delete all rows with ``lo <= col <= hi``; returns the new snapshot id.

    ``lo``/``hi`` use the manifest-stats representation (int64 µs for
    timestamps). Files without stats for ``col`` are conservatively
    rewritten.
    """
    parent = table.current_snapshot_id()
    ents = table.entries(parent)
    by_path = {r["path"]: r for r in ents.to_pylist()}

    dropped: list[str] = []
    straddling: dict[str, list[str]] = {}  # partition -> paths
    for r in by_path.values():
        st = json.loads(r["stats"]) if r["stats"] else {}
        cs = st.get(col) or {}
        cmin, cmax = cs.get("min"), cs.get("max")
        nulls = cs.get("nulls", 0)
        if cmin is None or cmax is None:
            straddling.setdefault(r["partition"], []).append(r["path"])  # no stats
            continue
        if cmax < lo or cmin > hi:
            continue  # disjoint: untouched
        if lo <= cmin and cmax <= hi and nulls == 0:
            dropped.append(r["path"])  # contained: file-level delete, no read
        else:
            straddling.setdefault(r["partition"], []).append(r["path"])

    params = f"delete:{col}:{lo}:{hi}"
    bin_cap = max(table.config.target_file_bytes, 1)
    units: list[dict] = []
    rewritten: list[str] = []
    for part in sorted(straddling):
        paths = sorted(straddling[part])
        rewritten.extend(paths)
        bins: list[list[str]] = [[]]
        cur = 0
        for p in paths:
            if bins[-1] and cur + by_path[p]["bytes"] > bin_cap:
                bins.append([])
                cur = 0
            bins[-1].append(p)
            cur += by_path[p]["bytes"]
        units.extend(rewrite.make_bin(b, part, by_path, params=params) for b in bins)

    if not units and not dropped:
        return parent  # nothing matches: no new snapshot

    job_id = lineage.job_id_for("delete", parent, params)
    added = rewrite.run_bins(
        table,
        units,
        job_id,
        concurrency=concurrency,
        sort_mode="key",
        sort_key=["conv_id", "turn_idx"],
        delete_range=(col, lo, hi),
        fail_after=fail_after,
    )
    added, changes = rewrite.split_changes(added)
    # contained files leave whole: the change record names them as removed
    changes += manifest.change_items((by_path[p] for p in dropped), manifest.WHOLE_REMOVED)
    return table.commit(
        added=added if added.num_rows else None,
        removed=dropped + rewritten,
        operation="delete",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        changes=changes,
    )
