"""Row-level DELETE WHERE — stats-driven file skipping, deletion vectors.

Reference analog: Delta row-level DML the reference enables via table flags
(``delta.enableDeletionVectors`` / DML feature flags,
/root/reference/transformations/mappings/ocsf/iam/gold_github_audit_logs.py:36-37,
utilities/utils.py:90-95). For ``DELETE WHERE lo <= col <= hi`` the
manifest stats partition the live files into three classes —

    disjoint   (max < lo or min > hi)          → untouched, zero IO
    contained  (lo <= min, max <= hi, 0 nulls) → DROPPED from the manifest
                                                 without being read — the
                                                 file-level fast path that
                                                 makes retention deletes on a
                                                 time-clustered table O(files)
    straddling (everything else / no stats)    → read by the shared bin
                                                 machinery (byte-capped bins,
                                                 lineage resume, LPT order),
                                                 where each file takes
                                                 MERGE's rule: untouched,
                                                 deleted positions recorded,
                                                 folded past the cap, or
                                                 removed when emptied

The classes are masks over the column's bounds (``manifest.col_bounds``).
Timestamp columns compare as int64 µs — the exact representation the
manifest stats store for the engine's tables.
"""

from __future__ import annotations

import pyarrow.compute as pc

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
    ents, meta = table.snapshot(parent)
    by_path = rewrite.entries_by_path(ents)

    # an unknown bound (no stats) is neither disjoint nor contained: rewritten
    cmin, cmax, nulls = manifest.col_bounds(ents, col)
    disjoint = pc.fill_null(pc.or_kleene(pc.less(cmax, lo), pc.greater(cmin, hi)), False)
    contained = pc.fill_null(
        pc.and_(
            pc.and_(pc.greater_equal(cmin, lo), pc.less_equal(cmax, hi)),
            pc.equal(nulls, 0),
        ),
        False,
    )
    dropped = ents["path"].filter(contained).to_pylist()  # file-level delete, no read
    straddle = pc.invert(pc.or_(disjoint, contained))
    straddling: dict[str, list[str]] = {}  # partition -> paths
    for part, path in zip(
        ents["partition"].filter(straddle).to_pylist(), ents["path"].filter(straddle).to_pylist()
    ):
        straddling.setdefault(part, []).append(path)

    params = f"delete:{col}:{lo}:{hi}"
    bin_cap = max(table.config.target_file_bytes, 1)
    units: list[dict] = []
    for part in sorted(straddling):
        units.extend(
            rewrite.make_bin(b, part, by_path, params=params)
            for b in rewrite.pack_bins(straddling[part], by_path, bin_cap)
        )

    if not units and not dropped:
        return parent  # nothing matches: no new snapshot

    job_id = lineage.job_id_for("delete", parent, params)
    out = rewrite.run_bins(
        table,
        units,
        job_id,
        concurrency=concurrency,
        schema=meta["schema"],
        stats_cols=manifest.stats_cols(meta),
        sort_key=["conv_id", "turn_idx"],
        delete_range=(col, lo, hi),
        fail_after=fail_after,
    )
    added, removed, changes = rewrite.dml_entries(ents, units, out)
    # contained files leave whole: the change record names them (with their
    # deleted positions) as removed
    changes += manifest.change_items((by_path[p] for p in dropped), manifest.WHOLE_REMOVED)
    return table.commit(
        added=added if added.num_rows else None,
        removed=dropped + removed,
        operation="delete",
        expected_parent=parent,
        use_actor=use_actor,
        job_id=job_id,
        changes=changes,
    )
