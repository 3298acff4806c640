"""Snapshot expiry (VACUUM analog) with snapshot isolation.

Readers pin a snapshot id (Table.scan(snapshot_id=...)); expiry retains the
last ``keep_last`` snapshots (plus any explicitly pinned ids) and deletes
(a) older snapshot files and (b) data and change files referenced ONLY by
expired snapshots — a snapshot references its live entries and the files
its change record names (``manifest.change_record``). The CURRENT pointer
itself is only ever moved by commits via atomic ``os.replace``
(state/manifest.py) — expiry never touches it, so a reader that resolved
CURRENT before an expiry still reads a retained snapshot.
Reference analog: Delta retention/VACUUM implied by the table
properties and deletion-vector flags (/root/reference/utilities/utils.py:85-96).
"""

from __future__ import annotations

import os

from ..state import manifest
from ..table import Table


def _referenced(table: Table, sid: int) -> list[str]:
    """Files snapshot ``sid`` needs: its live entries and its change files."""
    paths = manifest.read_snapshot(table.dir, sid)[0]["path"].to_pylist()
    return paths + [c[0] for c in manifest.change_record(table.dir, sid) or ()]


def expire_snapshots(
    table: Table,
    *,
    keep_last: int | None = None,
    pin: set[int] | None = None,
) -> dict:
    """Delete expired snapshots + newly-unreferenced data and change files.

    Returns {"expired": [...ids], "deleted_files": [...paths],
    "retained": [...ids]}.
    """
    keep = keep_last if keep_last is not None else table.config.keep_snapshots
    ids = manifest.list_snapshot_ids(table.dir)
    cur = table.current_snapshot_id()
    retained = set(ids[-keep:]) | {cur} | (pin or set())
    expired = [i for i in ids if i not in retained]

    live: set[str] = set()
    for sid in retained:
        live.update(_referenced(table, sid))

    deleted: list[str] = []
    for sid in expired:
        for p in _referenced(table, sid):
            if p in live:
                continue
            ap = os.path.join(table.dir, p)
            if os.path.exists(ap):
                os.unlink(ap)
                deleted.append(p)
            live.add(p)  # don't try twice
    for sid in expired:
        os.unlink(manifest.snap_path(table.dir, sid))
    return {"expired": expired, "deleted_files": deleted, "retained": sorted(retained)}


def remove_orphans(table: Table, *, all_snapshots: bool = True) -> list[str]:
    """Delete data and change files on disk referenced by NO (retained)
    snapshot — leftovers of crashed jobs whose commit never happened. Call
    only when no maintenance job is in flight (same contract as Delta
    VACUUM)."""
    ids = manifest.list_snapshot_ids(table.dir)
    live: set[str] = set()
    for sid in ids if all_snapshots else [table.current_snapshot_id()]:
        live.update(_referenced(table, sid))
    deleted = []
    for top in ("data", manifest.CHANGE_DIR):
        for root, _dirs, files in os.walk(os.path.join(table.dir, top)):
            for f in files:
                ap = os.path.join(root, f)
                rel = os.path.relpath(ap, table.dir)
                if rel not in live:
                    os.unlink(ap)
                    deleted.append(rel)
    return deleted
