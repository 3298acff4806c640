"""Arrow-backed snapshot / manifest log.

The engine's analog of the Delta transaction log the reference relies on
(table properties + optimistic concurrency:
/root/reference/utilities/utils.py:85-96, pre-created minimal schemas to
dodge first-write metadata races pre_setup_ocsf_tables.py:103-107), designed
after the Delta Lake VLDB'20 protocol concepts but implemented fresh:

    <table>/_manifest/snap-<N>.parquet   one row per live data file:
        path, partition, rows, bytes, stats (JSON: per-column min/max/nulls)
    <table>/_manifest/CURRENT            text pointer, swapped atomically

Snapshot files are created EXCLUSIVELY (write tmp + os.link) so concurrent
committers conflict on snapshot-id allocation instead of corrupting state;
the pointer swap is ``os.replace`` (atomic on POSIX). Readers pin a snapshot
id → snapshot isolation; expiry deletes files unreferenced by retained
snapshots (stages/expire.py).
"""

from __future__ import annotations

import base64
import json
import os
import time

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

ENTRY_SCHEMA = pa.schema(
    [
        ("path", pa.string()),        # relative to table dir
        ("partition", pa.string()),   # e.g. "part-3", "" when unpartitioned
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        ("stats", pa.string()),       # JSON {col: {"min":v,"max":v,"nulls":n}}
    ]
)

MANIFEST_DIR = "_manifest"
_STR_TRUNC = 64

#: change files (Delta ``_change_data`` analog): rows a MERGE/DELETE rewrite
#: dropped or appended, labelled by a ``change`` column. They are named by
#: the committing snapshot's change record, never by its live-file entries.
CHANGE_DIR = "_change_data"

#: ``side`` of a change-record item ``[path, side, rows, bytes]``: a change
#: file signs each row by its ``change`` column; a whole data file counts
#: every row as removed (-1) or added (+1)
CHANGE_FILE, WHOLE_REMOVED, WHOLE_ADDED = 0, -1, 1


def empty_entries() -> pa.Table:
    return ENTRY_SCHEMA.empty_table()


# -- per-file column statistics ---------------------------------------------

def _plain(v):
    """JSON-safe scalar from an Arrow scalar."""
    if v is None:
        return None
    if isinstance(v, pa.Scalar):
        if not v.is_valid:
            return None
        t = v.type
        if pa.types.is_timestamp(t):
            return v.cast(pa.int64()).as_py()  # store timestamps as int us
        if pa.types.is_date(t):
            return v.cast(pa.int32()).as_py()
        return v.as_py()
    return v


def truncate_min(s: str) -> str:
    return s[:_STR_TRUNC]


def truncate_max(s: str) -> str | None:
    """Shortened string that is still an UPPER bound (Iceberg-style bump)."""
    if len(s) <= _STR_TRUNC:
        return s
    t = s[:_STR_TRUNC]
    for i in range(len(t) - 1, -1, -1):
        c = ord(t[i])
        if c < 0x10FFFF:
            return t[:i] + chr(c + 1)
    return None  # unbounded


#: bloom-filter parameters for string stats columns (Delta bloom-index
#: analog): m bits / k probes, only built when the file's distinct count
#: stays under BLOOM_MAX_DISTINCT (load ≤ ~0.25 → fpr ≈ 2-7%). Hashing is
#: the engine's stable blake2b hash64, split into two 32-bit halves for
#: double hashing — writer/reader must agree forever, so these are
#: protocol constants, not config.
BLOOM_BITS = 4096
BLOOM_K = 3
BLOOM_MAX_DISTINCT = 4096


def _bloom_positions(value: str) -> list[int]:
    from ..hashing import hash64_str

    h = hash64_str(value)
    h1, h2 = h & 0xFFFFFFFF, (h >> 32) | 1
    return [(h1 + i * h2) % BLOOM_BITS for i in range(BLOOM_K)]


def bloom_build(values) -> str | None:
    """base64 bloom of the distinct string values, or None if too many.
    Bit positions are computed with vectorized numpy double-hashing —
    bit-identical to _bloom_positions (h1 + i*h2 stays < 2^34, no wrap)."""
    import numpy as np

    from ..hashing import hash64_str

    if len(values) > BLOOM_MAX_DISTINCT:
        return None
    bits = np.zeros(BLOOM_BITS // 8, dtype=np.uint8)
    hs = np.fromiter(
        (hash64_str(v) for v in values if v is not None), dtype=np.uint64
    )
    if len(hs):
        h1 = hs & np.uint64(0xFFFFFFFF)
        h2 = (hs >> np.uint64(32)) | np.uint64(1)
        ks = np.arange(BLOOM_K, dtype=np.uint64)
        pos = ((h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(BLOOM_BITS)).reshape(-1)
        p = pos.astype(np.int64)
        np.bitwise_or.at(bits, p >> 3, (np.uint8(1) << (p & 7).astype(np.uint8)))
    return base64.b64encode(bits.tobytes()).decode()


def bloom_may_contain(b64: str, value: str) -> bool:
    bits = base64.b64decode(b64)
    return all(bits[p >> 3] & (1 << (p & 7)) for p in _bloom_positions(value))


def compute_stats(table: pa.Table, cols: list[str] | None = None) -> dict:
    """min/max/null-count per (primitive) column — Delta file-stats analog.
    String stats columns additionally carry a small bloom filter of the
    file's distinct values (when bounded), so EQUALITY predicates can skip
    files whose [min, max] range overlaps but which don't hold the key —
    the pre-clustering case where every file spans a wide key range."""
    out = {}
    names = cols if cols is not None else table.schema.names
    for name in names:
        if name not in table.schema.names:
            continue
        col = table[name]
        t = col.type
        if not (
            pa.types.is_integer(t)
            or pa.types.is_floating(t)
            or pa.types.is_string(t)
            or pa.types.is_timestamp(t)
            or pa.types.is_date(t)
            or pa.types.is_boolean(t)
        ):
            continue
        nulls = col.null_count
        if len(col) == nulls:
            out[name] = {"min": None, "max": None, "nulls": nulls}
            continue
        mm = pc.min_max(col)
        lo, hi = _plain(mm["min"]), _plain(mm["max"])
        if isinstance(lo, str):
            lo = truncate_min(lo)
        if isinstance(hi, str):
            hi = truncate_max(hi)
        out[name] = {"min": lo, "max": hi, "nulls": nulls}
        if pa.types.is_string(t) and not os.environ.get("ENGINE_DISABLE_BLOOMS"):
            # env gate: lets the bench isolate bloom-build cost on the
            # write path (readers treat a missing bloom as "may contain")
            uniq = pc.unique(
                col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
            )
            if len(uniq) <= BLOOM_MAX_DISTINCT:  # skip to_pylist when over
                bloom = bloom_build(uniq.to_pylist())
                if bloom is not None:
                    out[name]["bloom"] = bloom
    return out


def entry_for(path: str, partition: str, table: pa.Table, nbytes: int, stats_cols=None) -> dict:
    return {
        "path": path,
        "partition": partition,
        "rows": table.num_rows,
        "bytes": nbytes,
        "stats": json.dumps(compute_stats(table, stats_cols), sort_keys=True),
    }


def prune(entries: pa.Table, predicates: dict[str, tuple] | None) -> pa.Table:
    """Keep entries whose stats ranges may overlap [lo, hi] per column.

    ``predicates[col] = (lo, hi)`` with None = unbounded; timestamps as int
    microseconds. Files with no stats for a column are conservatively kept.
    """
    if not predicates or entries.num_rows == 0:
        return entries
    keep = []
    for s in entries["stats"].to_pylist():
        st = json.loads(s) if s else {}
        ok = True
        for col, (lo, hi) in predicates.items():
            cs = st.get(col)
            if not cs:
                continue
            cmin, cmax = cs.get("min"), cs.get("max")
            if lo is not None and cmax is not None and cmax < lo:
                ok = False
                break
            if hi is not None and cmin is not None and cmin > hi:
                ok = False
                break
            # equality point lookup: bloom skips files whose range overlaps
            # but which never contained the key
            if (
                lo is not None
                and lo == hi
                and isinstance(lo, str)
                and cs.get("bloom")
                and not bloom_may_contain(cs["bloom"], lo)
            ):
                ok = False
                break
        keep.append(ok)
    return entries.filter(pa.array(keep))


# -- snapshot files ---------------------------------------------------------

def _mdir(table_dir: str) -> str:
    return os.path.join(table_dir, MANIFEST_DIR)


def snap_name(snapshot_id: int) -> str:
    return f"snap-{snapshot_id:08d}.parquet"


def snap_path(table_dir: str, snapshot_id: int) -> str:
    return os.path.join(_mdir(table_dir), snap_name(snapshot_id))


def try_write_snapshot(
    table_dir: str,
    snapshot_id: int,
    entries: pa.Table,
    *,
    parent_id: int | None,
    operation: str,
    schema: pa.Schema,
    partition_spec: str,
    extra: dict | None = None,
) -> bool:
    """Exclusively create snap-<id>.parquet. False ⇒ id already taken."""
    os.makedirs(_mdir(table_dir), exist_ok=True)
    meta = {
        b"engine.snapshot_id": str(snapshot_id).encode(),
        b"engine.parent_id": str(parent_id if parent_id is not None else -1).encode(),
        b"engine.operation": operation.encode(),
        b"engine.partition_spec": partition_spec.encode(),
        b"engine.table_schema": base64.b64encode(schema.serialize().to_pybytes()),
        b"engine.created_at": repr(time.time()).encode(),
    }
    if extra:
        for k, v in extra.items():
            meta[f"engine.x.{k}".encode()] = str(v).encode()
    entries = entries.cast(ENTRY_SCHEMA).replace_schema_metadata(meta)
    final = snap_path(table_dir, snapshot_id)
    tmp = final + f".tmp.{os.getpid()}.{time.monotonic_ns()}"
    pq.write_table(entries, tmp, compression="zstd")
    try:
        os.link(tmp, final)  # atomic, fails if another committer won the id
        return True
    except FileExistsError:
        return False
    finally:
        os.unlink(tmp)


def read_snapshot(table_dir: str, snapshot_id: int) -> tuple[pa.Table, dict]:
    t = pq.read_table(snap_path(table_dir, snapshot_id))
    raw = t.schema.metadata or {}
    meta = {k.decode(): v.decode() for k, v in raw.items() if k.startswith(b"engine.")}
    meta["snapshot_id"] = int(meta.get("engine.snapshot_id", snapshot_id))
    meta["parent_id"] = int(meta.get("engine.parent_id", -1))
    meta["operation"] = meta.get("engine.operation", "")
    meta["partition_spec"] = meta.get("engine.partition_spec", "none")
    sb = raw.get(b"engine.table_schema")
    meta["schema"] = pa.ipc.read_schema(pa.BufferReader(base64.b64decode(sb))) if sb else None
    return t.replace_schema_metadata(None), meta


def snapshot_extra(table_dir: str, snapshot_id: int) -> dict[str, str]:
    """``engine.x.*`` metadata of one snapshot — footer-only read (no data
    pages), so scanning the retained snapshot set for e.g. consumed-ingest
    records is cheap."""
    sch = pq.read_schema(snap_path(table_dir, snapshot_id))
    raw = sch.metadata or {}
    out = {}
    for k, v in raw.items():
        if k.startswith(b"engine.x."):
            out[k.decode()[len("engine.x."):]] = v.decode()
    return out


def change_items(entries, side: int) -> list[list]:
    """Change-record items for entries shaped like manifest rows (dicts with
    ``path``, ``rows`` and ``bytes``), all on one ``side``."""
    return [[e["path"], side, int(e["rows"]), int(e["bytes"])] for e in entries]


def change_record(table_dir: str, snapshot_id: int) -> list[list] | None:
    """The snapshot's change record: ``[path, side, rows, bytes]`` items
    whose signed rows sum to the commit's content change, or None when the
    commit stored none (its whole-file diff is then its change set)."""
    raw = snapshot_extra(table_dir, snapshot_id).get("changes")
    return None if raw is None else json.loads(raw)


def list_snapshot_ids(table_dir: str) -> list[int]:
    d = _mdir(table_dir)
    if not os.path.isdir(d):
        return []
    out = []
    for f in os.listdir(d):
        if f.startswith("snap-") and f.endswith(".parquet") and ".tmp." not in f:
            out.append(int(f[5:-8]))
    return sorted(out)


# -- CURRENT pointer --------------------------------------------------------

def current_id(table_dir: str) -> int | None:
    p = os.path.join(_mdir(table_dir), "CURRENT")
    try:
        with open(p) as f:
            return int(f.read().strip())
    except (FileNotFoundError, ValueError):
        return None


def set_current(table_dir: str, snapshot_id: int) -> None:
    """Atomic, monotonic pointer swap (never moves backwards).

    The read-check-replace sequence is serialized with an ``flock`` on a
    sidecar lock file: without it, writer A (snap N) could ``os.replace`` the
    pointer back OVER writer B's already-published snap N+1 between A's read
    and A's replace — B's durable commit would become invisible and every
    later commit would collide on the N+1 id forever. With the lock, the
    check ``cur >= snapshot_id`` and the replace are one critical section.
    (Multi-node deployments route commits through the metastore actor, which
    serializes them; this lock covers same-host multi-process committers.)
    """
    import fcntl

    os.makedirs(_mdir(table_dir), exist_ok=True)
    p = os.path.join(_mdir(table_dir), "CURRENT")
    with open(p + ".lock", "w") as lf:
        fcntl.flock(lf, fcntl.LOCK_EX)
        cur = current_id(table_dir)
        if cur is not None and cur >= snapshot_id:
            return
        tmp = p + f".tmp.{os.getpid()}.{time.monotonic_ns()}"
        with open(tmp, "w") as f:
            f.write(str(snapshot_id))
            f.flush()
            os.fsync(f.fileno())
        os.replace(tmp, p)
