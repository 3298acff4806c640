"""Arrow-backed snapshot / manifest log.

The engine's analog of the Delta transaction log the reference relies on
(table properties + optimistic concurrency:
/root/reference/utilities/utils.py:85-96, pre-created minimal schemas to
dodge first-write metadata races pre_setup_ocsf_tables.py:103-107), designed
after the Delta Lake VLDB'20 protocol concepts but implemented fresh:

    <table>/_manifest/snap-<N>.parquet   one row per live data file:
        path, partition, rows, bytes, stats (typed: per-column
        min/max/nulls and a bloom, the ``stats_parsed`` form of a Delta
        checkpoint)
    <table>/_manifest/CURRENT            text pointer, swapped atomically

Snapshot files are created EXCLUSIVELY (write tmp + os.link) so concurrent
committers conflict on snapshot-id allocation instead of corrupting state;
the pointer swap is ``os.replace`` (atomic on POSIX). Readers pin a snapshot
id → snapshot isolation; expiry deletes files unreferenced by retained
snapshots (stages/expire.py).

This module owns the stats layout: writers build it with ``compute_stats``
and every reader goes through ``col_stats`` (``col_bounds``,
``may_overlap`` and ``bloom_may_contain`` build on it), so pruning,
MERGE/DELETE file planning and clustering ranges are Arrow compute over
whole columns, never a per-file decode.
"""

from __future__ import annotations

import base64
import json
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: bloom-filter parameters for string stats columns (Delta bloom-index
#: analog): m bits / k probes, only built when the file's distinct count
#: stays under BLOOM_MAX_DISTINCT (load ≤ ~0.25 → fpr ≈ 2-7%). Hashing is
#: the engine's stable blake2b hash64, split into two 32-bit halves for
#: double hashing — writer/reader must agree forever, so these are
#: protocol constants, not config.
BLOOM_BITS = 4096
BLOOM_K = 3
BLOOM_MAX_DISTINCT = 4096

#: one column's stats in one file. Integers, booleans, dates and timestamps
#: are int64 ``min_i``/``max_i`` (dates in days, timestamps in their unit,
#: µs for the engine's tables); floats are ``min_f``/``max_f``; strings are
#: ``min_s``/``max_s``, cut to ``_STR_TRUNC`` chars (``max_s`` is null when
#: no cut bound exists), plus the raw bits of a bloom of the file's distinct
#: values when there are few enough. A null bound means "unknown".
COL_STATS = pa.struct(
    [
        ("nulls", pa.int64()),
        ("min_i", pa.int64()),
        ("max_i", pa.int64()),
        ("min_f", pa.float64()),
        ("max_f", pa.float64()),
        ("min_s", pa.string()),
        ("max_s", pa.string()),
        ("bloom", pa.binary(BLOOM_BITS // 8)),
    ]
)

ENTRY_SCHEMA = pa.schema(
    [
        ("path", pa.string()),        # relative to table dir
        ("partition", pa.string()),   # e.g. "part-3", "" when unpartitioned
        ("rows", pa.int64()),
        ("bytes", pa.int64()),
        ("stats", pa.map_(pa.string(), COL_STATS)),  # column -> COL_STATS
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


def collect_entries(ds, schema: pa.Schema = ENTRY_SCHEMA) -> pa.Table:
    """The entries a writer stage emits, one small row per written file,
    gathered on the driver as one Arrow table: the stage's blocks are
    concatenated with no Python-row round trip (empty blocks may carry no
    schema and are skipped) and combined into one chunk, as the writers'
    own entry tables are: left as many tiny chunks, they raised perfbench
    medallion's peak RSS by ~30 MB. Not ``to_arrow_refs``: it runs the
    stage a second time on one batch to fetch the schema, which would
    write that batch's files twice."""
    blocks = ds.iter_batches(batch_size=None, batch_format="pyarrow")
    return pa.concat_tables(
        [schema.empty_table()] + [b for b in blocks if b.num_rows]
    ).combine_chunks()


# -- per-file column statistics: the writer ---------------------------------

def _kind(t: pa.DataType) -> str | None:
    """COL_STATS field suffix a column's bounds live in (None: no stats)."""
    if pa.types.is_string(t):
        return "s"
    if pa.types.is_floating(t):
        return "f"
    if (
        pa.types.is_integer(t)
        or pa.types.is_boolean(t)
        or pa.types.is_timestamp(t)
        or pa.types.is_date(t)
    ):
        return "i"
    return None


def _int_bound(v: pa.Scalar) -> int:
    if pa.types.is_date(v.type):
        v = v.cast(pa.int32())  # days
    return v.cast(pa.int64()).as_py()


def truncate_min(s: str) -> str:
    return s[:_STR_TRUNC]


def truncate_max(s: str) -> str | None:
    """Shortened string that is still an UPPER bound (Iceberg-style bump)."""
    if len(s) <= _STR_TRUNC:
        return s
    t = s[:_STR_TRUNC]
    for i in range(len(t) - 1, -1, -1):
        c = ord(t[i]) + 1
        if c == 0xD800:  # surrogates are not valid UTF-8: bump past them
            c = 0xE000
        if c <= 0x10FFFF:
            return t[:i] + chr(c)
    return None  # unbounded


def _bloom_positions(hs: np.ndarray) -> np.ndarray:
    """(len(hs), BLOOM_K) bit positions of uint64 hashes by double hashing
    (h1 + i*h2 stays < 2^34, so there is no wrap)."""
    h1 = hs & np.uint64(0xFFFFFFFF)
    h2 = (hs >> np.uint64(32)) | np.uint64(1)
    ks = np.arange(BLOOM_K, dtype=np.uint64)
    pos = (h1[:, None] + ks[None, :] * h2[:, None]) % np.uint64(BLOOM_BITS)
    return pos.astype(np.int64)


def bloom_build(values: list[str]) -> bytes:
    """Bloom bits of distinct string values (None values are skipped)."""
    from ..hashing import hash64_str

    bits = np.zeros(BLOOM_BITS // 8, dtype=np.uint8)
    hs = np.fromiter((hash64_str(v) for v in values if v is not None), dtype=np.uint64)
    p = _bloom_positions(hs).reshape(-1)
    np.bitwise_or.at(bits, p >> 3, (np.uint8(1) << (p & 7).astype(np.uint8)))
    return bits.tobytes()


def compute_stats(table: pa.Table, cols: list[str] | None = None) -> dict:
    """``{column: COL_STATS fields}`` for the entry's ``stats`` map — Delta
    file-stats analog; ``cols`` empty or None means every column. String
    columns also carry a small bloom of the file's distinct values (when
    bounded), so EQUALITY predicates can skip files whose [min, max] range
    overlaps but which don't hold the key — the pre-clustering case where
    every file spans a wide key range."""
    out = {}
    for name in cols or table.schema.names:
        if name not in table.schema.names:
            continue
        col = table[name]
        kind = _kind(col.type)
        if kind is None:
            continue
        cs = out[name] = {"nulls": col.null_count}
        if col.null_count == len(col):
            continue
        mm = pc.min_max(col)
        if kind == "i":
            cs["min_i"], cs["max_i"] = _int_bound(mm["min"]), _int_bound(mm["max"])
        elif kind == "f":
            cs["min_f"], cs["max_f"] = mm["min"].as_py(), mm["max"].as_py()
        else:
            cs["min_s"] = truncate_min(mm["min"].as_py())
            cs["max_s"] = truncate_max(mm["max"].as_py())
            uniq = pc.unique(col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col)
            if len(uniq) <= BLOOM_MAX_DISTINCT:
                cs["bloom"] = bloom_build(uniq.to_pylist())
    return out


def entry_for(path: str, partition: str, table: pa.Table, nbytes: int, stats_cols=None) -> dict:
    return {
        "path": path,
        "partition": partition,
        "rows": table.num_rows,
        "bytes": nbytes,
        "stats": compute_stats(table, stats_cols),
    }


# -- per-file column statistics: the reader ---------------------------------

def col_stats(entries: pa.Table, col: str) -> dict[str, pa.Array]:
    """COL_STATS field -> one value per entry (null where the entry has no
    stats for ``col``): the raw view ``col_bounds`` and ``bloom_may_contain``
    read."""
    found = pc.map_lookup(entries["stats"], pa.scalar(col), "first").combine_chunks()
    # StructArray.flatten folds the struct's own nulls into every field
    return dict(zip((f.name for f in COL_STATS), found.flatten()))


def col_bounds(entries: pa.Table, col: str) -> tuple[pa.Array, pa.Array, pa.Array]:
    """(lo, hi, nulls) of ``col`` per entry, typed by the column's kind
    (int64 for ints, bools, dates and timestamps; float64; string), or
    null-typed when no entry has bounds for it. A null bound is unknown and
    must be read as unbounded."""
    f = col_stats(entries, col)
    for k in "ifs":
        if f[f"min_{k}"].null_count < len(entries):
            return f[f"min_{k}"], f[f"max_{k}"], f["nulls"]
    return pa.nulls(len(entries)), pa.nulls(len(entries)), f["nulls"]


def bloom_may_contain(entries: pa.Table, col: str, value: str) -> np.ndarray:
    """Per entry: False only when its bloom for ``col`` proves ``value``
    absent. One numpy pass over the bloom bits of every entry."""
    from ..hashing import hash64_str

    blooms = col_stats(entries, col)["bloom"]
    out = np.ones(len(blooms), bool)
    has = blooms.is_valid().to_numpy(zero_copy_only=False)
    if not has.any():
        return out
    b = blooms.filter(pa.array(has))
    nb = BLOOM_BITS // 8
    bits = np.frombuffer(
        b.buffers()[1], np.uint8, count=len(b) * nb, offset=b.offset * nb
    ).reshape(len(b), nb)
    pos = _bloom_positions(np.array([hash64_str(value)], np.uint64))[0]
    masks = np.uint8(1) << (pos & 7).astype(np.uint8)
    out[has] = ((bits[:, pos >> 3] & masks) != 0).all(axis=1)
    return out


def may_overlap(entries: pa.Table, col: str, lo, hi) -> pa.BooleanArray:
    """Per entry: whether ``col``'s [min, max] can meet [lo, hi]. ``lo`` /
    ``hi`` are scalars or per-entry arrays; None or null is unbounded, and
    so is an unknown stats bound."""
    cmin, cmax, _ = col_bounds(entries, col)
    out = pa.array(np.ones(len(entries), bool))
    for bound, cmp, side in ((lo, pc.greater_equal, cmax), (hi, pc.less_equal, cmin)):
        if bound is not None:
            out = pc.and_(out, pc.fill_null(cmp(side, bound), True))
    return out


def prune(entries: pa.Table, predicates: dict[str, tuple] | None) -> pa.Table:
    """Keep entries whose stats ranges may overlap [lo, hi] per column.

    ``predicates[col] = (lo, hi)`` with None = unbounded; timestamps as int
    microseconds. Unknown bounds (no stats for the column, a string max
    without a cut bound) keep the file. An equality bound on a string
    column then probes the surviving files' blooms.
    """
    if not predicates or entries.num_rows == 0:
        return entries
    keep = pa.array(np.ones(entries.num_rows, bool))
    for col, (lo, hi) in predicates.items():
        keep = pc.and_(keep, may_overlap(entries, col, lo, hi))
    kept = entries.filter(keep)
    for col, (lo, hi) in predicates.items():
        if isinstance(lo, str) and lo == hi and kept.num_rows:
            kept = kept.filter(pa.array(bloom_may_contain(kept, col, lo)))
    return kept


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


def stats_cols(meta: dict) -> list[str]:
    """The stats columns a snapshot's writers compute (``read_snapshot``
    metadata); empty means every column."""
    raw = meta.get("engine.x.stats_cols")
    if raw:
        try:
            return json.loads(raw)
        except ValueError:
            pass
    sch = meta["schema"]
    return list(sch.names) if sch is not None else []


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
