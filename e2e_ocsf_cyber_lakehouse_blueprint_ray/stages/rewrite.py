"""Shared file-rewrite machinery for the maintenance ops.

Compaction, per-partition clustering and MERGE all reduce to: take a BIN
(a set of whole input files within one partition, optionally plus extra
rows), produce sorted replacement files, record lineage, return manifest
entries. The bin is the unit of parallelism, retry and resume — this is why
compaction scales near-linearly: there is NO shuffle, just independent
bounded-size rewrite tasks (SURVEY.md §7 step 3).

Execution shape (``map_units``): a plan of at most ``DRIVER_MAX_BYTES`` of
inputs runs its units in the calling process, on a pool of
``rewrite_concurrency`` threads; a larger one is ``ray_map_units``'
``ray.data.from_items(bins).map_batches(rewrite_bin, concurrency=N)`` —
stateless tasks, a few bins each, on Ray's warm workers (no actor pool to
spin up). Both executors call the same unit function, so lineage, resume
and fault injection are one code path. The reference gets the same
bounded-file rewrites from ``delta.autoOptimize`` executors,
/root/reference/utilities/utils.py:86-87.

Idempotent resume: unit_id = blake2b(sorted inputs + params); a completed
unit's lineage record (state/lineage.py) short-circuits the work, and a unit
writes its files through ``Table.write_files`` with the unit id as the
prefix — deterministically named ``<unit_id>-<k>.parquet``, so a re-run
overwrites rather than duplicates (BASELINE.json north_rule: "resumable from
checkpoint with per-partition lineage").

Scatter units: a unit carrying ``bounds_json`` (a cluster job's key-range
boundaries) writes no data file, only one staging run file per key range.

Deletion vectors: a MERGE or DELETE unit (``BinRewriter._dml_unit``)
decides file by file. A file none of whose live rows match is left as it
is. One that keeps no live row is removed. One whose old plus new deleted
positions stay within ``manifest.DV_MAX_POSITIONS`` is not written: the
unit emits its entry with the new positions, and ``dml_entries`` gives it
the parent entry's bytes and stats on the driver. Any other is folded —
its live rows are rewritten, with the partition's MERGE upserts when the
unit carries them; a unit that folds nothing writes its upserts to one
small file. A MERGE unit row carries its partition's payload itself, as
Arrow IPC stream bytes: the source keys (``keys``) in every unit, the
upserts (``upserts``) in the partition's first unit only, so Ray Data ships
each task exactly the payload of the units it runs.

Change data: a MERGE or DELETE unit also writes ``<unit_id>-cdf.parquet``
under ``_change_data/`` — the rows it dropped ('removed') and the upserts it
appended ('added'), with a ``change`` column — and names it in its lineage
record. The change feed (stages/changes.py) reads these instead of diffing
the rewritten files.
"""

from __future__ import annotations

import json
import os
import threading
from collections.abc import Callable, Iterator
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..state import lineage, manifest
from ..state.manifest import ENTRY_SCHEMA
from ..table import Table, align_to, read_file

_ROW = "_row"


def _from_ipc(b: bytes | None) -> pa.Table | None:
    return None if b is None else pa.ipc.open_stream(b).read_all()


def _labelled(rows: pa.Table, change: str) -> pa.Table:
    return rows.append_column("change", pa.array([change] * rows.num_rows, pa.string()))


def dml_entries(
    ents: pa.Table, units: list[dict], out: pa.Table
) -> tuple[pa.Table, list[str], list[list]]:
    """(added entries, removed paths, change record) of a MERGE or DELETE
    from its units' ``run_bins`` output over the parent entries ``ents``.
    Change files ride in the output, told apart by their directory. An
    input the units emit with its parent positions is untouched; one
    emitted with new positions is removed and re-added as the parent entry
    with the unit's live rows and positions (stats stay those of the whole
    physical file); an input the units do not emit was folded or emptied,
    and is removed."""
    is_cf = pc.starts_with(out["path"], manifest.CHANGE_DIR + "/")
    changes = manifest.change_items(out.filter(is_cf).to_pylist(), manifest.CHANGE_FILE)
    data = out.filter(pc.invert(is_cf))
    inputs = {p for u in units for p in json.loads(u["inputs_json"])}
    is_input = pc.is_in(data["path"], value_set=pa.array(sorted(inputs), pa.string()))
    kept = data.filter(is_input)
    parent = dict(manifest.entry_keys(ents))
    moved = {p: d for p, d in manifest.entry_keys(kept) if d != parent[p]}
    removed = sorted(inputs - (set(kept["path"].to_pylist()) - moved.keys()))
    upd = ents.filter(pc.is_in(ents["path"], value_set=pa.array(sorted(moved), pa.string())))
    live = dict(zip(kept["path"].to_pylist(), kept["rows"].to_pylist()))
    paths = upd["path"].to_pylist()
    upd = upd.set_column(
        upd.schema.get_field_index("rows"), "rows", pa.array([live[p] for p in paths], pa.int64())
    ).set_column(
        upd.schema.get_field_index("deleted"),
        "deleted",
        pa.array([list(moved[p]) for p in paths], ENTRY_SCHEMA.field("deleted").type),
    )
    return pa.concat_tables([data.filter(pc.invert(is_input)), upd]), removed, changes


def limit_arrow_threads(n: int = 1, io: int = 2) -> None:
    """Pin Arrow's internal pools inside Ray workers. Each map task is one
    scheduling unit; with the default pool (= all cores) 32 concurrent tasks
    spawn ~32×32 compute threads and the box thrashes — measured as 4×
    cores running SLOWER at sf3. Idempotent, call at task start."""
    if pa.cpu_count() != n:
        pa.set_cpu_count(n)
    if pa.io_thread_count() != io:
        pa.set_io_thread_count(io)


class _DriverPool:
    """Arrow's CPU pool is process-wide. While driver-path plans run, it
    holds as many threads as their unit threads together; when the last one
    ends, the process gets back the CPU and IO pool sizes it had before the
    first began, also when a unit raised."""

    def __init__(self):
        self._lock = threading.Lock()
        self._threads = 0
        self._saved = (0, 0)

    @contextmanager
    def sized(self, threads: int) -> Iterator[None]:
        with self._lock:
            if not self._threads:
                self._saved = pa.cpu_count(), pa.io_thread_count()
            self._threads += threads
            pa.set_cpu_count(self._threads)
        try:
            yield
        finally:
            with self._lock:
                self._threads -= threads
                if self._threads:
                    pa.set_cpu_count(self._threads)
                else:
                    limit_arrow_threads(*self._saved)


_DRIVER_POOL = _DriverPool()


def entries_by_path(ents: pa.Table) -> dict[str, dict]:
    """``{path: its entry's partition, rows, bytes and deleted}``: the
    planning view of a snapshot's entries, without the stats."""
    cols = ["path", "partition", "rows", "bytes", "deleted"]
    return {r["path"]: r for r in ents.select(cols).to_pylist()}


def make_bin(inputs: list[str], partition: str, entries_by_path: dict, params: str = "") -> dict:
    """Bin descriptor row (plain dict → ray.data.from_items). ``deleted_json``
    maps each input with deleted positions to them, so the unit reads live
    rows only."""
    return {
        "unit_id": lineage.unit_id(inputs, params),
        "partition": partition,
        "inputs_json": json.dumps(sorted(inputs)),
        "deleted_json": json.dumps(
            {p: d for p in sorted(inputs) if (d := entries_by_path[p].get("deleted"))}
        ),
        "in_rows": int(sum(entries_by_path[p]["rows"] for p in inputs)),
        "in_bytes": int(sum(entries_by_path[p]["bytes"] for p in inputs)),
    }


def pack_bins(paths, by_path: dict, cap: int) -> list[list[str]]:
    """Greedy byte-capped bins over ``paths`` in sorted order: a file joins
    the current bin unless that would push the bin past ``cap`` bytes (a
    file larger than ``cap`` gets a bin of its own)."""
    bins: list[list[str]] = []
    cur_bytes = 0
    for p in sorted(paths):
        if not bins or cur_bytes + by_path[p]["bytes"] > cap:
            bins.append([])
            cur_bytes = 0
        bins[-1].append(p)
        cur_bytes += by_path[p]["bytes"]
    return bins


def rows_per_file(config: EngineConfig, in_rows: int, in_bytes: int) -> int:
    """Rows per output file so files of rows averaging ``in_bytes /
    in_rows`` land near ``target_file_bytes``, capped at
    ``max_rows_per_file``."""
    if in_rows <= 0 or in_bytes <= 0:
        return config.max_rows_per_file
    per_row = max(1.0, in_bytes / in_rows)
    return max(1, min(config.max_rows_per_file, int(config.target_file_bytes / per_row)))


class FailInjected(RuntimeError):
    """Raised by tests to simulate a mid-job crash."""


class BinRewriter:
    """Per-task callable: bin descriptor rows in → manifest entries out.

    ``schema`` / ``stats_cols``: the job's snapshot schema (inputs are
    aligned to it) and the stats columns of the files it writes, resolved
    once on the driver so no task re-reads the snapshot.

    Row order of the written files: by ``cluster_key(rows)`` — an int64
    key per row (clustering, stages/cluster.cluster_key) — when given, else
    by the columns of ``sort_key`` the rows have (compaction, merge), else
    input order.

    A unit row with ``keys`` is a MERGE unit: ``keys`` is a 2-column
    (conv_id, turn_idx) table anti-joined away, ``upserts`` (or None) the
    rows unioned into the bin, both as IPC stream bytes. ``delete_range``
    makes every unit a DELETE unit.
    """

    def __init__(
        self,
        table_dir: str,
        config: EngineConfig,
        job_id: str,
        *,
        schema: pa.Schema,
        stats_cols: list[str],
        sort_key: list[str] | None = None,
        cluster_key: Callable[[pa.Table], np.ndarray] | None = None,
        delete_range: tuple | None = None,
        fail_after: int | None = None,
    ):
        self.table = Table(table_dir, config)
        self.config = config
        self.job_id = job_id
        self.sort_key = sort_key or []
        self.cluster_key = cluster_key
        #: (col, lo, hi): drop rows with lo <= col <= hi (DELETE WHERE rewrite;
        #: timestamps compare as int64 µs, matching manifest stats)
        self.delete_range = delete_range
        self.schema = schema
        self.stats_cols = stats_cols
        self.fail_after = fail_after

    # -- helpers ---------------------------------------------------------

    def _read(self, path: str, deleted: list[int] | None) -> pa.Table:
        """One input file's live rows, aligned to the job's schema."""
        return align_to(read_file(os.path.join(self.table.dir, path), deleted=deleted), self.schema)

    def _read_inputs(self, inputs: list[str], deleted: dict) -> pa.Table | None:
        if not inputs:
            return None
        return pa.concat_tables(self._read(p, deleted.get(p)) for p in inputs).combine_chunks()

    def _hits(self, t: pa.Table, dk: pa.Table | None) -> np.ndarray:
        """Per row of ``t``: whether this MERGE or DELETE drops it — its
        (conv_id, turn_idx) is in the unit's source key table ``dk``, or it
        falls in the DELETE range."""
        hit = np.zeros(t.num_rows, bool)
        if dk is not None:
            # Acero needs exact key-type equality; cast the (small) key table
            # to this file's column types so a pre-evolution file never
            # raises. Merge planning already dropped null keys and keys the
            # target's types cannot hold.
            keys = ["conv_id", "turn_idx"]
            dk = pa.table({c: dk[c].cast(t.schema.field(c).type) for c in keys})
            # Acero hash LEFT ANTI join of the key columns and a row index:
            # the rows it keeps are the misses. Null-key semantics are ANSI
            # MERGE: a NULL never equals any source key, so null-key target
            # rows survive.
            rows = t.select(keys).append_column(_ROW, pa.array(np.arange(t.num_rows)))
            hit[:] = True
            hit[rows.join(dk, keys=keys, join_type="left anti")[_ROW].to_numpy()] = False
        if self.delete_range is not None:
            col, lo, hi = self.delete_range
            c = t[col]
            if pa.types.is_timestamp(c.type):
                c = c.cast(pa.int64())
            rng = pc.fill_null(pc.and_kleene(pc.greater_equal(c, lo), pc.less_equal(c, hi)), False)
            hit |= rng.to_numpy(zero_copy_only=False)
        return hit

    def _dml_unit(
        self,
        inputs: list[str],
        deleted: dict,
        partition: str,
        keys: pa.Table | None,
        ups: pa.Table | None,
    ) -> tuple[pa.Table | None, list[pa.Table], list[dict]]:
        """A MERGE or DELETE unit, decided file by file: (the rows to write,
        the change parts, the entries of inputs kept live). A file with no
        hit is kept as it is; one left with no live row is dropped; one
        whose old plus new positions exceed ``DV_MAX_POSITIONS`` is folded
        (its survivors are written); any other is kept with the hit rows'
        physical positions added. The unit's upserts ``ups`` join the
        written rows; with no fold they are the unit's one small file. One
        anti-join serves all the unit's files: a join per file put a churn
        MERGE's in-process CPU at 323 ms against 278 ms (median of 10)."""
        write: list[pa.Table] = []
        changed: list[pa.Table] = []
        kept: list[dict] = []
        olds = [np.asarray(deleted.get(p) or [], np.int64) for p in inputs]
        tables = [self._read(p, old) for p, old in zip(inputs, olds)]
        hits = self._hits(pa.concat_tables(tables), keys) if tables else None
        ends = np.cumsum([t.num_rows for t in tables])
        for p, old, t, end in zip(inputs, olds, tables, ends):
            hit = hits[end - t.num_rows : end]
            n_hit = int(hit.sum())
            if n_hit:
                changed.append(_labelled(t.filter(pa.array(hit)), "removed"))
            if n_hit == t.num_rows:
                continue  # no live row left: removed, nothing written
            if n_hit and len(old) + n_hit > manifest.DV_MAX_POSITIONS:
                write.append(t.filter(pa.array(~hit)))
                continue
            if n_hit:
                # live row i is physical row phys[i]: the old positions skipped
                phys = np.delete(np.arange(t.num_rows + len(old)), old)
                old = np.union1d(old, phys[hit])
            kept.append(
                {"path": p, "partition": partition, "rows": t.num_rows - n_hit, "bytes": 0,
                 "stats": None, "deleted": old.tolist() or None}
            )
        if ups is not None and ups.num_rows:
            changed.append(_labelled(ups, "added"))
            write.append(ups)
        return (pa.concat_tables(write).combine_chunks() if write else None), changed, kept

    def _sorted(self, t: pa.Table) -> pa.Table:
        if self.cluster_key is not None:
            return t.take(pc.sort_indices(pa.array(self.cluster_key(t))))
        keys = [k for k in self.sort_key if k in t.schema.names]
        if not keys:
            return t
        idx = pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys])
        return t.take(idx)

    def _scatter(self, t: pa.Table, partition: str, uid: str, bounds: list[int]) -> pa.Table:
        """A cluster scatter unit: cut its rows into the key ranges that
        ``bounds`` delimits and write one staging run file per non-empty
        range, ``runs/<partition>/r<range>/<unit_id>.parquet`` under the
        job's lineage dir — the inputs of the range's sub-bin, read once
        and deleted."""
        r = np.searchsorted(np.asarray(bounds, np.int64), self.cluster_key(t), side="right")
        runs = [
            self.table.write_side_file(
                t.filter(pa.array(r == i)),
                os.path.join(lineage.runs_dir(self.job_id), partition, f"r{i:04d}", f"{uid}.parquet"),
                partition,
            )
            for i in np.unique(r)
        ]
        return pa.Table.from_pylist(runs, schema=ENTRY_SCHEMA)

    # -- per-bin work ----------------------------------------------------

    def _do_unit(self, unit: dict) -> pa.Table:
        uid = unit["unit_id"]
        cached = lineage.load_unit(self.table.dir, self.job_id, uid)
        if cached is not None:
            return cached
        if self.fail_after is not None:
            # count DURABLE completed units (lineage records), not per-instance
            # state: rewriters are rebuilt per task, but the crash the tests
            # simulate must land after N units job-wide.
            done_ct = lineage.units_done(self.table.dir, self.job_id)
            if done_ct >= self.fail_after:
                raise FailInjected(f"injected failure after {done_ct} units")
        inputs = json.loads(unit["inputs_json"])
        deleted = json.loads(unit["deleted_json"])
        partition = unit["partition"]
        changed: list[pa.Table] = []
        kept: list[dict] = []
        keys, ups = (_from_ipc(unit.get(c)) for c in ("keys", "upserts"))
        if keys is not None or self.delete_range is not None:
            t, changed, kept = self._dml_unit(inputs, deleted, partition, keys, ups)
        else:
            t = self._read_inputs(inputs, deleted)
        # the unit's change file: written before the lineage record, which
        # names it, so a resumed job commits the same change record
        out = ENTRY_SCHEMA.empty_table()
        if changed:
            cdf = self.table.write_side_file(
                pa.concat_tables(changed),
                os.path.join(manifest.CHANGE_DIR, partition, f"{uid}-cdf.parquet"),
                partition,
            )
            out = pa.Table.from_pylist([cdf], schema=ENTRY_SCHEMA)
        if t is not None and t.num_rows and unit.get("bounds_json"):
            out = self._scatter(t, partition, uid, json.loads(unit["bounds_json"]))
        elif t is not None and t.num_rows:
            # files named by the unit id: a resumed job's re-run overwrites
            rpf = rows_per_file(self.config, int(unit["in_rows"]), int(unit["in_bytes"]))
            written = self.table.write_files(self._sorted(t), partition, self.stats_cols, uid, rpf)
            out = pa.concat_tables([out, written])
        if kept:
            out = pa.concat_tables([out, pa.Table.from_pylist(kept, schema=ENTRY_SCHEMA)])
        lineage.save_unit(
            self.table.dir,
            self.job_id,
            uid,
            {"partition": partition, "inputs": inputs, "input_rows": int(unit["in_rows"])},
            out,
        )
        return out

    def __call__(self, batch: pa.Table) -> pa.Table:
        return pa.concat_tables(
            [ENTRY_SCHEMA.empty_table()] + [self._do_unit(u) for u in batch.to_pylist()]
        )


def run_bins(
    table: Table,
    bins: list[dict],
    job_id: str,
    *,
    concurrency: int | None = None,
    **rewriter_kw,
) -> pa.Table:
    """Execute bins with ``map_units``; returns the new manifest entries.

    ``rewriter_kw`` go to ``BinRewriter``, including the job's ``schema``
    and ``stats_cols`` from the caller's snapshot read. The rewriter object
    is rebuilt per call (a Ray task, or a driver thread's unit); its init
    is microseconds against a multi-MB file rewrite.
    """
    table_dir, config = table.dir, table.config

    def rewrite_bin(batch: pa.Table) -> pa.Table:
        return BinRewriter(table_dir, config, job_id, **rewriter_kw)(batch)

    return map_units(bins, rewrite_bin, concurrency or config.rewrite_concurrency)


#: a plan whose units' inputs sum to at most this many bytes runs in the
#: calling process; a larger one is a Ray Data job. Measured on
#: maintain-shaped plans (16 partitions; compact, Z-order cluster, MERGE)
#: at 4 Ray CPUs against 4 driver threads: at 15, 48 and 143 MiB the driver
#: took 11-30% less all-process CPU and 16-39% less wall time per cycle,
#: with the margin shrinking as plans grow (cluster at 142 MiB: 10.8 s CPU
#: against 11.5 s, 3.0 s wall against 3.2 s), while its peak RSS grew to
#: 1.4 GB against 0.26 GB. The cap is the largest size measured; larger
#: plans keep the Ray Data job (BASELINE.md, "Driver-path crossover").
DRIVER_MAX_BYTES = 144 * 1024 * 1024


def map_units(
    units: list[dict],
    fn: Callable[[pa.Table], pa.Table],
    concurrency: int,
    schema: pa.Schema = ENTRY_SCHEMA,
) -> pa.Table:
    """Run ``fn`` (a batch of unit rows → the entries of the files it
    wrote, in ``schema``) over ``units`` and gather the entries. Each unit
    row carries ``in_bytes``; units start heaviest first (LPT order: the
    straggler tail of the last wave bounds the plan's wall time, so heavy
    units — hot partitions with attached MERGE upserts — must start early).

    The executor is chosen by the plan's summed ``in_bytes``: at most
    ``DRIVER_MAX_BYTES``, ``fn`` runs in this process, one unit per call on
    ``min(concurrency, len(units))`` threads (Arrow's Parquet and compute
    kernels release the GIL), or one call over all the units on one
    thread, and a unit's exception propagates as it is; above it, the plan
    is ``ray_map_units``' job.
    """
    if not units:
        return schema.empty_table()
    conc = max(1, min(concurrency, len(units)))
    units = sorted(units, key=lambda u: -u["in_bytes"])
    if sum(u["in_bytes"] for u in units) > DRIVER_MAX_BYTES:
        return ray_map_units(units, fn, conc, schema)
    with _DRIVER_POOL.sized(conc):
        if conc == 1:
            outs = [fn(pa.Table.from_pylist(units))]
        else:
            with ThreadPoolExecutor(conc) as ex:
                outs = list(ex.map(lambda u: fn(pa.Table.from_pylist([u])), units))
    return pa.concat_tables([schema.empty_table()] + outs).combine_chunks()


def ray_map_units(
    units: list[dict],
    fn: Callable[[pa.Table], pa.Table],
    concurrency: int,
    schema: pa.Schema = ENTRY_SCHEMA,
) -> pa.Table:
    """``map_units`` as stateless Ray Data tasks at any plan size, units
    heaviest first. ``from_items`` puts one unit per block, so scheduling
    is straggler-friendly with NO actor-pool spin-up on the critical path
    (a fresh 32-actor pool costs ~3 s; tasks reuse Ray's warm workers
    across stages). Each task pins Arrow's pools
    (``limit_arrow_threads``); Ray wraps a unit's exception."""
    import ray.data as rd

    if not units:
        return schema.empty_table()
    conc = max(1, min(concurrency, len(units)))
    units = sorted(units, key=lambda u: -u["in_bytes"])

    def task(batch: pa.Table) -> pa.Table:
        limit_arrow_threads()
        return fn(batch)

    # bundle units so the task count is ~4 waves per slot: per-task
    # scheduling costs the driver ~5-10 ms, and hundreds of single-unit
    # tasks serialize into seconds of pure executor overhead at high core
    # counts
    per_task = max(1, -(-len(units) // (conc * 4)))
    ds = rd.from_items(units).map_batches(
        task, batch_format="pyarrow", batch_size=per_task, concurrency=conc
    )
    return manifest.collect_entries(ds, schema=schema)
