"""Shared file-rewrite machinery for the maintenance ops.

Compaction, per-partition clustering and MERGE all reduce to: take a BIN
(a set of whole input files within one partition, optionally plus extra
rows), produce sorted replacement files, record lineage, return manifest
entries. The bin is the unit of parallelism, retry and resume — this is why
compaction scales near-linearly: there is NO shuffle, just independent
bounded-size rewrite tasks (SURVEY.md §7 step 3).

Execution shape: ``ray.data.from_items(bins).map_batches(rewrite_bin,
concurrency=N)`` — stateless tasks, a few bins each, on Ray's warm workers
(no actor pool to spin up; see ``run_bins``). The reference gets the same
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

Change data: a MERGE or DELETE unit also writes ``<unit_id>-cdf.parquet``
under ``_change_data/`` — the rows it dropped ('removed') and the upserts it
appended ('added'), with a ``change`` column — and names it in its lineage
record. The change feed (stages/changes.py) reads these instead of diffing
the rewritten files.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..state import lineage, manifest
from ..state.manifest import ENTRY_SCHEMA
from ..table import Table, align_to, read_file

BIN_FIELDS = ["unit_id", "partition", "inputs_json", "in_rows", "in_bytes"]

_ROW = "_row"


def _labelled(rows: pa.Table, change: str) -> pa.Table:
    return rows.append_column("change", pa.array([change] * rows.num_rows, pa.string()))


def split_changes(ents: pa.Table) -> tuple[pa.Table, list[list]]:
    """(data-file entries, change record) of a ``run_bins`` result: change
    files ride in the same entry stream, told apart by their directory."""
    is_cf = pc.starts_with(ents["path"], manifest.CHANGE_DIR + "/")
    record = manifest.change_items(ents.filter(is_cf).to_pylist(), manifest.CHANGE_FILE)
    return ents.filter(pc.invert(is_cf)), record


def limit_arrow_threads(n: int = 1, io: int = 2) -> None:
    """Pin Arrow's internal pools inside Ray workers. Each map task is one
    scheduling unit; with the default pool (= all cores) 32 concurrent tasks
    spawn ~32×32 compute threads and the box thrashes — measured as 4×
    cores running SLOWER at sf3. Idempotent, call at task start."""
    import pyarrow as _pa

    if _pa.cpu_count() != n:
        _pa.set_cpu_count(n)
    if _pa.io_thread_count() != io:
        _pa.set_io_thread_count(io)


def make_bin(inputs: list[str], partition: str, entries_by_path: dict, params: str = "") -> dict:
    """Bin descriptor row (plain dict → ray.data.from_items)."""
    return {
        "unit_id": lineage.unit_id(inputs, params),
        "partition": partition,
        "inputs_json": json.dumps(sorted(inputs)),
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
    ``extra_rows_ref``: ObjectRef of {partition: ObjectRef(ipc bytes)} to
    union into the bin (MERGE upserts). Two-level refs on purpose: the outer
    dict is tiny, and a task ray.gets ONLY its own partition's payload —
    shipping one flat dict would memcpy every partition's upserts into every
    task.
    ``delete_keys_ref``: same shape for {partition: ObjectRef(key table)} —
    a 2-column (conv_id, turn_idx) Arrow table anti-joined away (MERGE).
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
        extra_rows_ref=None,
        delete_keys_ref=None,
        delete_range: tuple | None = None,
        fail_after: int | None = None,
    ):
        import ray

        limit_arrow_threads()
        self.table = Table(table_dir, config)
        self.config = config
        self.job_id = job_id
        self.sort_key = sort_key or []
        self.cluster_key = cluster_key
        self.extra = ray.get(extra_rows_ref) if extra_rows_ref is not None else {}
        self.delete_keys = ray.get(delete_keys_ref) if delete_keys_ref is not None else {}
        #: (col, lo, hi): drop rows with lo <= col <= hi (DELETE WHERE rewrite;
        #: timestamps compare as int64 µs, matching manifest stats)
        self.delete_range = delete_range
        self.schema = schema
        self.stats_cols = stats_cols
        self.fail_after = fail_after
        #: per-__call__ cache of prefetched broadcast payloads; lives only
        #: for one batch, so a rewriter called on several batches never
        #: accumulates every touched partition's payload in its heap
        self._resolved: dict[tuple[str, str], object] = {}

    # -- helpers ---------------------------------------------------------

    def _read_inputs(self, inputs: list[str]) -> pa.Table | None:
        if not inputs:
            return None
        return pa.concat_tables(
            align_to(read_file(os.path.join(self.table.dir, p)), self.schema)
            for p in inputs
        ).combine_chunks()

    def _apply_merge(
        self, t: pa.Table | None, partition: str, apply_extra: bool = True
    ) -> tuple[pa.Table | None, list[pa.Table]]:
        """(rewritten rows, change parts): the target rows the anti-join
        dropped labelled 'removed' and the appended upserts 'added'."""
        import ray

        changed: list[pa.Table] = []

        dk = self._resolved.get(("dk", partition), self.delete_keys.get(partition))
        if t is not None and dk is not None:
            dk = ray.get(dk) if isinstance(dk, ray.ObjectRef) else dk
            # Acero needs exact key-type equality; cast the (small) key table
            # to this file's column types so a pre-evolution file never
            # raises (round-4 advice). Merge planning already dropped null
            # keys and keys the target's types cannot hold.
            dk = pa.table(
                {
                    c: dk[c].cast(t.schema.field(c).type)
                    for c in ("conv_id", "turn_idx")
                }
            )
            # Acero hash LEFT ANTI join on (conv_id, turn_idx) — no per-row
            # key-string materialization (the former full-column cast+join
            # built ~16 bytes of temp string per row, pure memory-bus load
            # on the 16-slot stage). Row order is not preserved, which is
            # fine: _sorted() re-sorts by the merge key right after.
            # Null-key semantics are ANSI MERGE: a NULL never equals any
            # source key, so null-key target rows SURVIVE the anti-join
            # (the pre-round-4 string-key path silently dropped them).
            # A row-index column rides through the join so the dropped rows
            # (the change feed's 'removed') come from one numpy mask, not a
            # second join.
            n = t.num_rows
            kept = t.append_column(_ROW, pa.array(np.arange(n, dtype=np.int64))).join(
                dk, keys=["conv_id", "turn_idx"], join_type="left anti"
            )
            if kept.num_rows < n:
                hit = np.ones(n, bool)
                hit[kept[_ROW].to_numpy()] = False
                changed.append(_labelled(t.filter(pa.array(hit)), "removed"))
            t = kept.drop_columns([_ROW])
        ex = self._resolved.get(("ex", partition), self.extra.get(partition))
        if ex is not None and apply_extra:
            ex = ray.get(ex) if isinstance(ex, ray.ObjectRef) else ex
            ex_t = pa.ipc.open_stream(ex).read_all()
            if ex_t.num_rows:
                changed.append(_labelled(ex_t, "added"))
            t = ex_t if t is None else pa.concat_tables([t, ex_t]).combine_chunks()
        return t, changed

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
        job's lineage dir — the inputs of the range's sub-bin. A run is read
        once and deleted, so it takes zstd's fastest level: on 16 sf1
        partitions it wrote ~45% and read ~60% faster than level 3, at the
        same size."""
        r = np.searchsorted(np.asarray(bounds, np.int64), self.cluster_key(t), side="right")
        runs = [
            self.table.write_side_file(
                t.filter(pa.array(r == i)),
                os.path.join(lineage.runs_dir(self.job_id), partition, f"r{i:04d}", f"{uid}.parquet"),
                partition,
                level=1,
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
        partition = unit["partition"]
        t = self._read_inputs(inputs)
        t, changed = self._apply_merge(t, partition, bool(unit.get("apply_extra", True)))
        if t is not None and self.delete_range is not None:
            col, lo, hi = self.delete_range
            c = t[col]
            if pa.types.is_timestamp(c.type):
                c = c.cast(pa.int64())
            hit = pc.fill_null(pc.and_kleene(pc.greater_equal(c, lo), pc.less_equal(c, hi)), False)
            dropped = t.filter(hit)
            if dropped.num_rows:
                changed.append(_labelled(dropped, "removed"))
            t = t.filter(pc.invert(hit))
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
        lineage.save_unit(
            self.table.dir,
            self.job_id,
            uid,
            {"partition": partition, "inputs": inputs, "input_rows": int(unit["in_rows"])},
            out,
        )
        return out

    def _prefetch_refs(self, units: list[dict]) -> None:
        """Resolve this batch's broadcast slices (delete keys / upsert rows)
        in ONE ``ray.get`` round trip, into the per-call ``self._resolved``
        cache. Per-unit gets queue on the object store under high task
        concurrency — measured on the 16-slot merge stage as 4×
        anti-join-phase wall inflation with 2 s p99 spikes vs 4 slots; one
        batched get per task keeps the two-level-broadcast property (a task
        still fetches only its own partitions' payloads) while collapsing
        the round trips. The cache is cleared after the batch so a
        rewriter holds at most one batch's partitions worth of payload,
        never the whole job's."""
        import ray

        need: dict[tuple[str, str], object] = {}
        for u in units:
            p = u["partition"]
            if isinstance(self.delete_keys.get(p), ray.ObjectRef):
                need[("dk", p)] = self.delete_keys[p]
            if isinstance(self.extra.get(p), ray.ObjectRef):
                need[("ex", p)] = self.extra[p]
        if need:
            self._resolved.update(zip(need, ray.get(list(need.values()))))

    def __call__(self, batch: pa.Table) -> pa.Table:
        units = batch.to_pylist()
        if self.delete_keys or self.extra:
            self._prefetch_refs(units)
        try:
            return pa.concat_tables(
                [ENTRY_SCHEMA.empty_table()] + [self._do_unit(u) for u in units]
            )
        finally:
            self._resolved.clear()


def run_bins(
    table: Table,
    bins: list[dict],
    job_id: str,
    *,
    concurrency: int | None = None,
    **rewriter_kw,
) -> pa.Table:
    """Execute bins as stateless tasks (``map_units``); returns the new
    manifest entries.

    ``rewriter_kw`` go to ``BinRewriter``, including the job's ``schema``
    and ``stats_cols`` from the caller's snapshot read. The rewriter object
    is rebuilt per task — its init is a zero-copy ``ray.get`` of the
    broadcast refs, microseconds against a multi-MB file rewrite.
    """
    table_dir, config = table.dir, table.config

    def rewrite_bin(batch: pa.Table) -> pa.Table:
        return BinRewriter(table_dir, config, job_id, **rewriter_kw)(batch)

    return map_units(bins, rewrite_bin, concurrency or config.rewrite_concurrency)


def map_units(
    units: list[dict],
    fn: Callable[[pa.Table], pa.Table],
    concurrency: int,
    schema: pa.Schema = ENTRY_SCHEMA,
) -> pa.Table:
    """Run ``fn`` (a batch of unit rows → the entries of the files it
    wrote, in ``schema``) over ``units`` as stateless Ray Data tasks and
    gather the entries on the driver. Each unit row carries ``in_bytes``.

    ``from_items`` puts one unit per block, so scheduling is
    straggler-friendly with NO actor-pool spin-up on the critical path (a
    fresh 32-actor pool costs ~3 s; a maintenance run has several rewrite
    stages, and tasks reuse Ray's warm workers across them).
    """
    import ray.data as rd

    if not units:
        return schema.empty_table()
    conc = max(1, min(concurrency, len(units)))
    # bundle units so the task count is ~4 waves per slot: per-task
    # scheduling costs the driver ~5-10 ms, and hundreds of single-unit
    # tasks serialize into seconds of pure executor overhead at high core
    # counts. LPT order (heaviest units first): the straggler tail of the
    # LAST wave bounds stage wall time, so heavy units must start early —
    # hot partitions with attached MERGE upserts otherwise land late and
    # idle every other slot behind them.
    units = sorted(units, key=lambda u: -u["in_bytes"])
    per_task = max(1, -(-len(units) // (conc * 4)))
    ds = rd.from_items(units).map_batches(
        fn, batch_format="pyarrow", batch_size=per_task, concurrency=conc
    )
    return manifest.collect_entries(ds, schema=schema)
