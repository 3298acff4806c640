"""Shared file-rewrite machinery for the maintenance ops.

Compaction, per-partition clustering and MERGE all reduce to: take a BIN
(a set of whole input files within one partition, optionally plus extra
rows), produce sorted replacement files, record lineage, return manifest
entries. The bin is the unit of parallelism, retry and resume — this is why
compaction scales near-linearly: there is NO shuffle, just independent
bounded-size rewrite tasks (SURVEY.md §7 step 3).

Execution shape: ``ray.data.from_items(bins).map_batches(BinRewriter,
concurrency=N, batch_size=1)`` — an actor pool so each worker re-uses its
Parquet writer/compression state across bins (the reference gets this from
``delta.autoOptimize`` executors, /root/reference/utilities/utils.py:86-87).

Idempotent resume: unit_id = blake2b(sorted inputs + params); a completed
unit's lineage record (state/lineage.py) short-circuits the work, and output
files are deterministically named ``<unit_id>-<k>.parquet`` so a re-run
overwrites rather than duplicates (BASELINE.json north_rule: "resumable from
checkpoint with per-partition lineage").

Change data: a MERGE or DELETE unit also writes ``<unit_id>-cdf.parquet``
under ``_change_data/`` — the rows it dropped ('removed') and the upserts it
appended ('added'), with a ``change`` column — and names it in its lineage
record. The change feed (stages/changes.py) reads these instead of diffing
the rewritten files.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..config import EngineConfig
from ..hashing import curve_key, hash64_column
from ..state import lineage, manifest
from ..state.manifest import ENTRY_SCHEMA
from ..table import Table

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


class FailInjected(RuntimeError):
    """Raised by tests to simulate a mid-job crash."""


class BinRewriter:
    """Actor-pool callable: one bin descriptor row in → manifest entries out.

    ``sort_mode``:
      "key"     — sort rows by ``sort_key`` (compaction, merge)
      "zorder"  — compute curve key from (conv_id, ts), sort by it, drop it
      "none"    — keep input order
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
        sort_mode: str = "key",
        sort_key: list[str] | None = None,
        curve: str | None = None,
        cluster_key_col: str = "conv_id",
        cluster_ts_col: str = "ts",
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
        self.sort_mode = sort_mode
        self.sort_key = sort_key or ["conv_id", "turn_idx"]
        self.curve = curve or config.curve
        self.cluster_key_col = cluster_key_col
        self.cluster_ts_col = cluster_ts_col
        self.extra = ray.get(extra_rows_ref) if extra_rows_ref is not None else {}
        self.delete_keys = ray.get(delete_keys_ref) if delete_keys_ref is not None else {}
        #: (col, lo, hi): drop rows with lo <= col <= hi (DELETE WHERE rewrite;
        #: timestamps compare as int64 µs, matching manifest stats)
        self.delete_range = delete_range
        self.stats_cols = self.table.stats_cols() or None
        self.fail_after = fail_after
        self.done = 0
        #: per-__call__ cache of prefetched broadcast payloads; lives only
        #: for one batch so a long-lived actor never accumulates every
        #: touched partition's payload in its heap (round-4 advice)
        self._resolved: dict[tuple[str, str], object] = {}

    # -- helpers ---------------------------------------------------------

    def _read_inputs(self, inputs: list[str]) -> pa.Table | None:
        tabs = [pq.read_table(os.path.join(self.table.dir, p)) for p in inputs]
        if not tabs:
            return None
        target = self.table.schema()
        aligned = []
        for t in tabs:
            if t.schema.equals(target):
                aligned.append(t)
                continue
            # pre-evolution file (mergeSchema analog): null-fill columns the
            # snapshot schema added since this file was written
            aligned.append(
                pa.table(
                    {
                        f.name: (
                            t[f.name].cast(f.type)
                            if f.name in t.schema.names
                            else pa.nulls(t.num_rows, f.type)
                        )
                        for f in target
                    }
                )
            )
        return pa.concat_tables(aligned).combine_chunks()

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
        if self.sort_mode == "none" or t.num_rows == 0:
            return t
        if self.sort_mode == "zorder":
            tcol = self.cluster_ts_col
            ts64 = t[tcol].cast(pa.int64()).to_numpy(zero_copy_only=False)
            # normalize ts within the bin (per-partition clustering orders
            # rows locally, so the local min/max IS the right range)
            rng = (int(ts64.min()), int(ts64.max())) if len(ts64) else None
            if self.cluster_key_col in t.schema.names:
                zk = curve_key(
                    hash64_column(t[self.cluster_key_col]),
                    ts64,
                    bucket_s=self.config.zorder_ts_bucket_s,
                    curve=self.curve,
                    bits=self.config.curve_bits,
                    ts_range=rng,
                )
                idx = pc.sort_indices(pa.table({"z": zk}), sort_keys=[("z", "ascending")])
                return t.take(idx)
            # no key column (e.g. gold tables): clustering degenerates to a
            # pure time sort — exactly the reference's CLUSTER BY (time)
            idx = pc.sort_indices(t, sort_keys=[(tcol, "ascending")])
            return t.take(idx)
        keys = [k for k in self.sort_key if k in t.schema.names]
        if not keys:
            return t
        idx = pc.sort_indices(t, sort_keys=[(k, "ascending") for k in keys])
        return t.take(idx)

    def _split_rows(self, in_rows: int, in_bytes: int, total_rows: int) -> int:
        """Output rows/file sized so files land near target_file_bytes."""
        if in_rows <= 0 or in_bytes <= 0:
            return self.config.max_rows_per_file
        per_row = max(1.0, in_bytes / in_rows)
        return max(1, min(self.config.max_rows_per_file, int(self.config.target_file_bytes / per_row)))

    # -- per-bin work ----------------------------------------------------

    def _do_unit(self, unit: dict) -> list[dict]:
        import time

        prof_path = os.environ.get("ENGINE_PROFILE_REWRITE")
        marks: list[tuple[str, float]] = [("t0", time.perf_counter())] if prof_path else []
        uid = unit["unit_id"]
        cached = lineage.load_unit(self.table.dir, self.job_id, uid)
        if cached is not None:
            return cached["entries"] + cached.get("changes", [])
        if self.fail_after is not None:
            # count DURABLE completed units (lineage records), not per-instance
            # state: rewriters are rebuilt per task, but the crash the tests
            # simulate must land after N units job-wide.
            jd = os.path.join(self.table.dir, lineage.LINEAGE_DIR, self.job_id)
            done_ct = len([f for f in os.listdir(jd) if f.endswith(".json")]) if os.path.isdir(jd) else 0
            if done_ct >= self.fail_after:
                raise FailInjected(f"injected failure after {done_ct} units")
        inputs = json.loads(unit["inputs_json"])
        partition = unit["partition"]
        t = self._read_inputs(inputs)
        if marks:
            marks.append(("read", time.perf_counter()))
        t, changed = self._apply_merge(t, partition, bool(unit.get("apply_extra", True)))
        if marks:
            marks.append(("merge", time.perf_counter()))
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
        changes = []
        if changed:
            changes.append(
                self.table.write_change_file(
                    pa.concat_tables(changed), partition, f"{uid}-cdf.parquet"
                )
            )
        entries: list[dict] = []
        if t is not None and t.num_rows:
            t = self._sorted(t)
            if marks:
                marks.append(("sort", time.perf_counter()))
            rpf = self._split_rows(int(unit["in_rows"]), int(unit["in_bytes"]), t.num_rows)
            k = 0
            for off in range(0, t.num_rows, rpf):
                sl = t.slice(off, rpf)
                entries.append(
                    self.table.write_file(sl, partition, f"{uid}-{k:04d}.parquet", self.stats_cols)
                )
                k += 1
            if marks:
                marks.append(("write", time.perf_counter()))
        if marks:
            # env-gated single-node diagnostic: one JSON line per unit with
            # per-phase wall deltas (O_APPEND keeps small lines atomic)
            deltas = {
                marks[i][0]: round(marks[i][1] - marks[i - 1][1], 4)
                for i in range(1, len(marks))
            }
            deltas.update(
                unit_rows=int(unit["in_rows"]),
                unit_bytes=int(unit["in_bytes"]),
                pid=os.getpid(),
                mode="merge" if self.delete_keys else self.sort_mode,
                end=round(time.time(), 3),
            )
            with open(prof_path, "a") as f:
                f.write(json.dumps(deltas) + "\n")
        lineage.save_unit(
            self.table.dir,
            self.job_id,
            uid,
            {
                "partition": partition,
                "inputs": inputs,
                "input_rows": int(unit["in_rows"]),
                "entries": entries,
                "changes": changes,
            },
        )
        self.done += 1
        return entries + changes

    def _prefetch_refs(self, units: list[dict]) -> None:
        """Resolve this batch's broadcast slices (delete keys / upsert rows)
        in ONE ``ray.get`` round trip, into the per-call ``self._resolved``
        cache. Per-unit gets queue on the object store under high task
        concurrency — measured on the 16-slot merge stage as 4×
        anti-join-phase wall inflation with 2 s p99 spikes vs 4 slots; one
        batched get per task keeps the two-level-broadcast property (a task
        still fetches only its own partitions' payloads) while collapsing
        the round trips. The cache is cleared after the batch so a
        long-lived actor's heap holds at most one batch's partitions worth
        of payload, never the whole job's (round-4 advice)."""
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
            out: list[dict] = []
            for unit in units:
                out.extend(self._do_unit(unit))
        finally:
            self._resolved.clear()
        if not out:
            return ENTRY_SCHEMA.empty_table()
        return pa.Table.from_pylist(out, schema=ENTRY_SCHEMA)


def run_bins(
    table: Table,
    bins: list[dict],
    job_id: str,
    *,
    concurrency: int | None = None,
    **rewriter_kw,
) -> pa.Table:
    """Execute bins as stateless tasks; returns the new manifest entries.

    ``from_items`` puts one bin per block, so each bin is one task —
    straggler-friendly scheduling with NO actor-pool spin-up on the critical
    path (a fresh 32-actor pool costs ~3 s; a maintenance run has several
    rewrite stages, and tasks reuse Ray's warm workers across them). The
    rewriter object is rebuilt per task — its init is a manifest-pointer
    read plus zero-copy ``ray.get`` of the broadcast refs, microseconds
    against a multi-MB file rewrite.
    """
    import ray.data as rd

    if not bins:
        return ENTRY_SCHEMA.empty_table()
    conc = max(1, min(concurrency or table.config.rewrite_concurrency, len(bins)))
    table_dir, config = table.dir, table.config

    def rewrite_bin(batch: pa.Table) -> pa.Table:
        return BinRewriter(table_dir, config, job_id, **rewriter_kw)(batch)

    # bundle bins so the task count is ~4 waves per slot: per-task scheduling
    # costs the driver ~5-10 ms, and hundreds of single-bin tasks serialize
    # into seconds of pure executor overhead at high core counts.
    # LPT order (heaviest bins first): the straggler tail of the LAST wave
    # bounds stage wall time, so heavy units must start early — hot
    # partitions with attached MERGE upserts otherwise land late and idle
    # every other slot behind them.
    bins = sorted(bins, key=lambda b: -b["in_bytes"])
    per_task = max(1, -(-len(bins) // (conc * 4)))
    ds = rd.from_items(bins)
    ent_ds = ds.map_batches(
        rewrite_bin,
        batch_format="pyarrow",
        batch_size=per_task,
        concurrency=conc,
    )
    rows = ent_ds.take_all()
    return (
        pa.Table.from_pylist(rows, schema=ENTRY_SCHEMA) if rows else ENTRY_SCHEMA.empty_table()
    )
