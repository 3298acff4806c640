"""Parquet table + Arrow-backed snapshot log = the engine's "Delta table".

Reference analog: managed Delta tables created by ``@sdp.table`` /
``sdp.create_sink`` (/root/reference/transformations/pipelines/github/
audit_logs/bronze_github_audit_logs.py:30-35, transformations/mappings/ocsf/
iam/gold_ocsf_iam_event_classes_delta_sinks.py:117-179). A ``Table`` is a
directory of Parquet data files plus the ``_manifest`` snapshot log
(state/manifest.py); reads go through the manifest (NOT directory listing) so
readers get snapshot isolation and stats-based file pruning.

Partition specs:
    "hash:<col>:<P>"  — dirs ``part-<n>``, n = hash64(col) % P (keyed tables)
    "col:<col>"       — dirs ``<col>-<value>`` (e.g. _event_date, medallion)
    "none"            — single dir

Scale notes: scans return a lazy ``ray.data.Dataset`` over the pruned file
list; appends stream through a stage of stateless writer tasks; only the
manifest commit — a few KB of metadata per thousand files — touches the
driver/metastore.

Writes: ``Table.write_files`` is the only code that writes a data file (it
cuts, names and writes one partition's rows and returns their entries).
``Table.write_batch_files`` routes a batch to it with ``split_by_partition``
for every appender; the bin rewriter (stages/rewrite.py) calls it per unit.
Change files go through ``write_change_file``.
"""

from __future__ import annotations

import json
import os
import threading
import time

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from . import config as cfg
from .hashing import hash64_column
from .state import lineage, manifest

_PQ_OPTS = dict(compression="zstd", compression_level=3)

#: serializes ray.data.read_* CONSTRUCTION (not execution) when flows run in
#: driver threads: Ray's path resolution lazily imports optional fsspec
#: filesystems, and a concurrent first import can leave a partial module in
#: sys.modules, turning the normally-caught ModuleNotFoundError into a
#: propagating ImportError. Construction is milliseconds; execution — the
#: actual streaming job — stays fully concurrent.
DATASET_CONSTRUCT_LOCK = threading.Lock()


class ConflictError(RuntimeError):
    """A concurrent commit removed files this commit depends on."""


def _write_parquet_atomic(table: pa.Table, path: str) -> int:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}.{time.monotonic_ns()}"
    pq.write_table(table, tmp, **_PQ_OPTS)
    os.replace(tmp, path)
    return os.path.getsize(path)


def spec_partition_codes(spec: str, batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(int code per row, dir name per code) for ANY partition spec.
    Module-level so task closures can route rows by spec without capturing a
    Table object. NOTE: for ``col:`` specs the codes are batch-local
    (dictionary order varies per batch) — cross-batch routing must go
    through the NAMES (``names[codes]``), never the raw codes."""
    if spec == "none":
        return np.zeros(batch.num_rows, np.int64), np.array([""], dtype=object)
    kind, _, rest = spec.partition(":")
    if kind == "hash":
        col, _, p = rest.partition(":")
        n = int(p)
        codes = (hash64_column(batch[col]) % np.uint64(n)).astype(np.int64)
        names = np.array([f"part-{i}" for i in range(n)], dtype=object)
        return codes, names
    if kind == "col":
        vals = batch[rest].cast(pa.string()).combine_chunks()
        dic = vals.dictionary_encode()
        uniq = dic.dictionary.to_pylist()
        idx = dic.indices.fill_null(len(uniq))  # nulls -> extra trailing code
        codes = idx.to_numpy(zero_copy_only=False).astype(np.int64)
        names = np.array([f"{rest}-{u}" for u in uniq] + [f"{rest}-None"], dtype=object)
        return codes, names
    raise ValueError(f"bad partition spec {spec!r}")


def split_by_partition(batch: pa.Table, spec: str) -> dict[str, pa.Table]:
    """``{partition dir: its rows}`` of ``batch`` under ``spec``, each
    partition's rows in their input order. Int codes keep it vectorized:
    one stable int argsort (skipped when the rows are already grouped, as
    in a sorted stream) and one formatted name per DISTINCT partition."""
    codes, names = spec_partition_codes(spec, batch)
    if len(codes) == 0:
        return {}
    if np.any(codes[1:] < codes[:-1]):
        order = np.argsort(codes, kind="stable")
        codes, batch = codes[order], batch.take(pa.array(order))
    bounds = np.r_[np.flatnonzero(np.r_[True, codes[1:] != codes[:-1]]), len(codes)]
    return {
        str(names[codes[b]]): batch.slice(b, e - b)
        for b, e in zip(bounds[:-1], bounds[1:])
    }


def _align_array(arr: pa.Array, typ: pa.DataType) -> pa.Array:
    if arr.type == typ:
        return arr
    if pa.types.is_struct(typ) and pa.types.is_struct(arr.type):
        have = {f.name for f in arr.type}
        children = [
            _align_array(arr.field(f.name), f.type) if f.name in have else pa.nulls(len(arr), f.type)
            for f in typ
        ]
        mask = pc.is_null(arr) if arr.null_count else None
        return pa.StructArray.from_arrays(children, fields=list(typ), mask=mask)
    if pa.types.is_list(typ) and pa.types.is_list(arr.type):
        # rebase the offsets: from_arrays takes no null mask over a slice
        lo, hi = arr.offsets[0].as_py(), arr.offsets[-1].as_py()
        values = _align_array(arr.values.slice(lo, hi - lo), typ.value_type)
        mask = pc.is_null(arr) if arr.null_count else None
        return pa.ListArray.from_arrays(pc.subtract(arr.offsets, lo), values, type=typ, mask=mask)
    return arr.cast(typ)


def align_to(t: pa.Table, target: pa.Schema) -> pa.Table:
    """``t`` in the snapshot schema ``target``: a pre-evolution file
    (mergeSchema analog) null-fills the columns added since it was written,
    structs gain the subfields added since (recursively, through lists), and
    widened types cast."""
    if t.schema.equals(target):
        return t
    cols = {}
    for f in target:
        if f.name not in t.schema.names:
            cols[f.name] = pa.nulls(t.num_rows, f.type)
        else:
            col = t[f.name]
            cols[f.name] = pa.chunked_array(
                [_align_array(c, f.type) for c in col.chunks], type=f.type
            )
    return pa.table(cols)


def _prune(ents: pa.Table, predicates, partitions) -> pa.Table:
    if partitions is not None and ents.num_rows:
        ents = ents.filter(pc.is_in(ents["partition"], value_set=pa.array(partitions)))
    return manifest.prune(ents, predicates)


class Table:
    def __init__(self, table_dir: str, config: cfg.EngineConfig | None = None):
        self.dir = os.path.abspath(table_dir)
        self.config = config or cfg.DEFAULT

    # -- lifecycle ----------------------------------------------------------

    @classmethod
    def create(
        cls,
        table_dir: str,
        schema: pa.Schema,
        *,
        partition_spec: str = "none",
        config: cfg.EngineConfig | None = None,
        stats_cols: list[str] | None = None,
    ) -> "Table":
        """Create with an empty snapshot-0 — the analog of the reference's
        minimal-schema pre-creation that makes concurrent first appends
        race-free (pre_setup_ocsf_tables.py:96-116)."""
        t = cls(table_dir, config)
        os.makedirs(t.dir, exist_ok=True)
        if manifest.current_id(t.dir) is None:
            extra = {"stats_cols": json.dumps(stats_cols or [])}
            ok = manifest.try_write_snapshot(
                t.dir,
                0,
                manifest.empty_entries(),
                parent_id=None,
                operation="create",
                schema=schema,
                partition_spec=partition_spec,
                extra=extra,
            )
            if ok:
                manifest.set_current(t.dir, 0)
        return t

    def exists(self) -> bool:
        return manifest.current_id(self.dir) is not None

    # -- metadata -----------------------------------------------------------

    def current_snapshot_id(self) -> int:
        cur = manifest.current_id(self.dir)
        if cur is None:
            raise FileNotFoundError(f"no table at {self.dir}")
        return cur

    def snapshot(self, snapshot_id: int | None = None) -> tuple[pa.Table, dict]:
        sid = self.current_snapshot_id() if snapshot_id is None else snapshot_id
        return manifest.read_snapshot(self.dir, sid)

    def entries(self, snapshot_id: int | None = None) -> pa.Table:
        return self.snapshot(snapshot_id)[0]

    def schema(self, snapshot_id: int | None = None) -> pa.Schema:
        return self.snapshot(snapshot_id)[1]["schema"]

    def partition_spec(self, snapshot_id: int | None = None) -> str:
        return self.snapshot(snapshot_id)[1]["partition_spec"]

    def stats_cols(self, snapshot_id: int | None = None) -> list[str]:
        return manifest.stats_cols(self.snapshot(snapshot_id)[1])

    def history(self) -> list[dict]:
        """Retained snapshot history, oldest first — the DESCRIBE HISTORY
        analog. Footer-only reads (no data pages) per snapshot."""
        out = []
        for sid in manifest.list_snapshot_ids(self.dir):
            sch = pq.read_schema(manifest.snap_path(self.dir, sid))
            raw = sch.metadata or {}
            rec = {
                "snapshot_id": sid,
                "parent_id": int(raw.get(b"engine.parent_id", b"-1").decode()),
                "operation": raw.get(b"engine.operation", b"").decode(),
                "created_at": float(raw.get(b"engine.created_at", b"0").decode()),
            }
            m = raw.get(b"engine.x.metrics")
            if m:
                try:
                    rec["metrics"] = json.loads(m.decode())
                except ValueError:
                    pass
            out.append(rec)
        return out

    def snapshot_id_as_of(self, ts: float) -> int:
        """Latest retained snapshot committed at or before ``ts`` (unix
        seconds) — the TIMESTAMP AS OF analog. Compose with
        ``read_arrow(snapshot_id=...)`` / ``scan`` / ``rollback``."""
        hist = self.history()
        best = [h["snapshot_id"] for h in hist if h["created_at"] <= ts]
        if not best:
            raise ValueError(
                f"no snapshot at or before {ts} (oldest retained: "
                f"{hist[0]['created_at'] if hist else 'none'})"
            )
        return max(best)

    def live_files(self, snapshot_id: int | None = None) -> list[str]:
        ents = self.entries(snapshot_id)
        return [os.path.join(self.dir, p) for p in sorted(ents["path"].to_pylist())]

    # -- read path ----------------------------------------------------------

    def pruned_entries(
        self,
        predicates: dict[str, tuple] | None = None,
        partitions: list[str] | None = None,
        snapshot_id: int | None = None,
    ) -> pa.Table:
        return _prune(self.entries(snapshot_id), predicates, partitions)

    def _pruned_files(
        self, predicates, partitions, snapshot_id, columns
    ) -> tuple[list[str], pa.Schema]:
        """(sorted absolute paths of the pruned live files, the snapshot
        schema projected to ``columns``) from ONE snapshot read."""
        ents, meta = self.snapshot(snapshot_id)
        ents = _prune(ents, predicates, partitions)
        sch = meta["schema"]
        if columns is not None:
            sch = pa.schema([sch.field(c) for c in columns])
        return [os.path.join(self.dir, p) for p in sorted(ents["path"].to_pylist())], sch

    def scan(
        self,
        *,
        columns: list[str] | None = None,
        predicates: dict[str, tuple] | None = None,
        partitions: list[str] | None = None,
        snapshot_id: int | None = None,
        **read_kwargs,
    ):
        """Lazy Ray Dataset over the (pruned) live files of a snapshot —
        the analog of ``spark.readStream.table(name)``
        (silver_github_audit_logs.py:27-28)."""
        import ray.data as rd

        paths, sch = self._pruned_files(predicates, partitions, snapshot_id, columns)
        if not paths:
            return rd.from_arrow(sch.empty_table())
        # Partition values are manifest metadata here, not hive columns; data
        # dirs deliberately contain no "=" so the reader's hive inference is
        # inert. (Ray 2.49.2 raises UnboundLocalError when partitioning=None
        # is combined with an explicit column list, so only disable inference
        # on full-schema scans.)
        if not any(pa.types.is_nested(f.type) for f in sch):
            if columns is None:
                read_kwargs.setdefault("partitioning", None)
            # pin the (projected) snapshot schema so evolved columns survive
            # whatever file the reader samples first: pyarrow.dataset infers
            # from one fragment, and a pre-evolution fragment would silently
            # DROP columns newer files carry (pre-evolution files null-fill)
            read_kwargs.setdefault("schema", sch)
            return rd.read_parquet(paths, columns=columns, **read_kwargs)
        # A pinned schema cannot cast a pre-evolution struct<a> to the
        # snapshot's struct<a,b>, and a projected read of a file lacking a
        # column raises: read whole files in their own schemas and align
        # (and project) each block instead.
        read_kwargs.setdefault("partitioning", None)
        ds = rd.read_parquet(paths, **read_kwargs)
        return ds.map_batches(
            align_to, fn_kwargs={"target": sch}, batch_format="pyarrow", batch_size=None
        )

    def read_arrow(
        self,
        *,
        columns: list[str] | None = None,
        predicates: dict[str, tuple] | None = None,
        snapshot_id: int | None = None,
    ) -> pa.Table:
        """Driver-side read (tests / small tables only)."""
        paths, target = self._pruned_files(predicates, None, snapshot_id, columns)
        if not paths:
            return target.empty_table()
        return pa.concat_tables(
            align_to(pq.read_table(p, columns=columns), target) for p in paths
        )

    # -- write path ---------------------------------------------------------

    def write_files(
        self,
        rows: pa.Table,
        partition: str,
        stats_cols: list[str],
        prefix: str,
        rows_per_file: int,
    ) -> pa.Table:
        """The engine's one data-file writer: cut one partition's ordered
        rows into files of at most ``rows_per_file`` rows named
        ``{prefix}-{k}.parquet``, write each atomically and return their
        manifest entries. Callers resolve ``stats_cols`` once on the driver,
        so no writer reads the snapshot."""
        pdir = os.path.join("data", partition) if partition else "data"
        entries = []
        for k, off in enumerate(range(0, rows.num_rows, rows_per_file)):
            sl = rows.slice(off, rows_per_file)
            rel = os.path.join(pdir, f"{prefix}-{k:04d}.parquet")
            nbytes = _write_parquet_atomic(sl, os.path.join(self.dir, rel))
            entries.append(manifest.entry_for(rel, partition, sl, nbytes, stats_cols))
        return pa.Table.from_pylist(entries, schema=manifest.ENTRY_SCHEMA)

    def write_change_file(self, rows: pa.Table, partition: str, name: str) -> dict:
        """Write one change file (atomic; rows carry a ``change`` column)
        under the change-data dir and return its entry. It is never a live
        file: the commit names it in its change record."""
        rel = os.path.join(manifest.CHANGE_DIR, partition, name)
        nbytes = _write_parquet_atomic(rows, os.path.join(self.dir, rel))
        return {
            "path": rel,
            "partition": partition,
            "rows": rows.num_rows,
            "bytes": nbytes,
            "stats": None,
        }

    def write_batch_files(
        self,
        batch: pa.Table,
        spec: str,
        stats_cols: list[str],
        prefix: str,
        rows_per_file: int | None = None,
    ) -> pa.Table:
        """The routed writer: split ``batch`` by ``spec`` and write each
        partition's rows with ``write_files`` (one file per partition unless
        ``rows_per_file`` cuts it). Every appender routes through here —
        ``write_table``, ``stage_dataset_files``, the medallion's flows and
        the global cluster writer. A per-call uuid in every file name keeps
        concurrent writers with the same prefix from overwriting each
        other's files (``commit`` also rejects duplicate paths)."""
        import uuid

        wid = f"{prefix}-{uuid.uuid4().hex[:10]}"
        return pa.concat_tables(
            [manifest.empty_entries()]
            + [
                self.write_files(chunk, part, stats_cols, wid, rows_per_file or chunk.num_rows)
                for part, chunk in split_by_partition(batch, spec).items()
            ]
        ).combine_chunks()

    def write_table(
        self,
        data: pa.Table,
        *,
        rows_per_file: int | None = None,
        operation: str = "append",
        name_prefix: str = "w",
        use_actor: bool = False,
    ) -> int:
        """Driver-side append of an in-memory table, split into partition
        dirs and (optionally many small) files. Used by fixtures/ingest of
        small tables; large appends use ``append_dataset``."""
        meta = self.snapshot()[1]
        added = self.write_batch_files(
            data,
            meta["partition_spec"],
            manifest.stats_cols(meta),
            name_prefix,
            rows_per_file or self.config.max_rows_per_file,
        )
        return self.commit(added=added, removed=[], operation=operation, use_actor=use_actor)

    def stage_dataset_files(
        self,
        ds,
        *,
        sort_within_file: list[str] | None = None,
        name_prefix: str = "a",
        spec: str | None = None,
    ) -> pa.Table:
        """Write a Dataset's rows as partition-routed Parquet files WITHOUT
        committing; returns the manifest entries (one small row per file).
        ``spec`` overrides the partition routing (partition evolution)."""
        meta = self.snapshot()[1]
        spec = spec if spec is not None else meta["partition_spec"]
        stats_cols = manifest.stats_cols(meta)

        def write_batch(batch: pa.Table) -> pa.Table:
            from .stages.rewrite import limit_arrow_threads

            limit_arrow_threads()
            if sort_within_file:
                idx = pc.sort_indices(
                    batch, sort_keys=[(k, "ascending") for k in sort_within_file]
                )
                batch = batch.take(idx)
            return self.write_batch_files(batch, spec, stats_cols, name_prefix)

        return manifest.collect_entries(
            ds.map_batches(
                write_batch,
                batch_format="pyarrow",
                batch_size=self.config.batch_size,
                concurrency=self.config.rewrite_concurrency,
            )
        )

    def append_dataset(
        self,
        ds,
        *,
        operation: str = "append",
        use_actor: bool = False,
        sort_within_file: list[str] | None = None,
        name_prefix: str = "a",
        evolve_schema: pa.Schema | None = None,
        extra: dict | None = None,
    ) -> int:
        """Append a Ray Dataset: a stage of stateless writer tasks routes
        each batch's rows to partition dirs and writes Parquet files; only
        the manifest entries — a few hundred bytes per file — come back to
        the driver for a single commit. The data itself never materializes
        on the driver."""
        added = self.stage_dataset_files(
            ds, sort_within_file=sort_within_file, name_prefix=name_prefix
        )
        return self.commit(
            added=added,
            removed=[],
            operation=operation,
            use_actor=use_actor,
            evolve_schema=evolve_schema,
            extra=extra,
        )

    def rollback(self, snapshot_id: int, *, use_actor: bool = False) -> int:
        """Time-travel restore: commit a NEW snapshot whose live-file set is
        that of ``snapshot_id`` (Delta RESTORE analog). History is preserved
        — nothing is deleted, and expiry rules still apply later."""
        target_entries, _ = self.snapshot(snapshot_id)
        cur_entries = self.entries()
        cur_paths = set(cur_entries["path"].to_pylist())
        target_paths = set(target_entries["path"].to_pylist())
        missing = [
            p for p in target_paths if not os.path.exists(os.path.join(self.dir, p))
        ]
        if missing:
            raise FileNotFoundError(
                f"rollback target {snapshot_id} references expired files: {missing[:3]}..."
            )
        added = target_entries.filter(
            pa.array([p not in cur_paths for p in target_entries["path"].to_pylist()])
        )
        removed = [p for p in cur_paths if p not in target_paths]
        return self.commit(
            added=added if added.num_rows else None,
            removed=removed,
            operation=f"rollback-to-{snapshot_id}",
            use_actor=use_actor,
        )

    # -- commit -------------------------------------------------------------

    def commit(
        self,
        *,
        added: pa.Table | None,
        removed: list[str],
        operation: str,
        expected_parent: int | None = None,
        use_actor: bool = False,
        job_id: str | None = None,
        evolve_schema: pa.Schema | None = None,
        extra: dict | None = None,
        new_partition_spec: str | None = None,
        changes: list[list] | None = None,
    ) -> int:
        """Commit a new snapshot. ``use_actor=True`` routes through the
        table's metastore actor (multi-writer serialization); otherwise the
        file-based optimistic protocol runs locally. ``extra`` key/values are
        persisted in the snapshot metadata ATOMICALLY with the commit — used
        e.g. to record consumed ingest files exactly-once (sources/jsonl.py).

        ``changes`` is the commit's change record (``manifest.change_record``
        items) for the change feed: MERGE/DELETE pass their change files,
        content-preserving rewrites pass ``[]``. None stores no record, which
        means "this commit's whole-file diff" — always correct."""
        if use_actor:
            import ray

            from .state import metastore

            ms = metastore.get_or_create(self.dir)
            sid = ray.get(
                ms.commit.remote(
                    added=added.to_pydict() if added is not None else {},
                    removed=removed,
                    operation=operation,
                    expected_parent=expected_parent,
                    evolve_schema_ser=(
                        evolve_schema.serialize().to_pybytes()
                        if evolve_schema is not None
                        else None
                    ),
                    extra=extra,
                    new_partition_spec=new_partition_spec,
                    changes=changes,
                )
            )
        else:
            sid = self._commit_local(
                added=added,
                removed=removed,
                operation=operation,
                expected_parent=expected_parent,
                evolve_schema=evolve_schema,
                extra=extra,
                new_partition_spec=new_partition_spec,
                changes=changes,
            )
        if job_id is not None:
            lineage.finalize_job(self.dir, job_id, sid)
        return sid

    def _commit_local(
        self,
        *,
        added: pa.Table | None,
        removed: list[str],
        operation: str,
        expected_parent: int | None = None,
        evolve_schema: pa.Schema | None = None,
        extra: dict | None = None,
        new_partition_spec: str | None = None,
        changes: list[list] | None = None,
    ) -> int:
        removed_set = set(removed)
        if added is not None and added.num_rows:
            added_paths = added["path"].to_pylist()
            if len(set(added_paths)) != len(added_paths):
                raise ConflictError(f"{operation}: duplicate paths in added entries")
        for attempt in range(50):
            # Parent = max(pointer, newest snapshot file): a snapshot file can
            # exist AHEAD of the CURRENT pointer (committer crashed between
            # try_write_snapshot and set_current, or a pointer update was
            # lost) — it is durable and valid, so build on it and self-heal
            # the pointer rather than colliding on its id forever.
            cur = self.current_snapshot_id()
            ids = manifest.list_snapshot_ids(self.dir)
            if ids and ids[-1] > cur:
                cur = ids[-1]
                manifest.set_current(self.dir, cur)
            ents, meta = self.snapshot(cur)
            if expected_parent is not None and cur != expected_parent and removed_set:
                live = set(ents["path"].to_pylist())
                if not removed_set <= live:
                    raise ConflictError(
                        f"{operation}: parent moved {expected_parent}->{cur} and "
                        f"removed files are no longer live"
                    )
            live_paths = ents["path"].to_pylist()
            if removed_set and not removed_set <= set(live_paths):
                raise ConflictError(f"{operation}: removing non-live files")
            r_removed = 0
            if removed_set:
                keep = pa.array([p not in removed_set for p in live_paths])
                r_removed = int(pc.sum(ents.filter(pc.invert(keep))["rows"]).as_py() or 0)
                ents = ents.filter(keep)
            if added is not None and added.num_rows:
                live_after = set(live_paths) - removed_set
                clash = [p for p in added["path"].to_pylist() if p in live_after]
                if clash:
                    raise ConflictError(
                        f"{operation}: added paths already live (concurrent "
                        f"writers must use distinct file names): {clash[:3]}"
                    )
                ents = pa.concat_tables([ents, added.cast(manifest.ENTRY_SCHEMA)])
            nid = cur + 1
            schema = meta["schema"]
            if evolve_schema is not None:
                # mergeSchema analog (gold sinks option {"mergeSchema":"true"},
                # gold_ocsf_iam_event_classes_delta_sinks.py:94-113): union the
                # table schema with the writer's schema at commit time.
                schema = pa.unify_schemas([schema, evolve_schema]) if schema else evolve_schema
            snap_extra = {"stats_cols": meta.get("engine.x.stats_cols", "[]")}
            # operation metrics ride in every snapshot (DESCRIBE HISTORY
            # numFiles/numRows parity), computed from what this commit moves
            n_added = int(added.num_rows) if added is not None else 0
            r_added = (
                int(pc.sum(added["rows"]).as_py() or 0) if added is not None and added.num_rows else 0
            )
            if changes is None:  # no record: the change set is the file diff
                c_files, c_rows = n_added + len(removed_set), r_added + r_removed
            else:
                snap_extra["changes"] = json.dumps(changes)
                c_files, c_rows = len(changes), sum(int(c[2]) for c in changes)
            snap_extra["metrics"] = json.dumps(
                {
                    "added_files": n_added,
                    "added_rows": r_added,
                    "removed_files": len(removed_set),
                    "change_files": c_files,
                    "change_rows": c_rows,
                }
            )
            if extra:
                snap_extra.update(extra)
            ok = manifest.try_write_snapshot(
                self.dir,
                nid,
                ents,
                parent_id=cur,
                operation=operation,
                schema=schema,
                partition_spec=(
                    new_partition_spec
                    if new_partition_spec is not None
                    else meta["partition_spec"]
                ),
                extra=snap_extra,
            )
            if ok:
                manifest.set_current(self.dir, nid)
                return nid
            # lost the id race: publish the winner's pointer if it hasn't yet
            # (self-heal), back off a little, re-read and retry
            manifest.set_current(self.dir, nid)
            time.sleep(min(0.25, 0.002 * (attempt + 1)))
        raise ConflictError(f"{operation}: gave up after 50 commit attempts")
