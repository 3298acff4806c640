"""The medallion pipeline: bronze → silver → gold OCSF fan-out.

Re-expression of the reference's three entry points (SURVEY.md §3):

EP1 bronze ingest  — Auto Loader JSONL → variant + 7 metadata columns
    (bronze_<src>_audit_logs.py); here: sources.jsonl.ingest_jsonl +
    functions.meta.BronzeMeta into an ``_event_date``-partitioned Table.
EP2 silver parse   — readStream.table(bronze) → 17-26 ``try_variant_get``
    extractions (silver_<src>_audit_logs.py:29-82); here: incremental
    bronze-file scan → functions.variant.SilverExtract per batch.
EP3 gold fan-out   — 15 ``@sdp.append_flow`` → 6 shared Delta sinks with
    mergeSchema + pre-created minimal ``time TIMESTAMP`` schema
    (gold_ocsf_iam_event_classes_delta_sinks.py:117-179,184-305;
    utilities/pre_setup_ocsf_tables.py:96-116); here: one job per silver
    table reads its new files once and fans each batch out to the source's
    GoldTransform flows, one commit per sink (serialized by each table's
    metastore actor), with schema evolution on first append.

Silver and gold share one runner, ``Medallion._run_flows``: a silver job is
the single-route case (bronze → silver), a gold job has one route per class.

Incremental ("streaming table") semantics: each downstream flow records the
upstream files it consumed in its target's input ledger (state/lineage.py,
the same one JSONL ingest uses); a re-run processes only upstream files
added since — the S3 ``spark.readStream.table`` exactly-once analog at file
granularity.
"""

from __future__ import annotations

import os
from collections.abc import Callable

import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig, DEFAULT
from ..functions.meta import BronzeMeta
from ..functions.ocsf import GoldTransform, flows
from ..functions.variant import SilverExtract
from ..schema import BRONZE
from ..sources.jsonl import ingest_jsonl
from ..state import lineage, manifest
from ..table import Table

SOURCES = ("github", "slack", "atlassian")
GOLD_TABLES = {
    # reference utilities/utils.py:53-60
    "account_change": "ocsf_iam_account_change",
    "authentication": "ocsf_iam_authentication",
    "authorize_session": "ocsf_iam_authorize_session",
    "entity_management": "ocsf_iam_entity_management",
    "user_access": "ocsf_iam_user_access",
    "group_management": "ocsf_iam_group_management",
}

#: gold tables are pre-created with this minimal schema (the reference's
#: ``CREATE TABLE ... (time TIMESTAMP)``, pre_setup_ocsf_tables.py:103-107)
MINIMAL_GOLD = pa.schema([("time", pa.timestamp("us"))])


class Medallion:
    def __init__(self, root: str, config: EngineConfig | None = None):
        self.root = root
        self.config = config or DEFAULT

    # -- DDL pre-setup (S7) ---------------------------------------------

    def table(self, name: str) -> Table:
        return Table(os.path.join(self.root, name), self.config)

    def setup(self) -> None:
        for src in SOURCES:
            Table.create(
                os.path.join(self.root, f"bronze_{src}_audit_logs"),
                BRONZE,
                partition_spec="col:_event_date",
                config=self.config,
                stats_cols=["_event_time", "_event_date", "_source"],
            )
            # silver schema is established on first write (evolution), but the
            # table object + snapshot-0 exist up front, like pre-setup DDL.
            Table.create(
                os.path.join(self.root, f"silver_{src}_audit_logs"),
                BRONZE,  # superset grows via evolve_schema on first append
                partition_spec="col:_event_date",
                config=self.config,
                stats_cols=["_event_time", "_event_date", "_source", "action"],
            )
        for cls, name in GOLD_TABLES.items():
            Table.create(
                os.path.join(self.root, name),
                MINIMAL_GOLD,
                partition_spec="col:_event_date",
                config=self.config,
                stats_cols=["time", "_source", "class_uid"],
            )

    def _run_flows(
        self,
        upstream: Table,
        routes: dict[str, tuple[Table, Callable[[pa.Table], pa.Table], pa.Schema]],
        *,
        use_actor: bool,
    ) -> dict[str, int | None]:
        """Run the flows ``{tag: (sink, transform, schema)}`` that read
        ``upstream``. One Ray Data job reads the new upstream files once;
        each batch goes through every route's transform and is written,
        partition-routed, into that route's sink. Each sink then gets its
        own commit, which records the flow's consumed files in the input
        ledger (state/lineage.py) under the op ``flow-<tag>``, so every
        flow is exactly-once on its own. Routes see different new-file
        sets only after a crash between two sink commits; each distinct set
        is read separately. Returns ``{tag: snapshot id, or None if nothing new}``."""
        import ray.data as rd

        from ..stages.rewrite import limit_arrow_threads
        from ..table import DATASET_CONSTRUCT_LOCK

        out: dict[str, int | None] = {}
        by_files: dict[tuple[str, ...], list[str]] = {}
        live = upstream.live_files()
        for tag, (sink, _, _) in routes.items():
            seen = lineage.consumed_inputs(sink.dir, f"flow-{tag}")
            new_files = tuple(p for p in live if p not in seen)
            if new_files:
                by_files.setdefault(new_files, []).append(tag)
            else:
                out[tag] = None
        routed = manifest.ENTRY_SCHEMA.append(pa.field("route", pa.string()))
        for new_files, tags in by_files.items():
            # sink routing and stats columns resolved once, on the driver
            writers = []
            for tag in tags:
                sink, transform, _ = routes[tag]
                meta = sink.snapshot()[1]
                writers.append(
                    (tag, sink, transform, meta["partition_spec"], manifest.stats_cols(meta))
                )

            def fan_out(batch: pa.Table, writers=writers) -> pa.Table:
                limit_arrow_threads()
                parts = [routed.empty_table()]
                for tag, sink, transform, spec, stats_cols in writers:
                    ents = sink.write_batch_files(transform(batch), spec, stats_cols, "a")
                    route = pa.array([tag] * ents.num_rows, pa.string())
                    parts.append(ents.append_column("route", route))
                return pa.concat_tables(parts).combine_chunks()

            with DATASET_CONSTRUCT_LOCK:
                ds = rd.read_parquet(list(new_files))
            entries = manifest.collect_entries(
                ds.map_batches(
                    fan_out,
                    batch_format="pyarrow",
                    batch_size=self.config.batch_size,
                    concurrency=self.config.rewrite_concurrency,
                ),
                schema=routed,
            )
            for tag in tags:
                sink, _, schema = routes[tag]
                mine = entries.filter(pc.equal(entries["route"], tag)).drop_columns(["route"])
                op = f"flow-{tag}"
                parent = sink.current_snapshot_id()
                sid = sink.commit(
                    added=mine,
                    removed=[],
                    operation=op,
                    use_actor=use_actor,
                    evolve_schema=schema,
                    extra=lineage.inputs_extra(op, new_files),
                )
                lineage.record_inputs(sink.dir, op, parent, sid, new_files)
                out[tag] = sid
        return out

    # -- entry points ----------------------------------------------------

    @staticmethod
    def _run_parallel(jobs: dict, parallel: bool) -> dict:
        """Run {key: thunk} concurrently (driver threads, one Ray streaming
        job each) or sequentially."""
        if not parallel or len(jobs) <= 1:
            return {k: fn() for k, fn in jobs.items()}
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
            futs = {k: ex.submit(fn) for k, fn in jobs.items()}
            return {k: f.result() for k, f in futs.items()}

    def run_bronze(
        self, fixture_root: str, *, use_actor: bool = False, parallel: bool = True
    ) -> dict[str, int | None]:
        def job(src):
            def run():
                t = self.table(f"bronze_{src}_audit_logs")
                sid, _ = ingest_jsonl(
                    t, os.path.join(fixture_root, src), BronzeMeta(src), use_actor=use_actor
                )
                return sid

            return run

        return self._run_parallel({src: job(src) for src in SOURCES}, parallel)

    def run_silver(
        self, *, use_actor: bool = False, parallel: bool = True
    ) -> dict[str, int | None]:
        from ..functions.variant import silver_schema

        def job(src):
            tag = f"silver-{src}"
            sink = self.table(f"silver_{src}_audit_logs")
            routes = {tag: (sink, SilverExtract(src), silver_schema(src))}
            upstream = self.table(f"bronze_{src}_audit_logs")
            return lambda: self._run_flows(upstream, routes, use_actor=use_actor)[tag]

        return self._run_parallel({src: job(src) for src in SOURCES}, parallel)

    def run_gold(
        self, *, use_actor: bool = True, parallel: bool = True
    ) -> dict[tuple[str, str], int | None]:
        """The reference's 15 ``@append_flow``s into 6 shared sinks, run as
        one job per silver table: it reads the table's new files once and
        fans each batch out to the source's class flows, then commits to
        each of their sinks. The 3 source jobs run concurrently
        (``parallel``); commits to a shared sink are serialized by its
        metastore actor (multi-writer path, S5), or by the flock'd
        optimistic file protocol when ``use_actor=False``. Returns
        ``{(source, class): snapshot id, or None if nothing new}``."""
        from ..functions.ocsf import class_schema

        def job(src):
            routes = {
                f"gold-{src}-{cls}": (
                    self.table(GOLD_TABLES[cls]),
                    GoldTransform(src, cls),
                    class_schema(cls),
                )
                for s, cls in flows()
                if s == src
            }
            upstream = self.table(f"silver_{src}_audit_logs")
            return lambda: self._run_flows(upstream, routes, use_actor=use_actor)

        per_src = self._run_parallel({src: job(src) for src in SOURCES}, parallel)
        return {(src, cls): per_src[src][f"gold-{src}-{cls}"] for src, cls in flows()}

    def run_all(self, fixture_root: str, *, use_actor_gold: bool = True) -> None:
        self.setup()
        self.run_bronze(fixture_root)
        self.run_silver()
        self.run_gold(use_actor=use_actor_gold)

    def summary(self) -> pa.Table:
        """The reference's unified-table analytical query
        (``SELECT _source, class_name, ... COUNT(*) ... GROUP BY``,
        _resources/PIPELINE_OVERVIEW.md:299-302) over all six gold sinks."""
        rows: list[dict] = []
        for cls, name in sorted(GOLD_TABLES.items()):
            t = self.table(name)
            got = t.read_arrow(columns=["_source", "class_name"])
            if got.num_rows == 0:
                continue
            agg = got.group_by(["_source", "class_name"]).aggregate([([], "count_all")])
            for r in agg.to_pylist():
                rows.append(
                    {
                        "_source": r["_source"],
                        "class_name": r["class_name"],
                        "n_events": r["count_all"],
                    }
                )
        if not rows:
            return pa.table(
                {
                    "_source": pa.array([], pa.string()),
                    "class_name": pa.array([], pa.string()),
                    "n_events": pa.array([], pa.int64()),
                }
            )
        return pa.Table.from_pylist(rows)
