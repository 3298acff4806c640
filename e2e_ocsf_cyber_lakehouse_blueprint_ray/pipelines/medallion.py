"""The medallion pipeline: bronze → silver → gold OCSF fan-out.

Re-expression of the reference's three entry points (SURVEY.md §3):

EP1 bronze ingest  — Auto Loader JSONL → variant + 7 metadata columns
    (bronze_<src>_audit_logs.py); here: sources.jsonl.ingest_jsonl +
    functions.meta.BronzeMeta into an ``_event_date``-partitioned Table.
EP2 silver parse   — readStream.table(bronze) → 17-26 ``try_variant_get``
    extractions (silver_<src>_audit_logs.py:29-82); here: incremental
    bronze-file scan → functions.variant.SilverExtract per unit.
EP3 gold fan-out   — 15 ``@sdp.append_flow`` → 6 shared Delta sinks with
    mergeSchema + pre-created minimal ``time TIMESTAMP`` schema
    (gold_ocsf_iam_event_classes_delta_sinks.py:117-179,184-305;
    utilities/pre_setup_ocsf_tables.py:96-116); here: the GoldTransform
    flows of all 3 silver tables, one commit per sink (serialized by each
    table's metastore actor), with schema evolution on first append.

Silver and gold share one runner, ``Medallion._run_flows``, called once per
layer: one Ray Data job of partition-aligned units, each of which reads the
new upstream files (all sources) of whole ``_event_date`` partitions once
and writes each sink's rows of a partition as one file, so the number of
files a layer writes is set by its sinks and partitions, not by its
producers (the bounded fan-out of Hyper Dimension Shuffle, VLDB'19). A silver sink has one flow; a
gold sink has one flow per source that routes to its class.

Incremental ("streaming table") semantics: each downstream flow records the
upstream files it consumed in its target's input ledger (state/lineage.py,
the same one JSONL ingest uses); a re-run processes only upstream files
added since — the S3 ``spark.readStream.table`` exactly-once analog at file
granularity.
"""

from __future__ import annotations

import json
import os
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig, DEFAULT
from ..functions.meta import BronzeMeta
from ..functions.ocsf import GoldTransform, flows
from ..functions.variant import SilverExtract
from ..schema import BRONZE
from ..sources.jsonl import ingest_jsonl
from ..state import lineage, manifest
from ..table import Table, align_to, read_file

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


class Flow(NamedTuple):
    """One append flow: ``transform`` maps ``upstream`` rows to ``sink``
    rows of ``schema``; ``tag`` names it in the sink's input ledger."""

    tag: str
    upstream: Table
    sink: Table
    transform: Callable[[pa.Table], pa.Table]
    schema: pa.Schema


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

    def _plan(
        self, flows: list[Flow]
    ) -> tuple[list[dict], dict[str, list[str]], dict[str, pa.Schema]]:
        """(units, ``{tag: the flow's new upstream files}``, ``{upstream
        dir: its snapshot schema}``) of one layer's flows, from one snapshot
        read per upstream and one ledger read per sink. A flow's new files
        are its upstream's live files minus what its sink's input ledger
        (state/lineage.py, op ``flow-<tag>``) has consumed. The new files of
        every upstream are grouped by partition — silver and gold share
        ``_event_date`` with their upstreams — and each partition is cut
        into byte-capped file bins (``rewrite.pack_bins`` at
        ``target_file_bytes``). A unit is a run of whole bins, in partition
        order, of at most one task slot's even share of the layer's bytes
        (and ``target_file_bytes``): each flow's transform then runs once
        per unit, not once per partition, and every slot still gets a unit.
        On a perfbench wave (~170 rows per source and partition, one Xeon
        core) the 15 gold transforms took 1.4 s of CPU run once per
        partition, against 0.18 s run once over the wave."""
        from ..stages import rewrite

        by_path: dict[str, dict] = {}
        live: dict[str, list[str]] = {}
        schemas: dict[str, pa.Schema] = {}
        for up in {f.upstream.dir: f.upstream for f in flows}.values():
            ents, meta = up.snapshot()
            schemas[up.dir] = meta["schema"]
            rows = ents.select(["path", "partition", "rows", "bytes"]).to_pylist()
            live[up.dir] = sorted(os.path.join(up.dir, r["path"]) for r in rows)
            by_path.update((os.path.join(up.dir, r["path"]), r) for r in rows)
        seen: dict[str, set[str]] = {}
        for d in {f.sink.dir for f in flows}:
            ops = [f"flow-{f.tag}" for f in flows if f.sink.dir == d]
            for op, files in lineage.consumed_inputs(d, ops).items():
                seen[op.removeprefix("flow-")] = files
        new = {f.tag: [p for p in live[f.upstream.dir] if p not in seen[f.tag]] for f in flows}
        parts: dict[str, set[str]] = {}
        for files in new.values():
            for p in files:
                parts.setdefault(by_path[p]["partition"], set()).add(p)
        cap = self.config.target_file_bytes
        bins = [b for _, files in sorted(parts.items()) for b in rewrite.pack_bins(files, by_path, cap)]
        size = [sum(by_path[p]["bytes"] for p in b) for b in bins]
        share = min(cap, -(-sum(size) // self.config.rewrite_concurrency))
        units: list[dict] = []
        for b, n in zip(bins, size):
            if not units or units[-1]["in_bytes"] + n > share:
                units.append({"inputs": [], "in_bytes": 0})
            units[-1]["inputs"] += b
            units[-1]["in_bytes"] += n
        units = [dict(u, inputs=json.dumps(u["inputs"])) for u in units]
        return units, new, schemas

    def _run_flows(self, flows: list[Flow], *, use_actor: bool) -> dict[str, int | None]:
        """Run one layer's flows in one Ray Data job of partition-aligned
        units (``_plan``), at any plan size: the flow transforms run Python
        under the GIL, so on driver threads (``rewrite.map_units``' small
        plans) ``bench.py``'s ``medallion_all`` took 14.2-15.0 s against
        12.5-13.2 s as a Ray Data job (4 Ray CPUs, 2 threads or tasks, 3
        runs each). A unit task reads each of its files once,
        aligned to its upstream's snapshot schema; each flow transforms the
        concatenated rows of its own new files (flows of one upstream share
        them unless a crash between sink commits split their file sets);
        each sink's flow outputs are concatenated and written as one file
        per partition of the unit. Each sink then gets one commit, whose extras name
        every flow's consumed files, and each flow's inputs are mirrored
        into the sink's lineage log — so every flow is exactly-once on its
        own. Returns ``{tag: the sink's snapshot id, or None if the flow
        had nothing new}``."""
        from ..stages.rewrite import ray_map_units

        units, new, schemas = self._plan(flows)
        sinks = [t for _, t in sorted({f.sink.dir: f.sink for f in flows if new[f.tag]}.items())]
        # sink specs and stats columns resolved once, on the driver
        metas = [t.snapshot()[1] for t in sinks]
        writers = [(t, m["partition_spec"], manifest.stats_cols(m)) for t, m in zip(sinks, metas)]
        sink_of = {t.dir: i for i, t in enumerate(sinks)}
        schema_of = {p: schemas[f.upstream.dir] for f in flows for p in new[f.tag]}
        # flows grouped by their new files: a group's rows are concatenated once
        groups: dict[frozenset, list[tuple[int, Callable]]] = {}
        for f in flows:
            if new[f.tag]:
                routes = groups.setdefault(frozenset(new[f.tag]), [])
                routes.append((sink_of[f.sink.dir], f.transform))
        tagged = manifest.ENTRY_SCHEMA.append(pa.field("sink", pa.int32()))

        def run_units(batch: pa.Table) -> pa.Table:
            out = [tagged.empty_table()]
            for unit in batch.to_pylist():
                files = json.loads(unit["inputs"])
                rows = {p: align_to(read_file(p), schema_of[p]) for p in files}
                per_sink: dict[int, list[pa.Table]] = {}
                for group_files, routes in groups.items():
                    mine = [rows[p] for p in files if p in group_files]
                    if not mine:
                        continue
                    t = pa.concat_tables(mine).combine_chunks()
                    for s, transform in routes:
                        per_sink.setdefault(s, []).append(transform(t))
                for s, parts in per_sink.items():
                    sink, spec, stats_cols = writers[s]
                    ents = sink.write_batch_files(pa.concat_tables(parts), spec, stats_cols, "a")
                    tag = pa.array([s] * ents.num_rows, pa.int32())
                    out.append(ents.append_column("sink", tag))
            return pa.concat_tables(out)

        entries = ray_map_units(units, run_units, self.config.rewrite_concurrency, tagged)
        out: dict[str, int | None] = {f.tag: None for f in flows}
        for s, sink in enumerate(sinks):
            mine = [f for f in flows if f.sink.dir == sink.dir and new[f.tag]]
            consumed = {f"flow-{f.tag}": new[f.tag] for f in mine}
            parent = sink.current_snapshot_id()
            sid = sink.commit(
                added=entries.filter(pc.equal(entries["sink"], s)).drop_columns(["sink"]),
                removed=[],
                operation="flow-" + "+".join(f.tag for f in mine),
                use_actor=use_actor,
                evolve_schema=pa.unify_schemas([f.schema for f in mine]),
                extra=lineage.inputs_extra(consumed),
            )
            for f in mine:
                lineage.record_inputs(sink.dir, f"flow-{f.tag}", parent, sid, new[f.tag])
                out[f.tag] = sid
        return out

    # -- entry points ----------------------------------------------------

    def run_bronze(self, fixture_root: str, *, use_actor: bool = False) -> dict[str, int | None]:
        """One JSONL ingest job per source (``sources.jsonl.ingest_jsonl``),
        run concurrently in driver threads."""

        def job(src):
            t = self.table(f"bronze_{src}_audit_logs")
            sid, _ = ingest_jsonl(
                t, os.path.join(fixture_root, src), BronzeMeta(src), use_actor=use_actor
            )
            return sid

        with ThreadPoolExecutor(max_workers=len(SOURCES)) as ex:
            return dict(zip(SOURCES, ex.map(job, SOURCES)))

    def run_silver(self, *, use_actor: bool = False) -> dict[str, int | None]:
        """The 3 bronze → silver flows, one runner call. Returns ``{source:
        snapshot id, or None if nothing new}``."""
        from ..functions.variant import silver_schema

        flows_ = [
            Flow(
                f"silver-{src}",
                self.table(f"bronze_{src}_audit_logs"),
                self.table(f"silver_{src}_audit_logs"),
                SilverExtract(src),
                silver_schema(src),
            )
            for src in SOURCES
        ]
        out = self._run_flows(flows_, use_actor=use_actor)
        return {src: out[f"silver-{src}"] for src in SOURCES}

    def run_gold(self, *, use_actor: bool = True) -> dict[tuple[str, str], int | None]:
        """The reference's 15 ``@append_flow``s into 6 shared sinks, run as
        one runner call: each unit reads the new silver files of all 3
        sources for whole partitions once and writes one file per (sink,
        partition);
        each sink gets one commit naming all of its flows' inputs. The
        commit goes through the sink's metastore actor (multi-writer path,
        S5), or the flock'd optimistic file protocol when
        ``use_actor=False``. Returns ``{(source, class): the sink's
        snapshot id, or None if the flow had nothing new}``."""
        from ..functions.ocsf import class_schema

        flows_ = [
            Flow(
                f"gold-{src}-{cls}",
                self.table(f"silver_{src}_audit_logs"),
                self.table(GOLD_TABLES[cls]),
                GoldTransform(src, cls),
                class_schema(cls),
            )
            for src, cls in flows()
        ]
        out = self._run_flows(flows_, use_actor=use_actor)
        return {(src, cls): out[f"gold-{src}-{cls}"] for src, cls in flows()}

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
