"""The medallion pipeline: bronze → silver → gold OCSF fan-out.

Re-expression of the reference's three entry points (SURVEY.md §3):

EP1 bronze ingest  — Auto Loader JSONL → variant + 7 metadata columns
    (bronze_<src>_audit_logs.py); here: the JSONL flows of
    sources.jsonl.ingest_jsonl through functions.meta.BronzeMeta into
    ``_event_date``-partitioned Tables.
EP2 silver parse   — readStream.table(bronze) → 17-26 ``try_variant_get``
    extractions (silver_<src>_audit_logs.py:29-82); here: incremental
    bronze-file scan → functions.variant.SilverExtract per unit.
EP3 gold fan-out   — 15 ``@sdp.append_flow`` → 6 shared Delta sinks with
    mergeSchema + pre-created minimal ``time TIMESTAMP`` schema
    (gold_ocsf_iam_event_classes_delta_sinks.py:117-179,184-305;
    utilities/pre_setup_ocsf_tables.py:96-116); here: the GoldTransform
    flows of all 3 silver tables, one commit per sink (serialized by each
    table's metastore actor), with schema evolution on first append.

Every layer is one call of the engine's one append-flow runner,
``pipelines.builder.run_flows``: one Ray Data job of partition-aligned
units that reads each new upstream file once and writes each sink's rows of
a partition as one file, with exactly-once consumption through each sink's
input ledger (state/lineage.py). A bronze or silver sink has one flow; a
gold sink has one flow per source that routes to its class.
"""

from __future__ import annotations

import os

import pyarrow as pa

from . import builder
from ..config import EngineConfig, DEFAULT
from ..functions.meta import BronzeMeta
from ..functions.ocsf import GoldTransform, class_schema, flows
from ..functions.variant import SilverExtract, silver_schema
from ..schema import BRONZE
from ..sources.jsonl import ingest_jsonl
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

    # -- entry points ----------------------------------------------------

    def run_bronze(self, fixture_root: str) -> dict[str, int | None]:
        """The 3 JSONL → bronze flows (``sources.jsonl.ingest_jsonl``), one
        runner call. Returns ``{source: snapshot id, or None if nothing
        new}``."""
        targets = [
            (self.table(f"bronze_{src}_audit_logs"), os.path.join(fixture_root, src), BronzeMeta(src))
            for src in SOURCES
        ]
        out = ingest_jsonl(targets)
        return {src: sid for src, (sid, _) in zip(SOURCES, out)}

    def run_silver(self) -> dict[str, int | None]:
        """The 3 bronze → silver flows, one runner call. Returns ``{source:
        snapshot id, or None if nothing new}``."""
        flows_ = [
            builder.Flow(
                f"silver-{src}",
                self.table(f"bronze_{src}_audit_logs"),
                self.table(f"silver_{src}_audit_logs"),
                [SilverExtract(src)],
                silver_schema(src),
            )
            for src in SOURCES
        ]
        out = builder.run_flows(flows_)
        return {src: out[f"silver-{src}"][0] for src in SOURCES}

    def run_gold(self, *, use_actor: bool = True) -> dict[tuple[str, str], int | None]:
        """The reference's 15 ``@append_flow``s into 6 shared sinks, run as
        one runner call: each unit reads the new silver files of all 3
        sources for whole partitions once and writes one file per (sink,
        partition); each sink gets one commit naming all of its flows'
        inputs. The commit goes through the sink's metastore actor
        (multi-writer path, S5), or the flock'd optimistic file protocol
        when ``use_actor=False``. Returns ``{(source, class): the sink's
        snapshot id, or None if the flow had nothing new}``."""
        flows_ = [
            builder.Flow(
                f"gold-{src}-{cls}",
                self.table(f"silver_{src}_audit_logs"),
                self.table(GOLD_TABLES[cls]),
                [GoldTransform(src, cls)],
                class_schema(cls),
            )
            for src, cls in flows()
        ]
        out = builder.run_flows(flows_, use_actor=use_actor)
        return {(src, cls): out[f"gold-{src}-{cls}"][0] for src, cls in flows()}

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
