"""Declarative pipeline builder, transform registry and the engine's one
append-flow runner (SURVEY.md §2.9).

Reference analog: ``@sdp.table`` / ``@sdp.append_flow`` / ``sdp.create_sink``
bind pure DataFrame→DataFrame transform functions to flows
(/root/reference/transformations/mappings/ocsf/iam/
gold_ocsf_iam_event_classes_delta_sinks.py:47-69,184-305). Here a user
registers ``Callable[[pa.Table], pa.Table]`` batch transforms and composes
them into ``upstream → [transforms] → sink`` flows.

``run_flows`` runs every append flow of the engine: bronze ingest
(sources/jsonl.py), the medallion's silver and gold (pipelines/medallion.py)
and a ``Pipeline``. It reads each new upstream file once and writes one file
per (sink, partition) (the bounded fan-out of Hyper Dimension Shuffle,
VLDB'19). Each flow records the upstream files it consumed in its sink's
input ledger (state/lineage.py, op ``flow-<tag>``), atomically with the
sink's commit, so a re-run processes only files added since — the
``spark.readStream.table`` / Auto Loader exactly-once analog.
"""

from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import pyarrow as pa
import pyarrow.compute as pc

from ..sources import jsonl
from ..state import lineage, manifest
from ..table import Table, align_to, read_file

REGISTRY: dict[str, Callable[[pa.Table], pa.Table]] = {}


def register(name: str | None = None):
    """Decorator: add a batch transform to the global registry."""

    def deco(fn):
        REGISTRY[name or fn.__name__] = fn
        return fn

    return deco


def transform(name: str) -> Callable[[pa.Table], pa.Table]:
    return REGISTRY[name]


class Flow(NamedTuple):
    """One append flow: the new files of ``upstream`` (a Table, or a
    directory of JSONL files) → ``transforms`` (registered names or
    callables, applied in order) → rows appended to ``sink``. ``schema``,
    if set, is what the sink's schema evolves to on the flow's first
    append; ``tag`` names the flow in the sink's input ledger."""

    tag: str
    upstream: Table | str
    sink: Table
    transforms: list
    schema: pa.Schema | None = None


def _dir(upstream: Table | str) -> str:
    return upstream if isinstance(upstream, str) else upstream.dir


def _upstream(up: Table | str) -> tuple[list[dict], Callable[[str], pa.Table]]:
    """An upstream's two runner operations: its live files as ``{path,
    partition, bytes}`` rows (absolute paths), and a reader of one file —
    a Table file's live rows (its entry's deleted positions dropped, as
    ``read_files`` does) aligned to the snapshot schema, a JSONL file's
    lines."""
    if isinstance(up, str):
        return jsonl.list_files(up), jsonl.read_lines
    ents, meta = up.snapshot()
    rows = ents.select(["path", "partition", "bytes", "deleted"]).to_pylist()
    rows = [dict(r, path=os.path.join(up.dir, r["path"])) for r in rows]
    deleted, schema = {r["path"]: r["deleted"] for r in rows}, meta["schema"]
    return rows, lambda p: align_to(read_file(p, None, deleted[p]), schema)


def _plan(
    flows: list[Flow],
) -> tuple[list[dict], dict[str, list[str]], dict[str, Callable[[str], pa.Table]]]:
    """(units, ``{tag: the flow's new upstream files}``, ``{upstream dir:
    its file reader}``) of a call's flows, from one listing per upstream
    and one ledger read per sink. A flow's new files are its upstream's
    live files minus what its sink's input ledger (state/lineage.py, op
    ``flow-<tag>``) has consumed. The new files of every upstream are
    grouped by partition — silver and gold share ``_event_date`` with
    their upstreams, a JSONL directory is one partition — and each
    partition is cut into byte-capped file bins (``rewrite.pack_bins`` at
    ``target_file_bytes``). A unit is a run of whole bins, in partition
    order, of at most one task slot's even share of the call's bytes (and
    ``target_file_bytes``): each flow's transforms then run once per unit,
    not once per partition, and every slot still gets a unit. On a
    perfbench wave (~170 rows per source and partition, one Xeon core) the
    15 gold transforms took 1.4 s of CPU run once per partition, against
    0.18 s run once over the wave."""
    from ..stages import rewrite

    config = flows[0].sink.config
    by_path: dict[str, dict] = {}
    live: dict[str, list[str]] = {}
    readers: dict[str, Callable[[str], pa.Table]] = {}
    for d, up in {_dir(f.upstream): f.upstream for f in flows}.items():
        rows, readers[d] = _upstream(up)
        live[d] = sorted(r["path"] for r in rows)
        by_path.update((r["path"], r) for r in rows)
    seen: dict[str, set[str]] = {}
    for d in {f.sink.dir for f in flows}:
        ops = [f"flow-{f.tag}" for f in flows if f.sink.dir == d]
        for op, files in lineage.consumed_inputs(d, ops).items():
            seen[op.removeprefix("flow-")] = files
    new = {f.tag: [p for p in live[_dir(f.upstream)] if p not in seen[f.tag]] for f in flows}
    parts: dict[str, set[str]] = {}
    for files in new.values():
        for p in files:
            parts.setdefault(by_path[p]["partition"], set()).add(p)
    cap = config.target_file_bytes
    bins = [b for _, files in sorted(parts.items()) for b in rewrite.pack_bins(files, by_path, cap)]
    size = [sum(by_path[p]["bytes"] for p in b) for b in bins]
    share = min(cap, -(-sum(size) // config.rewrite_concurrency))
    units: list[dict] = []
    for b, n in zip(bins, size):
        if not units or units[-1]["in_bytes"] + n > share:
            units.append({"inputs": [], "in_bytes": 0})
        units[-1]["inputs"] += b
        units[-1]["in_bytes"] += n
    units = [dict(u, inputs=json.dumps(u["inputs"])) for u in units]
    return units, new, readers


def run_flows(
    flows: list[Flow], *, use_actor: bool = False
) -> dict[str, tuple[int | None, list[str]]]:
    """Run ``flows`` (unique tags) in one Ray Data job of partition-aligned
    units (``_plan``), at any plan size: the transforms run Python under
    the GIL, so on driver threads (``rewrite.map_units``' small plans)
    ``bench.py``'s ``medallion_all`` took 14.2-15.0 s against 12.5-13.2 s
    as a Ray Data job (4 Ray CPUs, 2 threads or tasks, 3 runs each). A unit
    task reads each of its files once; each flow transforms the
    concatenated rows of its own new files (flows of one upstream share
    them unless a crash between sink commits split their file sets); each
    sink's flow outputs are concatenated and written as one file per
    partition of the unit. Each sink then gets one commit (through its
    metastore actor if ``use_actor``), whose extras name every flow's
    consumed files, mirrored into one file of the sink's lineage log — so
    every flow is exactly-once on its own. Returns ``{tag: (the sink's
    snapshot id, or None if the flow had nothing new; the upstream files
    it consumed)}``."""
    from ..stages.rewrite import ray_map_units

    if len({f.tag for f in flows}) < len(flows):
        raise ValueError(f"flow tags repeat: {sorted(f.tag for f in flows)}")
    if not flows:
        return {}
    units, new, readers = _plan(flows)
    sinks = [t for _, t in sorted({f.sink.dir: f.sink for f in flows if new[f.tag]}.items())]
    # sink specs and stats columns resolved once, on the driver
    metas = [t.snapshot()[1] for t in sinks]
    writers = [(t, m["partition_spec"], manifest.stats_cols(m)) for t, m in zip(sinks, metas)]
    sink_of = {t.dir: i for i, t in enumerate(sinks)}
    read_of = {p: readers[_dir(f.upstream)] for f in flows for p in new[f.tag]}
    # flows grouped by their new files: a group's rows are concatenated once
    groups: dict[frozenset, list[tuple[int, list[Callable]]]] = {}
    for f in flows:
        if new[f.tag]:
            fns = [transform(t) if isinstance(t, str) else t for t in f.transforms]
            groups.setdefault(frozenset(new[f.tag]), []).append((sink_of[f.sink.dir], fns))
    tagged = manifest.ENTRY_SCHEMA.append(pa.field("sink", pa.int32()))

    def run_units(batch: pa.Table) -> pa.Table:
        out = [tagged.empty_table()]
        for unit in batch.to_pylist():
            files = json.loads(unit["inputs"])
            rows = {p: read_of[p](p) for p in files}
            per_sink: dict[int, list[pa.Table]] = {}
            for group_files, routes in groups.items():
                mine = [rows[p] for p in files if p in group_files]
                if not mine:
                    continue
                t = pa.concat_tables(mine).combine_chunks()
                for s, fns in routes:
                    per_sink.setdefault(s, []).append(functools.reduce(lambda b, fn: fn(b), fns, t))
            for s, parts in per_sink.items():
                sink, spec, stats_cols = writers[s]
                ents = sink.write_batch_files(pa.concat_tables(parts), spec, stats_cols, "a")
                tag = pa.array([s] * ents.num_rows, pa.int32())
                out.append(ents.append_column("sink", tag))
        return pa.concat_tables(out)

    entries = ray_map_units(units, run_units, flows[0].sink.config.rewrite_concurrency, tagged)
    out: dict[str, tuple[int | None, list[str]]] = {f.tag: (None, []) for f in flows}
    for s, sink in enumerate(sinks):
        mine = [f for f in flows if f.sink.dir == sink.dir and new[f.tag]]
        consumed = {f"flow-{f.tag}": new[f.tag] for f in mine}
        schemas = [f.schema for f in mine if f.schema is not None]
        parent = sink.current_snapshot_id()
        sid = sink.commit(
            added=entries.filter(pc.equal(entries["sink"], s)).drop_columns(["sink"]),
            removed=[],
            operation="flow-" + "+".join(f.tag for f in mine),
            use_actor=use_actor,
            evolve_schema=pa.unify_schemas(schemas) if schemas else None,
            extra=lineage.inputs_extra(consumed),
        )
        lineage.record_inputs(sink.dir, parent, sid, consumed)
        out.update((f.tag, (sid, new[f.tag])) for f in mine)
    return out


@dataclass
class Pipeline:
    """A list of flows (the ``@sdp.append_flow`` registration list);
    several flows may share one sink, and one flow's sink may be another's
    upstream."""

    name: str
    flows: list[Flow] = field(default_factory=list)

    def add(self, flow: Flow) -> "Pipeline":
        self.flows.append(flow)
        return self

    def run(self) -> dict[str, int | None]:
        """One ``run_flows`` call per dependency layer: a flow whose
        upstream is the sink of a flow not yet run waits for the next
        call, so a chain of flows fills its last sink in one run. Returns
        ``{tag: the sink's snapshot id, or None if nothing was new}``."""
        out: dict[str, int | None] = {}
        todo = list(self.flows)
        while todo:
            fed = {f.sink.dir for f in todo}
            ready = [f for f in todo if _dir(f.upstream) not in fed]
            if not ready:
                raise ValueError(f"pipeline {self.name!r}: its flows feed each other in a cycle")
            out.update((tag, sid) for tag, (sid, _) in run_flows(ready).items())
            todo = [f for f in todo if f not in ready]
        return out
