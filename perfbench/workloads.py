"""The three workloads. Each drives the engine only through its public API.

Every workload has the same shape, which ``driver.py`` runs:

* ``generate()`` — make the inputs (the benchmark's own cost, never timed);
* ``build(dir)`` — ingest plus initial maintenance into a fresh directory
  (timed as set-up, repeated, median reported);
* ``warm(rec)`` — exercise the measured code paths once, into a recorder
  whose figures are dropped (a failed check there fails the run);
* ``episode(rec)`` — one or more closed-loop operations; the driver repeats
  episodes until the window has passed. Each operation times its steps with
  ``rec.timed(kind)`` and reports wrong results with ``rec.check``.

What the shared end-to-end metrics mean per workload (see README.md):

========== ============================ ========================= =====================
workload   "write" step                 "read" step               rows of rows_per_cpu_s
========== ============================ ========================= =====================
maintain   compact→cluster→merge→expire full table read           table turns per cycle
churn      one ~100-key MERGE           one point lookup          MERGE source rows
medallion  one bronze→silver→gold wave  one gold ``summary()``    events per wave
========== ============================ ========================= =====================
"""

from __future__ import annotations

import json
import os
import re
import shutil
from time import perf_counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg
from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions import ocsf
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.medallion import (
    GOLD_TABLES,
    SOURCES,
    Medallion,
)
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import (
    MERGE_SOURCE,
    TRANSCRIPT,
    TRANSCRIPT_STATS_COLS,
)
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
    changes,
    cluster,
    compact,
    expire,
    merge,
    optimize,
)
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest, metastore
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

PARTITIONS = 16
WARM_SF = 0.002
HOUR_US = 3_600_000_000
#: Zipf exponent of the churn MERGE keys
ZIPF_S = 1.1

#: default and smoke sizes; the smoke scale only checks that every path runs
SIZES = {
    "default": {
        "maintain_sf": 0.03,
        "churn_sf": 0.02,
        "churn_keys": 100,
        "events": 5000,
    },
    "smoke": {
        "maintain_sf": 0.001,
        "churn_sf": 0.001,
        "churn_keys": 20,
        "events": 200,
    },
}


def engine_config(cpus: int) -> cfg.EngineConfig:
    return cfg.EngineConfig(
        num_partitions=PARTITIONS,
        target_file_bytes=8 * 1024 * 1024,
        rewrite_concurrency=cpus,
        batch_size=64 * 1024,
    )


def create_transcripts(d: str, conf: cfg.EngineConfig) -> Table:
    return Table.create(
        d,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{PARTITIONS}",
        config=conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )


def ordered(t: pa.Table) -> pa.Table:
    return t.take(
        pc.sort_indices(t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )


# ---------------------------------------------------------------------------


class Maintain:
    """Bulk maintenance of a fresh small-file copy: compact → Z-order
    cluster → the full FIXTURES §2 MERGE → expire, then an ordered scan that
    must equal ``synth.apply_merge_expected``. An episode is 3 cycles, so a
    run's median cycle is the middle one of at least three."""

    CYCLES_PER_EPISODE = 3
    #: the maintained table is read this many times after each cycle
    READS_PER_CYCLE = 5

    def __init__(self, work: str, conf: cfg.EngineConfig, seed: int, size: dict):
        self.work, self.conf, self.seed = work, conf, seed
        self.tables: list[Table] = []  # the tables the gauges read
        self.sf = size["maintain_sf"]
        self.cycle = 0

    def generate(self) -> None:
        self.data = synth.transcripts(self.sf)
        self.source = synth.merge_source(self.data)
        self.expected = synth.apply_merge_expected(self.data, self.source)
        # ≥8 small files per partition so compaction packs real bins
        self.rows_per_file = max(50, self.data.num_rows // (PARTITIONS * 16))

    def build(self, d: str) -> None:
        t = create_transcripts(d, self.conf)
        t.write_table(self.data, rows_per_file=self.rows_per_file)
        self.template = d

    def warm(self, rec) -> None:
        # one cycle on a small table starts the worker pool and loads every
        # module the cycle uses (each measured cycle copies the template
        # untimed, which leaves its input in the page cache)
        d = os.path.join(self.work, "warm")
        data = synth.transcripts(WARM_SF)
        t = create_transcripts(d, self.conf)
        t.write_table(data, rows_per_file=max(50, data.num_rows // (PARTITIONS * 16)))
        compact.compact(t)
        cluster.cluster(t, mode="auto", curve="zorder")
        merge.merge(t, synth.merge_source(data))
        expire.expire_snapshots(t)
        t.read_arrow()

    def episode(self, rec) -> None:
        for _ in range(self.CYCLES_PER_EPISODE):
            self._cycle(rec)

    def _cycle(self, rec) -> None:
        d = os.path.join(self.work, f"cycle-{self.cycle}")
        self.cycle += 1
        shutil.copytree(self.template, d)  # untimed: the input of one cycle
        t = Table(d, self.conf)
        with rec.op():
            with rec.timed("write", settle=True):
                compact.compact(t)
                cluster.cluster(t, mode="auto", curve="zorder")
                merge.merge(t, self.source)
                expire.expire_snapshots(t)
            with rec.timed("read", n=self.READS_PER_CYCLE):
                for _ in range(self.READS_PER_CYCLE):
                    got = t.read_arrow()
        rec.work(self.data.num_rows, rec.last_cpu("write"))
        rec.check(ordered(got).equals(self.expected), "ordered scan != apply_merge_expected")
        self.tables = [t]
        if self.cycle > 1:
            shutil.rmtree(os.path.join(self.work, f"cycle-{self.cycle - 2}"))


# ---------------------------------------------------------------------------


class Churn:
    """Small Zipf-skewed MERGEs with the change feed and point/range reads
    beside them; every 5th op re-optimizes the already-healthy table. An
    episode is 5 ops, so every run has the same share of re-optimizes."""

    LOOKUPS = 8
    OPS_PER_EPISODE = 5

    def __init__(self, work: str, conf: cfg.EngineConfig, seed: int, size: dict):
        self.work, self.conf, self.seed = work, conf, seed
        self.tables: list[Table] = []  # the tables the gauges read
        self.sf = size["churn_sf"]
        self.n_keys = size["churn_keys"]
        self.rng = np.random.default_rng(seed)
        self.ops = 0

    def generate(self) -> None:
        self.data = synth.transcripts(self.sf)
        # driver-side model of the table's keys and timestamps
        self.model = self.data.select(["conv_id", "turn_idx", "ts"])
        convs = self.data["conv_id"].unique().to_pylist()
        # Zipf over a seeded permutation of the conversations
        self.convs = [convs[i] for i in self.rng.permutation(len(convs))]
        w = 1.0 / np.arange(1, len(convs) + 1) ** ZIPF_S
        self.zipf_p = w / w.sum()
        # op mix in FIXTURES §2 proportions: every 97th key updated, every
        # 211th deleted, one insert per 113th conversation
        n = self.data.num_rows
        mix = np.array([n / 97, n / 211, len(convs) / 113])
        self.op_p = mix / mix.sum()
        pool = np.random.default_rng(synth.SEED).choice(len(convs), self.LOOKUPS * self.OPS_PER_EPISODE, replace=False)
        self.lookup_pool = [convs[i] for i in sorted(pool)]
        self._lookup_queue: list[str] = []
        ts = self.data["ts"].cast(pa.int64())
        self.ts_lo, self.ts_hi = pc.min(ts).as_py(), pc.max(ts).as_py()

    def build(self, d: str) -> None:
        t = create_transcripts(d, self.conf)
        t.write_table(self.data, rows_per_file=max(50, self.data.num_rows // (PARTITIONS * 8)))
        compact.compact(t)
        cluster.cluster(t, mode="auto", curve="zorder")
        self.table = t
        self.tables = [t]

    def warm(self, rec) -> None:
        # build() ran compact and cluster three times; warm MERGE, the feed
        # and the reads
        self._op(rec, reoptimize=False)

    def episode(self, rec) -> None:
        self._lookup_queue = []
        for k in range(self.OPS_PER_EPISODE):
            self._op(rec, reoptimize=k == self.OPS_PER_EPISODE - 1)

    def _source(self) -> tuple[pa.Table, dict]:
        """n_keys MERGE rows with distinct keys; returns (source, expected
        change counts). Keys are drawn until n_keys are distinct, so every
        op merges the same number of rows whatever the seed."""
        turns: dict[str, dict[int, int]] = {}
        rows: dict[tuple[str, int], tuple[str, int]] = {}
        while len(rows) < self.n_keys:
            k = self.n_keys - len(rows)
            picked = [self.convs[i] for i in self.rng.choice(len(self.convs), k, p=self.zipf_p)]
            ops = self.rng.choice(3, k, p=self.op_p)
            new = sorted(set(picked) - set(turns))
            cur = self.model.filter(pc.is_in(self.model["conv_id"], value_set=pa.array(new, pa.string())))
            turns.update((c, {}) for c in new)
            for c, i, ts in zip(
                cur["conv_id"].to_pylist(),
                cur["turn_idx"].to_pylist(),
                cur["ts"].cast(pa.int64()).to_pylist(),
            ):
                turns[c][i] = ts
            for conv, op in zip(picked, ops):
                have = turns[conv]
                if op == 2 or not have:
                    turn = max(have, default=-1) + 1
                    ts = max(have.values(), default=self.ts_lo) + 37_000_000
                    have[turn] = ts
                    rows[(conv, turn)] = ("insert", ts)
                    continue
                keys = sorted(have)
                turn = keys[int(self.rng.integers(len(keys)))]
                if (conv, turn) not in rows:
                    rows[(conv, turn)] = ("update" if op == 0 else "delete", have[turn])
        keys = list(rows)
        opcol = [rows[k][0] for k in keys]
        src = pa.table(
            {
                "conv_id": [k[0] for k in keys],
                "turn_idx": pa.array([k[1] for k in keys], pa.int32()),
                "role": ["user"] * len(keys),
                "text": [
                    f"edited:{self.seed}:{self.ops}:{k[0]}/{k[1]}" if o != "delete" else ""
                    for k, o in zip(keys, opcol)
                ],
                "tool": [""] * len(keys),
                "ts": pa.array([rows[k][1] for k in keys], pa.int64()).cast(pa.timestamp("us")),
                "op": opcol,
            },
            schema=MERGE_SOURCE,
        )
        n_upd, n_del = opcol.count("update"), opcol.count("delete")
        n_ins = len(keys) - n_upd - n_del
        return src, {"removed": n_upd + n_del, "added": n_upd + n_ins}

    def _lookup_keys(self) -> list[str]:
        """The next LOOKUPS keys of a seeded walk over a fixed pool of
        conversations. A lookup costs one to three file reads depending on
        its key, so an episode looks up every pool key once: the run's
        median then does not hinge on which keys the seed drew."""
        if not self._lookup_queue:
            self._lookup_queue = [self.lookup_pool[i] for i in self.rng.permutation(len(self.lookup_pool))]
        keys, self._lookup_queue = self._lookup_queue[: self.LOOKUPS], self._lookup_queue[self.LOOKUPS :]
        return keys

    def _apply_to_model(self, src: pa.Table) -> None:
        keys = src.select(["conv_id", "turn_idx"])
        kept = self.model.join(keys, ["conv_id", "turn_idx"], join_type="left anti")
        ups = src.filter(pc.not_equal(src["op"], "delete")).select(["conv_id", "turn_idx", "ts"])
        self.model = pa.concat_tables([kept, ups.cast(kept.schema)]).combine_chunks()

    def _op(self, rec, reoptimize: bool) -> None:
        t = self.table
        self.ops += 1
        src, want = self._source()
        self._apply_to_model(src)
        with rec.op():
            before = t.current_snapshot_id()
            with rec.timed("write", settle=True):
                merge.merge(t, src)
            after = t.current_snapshot_id()
            with rec.timed("changes", settle=True), rec.span("stages.changes"):
                feed = changes.snapshot_changes(t, before, after).take_all()
            rec.changes_files(t, before, after)
            got = {"removed": 0, "added": 0}
            for r in feed:
                got[r["change"]] += 1
            rec.check(got == want, f"change feed {got} != source net effect {want}")

            keys = self._lookup_keys()
            found, walls = [], []
            with rec.timed("read", n=len(keys)):
                for conv in keys:
                    t0 = perf_counter()
                    rows = t.read_arrow(predicates={"conv_id": (conv, conv)})
                    found.append(pc.sum(pc.equal(rows["conv_id"], conv)).as_py() or 0)
                    walls.append(perf_counter() - t0)
            rec.wall("lookup", walls)
            for conv, n in zip(keys, found):
                rec.lookup_files(t, {"conv_id": (conv, conv)}, conv)
                want_n = pc.sum(pc.equal(self.model["conv_id"], conv)).as_py() or 0
                rec.check(n == want_n, f"lookup {conv}: {n} turns, model has {want_n}")

            lo = int(self.rng.integers(self.ts_lo, self.ts_hi - HOUR_US))
            hi = lo + HOUR_US - 1
            with rec.timed("range"):
                rows = t.read_arrow(predicates={"ts": (lo, hi)})
                ts = rows["ts"].cast(pa.int64())
                n = pc.sum(pc.and_(pc.greater_equal(ts, lo), pc.less_equal(ts, hi))).as_py() or 0
            mts = self.model["ts"].cast(pa.int64())
            want_n = pc.sum(pc.and_(pc.greater_equal(mts, lo), pc.less_equal(mts, hi))).as_py() or 0
            rec.check(n == want_n, f"range read: {n} rows, model has {want_n}")

            if reoptimize:
                with rec.timed("reoptimize", settle=True):
                    optimize.optimize(t, expire_keep_last=3)
        rec.work(src.num_rows, rec.op_cpu())


# ---------------------------------------------------------------------------


def _event_action(source: str, line: str) -> str:
    doc = json.loads(line)
    return doc["attributes"]["action"] if source == "atlassian" else doc["action"]


class MedallionWaves:
    """JSONL waves through bronze → silver → gold(use_actor=True), then the
    gold ``summary()``. An episode is a fresh medallion receiving a fixed
    number of waves, so every summary sample reads the same number of gold
    files whatever the engine's speed. One wave costs about 21 s of CPU,
    so an episode is one wave to keep a run inside its time budget. The
    flows of each layer run concurrently, the engine's default, so the two
    or three flows of a gold sink commit through its metastore actor while
    the others are in flight."""

    WAVES = 1
    #: the summary is timed this many times after each wave
    SUMMARIES = 3

    def __init__(self, work: str, conf: cfg.EngineConfig, seed: int, size: dict):
        self.work, self.conf, self.seed = work, conf, seed
        self.tables: list[Table] = []  # the tables the gauges read
        self.events = size["events"]
        self.episodes = 0
        # the reference's routing: one RLIKE per (source, class) flow
        self.routes = {src: [] for src in SOURCES}
        for (src, cls), rx in sorted(ocsf.CLASS_REGEX.items()):
            self.routes[src].append((re.compile(rx), ocsf.CLASS_NAMES[cls]))

    def generate(self) -> None:
        pass  # waves are generated per episode, untimed

    def build(self, d: str) -> None:
        m = Medallion(d, self.conf)
        m.setup()
        # the gold sinks' commit service: one metastore actor per sink
        import ray

        ray.get([metastore.get_or_create(m.table(n).dir).current.remote() for n in GOLD_TABLES.values()])
        self.root = d

    def warm(self, rec) -> None:
        # build() already started the worker pool (the sinks' actors), and
        # every flow starts its own actor, so nothing is left to warm
        pass

    def _wave(self, fx: str, wave: int) -> dict[tuple[str, str], int]:
        start = self.seed * 1_000_000 + (self.episodes * self.WAVES + wave) * self.events
        paths = synth.write_audit_fixture(
            fx, self.events, files_per_source=5, wave=f"w{wave:03d}", start=start
        )
        want: dict[tuple[str, str], int] = {}
        for src, files in paths.items():
            for p in files:
                with open(p) as f:
                    for line in f:
                        action = _event_action(src, line)
                        for rx, name in self.routes[src]:
                            if rx.search(action):
                                want[(src, name)] = want.get((src, name), 0) + 1
        return want

    def episode(self, rec) -> None:
        fx = os.path.join(self.work, "arrivals")
        for d in (self.root, fx):
            shutil.rmtree(d, ignore_errors=True)
        # the root build() used, so the sinks' metastore actors carry over
        m = Medallion(self.root, self.conf)
        m.setup()
        want: dict[tuple[str, str], int] = {}
        for wave in range(self.WAVES):
            for k, v in self._wave(fx, wave).items():
                want[k] = want.get(k, 0) + v
            with rec.op():
                with rec.timed("write", settle=True):
                    m.run_bronze(fx)
                    m.run_silver()
                    m.run_gold(use_actor=True)
                with rec.timed("read", n=self.SUMMARIES):
                    for _ in range(self.SUMMARIES):
                        summary = m.summary()
            rec.work(len(SOURCES) * self.events, rec.last_cpu("write"))
            n_written = (wave + 1) * self.events
            for src in SOURCES:
                for layer in ("bronze", "silver"):
                    ents = m.table(f"{layer}_{src}_audit_logs").entries()
                    n = pc.sum(ents["rows"]).as_py() or 0
                    rec.check(n == n_written, f"{layer} {src}: {n} rows, {n_written} events written")
            got = {(r["_source"], r["class_name"]): r["n_events"] for r in summary.to_pylist()}
            rec.check(got == want, f"gold summary {got} != recount {want}")
        self.episodes += 1
        self.tables = [m.table(n) for n in GOLD_TABLES.values()]


WORKLOADS = {"maintain": Maintain, "churn": Churn, "medallion": MedallionWaves}


def table_gauges(tables: list[Table]) -> dict[str, float]:
    """Layout gauges summed over the workload's tables (end of window)."""
    live = small = snaps = log_bytes = 0
    for t in tables:
        ents = t.entries()
        live += ents.num_rows
        limit = t.config.small_file_fraction * t.config.target_file_bytes
        small += sum(1 for b in ents["bytes"].to_pylist() if b < limit)
        snaps += len(manifest.list_snapshot_ids(t.dir))
        mdir = os.path.join(t.dir, manifest.MANIFEST_DIR)
        log_bytes += sum(os.path.getsize(os.path.join(mdir, f)) for f in os.listdir(mdir))
    return {
        "manifest.live_files": live,
        "manifest.small_file_ratio": small / live if live else 0.0,
        "manifest.snapshots": snaps,
        "manifest.log_bytes": log_bytes,
    }


def files_holding(t: Table, pred: dict, conv: str) -> tuple[int, int]:
    """(files a lookup reads, files that really hold ``conv``)."""
    ents = t.pruned_entries(pred)
    hits = 0
    for p in ents["path"].to_pylist():
        col = pq.read_table(os.path.join(t.dir, p), columns=["conv_id"])["conv_id"]
        hits += bool(pc.any(pc.equal(col, conv)).as_py())
    return ents.num_rows, hits
