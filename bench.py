"""Benchmark harness.

Headline: the maintenance pipeline (bin-packing compaction → Z-order
cluster → copy-on-write MERGE → verification scan) over the synthetic
FIXTURES.md transcript table at the scale matching $GRAFT_SF_DIR, plus a
representative query set over the testdata tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline seconds>, "unit": "sec",
   "queries": {...}, "sf": ..., "num_cpus": N, "turns_per_sec": ...,
   "cores_available": ..., "total_ram_mb": ...}

``RAY_GRAFT_CPUS`` (Ray's CPU count) defaults to the cores this process may
run on (its affinity mask), so the bench never oversubscribes its host.

``--scaling`` runs the same bench in two fresh processes at
RAY_GRAFT_CPUS=8 and =32 on the same input (sandbox stand-in for N vs 4N
nodes) and reports both throughputs + scaling efficiency.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
CORES_AVAILABLE = len(os.sched_getaffinity(0))
TOTAL_RAM_MB = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", CORES_AVAILABLE))

BENCH_QUERIES = [
    "q01_pricing_summary",
    "q03_top_orders",
    "q_mktsegment_orders",
    "q_events_hourly",
    "q_events_sessionize",
    "q_dedup_exact",
    "q_lang_id",
    "q_ann_topk",
    "q_asof_orders",
    "q_hash_join",
]


def sf_value() -> float:
    base = os.path.basename(SF_DIR.rstrip("/"))
    return float(base.replace("sf", "")) if base.startswith("sf") else 0.1


def cached_transcripts(sf: float):
    """Returns (base_parquet_path, merge_source_table, n_rows), cached in
    ``bench-cache`` under the engine's scratch dir (``ENGINE_SCRATCH``)."""
    import pyarrow.parquet as pq

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.config import scratch_dir

    cache = os.path.join(scratch_dir(), "bench-cache")
    os.makedirs(cache, exist_ok=True)
    path = f"{cache}/transcripts-sf{sf}.parquet"
    src_path = f"{cache}/merge-src-sf{sf}.parquet"
    if not (os.path.exists(path) and os.path.exists(src_path)):
        from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth

        base = synth.transcripts(sf)
        pq.write_table(base, path + ".tmp", compression="zstd")
        os.replace(path + ".tmp", path)
        src = synth.merge_source(base)
        pq.write_table(src, src_path + ".tmp", compression="zstd")
        os.replace(src_path + ".tmp", src_path)
    n_rows = pq.ParquetFile(path).metadata.num_rows
    return path, pq.read_table(src_path), n_rows


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import cluster, compact, merge
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    sf = sf_value()
    base_path, src, n_rows = cached_transcripts(sf)

    conf = cfg.EngineConfig(
        # several units per core: partition-parallel ops saturate AND the
        # straggler tail of the last wave stays short
        num_partitions=256,
        target_file_bytes=32 * 1024 * 1024,
        rewrite_concurrency=NUM_CPUS,
        batch_size=64 * 1024,
    )
    # Work on tmpfs when available: a single box has ONE disk, so at higher
    # parallelism the maintenance pipeline becomes seek-bound and 4x cores
    # can run SLOWER (measured at sf3: 117 s on 32 cpus vs 84 s on 8). On a
    # real N→4N-node cluster disk bandwidth scales with nodes; RAM-backed
    # files are the honest single-node stand-in for that.
    work_root = os.environ.get(
        "BENCH_WORK_DIR",
        "/dev/shm/lakeray-bench" if os.path.isdir("/dev/shm") else "/tmp/lakeray",
    )
    shutil.rmtree(work_root, ignore_errors=True)  # clear stale killed-run dirs
    work = f"{work_root}/bench-tbl-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    t = Table.create(
        work,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{conf.num_partitions}",
        config=conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    # many small files (untimed setup), written in parallel via the dataset
    # append path: read the cached parquet in ~rows_per_file*P blocks, each
    # block yields one small file per partition dir
    import dataclasses

    import ray.data as rd

    rows_per_file = 5000
    # floor of 8 write batches ⇒ ≥8 small files per partition, so compaction
    # always has real bin-packing work regardless of sf; batch_size == block
    # rows so map_batches doesn't bundle blocks back together
    n_blocks = max(8, n_rows // (rows_per_file * conf.num_partitions))
    build_conf = dataclasses.replace(conf, batch_size=-(-n_rows // n_blocks))
    Table(work, build_conf).append_dataset(
        rd.read_parquet(base_path, override_num_blocks=n_blocks), operation="ingest"
    )

    # warm page cache / object store with an untimed read
    t.scan(columns=["conv_id"]).count()

    # repeat the timed sequence and keep the fastest (shared-host noise is
    # ±30%; each repeat rebuilds the small-file layout untimed)
    repeats = int(os.environ.get("BENCH_REPEAT", "3"))
    best = None
    for rep in range(max(1, repeats)):
        if rep > 0:
            shutil.rmtree(work, ignore_errors=True)
            t = Table.create(
                work,
                TRANSCRIPT,
                partition_spec=f"hash:conv_id:{conf.num_partitions}",
                config=conf,
                stats_cols=TRANSCRIPT_STATS_COLS,
            )
            Table(work, build_conf).append_dataset(
                rd.read_parquet(base_path, override_num_blocks=n_blocks), operation="ingest"
            )
            t.scan(columns=["conv_id"]).count()
        t0 = time.time()
        compact.compact(t)
        t_compact = time.time() - t0
        t1 = time.time()
        cluster.cluster(t, mode="auto", curve="zorder")
        t_cluster = time.time() - t1
        t2 = time.time()
        pre_merge = t.current_snapshot_id()
        merge.merge(t, src)
        t_merge = time.time() - t2
        t3 = time.time()
        scanned = t.scan(columns=["conv_id", "turn_idx"]).count()
        t_scan = time.time() - t3
        headline = time.time() - t0
        # CDC feed across the merge (not part of the headline: it's a
        # consumer-side read, timed for its own trend line). Skipped in
        # maintenance-only/scaling mode: its minutes of extra compute
        # between repeats would perturb the scaling measurement itself.
        t_changes, changes_rows = None, None
        if not os.environ.get("BENCH_MAINT_ONLY"):
            from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import changes as changes_mod

            t4 = time.time()
            changes_rows = changes_mod.snapshot_changes(
                t, pre_merge, t.current_snapshot_id()
            ).count()
            t_changes = time.time() - t4
        run = dict(
            headline=headline,
            t_compact=t_compact,
            t_cluster=t_cluster,
            t_merge=t_merge,
            t_scan=t_scan,
            t_changes=t_changes,
            changes_rows=changes_rows,
            scanned=scanned,
        )
        if best is None or run["headline"] < best["headline"]:
            best = run
    headline = best["headline"]
    t_compact, t_cluster = best["t_compact"], best["t_cluster"]
    t_merge, t_scan, scanned = best["t_merge"], best["t_scan"], best["scanned"]
    shutil.rmtree(work, ignore_errors=True)

    # representative operator queries over the testdata tables (skipped in
    # maintenance-only mode, e.g. the --scaling runs on synthetic-only sf)
    qtimes = {}
    medallion_rate = None
    if not os.environ.get("BENCH_MAINT_ONLY"):
        from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import queries as q

        reg = q.queries()
        for name in BENCH_QUERIES:
            tq = time.time()
            res = reg[name](SF_DIR)
            if hasattr(res, "materialize"):
                res.materialize()
            qtimes[name] = round(time.time() - tq, 3)

        # medallion end-to-end rate (the reference's own pipeline shape):
        # bronze ingest -> silver extract -> 15 per-class gold flows
        from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as _cfg2, synth
        from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.medallion import Medallion

        # 20k/source: below ~5k the per-job fixed overhead
        # dominates and the rate reads 10× low (measured 500 ev/s at 2k vs
        # 6.3k ev/s at 20k — with LOWER wall time at 20k)
        n_events = int(os.environ.get("BENCH_MEDALLION_EVENTS", "20000"))
        med_root = f"{work_root}/bench-medallion-{os.getpid()}"
        shutil.rmtree(med_root, ignore_errors=True)
        synth.write_audit_fixture(f"{med_root}/raw", n_per_source=n_events, files_per_source=8)
        m = Medallion(f"{med_root}/tables", _cfg2.test_config())
        tm = time.time()
        m.run_all(f"{med_root}/raw", use_actor_gold=True)
        dt_med = time.time() - tm
        qtimes["medallion_all"] = round(dt_med, 3)
        medallion_rate = round(3 * n_events / dt_med, 1)
        shutil.rmtree(med_root, ignore_errors=True)
    qtimes.update(
        {
            "maint_compact": round(t_compact, 3),
            "maint_cluster_zorder": round(t_cluster, 3),
            "maint_merge": round(t_merge, 3),
            "maint_verify_scan": round(t_scan, 3),
            **(
                {"maint_changes_feed": round(best["t_changes"], 3)}
                if best["t_changes"] is not None
                else {}
            ),
        }
    )

    out = {
        "metric": "maintenance pipeline (compact + zorder-cluster + merge + scan) wall time",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": qtimes,
        "sf": sf,
        "num_cpus": NUM_CPUS,
        "cores_available": CORES_AVAILABLE,
        "total_ram_mb": TOTAL_RAM_MB,
        "rows": n_rows,
        "scanned_rows": scanned,
        "turns_per_sec": round(n_rows * 3 / headline, 1),
    }
    if medallion_rate is not None:
        out["medallion_events_per_sec"] = medallion_rate
    ray.shutdown()
    return out


def run_scaling():
    """Same maintenance job, same input, fresh processes at two CPU levels
    (sandbox stand-in for N vs 4N nodes). The input is sized by $SCALING_SF
    (default 3 ≈ 30M turns) so there is enough work per core for the
    comparison to measure scaling rather than fixed per-job overhead; both
    levels read the identical cached table.

    PAIRED A/B protocol (round-4 verdict item 1): the two levels are run
    back-to-back inside each round — round k runs (lo, hi), the next round
    (hi, lo) — so slow drift in ambient co-tenant load lands on BOTH sides
    of each per-round ratio instead of all on one level (the round-4 tables
    show the lo side alone swinging ±30% between runs while hi holds ±4%
    when all lo repeats ran minutes apart from all hi repeats). Reported:
    the per-round paired efficiencies, their MEDIAN (the headline — robust
    to one noisy round), and the min-of-rounds wall at each level."""
    import subprocess

    scaling_sf = os.environ.get("SCALING_SF", "3")

    def one(ncpu: int) -> dict:
        env = dict(
            os.environ,
            RAY_GRAFT_CPUS=str(ncpu),
            GRAFT_SF_DIR=f"/root/testdata/sf{scaling_sf}",
            BENCH_MAINT_ONLY="1",
            BENCH_REPEAT="1",  # repeats happen at the scaling level
        )
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(p.stdout.strip().splitlines()[-1])

    # N vs 4N stand-ins. BOTH pairs are reported so the single-box ceiling
    # stays auditable: 4 vs 16 cores stays under the box's DRAM-bandwidth
    # saturation point (~1.25× per-task inflation measured at 32 concurrent
    # rewrite tasks), which a real 4N-node cluster doesn't see — each node
    # brings its own DRAM/disks; 8 vs 32 shows the raw all-cores number,
    # ceiling included. Override with SCALING_CPUS="4,16;8,32" syntax.
    pairs = [
        tuple(int(x) for x in p.split(","))
        for p in os.environ.get("SCALING_CPUS", "4,16;8,32").split(";")
    ]
    rounds = int(os.environ.get("SCALING_REPEAT", "3"))

    def median(xs: list[float]) -> float:
        s = sorted(xs)
        n = len(s)
        return s[n // 2] if n % 2 else 0.5 * (s[n // 2 - 1] + s[n // 2])

    out: dict = {"pairs": [], "protocol": "paired-interleaved", "rounds": rounds}
    meta: dict | None = None
    for lo, hi in pairs:
        samples: list[dict] = []
        for k in range(rounds):
            order = (lo, hi) if k % 2 == 0 else (hi, lo)
            res = {n: one(n) for n in order}
            r_lo, r_hi = res[lo], res[hi]
            eff = (r_lo["value"] / r_hi["value"]) / (hi / lo)
            samples.append({"round": k, "order": list(order),
                            f"sec_{lo}": r_lo["value"], f"sec_{hi}": r_hi["value"],
                            "eff": round(eff, 3),
                            f"stage_sec_{lo}": {q: v for q, v in r_lo["queries"].items()
                                                if q.startswith("maint")},
                            f"stage_sec_{hi}": {q: v for q, v in r_hi["queries"].items()
                                                if q.startswith("maint")}})
            if meta is None:
                meta = {"sf": r_lo["sf"], "rows": r_lo["rows"]}
        best_lo = min(s[f"sec_{lo}"] for s in samples)
        best_hi = min(s[f"sec_{hi}"] for s in samples)
        out["pairs"].append(
            {
                "cpus": [lo, hi],
                f"sec_{lo}": best_lo,
                f"sec_{hi}": best_hi,
                "scaling_efficiency": round(median([s["eff"] for s in samples]), 3),
                "eff_median_paired": round(median([s["eff"] for s in samples]), 3),
                "eff_best_of_best": round((best_lo / best_hi) / (hi / lo), 3),
                "rounds": samples,
            }
        )
    first = out["pairs"][0]
    out.update({k: v for k, v in first.items() if k != "rounds"})
    out.update(meta or {})
    print(json.dumps(out))


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        run_scaling()
    else:
        print(json.dumps(run_bench()))
