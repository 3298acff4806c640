"""A/B: changes-feed phase-1 driver fold vs forced distributed fold.

Round-4 verdict stretch item 7: the capped driver ``iter_batches`` fold
(`stages/changes.py` PARTIAL_DRIVER_MAX_ROWS) is fine at sf0.1 but the
distributed ``groupby`` fold is the 100-TB shape — measure both on ONE
sf3-scale input (same table, same snapshot diff, interleaved repeats) and
flip the default if the distributed path is within noise.

Usage: [AB_SF=3] [AB_REPEAT=3] python scripts/ab_changes_fold.py
Prints one JSON line.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import bench  # reuses cached_transcripts + the bench table-build recipe


def main() -> None:
    import ray
    import ray.data as rd

    ncpu = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    sf = float(os.environ.get("AB_SF", "3"))
    repeat = int(os.environ.get("AB_REPEAT", "3"))

    ray.init(
        address="local",
        num_cpus=ncpu,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    import dataclasses

    from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import (
        TRANSCRIPT,
        TRANSCRIPT_STATS_COLS,
    )
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
        changes as changes_mod,
        cluster,
        compact,
        merge,
    )
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    base_path, src, n_rows = bench.cached_transcripts(sf)
    conf = cfg.EngineConfig(
        num_partitions=256,
        target_file_bytes=32 * 1024 * 1024,
        rewrite_concurrency=ncpu,
        batch_size=64 * 1024,
    )
    work_root = os.environ.get(
        "BENCH_WORK_DIR",
        "/dev/shm/lakeray-ab" if os.path.isdir("/dev/shm") else "/tmp/lakeray-ab",
    )
    shutil.rmtree(work_root, ignore_errors=True)
    work = f"{work_root}/ab-tbl-{os.getpid()}"
    t = Table.create(
        work,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{conf.num_partitions}",
        config=conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    n_blocks = max(8, n_rows // (5000 * conf.num_partitions))
    build_conf = dataclasses.replace(conf, batch_size=-(-n_rows // n_blocks))
    Table(work, build_conf).append_dataset(
        rd.read_parquet(base_path, override_num_blocks=n_blocks), operation="ingest"
    )
    t.scan(columns=["conv_id"]).count()

    compact.compact(t)
    cluster.cluster(t, mode="auto", curve="zorder")
    pre = t.current_snapshot_id()
    merge.merge(t, src)
    cur = t.current_snapshot_id()

    default_cap = changes_mod.PARTIAL_DRIVER_MAX_ROWS
    # the feed nets up to SUBSET_DRIVER_MAX_ROWS change rows on the driver
    # without the two-phase netting; force that netting so both arms
    # exercise the phase-1 fold under test
    changes_mod.SUBSET_DRIVER_MAX_ROWS = 0
    samples = {"driver_fold": [], "distributed_fold": []}
    feed_rows = None
    # warm both paths once untimed, then interleave timed repeats so ambient
    # load lands on both arms
    for mode, cap in (("driver_fold", default_cap), ("distributed_fold", 0)):
        changes_mod.PARTIAL_DRIVER_MAX_ROWS = cap
        changes_mod.snapshot_changes(t, pre, cur).count()
    for _ in range(repeat):
        for mode, cap in (("driver_fold", default_cap), ("distributed_fold", 0)):
            changes_mod.PARTIAL_DRIVER_MAX_ROWS = cap
            t0 = time.time()
            feed_rows = changes_mod.snapshot_changes(t, pre, cur).count()
            samples[mode].append(round(time.time() - t0, 3))
    changes_mod.PARTIAL_DRIVER_MAX_ROWS = default_cap
    shutil.rmtree(work_root, ignore_errors=True)

    out = {
        "metric": "changes-feed phase-1 fold A/B (driver vs distributed)",
        "sf": sf,
        "num_cpus": ncpu,
        "table_rows": n_rows,
        "feed_rows": feed_rows,
        "driver_fold_sec": min(samples["driver_fold"]),
        "distributed_fold_sec": min(samples["distributed_fold"]),
        "samples": samples,
        "default_cap_rows": default_cap,
    }
    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
