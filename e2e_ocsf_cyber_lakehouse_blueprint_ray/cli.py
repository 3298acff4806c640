"""CLI entry point — the ``ray job submit`` surface.

On a real cluster each command runs as a Ray job against a shared table dir:

    ray job submit --working-dir . -- python -m e2e_ocsf_cyber_lakehouse_blueprint_ray.cli \
        compact --table /data/transcripts
    ... cli cluster --table /data/transcripts --mode global --curve zorder
    ... cli merge   --table /data/transcripts --source /data/edits.parquet
    ... cli expire  --table /data/transcripts --keep 3
    ... cli ingest  --table /data/bronze_github --source-dir /logs/github --source github
    ... cli medallion --root /data/lakehouse --fixtures /logs

In this sandbox the same commands run standalone (Ray local mode auto-init,
guarded). The reference's analog surface is the Databricks pipeline run +
the manual setup notebooks (/root/reference/README.md:47-52,
utilities/pre_setup_ocsf_tables.py, post_setup_ocsf_tables.py).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time


def _ensure_ray():
    import ray

    if not ray.is_initialized():
        ray.init(
            address=os.environ.get("RAY_ADDRESS", "local"),
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False


def main(argv=None) -> int:
    p = argparse.ArgumentParser(prog="lakeray", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)

    def add_table(sp):
        sp.add_argument("--table", required=True)
        sp.add_argument("--use-actor", action="store_true", help="commit via metastore actor")

    sp = sub.add_parser("compact")
    add_table(sp)
    sp = sub.add_parser("cluster")
    add_table(sp)
    sp.add_argument("--mode", default="auto", choices=["auto", "global", "partition"])
    sp.add_argument("--curve", default="zorder", choices=["zorder", "hilbert"])
    sp = sub.add_parser("merge")
    add_table(sp)
    sp.add_argument("--source", required=True, help="parquet file with transcript cols + op")
    sp = sub.add_parser("optimize")
    add_table(sp)
    sp.add_argument("--curve", default="zorder", choices=["zorder", "hilbert"])
    sp.add_argument("--expire-keep", type=int, default=None)
    sp = sub.add_parser("expire")
    add_table(sp)
    sp.add_argument("--keep", type=int, default=3)
    sp = sub.add_parser("ingest")
    add_table(sp)
    sp.add_argument("--source-dir", required=True)
    sp.add_argument("--source", required=True, choices=["github", "slack", "atlassian"])
    sp = sub.add_parser("medallion")
    sp.add_argument("--root", required=True)
    sp.add_argument("--fixtures", required=True)
    sp = sub.add_parser("delete")
    add_table(sp)
    sp.add_argument("--col", required=True, help="stats column the range targets")
    sp.add_argument("--lo", required=True, help="range low (int64 µs for timestamps)")
    sp.add_argument("--hi", required=True, help="range high, inclusive")
    sp = sub.add_parser("changes")
    sp.add_argument("--table", required=True)
    sp.add_argument("--from-snapshot", type=int, required=True)
    sp.add_argument("--to-snapshot", type=int, default=None)
    sp.add_argument("--out", default=None, help="write the feed as parquet here")
    sp = sub.add_parser("respec")
    add_table(sp)
    sp.add_argument("--spec", required=True, help="e.g. hash:conv_id:512 or col:role")
    sp = sub.add_parser("view-build")
    sp.add_argument("--source", required=True, help="source table dir")
    sp.add_argument("--view", required=True, help="view table dir to create")
    sp = sub.add_parser("view-refresh")
    sp.add_argument("--source", required=True)
    sp.add_argument("--view", required=True)
    sp = sub.add_parser("snapshots")
    sp.add_argument("--table", required=True)

    args = p.parse_args(argv)
    _ensure_ray()

    from .table import Table

    t0 = time.time()
    out: dict = {"cmd": args.cmd}
    if args.cmd == "compact":
        from .stages import compact

        out["snapshot"] = compact.compact(Table(args.table), use_actor=args.use_actor)
    elif args.cmd == "cluster":
        from .stages import cluster

        out["snapshot"] = cluster.cluster(
            Table(args.table), mode=args.mode, curve=args.curve, use_actor=args.use_actor
        )
    elif args.cmd == "merge":
        import pyarrow.parquet as pq

        from .stages import merge

        out["snapshot"] = merge.merge(
            Table(args.table), pq.read_table(args.source), use_actor=args.use_actor
        )
    elif args.cmd == "optimize":
        from .stages import optimize

        out.update(
            optimize.optimize(
                Table(args.table),
                curve=args.curve,
                expire_keep_last=args.expire_keep,
                use_actor=args.use_actor,
            )
        )
    elif args.cmd == "expire":
        from .stages import expire

        out.update(expire.expire_snapshots(Table(args.table), keep_last=args.keep))
    elif args.cmd == "ingest":
        from .functions.meta import BronzeMeta
        from .sources.jsonl import ingest_jsonl

        [(sid, new)] = ingest_jsonl([(Table(args.table), args.source_dir, BronzeMeta(args.source))])
        out.update({"snapshot": sid, "new_files": len(new)})
    elif args.cmd == "medallion":
        from .pipelines.medallion import Medallion

        Medallion(args.root).run_all(args.fixtures)
        out["root"] = args.root
    elif args.cmd == "delete":
        from .stages import delete

        def _num(v):
            try:
                return int(v)
            except ValueError:
                pass
            try:
                return float(v)  # float bounds / float-typed stats column
            except ValueError:
                return v  # string-typed stats column (e.g. conv_id)

        out["snapshot"] = delete.delete_where(
            Table(args.table), args.col, _num(args.lo), _num(args.hi),
            use_actor=args.use_actor,
        )
    elif args.cmd == "changes":
        from .stages import changes

        t = Table(args.table)
        to = args.to_snapshot if args.to_snapshot is not None else t.current_snapshot_id()
        feed = changes.snapshot_changes(t, args.from_snapshot, to)
        if args.out:
            feed.write_parquet(args.out)
            out["out"] = args.out
        out.update({"from": args.from_snapshot, "to": to, "rows": feed.count()})
    elif args.cmd == "respec":
        from .stages import respec

        out["snapshot"] = respec.repartition_table(
            Table(args.table), args.spec, use_actor=args.use_actor
        )
        out["spec"] = args.spec
    elif args.cmd == "view-build":
        from .config import DEFAULT
        from .pipelines import incremental

        src = Table(args.source)
        view = incremental.create_conv_count_view(src, args.view, config=DEFAULT)
        out.update({"view": args.view, "snapshot": view.current_snapshot_id(),
                    "synced": incremental.synced_snapshot(view)})
    elif args.cmd == "view-refresh":
        from .pipelines import incremental

        view = Table(args.view)
        out["snapshot"] = incremental.refresh_conv_count_view(Table(args.source), view)
        out["synced"] = incremental.synced_snapshot(view)
    elif args.cmd == "snapshots":
        from .state import manifest

        t = Table(args.table)
        out["current"] = t.current_snapshot_id()
        out["snapshots"] = manifest.list_snapshot_ids(t.dir)
        out["history"] = t.history()  # DESCRIBE HISTORY analog
    out["sec"] = round(time.time() - t0, 3)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
