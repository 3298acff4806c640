"""OPTIMIZE convenience job: cluster → expire in one call.

The reference gets this declaratively (``delta.autoOptimize.optimizeWrite``
+ ``autoCompact`` table properties, /root/reference/utilities/utils.py:86-87,
plus the manual ``ALTER TABLE ... CLUSTER BY`` pass,
post_setup_ocsf_tables.py:40-53). Here it is one explicit, resumable job,
and like Delta's ``OPTIMIZE ... ZORDER BY`` the data is rewritten once: the
cluster rewrite reads every live file of each partition, folds its deletion
vectors and writes target-size files, so a compaction pass before it would
rewrite the same bytes twice. The cluster commit and the expiry are each
their own step; a crash resumes the rewrite from its lineage checkpoints.
"""

from __future__ import annotations

from ..table import Table
from . import cluster as cluster_mod
from . import expire as expire_mod


def optimize(
    table: Table,
    *,
    curve: str = "zorder",
    expire_keep_last: int | None = None,
    concurrency: int | None = None,
    use_actor: bool = False,
) -> dict:
    """Run the standard maintenance sequence; returns per-phase snapshot ids."""
    out: dict = {
        "cluster": cluster_mod.cluster(
            table, mode="auto", curve=curve, concurrency=concurrency, use_actor=use_actor
        )
    }
    if expire_keep_last is not None:
        out["expire"] = expire_mod.expire_snapshots(table, keep_last=expire_keep_last)[
            "retained"
        ]
    return out
