"""Engine configuration.

Analog of the reference's single constants module
(/root/reference/utilities/utils.py:10-96 — catalog/db/table names, paths,
table properties). One dataclass instead of module-level "CHANGE ME!" globals.
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class EngineConfig:
    # --- physical layout ------------------------------------------------
    #: number of hash partitions for keyed tables (``part-<n>`` dirs).
    #: At 100 TB scale this would be 1024+; tests/bench override downward.
    num_partitions: int = 16
    #: bin-packing / rewrite target output file size (reference analog:
    #: delta.autoOptimize target file sizes, utilities/utils.py:86-87).
    target_file_bytes: int = 128 * 1024 * 1024
    #: cap on rows per written file (bounds writer memory for wide rows).
    max_rows_per_file: int = 2_000_000
    #: compaction only rewrites files smaller than this fraction of target.
    small_file_fraction: float = 0.75

    # --- clustering -----------------------------------------------------
    #: cluster mode="auto" sorts a partition whose on-disk bytes fit under
    #: this bound whole, in one task; a larger one is cut into
    #: ceil(bytes / bound) key ranges, each sorted in one task (no shuffle;
    #: stages/cluster.py). The bound also caps a scatter unit's input bytes.
    partition_sort_max_bytes: int = 1024 * 1024 * 1024

    # --- execution ------------------------------------------------------
    #: task concurrency of rewrite stages (compaction / merge / cluster
    #: file writers, medallion flow layers), and the driver's thread count
    #: for a rewrite plan small enough to run in it (rewrite.map_units).
    #: Sized to the node; tests override to 2-4.
    rewrite_concurrency: int = 8
    #: batch size for map_batches transform stages.
    batch_size: int = 64 * 1024

    # --- skew -----------------------------------------------------------
    #: a conv_id whose row count exceeds this within a repartition job is
    #: salted: salt = turn_idx // salt_chunk_rows.
    hot_key_rows: int = 100_000
    salt_chunk_rows: int = 50_000

    # --- near-dup LSH ------------------------------------------------------
    #: degenerate-bucket guard for MinHash/SimHash blocking: a band bucket
    #: with more than this many members (boilerplate-identical docs, empty
    #: docs sharing a signature) emits a consecutive-id CHAIN (m-1 pairs,
    #: preserving duplicate-cluster connectivity) instead of the O(m^2)
    #: all-pairs expansion — the standard LSH skew guard.
    lsh_bucket_cap: int = 256

    # --- retention ------------------------------------------------------
    #: snapshots kept by expire_snapshots() unless overridden.
    keep_snapshots: int = 3


DEFAULT = EngineConfig()


def test_config(num_partitions: int = 8, **kw) -> EngineConfig:
    """Small-scale config for unit tests: tiny files so compaction has work."""
    kw.setdefault("target_file_bytes", 256 * 1024)
    kw.setdefault("rewrite_concurrency", 2)
    kw.setdefault("batch_size", 8192)
    kw.setdefault("hot_key_rows", 200)
    kw.setdefault("salt_chunk_rows", 100)
    return EngineConfig(num_partitions=num_partitions, **kw)


def scratch_dir() -> str:
    d = os.environ.get("ENGINE_SCRATCH", "/tmp/lakeray")
    os.makedirs(d, exist_ok=True)
    return d
