"""Property-based invariants (SURVEY.md §5): random small transcript tables
+ random maintenance op sequences ⇒ scan equality, multiset preservation,
stats correctness. Hypothesis drives table shape and the op sequence."""

import os

import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg
from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import cluster, compact, delete, expire, merge
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

CONF = cfg.test_config(num_partitions=4)


def tiny_transcripts(n_convs: int, max_turns: int, seed: int) -> pa.Table:
    rows = {k: [] for k in TRANSCRIPT.names}
    for c in range(n_convs):
        conv = f"conv-{seed:03d}-{c:04d}"
        turns = 1 + (hash((seed, c)) % max_turns)
        for t in range(turns):
            rows["conv_id"].append(conv)
            rows["turn_idx"].append(t)
            rows["role"].append(["user", "assistant", "tool"][t % 3])
            rows["text"].append(f"{conv}/{t}:{(seed * 31 + c * 7 + t) % 9973}")
            rows["tool"].append("python" if t % 3 == 2 else "")
            rows["ts"].append(1_700_000_000_000_000 + c * 86_400_000_000 + t * 37_000_000)
    return pa.table(
        {
            "conv_id": pa.array(rows["conv_id"], pa.string()),
            "turn_idx": pa.array(rows["turn_idx"], pa.int32()),
            "role": pa.array(rows["role"], pa.string()),
            "text": pa.array(rows["text"], pa.string()),
            "tool": pa.array(rows["tool"], pa.string()),
            "ts": pa.array(rows["ts"], pa.int64()).cast(pa.timestamp("us")),
        },
        schema=TRANSCRIPT,
    )


def ordered(t: pa.Table) -> pa.Table:
    return t.take(
        pc.sort_indices(t, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )


OPS = st.lists(
    st.sampled_from(["compact", "cluster-z", "cluster-h", "merge", "expire", "delete"]),
    min_size=1,
    max_size=4,
)


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.data_too_large],
)
@given(
    n_convs=st.integers(2, 25),
    max_turns=st.integers(1, 30),
    seed=st.integers(0, 10_000),
    ops=OPS,
    rows_per_file=st.sampled_from([7, 50, 200]),
)
def test_random_op_sequences_preserve_scan(
    tmp_path_factory, ray_session, n_convs, max_turns, seed, ops, rows_per_file
):
    base = tiny_transcripts(n_convs, max_turns, seed)
    d = str(tmp_path_factory.mktemp("prop"))
    t = Table.create(
        os.path.join(d, "tbl"),
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{CONF.num_partitions}",
        config=CONF,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    t.write_table(base, rows_per_file=rows_per_file)
    expected = base
    for op in ops:
        if op == "compact":
            compact.compact(t)
        elif op == "cluster-z":
            cluster.cluster(t, mode="auto", curve="zorder")
        elif op == "cluster-h":
            cluster.cluster(t, mode="partition", curve="hilbert")
        elif op == "merge":
            src = synth.merge_source(expected)
            if src.num_rows:
                merge.merge(t, src)
                expected = synth.apply_merge_expected(expected, src)
        elif op == "expire":
            expire.expire_snapshots(t, keep_last=1)
        elif op == "delete":
            # deterministic mid-quantile ts range; skip if it would empty
            # the table (read paths on zero-file tables are not the point)
            import numpy as np

            ts_sorted = np.sort(
                expected["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False)
            )
            lo = int(ts_sorted[int(len(ts_sorted) * 0.35)])
            hi = int(ts_sorted[int(len(ts_sorted) * 0.55)])
            t64 = expected["ts"].cast(pa.int64())
            keep = pc.or_(pc.less(t64, lo), pc.greater(t64, hi))
            after = expected.filter(keep)
            if after.num_rows:
                delete.delete_where(t, "ts", lo, hi)
                expected = after
        # invariant 1: scan equality after EVERY op
        assert ordered(t.read_arrow()).equals(ordered(expected)), f"after {op} in {ops}"
    # invariant 3: manifest stats equal recomputation for every live file
    import pyarrow.parquet as pq

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest as mf

    ents = t.entries()
    for i in range(ents.num_rows):
        entry = ents.slice(i, 1)
        data = pq.read_table(os.path.join(t.dir, entry["path"][0].as_py()))
        fresh = pa.Table.from_pylist(
            [mf.entry_for("", "", data, 0, TRANSCRIPT_STATS_COLS)], schema=mf.ENTRY_SCHEMA
        )
        assert entry["stats"].equals(fresh["stats"])
        # an entry counts its live rows: the file's minus its deleted
        # positions, which are sorted, distinct and inside the file
        deleted = entry["deleted"][0].as_py() or []
        assert deleted == sorted(set(deleted)) and all(0 <= p < data.num_rows for p in deleted)
        assert entry["rows"][0].as_py() == data.num_rows - len(deleted)
