"""Scan pruning via manifest stats — the payoff of clustering + per-file
min/max (Delta data-skipping analog)."""

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from hypothesis import given, settings
from hypothesis import strategies as st

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg, synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import cluster, compact
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table
from tests.test_table import CONF, make_table

#: small target files so clustering splits each partition into several
#: zkey-ordered files — that's what makes ts min/max stats selective
SMALL = cfg.test_config(num_partitions=4, target_file_bytes=32 * 1024)


def test_time_range_scan_prunes_after_clustering(tmp_table_dir, ray_session):
    base = synth.transcripts(0.001)
    t = Table.create(
        tmp_table_dir,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{SMALL.num_partitions}",
        config=SMALL,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    t.write_table(base, rows_per_file=300)
    cluster.cluster(t, mode="partition", curve="zorder")
    total_files = t.entries().num_rows
    assert total_files > SMALL.num_partitions  # several files per partition

    ts = base["ts"].cast("int64").to_numpy(zero_copy_only=False)
    lo = int(np.quantile(ts, 0.40))
    hi = int(np.quantile(ts, 0.45))
    pruned = t.pruned_entries(predicates={"ts": (lo, hi)})
    assert pruned.num_rows < total_files  # stats skipped some files

    # pruning is SOUND: pruned scan + residual filter == brute-force filter
    got = t.read_arrow(predicates={"ts": (lo, hi)})
    got_ts = got["ts"].cast("int64").to_numpy(zero_copy_only=False)
    got = got.filter((got_ts >= lo) & (got_ts <= hi))
    expect = base.filter((ts >= lo) & (ts <= hi))
    assert got.num_rows == expect.num_rows


def test_conv_scan_prunes_to_single_partition(tmp_table_dir, ray_session):
    """Point lookups prune by PARTITION (hash(conv_id) % P), then by conv_id
    min/max stats within it — conv ranges overlap across hash partitions by
    construction, so stats alone can't skip them."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.hashing import hash64_str

    base = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, base, rows_per_file=300)
    compact.compact(t)
    conv = "conv-00000321"
    part = f"part-{hash64_str(conv) % CONF.num_partitions}"
    pruned = t.pruned_entries(
        predicates={"conv_id": (conv, conv)}, partitions=[part]
    )
    assert 0 < pruned.num_rows < t.entries().num_rows
    assert set(pruned["partition"].to_pylist()) == {part}
    import os

    import pyarrow.parquet as pq

    got = pa.concat_tables(
        pq.read_table(os.path.join(t.dir, p)) for p in pruned["path"].to_pylist()
    )
    got = got.filter(pc.equal(got["conv_id"], conv))
    assert got.num_rows == base.filter(pc.equal(base["conv_id"], conv)).num_rows


def test_bloom_prunes_point_lookup_beyond_minmax(tmp_table_dir, ray_session):
    """Interleave conversations so every file's conv_id [min, max] range
    overlaps every other's — range stats alone keep all files; the per-file
    bloom still isolates the one file holding the probed conversation."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    base = synth.transcripts(0.001)
    t = Table.create(
        tmp_table_dir,
        TRANSCRIPT,
        partition_spec="none",  # one dir: file ranges interleave maximally
        config=SMALL,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    # shard WHOLE conversations round-robin across files: each conv lives in
    # one file, but every file's [min, max] conv range spans the whole table
    codes = base["conv_id"].dictionary_encode().combine_chunks().indices.to_numpy(
        zero_copy_only=False
    )
    for shard in range(7):
        part = base.filter(pa.array(codes % 7 == shard))
        t.write_table(part, rows_per_file=part.num_rows, name_prefix=f"s{shard}")
    ents = t.entries()
    assert ents.num_rows >= 6

    conv = base["conv_id"][0].as_py()
    blooms = manifest.col_stats(ents, "conv_id")["bloom"]
    assert blooms.null_count == 0, "string stats should carry a bloom"
    files_with_conv = int(manifest.bloom_may_contain(ents, "conv_id", conv).sum())

    pruned = t.pruned_entries(predicates={"conv_id": (conv, conv)})
    # min/max alone keeps everything (interleaved); bloom must do better
    assert pruned.num_rows == files_with_conv < ents.num_rows

    # soundness: the pruned scan still returns every row of the conv
    got = t.read_arrow(predicates={"conv_id": (conv, conv)})
    got = got.filter(pc.equal(got["conv_id"], conv))
    expected = base.filter(pc.equal(base["conv_id"], conv))
    assert got.num_rows == expected.num_rows


# -- pruning soundness over random files and predicates ----------------------

#: conv_ids that share a 64-char prefix, so truncated string bounds and
#: blooms both have to carry the lookup; the last two cut to an upper bound
#: that must bump past the surrogates, and to no upper bound at all
_LONG = "k" * 64
_CONVS = (
    [f"c{i:02d}" for i in range(6)]
    + [f"{_LONG}{s}" for s in ("", "a", "b", "\U0010ffff")]
    + [_LONG[:63] + "\ud7ffz", "\U0010ffff" * 65]
)
#: a file's stats columns: all, or conv_id only (unknown ts/turn_idx bounds)
_STATS = (["conv_id", "turn_idx", "ts", "score"], ["conv_id"])


def _file(rows: list[tuple]) -> pa.Table:
    """One data file's rows: (conv_id, turn_idx, ts µs); ``score`` is an
    all-null column, so its stats hold only a null count."""
    conv, turn, ts = (list(c) for c in zip(*rows))
    return pa.table(
        {
            "conv_id": pa.array(conv, pa.string()),
            "turn_idx": pa.array(turn, pa.int32()),
            "ts": pa.array(ts, pa.timestamp("us")),
            "score": pa.nulls(len(rows), pa.int64()),
        }
    )


_row = st.tuples(
    st.sampled_from(_CONVS),
    st.one_of(st.none(), st.integers(0, 40)),
    st.one_of(st.none(), st.integers(0, 10_000)),
)
_bound = st.one_of(st.none(), st.integers(-5, 10_005))


@st.composite
def _predicates(draw) -> dict:
    preds = {}
    if draw(st.booleans()):
        key = draw(st.one_of(st.sampled_from(_CONVS), st.text(max_size=70)))
        preds["conv_id"] = (key, key)
    for col in ("turn_idx", "ts", "score"):
        if draw(st.booleans()):
            preds[col] = (draw(_bound), draw(_bound))
    return preds


def _matches(rows: list[tuple], preds: dict) -> bool:
    """Some row satisfies every predicate (a null never does)."""
    for conv, turn, ts in rows:
        vals = {"conv_id": conv, "turn_idx": turn, "ts": ts, "score": None}
        if all(
            vals[c] is not None
            and (lo is None or vals[c] >= lo)
            and (hi is None or vals[c] <= hi)
            for c, (lo, hi) in preds.items()
        ):
            return True
    return False


@settings(max_examples=300, deadline=None)
@given(
    files=st.lists(st.lists(_row, min_size=1, max_size=12), min_size=1, max_size=8),
    stats=st.lists(st.sampled_from(_STATS), min_size=8, max_size=8),
    preds=_predicates(),
)
def test_prune_never_drops_a_matching_file(files, stats, preds):
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    ents = pa.Table.from_pylist(
        [
            manifest.entry_for(f"f{i}", "", _file(rows), 0, cols)
            for i, (rows, cols) in enumerate(zip(files, stats))
        ],
        schema=manifest.ENTRY_SCHEMA,
    )
    kept = set(manifest.prune(ents, preds)["path"].to_pylist())
    for i, rows in enumerate(files):
        if _matches(rows, preds):
            assert f"f{i}" in kept, (preds, rows)


# -- one snapshot read per read call, none per rewrite unit -----------------

def _count_snapshot_reads(monkeypatch) -> list:
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    calls = []
    real = manifest.read_snapshot

    def counted(table_dir, snapshot_id):
        calls.append(snapshot_id)
        return real(table_dir, snapshot_id)

    monkeypatch.setattr(manifest, "read_snapshot", counted)
    return calls


def test_predicate_reads_read_the_snapshot_once(tmp_table_dir, ray_session, monkeypatch):
    base = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, base, rows_per_file=300)
    conv = "conv-00000042"
    calls = _count_snapshot_reads(monkeypatch)
    got = t.read_arrow(predicates={"conv_id": (conv, conv)})
    assert len(calls) == 1
    assert got.filter(pc.equal(got["conv_id"], conv)).num_rows == base.filter(
        pc.equal(base["conv_id"], conv)
    ).num_rows
    calls.clear()
    t.scan(predicates={"conv_id": (conv, conv)})
    assert len(calls) == 1


def test_rewrite_units_do_not_read_the_snapshot(tmp_table_dir, monkeypatch):
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import rewrite

    base = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, base, rows_per_file=100)
    bins = compact.plan_compaction(t.entries(), t.config)
    assert len(bins) > 1
    ents, meta = t.snapshot()
    rewriter = rewrite.BinRewriter(
        t.dir,
        CONF,
        "compact-count",
        schema=meta["schema"],
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    calls = _count_snapshot_reads(monkeypatch)
    out = rewriter(pa.Table.from_pylist(bins))
    assert calls == []
    assert int(pc.sum(out["rows"]).as_py()) == base.num_rows
    # nor does the routed writer every appender runs in its tasks
    out = t.write_batch_files(base, meta["partition_spec"], TRANSCRIPT_STATS_COLS, "w", 100)
    assert calls == []
    assert int(pc.sum(out["rows"]).as_py()) == base.num_rows
