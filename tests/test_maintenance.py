"""End-to-end invariants for compact / cluster / merge / expire
(FIXTURES.md §4: scan equality, multiset preservation, stats correctness,
idempotent resume, snapshot isolation, skew safety)."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
    cluster as cluster_mod,
    compact as compact_mod,
    expire as expire_mod,
    merge as merge_mod,
    rewrite,
)
from tests.test_table import CONF, make_table, sorted_scan


@pytest.fixture(scope="module")
def base_data():
    return synth.transcripts(0.001)


def expected_sorted(data):
    return data.take(
        pc.sort_indices(data, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )


def test_compact_scan_equality(tmp_table_dir, ray_session, base_data):
    t = make_table(tmp_table_dir, base_data)
    n_before = t.entries().num_rows
    sid = compact_mod.compact(t)
    assert sid == 2
    assert t.entries().num_rows < n_before
    assert sorted_scan(t).equals(expected_sorted(base_data))
    # files are internally sorted by (conv_id, turn_idx)
    import os

    import pyarrow.parquet as pq

    one = pq.read_table(os.path.join(t.dir, t.entries()["path"].to_pylist()[0]))
    idx = pc.sort_indices(one, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    assert one.equals(one.take(idx))
    # second compaction is a no-op
    assert compact_mod.compact(t) is None


def test_compact_resume_after_crash(tmp_table_dir, ray_session, base_data, in_driver):
    t = make_table(tmp_table_dir, base_data)
    with pytest.raises(Exception):
        compact_mod.compact(t, fail_after=2, concurrency=1)
    assert t.current_snapshot_id() == 1  # no commit happened
    sid = compact_mod.compact(t)  # resume: replans same job, skips done units
    assert sid == 2
    assert sorted_scan(t).equals(expected_sorted(base_data))
    # no duplicated/orphan outputs beyond the live set after orphan cleanup
    orphans = expire_mod.remove_orphans(t)
    assert orphans == []


def test_committed_jobs_leave_no_unit_records(
    tmp_table_dir, ray_session, base_data, monkeypatch
):
    """A committed job's unit records move into the lineage log and its dir
    is deleted: after compact → cluster (key ranges, so staging runs too) →
    merge only the log is left under the lineage dir, holding one row per
    unit each job recorded. A logged job's dir that outlived its commit (a
    crash between the log write and the delete) is deleted by
    remove_orphans."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage

    units: dict[str, int] = {}
    real = lineage.finalize_job

    def counting(table_dir, job_id, snapshot_id):
        units[job_id] = lineage.units_done(table_dir, job_id)
        return real(table_dir, job_id, snapshot_id)

    monkeypatch.setattr(lineage, "finalize_job", counting)
    t = make_table(tmp_table_dir, base_data)
    src = synth.merge_source(base_data)
    compact_mod.compact(t)
    cluster_mod.cluster(t, mode="global")
    merge_mod.merge(t, src)
    assert len(units) == 3 and all(units.values()), units
    lin = os.path.join(t.dir, lineage.LINEAGE_DIR)
    assert os.listdir(lin) == ["log"]
    jobs = lineage.read_log(t.dir)["job_id"].to_pylist()
    assert {j: jobs.count(j) for j in set(jobs)} == units

    lineage.save_unit(t.dir, jobs[0], "left-over", {"partition": ""})
    assert expire_mod.remove_orphans(t) == []
    assert os.listdir(lin) == ["log"]
    assert sorted_scan(t).equals(synth.apply_merge_expected(base_data, src))


@pytest.mark.parametrize("mode", ["partition", "global"])
@pytest.mark.parametrize("curve", ["zorder", "hilbert"])
def test_cluster_scan_equality(tmp_table_dir, ray_session, base_data, mode, curve):
    t = make_table(tmp_table_dir, base_data)
    sid = cluster_mod.cluster(t, mode=mode, curve=curve)
    assert sid == 2
    assert sorted_scan(t).equals(expected_sorted(base_data))


def test_cluster_partition_resume(tmp_table_dir, ray_session, base_data, in_driver):
    t = make_table(tmp_table_dir, base_data)
    with pytest.raises(Exception):
        cluster_mod.cluster(t, mode="partition", fail_after=2, concurrency=1)
    assert t.current_snapshot_id() == 1
    assert cluster_mod.cluster(t, mode="partition") == 2
    assert sorted_scan(t).equals(expected_sorted(base_data))


def test_merge_matches_oracle(tmp_table_dir, ray_session, base_data):
    t = make_table(tmp_table_dir, base_data)
    src = synth.merge_source(base_data)
    sid = merge_mod.merge(t, src)
    assert sid == 2
    got = sorted_scan(t)
    exp = synth.apply_merge_expected(base_data, src)
    assert got.equals(exp)


def test_merge_only_touches_overlapping_files(tmp_table_dir, ray_session, base_data):
    t = make_table(tmp_table_dir, base_data)
    before = set(t.entries()["path"].to_pylist())
    one_conv = "conv-00000100"
    row = base_data.filter(pc.equal(base_data["conv_id"], one_conv)).slice(0, 1)
    src = row.append_column("op", pa.array(["update"]))
    src = src.set_column(3, "text", pa.array(["edited-one"]))
    merge_mod.merge(t, src)
    after = set(t.entries()["path"].to_pylist())
    assert len(before - after) < len(before)  # most files untouched
    got = sorted_scan(t)
    assert got.num_rows == base_data.num_rows
    edited = got.filter(pc.equal(got["text"], "edited-one"))
    assert edited.num_rows == 1


def test_merge_resume_after_crash(tmp_table_dir, ray_session, base_data, in_driver):
    t = make_table(tmp_table_dir, base_data)
    src = synth.merge_source(base_data)
    with pytest.raises(Exception):
        merge_mod.merge(t, src, fail_after=2, concurrency=1)
    assert t.current_snapshot_id() == 1
    merge_mod.merge(t, src)
    assert sorted_scan(t).equals(synth.apply_merge_expected(base_data, src))


def test_expire_keeps_pinned_and_current(tmp_table_dir, ray_session, base_data):
    t = make_table(tmp_table_dir, base_data)
    compact_mod.compact(t)  # snap 2
    src = synth.merge_source(base_data)
    merge_mod.merge(t, src)  # snap 3
    res = expire_mod.expire_snapshots(t, keep_last=2)
    assert 3 in res["retained"] and res["expired"]
    # current snapshot still reads fine
    assert sorted_scan(t).equals(synth.apply_merge_expected(base_data, src))
    # retained older snapshot (2) still reads fine
    assert 2 in res["retained"]
    assert sorted_scan(t, snapshot_id=2).equals(expected_sorted(base_data))
    # expired snapshot is gone
    with pytest.raises(FileNotFoundError):
        t.entries(snapshot_id=res["expired"][0])


def test_full_maintenance_sequence_equality(tmp_table_dir, ray_session, base_data):
    """north_rule: compact → cluster → merge → expire, scan equality vs oracle."""
    t = make_table(tmp_table_dir, base_data)
    compact_mod.compact(t)
    cluster_mod.cluster(t, mode="global", curve="zorder")
    src = synth.merge_source(base_data)
    merge_mod.merge(t, src)
    expire_mod.expire_snapshots(t, keep_last=1)
    got = sorted_scan(t)
    exp = synth.apply_merge_expected(base_data, src)
    assert got.equals(exp)  # byte-for-byte per-turn text equality, stable order


def test_repartition_table_evolves_spec(tmp_table_dir, ray_session, base_data):
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import respec

    t = make_table(tmp_table_dir, base_data)
    assert t.partition_spec() == f"hash:conv_id:{CONF.num_partitions}"
    sid = respec.repartition_table(t, "hash:conv_id:32")
    assert sid == t.current_snapshot_id()
    assert t.partition_spec() == "hash:conv_id:32"
    assert sorted_scan(t).equals(expected_sorted(base_data))
    # stats-pruned point lookup works under the new layout
    conv = base_data["conv_id"][0].as_py()
    got = t.read_arrow(predicates={"conv_id": (conv, conv)})
    got = got.filter(pc.equal(got["conv_id"], conv))
    assert got.num_rows == base_data.filter(pc.equal(base_data["conv_id"], conv)).num_rows
    # maintenance still works post-evolution: compact + merge on new layout
    compact_mod.compact(t)
    src = synth.merge_source(base_data)
    merge_mod.merge(t, src)
    assert sorted_scan(t).equals(expected_sorted(synth.apply_merge_expected(base_data, src)))
    # old snapshot keeps the OLD spec (per-snapshot metadata: time travel)
    assert t.partition_spec(1) == f"hash:conv_id:{CONF.num_partitions}"
    # same-spec respec is a no-op
    cur = t.current_snapshot_id()
    assert respec.repartition_table(t, "hash:conv_id:32") == cur


def test_compact_partition_scope_and_history_metrics(tmp_table_dir, ray_session, base_data):
    t = make_table(tmp_table_dir, base_data)
    parts = sorted(set(t.entries()["partition"].to_pylist()))
    target = parts[:2]
    before = {
        p: n for p, n in zip(*np.unique(t.entries()["partition"].to_pylist(), return_counts=True))
    }
    sid = compact_mod.compact(t, partitions=target)
    assert sid is not None
    after = {
        p: n for p, n in zip(*np.unique(t.entries()["partition"].to_pylist(), return_counts=True))
    }
    for p in parts:
        if p in target:
            assert after[p] < before[p], f"{p} should have compacted"
        else:
            assert after[p] == before[p], f"{p} must be untouched"
    assert sorted_scan(t).equals(expected_sorted(base_data))
    # commit metrics surface in history (DESCRIBE HISTORY numFiles parity)
    h = t.history()[-1]
    assert h["operation"] == "compact"
    m = h["metrics"]
    assert m["removed_files"] == sum(before[p] for p in target)
    assert m["added_files"] == sum(after[p] for p in target)
    assert m["added_rows"] == sum(
        r["rows"] for r in t.entries().to_pylist() if r["partition"] in target
    )


def test_cluster_keeps_col_spec_partition_names(tmp_table_dir, ray_session, base_data):
    """Clustering a 'col:'-partitioned table (the medallion tables use
    col:_event_date) must keep manifest partition names spec-derived —
    previously every row routed to partition '' while the spec stayed
    'col:...', so partition-scoped scans and MERGE/DELETE routing missed
    all files (round-2 ADVICE item 2)."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS

    t = Table.create(
        tmp_table_dir,
        TRANSCRIPT,
        partition_spec="col:role",
        config=CONF,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    t.write_table(base_data, rows_per_file=300)
    roles = set(pc.unique(base_data["role"]).to_pylist())
    expected_parts = {f"role-{r}" for r in roles}
    assert set(t.entries()["partition"].to_pylist()) == expected_parts

    sid = cluster_mod.cluster(t, cols=["conv_id", "turn_idx"])
    assert sid == t.current_snapshot_id()
    assert sorted_scan(t).equals(expected_sorted(base_data))
    assert set(t.entries()["partition"].to_pylist()) == expected_parts
    # partition-scoped pruning still matches files after the rewrite
    one = sorted(expected_parts)[0]
    pruned = t.pruned_entries(partitions=[one])
    assert 0 < pruned.num_rows < t.entries().num_rows

    # the global-sort cluster path must route identically
    sid = cluster_mod.cluster(t, mode="global", curve="zorder")
    assert sid == t.current_snapshot_id()
    assert sorted_scan(t).equals(expected_sorted(base_data))
    assert set(t.entries()["partition"].to_pylist()) == expected_parts


def _matrix_table(d, kind, base_data):
    """The mode × table matrix's tables, in 32 KB target files so each
    partition clusters into several files."""
    import dataclasses

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT_STATS_COLS
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    hashed = f"hash:conv_id:{CONF.num_partitions}"
    data, spec, stats = {
        "transcript": (base_data, hashed, TRANSCRIPT_STATS_COLS),
        "conv_time": (
            base_data.select(["conv_id", "turn_idx", "ts"]).rename_columns(
                ["conv_id", "turn_idx", "time"]
            ),
            hashed,
            ["conv_id", "turn_idx", "time"],
        ),
        "keyless_time": (
            pa.table({"time": base_data["ts"], "x": base_data["turn_idx"]}),
            "none",
            ["time", "x"],
        ),
    }[kind]
    conf = dataclasses.replace(CONF, target_file_bytes=32 * 1024)
    t = Table.create(d, data.schema, partition_spec=spec, config=conf, stats_cols=stats)
    t.write_table(data, rows_per_file=300)
    return t, data


def _canon(t: pa.Table) -> pa.Table:
    keys = [c for c in ("conv_id", "turn_idx", "time", "x") if c in t.column_names]
    return t.sort_by([(c, "ascending") for c in keys])


@pytest.mark.parametrize("kind", ["transcript", "conv_time", "keyless_time"])
@pytest.mark.parametrize("mode", ["partition", "global"])
def test_cluster_key_same_in_both_modes(tmp_table_dir, ray_session, base_data, mode, kind):
    """Both modes cluster every table shape on the one ``cluster_key``:
    the commit lands, the scan equals the input, and each partition's rows,
    read file by file in order of file min key, are non-decreasing in the
    key computed from the manifest's column ranges."""
    import pyarrow.parquet as pq

    t, data = _matrix_table(tmp_table_dir, kind, base_data)
    parent = t.current_snapshot_id()
    assert cluster_mod.cluster(t, mode=mode) == parent + 1
    assert _canon(t.read_arrow()).equals(_canon(data))

    ents = t.entries()
    cols = cluster_mod.default_cols(data.schema.names)
    ranges = {c: cluster_mod._stats_range(ents, c) for c in cols if c != "conv_id"}
    for part in set(ents["partition"].to_pylist()):
        paths = [r["path"] for r in ents.to_pylist() if r["partition"] == part]
        keys = [
            cluster_mod.cluster_key(pq.read_table(os.path.join(t.dir, p)), cols, ranges)
            for p in paths
        ]
        run = np.concatenate(sorted(keys, key=lambda k: k.min()))
        assert (np.diff(run) >= 0).all(), (part, len(paths))


def test_cluster_n_columns_partition_resume(
    tmp_table_dir, ray_session, base_data, in_driver
):
    """N-column clustering runs in partition mode with per-partition
    lineage: a mid-job crash leaves the snapshot unchanged, and the rerun
    reuses the finished partitions' files and commits once."""
    t = make_table(tmp_table_dir, base_data)
    parent = t.current_snapshot_id()
    cols = ["conv_id", "turn_idx", "ts"]
    with pytest.raises(Exception):
        cluster_mod.cluster(t, cols=cols, mode="partition", fail_after=2, concurrency=1)
    assert t.current_snapshot_id() == parent
    assert cluster_mod.cluster(t, cols=cols, mode="partition") == parent + 1
    assert sorted_scan(t).equals(expected_sorted(base_data))
    assert expire_mod.remove_orphans(t) == []


def test_cluster_by_columns_multi_dim(tmp_path, ray_session, base_data):
    """Generalized CLUSTER BY (conv_id, turn_idx, ts): scan equality plus
    per-file stats tight enough that a turn_idx range prunes files — the
    extra dimension's locality is real, not just a reshuffle. Small target
    files so each covers a short z-range (≈2 leading bits per dimension).
    The slice is the upper half of turn_idx's range, which the key's high
    turn_idx bit separates; the default (conv_id, ts) key, clustering a
    copy of the same input, keeps more files for it."""
    import dataclasses
    import shutil

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS

    conf = dataclasses.replace(CONF, target_file_bytes=32 * 1024)
    d3, d2 = str(tmp_path / "three"), str(tmp_path / "two")
    t = Table.create(
        d3,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{CONF.num_partitions}",
        config=conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    t.write_table(base_data, rows_per_file=300)
    shutil.copytree(d3, d2)
    sid = cluster_mod.cluster(t, cols=["conv_id", "turn_idx", "ts"])
    assert sid == t.current_snapshot_id()
    assert sorted_scan(t).equals(expected_sorted(base_data))
    ents = t.entries()
    assert ents.num_rows >= 2
    hi = int(pc.max(base_data["turn_idx"]).as_py())
    upper = {"turn_idx": ((hi + 1) // 2, hi)}
    pruned = t.pruned_entries(predicates=upper)
    assert pruned.num_rows < ents.num_rows
    t2 = Table(d2, conf)
    cluster_mod.cluster(t2)
    assert pruned.num_rows < t2.pruned_entries(predicates=upper).num_rows
    got = t.read_arrow(predicates=upper)
    got = got.filter(pc.greater_equal(got["turn_idx"], upper["turn_idx"][0]))
    expected = base_data.filter(pc.greater_equal(base_data["turn_idx"], upper["turn_idx"][0]))
    assert got.num_rows == expected.num_rows


def test_cluster_key_ranges_are_deterministic(tmp_path, ray_session, base_data):
    """Key-range sub-bins are a pure function of the input: with a cap under
    every partition's bytes, mode="auto" cuts the ranges mode="global"
    forces, and two copies of one table cluster into identical files (path,
    rows, content digest). Per partition, the ranges write at most k - 1
    more files than partition mode, which sorts the partition whole. Two
    partitions, so the boundary sample is a strided subset of each, and 32
    KB target files, so a partition and each of its ranges write several."""
    import dataclasses
    import hashlib
    import shutil

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table

    conf = dataclasses.replace(CONF, target_file_bytes=32 * 1024)
    src = Table.create(
        str(tmp_path / "src"),
        TRANSCRIPT,
        partition_spec="hash:conv_id:2",
        config=conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    src.write_table(base_data, rows_per_file=300)
    part_bytes = _per_partition(src, "bytes", "sum")
    cap = min(part_bytes.values()) // 2
    ks = {p: cluster_mod._num_ranges("global", b, cap) for p, b in part_bytes.items()}
    assert ks == {p: cluster_mod._num_ranges("auto", b, cap) for p, b in part_bytes.items()}
    conf = dataclasses.replace(conf, partition_sort_max_bytes=cap)

    def clustered(mode):
        d = str(tmp_path / mode)
        shutil.copytree(src.dir, d)
        t = Table(d, conf)
        assert cluster_mod.cluster(t, mode=mode) == src.current_snapshot_id() + 1
        assert sorted_scan(t).equals(expected_sorted(base_data))
        return t

    def files(t):
        return sorted(
            (p, n, hashlib.sha256(open(os.path.join(t.dir, p), "rb").read()).hexdigest())
            for p, n in zip(t.entries()["path"].to_pylist(), t.entries()["rows"].to_pylist())
        )

    forced, auto, whole = clustered("global"), clustered("auto"), clustered("partition")
    assert files(forced) == files(auto)

    n_forced, n_whole = _per_partition(forced, "path", "count"), _per_partition(whole, "path", "count")
    assert n_forced.keys() == ks.keys() and min(n_whole.values()) > 1
    for p, k in ks.items():
        assert n_forced[p] <= n_whole[p] + k - 1, (p, k)


def _per_partition(t, col: str, agg: str) -> dict:
    """{partition: ``agg`` of ``col``} over the table's live entries."""
    g = t.entries().group_by("partition").aggregate([(col, agg)])
    return dict(zip(g["partition"].to_pylist(), g[f"{col}_{agg}"].to_pylist()))


def test_merge_null_and_widened_source_keys(tmp_table_dir, ray_session, base_data):
    """ANSI MERGE key semantics (round-4 advice): a NULL source key matches
    no target row (dropped at planning), and a source whose turn_idx arrives
    as int64 still anti-joins against the int32 target column (the rewriter
    casts the key table per file)."""
    t = make_table(tmp_table_dir, base_data)
    conv = base_data["conv_id"][0].as_py()
    turn = base_data["turn_idx"][0].as_py()
    src = pa.table(
        {
            "conv_id": pa.array([conv, conv], pa.string()),
            # int64 on purpose: wider than the table's int32
            "turn_idx": pa.array([int(turn), None], pa.int64()),
            "role": pa.array(["user", "user"]),
            "text": pa.array(["edited-via-i64-key", "null-key-noop"]),
            "tool": pa.array([None, None], pa.string()),
            "ts": base_data["ts"].slice(0, 2).combine_chunks(),
            "op": pa.array(["update", "delete"]),
        }
    )
    merge_mod.merge(t, src)
    got = sorted_scan(t)
    # the null-key delete no-ops: row count unchanged by it; the update
    # replaced exactly one row
    assert got.num_rows == base_data.num_rows
    assert got.filter(pc.equal(got["text"], "edited-via-i64-key")).num_rows == 1
    assert got.filter(pc.equal(got["text"], "null-key-noop")).num_rows == 0


def _edit_source(base_data, convs, turns, ops) -> pa.Table:
    n = len(ops)
    return pa.table(
        {
            "conv_id": pa.array(convs, pa.string()),
            "turn_idx": pa.array(turns, pa.int32()),
            "role": pa.array(["user"] * n),
            "text": pa.array([f"edit-{i}" for i in range(n)]),
            "tool": pa.array([None] * n, pa.string()),
            "ts": base_data["ts"].slice(0, n).combine_chunks(),
            "op": pa.array(ops),
        }
    )


def test_merge_retry_with_null_key_upserts_is_idempotent(tmp_table_dir, ray_session, base_data):
    """Null-key update/insert rows match nothing and are dropped at
    planning: a retried MERGE of the same source adds nothing, and no
    change file records them."""
    import pyarrow.parquet as pq

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    t = make_table(tmp_table_dir, base_data)
    conv = base_data["conv_id"][0].as_py()
    turn = base_data["turn_idx"][0].as_py()
    src = _edit_source(
        base_data, [conv, None, conv], [turn, 5, None], ["update", "insert", "update"]
    )
    merge_mod.merge(t, src)
    once = sorted_scan(t)
    assert once.num_rows == base_data.num_rows
    merge_mod.merge(t, src)
    assert sorted_scan(t).equals(once)
    for sid in (2, 3):
        for path, *_ in manifest.change_record(t.dir, sid):
            rows = pq.read_table(os.path.join(t.dir, path))
            assert rows["conv_id"].null_count == 0 and rows["turn_idx"].null_count == 0


def test_merge_source_missing_column_is_a_planning_error(tmp_table_dir, ray_session, base_data):
    t = make_table(tmp_table_dir, base_data)
    src = synth.merge_source(base_data).drop_columns(["tool"])
    with pytest.raises(ValueError, match="tool"):
        merge_mod.merge(t, src)
    assert t.current_snapshot_id() == 1


def test_merge_source_bad_op_is_a_planning_error(tmp_table_dir, ray_session, base_data):
    """A null op would silently delete its target row and "Delete" would
    upsert: both are refused before anything is written."""
    t = make_table(tmp_table_dir, base_data)
    convs = base_data["conv_id"].slice(0, 3).to_pylist()
    turns = base_data["turn_idx"].slice(0, 3).to_pylist()
    for ops, bad in (
        (["update", None, "delete"], "None"),
        (["update", "Delete", "insert"], "'Delete'"),
        ([None, None, None], "None"),  # an all-null column has Arrow's null type
    ):
        with pytest.raises(ValueError, match=bad):
            merge_mod.merge(t, _edit_source(base_data, convs, turns, ops))
        assert t.current_snapshot_id() == 1


def test_merge_source_duplicate_key_is_a_planning_error(tmp_table_dir, ray_session, base_data):
    """Two source rows for one (conv_id, turn_idx) would both land in a
    keyed table; the MERGE is refused and names the key. Null keys are
    dropped first, so repeated null keys stay no-ops."""
    t = make_table(tmp_table_dir, base_data)
    conv = base_data["conv_id"][0].as_py()
    turn = base_data["turn_idx"][0].as_py()
    src = _edit_source(base_data, [conv, conv], [turn, turn], ["update", "insert"])
    with pytest.raises(ValueError, match=f"'{conv}', {turn}"):
        merge_mod.merge(t, src)
    assert t.current_snapshot_id() == 1
    src = _edit_source(
        base_data, [conv, None, None], [turn, 5, 5], ["update", "insert", "insert"]
    )
    merge_mod.merge(t, src)
    assert sorted_scan(t).num_rows == base_data.num_rows


def test_merge_out_of_range_delete_key_matches_nothing(tmp_table_dir, ray_session, base_data):
    """An int64 delete key above int32 max cannot name an int32 turn_idx:
    planning drops it, the in-range key in the same partition still
    deletes its row."""
    t = make_table(tmp_table_dir, base_data)
    conv = base_data["conv_id"][0].as_py()
    turn = base_data["turn_idx"][0].as_py()
    src = _edit_source(base_data, [conv, conv], [turn, 0], ["delete", "delete"])
    src = src.set_column(1, "turn_idx", pa.array([turn, 2**31 + 5], pa.int64()))
    merge_mod.merge(t, src)
    got = sorted_scan(t)
    assert got.num_rows == base_data.num_rows - 1
    hit = pc.and_(pc.equal(got["conv_id"], conv), pc.equal(got["turn_idx"], turn))
    assert not pc.any(hit).as_py()


def _change_dir_files(t) -> set:
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    root = os.path.join(t.dir, manifest.CHANGE_DIR)
    return {
        os.path.relpath(os.path.join(d, f), t.dir) for d, _s, fs in os.walk(root) for f in fs
    }


def test_expire_and_orphans_handle_change_files(tmp_table_dir, ray_session, base_data):
    """The churn sequence — MERGEs, then optimize(expire_keep_last=3):
    expiry deletes the change files of expired snapshots and keeps those a
    retained snapshot's change record names; remove_orphans sweeps change
    files no snapshot names (a crashed MERGE's) and nothing else."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import changes, optimize
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    t = make_table(tmp_table_dir, base_data)
    compact_mod.compact(t)
    convs = sorted(set(base_data["conv_id"].to_pylist()))
    def updates(picked, turn):
        return _edit_source(base_data, picked, [turn] * len(picked), ["update"] * len(picked))

    for k in range(3):
        merge_mod.merge(t, updates(convs[k::40], 0))
    named = {
        sid: {c[0] for c in manifest.change_record(t.dir, sid) or ()}
        for sid in manifest.list_snapshot_ids(t.dir)
    }
    assert _change_dir_files(t) == set().union(*named.values())
    res = optimize.optimize(t, expire_keep_last=3)
    retained = set(res["expire"])
    assert any(named[s] for s in named if s not in retained), "an expired MERGE"
    assert _change_dir_files(t) == set().union(
        *(named.get(s, set()) for s in retained)
    )
    assert expire_mod.remove_orphans(t) == []

    # a crashed MERGE leaves change files that no snapshot names
    before = _change_dir_files(t)
    src = updates(convs[5::20], 1)
    with pytest.raises(Exception):
        merge_mod.merge(t, src, fail_after=1, concurrency=1)
    leftovers = _change_dir_files(t) - before
    assert leftovers
    swept = set(expire_mod.remove_orphans(t))
    assert leftovers <= swept and _change_dir_files(t) == before

    # the feed over the retained range, across a new MERGE, is still exact
    merge_mod.merge(t, src)
    diff = changes.snapshot_changes(t, min(retained), t.current_snapshot_id()).take_all()

    def keys(rows):
        return sorted((r["conv_id"], r["turn_idx"], r["text"]) for r in rows)

    b = set(keys(sorted_scan(t, snapshot_id=min(retained)).to_pylist()))
    a = set(keys(sorted_scan(t).to_pylist()))
    assert keys(r for r in diff if r["change"] == "added") == sorted(a - b)
    assert keys(r for r in diff if r["change"] == "removed") == sorted(b - a)
