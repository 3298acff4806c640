"""Snapshot change feed (CDC) + row-level DELETE WHERE.

Invariants: a pure-maintenance diff is EMPTY (copy-on-write carried rows
cancel), a merge diff equals the brute-force row-set difference, an append
diff is adds-only; DELETE WHERE matches a plain filter and takes the
file-drop fast path for files fully contained in the range."""

import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import derive
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
    changes as changes_mod,
    compact as compact_mod,
    delete as delete_mod,
    expire as expire_mod,
    merge as merge_mod,
)
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage, manifest
from tests.test_table import make_table, sorted_scan


def _collect(ds) -> pa.Table:
    batches = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not batches:
        return pa.schema(ds.schema().base_schema).empty_table()
    return pa.concat_tables(batches, promote_options="default")


def _row_keys(t: pa.Table) -> set:
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]
    return set(zip(*[t[c].to_pylist() for c in cols]))


def test_pure_maintenance_diff_is_empty(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    pre = t.current_snapshot_id()
    compact_mod.compact(t)
    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    assert diff.num_rows == 0


def test_merge_diff_matches_bruteforce(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    compact_mod.compact(t)
    pre = t.current_snapshot_id()
    before = sorted_scan(t)
    src = derive.derived_merge_source(before)
    merge_mod.merge(t, src)
    after = sorted_scan(t)

    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    added = diff.filter(pc.equal(diff["change"], "added")).drop_columns(["change"])
    removed = diff.filter(pc.equal(diff["change"], "removed")).drop_columns(["change"])
    b, a = _row_keys(before), _row_keys(after)
    assert _row_keys(added) == a - b
    assert _row_keys(removed) == b - a
    assert added.num_rows == len(a - b)  # one row per distinct change
    assert removed.num_rows == len(b - a)


def test_append_diff_is_adds_only(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    half = data.slice(0, data.num_rows // 2)
    rest = data.slice(data.num_rows // 2)
    t = make_table(tmp_table_dir, half)
    pre = t.current_snapshot_id()
    t.write_table(rest, rows_per_file=300, name_prefix="wave2")
    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    assert set(diff["change"].to_pylist()) == {"added"}
    assert _row_keys(diff.drop_columns(["change"])) == _row_keys(rest)


def test_delete_diff_is_removes_only(tmp_table_dir, ray_session):
    """CDC across a DELETE: rewritten straddling files carry most rows, so
    the netting must cancel everything except the actually-deleted rows."""
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    compact_mod.compact(t)
    pre = t.current_snapshot_id()
    lo, hi = _ts_range(data)
    delete_mod.delete_where(t, "ts", lo, hi)
    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    assert set(diff["change"].to_pylist()) == {"removed"}
    ts64 = data["ts"].cast(pa.int64())
    deleted = data.filter(
        pc.and_(pc.greater_equal(ts64, lo), pc.less_equal(ts64, hi))
    )
    assert _row_keys(diff.drop_columns(["change"])) == _row_keys(deleted)


def test_delete_single_conversation(tmp_table_dir, ray_session):
    """Targeted erasure of one conv_id (GDPR-style): string-typed stats
    range [conv, conv]; partition pruning + stats skip every other file."""
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    compact_mod.compact(t)
    conv = data["conv_id"][0].as_py()
    delete_mod.delete_where(t, "conv_id", conv, conv)
    got = sorted_scan(t)
    assert pc.sum(pc.cast(pc.equal(got["conv_id"], conv), pa.int64())).as_py() == 0
    expected = data.filter(pc.invert(pc.equal(data["conv_id"], conv)))
    expected = expected.take(
        pc.sort_indices(
            expected, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
    )
    assert got.equals(expected)


def _ts_range(data: pa.Table, lo_q=0.3, hi_q=0.6) -> tuple[int, int]:
    ts = np.sort(data["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False))
    return int(ts[int(len(ts) * lo_q)]), int(ts[int(len(ts) * hi_q)])


def test_delete_where_matches_filter(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    compact_mod.compact(t)
    lo, hi = _ts_range(data)
    sid = delete_mod.delete_where(t, "ts", lo, hi)
    assert sid == t.current_snapshot_id()
    ts64 = data["ts"].cast(pa.int64())
    keep = pc.or_(pc.less(ts64, lo), pc.greater(ts64, hi))
    expected = data.filter(keep)
    expected = expected.take(
        pc.sort_indices(
            expected, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
    )
    assert sorted_scan(t).equals(expected)
    # no-match range: no new snapshot
    out_of_range = int(ts64.cast(pa.int64()).to_numpy(zero_copy_only=False).max()) + 10**9
    assert delete_mod.delete_where(t, "ts", out_of_range, out_of_range + 1) == sid


def test_delete_where_drops_contained_files_without_rewrite(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    # ts-sorted write → each file covers a consecutive ts range, so a wide
    # delete range fully contains interior files (the zero-IO fast path)
    data = data.take(pc.sort_indices(data, sort_keys=[("ts", "ascending")]))
    t = make_table(tmp_table_dir, data, rows_per_file=200)
    pre_paths = set(t.entries()["path"].to_pylist())
    assert len(pre_paths) > 6
    lo, hi = _ts_range(data, 0.2, 0.8)
    parent = t.current_snapshot_id()
    delete_mod.delete_where(t, "ts", lo, hi)
    post_paths = set(t.entries()["path"].to_pylist())

    # rewritten (straddling) inputs are recorded in the delete job's lineage
    job_id = lineage.job_id_for("delete", parent, f"delete:ts:{lo}:{hi}")
    log = lineage.read_log(t.dir)
    log = log.filter(pc.equal(log["job_id"], job_id))
    rewritten_inputs: set[str] = set()
    for inputs in log["input_files"].to_pylist():
        rewritten_inputs.update(inputs)
    dropped = pre_paths - post_paths - rewritten_inputs
    untouched = pre_paths & post_paths
    assert dropped, "expected at least one contained file dropped with zero IO"
    assert untouched, "expected disjoint files to survive untouched"
    # and the data is still right
    ts64 = data["ts"].cast(pa.int64())
    expected = data.filter(pc.or_(pc.less(ts64, lo), pc.greater(ts64, hi)))
    expected = expected.take(
        pc.sort_indices(
            expected, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
    )
    assert sorted_scan(t).equals(expected)


@pytest.mark.parametrize("path", ["driver", "distributed"])
def test_changes_and_compact_across_schema_evolution(
    tmp_table_dir, ray_session, monkeypatch, path
):
    """mergeSchema end-to-end: evolve the table with a new column, compact
    the MIXED-schema file set, and diff across the evolution — carried old
    rows (null-filled) must cancel; only the evolved wave surfaces."""
    import ray.data as rd

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT

    if path == "distributed":
        monkeypatch.setattr(changes_mod, "PARTIAL_DRIVER_MAX_ROWS", 10)
        monkeypatch.setattr(changes_mod, "SUBSET_DRIVER_MAX_ROWS", 10)

    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    pre = t.current_snapshot_id()

    wave2 = data.slice(0, 300)
    wave2 = wave2.set_column(
        wave2.schema.get_field_index("turn_idx"),
        "turn_idx",
        pc.add(wave2["turn_idx"], 20_000).cast(pa.int32()),
    ).append_column("lang", pa.array(["en"] * 300))
    evolved = TRANSCRIPT.append(pa.field("lang", pa.string()))
    t.append_dataset(rd.from_arrow(wave2), evolve_schema=evolved, name_prefix="w2")
    assert t.schema().names[-1] == "lang"

    # compaction must rewrite mixed old/new-schema files (null-fill)
    compact_mod.compact(t)
    got = t.read_arrow()
    assert set(got.schema.names) == set(evolved.names)
    assert got.num_rows == data.num_rows + 300
    en = got.filter(pc.equal(pc.fill_null(got["lang"], ""), "en"))
    assert en.num_rows == 300

    # streaming scan keeps the evolved column whatever fragment goes first
    sc = t.scan()
    assert "lang" in pa.schema(sc.schema().base_schema).names

    # diff across evolution + compaction: old rows null-fill and cancel
    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    assert set(diff["change"].to_pylist()) == {"added"}
    assert diff.num_rows == 300
    assert set(diff["lang"].to_pylist()) == {"en"}


def test_changes_distributed_fallback_paths(tmp_table_dir, ray_session, monkeypatch):
    """Force the overflow paths: phase-1 distributed hash netting and
    phase-2 distributed exact netting must produce the same diff as the
    driver-fold fast paths."""
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    compact_mod.compact(t)
    pre = t.current_snapshot_id()
    before = sorted_scan(t)
    src = derive.derived_merge_source(before)
    merge_mod.merge(t, src)
    after = sorted_scan(t)

    monkeypatch.setattr(changes_mod, "PARTIAL_DRIVER_MAX_ROWS", 10)
    monkeypatch.setattr(changes_mod, "SUBSET_DRIVER_MAX_ROWS", 10)
    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    added = diff.filter(pc.equal(diff["change"], "added")).drop_columns(["change"])
    removed = diff.filter(pc.equal(diff["change"], "removed")).drop_columns(["change"])
    b, a = _row_keys(before), _row_keys(after)
    assert _row_keys(added) == a - b and added.num_rows == len(a - b)
    assert _row_keys(removed) == b - a and removed.num_rows == len(b - a)


def test_feed_from_expired_snapshot_names_it(tmp_table_dir, ray_session):
    """A start snapshot that expiry deleted is a clear error naming it and
    the oldest retained snapshot, raised before any file is read."""
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    old = t.current_snapshot_id()
    merge_mod.merge(t, derive.derived_merge_source(sorted_scan(t)))
    expire_mod.expire_snapshots(t, keep_last=1)
    cur = t.current_snapshot_id()
    with pytest.raises(ValueError, match=rf"snapshot {old} .*oldest retained snapshot is {cur}"):
        changes_mod.snapshot_changes(t, old, cur)


def test_delete_resume_after_crash(tmp_table_dir, ray_session, in_driver):
    """DELETE shares the bin machinery's lineage resume: a crash mid-job
    leaves no commit; the re-run replans the same job, skips completed
    units, and produces the exact filtered table."""
    import pytest

    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data, rows_per_file=150)
    lo, hi = _ts_range(data, 0.2, 0.8)
    with pytest.raises(Exception):
        delete_mod.delete_where(t, "ts", lo, hi, fail_after=1, concurrency=1)
    assert t.current_snapshot_id() == 1  # nothing committed
    delete_mod.delete_where(t, "ts", lo, hi)
    ts64 = data["ts"].cast(pa.int64())
    expected = data.filter(pc.or_(pc.less(ts64, lo), pc.greater(ts64, hi)))
    expected = expected.take(
        pc.sort_indices(
            expected, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
    )
    assert sorted_scan(t).equals(expected)


# -- writer-emitted change data: the feed equals the brute-force diff --------


def _merge_compact_merge(t, data):
    """Two MERGEs with a compaction between them: the compaction's empty
    change record contributes nothing, so the feed reads change files only."""
    pre = t.current_snapshot_id()
    src = derive.derived_merge_source(sorted_scan(t))
    # one conversation: the other partitions keep their small files
    merge_mod.merge(t, src.filter(pc.equal(src["conv_id"], src["conv_id"][0])))
    assert compact_mod.compact(t) is not None
    merge_mod.merge(t, derive.derived_merge_source(sorted_scan(t)))
    items = changes_mod.change_files(t, pre, t.current_snapshot_id())
    assert items and all(i[1] == manifest.CHANGE_FILE for i in items)
    return pre


def _noop_update(t, data):
    """A MERGE update that rewrites a row to its own content cancels."""
    compact_mod.compact(t)
    pre = t.current_snapshot_id()
    rows = sorted_scan(t).slice(0, 2)
    rows = rows.set_column(
        rows.schema.get_field_index("text"), "text", pa.array([rows["text"][0].as_py(), "edited"])
    )
    merge_mod.merge(t, rows.append_column("op", pa.array(["update", "update"])))
    return pre


def _delete_contained_and_straddling(t, data):
    """A DELETE that drops whole contained files and rewrites straddlers:
    both halves of its change record are whole-file removals and change
    files."""
    parent = t.current_snapshot_id()
    lo, hi = _ts_range(data, 0.2, 0.8)
    delete_mod.delete_where(t, "ts", lo, hi)
    sides = {i[1] for i in manifest.change_record(t.dir, t.current_snapshot_id())}
    assert sides == {manifest.CHANGE_FILE, manifest.WHOLE_REMOVED}
    return parent


def _merge_rollback_merge(t, data):
    """A rollback stores no change record and takes the whole-file path."""
    compact_mod.compact(t)
    pre = t.current_snapshot_id()
    merged = merge_mod.merge(t, derive.derived_merge_source(sorted_scan(t)))
    t.rollback(pre)
    assert manifest.change_record(t.dir, t.current_snapshot_id()) is None
    src = derive.derived_merge_source(sorted_scan(t))
    merge_mod.merge(t, src.slice(0, src.num_rows // 2))
    return merged  # from the first MERGE's snapshot: its undo is in range


def _merge_resumed(t, data):
    """A MERGE that crashed after one unit and was re-run: the resumed job
    reuses the finished unit's change file and rewrites no duplicate."""
    compact_mod.compact(t)
    pre = t.current_snapshot_id()
    src = derive.derived_merge_source(sorted_scan(t))
    with pytest.raises(Exception):
        merge_mod.merge(t, src, fail_after=1, concurrency=1)
    assert t.current_snapshot_id() == pre
    merge_mod.merge(t, src)
    rec = manifest.change_record(t.dir, t.current_snapshot_id())
    paths = [i[0] for i in rec]
    assert len(paths) == len(set(paths))
    metrics = t.history()[-1]["metrics"]
    assert metrics["change_files"] == len(rec)
    assert metrics["change_rows"] == sum(i[2] for i in rec)
    on_disk = {
        os.path.relpath(os.path.join(root, f), t.dir)
        for root, _d, files in os.walk(os.path.join(t.dir, manifest.CHANGE_DIR))
        for f in files
    }
    assert on_disk == set(paths)
    return pre


def _expired_inside_range(t, data):
    """Expiry keeps the pinned start but drops the snapshots between it and
    the end: the feed diffs the two ends' manifests as whole files, so the
    rows the compaction carried over must cancel."""
    pre = _merge_compact_merge(t, data)
    expire_mod.expire_snapshots(t, keep_last=1, pin={pre})
    assert manifest.list_snapshot_ids(t.dir) == [pre, t.current_snapshot_id()]
    items = changes_mod.change_files(t, pre, t.current_snapshot_id())
    assert {i[1] for i in items} == {manifest.WHOLE_REMOVED, manifest.WHOLE_ADDED}
    return pre


@pytest.mark.parametrize(
    "scenario",
    [
        _merge_compact_merge,
        _expired_inside_range,
        _noop_update,
        _delete_contained_and_straddling,
        _merge_rollback_merge,
        _merge_resumed,
    ],
    ids=lambda f: f.__name__.strip("_"),
)
@pytest.mark.parametrize("path", ["driver", "distributed"])
def test_feed_matches_bruteforce(tmp_table_dir, ray_session, monkeypatch, scenario, path):
    if path == "distributed":
        monkeypatch.setattr(changes_mod, "PARTIAL_DRIVER_MAX_ROWS", 10)
        monkeypatch.setattr(changes_mod, "SUBSET_DRIVER_MAX_ROWS", 10)
    data = synth.transcripts(0.001)
    # ts-sorted small files: a wide ts range contains whole files
    data = data.take(pc.sort_indices(data, sort_keys=[("ts", "ascending")]))
    t = make_table(tmp_table_dir, data, rows_per_file=200)
    pre = scenario(t, data)
    before, after = sorted_scan(t, snapshot_id=pre), sorted_scan(t)
    diff = _collect(changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()))
    added = diff.filter(pc.equal(diff["change"], "added")).drop_columns(["change"])
    removed = diff.filter(pc.equal(diff["change"], "removed")).drop_columns(["change"])
    b, a = _row_keys(before), _row_keys(after)
    assert a != b
    assert _row_keys(added) == a - b and added.num_rows == len(a - b)
    assert _row_keys(removed) == b - a and removed.num_rows == len(b - a)
