"""Deletion vectors: a MERGE or DELETE that removes a few rows of a file
records their physical positions in the file's manifest entry instead of
rewriting it, and every reader drops them.

Fold rule: a unit rewrites a file when its old plus new positions exceed
``manifest.DV_MAX_POSITIONS``, removes it when no live row is left, and
otherwise leaves it unwritten; the partition's upserts join the rewrite
output if the unit has one, else they get their own small file."""

import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import cli, synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import incremental
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
    changes as changes_mod,
    cluster as cluster_mod,
    compact as compact_mod,
    delete as delete_mod,
    merge as merge_mod,
    respec,
)
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import ConflictError, Table
from tests.test_table import CONF, make_table, sorted_scan

KEYS = ["conv_id", "turn_idx"]


@pytest.fixture(scope="module")
def data():
    return synth.transcripts(0.001)


def _source(rows: pa.Table, op: str) -> pa.Table:
    """A MERGE source of ``rows``' keys: updates get a new text, inserts a
    turn_idx past any existing one."""
    rows = rows.select(TRANSCRIPT.names)
    if op == "insert":
        rows = rows.set_column(1, "turn_idx", pc.add(rows["turn_idx"], 10_000).cast(pa.int32()))
    if op != "delete":
        text = [f"{op}:{c}/{i}" for c, i in zip(rows["conv_id"].to_pylist(), rows["turn_idx"].to_pylist())]
        rows = rows.set_column(3, "text", pa.array(text))
    return rows.append_column("op", pa.array([op] * rows.num_rows))


def _physical(t: Table, path: str) -> pa.Table:
    return pq.read_table(os.path.join(t.dir, path))


def _entry(t: Table, path: str) -> dict:
    ents = t.entries()
    return ents.filter(pc.equal(ents["path"], path)).select(["path", "rows", "deleted"]).to_pylist()[0]


def _paths(t: Table) -> set[str]:
    return set(t.entries()["path"].to_pylist())


def _file_of(t: Table, min_rows: int) -> tuple[str, pa.Table]:
    """The first live file (in path order) with at least ``min_rows`` rows."""
    for p in sorted(_paths(t)):
        rows = _physical(t, p)
        if rows.num_rows >= min_rows:
            return p, rows
    raise AssertionError(f"no file with {min_rows} rows")


def test_small_merge_writes_only_the_upsert_file(tmp_table_dir, ray_session, data):
    """A 3-key MERGE (update, delete, insert in one conversation) writes one
    data file, its partition's upserts sorted by key; the file holding the
    matched keys keeps its path and records their physical positions."""
    t = make_table(tmp_table_dir, data)
    before = _paths(t)
    conv = data.filter(pc.equal(data["conv_id"], "conv-00000100"))
    src = pa.concat_tables(
        [_source(conv.slice(0, 1), "update"), _source(conv.slice(1, 1), "delete"),
         _source(conv.slice(2, 1), "insert")]
    )
    merge_mod.merge(t, src)
    after = _paths(t)
    assert before <= after  # nothing removed, nothing rewritten
    (new,) = after - before
    ups = _physical(t, new)
    assert ups.num_rows == 2
    assert ups.equals(ups.take(pc.sort_indices(ups, sort_keys=[(k, "ascending") for k in KEYS])))
    dv = [e for e in t.entries().to_pylist() if e["deleted"]]
    assert len(dv) == 1 and len(dv[0]["deleted"]) == 2
    gone = _physical(t, dv[0]["path"]).take(pa.array(dv[0]["deleted"]))
    assert set(zip(*[gone[k].to_pylist() for k in KEYS])) == {
        ("conv-00000100", 0),
        ("conv-00000100", 1),
    }
    assert dv[0]["rows"] == _physical(t, dv[0]["path"]).num_rows - 2
    assert sorted_scan(t).equals(synth.apply_merge_expected(data, src))
    # the change record names only the unit's change file
    rec = manifest.change_record(t.dir, t.current_snapshot_id())
    assert [i[1] for i in rec] == [manifest.CHANGE_FILE]


def test_merge_past_the_cap_folds_the_file(tmp_table_dir, ray_session, data):
    """Positions accumulate up to ``DV_MAX_POSITIONS``; the MERGE that would
    push a file past it rewrites the file, and the partition's upserts join
    that rewrite instead of getting a file of their own."""
    t = make_table(tmp_table_dir, data)
    path, rows = _file_of(t, 120)
    exp = data
    src = _source(rows.slice(0, 40), "delete")
    before = _paths(t)
    merge_mod.merge(t, src)
    exp = synth.apply_merge_expected(exp, src)
    assert _paths(t) == before  # deletes only: no file written
    assert len(_entry(t, path)["deleted"]) == 40
    assert sorted_scan(t).equals(exp)

    src = pa.concat_tables([_source(rows.slice(40, 30), "update"), _source(rows.slice(70, 1), "insert")])
    merge_mod.merge(t, src)
    exp = synth.apply_merge_expected(exp, src)
    after = _paths(t)
    assert path not in after and after - before
    (new,) = after - before
    # the fold output holds the file's survivors and the 31 upserts
    assert _physical(t, new).num_rows == rows.num_rows - 40 - 30 + 31
    assert not any(_entry(t, p)["deleted"] for p in after)
    assert sorted_scan(t).equals(exp)


def test_a_unit_decides_file_by_file(tmp_table_dir, ray_session, data):
    """One unit over two files of a partition: the file with 65 hits is
    folded (with the upsert), the one with 2 hits keeps its path and gets
    2 positions, and a file whose rows all go is removed without a write."""
    t = make_table(tmp_table_dir, data, rows_per_file=100)
    ents = t.entries()
    part = ents["partition"][0].as_py()
    files = sorted(ents.filter(pc.equal(ents["partition"], part))["path"].to_pylist())
    a, b, c = (_physical(t, p) for p in files[:3])
    assert min(a.num_rows, b.num_rows) > 65
    src = pa.concat_tables(
        [_source(a.slice(0, 65), "delete"), _source(a.slice(65, 1), "insert"),
         _source(b.slice(0, 2), "delete"), _source(c, "delete")]
    )
    before = _paths(t)
    merge_mod.merge(t, src)
    after = _paths(t)
    assert files[0] not in after and files[2] not in after
    assert len(_entry(t, files[1])["deleted"]) == 2
    (new,) = after - before
    assert _physical(t, new).num_rows == a.num_rows - 65 + 1
    assert sorted_scan(t).equals(synth.apply_merge_expected(data, src))


def test_hot_key_updates_add_positions_to_its_upsert_file(tmp_table_dir, ray_session, data):
    t = make_table(tmp_table_dir, data)
    conv = data.filter(pc.equal(data["conv_id"], "conv-00000100"))
    exp = data
    src = _source(conv.slice(0, 3), "update")
    before = _paths(t)
    merge_mod.merge(t, src)
    exp = synth.apply_merge_expected(exp, src)
    (ups1,) = _paths(t) - before
    for k in range(2):
        hot = _source(conv.slice(0, 1), "update")
        hot = hot.set_column(3, "text", pa.array([f"hot-{k}"]))
        prev = _paths(t)
        merge_mod.merge(t, hot)
        exp = synth.apply_merge_expected(exp, hot)
        (ups,) = _paths(t) - prev
        assert _physical(t, ups).num_rows == 1
        assert sorted_scan(t).equals(exp)
        if k == 0:
            ups2 = ups
    # the first update's upsert file holds the hot key at position 0 (sorted)
    assert _entry(t, ups1)["deleted"] == [0] and _entry(t, ups1)["rows"] == 2
    # the second's held only the hot key: emptied, so removed
    assert ups2 not in _paths(t)


def test_delete_where_records_positions(tmp_table_dir, ray_session, data):
    """DELETE WHERE takes the same path: straddling files with a few hits
    keep their paths and record positions, and nothing is written."""
    t = make_table(tmp_table_dir, data)
    ts = data["ts"].cast(pa.int64())
    lo = int(pc.min(ts).as_py()) + (int(pc.max(ts).as_py()) - int(pc.min(ts).as_py())) // 2
    hi = lo + 3_600_000_000  # one hour: a few rows
    hit = pc.and_(pc.greater_equal(ts, lo), pc.less_equal(ts, hi))
    n = int(pc.sum(hit).as_py())
    assert 0 < n <= manifest.DV_MAX_POSITIONS
    pre, before = t.current_snapshot_id(), _paths(t)
    delete_mod.delete_where(t, "ts", lo, hi)
    assert _paths(t) == before
    assert sum(len(e["deleted"] or ()) for e in t.entries().to_pylist()) == n
    exp = data.filter(pc.invert(hit))
    assert sorted_scan(t).equals(exp.take(pc.sort_indices(exp, sort_keys=[(k, "ascending") for k in KEYS])))
    feed = changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()).take_all()
    assert len(feed) == n and {r["change"] for r in feed} == {"removed"}


def test_concurrent_merges_adding_positions_to_one_file_conflict(
    tmp_table_dir, ray_session, data, monkeypatch
):
    """Two MERGEs planned on one parent both add positions to the same
    file: the second commit raises ConflictError (its path is still live,
    but its deleted rows changed), and the table holds the first only."""
    t = make_table(tmp_table_dir, data)
    conv = data.filter(pc.equal(data["conv_id"], "conv-00000100"))
    first, second = _source(conv.slice(0, 1), "update"), _source(conv.slice(1, 1), "update")
    held: dict = {}
    real = Table.commit

    def hold(self, **kw):  # plan and run the units, keep the commit
        held.update(kw)
        return -1

    monkeypatch.setattr(Table, "commit", hold)
    merge_mod.merge(t, second)
    monkeypatch.setattr(Table, "commit", real)
    merge_mod.merge(t, first)
    assert held["removed"]
    with pytest.raises(ConflictError, match="deleted rows"):
        t.commit(**held)
    assert sorted_scan(t).equals(synth.apply_merge_expected(data, first))


def test_rollback_across_a_small_merge(tmp_table_dir, ray_session, data):
    t = make_table(tmp_table_dir, data)
    pre = t.current_snapshot_id()
    src = _source(data.filter(pc.equal(data["conv_id"], "conv-00000100")).slice(0, 2), "update")
    merge_mod.merge(t, src)
    assert manifest.dv_counts(t.entries())[0] == 1
    t.rollback(pre)
    assert sorted_scan(t).equals(sorted_scan(t, snapshot_id=pre))
    assert manifest.dv_counts(t.entries()) == (0, 0)


@pytest.mark.parametrize("path", ["driver", "distributed"])
def test_feed_over_reversed_range_across_a_dv_merge(
    tmp_table_dir, ray_session, data, monkeypatch, path
):
    if path == "distributed":
        monkeypatch.setattr(changes_mod, "SUBSET_DRIVER_MAX_ROWS", 0)
    t = make_table(tmp_table_dir, data)
    pre = t.current_snapshot_id()
    rows = data.filter(
        pc.is_in(data["conv_id"], value_set=pa.array(["conv-00000100", "conv-00000200"]))
    )
    src = pa.concat_tables([_source(rows.slice(0, 3), "update"), _source(rows.slice(3, 2), "delete")])
    merge_mod.merge(t, src)
    post = t.current_snapshot_id()
    assert manifest.dv_counts(t.entries())[0] >= 1

    def content(tb: pa.Table) -> set[tuple]:
        return set(zip(*[tb[c].to_pylist() for c in TRANSCRIPT.names]))

    # forward: the MERGE's change record; reversed: the two ends' file diff
    for a, b in ((pre, post), (post, pre)):
        feed = pa.Table.from_pylist(changes_mod.snapshot_changes(t, a, b).take_all())
        old, new = content(sorted_scan(t, snapshot_id=a)), content(sorted_scan(t, snapshot_id=b))
        added = feed.filter(pc.equal(feed["change"], "added"))
        removed = feed.filter(pc.equal(feed["change"], "removed"))
        assert content(added) == new - old and added.num_rows == len(new - old)
        assert content(removed) == old - new and removed.num_rows == len(old - new)


def test_scan_drops_deleted_rows(tmp_table_dir, ray_session, data, tmp_path):
    """``Table.scan`` reads live rows as ``read_arrow`` does, and so do the
    repartition and the incremental view built on it; compaction and
    clustering fold the positions. A snapshot written without the
    ``deleted`` column reads as having no deleted rows."""
    t = make_table(tmp_table_dir, data)
    view = incremental.create_conv_count_view(t, str(tmp_path / "view"), config=CONF)
    rows = data.filter(pc.equal(data["conv_id"], "conv-00000100"))
    src = pa.concat_tables([_source(rows.slice(0, 2), "delete"), _source(rows.slice(2, 1), "update")])
    merge_mod.merge(t, src)
    exp = synth.apply_merge_expected(data, src)
    assert manifest.dv_counts(t.entries())[0] == 1

    def scanned(tb, **kw):
        got = pa.Table.from_pylist(tb.scan(**kw).take_all(), schema=tb.schema() if not kw else None)
        return got.take(pc.sort_indices(got, sort_keys=[(k, "ascending") for k in KEYS]))

    assert scanned(t).equals(exp)
    assert scanned(t).equals(sorted_scan(t))
    assert t.scan(columns=["conv_id"]).count() == exp.num_rows

    incremental.refresh_conv_count_view(t, view)
    counts = view.read_arrow(columns=["conv_id", "n_turns"])
    got = dict(zip(counts["conv_id"].to_pylist(), counts["n_turns"].to_pylist()))
    assert got["conv-00000100"] == rows.num_rows - 2

    respec.repartition_table(t, "hash:conv_id:3")
    assert manifest.dv_counts(t.entries()) == (0, 0)
    assert sorted_scan(t).equals(exp)

    merge_mod.merge(t, _source(exp.filter(pc.equal(exp["conv_id"], "conv-00000200")).slice(0, 1), "delete"))
    exp2 = sorted_scan(t)
    assert manifest.dv_counts(t.entries())[0] == 1
    compact_mod.compact(t)
    cluster_mod.cluster(t, mode="partition")
    assert manifest.dv_counts(t.entries()) == (0, 0)
    assert sorted_scan(t).equals(exp2)

    # a snapshot from before the column existed: no deleted rows
    sid = t.current_snapshot_id()
    snap = manifest.snap_path(t.dir, sid)
    old = pq.read_table(snap)
    pq.write_table(old.drop_columns(["deleted"]), snap)
    ents = t.entries()
    assert ents.schema.equals(manifest.ENTRY_SCHEMA)
    assert ents["deleted"].null_count == ents.num_rows
    assert sorted_scan(t).equals(exp2)


def test_commit_metrics_count_deletion_vectors(tmp_table_dir, ray_session, data, capsys):
    t = make_table(tmp_table_dir, data)
    rows = data.filter(pc.equal(data["conv_id"], "conv-00000100"))
    merge_mod.merge(t, _source(rows.slice(0, 3), "delete"))
    m = t.history()[-1]["metrics"]
    assert (m["dv_files"], m["dv_rows"]) == (1, 3)
    rows = data.filter(pc.equal(data["conv_id"], "conv-00000300"))
    merge_mod.merge(t, _source(rows.slice(0, 2), "delete"))
    m = t.history()[-1]["metrics"]
    assert (m["dv_files"], m["dv_rows"]) == manifest.dv_counts(t.entries())
    assert m["dv_rows"] == 5
    assert cli.main(["snapshots", "--table", t.dir]) == 0
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["history"][-1]["metrics"]["dv_rows"] == 5
