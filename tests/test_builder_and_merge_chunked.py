import dataclasses

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.builder import Flow, Pipeline, register, transform
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import changes as changes_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import delete as delete_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import merge as merge_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import rewrite
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table
from tests.test_table import CONF, make_table, sorted_scan


def test_pipeline_builder_flow(tmp_path, ray_session):
    data = synth.transcripts(0.001)
    src = make_table(str(tmp_path / "src"), data, rows_per_file=2000)

    @register("only_tools")
    def only_tools(b: pa.Table) -> pa.Table:
        return b.filter(pc.equal(b["role"], "tool"))

    @register("upper_tool")
    def upper_tool(b: pa.Table) -> pa.Table:
        return b.set_column(
            b.schema.get_field_index("tool"), "tool", pc.utf8_upper(b["tool"])
        )

    sink = Table.create(
        str(tmp_path / "sink"),
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{CONF.num_partitions}",
        config=CONF,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    p = Pipeline("tools").add(
        Flow("tool-turns", src, sink, transforms=["only_tools", "upper_tool"])
    )
    sids = p.run()
    assert sids["tool-turns"] == 1
    got = sink.read_arrow()
    expect = data.filter(pc.equal(data["role"], "tool"))
    assert got.num_rows == expect.num_rows
    assert set(got["tool"].to_pylist()) == {t.upper() for t in set(expect["tool"].to_pylist())}
    assert transform("only_tools") is only_tools


def test_pipeline_rerun_appends_nothing(tmp_path, ray_session):
    """Builder flows are exactly-once: a rerun appends nothing, new source
    rows are appended once, and a chained pipeline fills its last sink in
    its first run."""
    test_pipeline_builder_flow(tmp_path, ray_session)
    src, sink = Table(str(tmp_path / "src")), Table(str(tmp_path / "sink"))
    p = Pipeline("tools").add(Flow("tool-turns", src, sink, transforms=["only_tools", "upper_tool"]))
    before = sorted_scan(sink)
    assert all(v is None for v in p.run().values())
    assert sorted_scan(sink).equals(before)

    more = synth.transcripts(0.001)
    more = more.set_column(0, "conv_id", pc.binary_join_element_wise(more["conv_id"], "-2", ""))
    src.write_table(more, rows_per_file=2000)
    assert p.run()["tool-turns"] is not None
    tools = pc.equal(more["role"], "tool")
    assert sink.read_arrow().num_rows == before.num_rows + pc.sum(tools).as_py()
    assert all(v is None for v in p.run().values())

    def empty(name):
        return Table.create(
            str(tmp_path / name),
            TRANSCRIPT,
            partition_spec=f"hash:conv_id:{CONF.num_partitions}",
            config=CONF,
            stats_cols=TRANSCRIPT_STATS_COLS,
        )

    mid, end = empty("mid"), empty("end")
    chained = Pipeline("chain").add(Flow("b", mid, end, ["upper_tool"])).add(
        Flow("a", src, mid, ["only_tools"])
    )
    out = chained.run()
    assert out["a"] is not None and out["b"] is not None
    assert end.read_arrow().num_rows == sink.read_arrow().num_rows


def test_pipeline_reads_live_rows_after_delete_and_merge(tmp_path, ray_session):
    """A flow over a table whose DELETE and small MERGE recorded deleted
    positions appends only the live rows, the updates' new values once."""
    data = synth.transcripts(0.001)
    src = make_table(str(tmp_path / "src"), data, rows_per_file=2000)
    ts = data["ts"].cast(pa.int64())
    lo = int(pc.min(ts).as_py()) + (int(pc.max(ts).as_py()) - int(pc.min(ts).as_py())) // 2
    delete_mod.delete_where(src, "ts", lo, lo + 3_600_000_000)
    upd = data.filter(pc.greater(ts, lo + 3_600_000_000)).slice(0, 3).select(TRANSCRIPT.names)
    upd = upd.set_column(3, "text", pa.array(["updated"] * upd.num_rows))
    merge_mod.merge(src, upd.append_column("op", pa.array(["update"] * upd.num_rows)))
    assert manifest.dv_counts(src.entries())[0] > 0
    sink = Table.create(
        str(tmp_path / "sink"),
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{CONF.num_partitions}",
        config=CONF,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    assert Pipeline("copy").add(Flow("copy", src, sink, [lambda b: b])).run()["copy"] is not None
    assert sorted_scan(sink).equals(sorted_scan(src))


def _assert_feed_is_net_effect(t, pre, data, src):
    """The feed over one MERGE adds each upsert once and removes each
    matched row once."""
    diff = changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()).take_all()
    names = TRANSCRIPT.names

    def rows(tbl):
        return sorted(tuple(r[c] for c in names) for r in tbl.select(names).to_pylist())

    def feed(change):
        return sorted(tuple(r[c] for c in names) for r in diff if r["change"] == change)

    def key_list(tbl):
        return list(zip(tbl["conv_id"].to_pylist(), tbl["turn_idx"].to_pylist()))

    keys = set(key_list(src))
    matched = data.filter(pa.array([k in keys for k in key_list(data)]))
    assert feed("added") == rows(src.filter(pc.not_equal(src["op"], "delete")))
    assert feed("removed") == rows(matched)


def test_merge_commits_once_at_any_source_size(tmp_path, ray_session):
    """No source size splits a MERGE: it is one job and one snapshot, so
    readers and the feed never see it half applied."""
    data = synth.transcripts(0.001)
    src = synth.merge_source(data)
    t = make_table(str(tmp_path / "tbl"), data)
    pre = t.current_snapshot_id()
    sid = merge_mod.merge(t, src)
    new = [h for h in t.history() if h["snapshot_id"] > pre]
    assert [(h["snapshot_id"], h["operation"]) for h in new] == [(sid, "merge")]
    assert sorted_scan(t).equals(synth.apply_merge_expected(data, src))
    _assert_feed_is_net_effect(t, pre, data, src)


def test_merge_retry_over_half_applied_source_is_idempotent(tmp_path, ray_session):
    """A table with half a source merged (what a crash between partial
    commits would leave), then the whole source merged twice: each full
    MERGE yields exactly the one-shot result."""
    data = synth.transcripts(0.001)
    src = synth.merge_source(data)
    t = make_table(str(tmp_path / "tbl"), data)
    merge_mod.merge(t, src.slice(0, src.num_rows // 2))
    expected = synth.apply_merge_expected(data, src)
    for _ in range(2):
        merge_mod.merge(t, src)
        assert sorted_scan(t).equals(expected)


def test_merge_with_multi_bin_partitions(tmp_path, ray_session, in_driver):
    """Byte-capped merge units: several bins per partition, upserts applied
    exactly once (hot-partition memory-bound path), also when the MERGE
    crashes after one unit and resumes: task batches then mix units with
    and without the partition's upserts."""
    data = synth.transcripts(0.001)
    src = synth.merge_source(data)
    tiny = dataclasses.replace(CONF, target_file_bytes=16 * 1024)  # force multi-bin
    t = Table.create(
        str(tmp_path / "tbl"),
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{tiny.num_partitions}",
        config=tiny,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    t.write_table(data, rows_per_file=150)
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages.merge import _source_hash  # noqa: F401
    pre = t.current_snapshot_id()
    by_path = rewrite.entries_by_path(t.entries())
    files: dict[str, list[str]] = {}
    for p, r in by_path.items():
        files.setdefault(r["partition"], []).append(p)
    # every partition's files pack into several units
    cap = tiny.target_file_bytes
    assert all(len(rewrite.pack_bins(fs, by_path, cap)) > 1 for fs in files.values())
    with pytest.raises(Exception):
        merge_mod.merge(t, src, fail_after=1, concurrency=1)
    assert t.current_snapshot_id() == pre
    merge_mod.merge(t, src)
    assert sorted_scan(t).equals(synth.apply_merge_expected(data, src))

    _assert_feed_is_net_effect(t, pre, data, src)
