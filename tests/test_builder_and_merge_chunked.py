import dataclasses

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.builder import Flow, Pipeline, register, transform
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import changes as changes_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import merge as merge_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import rewrite
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


def test_merge_chunked_matches_single_merge(tmp_path, ray_session):
    data = synth.transcripts(0.001)
    src = synth.merge_source(data)
    # force the chunked path with a tiny broadcast budget
    small_conf = dataclasses.replace(CONF, merge_broadcast_max_rows=50)
    t = Table.create(
        str(tmp_path / "tbl"),
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{small_conf.num_partitions}",
        config=small_conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    t.write_table(data, rows_per_file=300)
    assert src.num_rows > 50
    merge_mod.merge(t, src)  # routes through merge_chunked
    assert t.current_snapshot_id() > 2  # several atomic chunk commits
    assert sorted_scan(t).equals(synth.apply_merge_expected(data, src))


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

    # the feed over the MERGE: each upsert added once, each matched row removed
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
