import os

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg
from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import ConflictError, Table

CONF = cfg.test_config()


def make_table(d, data=None, rows_per_file=300):
    t = Table.create(
        d,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{CONF.num_partitions}",
        config=CONF,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    if data is not None:
        t.write_table(data, rows_per_file=rows_per_file)
    return t


def sorted_scan(t: Table, snapshot_id=None) -> pa.Table:
    out = t.read_arrow(snapshot_id=snapshot_id)
    idx = pc.sort_indices(out, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    return out.take(idx)


def test_create_and_snapshot0(tmp_table_dir):
    t = make_table(tmp_table_dir)
    assert t.current_snapshot_id() == 0
    assert t.entries().num_rows == 0
    assert t.schema().equals(TRANSCRIPT)


def test_write_read_roundtrip(tmp_table_dir):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    assert t.current_snapshot_id() == 1
    ents = t.entries()
    assert ents.num_rows > 10  # many small files
    assert int(pc.sum(ents["rows"]).as_py()) == data.num_rows
    back = sorted_scan(t)
    expect = data.take(
        pc.sort_indices(data, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    assert back.equals(expect)


def test_stats_match_recomputation(tmp_table_dir):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    import pyarrow.parquet as pq

    ents = t.entries()
    for i in range(5):
        entry = ents.slice(i, 1)
        actual = pq.read_table(os.path.join(t.dir, entry["path"][0].as_py()))
        assert entry["rows"][0].as_py() == actual.num_rows
        fresh = pa.Table.from_pylist(
            [manifest.entry_for("", "", actual, 0, TRANSCRIPT_STATS_COLS)],
            schema=manifest.ENTRY_SCHEMA,
        )
        assert entry["stats"].equals(fresh["stats"])


def test_scan_pruning_by_stats(tmp_table_dir):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    target = "conv-00000042"
    pruned = t.pruned_entries(predicates={"conv_id": (target, target)})
    assert 0 < pruned.num_rows < t.entries().num_rows
    got = pa.concat_tables(
        __import__("pyarrow.parquet", fromlist=["x"]).read_table(os.path.join(t.dir, p))
        for p in pruned["path"].to_pylist()
    )
    got = got.filter(pc.equal(got["conv_id"], target))
    expect = data.filter(pc.equal(data["conv_id"], target))
    assert got.num_rows == expect.num_rows


def test_string_truncation_upper_bound():
    s = "z" * 100
    up = manifest.truncate_max(s)
    assert up is not None and up >= s and len(up) <= 64
    assert manifest.truncate_min(s) <= s


def test_commit_conflict_on_nonlive_files(tmp_table_dir):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    with pytest.raises(ConflictError):
        t.commit(added=None, removed=["data/part-0/nope.parquet"], operation="bad")


def test_snapshot_isolation_pinned_reader(tmp_table_dir):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)
    s1 = t.current_snapshot_id()
    more = data.slice(0, 100)
    t.write_table(more, rows_per_file=50, operation="append2", name_prefix="m")
    assert t.current_snapshot_id() == s1 + 1
    assert t.read_arrow(snapshot_id=s1).num_rows == data.num_rows
    assert t.read_arrow().num_rows == data.num_rows + 100


def test_rollback_time_travel(tmp_table_dir, ray_session):
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import compact as compact_mod
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import merge as merge_mod

    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data)          # snap 1
    compact_mod.compact(t)                        # snap 2
    src = synth.merge_source(data)
    merge_mod.merge(t, src)                       # snap 3 (mutated)
    pre = sorted_scan(t, snapshot_id=2)
    sid = t.rollback(2)                           # snap 4 = content of snap 2
    assert sid == 4
    assert sorted_scan(t).equals(pre)
    # the merged snapshot remains readable (history preserved)
    assert sorted_scan(t, snapshot_id=3).num_rows != pre.num_rows


def test_commit_self_heals_orphaned_snapshot(tmp_path):
    """A snapshot file published WITHOUT a pointer update (committer crashed
    between try_write_snapshot and set_current, or a pointer write was lost)
    must not wedge the table: the next commit builds on it and heals the
    CURRENT pointer."""
    data = synth.transcripts(0.001)
    t = make_table(str(tmp_path / "tbl"), data.slice(0, 300))
    assert t.current_snapshot_id() == 1
    # orphan snap-2: identical live set, pointer NOT advanced
    ents, meta = t.snapshot(1)
    assert manifest.try_write_snapshot(
        t.dir, 2, ents, parent_id=1, operation="orphan",
        schema=meta["schema"], partition_spec=meta["partition_spec"],
    )
    # pointer still 1 — simulate the crash window
    assert manifest.current_id(t.dir) == 1
    sid = t.write_table(data.slice(300, 200), name_prefix="w2")
    assert sid == 3  # built on the orphan, not colliding with its id
    assert t.current_snapshot_id() == 3
    got = sorted_scan(t)
    assert got.num_rows == 500


def test_commit_rejects_duplicate_added_paths(tmp_path):
    data = synth.transcripts(0.001).slice(0, 100)
    t = make_table(str(tmp_path / "tbl"), data)
    live = t.entries()
    # re-adding a live path must conflict (would double-reference the file)
    with pytest.raises(ConflictError):
        t.commit(added=live.slice(0, 1), removed=[], operation="dup")
    # duplicate paths within one added set must conflict
    dup = pa.concat_tables([live.slice(0, 1), live.slice(0, 1)])
    with pytest.raises(ConflictError):
        t.commit(added=dup, removed=[live["path"][0].as_py()], operation="dup2")


def test_set_current_never_regresses(tmp_path):
    data = synth.transcripts(0.001).slice(0, 100)
    t = make_table(str(tmp_path / "tbl"), data)
    t.write_table(data.slice(0, 50), name_prefix="x")  # snap 2
    assert t.current_snapshot_id() == 2
    manifest.set_current(t.dir, 1)  # stale writer tries to move back
    assert t.current_snapshot_id() == 2


def test_history_and_timestamp_as_of(tmp_table_dir):
    import time

    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data.slice(0, 300))
    time.sleep(0.05)
    mark = time.time()
    time.sleep(0.05)
    t.write_table(data.slice(300, 300), name_prefix="w2")
    h = t.history()
    assert [r["snapshot_id"] for r in h] == [0, 1, 2]
    assert h[2]["operation"] == "append" and h[2]["parent_id"] == 1
    assert h[0]["created_at"] <= h[1]["created_at"] <= h[2]["created_at"]
    # AS OF the marked instant resolves to snapshot 1, not 2
    assert t.snapshot_id_as_of(mark) == 1
    assert t.read_arrow(snapshot_id=t.snapshot_id_as_of(mark)).num_rows == 300
    assert t.snapshot_id_as_of(time.time()) == 2
    with pytest.raises(ValueError):
        t.snapshot_id_as_of(h[0]["created_at"] - 100)
    # rollback by timestamp: table content returns to the AS OF state
    t.rollback(t.snapshot_id_as_of(mark))
    assert t.read_arrow().num_rows == 300


def test_struct_subfield_evolution_reads_and_compacts(tmp_path, ray_session):
    """mergeSchema on a nested column: a commit that adds a subfield to a
    struct column leaves the old files readable and compactable; their rows
    come back with the new subfield null."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import cluster as cluster_mod
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import compact as compact_mod

    old_t = pa.struct([("a", pa.int64())])
    new_t = pa.struct([("a", pa.int64()), ("b", pa.string())])
    t = Table.create(str(tmp_path / "nested"), pa.schema([("id", pa.int64()), ("s", old_t)]),
                     partition_spec="none", config=CONF)
    t.write_table(pa.table({"id": [0, 1, 2], "s": pa.array([{"a": 0}, None, {"a": 2}], old_t)}),
                  rows_per_file=1)
    wave2 = pa.table({"id": [3], "s": pa.array([{"a": 3, "b": "x"}], new_t)})
    t.commit(added=t.write_files(wave2, "", t.stats_cols(), "w2", wave2.num_rows),
             removed=[], operation="append", evolve_schema=wave2.schema)
    assert t.schema().field("s").type == new_t

    want = [{"id": 0, "s": {"a": 0, "b": None}}, {"id": 1, "s": None},
            {"id": 2, "s": {"a": 2, "b": None}}, {"id": 3, "s": {"a": 3, "b": "x"}}]

    def rows():
        got = t.read_arrow()
        assert got.schema.field("s").type == new_t
        return sorted(got.to_pylist(), key=lambda r: r["id"])

    assert rows() == want
    # the distributed scan and the key-range cluster (whose scatter units
    # read the old files) align each old file's struct too
    assert sorted(t.scan().take_all(), key=lambda r: r["id"]) == want
    pre = t.current_snapshot_id()
    assert cluster_mod.cluster(t, cols=["id"], mode="global") == pre + 1
    assert rows() == want
    t.rollback(pre)  # compact the pre-evolution files below
    before = t.entries().num_rows
    assert compact_mod.compact(t) is not None
    assert t.entries().num_rows < before
    assert rows() == want


# -- every writer routes each file's rows to its entry's partition ----------

def _written_by(op: str, d: str) -> Table:
    """A table whose live files ``op`` wrote, on a ``hash:`` spec except the
    medallion flow, whose silver sink is ``col:_event_date``."""
    import ray.data as rd

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.medallion import Medallion
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
        cluster,
        compact,
        delete,
        merge,
        respec,
    )

    base = synth.transcripts(0.001)
    if op == "medallion_flow":
        synth.write_audit_fixture(os.path.join(d, "raw"), n_per_source=60)
        m = Medallion(os.path.join(d, "tables"), CONF)
        m.setup()
        m.run_bronze(os.path.join(d, "raw"))
        m.run_silver()
        return m.table("silver_github_audit_logs")
    if op == "append_dataset":
        t = make_table(d)
        t.append_dataset(rd.from_arrow(base).repartition(3))
        return t
    t = make_table(d, base, rows_per_file=300)
    if op == "compact":
        compact.compact(t)
    elif op.startswith("cluster_"):
        cluster.cluster(t, mode=op.removeprefix("cluster_"))
    elif op == "merge":
        merge.merge(t, synth.merge_source(base))
    elif op == "delete_where":
        mid = int(np.median(base["ts"].cast("int64").to_numpy()))
        delete.delete_where(t, "ts", mid, mid + 10**9)
    elif op == "repartition_table":
        respec.repartition_table(t, "hash:conv_id:3")
    return t


@pytest.mark.parametrize(
    "op",
    [
        "write_table",
        "append_dataset",
        "compact",
        "cluster_partition",
        "cluster_global",
        "merge",
        "delete_where",
        "repartition_table",
        "medallion_flow",
    ],
)
def test_every_writer_routes_rows_to_their_partition(op, tmp_path, ray_session):
    """Every live file holds only rows of its entry's partition under the
    snapshot's spec, in that partition's dir, and its entry counts its
    rows — whichever writer made it. Nor does any writer leave a data file
    that no snapshot names."""
    import pyarrow.parquet as pq

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import split_by_partition

    t = _written_by(op, str(tmp_path))
    ents, meta = t.snapshot()
    assert ents.num_rows
    for e in ents.select(["path", "partition", "rows", "deleted"]).to_pylist():
        rows = pq.read_table(os.path.join(t.dir, e["path"]))
        # an entry counts its live rows: the file's minus its deleted positions
        assert rows.num_rows - len(e["deleted"] or ()) == e["rows"] > 0
        assert list(split_by_partition(rows, meta["partition_spec"])) == [e["partition"]]
        assert os.path.dirname(e["path"]) == os.path.join("data", e["partition"])
    named = set()
    for sid in manifest.list_snapshot_ids(t.dir):
        named |= set(t.entries(sid)["path"].to_pylist())
    data = os.path.join(t.dir, "data")
    on_disk = {
        os.path.relpath(os.path.join(d, f), t.dir) for d, _, fs in os.walk(data) for f in fs
    }
    assert on_disk == named


# -- the data-file format: one writer profile --------------------------------

def _chunks(path: str) -> list[tuple[str, str, bool, bool]]:
    """(column path, codec, has a dictionary page, footer statistics set) of
    every column chunk of one Parquet file."""
    import pyarrow.parquet as pq

    md = pq.ParquetFile(path).metadata
    return [
        (c.path_in_schema, c.compression, c.has_dictionary_page, c.is_stats_set)
        for c in (md.row_group(g).column(j) for g in range(md.num_row_groups)
                  for j in range(md.num_columns))
    ]


def test_data_file_format(tmp_table_dir, ray_session, monkeypatch):
    """Every data file is zstd with no dictionary page and footer statistics
    on exactly its table's stats columns, whichever writer made it; change
    and cluster run files carry no footer statistics; an entry's ``bytes``
    are its file's size."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import cluster, merge

    side = {}
    write_side_file = Table.write_side_file

    def spy(self, rows, rel, partition):
        entry = write_side_file(self, rows, rel, partition)
        side[rel] = _chunks(os.path.join(self.dir, rel))  # run files are deleted on commit
        return entry

    monkeypatch.setattr(Table, "write_side_file", spy)
    def check_live(t: Table) -> set[str]:
        ents = t.entries()
        for path, nbytes in zip(ents["path"].to_pylist(), ents["bytes"].to_pylist()):
            full = os.path.join(t.dir, path)
            assert nbytes == os.path.getsize(full)
            chunks = _chunks(full)
            assert {codec for _, codec, _, _ in chunks} == {"ZSTD"}
            assert not any(dict_page for _, _, dict_page, _ in chunks)
            assert [c for c, _, _, stats in chunks if stats] == TRANSCRIPT_STATS_COLS
        return set(ents["path"].to_pylist())

    base = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, base)
    appended = check_live(t)
    cluster.cluster(t, mode="global")  # k >= 2 key ranges: scatter units write run files
    merge.merge(t, synth.merge_source(base))
    assert appended.isdisjoint(check_live(t))  # the rewriters wrote every live file
    kinds = {rel.split(os.sep)[0] for rel in side}
    assert kinds == {manifest.CHANGE_DIR, "_lineage"}, kinds
    for rel, chunks in side.items():
        assert not any(stats for _, _, _, stats in chunks), rel
        assert {codec for _, codec, _, _ in chunks} == {"ZSTD"}


def _medallion_rows() -> dict[str, pa.Table]:
    """One bronze, silver and gold batch of the github audit fixture, made
    in-process: a raw JSON ``data`` column (the variant analog), typed
    extractions, and gold's nested structs and lists of structs."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.meta import BronzeMeta
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.ocsf import GoldTransform
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.functions.variant import SilverExtract

    lines = synth.audit_events("github", 60)
    raw = pa.table({"text": pa.array(lines), "path": pa.array(["f"] * len(lines))})
    bronze = BronzeMeta("github")(raw)
    silver = SilverExtract("github")(bronze)
    return {"bronze": bronze, "silver": silver, "gold": GoldTransform("github", "authentication")(silver)}


def test_read_file_round_trips_the_writer_profile(tmp_path):
    """``read_file`` returns exactly the rows ``write_files`` wrote: nulls in
    stats and non-stats columns, all-null columns, empty strings and
    strings past the manifest's 64-character truncation, the medallion's
    raw JSON and nested columns, and a file written before a schema
    evolution, read through ``align_to``. Each entry's manifest stats are
    those of the rows read back: they do not depend on the encoding."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import align_to, read_file

    long = "é" + "z" * 70
    edge = pa.table(
        {
            "conv_id": ["c1", None, "", long, "c2", long + "a"],
            "turn_idx": pa.array([1, 2, None, 4, 5, 6], pa.int32()),
            "role": [None, "user", "", "assistant", None, long],
            "text": [long * 3, "", None, "short", long, ""],
            "tool": pa.nulls(6, pa.string()),
            "ts": pa.array([0, None, 2, 3, 4, 5], pa.timestamp("us")),
        }
    )
    all_null = pa.table({f.name: pa.nulls(3, f.type) for f in TRANSCRIPT})
    med = _medallion_rows()
    assert med["gold"].num_rows and any(pa.types.is_struct(f.type) for f in med["gold"].schema)
    cases = [
        ("edge", edge, TRANSCRIPT_STATS_COLS),
        ("all_null", all_null, TRANSCRIPT_STATS_COLS),
        ("bronze", med["bronze"], ["_event_time", "_event_date", "_source"]),
        ("silver", med["silver"], []),  # empty: every column has stats
        ("gold", med["gold"], ["time", "_source", "class_uid"]),
    ]
    for name, rows, stats_cols in cases:
        t = Table.create(str(tmp_path / name), rows.schema, partition_spec="none",
                         config=CONF, stats_cols=stats_cols)
        ents = t.write_files(rows, "", t.stats_cols(), "f", 4)
        back = [read_file(os.path.join(t.dir, p)) for p in ents["path"].to_pylist()]
        assert pa.concat_tables(back).equals(rows), name
        fresh = pa.Table.from_pylist(
            [manifest.entry_for("", "", b, 0, t.stats_cols()) for b in back],
            schema=manifest.ENTRY_SCHEMA,
        )
        assert ents["stats"].equals(fresh["stats"]), name

    # a pre-evolution file, read through align_to in the evolved schema
    t = Table.create(str(tmp_path / "evolved"), TRANSCRIPT, partition_spec="none",
                     config=CONF, stats_cols=TRANSCRIPT_STATS_COLS)
    t.commit(added=t.write_files(edge, "", t.stats_cols(), "old", edge.num_rows),
             removed=[], operation="append")
    wide = pa.schema(list(TRANSCRIPT) + [pa.field("score", pa.float64())])
    wave2 = pa.table({**{c: edge[c] for c in TRANSCRIPT.names},
                      "score": pa.array([0.5] * edge.num_rows)}, schema=wide)
    t.commit(added=t.write_files(wave2, "", t.stats_cols(), "new", edge.num_rows),
             removed=[], operation="append", evolve_schema=wide)
    old = t.entries().filter(pc.starts_with(t.entries()["path"], "data/old"))["path"][0].as_py()
    got = align_to(read_file(os.path.join(t.dir, old)), t.schema())
    assert got.equals(edge.append_column("score", pa.nulls(edge.num_rows, pa.float64())))
