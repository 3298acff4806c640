"""Incremental materialized view (pipelines/incremental.py): the CDC
consumer. Invariants: view == full recompute after every source mutation
(merge / delete / append / maintenance-only), the marker advances
atomically, and a maintenance-only refresh applies nothing."""

import collections

import pyarrow as pa
import pyarrow.compute as pc

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import incremental
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
    compact as compact_mod,
    delete as delete_mod,
    merge as merge_mod,
)
from tests.test_table import CONF, make_table, sorted_scan


def _expected_counts(data: pa.Table) -> dict[str, int]:
    return dict(collections.Counter(data["conv_id"].to_pylist()))


def _view_counts(view) -> dict[str, int]:
    t = view.read_arrow(columns=["conv_id", "n_turns"])
    return dict(zip(t["conv_id"].to_pylist(), t["n_turns"].to_pylist()))


def test_view_build_and_refresh_cycle(tmp_table_dir, ray_session, tmp_path):
    data = synth.transcripts(0.001)
    src = make_table(tmp_table_dir, data)
    view = incremental.create_conv_count_view(src, str(tmp_path / "view"), config=CONF)
    assert _view_counts(view) == _expected_counts(data)
    assert incremental.synced_snapshot(view) == src.current_snapshot_id()

    # source MERGE (updates + deletes + inserts) → refresh applies deltas
    before = sorted_scan(src)
    msrc = synth.merge_source(before)
    merge_mod.merge(src, msrc)
    expected = synth.apply_merge_expected(before, msrc)
    incremental.refresh_conv_count_view(src, view)
    assert _view_counts(view) == _expected_counts(expected)
    assert incremental.synced_snapshot(view) == src.current_snapshot_id()

    # source DELETE → refresh shrinks counts (and drops emptied convs)
    import numpy as np

    ts = np.sort(expected["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False))
    lo, hi = int(ts[len(ts) // 3]), int(ts[len(ts) // 2])
    delete_mod.delete_where(src, "ts", lo, hi)
    t64 = expected["ts"].cast(pa.int64())
    expected = expected.filter(pc.or_(pc.less(t64, lo), pc.greater(t64, hi)))
    incremental.refresh_conv_count_view(src, view)
    assert _view_counts(view) == _expected_counts(expected)

    # no-op + maintenance-only refresh: marker advances, counts unchanged
    sid0 = incremental.refresh_conv_count_view(src, view)
    assert incremental.refresh_conv_count_view(src, view) == sid0
    compact_mod.compact(src)
    incremental.refresh_conv_count_view(src, view)
    assert incremental.synced_snapshot(view) == src.current_snapshot_id()
    assert _view_counts(view) == _expected_counts(expected)

    # append wave → refresh adds counts
    extra = data.slice(0, 500)
    # bump turn_idx so appended rows are NEW keys, keeping the source keyed
    bumped = extra.set_column(
        extra.schema.get_field_index("turn_idx"),
        "turn_idx",
        pc.add(extra["turn_idx"], 10_000).cast(pa.int32()),
    )
    src.write_table(bumped, rows_per_file=200, name_prefix="wave2")
    expected = pa.concat_tables([expected, bumped])
    incremental.refresh_conv_count_view(src, view)
    assert _view_counts(view) == _expected_counts(expected)


def test_refresh_overflow_falls_back_to_distributed_rebuild(
    tmp_table_dir, ray_session, tmp_path, monkeypatch
):
    """Churn above the view's fold budget must NOT fold on the driver: the
    refresh switches to a full distributed rebuild in one atomic commit,
    with the marker landing in the same snapshot."""
    monkeypatch.setattr(incremental, "VIEW_FOLD_MAX_ROWS", 10)  # tiny budget
    conf = CONF
    data = synth.transcripts(0.001)
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS

    src = Table.create(
        tmp_table_dir,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{conf.num_partitions}",
        config=conf,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    src.write_table(data, rows_per_file=300)
    view = incremental.create_conv_count_view(src, str(tmp_path / "view"), config=conf)

    # touch far more than 10 conversations → delta set overflows the budget
    before = sorted_scan(src)
    msrc = synth.merge_source(before)
    merge_mod.merge(src, msrc)
    expected = synth.apply_merge_expected(before, msrc)
    assert len(_expected_counts(expected)) > 10

    sid = incremental.refresh_conv_count_view(src, view)
    ops = {h["snapshot_id"]: h["operation"] for h in view.history()}
    assert ops[sid] == "view-rebuild"
    assert _view_counts(view) == _expected_counts(expected)
    assert incremental.synced_snapshot(view) == src.current_snapshot_id()
