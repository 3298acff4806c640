"""Append + maintenance interleaving: a compaction planned against snapshot
S must commit cleanly even when an append lands between its plan and its
commit — and the appended rows must survive (the reference leans on Delta
optimistic concurrency for this, pre_setup_ocsf_tables.py:79-82)."""

import pyarrow.compute as pc

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import compact, optimize, rewrite
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage
from tests.test_table import CONF, make_table, sorted_scan


def test_append_between_plan_and_commit_survives(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data, rows_per_file=300)
    parent = t.current_snapshot_id()

    # plan compaction against snapshot 1
    bins = compact.plan_compaction(t.entries(), t.config)
    assert bins
    job_id = lineage.job_id_for("compact", parent)
    added = rewrite.run_bins(
        t,
        bins,
        job_id,
        schema=t.schema(parent),
        stats_cols=t.stats_cols(parent),
        sort_key=["conv_id", "turn_idx"],
    )

    # a concurrent append commits snapshot 2 while compaction is in flight
    extra = data.slice(0, 123)
    t.write_table(extra, rows_per_file=100, operation="late-append", name_prefix="late")
    assert t.current_snapshot_id() == parent + 1

    # compaction's commit rebases: its removed files are still live
    import json

    removed = [p for b in bins for p in json.loads(b["inputs_json"])]
    sid = t.commit(
        added=added,
        removed=removed,
        operation="compact",
        expected_parent=parent,
        job_id=job_id,
    )
    assert sid == parent + 2
    # every row — original AND late-appended — survives exactly once
    got = t.read_arrow()
    assert got.num_rows == data.num_rows + extra.num_rows


def test_optimize_sequence(tmp_table_dir, ray_session):
    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data, rows_per_file=300)
    pre = t.current_snapshot_id()
    out = optimize.optimize(t)
    # one rewrite: a single cluster commit, no compaction pass before it
    ops = [h["operation"] for h in t.history() if h["snapshot_id"] > pre]
    assert ops == ["cluster-zorder"] and out["cluster"] == t.current_snapshot_id()
    expect = data.take(
        pc.sort_indices(data, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    assert sorted_scan(t).equals(expect)
    out = optimize.optimize(t, expire_keep_last=1)
    assert out["expire"] == [t.current_snapshot_id()]
    assert sorted_scan(t).equals(expect)


def test_append_during_delete_survives(tmp_table_dir, ray_session, monkeypatch):
    """DELETE WHERE planned against snapshot S + an append landing before
    its commit: the delete applies to S only (snapshot isolation), so the
    late rows survive even when they fall inside the deleted range."""
    import numpy as np
    import pyarrow as pa

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import delete as delete_mod

    data = synth.transcripts(0.001)
    t = make_table(tmp_table_dir, data, rows_per_file=300)
    ts = np.sort(data["ts"].cast(pa.int64()).to_numpy(zero_copy_only=False))
    lo, hi = int(ts[len(ts) // 3]), int(ts[len(ts) * 2 // 3])
    extra = data.slice(0, 200)
    extra = extra.set_column(
        extra.schema.get_field_index("turn_idx"),
        "turn_idx",
        pc.add(extra["turn_idx"], 50_000).cast(pa.int32()),
    )

    orig = rewrite.run_bins
    fired = {"done": False}

    def hooked(*a, **k):
        out = orig(*a, **k)
        if not fired["done"]:
            fired["done"] = True
            t.write_table(extra, rows_per_file=100, operation="late-append", name_prefix="late")
        return out

    monkeypatch.setattr(delete_mod.rewrite, "run_bins", hooked)
    delete_mod.delete_where(t, "ts", lo, hi)

    t64 = data["ts"].cast(pa.int64())
    kept = data.filter(pc.or_(pc.less(t64, lo), pc.greater(t64, hi)))
    got = t.read_arrow()
    assert got.num_rows == kept.num_rows + extra.num_rows
