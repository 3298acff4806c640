"""Continuous-operation scenarios: multi-wave incremental ingest through the
whole medallion, and crash atomicity and resume of the key-range cluster
job."""

import glob
import os

import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg, synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.medallion import GOLD_TABLES, Medallion
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import cluster as cluster_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import expire
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import optimize as optimize_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage
from e2e_ocsf_cyber_lakehouse_blueprint_ray.table import Table
from tests.test_table import CONF, make_table, sorted_scan


def test_two_wave_incremental_medallion(tmp_path_factory, ray_session):
    """New JSONL files arriving after the first full run flow through
    bronze→silver→gold incrementally — only the new events are processed,
    totals accumulate, and a maintenance OPTIMIZE pass on a gold table
    changes nothing about its content."""
    root = tmp_path_factory.mktemp("cont")
    fixtures = str(root / "raw")
    synth.write_audit_fixture(fixtures, n_per_source=50, wave="w1", start=0)
    m = Medallion(str(root / "tables"), cfg.test_config())
    m.run_all(fixtures, use_actor_gold=False)
    s1 = m.summary()
    total1 = int(pc.sum(s1["n_events"]).as_py()) if s1.num_rows else 0

    # wave 2 lands: 30 NEW events per source
    synth.write_audit_fixture(fixtures, n_per_source=30, wave="w2", start=1000)
    m.run_bronze(fixtures)
    m.run_silver()
    m.run_gold(use_actor=False)
    for src in ("github", "slack", "atlassian"):
        assert m.table(f"bronze_{src}_audit_logs").read_arrow().num_rows == 80
        assert m.table(f"silver_{src}_audit_logs").read_arrow().num_rows == 80
    s2 = m.summary()
    total2 = int(pc.sum(s2["n_events"]).as_py())
    assert total2 >= total1  # gold accumulated (wave-2 routed events added)

    # a third run with nothing new is a complete no-op
    assert all(v is None for v in m.run_bronze(fixtures).values())
    assert all(v is None for v in m.run_silver().values())
    assert all(v is None for v in m.run_gold(use_actor=False).values())

    # maintenance on a gold table preserves its scan content
    name = next(n for c, n in GOLD_TABLES.items() if m.table(n).read_arrow().num_rows > 0)
    g = m.table(name)
    before = g.read_arrow().sort_by([("time", "ascending"), ("_source", "ascending")])
    optimize_mod.optimize(g)  # key-less gold table: clusters by time alone
    after = g.read_arrow().sort_by([("time", "ascending"), ("_source", "ascending")])
    assert after.num_rows == before.num_rows


def _unit_mtimes(t) -> dict[str, int]:
    """mtime of every unit record of the table's cluster jobs and of every
    file on disk that such a record names."""
    out = {}
    for rec in glob.glob(os.path.join(t.dir, lineage.LINEAGE_DIR, "cluster-*", "*.arrow")):
        _, ents = lineage._read_unit(rec)
        for p in [rec] + [os.path.join(t.dir, q) for q in ents["path"].to_pylist()]:
            if os.path.exists(p):
                out[p] = os.stat(p).st_mtime_ns
    return out


def _runs_left(t) -> list[str]:
    return glob.glob(os.path.join(t.dir, lineage.runs_dir("*")))


def test_global_cluster_crash_is_atomic(tmp_path, ray_session, monkeypatch, in_driver):
    """mode="global" cuts every partition into key ranges. A crash inside
    the scatter or inside a sub-bin leaves the table on its previous
    snapshot; a rerun redoes no finished unit (its lineage record and
    output files keep their mtimes up to its commit, whose
    ``finalize_job`` then deletes the job's dir), commits parent + 1 with
    scan equality and deletes the job's staging runs; remove_orphans
    deletes the runs a crashed job left."""
    real_finalize = lineage.finalize_job
    at_commit = {}

    def finalize(table_dir, job_id, snapshot_id):
        at_commit.update(_unit_mtimes(Table(table_dir)))
        return real_finalize(table_dir, job_id, snapshot_id)

    monkeypatch.setattr(lineage, "finalize_job", finalize)
    data = synth.transcripts(0.001)
    expect = data.take(
        pc.sort_indices(data, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    )
    for where in ("scatter", "sub-bin"):
        t = make_table(str(tmp_path / where), data, rows_per_file=300)
        parent = t.current_snapshot_id()
        # one scatter unit per partition: every partition is under the cap
        n_scatter = len(set(t.entries()["partition"].to_pylist()))
        first = 2 if where == "scatter" else n_scatter + 2
        # crash, then crash again later so the finished units' run files
        # are still on disk to compare
        for crash_after in (first, first + 2 if where == "sub-bin" else n_scatter):
            done = _unit_mtimes(t)
            with pytest.raises(Exception):
                cluster_mod.cluster(t, mode="global", fail_after=crash_after, concurrency=1)
            assert t.current_snapshot_id() == parent  # no partial commit
            now = _unit_mtimes(t)
            assert {p: now.get(p) for p in done} == done
        records = {p: m for p, m in now.items() if p.endswith(".arrow")}
        assert len(records) == crash_after
        at_commit.clear()
        assert cluster_mod.cluster(t, mode="global") == parent + 1
        assert {p: at_commit.get(p) for p in records} == records
        assert sorted_scan(t).equals(expect)
        assert _runs_left(t) == []
        assert _unit_mtimes(t) == {}  # the committed job's dir is gone

    # a crashed job's runs are orphans: remove_orphans deletes them
    with pytest.raises(Exception):
        cluster_mod.cluster(t, mode="global", fail_after=1, concurrency=1)
    assert _runs_left(t)
    removed = expire.remove_orphans(t)
    assert removed and all(p.startswith(lineage.LINEAGE_DIR) for p in removed)
    assert _runs_left(t) == []
    assert sorted_scan(t).equals(expect)
