"""The two executors of ``rewrite.map_units``: the calling process, for a
plan of at most ``DRIVER_MAX_BYTES`` of inputs, and a Ray Data job for a
larger one (medallion flow plans always take the latter). Both run the
same unit function, so every crash-resume test passes on either, a crash
on one resumes on the other, and the cap alone picks the executor. The
driver path leaves the process's Arrow pools as it found them."""

import glob
import os
import sys
import threading
import time

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import synth
from e2e_ocsf_cyber_lakehouse_blueprint_ray.schema import TRANSCRIPT
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import changes as changes_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import compact as compact_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import merge as merge_mod
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import rewrite
from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import lineage, manifest
from tests import test_builder_and_merge_chunked as chunked
from tests import test_changes_delete as dml
from tests import test_continuous as continuous
from tests import test_maintenance as maint
from tests.test_table import make_table, sorted_scan


@pytest.fixture(scope="module")
def base_data():
    return synth.transcripts(0.001)


@pytest.fixture()
def from_items_calls(monkeypatch):
    """The item counts of every ``ray.data.from_items`` call: one per Ray
    Data plan ``map_units`` runs."""
    import ray.data

    calls: list[int] = []
    real = ray.data.from_items

    def counting(items, **kw):
        calls.append(len(items))
        return real(items, **kw)

    monkeypatch.setattr(ray.data, "from_items", counting)
    return calls


#: the crash-resume tests that take ``in_driver``, by name: (table dir,
#: base data, monkeypatch) -> the test run with ``in_driver`` not applied
RESUME_TESTS = {
    "test_compact_resume_after_crash": lambda p, b, mp: maint.test_compact_resume_after_crash(
        str(p / "tbl"), None, b, None
    ),
    "test_cluster_partition_resume": lambda p, b, mp: maint.test_cluster_partition_resume(
        str(p / "tbl"), None, b, None
    ),
    "test_cluster_n_columns_partition_resume": (
        lambda p, b, mp: maint.test_cluster_n_columns_partition_resume(str(p / "tbl"), None, b, None)
    ),
    "test_merge_resume_after_crash": lambda p, b, mp: maint.test_merge_resume_after_crash(
        str(p / "tbl"), None, b, None
    ),
    "test_delete_resume_after_crash": lambda p, b, mp: dml.test_delete_resume_after_crash(
        str(p / "tbl"), None, None
    ),
    "test_merge_with_multi_bin_partitions": (
        lambda p, b, mp: chunked.test_merge_with_multi_bin_partitions(p, None, None)
    ),
    "test_global_cluster_crash_is_atomic": (
        lambda p, b, mp: continuous.test_global_cluster_crash_is_atomic(p, None, mp, None)
    ),
}


@pytest.mark.parametrize("name", list(RESUME_TESTS))
def test_resume_on_ray_data(
    name, tmp_path, ray_session, base_data, monkeypatch, from_items_calls
):
    """Each crash-resume test that runs in the driver under ``in_driver``,
    rerun with the cap at 0: every plan with inputs is a Ray Data job,
    which wraps the unit's exception (hence the tests' ``pytest.raises
    (Exception)``)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "DRIVER_MAX_BYTES", 0)
        RESUME_TESTS[name](tmp_path, base_data, monkeypatch)
    assert from_items_calls


def _rows(t: pa.Table) -> list[tuple]:
    names = TRANSCRIPT.names
    return sorted(tuple(r[c] for c in names) for r in t.select(names).to_pylist())


def test_merge_crashed_on_ray_data_resumes_in_driver(tmp_path, ray_session, base_data):
    """A MERGE that crashes after two units on Ray Data resumes in the
    driver from their lineage records: the scan equals the oracle, and the
    feed adds each upsert and removes each matched row exactly once."""
    src = synth.merge_source(base_data)
    t = make_table(str(tmp_path / "tbl"), base_data, rows_per_file=150)
    pre = t.current_snapshot_id()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "DRIVER_MAX_BYTES", 0)
        with pytest.raises(Exception):
            merge_mod.merge(t, src, fail_after=2, concurrency=1)
    assert t.current_snapshot_id() == pre
    assert len(glob.glob(os.path.join(t.dir, lineage.LINEAGE_DIR, "*", "*.arrow"))) == 2
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "DRIVER_MAX_BYTES", sys.maxsize)
        merge_mod.merge(t, src)
    assert sorted_scan(t).equals(synth.apply_merge_expected(base_data, src))

    feed = changes_mod.snapshot_changes(t, pre, t.current_snapshot_id()).take_all()
    names = TRANSCRIPT.names
    keys = set(zip(src["conv_id"].to_pylist(), src["turn_idx"].to_pylist()))
    hit = [k in keys for k in zip(base_data["conv_id"].to_pylist(), base_data["turn_idx"].to_pylist())]
    for change, want in (
        ("added", src.filter(pc.not_equal(src["op"], "delete"))),
        ("removed", base_data.filter(pa.array(hit))),
    ):
        got = sorted(tuple(r[c] for c in names) for r in feed if r["change"] == change)
        assert got == _rows(want), change


def test_cap_selects_the_executor(tmp_path, ray_session, base_data, monkeypatch, from_items_calls):
    """A compaction whose plan is one byte over the cap is a Ray Data job;
    at the cap it runs in the driver. Both write the same files: the same
    (partition, rows) multiset."""
    files = {}
    for side, over in (("ray_data", 1), ("driver", 0)):
        t = make_table(str(tmp_path / side), base_data, rows_per_file=100)
        bins = compact_mod.plan_compaction(t.entries(), t.config)
        monkeypatch.setattr(rewrite, "DRIVER_MAX_BYTES", sum(b["in_bytes"] for b in bins) - over)
        from_items_calls.clear()
        assert compact_mod.compact(t) is not None
        assert from_items_calls == ([len(bins)] if over else [])
        ents = t.entries()
        files[side] = sorted(zip(ents["partition"].to_pylist(), ents["rows"].to_pylist()))
        assert sorted_scan(t).equals(maint.expected_sorted(base_data))
    assert files["ray_data"] == files["driver"]


def _arrow_pools() -> tuple[int, int]:
    return pa.cpu_count(), pa.io_thread_count()


@pytest.fixture()
def arrow_pools():
    """Odd Arrow pool sizes for the test, the process's own restored after."""
    before = _arrow_pools()
    pa.set_cpu_count(3)
    pa.set_io_thread_count(5)
    yield 3, 5
    pa.set_cpu_count(before[0])
    pa.set_io_thread_count(before[1])


def test_driver_plans_restore_arrow_pools(tmp_path, ray_session, base_data, in_driver, arrow_pools):
    """A plan run in the driver, and one whose unit raises ``FailInjected``
    partway on 2 threads, leave Arrow's CPU and IO pools as they were; the
    driver path raises the unit's own exception."""
    t = make_table(str(tmp_path / "ok"), base_data, rows_per_file=100)
    assert compact_mod.compact(t, concurrency=2) is not None
    assert _arrow_pools() == arrow_pools
    t = make_table(str(tmp_path / "crash"), base_data, rows_per_file=100)
    assert len(compact_mod.plan_compaction(t.entries(), t.config)) > 2
    with pytest.raises(rewrite.FailInjected):
        compact_mod.compact(t, fail_after=1, concurrency=2)
    assert _arrow_pools() == arrow_pools


def test_concurrent_driver_plans_share_the_arrow_pool(arrow_pools):
    """Driver plans on 8 threads at once, with a short switch interval:
    while any runs, Arrow's CPU pool holds at least its 2 unit threads, and
    once the last has ended the process's pool sizes are back."""
    seen: list[int] = []
    errors: list[BaseException] = []

    def fn(batch: pa.Table) -> pa.Table:
        seen.append(pa.cpu_count())
        time.sleep(0.001)
        return manifest.ENTRY_SCHEMA.empty_table()

    def plans():
        try:
            for _ in range(20):
                rewrite.map_units([{"in_bytes": 1}] * 4, fn, 2)
        except BaseException as e:  # reported below, on the test's thread
            errors.append(e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=plans) for _ in range(8)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert errors == []
    assert len(seen) == 8 * 20 * 4 and min(seen) >= 2
    assert _arrow_pools() == arrow_pools
