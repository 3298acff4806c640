import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture()
def tmp_table_dir(tmp_path):
    return str(tmp_path / "tbl")


@pytest.fixture()
def in_driver():
    """Lift ``rewrite.map_units``' cap: every rewrite plan runs in the
    calling process. Its own MonkeyPatch, so a test's ``monkeypatch.undo()``
    keeps it. tests/test_executors.py reruns the tests that take it with
    the cap at 0, on Ray Data."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import rewrite

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rewrite, "DRIVER_MAX_BYTES", sys.maxsize)
        yield
