"""The benchmark's traced runs wrap engine functions by name
(perfbench/tracer.py ``install``): a renamed or removed target raises in
``install`` and breaks every traced run, so installing must succeed."""

import importlib.util
import os


def test_tracer_installs_on_every_target():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines.medallion import Medallion

    run_bronze = Medallion.run_bronze
    t = tracer.Tracer()
    tracer.install(t)
    try:
        assert t._patches
    finally:
        t.uninstall()
    assert not t._patches and Medallion.run_bronze is run_bronze
