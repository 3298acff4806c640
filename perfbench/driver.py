"""One benchmark run in a fresh process (started by ``run.py``).

Starts one local Ray session sized to the cores available to the process,
sets the workload up, warms it, runs closed-loop episodes for the window,
and prints the result as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
import threading
import time
from contextlib import contextmanager, nullcontext
from time import perf_counter

import procs

#: names and units of the metrics, in the order BENCHMARK.json lists them
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "rows_per_cpu_s": "rows/s",
    "write_cpu_ms": "ms",
    "read_cpu_ms": "ms",
}
PER_LAYER = {
    "stages.compact.self_s": "s",
    "stages.compact.files_in": "count",
    "stages.compact.files_out": "count",
    "stages.cluster.self_s": "s",
    "stages.cluster.files_out": "count",
    "stages.rewrite.run_bins.self_s": "s",
    "stages.rewrite.run_bins.units": "count",
    "stages.merge.self_s": "s",
    "stages.merge.files_rewritten": "count",
    "stages.merge.write_amp": "rows/row",
    "stages.changes.self_s": "s",
    "stages.changes.files_read": "count",
    "stages.expire.self_s": "s",
    "stages.expire.files_deleted": "count",
    "table.commit.self_s": "s",
    "table.commit.calls": "count",
    "table.commit.conflicts": "count",
    "table.pruned_entries.self_s": "s",
    "table.pruned_entries.files_kept_frac": "ratio",
    "lookup.files_per_hit": "ratio",
    "pipelines.medallion.run_bronze.self_s": "s",
    "pipelines.medallion.run_silver.self_s": "s",
    "pipelines.medallion.run_gold.self_s": "s",
    "pipelines.medallion.summary.self_s": "s",
    "sources.jsonl.ingest_jsonl.self_s": "s",
    "manifest.live_files": "count",
    "manifest.small_file_ratio": "ratio",
    "manifest.snapshots": "count",
    "manifest.log_bytes": "bytes",
    "gold.files_per_sink": "count",
    "ray.worker_cpu_s": "s",
    "driver_cpu_s": "s",
    "trace.overhead_frac": "ratio",
    "trace.accounted_frac": "ratio",
}
SETUP_REPEATS = 3


class RssSampler(threading.Thread):
    """Peak summed RSS of this process and every Ray process of the run,
    and their CPU readings (``ledger``). Ray processes are found by the
    checkout's environment marker, not by parentage: some Ray workers are
    re-parented out of the driver's process tree. Keeps its own CPU time,
    which is the benchmark's and not the engine's."""

    def __init__(self, checkout: str, interval_s: float = 0.1):
        super().__init__(daemon=True)
        self.interval_s, self.peak, self._stop_evt = interval_s, 0, threading.Event()
        self.checkout = checkout
        self.cpu_s = 0.0
        self.ledger = procs.CpuLedger()

    def pids(self) -> list[int]:
        """This process and the run's Ray processes."""
        return [os.getpid()] + procs.marked(self.checkout)

    def sample(self) -> None:
        pids = self.pids()
        self.ledger.update(pids)
        self.peak = max(self.peak, procs.rss_bytes(pids))

    def run(self) -> None:
        while not self._stop_evt.wait(self.interval_s):
            self.sample()
            self.cpu_s = time.thread_time()

    def stop(self) -> None:
        self._stop_evt.set()
        self.join()
        self.sample()


class Recorder:
    """Wall-time and CPU samples, op counts and correctness of one run; with
    a tracer it also switches span recording on inside timed sections and
    gathers the traced-only counts.

    The CPU of a timed step is that of the driver (less the RSS sampler
    thread) plus that of every Ray process, including workers that exited
    during the step, as far as the sampler saw them."""

    def __init__(self, sampler: RssSampler, tracer=None):
        self.sampler, self.tracer = sampler, tracer
        self.samples: dict[str, list[float]] = {}  # wall seconds per step
        self.cpu: dict[str, list[float]] = {}  # CPU seconds per step
        self.attempted = self.failed = 0
        self.work_rows = 0
        self.work_cpu_s = 0.0
        self.timed_s = 0.0
        self.errors: list[str] = []
        self._op_cpu = 0.0
        self._op_failed = False
        self.cpu_ray = self.cpu_driver = 0.0

    def _ray_cpu(self) -> float:
        self.sampler.ledger.update(self.sampler.pids())
        return self.sampler.ledger.seconds(exclude=os.getpid())

    def _driver_cpu(self) -> float:
        return time.process_time() - self.sampler.cpu_s

    @contextmanager
    def op(self):
        self.attempted += 1
        self._op_cpu, self._op_failed = 0.0, False
        yield

    def _settle(self, window_s: float = 0.25, quiet_s: float = 0.02, limit_s: float = 2.0) -> None:
        """Wait until the Ray processes are about idle (at most ``quiet_s``
        CPU in ``window_s``; idle is 3-5 % of a core here), so the tear-down
        of a step's workers is charged to that step and not to the next."""
        deadline = perf_counter() + limit_s
        last = self._ray_cpu()
        while perf_counter() < deadline:
            time.sleep(window_s)
            now = self._ray_cpu()
            if now - last <= quiet_s:
                return
            last = now

    @contextmanager
    def timed(self, kind: str, settle: bool = False, n: int = 1):
        """Time one step, or a block of ``n`` like steps run back to back,
        recorded as one sample of the mean step. Ray processes' CPU is read
        in 10 ms clock ticks, so one window per block, not per step, keeps
        that rounding small for steps of a few ms. ``settle`` marks a step
        that runs Ray jobs: its CPU window stays open until Ray is idle
        again (its wall time does not)."""
        ray0 = self._ray_cpu()
        drv0 = self._driver_cpu()
        if self.tracer:
            self.tracer.enabled = True
        t0 = perf_counter()
        try:
            yield
        finally:
            dt = perf_counter() - t0
            if self.tracer:
                self.tracer.enabled = False
            drv = self._driver_cpu() - drv0
            if settle:
                self._settle()
            ray = self._ray_cpu() - ray0
            self.samples.setdefault(kind, []).append(dt / n)
            self.cpu.setdefault(kind, []).append((drv + ray) / n)
            self.timed_s += dt
            self._op_cpu += drv + ray
            self.cpu_driver += drv
            self.cpu_ray += ray

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def wall(self, kind: str, seconds: list[float]) -> None:
        """Wall times of single steps measured inside a timed block."""
        self.samples.setdefault(kind, []).extend(seconds)

    def last_cpu(self, kind: str) -> float:
        return self.cpu[kind][-1]

    def op_cpu(self) -> float:
        return self._op_cpu

    def work(self, rows: int, cpu_s: float) -> None:
        self.work_rows += rows
        self.work_cpu_s += cpu_s

    def episode_failed(self, exc: Exception, in_op: bool) -> None:
        """An exception ended the episode: fail the op it interrupted, or
        count one failed attempt if it came between ops."""
        if not in_op:
            self.attempted += 1
            self._op_failed = False
        self._fail(f"{type(exc).__name__}: {exc}")

    def _fail(self, msg: str) -> None:
        if not self._op_failed:
            self.failed += 1
            self._op_failed = True
        self.errors.append(msg)

    def check(self, ok: bool, msg: str) -> None:
        if not ok:
            self._fail(msg)

    def changes_files(self, t, before: int, after: int) -> None:
        if self.tracer:
            with self.tracer.overhead():
                a = set(t.entries(before)["path"].to_pylist())
                b = set(t.entries(after)["path"].to_pylist())
                self.tracer.count("stages.changes.files_read", len(a ^ b))

    def lookup_files(self, t, pred: dict, conv: str) -> None:
        if self.tracer:
            from workloads import files_holding

            with self.tracer.overhead():
                read, hits = files_holding(t, pred, conv)
                self.tracer.count("lookup.files_read", read)
                self.tracer.count("lookup.files_hit", hits)


def start_ray(cpus: int, checkout: str):
    import ray

    kw = {}
    # Ray keeps unix sockets in its temp dir; their paths must stay short
    tmp = os.path.join(checkout, ".perfbench", "ray")
    if len(tmp) <= 40:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    ray.init(
        address="local",
        num_cpus=cpus,
        object_store_memory=512 * 1024 * 1024,
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        # Ray's default kills a worker idle for 1 s once more than num_cpus
        # are alive; whether a gap between two Ray Data jobs crosses that
        # second is timing, and each restart costs about 1.3 s of CPU. Kept
        # for the run, the workers a step needs no longer depend on timing.
        _system_config={"idle_worker_killing_time_threshold_ms": 60_000},
        **kw,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    return ray


def p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def mean_ms(values: list[float]) -> float:
    """Mean, not median, for CPU: Ray processes' CPU is counted in 10 ms
    clock ticks, so a short step's sample holds zero, one or two ticks of
    their background work; the mean averages that out, a median does not."""
    return statistics.fmean(values) * 1000.0 if values else 0.0


def layer_metrics(tracer, rec: Recorder, ops: int, gauges: dict) -> dict[str, float]:
    selfs = tracer.self_times()
    c = tracer.counts
    out: dict[str, float] = {}
    per_call = {
        "stages.compact": ["files_in", "files_out"],
        "stages.cluster": ["files_out"],
        "stages.rewrite.run_bins": ["units"],
        "stages.merge": ["files_rewritten"],
        "stages.changes": ["files_read"],
        "stages.expire": ["files_deleted"],
        "table.commit": [],
        "table.pruned_entries": [],
        "pipelines.medallion.run_bronze": [],
        "pipelines.medallion.run_silver": [],
        "pipelines.medallion.run_gold": [],
        "pipelines.medallion.summary": [],
        "sources.jsonl.ingest_jsonl": [],
    }
    for layer, counts in per_call.items():
        total, calls = selfs.get(layer, (0.0, 0))
        out[f"{layer}.self_s"] = total / calls if calls else 0.0
        for k in counts:
            out[f"{layer}.{k}"] = c[f"{layer}.{k}"] / calls if calls else 0.0
    src = c["stages.merge.source_rows"]
    out["stages.merge.write_amp"] = c["stages.merge.rows_written"] / src if src else 0.0
    out["table.commit.calls"] = c["table.commit.calls"] / ops
    out["table.commit.conflicts"] = c["table.commit.conflicts"] / ops
    total = c["table.pruned_entries.files_total"]
    out["table.pruned_entries.files_kept_frac"] = (
        c["table.pruned_entries.files_kept"] / total if total else 0.0
    )
    hits = c["lookup.files_hit"]
    out["lookup.files_per_hit"] = c["lookup.files_read"] / hits if hits else 0.0
    out.update(gauges)
    out["ray.worker_cpu_s"] = rec.cpu_ray / ops
    out["driver_cpu_s"] = rec.cpu_driver / ops
    out["trace.overhead_frac"] = tracer.overhead_s / rec.timed_s
    out["trace.accounted_frac"] = tracer.root_seconds() / rec.timed_s
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", default="default")
    ap.add_argument("--checkout", required=True)
    args = ap.parse_args()

    import pyarrow as pa

    import tracer as tracer_mod
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    size = workloads.SIZES[args.scale]
    work = os.path.join(args.checkout, ".perfbench", "work")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cpus = procs.cores_available()
    steal0 = procs.cpu_ticks()

    # the benchmark's own inputs: generated before anything is timed
    conf = workloads.engine_config(cpus)
    w = cls(work, conf, args.seed, size)
    t0 = perf_counter()
    w.generate()
    generate_s = perf_counter() - t0

    # set-up is measured as CPU time, like the operations: its wall time
    # swings with host steal (Ray start alone took 2.3-4.1 s over ten runs)
    rss = RssSampler(args.checkout)
    rss.start()
    setup = Recorder(rss)
    with setup.timed("ray_start", settle=True):
        ray = start_ray(cpus, args.checkout)
    build_dir = os.path.join(work, "base")
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(build_dir, ignore_errors=True)
        with setup.timed("build", settle=True):
            w.build(build_dir)
    setup_s = setup.cpu["ray_start"][0] + statistics.median(setup.cpu["build"])
    t0 = perf_counter()
    warm = Recorder(rss)
    w.warm(warm)
    if warm.failed:
        raise RuntimeError(f"warm-up failed: {warm.errors}")
    warm_s = perf_counter() - t0

    tracer = None
    if args.trace:
        tracer = tracer_mod.Tracer()
        tracer_mod.install(tracer)
    rec = Recorder(rss, tracer)
    t_window = perf_counter()
    while perf_counter() - t_window < args.seconds:
        attempted = rec.attempted
        try:
            w.episode(rec)
        except Exception as exc:  # a failed op is recorded; the window goes on
            rec.episode_failed(exc, in_op=rec.attempted > attempted)
    window_s = perf_counter() - t_window
    if tracer:
        tracer.uninstall()
    rss.stop()
    gauges = workloads.table_gauges(w.tables)
    if args.workload == "medallion":
        gauges["gold.files_per_sink"] = gauges["manifest.live_files"] / max(1, len(w.tables))
    else:
        gauges["gold.files_per_sink"] = 0.0
    ray.shutdown()
    steal1 = procs.cpu_ticks()

    ops = rec.attempted
    if args.trace:
        metrics = layer_metrics(tracer, rec, ops, gauges)
        units = PER_LAYER
    else:
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss.peak / 2**20,
            "rows_per_cpu_s": rec.work_rows / rec.work_cpu_s if rec.work_cpu_s else 0.0,
            "write_cpu_ms": mean_ms(rec.cpu.get("write", [])),
            "read_cpu_ms": mean_ms(rec.cpu.get("read", [])),
        }
        units = END_TO_END
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "scale": args.scale,
        "ray_cpus": cpus,
        "host": procs.host_facts(),
        "steal_frac": (steal1[0] - steal0[0]) / max(1, steal1[1] - steal0[1]),
        "ray_version": ray.__version__,
        "pyarrow_version": pa.__version__,
        "generate_s": generate_s,
        "ray_start_s": setup.samples["ray_start"][0],
        "ray_start_cpu_s": setup.cpu["ray_start"][0],
        "build_s": setup.samples["build"],
        "build_cpu_s": setup.cpu["build"],
        "warm_s": warm_s,
        "window_s": window_s,
        "samples": {k: len(v) for k, v in rec.samples.items()},
        "p50_ms": {k: p50_ms(v) for k, v in rec.samples.items()},
        "cpu_p50_ms": {k: p50_ms(v) for k, v in rec.cpu.items()},
        "cpu_mean_ms": {k: mean_ms(v) for k, v in rec.cpu.items()},
        "p90_ms": {
            k: statistics.quantiles(v, n=10)[-1] * 1000.0
            for k, v in rec.samples.items()
            if len(v) >= 10
        },
        "processes": rss.ledger.processes(),
        "cpu_driver_s": rec.cpu_driver,
        "cpu_ray_s": rec.cpu_ray,
        "errors": rec.errors[:10],
    }
    print(json.dumps({"detail": detail}))
    with open(os.path.join(work, "samples.json"), "w") as f:
        json.dump(rec.samples, f)
    result = {
        "correct": rec.failed == 0,
        "attempted": ops,
        "failed": rec.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
