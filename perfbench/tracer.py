"""Outside-in span tracer for the traced (``--trace 1``) run.

Spans are recorded by wrapping public functions of the engine's modules from
the outside (``install``); the engine itself is not changed. A span's parent
is the innermost open span of the same thread, or, for a span opened in a
helper thread (the medallion runs its flows in driver threads), the
innermost open span of the main thread. Self time is a span's duration minus
the part of it that its child spans cover.

Spans are kept only while ``enabled`` is set, which the driver does around
each timed section, so untimed set-up and correctness checks never count.
"""

from __future__ import annotations

import functools
import threading
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []  # [name, start, end, parent index | None]
        self.counts: dict[str, float] = defaultdict(float)
        #: seconds spent in tracing bookkeeping and traced-only counting
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        t0 = perf_counter()
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main and stack is not main else None
        rec = [name, 0.0, 0.0, parent]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        stack.append(idx)
        rec[1] = t1 = perf_counter()
        try:
            yield
        finally:
            rec[2] = t2 = perf_counter()
            stack.pop()
            self.add_overhead(t1 - t0 + perf_counter() - t2)

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def add_overhead(self, seconds: float) -> None:
        with self._lock:
            self.overhead_s += seconds

    @contextmanager
    def overhead(self):
        """Time traced-only work (counting, extra reads) as overhead."""
        t0 = perf_counter()
        try:
            yield
        finally:
            self.add_overhead(perf_counter() - t0)

    def patch(self, owner, attr: str, name: str | None, before=None, after=None) -> None:
        """Replace ``owner.attr`` with a wrapper that opens span ``name``
        (None: count only). ``before(args, kwargs)`` returns a state that
        ``after(state, args, kwargs, result_or_exception)`` turns into
        counts; both run as overhead."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return orig(*args, **kwargs)
            state = None
            if before is not None:
                with tracer.overhead():
                    state = before(args, kwargs)
            result: object = None
            try:
                if name is None:
                    result = orig(*args, **kwargs)
                else:
                    with tracer.span(name):
                        result = orig(*args, **kwargs)
                return result
            except Exception as exc:
                result = exc
                raise
            finally:
                if after is not None:
                    with tracer.overhead():
                        after(state, args, kwargs, result)

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """{span name: (summed self seconds, calls)}."""
        children: dict[int, list[int]] = defaultdict(list)
        for i, (_, _, _, parent) in enumerate(self.spans):
            if parent is not None:
                children[parent].append(i)
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for i, (name, start, end, _) in enumerate(self.spans):
            ivs = [
                (max(start, self.spans[c][1]), min(end, self.spans[c][2]))
                for c in children.get(i, ())
            ]
            out[name][0] += (end - start) - union_length(ivs)
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def root_seconds(self) -> float:
        """Wall time covered by spans that have no parent."""
        return union_length([(s, e) for _, s, e, p in self.spans if p is None])


def union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_s, cur_e = 0.0, None, None
    for s, e in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def _paths(table) -> set[str]:
    return set(table.entries()["path"].to_pylist())


def install(tracer: Tracer) -> None:
    """Wrap the engine's layer boundaries named in the benchmark's
    per-layer metrics."""
    from e2e_ocsf_cyber_lakehouse_blueprint_ray import table as table_mod
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import medallion
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.sources import jsonl
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import (
        cluster,
        compact,
        expire,
        merge,
        rewrite,
    )
    from e2e_ocsf_cyber_lakehouse_blueprint_ray.state import manifest

    def files_before(args, kwargs):
        return _paths(args[0])

    def files_diff(prefix, out_name, in_name=None):
        def after(before, args, kwargs, result):
            if isinstance(result, Exception):
                return
            now = _paths(args[0])
            tracer.count(f"{prefix}.{out_name}", len(now - before))
            if in_name:
                tracer.count(f"{prefix}.{in_name}", len(before - now))

        return after

    tracer.patch(
        compact, "compact", "stages.compact",
        before=files_before, after=files_diff("stages.compact", "files_out", "files_in"),
    )
    tracer.patch(
        cluster, "cluster", "stages.cluster",
        before=files_before, after=files_diff("stages.cluster", "files_out"),
    )

    def bins_after(state, args, kwargs, result):
        tracer.count("stages.rewrite.run_bins.units", len(args[1]))

    tracer.patch(rewrite, "run_bins", "stages.rewrite.run_bins", after=bins_after)

    def merge_after(before, args, kwargs, result):
        if isinstance(result, Exception):
            return
        ents = args[0].entries()
        paths, rows = ents["path"].to_pylist(), ents["rows"].to_pylist()
        tracer.count("stages.merge.files_rewritten", len(before - set(paths)))
        tracer.count(
            "stages.merge.rows_written", sum(r for p, r in zip(paths, rows) if p not in before)
        )
        tracer.count("stages.merge.source_rows", args[1].num_rows)

    tracer.patch(merge, "merge", "stages.merge", before=files_before, after=merge_after)

    def expire_after(state, args, kwargs, result):
        if not isinstance(result, Exception):
            tracer.count("stages.expire.files_deleted", len(result["deleted_files"]))

    tracer.patch(expire, "expire_snapshots", "stages.expire", after=expire_after)

    def commit_after(state, args, kwargs, result):
        tracer.count("table.commit.calls")

    tracer.patch(table_mod.Table, "commit", "table.commit", after=commit_after)

    # contention: commits other writers landed on the same table while an
    # append was in flight (its snapshot id minus its parent's, minus one);
    # retries inside a metastore actor are not visible from the driver
    def append_before(args, kwargs):
        return args[0].current_snapshot_id()

    def append_after(parent, args, kwargs, result):
        if isinstance(result, int):
            tracer.count("table.commit.conflicts", result - parent - 1)

    tracer.patch(
        table_mod.Table, "append_dataset", None, before=append_before, after=append_after
    )
    tracer.patch(table_mod.Table, "pruned_entries", "table.pruned_entries")

    def prune_after(state, args, kwargs, result):
        if not isinstance(result, Exception):
            tracer.count("table.pruned_entries.files_total", args[0].num_rows)
            tracer.count("table.pruned_entries.files_kept", result.num_rows)

    tracer.patch(manifest, "prune", None, after=prune_after)

    for fn in ("run_bronze", "run_silver", "run_gold", "summary"):
        tracer.patch(medallion.Medallion, fn, f"pipelines.medallion.{fn}")
    # the medallion module binds ingest_jsonl by name at import
    tracer.patch(jsonl, "ingest_jsonl", "sources.jsonl.ingest_jsonl")
    tracer.patch(medallion, "ingest_jsonl", "sources.jsonl.ingest_jsonl")

