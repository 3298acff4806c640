"""Metastore actor — the one stateful Ray component.

Serializes snapshot commits for a table when multiple writers append
concurrently (the reference leans on Delta optimistic concurrency plus
pre-created minimal schemas to avoid first-write metadata races:
/root/reference/utilities/pre_setup_ocsf_tables.py:79-82,103-107; six gold
sinks each receive 2-3 concurrent append flows,
gold_ocsf_iam_event_classes_delta_sinks.py:117-179,184-305).

Single-writer jobs can commit directly through the file-based optimistic
protocol in ``manifest.py``; the actor is the multi-writer path. It holds no
data — only the table dir — so it is cheap (num_cpus=0) and restartable.
"""

from __future__ import annotations

import hashlib

import ray


@ray.remote(num_cpus=0, max_restarts=2)
class Metastore:
    """One named actor per table dir; ``commit`` calls are serialized by the
    actor's single-threaded event loop."""

    def __init__(self, table_dir: str):
        self.table_dir = table_dir

    def commit(
        self,
        *,
        added: dict,
        removed: list[str],
        operation: str,
        expected_parent: int | None = None,
        evolve_schema_ser: bytes | None = None,
        extra: dict | None = None,
        new_partition_spec: str | None = None,
        changes: list[list] | None = None,
    ) -> int:
        import pyarrow as pa

        from ..table import Table

        t = Table(self.table_dir)
        entries = pa.Table.from_pydict(added) if added else None
        evolve = (
            pa.ipc.read_schema(pa.BufferReader(evolve_schema_ser))
            if evolve_schema_ser
            else None
        )
        return t._commit_local(
            added=entries,
            removed=removed,
            operation=operation,
            expected_parent=expected_parent,
            evolve_schema=evolve,
            extra=extra,
            new_partition_spec=new_partition_spec,
            changes=changes,
        )

    def current(self) -> int | None:
        from . import manifest

        return manifest.current_id(self.table_dir)


def actor_name(table_dir: str) -> str:
    return "metastore-" + hashlib.blake2b(table_dir.encode(), digest_size=8).hexdigest()


def get_or_create(table_dir: str):
    return Metastore.options(
        name=actor_name(table_dir),
        namespace="lakeray",
        get_if_exists=True,
        lifetime="detached",
    ).remote(table_dir)


def shutdown(table_dir: str) -> bool:
    """Kill the table's metastore actor if it exists (detached actors
    otherwise live until ray.shutdown — call this when a table is dropped)."""
    try:
        actor = ray.get_actor(actor_name(table_dir), namespace="lakeray")
    except ValueError:
        return False
    ray.kill(actor)
    return True
