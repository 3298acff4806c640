"""Deterministic transcript table derived from the ``events`` testdata table.

The maintenance ops are verified two ways: pytest uses the synthetic
FIXTURES.md transcripts; the driver's DuckDB-oracle gate needs the input to
be derivable from a pre-registered view — so this module maps ``events`` →
transcripts with a transformation expressed IDENTICALLY in Ray (below) and
ANSI SQL (``TRANSCRIPT_CTE``): after any maintenance sequence the ordered
scan must equal the CTE's output row-for-row.

Mapping: conv = user, turn order = event_id within user, role/tool from
event_type, text concatenates type/id/props (no floats → byte-stable).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from ..config import EngineConfig
from ..schema import TRANSCRIPT, TRANSCRIPT_STATS_COLS
from ..table import Table

ROLE_CASES = {"signup": "system", "error": "tool", "purchase": "assistant"}

#: shared SQL prefix for every maintenance oracle (DuckDB; ``events`` is a
#: pre-registered view). MUST stay in lockstep with ``transcripts_from_events``.
TRANSCRIPT_CTE = """
WITH t AS (
  SELECT
    'conv-' || lpad(CAST(user_id AS VARCHAR), 8, '0') AS conv_id,
    CAST(row_number() OVER (PARTITION BY user_id ORDER BY event_id) - 1 AS INTEGER) AS turn_idx,
    CASE event_type
      WHEN 'signup' THEN 'system'
      WHEN 'error' THEN 'tool'
      WHEN 'purchase' THEN 'assistant'
      ELSE 'user' END AS role,
    event_type || '#' || CAST(event_id AS VARCHAR) || ':' || props AS text,
    CASE WHEN event_type = 'error' THEN 'python' ELSE '' END AS tool,
    ts
  FROM events
)
"""

MERGE_CTE = TRANSCRIPT_CTE + """
, upd AS (
  SELECT conv_id, turn_idx, role, 'edited:' || text AS text, tool, ts
  FROM t WHERE turn_idx % 7 = 3
), del AS (
  SELECT conv_id, turn_idx FROM t WHERE turn_idx % 11 = 5 AND turn_idx % 7 <> 3
), ins AS (
  SELECT conv_id, CAST(max(turn_idx) + 1 AS INTEGER) AS turn_idx, 'user' AS role,
         'inserted:' || conv_id AS text, '' AS tool, max(ts) + INTERVAL 37 SECOND AS ts
  FROM t GROUP BY conv_id
), merged AS (
  SELECT * FROM t
  WHERE NOT EXISTS (SELECT 1 FROM upd u WHERE u.conv_id = t.conv_id AND u.turn_idx = t.turn_idx)
    AND NOT EXISTS (SELECT 1 FROM del d WHERE d.conv_id = t.conv_id AND d.turn_idx = t.turn_idx)
  UNION ALL SELECT * FROM upd
  UNION ALL SELECT * FROM ins
)
"""


def transcripts_from_events(sf_dir: str):
    """events parquet → transcript Dataset (lazy; one groupby shuffle for
    the per-conversation turn numbering).

    Skew note: the group key is ``user_id`` and turn numbering (rank of
    event_id within the conversation) requires the whole group — it cannot
    be salted without a second prefix-offset pass. That is safe HERE because
    the events table bounds per-user cardinality (uniform user assignment,
    ≤ a few hundred events/user at any sf); the transcript-table operators
    downstream, where hot conv_ids are unbounded by design, all go through
    ``stages.repartition.salted_map_shards`` / salted partitioning instead.
    """
    import pyarrow.parquet as pq
    import ray.data as rd

    cols = ["event_id", "user_id", "event_type", "ts", "props"]
    # strip schema- AND field-level parquet metadata (pandas writes dicts
    # there, making pa.Schema unhashable — defeats Ray's block-schema dedup
    # and logs "Failed to hash the schemas" on every downstream stage)
    raw = pq.read_schema(f"{sf_dir}/events.parquet").remove_metadata()
    schema = pa.schema([raw.field(c).remove_metadata() for c in cols])
    ds = rd.read_parquet(f"{sf_dir}/events.parquet", columns=cols, schema=schema)

    def number_turns(g: pa.Table) -> pa.Table:
        idx = pc.sort_indices(g, sort_keys=[("event_id", "ascending")])
        g = g.take(idx)
        et = g["event_type"]
        role = np.array(["user"] * g.num_rows, dtype=object)
        for k, v in ROLE_CASES.items():
            role[pc.equal(et, k).to_numpy(zero_copy_only=False)] = v
        uid = g["user_id"].to_pylist()[0]
        conv = f"conv-{uid:08d}"
        eid_s = pc.cast(g["event_id"], pa.string())
        text = pc.binary_join_element_wise(
            pc.cast(et, pa.string()), "#", eid_s, "", null_handling="emit_null"
        )
        text = pc.binary_join_element_wise(text, ":", pc.cast(g["props"], pa.string()), "")
        tool = np.where(pc.equal(et, "error").to_numpy(zero_copy_only=False), "python", "")
        return pa.table(
            {
                "conv_id": pa.array([conv] * g.num_rows, pa.string()),
                "turn_idx": pa.array(np.arange(g.num_rows, dtype=np.int32)),
                "role": pa.array(role, pa.string()),
                "text": text,
                "tool": pa.array(tool, pa.string()),
                "ts": g["ts"],
            },
            schema=TRANSCRIPT,
        )

    return ds.groupby("user_id").map_groups(number_turns, batch_format="pyarrow")


def render_conversations(ds):
    """Transcript turns → ONE training document per conversation
    (``role: text`` lines joined by newlines in turn order) — the core
    transcripts→training-data conversion.

    Skew-proof shape (same recipe as sessionize/exact-dedup): global
    ``sort(conv_id, turn_idx)`` — the range shuffle balances blocks by ROWS
    so a hot conversation spans several blocks instead of pinning one
    reducer — then one VECTORIZED pass per sorted block joins each
    contiguous conv run into a fragment (Arrow ListArray + binary_join, no
    per-row Python), then a ``groupby(conv_id)`` merge over FRAGMENTS whose
    per-conv cardinality is bounded by the number of blocks the conv spans,
    not its turn count."""
    sorted_ds = ds.sort(["conv_id", "turn_idx"])

    def block_fragments(b: pa.Table) -> pa.Table:
        empty = pa.table(
            {
                "conv_id": pa.array([], pa.string()),
                "first_turn": pa.array([], pa.int32()),
                "n": pa.array([], pa.int64()),
                "frag": pa.array([], pa.string()),
            }
        )
        if b.num_rows == 0:
            return empty
        lines = pc.binary_join_element_wise(
            b["role"].combine_chunks(), b["text"].combine_chunks(), ": "
        )
        conv = b["conv_id"].to_numpy(zero_copy_only=False)
        starts = np.flatnonzero(np.r_[True, conv[1:] != conv[:-1]])
        offsets = np.r_[starts, len(conv)].astype(np.int32)
        runs = pa.ListArray.from_arrays(pa.array(offsets, pa.int32()), lines)
        frags = pc.binary_join(runs, "\n")
        return pa.table(
            {
                "conv_id": pa.array(conv[starts], pa.string()),
                "first_turn": b["turn_idx"].take(pa.array(starts)),
                "n": pa.array(np.diff(np.r_[starts, len(conv)]), pa.int64()),
                "frag": frags,
            }
        )

    frags = sorted_ds.map_batches(block_fragments, batch_format="pyarrow", batch_size=None)

    def merge_conv(g: pa.Table) -> pa.Table:
        g = g.take(pc.sort_indices(g, sort_keys=[("first_turn", "ascending")]))
        runs = pa.ListArray.from_arrays(
            pa.array([0, g.num_rows], pa.int32()), g["frag"].combine_chunks()
        )
        return pa.table(
            {
                "conv_id": g["conv_id"].slice(0, 1),
                "rendered": pc.binary_join(runs, "\n"),
                "n_turns": pa.array([int(pc.sum(g["n"]).as_py())], pa.int64()),
            }
        )

    return frags.groupby("conv_id").map_groups(merge_conv, batch_format="pyarrow")


def derived_merge_source(base: pa.Table) -> pa.Table:
    """Deterministic merge source matching MERGE_CTE (upd/del/ins rules)."""
    turn = base["turn_idx"].to_numpy(zero_copy_only=False)
    upd_mask = turn % 7 == 3
    del_mask = (turn % 11 == 5) & ~upd_mask

    upd = base.filter(pa.array(upd_mask))
    upd = upd.set_column(
        upd.schema.get_field_index("text"),
        "text",
        pc.binary_join_element_wise(
            pa.array(["edited:"] * upd.num_rows), upd["text"].combine_chunks(), ""
        ),
    )
    upd = upd.append_column("op", pa.array(["update"] * upd.num_rows))

    dele = base.filter(pa.array(del_mask))
    dele = dele.append_column("op", pa.array(["delete"] * dele.num_rows))

    agg = base.group_by("conv_id").aggregate([("turn_idx", "max"), ("ts", "max")])
    ins = pa.table(
        {
            "conv_id": agg["conv_id"],
            "turn_idx": pc.cast(pc.add(agg["turn_idx_max"], 1), pa.int32()),
            "role": pa.array(["user"] * agg.num_rows),
            "text": pc.binary_join_element_wise(
                pa.array(["inserted:"] * agg.num_rows), agg["conv_id"].combine_chunks(), ""
            ),
            "tool": pa.array([""] * agg.num_rows),
            "ts": pc.add(agg["ts_max"].cast(pa.int64()), 37_000_000).cast(pa.timestamp("us")),
            "op": pa.array(["insert"] * agg.num_rows),
        }
    )
    cols = ["conv_id", "turn_idx", "role", "text", "tool", "ts", "op"]
    return pa.concat_tables([upd.select(cols), dele.select(cols), ins.select(cols)]).combine_chunks()


def build_maintenance_table(
    sf_dir: str, work_dir: str, config: EngineConfig, *, rows_per_file: int = 500
) -> Table:
    """Materialize the derived transcripts as a fresh snapshot-log table with
    MANY SMALL FILES (so compaction has real work). Streams through
    ``append_dataset``'s stateless writer tasks — the transcript rows never
    materialize on the driver; only manifest entries come back. Each write
    batch of ``rows_per_file × P`` rows yields ~one small file per touched
    partition dir."""
    import dataclasses

    ds = transcripts_from_events(sf_dir)
    t = Table.create(
        work_dir,
        TRANSCRIPT,
        partition_spec=f"hash:conv_id:{config.num_partitions}",
        config=config,
        stats_cols=TRANSCRIPT_STATS_COLS,
    )
    write_conf = dataclasses.replace(config, batch_size=rows_per_file * config.num_partitions)
    Table(work_dir, write_conf).append_dataset(ds, operation="ingest")
    return t


def sorted_scan_arrow(t: Table, snapshot_id=None) -> pa.Table:
    out = t.read_arrow(snapshot_id=snapshot_id)
    idx = pc.sort_indices(out, sort_keys=[("conv_id", "ascending"), ("turn_idx", "ascending")])
    return out.take(idx)
