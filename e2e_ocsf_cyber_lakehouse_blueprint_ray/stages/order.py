"""Distributed ordering primitives: bucketed global offsets → deterministic
shuffle rank and sequence packing; the one sorted pass (``fold_sorted``)
and the per-key ordered windows built on it.

Training-data prep needs GLOBAL positions (a reproducible shuffle order, the
token offset where each document lands in a packed sequence stream) — i.e. a
distributed prefix sum. Ray Data has no scan/prefix operator, so both ops
here use the same two-pass shape that holds at 100 TB:

1. every row gets an integer ``_bucket`` whose ascending order is a PREFIX
   of the target global order (md5-key high byte for shuffle; doc_id range
   for packing);
2. pass 1: ``groupby(_bucket)`` count/sum — the shuffle moves ONE row per
   bucket (bucket-cardinality, not corpus-cardinality); the driver turns
   that into exclusive per-bucket offsets (a dict of a few thousand ints);
3. pass 2: ``groupby(_bucket).map_groups`` — each bucket sorts its own rows
   and adds ``bucket_offset + local_prefix``.

Bucket cardinality is the scale knob: buckets must (a) be many × cluster
cores for parallelism and (b) each fit in a task (≈ corpus/buckets rows).
2⁸ md5 buckets / 64-doc ranges suit the test fixtures; a 10¹²-row corpus
uses 2–3 key bytes / larger ranges — same code, different constant.

Per-key ordered work (rolling SUM, LAG, LEAD here; exact dedup,
``distinct_pairs`` and the change feed's distributed netting elsewhere) uses
the other shape, :func:`fold_sorted`: one global range sort, one vectorized
kernel per sorted block, and a driver fix-up of the O(blocks) rows at block
edges by the same kernel — a hot key spans blocks instead of pinning one
reducer.

No reference analog (the reference has no ordering ops); this is graft
machinery for the LLM-data pipeline axis.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc


def exclusive_bucket_offsets(
    ds, bucket_col: str, weight_col: str | None = None
) -> tuple[dict[int, int], int]:
    """Exclusive prefix offset per bucket (ascending bucket order).

    ``weight_col=None`` counts rows; otherwise sums the weight. A per-batch
    COMBINER pre-aggregates before the groupby, so the shuffle moves at most
    buckets × blocks partial rows — never the corpus — and only the final
    per-bucket sums reach the driver. Returns (offsets, grand_total).
    """

    def partial(b: pa.Table) -> pa.Table:
        w = (
            pa.array(np.ones(b.num_rows, np.int64))
            if weight_col is None
            else pc.cast(b[weight_col], pa.int64())
        )
        g = pa.table({bucket_col: b[bucket_col], "_w": w}).group_by(
            bucket_col
        ).aggregate([("_w", "sum")])
        return pa.table({bucket_col: g[bucket_col], "_w": g["_w_sum"]})

    agg = ds.map_batches(partial, batch_format="pyarrow").groupby(bucket_col).sum("_w")
    vcol = "sum(_w)"
    rows = agg.take_all()  # bucket-cardinality rows, by construction small
    rows.sort(key=lambda r: r[bucket_col])
    offsets: dict[int, int] = {}
    acc = 0
    for r in rows:
        offsets[r[bucket_col]] = acc
        acc += int(r[vcol])
    return offsets, acc


# -- deterministic global shuffle -------------------------------------------

def _shuffle_keys(ids: list, salt: str) -> list[str]:
    return [hashlib.md5(f"{i}|{salt}".encode()).hexdigest() for i in ids]


def add_shuffle_key(batch: pa.Table, *, id_col: str = "doc_id", salt: str = "") -> pa.Table:
    """md5 content key + high-byte bucket. Oracle mirror:
    ``md5(CAST(id AS VARCHAR) || '|<salt>')``."""
    keys = _shuffle_keys(batch[id_col].to_pylist(), salt)
    buckets = pa.array([int(k[:2], 16) for k in keys], pa.int64())
    return pa.table(
        {id_col: batch[id_col], "_key": pa.array(keys, pa.string()), "_bucket": buckets}
    )


def shuffle_rank(ds, *, id_col: str = "doc_id", salt: str = "", out_col: str = "rank"):
    """Deterministic global shuffle: rank every row by md5(id|salt).

    The epoch-reshuffle primitive for training-data ordering — changing the
    salt permutes the corpus, and the same (corpus, salt) always yields the
    same order at any partitioning / cluster size. Input needs only the id
    column (callers should column-prune the read); the md5 key is recomputed
    in pass 2 rather than materialized between passes.
    """
    keyed = ds.map_batches(
        add_shuffle_key, fn_kwargs=dict(id_col=id_col, salt=salt), batch_format="pyarrow"
    )
    offsets, _ = exclusive_bucket_offsets(keyed, "_bucket")

    def rank_group(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[("_key", "ascending"), (id_col, "ascending")])
        t = t.take(idx)
        start = offsets[t["_bucket"][0].as_py()]
        return pa.table(
            {
                id_col: t[id_col],
                out_col: pa.array(start + np.arange(t.num_rows, dtype=np.int64), pa.int64()),
            }
        )

    return keyed.groupby("_bucket").map_groups(rank_group, batch_format="pyarrow")


def ordered_prefix_sums(
    ds, *, bucket_col: str, sort_keys: list[str], weight_col: str, out_col: str
):
    """Exclusive running total of ``weight_col`` in (bucket asc, sort_keys
    asc) global order — the generic second half of the two-pass scheme.
    Appends ``out_col`` to every row; callers provide the ``bucket_col``
    (which must be an order-prefix of the target global order)."""
    offsets, _ = exclusive_bucket_offsets(ds, bucket_col, weight_col=weight_col)

    def g(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[(k, "ascending") for k in sort_keys])
        t = t.take(idx)
        n = t[weight_col].to_numpy(zero_copy_only=False).astype(np.int64)
        start = offsets[t[bucket_col][0].as_py()] + np.concatenate(
            [[0], np.cumsum(n)[:-1]]
        ).astype(np.int64)
        return t.append_column(out_col, pa.array(start, pa.int64()))

    return ds.groupby(bucket_col).map_groups(g, batch_format="pyarrow")


def budget_select(ds, *, id_col: str = "doc_id", token_col: str = "n_tokens", budget: int):
    """Token-budget corpus selection: greedily keep the LONGEST documents
    (ties by id) until the global token budget is reached — a corpus-sizing
    primitive for training-data curation. A doc is kept iff the running
    token total BEFORE it is under the budget, so the result is exactly the
    SQL window ``SUM ... OVER (ORDER BY n_tokens DESC, id)`` cutoff and is
    partition/cluster-size invariant. Bucket = −n_tokens (ascending bucket
    order ⇔ longest-first); bucket cardinality = distinct doc lengths."""

    def add_bucket(b: pa.Table) -> pa.Table:
        n = b[token_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("_bucket", pa.array(-n, pa.int64()))

    keyed = ds.map_batches(add_bucket, batch_format="pyarrow")
    pre = ordered_prefix_sums(
        keyed, bucket_col="_bucket", sort_keys=[id_col], weight_col=token_col,
        out_col="start_tok",
    )

    def keep(b: pa.Table) -> pa.Table:
        b = b.filter(pc.less(b["start_tok"], budget))
        return b.select([id_col, token_col, "start_tok"])

    return pre.map_batches(keep, batch_format="pyarrow")


# -- sequence packing --------------------------------------------------------

def pack_sequences(
    ds,
    *,
    id_col: str = "doc_id",
    token_col: str = "n_tokens",
    seq_len: int = 512,
    docs_per_bucket: int = 64,
):
    """Concat-then-split sequence packing (the standard LLM pretraining
    layout): documents are concatenated in ``id_col`` order and the token
    stream is cut into fixed ``seq_len`` windows. Emits, per document, its
    global start offset and the pack window(s) it lands in:

        (id, n_tokens, start_tok, pack_id, pack_offset, n_spans)

    ``start_tok`` is an exclusive prefix sum of token counts in id order —
    computed with the two-pass bucket scheme (see module docstring), so no
    stage ever sees more than one bucket of rows.
    """
    dpb = np.int64(docs_per_bucket)

    def add_bucket(b: pa.Table) -> pa.Table:
        ids = b[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        return b.append_column("_bucket", pa.array(ids // dpb, pa.int64()))

    keyed = ds.map_batches(add_bucket, batch_format="pyarrow")
    offsets, _ = exclusive_bucket_offsets(keyed, "_bucket", weight_col=token_col)

    def pack_group(t: pa.Table) -> pa.Table:
        idx = pc.sort_indices(t, sort_keys=[(id_col, "ascending")])
        t = t.take(idx)
        n = t[token_col].to_numpy(zero_copy_only=False).astype(np.int64)
        bucket_start = offsets[t["_bucket"][0].as_py()]
        start = bucket_start + np.concatenate([[0], np.cumsum(n)[:-1]]).astype(np.int64)
        pack_id = start // seq_len
        n_spans = (start + np.maximum(n, 1) - 1) // seq_len - pack_id + 1
        return pa.table(
            {
                id_col: t[id_col],
                token_col: pa.array(n, pa.int64()),
                "start_tok": pa.array(start, pa.int64()),
                "pack_id": pa.array(pack_id, pa.int64()),
                "pack_offset": pa.array(start % seq_len, pa.int64()),
                "n_spans": pa.array(n_spans, pa.int64()),
            }
        )

    return keyed.groupby("_bucket").map_groups(pack_group, batch_format="pyarrow")


# -- the sorted pass ----------------------------------------------------------

#: int8 flag column a ``fold_sorted`` block kernel appends to its rows
EDGE = "_edge"


def run_starts(t: pa.Table, cols: list[str]) -> np.ndarray:
    """Row index where each run of equal ``cols`` values starts in a sorted
    table (empty for an empty table)."""
    new = np.zeros(t.num_rows, bool)
    new[:1] = True
    for c in cols:
        v = t[c].to_numpy(zero_copy_only=False)
        new[1:] |= v[1:] != v[:-1]
    return np.flatnonzero(new)


def fold_sorted(ds, keys: list[str], per_block, finish):
    """The engine's one skew-proof sorted pass, shared by the ordered
    windows, exact dedup, ``distinct_pairs`` and the change feed's netting.

    ONE global range sort on ``keys`` — Ray balances blocks by rows, so a
    hot key spans blocks instead of pinning a reducer — then
    ``per_block(block)`` runs once per whole sorted block and appends an
    int8 ``EDGE`` flag per output row: bit 1 = the row depends on a
    neighbour block (not final), bit 2 = a neighbour's rows need it as
    context. Rows without bit 1 are final. The flagged rows (O(blocks) of
    them, independent of key skew) are gathered on the driver, sorted on
    ``keys`` and handed to ``finish``, which returns the fixed-up rows —
    usually by running the block kernel again over them. If its result
    keeps ``EDGE``, only the bit-1 rows are kept (context rows were final
    already). Returns the final rows unioned with the fixed-up ones."""
    import ray.data as rd

    # materialize ONCE: the final rows and the edge gather both read the
    # pass; without the pin Ray re-executes the sort per consumer
    marked = ds.sort(keys).map_batches(
        per_block, batch_format="pyarrow", batch_size=None
    ).materialize()
    final = marked.map_batches(
        lambda b: b.filter(pc.equal(pc.bit_wise_and(b[EDGE], 1), 0)).drop_columns([EDGE]),
        batch_format="pyarrow",
        batch_size=None,
    )
    edges = [
        b
        for b in marked.map_batches(
            lambda b: b.filter(pc.not_equal(b[EDGE], 0)), batch_format="pyarrow", batch_size=None
        ).iter_batches(batch_size=None, batch_format="pyarrow")
        if b.num_rows
    ]
    if not edges:
        return final
    et = pa.concat_tables(edges, promote_options="default").combine_chunks()
    fixed = finish(et.sort_by([(k, "ascending") for k in keys]))
    if EDGE in fixed.column_names:
        fixed = fixed.filter(pc.equal(pc.bit_wise_and(fixed[EDGE], 1), 1)).drop_columns([EDGE])
    return final.union(rd.from_arrow(fixed))


def _key_window(ds, *, key, order_cols, out_col, reach, ahead, values):
    """Per-key ordered window over ``fold_sorted`` on (key, *order_cols).
    ``values(t, run_start, run_end)`` computes ``out_col`` for a sorted
    table from each row's key-run bounds, reading at most ``reach`` rows
    behind (``ahead=False``) or ahead of the row inside its run. So only a
    block's first run's leading ``reach`` rows (last run's trailing, when
    ahead) can depend on a neighbour block; the other end's ``reach`` rows
    ship as their context. The driver fix-up is ``values`` again over those
    rows: each head's in-reach neighbours are all among them."""

    def window(t: pa.Table) -> tuple[pa.Table, np.ndarray]:
        starts = run_starts(t, [key])
        lens = np.diff(np.r_[starts, t.num_rows])
        out = values(t, np.repeat(starts, lens), np.repeat(starts + lens, lens))
        return t.append_column(out_col, out), starts

    def per_block(b: pa.Table) -> pa.Table:
        out, starts = window(b)
        n = b.num_rows
        j = np.arange(n)
        first = j < (starts[1] if len(starts) > 1 else n)
        last = j >= (starts[-1] if len(starts) else 0)
        behind, front = first & (j < reach), last & (j >= n - reach)
        head, ctx = (front, behind) if ahead else (behind, front)
        return out.append_column(EDGE, pa.array((head + 2 * ctx).astype(np.int8)))

    return fold_sorted(
        ds, [key] + order_cols, per_block, lambda e: window(e.drop_columns([out_col]))[0]
    )


def rolling_sum(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    window: int,
    out_col: str = "rolling",
):
    """Ordered window aggregate: per ``key``, SUM(value) OVER (ORDER BY
    order_cols ROWS BETWEEN window-1 PRECEDING AND CURRENT ROW) — the
    per-key sliding window the Dataset API lacks.

    Shape: :func:`fold_sorted` on (key, *order_cols) with one vectorized
    prefix-sum pass per sorted block (run resets at key changes). Only a
    block's first run's ≤ (window−1) head rows are incomplete; the driver
    recomputes them from the ≤ (window−1) trailing context rows each block
    also ships — O(blocks × window) rows, independent of key skew.
    ``value_col`` must be int64 (round floats to cents first; exact sums,
    engine-independent hashes).
    """
    w = int(window)
    if w < 1:
        raise ValueError("window must be >= 1")

    def values(t: pa.Table, run_start: np.ndarray, run_end: np.ndarray) -> pa.Array:
        v = t[value_col].to_numpy(zero_copy_only=False).astype(np.int64)
        j = np.arange(t.num_rows)
        cs = np.r_[0, np.cumsum(v)]
        return pa.array(cs[j + 1] - cs[np.maximum(j - w + 1, run_start)], pa.int64())

    return _key_window(
        ds, key=key, order_cols=order_cols, out_col=out_col, reach=w - 1, ahead=False,
        values=values,
    )


def _shift(value_col: str, d: int):
    """``values`` for LAG (``d`` > 0) / LEAD (``d`` < 0): the value ``d``
    rows earlier in the key run, null past the run's edge."""

    def values(t: pa.Table, run_start: np.ndarray, run_end: np.ndarray) -> pa.Array:
        src = np.arange(t.num_rows) - d
        valid = (src >= run_start) & (src < run_end)
        v = t[value_col].take(pa.array(np.where(valid, src, 0)))
        return pc.if_else(pa.array(valid), v, pa.nulls(t.num_rows, t[value_col].type))

    return values


def lag(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    offset: int = 1,
    out_col: str = "lag",
):
    """Per-key LAG(value, offset): each row gets the value of the row
    ``offset`` positions earlier in its key's (order_cols) order, null at
    the run head. Same :func:`fold_sorted` shape as rolling_sum: ≤ offset
    head rows per block fixed from ≤ offset trailing context rows —
    O(blocks × offset) driver work."""
    d = int(offset)
    if d < 1:
        raise ValueError("offset must be >= 1")
    return _key_window(
        ds, key=key, order_cols=order_cols, out_col=out_col, reach=d, ahead=False,
        values=_shift(value_col, d),
    )


def lead(
    ds,
    *,
    key: str,
    order_cols: list[str],
    value_col: str,
    offset: int = 1,
    out_col: str = "lead",
):
    """Per-key LEAD(value, offset): the value ``offset`` rows AHEAD in the
    key's order, null at the run tail. Mirror of :func:`lag` — incomplete
    rows are a block's LAST run's trailing ``offset`` rows (their source
    row may live in the next block), and the context shipped for the
    fix-up is each block's FIRST run's leading ``offset`` rows."""
    d = int(offset)
    if d < 1:
        raise ValueError("offset must be >= 1")
    return _key_window(
        ds, key=key, order_cols=order_cols, out_col=out_col, reach=d, ahead=True,
        values=_shift(value_col, -d),
    )
