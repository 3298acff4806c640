"""Training-data operators: text analysis, dedup family, similarity,
multimodal plumbing — over the driver testdata tables."""

import dataclasses

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest

from e2e_ocsf_cyber_lakehouse_blueprint_ray import config as cfg
from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import dedup, multimodal, similarity, text

SF = "/root/testdata/sf0.001"
CONF = cfg.test_config()


@pytest.fixture(scope="module")
def docs_ds(ray_session):
    import ray.data as rd

    return rd.read_parquet(f"{SF}/documents.parquet")


@pytest.fixture(scope="module")
def emb(ray_session):
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/embeddings.parquet")
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    ids = t["vec_id"].to_numpy(zero_copy_only=False).astype(np.int64)
    return t, mat, ids


def test_token_count_and_quality(docs_ds):
    out = docs_ds.map_batches(text.quality_score, batch_format="pyarrow").take_all()
    import re

    for r in out[:50]:
        toks = re.split(r"\s+", r["text"].strip())
        assert r["n_words"] == len(toks)
        assert r["n_chars"] == len(r["text"])
        hits = sum(1 for t in toks if t in text.STOPWORDS)
        assert abs(r["stop_ratio"] - hits / max(1, len(toks))) < 1e-12


def test_lang_id_runs_and_is_deterministic(docs_ds):
    a = docs_ds.map_batches(text.lang_id, batch_format="pyarrow").take_all()
    b = docs_ds.map_batches(text.lang_id, batch_format="pyarrow").take_all()
    pa_ = {r["doc_id"]: r["pred_lang"] for r in a}
    pb = {r["doc_id"]: r["pred_lang"] for r in b}
    assert pa_ == pb
    assert set(pa_.values()) <= {"en", "de", "es", "fr", "zh", "und"}


def test_fingerprints(docs_ds):
    out = docs_ds.map_batches(text.fingerprint_md5, batch_format="pyarrow").take_all()
    import hashlib

    r = out[0]
    assert r["fp_md5"] == hashlib.md5(r["text"].encode()).hexdigest()
    w = docs_ds.map_batches(text.winnow_fingerprint, batch_format="pyarrow").take_all()
    assert len({x["fp_winnow"] for x in w}) > len(w) // 2  # mostly distinct


def test_scrub_pii():
    b = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                [
                    "contact alice@example.com or 1234567890 now",
                    "no pii here 123",
                    "two mails a@b.co c@d.org and 999999",
                ]
            ),
        }
    )
    out = text.scrub_pii(b).to_pylist()
    assert out[0]["scrubbed"] == "contact <EMAIL> or <NUM> now"
    assert out[0]["n_redactions"] == 2
    assert out[1]["scrubbed"] == "no pii here 123" and out[1]["n_redactions"] == 0
    assert out[2]["scrubbed"] == "two mails <EMAIL> <EMAIL> and <NUM>"
    assert out[2]["n_redactions"] == 3


def test_sequence_chunks_edges():
    texts = ["a b c", " ".join(["t"] * 64), " ".join(["u"] * 65), ""]
    b = pa.table({"doc_id": pa.array(range(4), pa.int64()), "text": pa.array(texts)})
    out = text.sequence_chunks(b, capacity=32).to_pylist()
    by_doc = {}
    for r in out:
        by_doc.setdefault(r["doc_id"], []).append((r["chunk_idx"], r["n_chunk_tokens"]))
    assert by_doc[0] == [(0, 3)]
    assert by_doc[1] == [(0, 32), (1, 32)]  # exact multiple: no empty tail chunk
    assert by_doc[2] == [(0, 32), (1, 32), (2, 1)]
    # empty text tokenizes to [''] (1 token), one chunk — mirrors the SQL split
    assert by_doc[3] == [(0, 1)]


def test_token_partial_counts_sum_to_global():
    b = pa.table(
        {"doc_id": pa.array([1, 2], pa.int64()), "text": pa.array(["x y x", "y z"])}
    )
    rows = {r["token"]: r["n"] for r in text.token_partial_counts(b).to_pylist()}
    assert rows == {"x": 2, "y": 2, "z": 1}


def test_mixture_sample_weights_and_determinism():
    n = 400
    b = pa.table(
        {
            "doc_id": pa.array(range(n), pa.int64()),
            "text": pa.array([f"doc body {i}" for i in range(n)]),
            "source": pa.array(["hi" if i % 2 == 0 else "lo" for i in range(n)]),
        }
    )
    kept = text.mixture_sample(b, weights={"hi": 0.9, "lo": 0.1})
    srcs = kept["source"].to_pylist()
    hi, lo = srcs.count("hi"), srcs.count("lo")
    assert 150 <= hi <= 200 and 5 <= lo <= 45  # ~180 vs ~20 expected
    # unknown group → weight 0; rerun is identical (content-gated, no RNG)
    none = text.mixture_sample(b, weights={"other": 1.0 - 1e-9})
    assert none.num_rows == 0
    again = text.mixture_sample(b, weights={"hi": 0.9, "lo": 0.1})
    assert again["doc_id"].to_pylist() == kept["doc_id"].to_pylist()


def test_hash_sample_deterministic_and_partition_invariant():
    texts = [f"document number {i} body" for i in range(500)] + [None]
    b = pa.table(
        {"doc_id": pa.array(range(501), pa.int64()), "text": pa.array(texts)}
    )
    kept = text.hash_sample(b)["doc_id"].to_pylist()
    # 10% expected band (binomial, wide tolerance)
    assert 20 <= len(kept) <= 90
    # partition-invariant: sampling two halves separately selects the same ids
    half = text.hash_sample(b.slice(0, 250))["doc_id"].to_pylist() + text.hash_sample(
        b.slice(250)
    )["doc_id"].to_pylist()
    assert half == kept
    # null text never sampled
    assert 500 not in kept


def test_exact_dedup_with_planted_dupes(ray_session):
    import ray.data as rd

    base = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "text": pa.array(["aa", "bb", "aa", "cc", "bb"]),
        }
    )
    out = dedup.exact_dedup(rd.from_arrow(base), config=CONF).take_all()
    got = {r["text"]: (r["doc_id"], r["dupes"]) for r in out}
    assert got == {"aa": (1, 2), "bb": (2, 2), "cc": (4, 1)}


def test_exact_dedup_hot_text_spans_blocks(ray_session):
    """A text duplicated across at least three sorted blocks: a block in the
    middle of its run holds that run alone, and the driver fix-up must merge
    the block partials into one min-id survivor with the full count."""
    import ray.data as rd

    rng = np.random.default_rng(5)
    n = 4000
    hot = rng.random(n) < 0.7
    texts = [("hot" if h else f"t{i % 300}") for i, h in enumerate(hot)]
    base = pa.table(
        {"doc_id": pa.array(rng.permutation(n) + 10, pa.int64()), "text": pa.array(texts)}
    )
    # 8 blocks of 500 rows; the hash stage keeps them apart (its batch size
    # is one block) and the sort emits as many blocks as it reads
    ds = rd.from_arrow(base).repartition(8)
    conf = dataclasses.replace(CONF, batch_size=500)
    # the premise: the hot run covers whole sorted blocks, three or more
    blocks = list(
        ds.map_batches(dedup.add_content_hash, batch_format="pyarrow", batch_size=500)
        .sort(["_h", "text", "doc_id"])
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    with_hot = [set(b["text"].to_pylist()) for b in blocks if "hot" in b["text"].to_pylist()]
    assert len(with_hot) >= 3 and {"hot"} in with_hot

    out = pa.Table.from_pylist(dedup.exact_dedup(ds, config=conf).take_all())
    want = base.group_by("text").aggregate([("doc_id", "min"), ("doc_id", "count")])
    got = {r["text"]: (r["doc_id"], r["dupes"]) for r in out.to_pylist()}
    assert out.num_rows == len(got) == want.num_rows
    assert got == {
        r["text"]: (r["doc_id_min"], r["doc_id_count"]) for r in want.to_pylist()
    }


def test_incremental_exact_dedup(ray_session):
    import ray.data as rd

    corpus = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["aa", "bb", "aa"]),
        }
    )
    # "aa"/"bb" already in corpus -> dropped; "dd" new twice -> one survivor
    # with dupes=2; "ee" new once.
    inc = pa.table(
        {
            "doc_id": pa.array([10, 11, 12, 13, 14], pa.int64()),
            "text": pa.array(["aa", "dd", "dd", "ee", "bb"]),
        }
    )
    out = dedup.incremental_exact_dedup(
        rd.from_arrow(corpus), rd.from_arrow(inc), config=CONF
    ).take_all()
    got = {r["text"]: (r["doc_id"], r["dupes"]) for r in out}
    assert got == {"dd": (11, 2), "ee": (13, 1)}


def test_minhash_lsh_finds_planted_near_dupes(ray_session):
    import ray.data as rd

    words = ["alpha beta gamma delta epsilon zeta eta theta iota kappa"] * 1
    t0 = " ".join(f"w{i}" for i in range(60))
    t1 = t0.replace("w10", "w10x")  # near-dup of t0
    t2 = " ".join(f"v{i}" for i in range(60))  # unrelated
    base = pa.table(
        {"doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array([t0, t1, t2])}
    )
    pairs = dedup.minhash_duplicate_pairs(
        rd.from_arrow(base), threshold=0.7, config=CONF
    ).take_all()
    assert {(p["a"], p["b"]) for p in pairs} == {(0, 1)}
    assert pairs[0]["jaccard"] > 0.8
    # candidates-only mode skips verification
    cand = dedup.minhash_duplicate_pairs(
        rd.from_arrow(base), threshold=0.7, verify=False, config=CONF
    ).take_all()
    assert {(p["a"], p["b"]) for p in cand} >= {(0, 1)}
    assert all(p["jaccard"] == -1.0 for p in cand)
    _ = words


def test_lsh_degenerate_bucket_capped(ray_session):
    """10^4 identical docs share every band signature: without the bucket
    cap each of the 16 band buckets emits ~5*10^7 pairs. With the chain
    guard the candidate count stays linear and the duplicate CLUSTER is
    still fully connected."""
    import dataclasses

    import ray.data as rd

    n = 10_000
    txt = " ".join(f"w{i}" for i in range(30))
    base = pa.table(
        {
            "doc_id": pa.array(np.arange(n, dtype=np.int64)),
            "text": pa.array([txt] * n),
        }
    )
    conf = dataclasses.replace(CONF, lsh_bucket_cap=64)
    cand = dedup.minhash_duplicate_pairs(
        rd.from_arrow(base), verify=False, config=conf
    ).take_all()
    # chain pairs only: at most (n-1) per band before the distinct groupby
    assert 0 < len(cand) <= n
    clusters = dedup.duplicate_clusters(
        pa.table(
            {
                "a": pa.array([p["a"] for p in cand], pa.int64()),
                "b": pa.array([p["b"] for p in cand], pa.int64()),
            }
        )
    )
    assert clusters.num_rows == n  # every doc in the one cluster
    assert len(set(clusters["cluster_id"].to_pylist())) == 1

    sim = dedup.simhash_duplicate_pairs(
        rd.from_arrow(base), max_hamming=3, config=conf
    ).take_all()
    assert 0 < len(sim) <= n


def test_embedding_degenerate_bucket_windowed(ray_session):
    """All-identical embeddings collapse into one quantizer bucket; past the
    cap the windowed O(m*W) path must still connect the duplicate cluster."""
    import dataclasses

    import ray.data as rd

    n, d = 400, 8
    rng = np.random.default_rng(3)
    v = rng.normal(size=d)
    vecs = np.tile(v, (n, 1)).astype(np.float64)
    base = pa.table(
        {
            "vec_id": pa.array(np.arange(n, dtype=np.int64)),
            "embedding": pa.array(list(vecs), pa.list_(pa.float64())),
        }
    )
    conf = dataclasses.replace(CONF, lsh_bucket_cap=8)  # embedding cap = 64
    pairs = dedup.embedding_near_dup_pairs(
        rd.from_arrow(base), threshold=0.95, config=conf
    ).take_all()
    # bounded emission: O(n*W), nowhere near the n(n-1)/2 = 79800 all-pairs
    assert 0 < len(pairs) < n * 70
    clusters = dedup.duplicate_clusters(
        pa.table(
            {
                "a": pa.array([p["a"] for p in pairs], pa.int64()),
                "b": pa.array([p["b"] for p in pairs], pa.int64()),
            }
        )
    )
    assert clusters.num_rows == n
    assert len(set(clusters["cluster_id"].to_pylist())) == 1


def test_verify_pairs_with_duplicate_doc_ids(ray_session):
    """A doc_id occurring twice in the corpus must not silently drop its
    candidate pair (the pair group then has >2 shingle rows)."""
    import ray.data as rd

    t0 = " ".join(f"w{i}" for i in range(60))
    t1 = t0.replace("w10", "w10x")
    base = pa.table(
        {
            # doc 0 appears twice (same text) — e.g. re-ingested row
            "doc_id": pa.array([0, 0, 1], pa.int64()),
            "text": pa.array([t0, t0, t1]),
        }
    )
    cand = pa.table({"a": pa.array([0], pa.int64()), "b": pa.array([1], pa.int64())})
    out = dedup.verify_candidate_pairs(
        rd.from_arrow(base), cand, threshold=0.7, config=CONF
    ).take_all()
    assert {(p["a"], p["b"]) for p in out} == {(0, 1)}
    assert out[0]["jaccard"] > 0.8


def test_simhash_finds_planted_near_dupes(ray_session):
    import ray.data as rd

    t0 = " ".join(f"w{i}" for i in range(100))
    t1 = t0 + " extra"
    t2 = " ".join(f"v{i}" for i in range(100))
    base = pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()), "text": pa.array([t0, t1, t2])})
    pairs = dedup.simhash_duplicate_pairs(rd.from_arrow(base), max_hamming=6, config=CONF).take_all()
    assert (0, 1) in {(p["a"], p["b"]) for p in pairs}
    assert all({p["a"], p["b"]} != {0, 2} for p in pairs)


def test_ngram_jaccard_pairs(ray_session):
    import ray.data as rd

    t0 = " ".join(f"w{i}" for i in range(40))
    t1 = t0.replace("w5", "w5x")
    base = pa.table(
        {
            "doc_id": pa.array([0, 1, 2], pa.int64()),
            "source": pa.array(["s", "s", "s"]),
            "text": pa.array([t0, t1, "zz yy xx ww vv uu"]),
        }
    )
    pairs = dedup.ngram_jaccard_pairs(rd.from_arrow(base), threshold=0.5).take_all()
    assert {(p["a"], p["b"]) for p in pairs} == {(0, 1)}
    # production shape: LSH candidates + exact per-pair verification
    lsh_pairs = dedup.ngram_jaccard_pairs(
        rd.from_arrow(base), group_col=None, threshold=0.5, config=CONF
    ).take_all()
    assert {(p["a"], p["b"]) for p in lsh_pairs} == {(0, 1)}
    assert lsh_pairs[0]["jaccard"] >= 0.5


def test_embedding_near_dup_and_topk_match_bruteforce(emb, ray_session):
    import ray.data as rd

    t, mat, ids = emb
    ds = rd.from_arrow(t)
    # near-dup pairs (bucketed coarse-quantizer path) vs numpy oracle
    thr = 0.95
    got = dedup.embedding_near_dup_pairs(ds, threshold=thr, config=CONF).take_all()
    n = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    sims = n @ n.T
    exp = {
        (int(ids[i]), int(ids[j]))
        for i in range(len(ids))
        for j in range(len(ids))
        if ids[i] < ids[j] and sims[i, j] >= thr
    }
    assert {(p["a"], p["b"]) for p in got} == exp

    # top-k matches brute-force numpy oracle
    k = 5
    q = mat[:3]
    qi = ids[:3]
    out = similarity.brute_force_topk(ds, q, qi, k=k, config=CONF).take_all()
    by_q = {}
    for r in out:
        by_q.setdefault(r["query_id"], []).append((r["rank"], r["vec_id"]))
    for qq in qi:
        qrow = np.flatnonzero(ids == qq)[0]
        col = sims[:, qrow].copy()
        mask = ids != qq
        order = np.lexsort((ids[mask], -col[mask]))[:k]
        expect = [int(ids[mask][o]) for o in order]
        got_ids = [v for _, v in sorted(by_q[int(qq)])]
        assert got_ids == expect


def test_ivf_topk_recall(emb, ray_session):
    import ray.data as rd

    t, mat, ids = emb
    ds = rd.from_arrow(t)
    cent = similarity.kmeans_fit(mat, 8)
    q, qi = mat[:3], ids[:3]
    approx = similarity.ivf_topk(ds, q, qi, cent, k=5, nprobe=4, config=CONF).take_all()
    exact = similarity.brute_force_topk(ds, q, qi, k=5, config=CONF).take_all()
    ex = {(r["query_id"], r["vec_id"]) for r in exact}
    ap = {(r["query_id"], r["vec_id"]) for r in approx}
    assert len(ap & ex) / len(ex) >= 0.5  # recall with half the probes


def test_ivf_precomputed_assignment_matches(emb, ray_session):
    """ivf_topk over a persisted centroid column (the IVF build step) must
    return exactly what the assign-on-the-fly path returns."""
    import ray.data as rd

    t, mat, ids = emb
    cent = similarity.kmeans_fit(mat, 8)
    q, qi = mat[:3], ids[:3]
    ds = rd.from_arrow(t)
    with_assign = similarity.add_centroid_assignment(ds, cent, config=CONF)
    a = similarity.ivf_topk(
        with_assign, q, qi, cent, k=5, nprobe=4, assign_col="centroid", config=CONF
    ).take_all()
    b = similarity.ivf_topk(rd.from_arrow(t), q, qi, cent, k=5, nprobe=4, config=CONF).take_all()
    assert sorted(((r["query_id"], r["rank"], r["vec_id"]) for r in a)) == sorted(
        ((r["query_id"], r["rank"], r["vec_id"]) for r in b)
    )


def test_ivf_actually_prunes(emb):
    """The IVF stage must SKIP the query matmul for rows outside the probed
    clusters — scored-row count strictly below brute force, not a masked
    full matmul."""
    t, mat, ids = emb
    n = mat / np.maximum(np.linalg.norm(mat, axis=1, keepdims=True), 1e-12)
    cent = similarity.kmeans_fit(mat, 8)
    cn = cent / np.maximum(np.linalg.norm(cent, axis=1, keepdims=True), 1e-12)
    qn = n[:3]
    nprobe = 2
    probe = np.argsort(-(qn @ cn.T), axis=1)[:, :nprobe]
    allowed = np.zeros((len(cn), len(qn)), dtype=bool)
    for qi in range(len(qn)):
        allowed[probe[qi], qi] = True
    vn_s, bid_s, allowed_rows = similarity.ivf_prune(n, ids, cn, allowed)
    assert 0 < len(vn_s) < len(n)  # rows were dropped BEFORE scoring
    # survivors are exactly the rows assigned to some probed cluster
    assign = np.argmax(n @ cn.T, axis=1)
    keep = allowed[assign].any(axis=1)
    assert np.array_equal(bid_s, ids[keep])
    assert allowed_rows.shape == (int(keep.sum()), len(qn))


def test_multimodal_plumbing(docs_ds, ray_session):
    media = docs_ds.map_batches(multimodal.synthesize_payloads, batch_format="pyarrow")
    decoded = media.map_batches(
        multimodal.ImageDecoder, batch_format="pyarrow", batch_size=64, concurrency=2
    ).take_all()
    assert all(r["width"] is not None and len(r["feature"]) == 8 for r in decoded)
    frames = media.map_batches(
        multimodal.FrameSampler, fn_constructor_kwargs=dict(n_frames=3), batch_format="pyarrow",
        batch_size=64, concurrency=2,
    ).take_all()
    per = {}
    for r in frames:
        per.setdefault(r["media_id"], []).append(r["frame_idx"])
    assert all(sorted(v) == [0, 1, 2] for v in per.values())
    # audio-analog stage: fake PCM features over the same payload plumbing
    audio = media.map_batches(
        multimodal.AudioFeatureExtractor, batch_format="pyarrow", batch_size=64, concurrency=2
    ).take_all()
    assert all(r["sample_rate"] == 16000 and len(r["band_energy"]) == 8 for r in audio)
    assert all(r["duration_s"] > 0 and r["rms"] >= 0 for r in audio)


def test_image_resize_resample():
    # 4x2 "image": pixel stream 0..7; resize to 2x2 must nearest-neighbor
    # sample indices floor(i * 8 / 4) = [0, 2, 4, 6]
    payload = b"IMG1" + (4).to_bytes(2, "little") + (2).to_bytes(2, "little") + bytes(range(8))
    b = pa.table({"media_id": pa.array([1], pa.int64()),
                  "kind": pa.array(["image"]),
                  "payload": pa.array([payload], pa.binary()),
                  "n_bytes": pa.array([len(payload)], pa.int64())})
    out = multimodal.ImageResizer(target_w=2, target_h=2)(b).to_pylist()[0]
    assert (out["width"], out["height"], out["out_w"], out["out_h"]) == (4, 2, 2, 2)
    assert out["payload"] == b"IMG1" + (2).to_bytes(2, "little") + (2).to_bytes(2, "little") + bytes([0, 2, 4, 6])
    assert out["n_bytes_out"] == 12
    # never upsamples: target larger than the image keeps original dims
    same = multimodal.ImageResizer(target_w=64, target_h=64)(b).to_pylist()[0]
    assert (same["out_w"], same["out_h"]) == (4, 2)
    assert same["payload"] == payload
    # corrupt payload degrades to nulls
    bad = pa.table({"media_id": pa.array([2], pa.int64()),
                    "kind": pa.array(["image"]),
                    "payload": pa.array([b"nope"], pa.binary()),
                    "n_bytes": pa.array([4], pa.int64())})
    assert multimodal.ImageResizer()(bad).to_pylist()[0]["out_w"] is None


def test_distinct_pairs_multiblock_edge_merge(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    # duplicated pairs scattered across many small blocks, with a hot pair
    # repeated enough to span several sorted blocks (edge-run coverage)
    a = rng.integers(0, 40, 3000)
    b = a + 1 + rng.integers(0, 3, 3000)
    a = np.r_[a, np.full(500, 7)]
    b = np.r_[b, np.full(500, 9)]
    metric = (a * 1000 + b).astype(np.float64)  # deterministic per pair
    pairs = pa.table({"a": pa.array(a, pa.int64()), "b": pa.array(b, pa.int64()),
                      "jaccard": pa.array(metric, pa.float64())})
    out = dedup.distinct_pairs(rd.from_arrow(pairs).repartition(16)).take_all()
    got = {(r["a"], r["b"]) for r in out}
    assert len(out) == len(got), "distinct_pairs emitted a duplicate pair"
    assert got == set(zip(a.tolist(), b.tolist()))
    # ride-along column keeps the pair's deterministic value
    assert all(r["jaccard"] == r["a"] * 1000 + r["b"] for r in out)


def test_duplicate_clusters_and_representatives(ray_session):
    import ray.data as rd

    pairs = pa.table({"a": pa.array([1, 2, 7], pa.int64()), "b": pa.array([2, 3, 8], pa.int64())})
    cl = dedup.duplicate_clusters(pairs)
    got = dict(zip(cl["doc_id"].to_pylist(), cl["cluster_id"].to_pylist()))
    assert got == {1: 1, 2: 1, 3: 1, 7: 7, 8: 7}
    corpus = pa.table({"doc_id": pa.array([1, 2, 3, 5, 7, 8], pa.int64()),
                       "text": pa.array(list("abcdef"))})
    kept = dedup.dedup_keep_representatives(rd.from_arrow(corpus), pairs, config=CONF).take_all()
    assert sorted(r["doc_id"] for r in kept) == [1, 5, 7]


def test_vec_matrix_zero_copy_and_ragged(emb):
    t, mat, ids = emb
    got = similarity.vec_matrix(t["embedding"])
    assert got.shape == mat.shape and np.array_equal(got, mat)
    ragged = pa.array([[1.0, 2.0], [3.0]], pa.list_(pa.float64()))
    with pytest.raises(ValueError):
        similarity.vec_matrix(ragged)
    with pytest.raises(ValueError):
        similarity.vec_matrix(pa.array([[1.0], None], pa.list_(pa.float64())))


def test_kmeans_streaming_recovers_blobs(ray_session):
    import ray.data as rd

    rng = np.random.default_rng(3)
    centers = np.eye(4, 8)  # 4 well-separated unit directions in R^8
    pts, labels = [], []
    for i, c in enumerate(centers):
        pts.append(c + rng.normal(0, 0.02, size=(200, 8)))
        labels += [i] * 200
    x = np.concatenate(pts)
    perm = rng.permutation(len(x))
    x, labels = x[perm], np.asarray(labels)[perm]
    t = pa.table(
        {
            "vec_id": pa.array(np.arange(len(x), dtype=np.int64)),
            "embedding": pa.ListArray.from_arrays(
                pa.array(np.arange(len(x) + 1, dtype=np.int32) * 8),
                pa.array(x.reshape(-1), pa.float64()),
            ),
        }
    )
    # many small blocks so the cross-block partial fold actually happens
    ds = rd.from_arrow(t).repartition(7)
    cent = similarity.kmeans_fit_streaming(ds, 4, iters=8, seed=5, config=CONF)
    assert cent.shape == (4, 8)
    xn = x / np.linalg.norm(x, axis=1, keepdims=True)
    assign = np.argmax(xn @ cent.T, axis=1)
    # each blob lands wholly in one distinct cluster
    blob_to_cluster = {}
    for i in range(4):
        got = set(assign[labels == i].tolist())
        assert len(got) == 1, f"blob {i} split across clusters"
        blob_to_cluster[i] = got.pop()
    assert len(set(blob_to_cluster.values())) == 4
    # and each centroid sits on its blob's direction
    cn = centers / np.linalg.norm(centers, axis=1, keepdims=True)
    for i, c in blob_to_cluster.items():
        assert float(cent[c] @ cn[i]) > 0.99


def test_expectations_validate_drop_quarantine(ray_session):
    import ray.data as rd

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages import expectations as ex

    t = pa.table(
        {
            "id": pa.array([1, 2, 3, 4, 5], pa.int64()),
            "v": pa.array([10, -1, None, 50, 200], pa.int64()),
            "name": pa.array(["a", "", "c", None, "e"]),
        }
    )
    rules = [
        ex.Rule("v_nonneg", lambda b: pc.greater_equal(b["v"], 0)),
        ex.Rule("named", lambda b: pc.greater(pc.utf8_length(b["name"]), 0)),
    ]
    val = ex.validate(rd.from_arrow(t).repartition(3), rules)
    rows = {r["id"]: sorted(r["_violations"]) for r in val.take_all()}
    # nulls fail (SQL CHECK semantics: constraint must evaluate TRUE)
    assert rows == {
        1: [],
        2: ["named", "v_nonneg"],  # empty name AND negative value
        3: ["v_nonneg"],
        4: ["named"],
        5: [],
    }
    clean = ex.drop_invalid(ex.validate(rd.from_arrow(t), rules)).take_all()
    assert sorted(r["id"] for r in clean) == [1, 5]
    quar = ex.quarantined(ex.validate(rd.from_arrow(t), rules)).take_all()
    assert sorted(r["id"] for r in quar) == [2, 3, 4]
    counts = ex.violation_counts(rd.from_arrow(t).repartition(4), rules)
    got = {r["rule"]: (r["n_failed"], r["n_rows"]) for r in counts.to_pylist()}
    assert got == {"v_nonneg": (2, 5), "named": (2, 5)}


def test_distinct_pairs_empty_input(ray_session):
    """Zero candidate pairs must short-circuit, not hit a Ray global sort
    on an empty dataset (round-4 advice)."""
    import ray.data as rd

    pairs = pa.table({"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64())})
    out = dedup.distinct_pairs(rd.from_arrow(pairs))
    assert out.take_all() == []


def test_verify_pairs_batched_many(ray_session):
    """Exercise the batched vectorized verifier on a pair set spanning both
    sides of the threshold plus degenerate empty-text pairs; compare every
    jaccard against the scalar reference implementation."""
    import ray.data as rd

    rng = np.random.default_rng(11)
    texts, pairs_ab = [], []
    did = 0
    for i in range(40):
        n = 20 + int(rng.integers(0, 30))
        t0 = " ".join(f"g{i}w{j}" for j in range(n))
        toks = t0.split()
        # mutate a varying fraction of tokens → jaccards spread over [0, 1]
        n_mut = int(rng.integers(0, n))
        for pos in rng.choice(n, size=n_mut, replace=False):
            toks[pos] = toks[pos] + "X"
        t1 = " ".join(toks)
        texts += [t0, t1]
        pairs_ab.append((did, did + 1))
        did += 2
    # degenerate: both sides empty text (jaccard 1.0 by convention)
    texts += ["", ""]
    pairs_ab.append((did, did + 1))
    did += 2
    base = pa.table(
        {
            "doc_id": pa.array(list(range(did)), pa.int64()),
            "text": pa.array(texts),
        }
    )
    cand = pa.table(
        {
            "a": pa.array([p[0] for p in pairs_ab], pa.int64()),
            "b": pa.array([p[1] for p in pairs_ab], pa.int64()),
        }
    )
    thr = 0.5
    out = dedup.verify_candidate_pairs(
        rd.from_arrow(base).repartition(7), cand, threshold=thr, shingle_k=3, config=CONF
    ).take_all()
    got = {(r["a"], r["b"]): r["jaccard"] for r in out}
    # scalar reference
    expect = {}
    for a, b in pairs_ab:
        sa = dedup._word_shingles(texts[a].split(), 3)
        sb = dedup._word_shingles(texts[b].split(), 3)
        j = dedup.jaccard(sa, sb)
        if j >= thr:
            expect[(a, b)] = j
    assert set(got) == set(expect)
    for k, v in expect.items():
        assert abs(got[k] - v) < 1e-12, (k, got[k], v)


# (operator, lsh_bucket_cap) -> (rows, digest of the sorted (a, b, metric))
_PAIRS_PINNED = {
    ("minhash_cand", 256): (120, "b155ff50a4580912"),
    ("minhash", 256): (120, "d6be75c4f624b4af"),
    ("simhash", 256): (122, "284f84c732e1e66b"),
    ("embedding", 256): (5066, "c891238b353e8725"),
    ("ngram", 256): (95, "60182dd1d89ba129"),
    ("minhash_cand", 4): (54, "6558722846a2459d"),
    ("minhash", 4): (54, "68f6d004cf7a69fc"),
    ("simhash", 4): (52, "cb79a24f27c4627e"),
    ("embedding", 4): (4400, "be8c54e404431604"),
    ("ngram", 4): (95, "60182dd1d89ba129"),
}


def test_pair_operators_pinned(ray_session):
    """The whole pair output of every near-duplicate operator — at the
    default bucket cap and at a cap of 4, where the over-cap chain and
    window paths fire — equals the recorded (rows, digest of the sorted
    (a, b, metric) rows). The inputs carry the oracle queries' planted
    twins plus one text copied 12 times and one vector copied 100 times,
    more than the embedding window of 64, and that vector once more under
    its own id."""
    import hashlib
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.pipelines import queries

    def with_copies(t, id_col, n):
        # n copies of row 100 under fresh ids, appended after the input
        hot = t.take(pa.array(np.full(n, 100, np.int64)))
        ids = pa.array(20_000_000 + np.arange(n, dtype=np.int64))
        hot = hot.set_column(hot.schema.get_field_index(id_col), id_col, ids)
        return pa.concat_tables([t, hot])

    sf = os.path.join(os.path.dirname(SF), "sf0.01")  # the sf0.01 fixture beside SF
    docs = rd.from_arrow(with_copies(
        queries._plant_doc_twins(pq.read_table(f"{sf}/documents.parquet")), "doc_id", 12
    ))
    emb = queries._plant_near_dups(pq.read_table(f"{sf}/embeddings.parquet"))
    # row 100 once more under its own id: a repeated id pairs with nothing
    vecs = rd.from_arrow(pa.concat_tables([with_copies(emb, "vec_id", 100), emb.take([100])]))
    ops = {
        "minhash_cand": lambda c: dedup.minhash_duplicate_pairs(
            docs, threshold=0.5, verify=False, config=c),
        "minhash": lambda c: dedup.minhash_duplicate_pairs(docs, threshold=0.5, config=c),
        "simhash": lambda c: dedup.simhash_duplicate_pairs(docs, max_hamming=3, config=c),
        "embedding": lambda c: dedup.embedding_near_dup_pairs(
            vecs, threshold=0.95, config=c),
        "ngram": lambda c: dedup.ngram_jaccard_pairs(docs, threshold=0.3, config=c),
    }
    got = {}
    for cap in (CONF.lsh_bucket_cap, 4):
        conf = dataclasses.replace(CONF, lsh_bucket_cap=cap)
        for name, op in ops.items():
            rows = sorted(
                (r.pop("a"), r.pop("b"), round(r.popitem()[1], 9)) for r in op(conf).take_all()
            )
            got[(name, cap)] = (len(rows), hashlib.sha256(str(rows).encode()).hexdigest()[:16])
    # premise: at cap 4 the over-cap paths change these outputs
    for name in ("simhash", "embedding"):
        assert got[(name, 4)] != got[(name, CONF.lsh_bucket_cap)], name
    assert got == _PAIRS_PINNED
