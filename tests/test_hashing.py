import numpy as np
import pyarrow as pa

from e2e_ocsf_cyber_lakehouse_blueprint_ray import hashing as hx


def test_hash64_stable_and_vectorized():
    arr = pa.array(["a", "b", "a", None, "c"])
    out = hx.hash64_column(arr)
    assert out.dtype == np.uint64
    assert out[0] == out[2] == hx.hash64_str("a")
    assert out[0] != out[1]


def test_morton_matches_scalar_reference():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 2**32, 200, dtype=np.uint64)
    b = rng.integers(0, 2**32, 200, dtype=np.uint64)
    fast = hx.morton2(a, b)
    for i in range(200):
        assert int(fast[i]) == hx.morton2_scalar(int(a[i]), int(b[i]))


def test_morton_orders_nearby_points_together():
    # same conv hash, increasing ts-bucket → strictly increasing keys
    a = np.full(10, 12345, dtype=np.uint64)
    b = np.arange(10, dtype=np.uint64)
    k = hx.morton2(a, b)
    assert (np.diff(k.astype(np.int64)) > 0).all()


def test_hilbert_roundtrip():
    rng = np.random.default_rng(3)
    for order in (8, 16, 32):
        x = rng.integers(0, 2**order, 500, dtype=np.uint64)
        y = rng.integers(0, 2**order, 500, dtype=np.uint64)
        d = hx.hilbert_xy2d(order, x, y)
        x2, y2 = hx.hilbert_d2xy(order, d)
        assert (x == x2).all() and (y == y2).all()


def test_hilbert_distinct_and_bounded():
    order = 8
    xs, ys = np.meshgrid(np.arange(2**order), np.arange(4))
    d = hx.hilbert_xy2d(order, xs.ravel().astype(np.uint64), ys.ravel().astype(np.uint64))
    assert len(set(d.tolist())) == d.size
    assert int(d.max()) < 4 ** order


def test_cluster_key_both_curves():
    """Two columns: the hash's high 31 bits and the ts normalized over its
    range onto 2^31 buckets, interleaved on either curve into a
    non-negative int64. One column is the coordinate itself; three columns
    interleave on the Z-order curve only."""
    import pytest

    from e2e_ocsf_cyber_lakehouse_blueprint_ray.stages.cluster import cluster_key

    convs = ["conv-1", "conv-2", "conv-1"]
    # a ts range of exactly 2^31 - 1 µs maps each µs onto one bucket
    ts = np.array([0, 2**30, 2**31 - 1], dtype=np.int64)
    b = pa.table({"conv_id": convs, "ts": pa.array(ts).cast(pa.timestamp("us")), "n": [3, 1, 2]})
    ranges = {"ts": (0, 2**31 - 1), "n": (1, 3)}
    a = np.array([hx.hash64_str(c) for c in convs], dtype=np.uint64) >> np.uint64(33)
    t = ts.astype(np.uint64)
    want = {"zorder": hx.morton2(a, t), "hilbert": hx.hilbert_xy2d(31, a, t)}
    for curve in ("zorder", "hilbert"):
        k = cluster_key(b, ["conv_id", "ts"], ranges, curve)
        assert k.dtype == np.int64 and (k >= 0).all()
        assert k.tolist() == want[curve].astype(np.int64).tolist()
        # one column: the key orders rows as the column does
        assert np.argsort(cluster_key(b, ["ts"], ranges, curve)).tolist() == [0, 1, 2]
    assert (cluster_key(b, ["conv_id", "n", "ts"], ranges) >= 0).all()
    # a column without manifest bounds gives coordinate 0
    assert cluster_key(b, ["n"], {}).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        cluster_key(b, ["conv_id", "n", "ts"], ranges, "hilbert")


def test_morton_nd_matches_scalar_reference():
    import numpy as np
    import pytest

    from e2e_ocsf_cyber_lakehouse_blueprint_ray import hashing

    rng = np.random.default_rng(5)
    for nd in (2, 3, 4):
        bits = 63 // nd
        coords = [
            rng.integers(0, 1 << bits, 200).astype(np.uint64) for _ in range(nd)
        ]
        got = hashing.morton_nd(coords, bits)

        def scalar(vals):
            out = 0
            for b in range(bits):
                for d, v in enumerate(vals):
                    out |= ((int(v) >> b) & 1) << (b * nd + d)
            return out

        exp = [scalar([c[i] for c in coords]) for i in range(200)]
        assert got.tolist() == exp
    with pytest.raises(ValueError):
        hashing.morton_nd([np.zeros(1, np.uint64)] * 5, 16)
