"""Stable hashing + space-filling-curve kernels (vectorized).

The interleave kernels behind stages/cluster.cluster_key — Morton
(Z-order) in 2 or N dimensions and a 2-D Hilbert curve — the engine's
analog of the reference's liquid clustering
(/root/reference/utilities/post_setup_ocsf_tables.py:40-53 ``ALTER TABLE ...
CLUSTER BY (time)``; bronze ``cluster_by=["_event_date"]``
bronze_github_audit_logs.py:32).

Morton spreading uses the standard magic-number bit tricks; Hilbert uses the
classic Wikipedia xy2d rotation algorithm, vectorized over numpy arrays
(public-domain algorithms, cf. Hilbert (1891) / Morton (1966) literature).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa


def hash64_str(s: str) -> int:
    """Stable 64-bit hash of a string (blake2b-8). Process-independent."""
    return int.from_bytes(hashlib.blake2b(s.encode("utf-8"), digest_size=8).digest(), "little")


def hash64_column(arr: pa.Array | pa.ChunkedArray) -> np.ndarray:
    """Vectorized stable hash of a string column → uint64 ndarray.

    Dictionary-encodes first so the python-level blake2b loop runs once per
    DISTINCT value per batch (typically a few hundred conv_ids per 64k-row
    batch), then gathers.
    """
    if isinstance(arr, pa.ChunkedArray):
        arr = arr.combine_chunks()
    dic = arr.dictionary_encode()
    uniq = dic.dictionary.to_pylist()
    lut = np.fromiter(
        (hash64_str(u) if u is not None else 0 for u in uniq),
        dtype=np.uint64,
        count=len(uniq),
    )
    if len(lut) == 0:
        return np.zeros(len(arr), dtype=np.uint64)
    indices = dic.indices
    idx = indices.fill_null(0).to_numpy(zero_copy_only=False).astype(np.int64)
    out = lut[idx]
    if indices.null_count:
        import pyarrow.compute as pc

        out[pc.is_null(indices).to_numpy(zero_copy_only=False)] = 0
    return out


# --------------------------------------------------------------------------
# Morton (Z-order)
# --------------------------------------------------------------------------

_M = [
    np.uint64(0x0000FFFF0000FFFF),
    np.uint64(0x00FF00FF00FF00FF),
    np.uint64(0x0F0F0F0F0F0F0F0F),
    np.uint64(0x3333333333333333),
    np.uint64(0x5555555555555555),
]


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of each uint64 into even bit positions."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & _M[0]
    x = (x | (x << np.uint64(8))) & _M[1]
    x = (x | (x << np.uint64(4))) & _M[2]
    x = (x | (x << np.uint64(2))) & _M[3]
    x = (x | (x << np.uint64(1))) & _M[4]
    return x


def morton2(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Interleave two 32-bit coordinate arrays → uint64 Z-order key.

    ``a`` occupies the odd (higher) bit positions, ``b`` the even ones.
    """
    return (_part1by1(a) << np.uint64(1)) | _part1by1(b)


def morton2_scalar(a: int, b: int) -> int:
    """Slow bit-by-bit reference implementation (used by tests only)."""
    out = 0
    for i in range(32):
        out |= ((b >> i) & 1) << (2 * i)
        out |= ((a >> i) & 1) << (2 * i + 1)
    return out


# --------------------------------------------------------------------------
# Hilbert curve (2D, `order` bits per dimension)
# --------------------------------------------------------------------------


def hilbert_xy2d(order: int, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert distance for 2D points with ``order`` bits/dim."""
    x = x.astype(np.uint64).copy()
    y = y.astype(np.uint64).copy()
    d = np.zeros_like(x, dtype=np.uint64)
    s = np.uint64(1) << np.uint64(order - 1)
    one = np.uint64(1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.uint64)
        ry = ((y & s) > 0).astype(np.uint64)
        d += s * s * ((np.uint64(3) * rx) ^ ry)
        # rotate quadrant
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - one - x, x)
        y_f = np.where(flip, s - one - y, y)
        x, y = np.where(swap, y_f, x_f), np.where(swap, x_f, y_f)
        s >>= one
    return d


def hilbert_d2xy(order: int, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`hilbert_xy2d` (tests / round-trip verification)."""
    d = d.astype(np.uint64).copy()
    x = np.zeros_like(d)
    y = np.zeros_like(d)
    t = d.copy()
    one = np.uint64(1)
    s = np.uint64(1)
    top = np.uint64(1) << np.uint64(order)
    while s < top:
        rx = one & (t // np.uint64(2))
        ry = one & (t ^ rx)
        swap = ry == 0
        flip = swap & (rx == 1)
        x_f = np.where(flip, s - one - x, x)
        y_f = np.where(flip, s - one - y, y)
        x2 = np.where(swap, y_f, x_f)
        y2 = np.where(swap, x_f, y_f)
        x, y = x2, y2
        x += s * rx
        y += s * ry
        t //= np.uint64(4)
        s <<= one
    return x, y


def morton_nd(coords: list[np.ndarray], bits: int) -> np.ndarray:
    """N-dimensional Morton (Z-order) interleave: ``bits`` bits per
    dimension, dimension d contributing bit position b·ndim + d. Inputs are
    uint64 coordinate arrays already scaled to [0, 2^bits); output fits
    uint64 for bits·ndim ≤ 64. Vectorized: bits × ndim shift-or passes."""
    nd = len(coords)
    if bits * nd > 64:
        raise ValueError(f"{bits} bits × {nd} dims exceeds 64-bit key")
    out = np.zeros_like(coords[0], dtype=np.uint64)
    one = np.uint64(1)
    for b in range(bits):
        for d, c in enumerate(coords):
            out |= ((c >> np.uint64(b)) & one) << np.uint64(b * nd + d)
    return out
