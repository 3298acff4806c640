"""Multimodal (image/audio/video) column plumbing.

Media are opaque ``binary`` columns with typed metadata; decode /
feature-extract / resize / frame-sample run as actor-pool ``map_batches``
stages (model/codec state loaded once per actor in ``__init__``). The
stages decode a deterministic payload format (documented below) rather than
real image/audio codecs, which keeps the Ray-side plumbing — schema, batch
sizing, actor signature, output layout — real and checkable against the
DuckDB oracle. A real codec slots into each stage's ``_decode``/``_resize``
with the same output schema.

Fake payload format (synthesize_payloads): ``b"IMG1" + width:uint16_le +
height:uint16_le + pixel_bytes`` where pixel_bytes are derived from the
source text. Small ``batch_size`` is the knob for large payloads — a batch
of B payloads of P bytes must fit actor heap × concurrency.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema(
    [
        ("media_id", pa.int64()),
        ("kind", pa.string()),  # image | audio | video
        ("payload", pa.binary()),
        ("n_bytes", pa.int64()),
    ]
)


def synthesize_payloads(batch: pa.Table, *, id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """documents → fake image payload column (deterministic from text)."""
    ids = batch[id_col].to_pylist()
    payloads = []
    for t in batch[text_col].to_pylist():
        raw = (t or "").encode("utf-8")
        w = 1 + len(raw) % 640
        h = 1 + (len(raw) * 7) % 480
        payloads.append(b"IMG1" + int(w).to_bytes(2, "little") + int(h).to_bytes(2, "little") + raw)
    return pa.table(
        {
            "media_id": pa.array(ids, pa.int64()),
            "kind": pa.array(["image"] * len(ids), pa.string()),
            "payload": pa.array(payloads, pa.binary()),
            "n_bytes": pa.array([len(p) for p in payloads], pa.int64()),
        },
        schema=MEDIA_SCHEMA,
    )


class ImageDecoder:
    """Actor-pool stage: payload → (width, height, mean_byte, hist8 feature).

    The payload's IMG1 header gives the dims; the body is the pixel stream.
    """

    def _decode(self, p: bytes):
        """→ (width, height, uint8 pixel stream) or None for undecodable."""
        if len(p) < 8 or p[:4] != b"IMG1":
            return None
        w = int.from_bytes(p[4:6], "little")
        h = int.from_bytes(p[6:8], "little")
        return w, h, np.frombuffer(p[8:], dtype=np.uint8)

    def __call__(self, batch: pa.Table) -> pa.Table:
        widths, heights, means, hists = [], [], [], []
        for p in batch["payload"].to_pylist():
            dec = self._decode(p) if p is not None else None
            if dec is None:
                widths.append(None)
                heights.append(None)
                means.append(None)
                hists.append(None)
                continue
            w, h, px = dec
            widths.append(w)
            heights.append(h)
            means.append(float(px.mean()) if len(px) else 0.0)
            hist, _ = np.histogram(px, bins=8, range=(0, 256))
            hists.append((hist / max(1, len(px))).astype(np.float32).tolist())
        out = batch.drop_columns(["payload"])  # don't carry payloads forward
        out = out.append_column("width", pa.array(widths, pa.int32()))
        out = out.append_column("height", pa.array(heights, pa.int32()))
        out = out.append_column("mean_byte", pa.array(means, pa.float64()))
        return out.append_column("feature", pa.array(hists, pa.list_(pa.float32())))


class AudioFeatureExtractor:
    """Audio-analog actor-pool stage: payload → (sample_rate, duration_s,
    rms, band_energy[8]) — an MFCC-ish fixed-width feature row per clip.

    The payload body is read as deterministic int8 PCM at a fixed 16 kHz
    rate, and the feature math (RMS + 8-band energy via a strided fold — a
    stand-in for a mel filterbank) is real vectorized numpy, so schema /
    batch-size / actor-pool plumbing are fully exercised.
    """

    FAKE_RATE = 16_000

    def __init__(self, *, n_bands: int = 8):
        self.n_bands = n_bands

    def _decode(self, p: bytes):
        """→ (float64 mono pcm in [-1, 1], rate) or None for undecodable."""
        body = p[8:]
        if not body:
            return None
        return np.frombuffer(body, dtype=np.int8).astype(np.float64) / 128.0, self.FAKE_RATE

    def __call__(self, batch: pa.Table) -> pa.Table:
        rates, durs, rms_out, bands_out = [], [], [], []
        nb = self.n_bands
        for p in batch["payload"].to_pylist():
            dec = self._decode(p) if p is not None else None
            if dec is None or not len(dec[0]):
                rates.append(None)
                durs.append(None)
                rms_out.append(None)
                bands_out.append(None)
                continue
            pcm, rate = dec
            rates.append(rate)
            durs.append(len(pcm) / rate)
            rms_out.append(float(np.sqrt(np.mean(pcm * pcm))))
            pad = (-len(pcm)) % nb
            folded = np.pad(pcm, (0, pad)).reshape(nb, -1)
            e = np.sqrt((folded * folded).mean(axis=1))
            bands_out.append(e.astype(np.float32).tolist())
        out = batch.drop_columns(["payload"])
        out = out.append_column("sample_rate", pa.array(rates, pa.int32()))
        out = out.append_column("duration_s", pa.array(durs, pa.float64()))
        out = out.append_column("rms", pa.array(rms_out, pa.float64()))
        return out.append_column("band_energy", pa.array(bands_out, pa.list_(pa.float32())))


class ImageResizer:
    """Actor-pool resize stage: payload → resized payload + dims.

    A deterministic nearest-neighbor resample: the payload body is treated
    as the flattened pixel stream and sampled at ``target_w × target_h``
    evenly-spaced indices (vectorized numpy take), emitting a new IMG1
    payload — so batch sizing, payload lifecycle (input payload dropped,
    smaller output payload carried) and actor-pool plumbing are exercised
    end to end. Output dims are capped at the original dims
    (downsample-only), matching the oracle's ``least(width, target)``.
    """

    def __init__(self, *, target_w: int = 32, target_h: int = 32):
        self.tw = int(target_w)
        self.th = int(target_h)

    def _resize(self, p: bytes):
        """→ (w, h, out_w, out_h, payload bytes) or None for undecodable."""
        if len(p) < 8 or p[:4] != b"IMG1":
            return None
        w = int.from_bytes(p[4:6], "little")
        h = int.from_bytes(p[6:8], "little")
        px = np.frombuffer(p[8:], dtype=np.uint8)
        rw, rh = min(self.tw, w), min(self.th, h)
        n_out = rw * rh
        if len(px):
            idx = (np.arange(n_out, dtype=np.int64) * len(px)) // n_out
            out_px = px[idx]
        else:
            out_px = np.zeros(n_out, dtype=np.uint8)
        body = out_px.tobytes()
        return w, h, rw, rh, (
            b"IMG1" + rw.to_bytes(2, "little") + rh.to_bytes(2, "little") + body
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        ows, ohs, rws, rhs, payloads, nbytes = [], [], [], [], [], []
        for p in batch["payload"].to_pylist():
            res = self._resize(p) if p is not None else None
            if res is None:
                ows.append(None)
                ohs.append(None)
                rws.append(None)
                rhs.append(None)
                payloads.append(None)
                nbytes.append(None)
                continue
            w, h, rw, rh, out_payload = res
            payloads.append(out_payload)
            ows.append(w)
            ohs.append(h)
            rws.append(rw)
            rhs.append(rh)
            nbytes.append(len(out_payload))
        out = batch.drop_columns(["payload", "n_bytes"])
        out = out.append_column("width", pa.array(ows, pa.int32()))
        out = out.append_column("height", pa.array(ohs, pa.int32()))
        out = out.append_column("out_w", pa.array(rws, pa.int32()))
        out = out.append_column("out_h", pa.array(rhs, pa.int32()))
        out = out.append_column("n_bytes_out", pa.array(nbytes, pa.int64()))
        return out.append_column("payload", pa.array(payloads, pa.binary()))


class FrameSampler:
    """Video-analog stage: sample ``n_frames`` evenly-spaced byte-slices from
    each payload (real codec would seek keyframes; structure is identical)."""

    def __init__(self, *, n_frames: int = 4, frame_bytes: int = 16):
        self.n = n_frames
        self.fb = frame_bytes

    def __call__(self, batch: pa.Table) -> pa.Table:
        ids, frame_idx, frames = [], [], []
        for mid, p in zip(batch["media_id"].to_pylist(), batch["payload"].to_pylist()):
            body = (p or b"")[8:]
            if not body:
                continue
            for j in range(self.n):
                off = (j * max(1, len(body) - self.fb)) // max(1, self.n - 1) if self.n > 1 else 0
                ids.append(mid)
                frame_idx.append(j)
                frames.append(body[off : off + self.fb])
        return pa.table(
            {
                "media_id": pa.array(ids, pa.int64()),
                "frame_idx": pa.array(frame_idx, pa.int32()),
                "frame": pa.array(frames, pa.binary()),
            }
        )
