"""Multimodal column plumbing (image / audio / video as opaque binary).

The Ray-side plumbing is real and tested: schema (binary payload +
typed metadata), actor-pool stage shape, small batch sizes for wide
binary rows, and deterministic fake features for tests. The decode
kernels (``fake=False``) are REAL for the uncompressed interchange
formats — WAV PCM, 24-bit BMP, netpbm P5/P6 — via the stdlib decoders
in ``ops/rawmedia.py`` (wave/struct/numpy, no libraries); compressed
codecs (jpeg/png/mp3/mp4) still raise NotImplementedError at the same
boundary, naming the library to plug in (PIL/ffmpeg).

Equivalent reference surface: the vision-LLM ImageProcessor
(agraph/processer/image_processor.py:292-612) — an API-backed captioner that
plugs into the same actor slot.
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa

MEDIA_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("kind", pa.string()),              # "image" | "audio" | "video"
    ("payload", pa.binary()),           # opaque encoded bytes
    ("mime", pa.string()),
    ("width", pa.int32()),              # -1 when unknown / n-a
    ("height", pa.int32()),
    ("duration_ms", pa.int32()),
])


class MediaFeatureExtractor:
    """Actor-pool ``map_batches`` stage: payload → feature vector.

    ``fake=True`` (default here) produces a deterministic 16-d feature from
    the payload's md5 — exercising the full distributed path without codec
    libraries. ``fake=False`` REALLY decodes the uncompressed formats
    (WAV → rms/zcr/centroid/band descriptor, BMP/netpbm → color +
    luma-histogram descriptor; ``ops/rawmedia.py``) and raises
    NotImplementedError only for compressed codecs / video (plug
    PIL/ffmpeg/torchvision here).
    """

    FEATURE_DIM = 16

    def __init__(self, fake: bool = True):
        self.fake = fake
        # real implementation would load the model/codec once per actor here

    def _decode_and_embed(self, payload: bytes, kind: str) -> np.ndarray:
        if self.fake:
            digest = hashlib.md5(payload or b"").digest()
            raw = np.frombuffer(digest, dtype=np.uint8).astype(np.float32)
            return raw / 255.0
        from .rawmedia import image_features, wav_window_features
        if kind == "image":
            return image_features(payload or b"", self.FEATURE_DIM)
        if kind == "audio":
            feats, _ = wav_window_features(payload or b"", 1000,
                                           self.FEATURE_DIM)
            return feats.mean(axis=0)
        raise NotImplementedError(
            "video decoding requires ffmpeg — plug the decoder in here")

    def __call__(self, batch: pa.Table) -> pa.Table:
        feats = [self._decode_and_embed(p, k) for p, k in
                 zip(batch["payload"].to_pylist(), batch["kind"].to_pylist())]
        arr = pa.array([f.tolist() for f in feats],
                       pa.list_(pa.float32(), self.FEATURE_DIM))
        return pa.Table.from_arrays(
            [batch["media_id"].combine_chunks(),
             batch["kind"].combine_chunks(), arr],
            names=["media_id", "kind", "feature"])


def extract_media_features(ds: "ray.data.Dataset", fake: bool = True,
                           batch_size: int = 16,
                           concurrency: Optional[int] = 2):
    """Feature-extraction stage: SMALL batches (wide binary rows) on an
    actor pool (model loaded once per actor)."""
    return ds.map_batches(MediaFeatureExtractor,
                          fn_constructor_kwargs={"fake": fake},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


class MediaResizer:
    """Actor-pool stage: image payload → resized payload (width/height
    metadata updated). ``fake=True`` emits a deterministic payload digest
    of the requested size; ``fake=False`` REALLY resizes BMP/netpbm
    payloads (nearest-neighbour numpy kernel, re-encoded in the same
    container — ``ops/rawmedia.py``) and raises only for compressed
    codecs (plug PIL here — the kernel stays actor-held so a library
    loads once per actor)."""

    def __init__(self, width: int, height: int, fake: bool = True,
                 method: str = "nearest"):
        self.w, self.h = int(width), int(height)
        self.fake = fake
        self.method = method

    def _resize(self, payload: bytes) -> bytes:
        if not self.fake:
            from .rawmedia import (make_bmp, make_png, make_ppm,
                                   resize_bilinear, resize_nearest,
                                   sniff_decode_image)
            img = sniff_decode_image(payload or b"")
            kern = (resize_bilinear if self.method == "bilinear"
                    else resize_nearest)
            out = kern(img, self.w, self.h)
            if payload[:2] == b"BM":
                return make_bmp(out)
            if payload[:8] == b"\x89PNG\r\n\x1a\n":
                return make_png(out)
            return make_ppm(out)
        need = max(1, (self.w * self.h) // 64)
        out = bytearray()
        seed = payload or b""
        while len(out) < need:
            seed = hashlib.md5(seed).digest()
            out.extend(seed)
        return bytes(out[:need])

    def __call__(self, batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc
        resized = [self._resize(p) if k == "image" else p
                   for p, k in zip(batch["payload"].to_pylist(),
                                   batch["kind"].to_pylist())]
        is_img = pc.equal(batch["kind"], "image")
        w = pc.if_else(is_img, pa.scalar(self.w, pa.int32()),
                       batch["width"].combine_chunks())
        h = pc.if_else(is_img, pa.scalar(self.h, pa.int32()),
                       batch["height"].combine_chunks())
        t = batch.set_column(batch.schema.get_field_index("payload"),
                             "payload", pa.array(resized, pa.binary()))
        t = t.set_column(t.schema.get_field_index("width"), "width", w)
        return t.set_column(t.schema.get_field_index("height"), "height", h)


FRAMES_SCHEMA = pa.schema([
    ("media_id", pa.string()),
    ("frame_idx", pa.int32()),
    ("ts_ms", pa.int32()),
    ("payload", pa.binary()),
])


class VideoFrameSampler:
    """Actor-pool stage: one video row → one row per sampled frame
    (every ``every_ms`` through ``duration_ms``). The decode kernel is the
    stub boundary (``fake=False`` raises — plug ffmpeg here); the row
    expansion, frame schema and timestamps are real. Non-video rows are
    dropped."""

    def __init__(self, every_ms: int = 500, fake: bool = True):
        self.every_ms = int(every_ms)
        self.fake = fake

    def _frame(self, payload: bytes, ts_ms: int) -> bytes:
        if not self.fake:
            raise NotImplementedError(
                "real frame extraction requires ffmpeg — plug in here")
        return hashlib.md5((payload or b"")
                           + ts_ms.to_bytes(4, "little")).digest()

    def __call__(self, batch: pa.Table) -> pa.Table:
        mids, idxs, tss, frames = [], [], [], []
        for mid, kind, payload, dur in zip(
                batch["media_id"].to_pylist(), batch["kind"].to_pylist(),
                batch["payload"].to_pylist(),
                batch["duration_ms"].to_pylist()):
            if kind != "video" or not dur or dur <= 0:
                continue
            for i, ts in enumerate(range(0, dur, self.every_ms)):
                mids.append(mid)
                idxs.append(i)
                tss.append(ts)
                frames.append(self._frame(payload, ts))
        return pa.Table.from_arrays(
            [pa.array(mids, pa.string()), pa.array(idxs, pa.int32()),
             pa.array(tss, pa.int32()), pa.array(frames, pa.binary())],
            schema=FRAMES_SCHEMA)


def resize_images(ds: "ray.data.Dataset", width: int, height: int,
                  fake: bool = True, batch_size: int = 16,
                  concurrency: Optional[int] = 2,
                  method: str = "nearest"):
    return ds.map_batches(MediaResizer,
                          fn_constructor_kwargs={"width": width,
                                                 "height": height,
                                                 "fake": fake,
                                                 "method": method},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


def sample_video_frames(ds: "ray.data.Dataset", every_ms: int = 500,
                        fake: bool = True, batch_size: int = 16,
                        concurrency: Optional[int] = 2):
    return ds.map_batches(VideoFrameSampler,
                          fn_constructor_kwargs={"every_ms": every_ms,
                                                 "fake": fake},
                          batch_format="pyarrow", batch_size=batch_size,
                          concurrency=concurrency)


def synth_media(n: int = 64, seed: int = 5) -> pa.Table:
    """Deterministic fake media table for tests."""
    rng = np.random.default_rng(seed)
    rows = []
    kinds = ["image", "audio", "video"]
    for i in range(n):
        kind = kinds[i % 3]
        payload = rng.integers(0, 256, size=int(rng.integers(64, 512)),
                               dtype=np.uint8).tobytes()
        rows.append({"media_id": f"m{i:05d}", "kind": kind,
                     "payload": payload, "mime": f"{kind}/fake",
                     "width": 64 if kind == "image" else -1,
                     "height": 64 if kind == "image" else -1,
                     "duration_ms": 1000 if kind != "image" else -1})
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


class AudioChunker:
    """Actor-pool ``map_batches`` stage: audio payload → fixed-length
    window rows (the audio analogue of VideoFrameSampler). Real decoding
    (ffmpeg/librosa) is the per-actor kernel slot; the deterministic
    ``fake`` path derives windows from ``duration_ms`` and synthesizes a
    16-byte per-window "spectral" digest from (payload, window index) —
    exercising schema, row expansion, and batch sizing end to end.

    → one row per window: (media_id, window_idx, start_ms, end_ms,
    feature: fixed_size_list<float32, 16>).
    """

    FEATURE_DIM = 16

    def __init__(self, window_ms: int = 1000, fake: bool = True):
        self.window_ms = window_ms
        self.fake = fake
        # real implementation: load the codec / feature model once here

    def _window_feature(self, payload: bytes, idx: int) -> np.ndarray:
        digest = hashlib.md5((payload or b"") + idx.to_bytes(4, "little")
                             ).digest()
        return np.frombuffer(digest, dtype=np.uint8).astype(
            np.float32) / 255.0

    def _payload_windows(self, payload: bytes, dur: int):
        """→ (features (n_win, FEATURE_DIM), duration_ms). fake=False
        decodes WAV PCM once per payload (rawmedia; real rms/zcr/
        centroid/band features, actual duration from the stream —
        compressed audio raises, plug ffmpeg/librosa in here)."""
        if not self.fake:
            from .rawmedia import wav_window_features
            return wav_window_features(payload or b"", self.window_ms,
                                       self.FEATURE_DIM)
        dur = max(int(dur or 0), 0)
        n_win = max((dur + self.window_ms - 1) // self.window_ms, 1)
        return np.stack([self._window_feature(payload, i)
                         for i in range(n_win)]), dur

    def __call__(self, batch: pa.Table) -> pa.Table:
        o_id, o_idx, o_s, o_e, o_f = [], [], [], [], []
        for mid, kind, payload, dur in zip(
                batch["media_id"].to_pylist(), batch["kind"].to_pylist(),
                batch["payload"].to_pylist(),
                batch["duration_ms"].to_pylist()):
            if kind != "audio":
                continue
            feats, dur = self._payload_windows(payload, dur)
            for i in range(len(feats)):
                o_id.append(mid)
                o_idx.append(i)
                o_s.append(i * self.window_ms)
                o_e.append(min((i + 1) * self.window_ms, dur)
                           if dur else self.window_ms)
                o_f.append(feats[i].tolist())
        return pa.table({
            "media_id": pa.array(o_id, pa.string()),
            "window_idx": pa.array(o_idx, pa.int32()),
            "start_ms": pa.array(o_s, pa.int32()),
            "end_ms": pa.array(o_e, pa.int32()),
            "feature": pa.array(o_f, pa.list_(pa.float32(),
                                              self.FEATURE_DIM))})


def chunk_audio(ds: "ray.data.Dataset", window_ms: int = 1000,
                fake: bool = True,
                concurrency: int = 4) -> "ray.data.Dataset":
    """Audio → per-window feature rows via the AudioChunker actor pool
    (small batches: binary payload rows are wide)."""
    return ds.map_batches(AudioChunker, fn_constructor_kwargs={
        "window_ms": window_ms, "fake": fake},
        batch_size=32, concurrency=concurrency,
        batch_format="pyarrow")


_CAPTION_PROMPT = (
    "Describe this image thoroughly: the objects, people and setting; "
    "any actions; colours, lighting and composition; any visible text; "
    "and the overall mood and style."
)   # intent-equivalent of the reference's default analysis prompt
#     (image_processor.py:324-333)


class ImageCaptioner:
    """Actor-pool stage for the vision-LLM ImageProcessor surface
    (image_processor.py:292-612): each image row → a caption from a
    multimodal chat model, sent as the OpenAI-compatible content-parts
    message (text + base64 data-URL — :128-137). Latency-bound pool
    shape: the client is built once per actor via ``client_factory``
    and each batch fans over an internal thread pool (``max_concurrent``
    in-flight per actor), same as the extraction/judge pools. Non-image
    rows pass through with a null caption."""

    def __init__(self, client_factory, prompt: str = _CAPTION_PROMPT,
                 max_concurrent: int = 8):
        from concurrent.futures import ThreadPoolExecutor
        self.client = client_factory()
        self.prompt = prompt
        self.pool = ThreadPoolExecutor(max_workers=max_concurrent)

    def _caption(self, payload: bytes, mime: str) -> str:
        import base64
        b64 = base64.b64encode(payload or b"").decode("ascii")
        messages = [{"role": "user", "content": [
            {"type": "text", "text": self.prompt},
            {"type": "image_url",
             "image_url": {"url": f"data:{mime or 'image/jpeg'};"
                                  f"base64,{b64}"}},
        ]}]
        try:
            return self.client.complete_messages(messages)
        except Exception as e:  # noqa: BLE001 — one bad image, one row
            return f"[caption failed: {type(e).__name__}]"

    def __call__(self, batch: pa.Table) -> pa.Table:
        rows = list(zip(batch["payload"].to_pylist(),
                        batch["mime"].to_pylist(),
                        batch["kind"].to_pylist()))
        caps = list(self.pool.map(
            lambda r: self._caption(r[0], r[1]) if r[2] == "image"
            else None, rows))
        return batch.append_column("caption",
                                   pa.array(caps, pa.string()))


def caption_images(ds: "ray.data.Dataset", client_factory,
                   prompt: str = _CAPTION_PROMPT,
                   concurrency: int = 4, batch_size: int = 8,
                   max_concurrent: int = 8) -> "ray.data.Dataset":
    """Vision captioning over a media table — the reference's
    ImageProcessor as a latency-bound actor pool (in-flight =
    concurrency x max_concurrent, decoupled from CPUs; zero-CPU actors
    per the policy in ``stages.extract.extract_mentions_llm``)."""
    return ds.map_batches(
        ImageCaptioner,
        fn_constructor_kwargs={"client_factory": client_factory,
                               "prompt": prompt,
                               "max_concurrent": max_concurrent},
        batch_format="pyarrow", batch_size=batch_size,
        concurrency=concurrency, num_cpus=0)


def extract_media_metadata(ds: "ray.data.Dataset") -> "ray.data.Dataset":
    """Header-only metadata per media row (rawmedia.media_metadata) as
    a schema-stable JSON column + payload size — the media analogue of
    ops/parse.py::extract_document_metadata, same poison-pill
    contract."""
    import json

    def f(batch: pa.Table) -> pa.Table:
        from .rawmedia import media_metadata
        metas, sizes = [], []
        for p in batch["payload"].to_pylist():
            sizes.append(len(p or b""))
            try:
                metas.append(json.dumps(media_metadata(p),
                                        sort_keys=True))
            except Exception as e:  # noqa: BLE001 — poison-pill guard
                metas.append(json.dumps(
                    {"error": f"{type(e).__name__}: {e}"}))
        return (batch.append_column("metadata",
                                    pa.array(metas, pa.string()))
                .append_column("content_bytes",
                               pa.array(sizes, pa.int64())))

    return ds.map_batches(f, batch_format="pyarrow")
