"""Embedding stage — canonical text rendering + batched embedding actors.

Text rendering mirrors the reference's canonical "Field: value | ..."
strings (agraph/embeddings/graph_embedding.py:309-370). The embedding
backend is pluggable (agraph/config.py:25-39 provider surface): production
slots an API-client actor (batch 64, bounded concurrency — the reference's
OpenAIEmbedding, graph_embedding.py:395-661); this environment ships
:class:`HashEmbedder`, a deterministic offline stand-in (md5-seeded
unit vectors) with the same actor contract, so the full embed → ANN →
retrieval path is real and testable without network.

Scale shape: ``map_batches`` over an actor pool; the embedder builds its
state once per actor in ``__init__``; embeddings are emitted as a
``list<float32>`` column (zero-copy Arrow FixedSizeList would also work but
plain list keeps parquet round-trips simple).
"""

from __future__ import annotations

import hashlib
from typing import Optional

import numpy as np
import pyarrow as pa

# rows per embed task — the Ray batch, not the API request (embed_dataset)
EMBED_BATCH_ROWS = 4096


def entity_to_text(name: str, description: str = "", aliases=None,
                   entity_type: str = "") -> str:
    """graph_embedding.py:309-325 rendering."""
    parts = [f"Entity: {name}"]
    if description:
        parts.append(f"Description: {description}")
    if aliases:
        parts.append(f"Aliases: {', '.join(aliases)}")
    parts.append(f"Type: {entity_type}")
    return " | ".join(parts)


def relation_to_text(head_name: str, relation_type: str, tail_name: str,
                     description: str = "") -> str:
    """graph_embedding.py:327-343 rendering."""
    parts = [f"Relation: {head_name} {relation_type} {tail_name}"]
    if description:
        parts.append(f"Description: {description}")
    return " | ".join(parts)


def chunk_to_text(content: str, title: str = "", source: str = "",
                  chunk_type: str = "") -> str:
    """graph_embedding.py:345-370 rendering."""
    parts = []
    if title:
        parts.append(f"Title: {title}")
    if content:
        parts.append(f"Content: {content}")
    if source:
        parts.append(f"Source: {source}")
    if chunk_type:
        parts.append(f"Type: {chunk_type}")
    return " | ".join(parts)


class HashEmbedder:
    """Deterministic offline embedder: text → md5-seeded unit vector.

    Same text → same vector on any worker/process (resumability), and
    near-identical texts map to unrelated vectors — adequate for testing
    the distribution/ANN plumbing, NOT a semantic model (production swaps
    in an API-client embedder with the identical __call__ contract)."""

    def __init__(self, dim: int = 64):
        self.dim = dim

    def embed_one(self, text: str) -> np.ndarray:
        seed = int.from_bytes(
            hashlib.md5((text or "").encode("utf-8")).digest()[:8], "little")
        rng = np.random.Generator(np.random.PCG64(seed))
        v = rng.standard_normal(self.dim).astype(np.float32)
        n = float(np.linalg.norm(v))
        return v / (n or 1.0)

    def embed_batch(self, texts) -> np.ndarray:
        return np.stack([self.embed_one(t) for t in texts])


class EmbedStage:
    """Actor-pool callable: renders ``text_from`` columns and appends an
    ``embedding`` list<float32> column. ``render`` picks the canonical
    rendering ("entity" | "relation" | "chunk" | "raw")."""

    def __init__(self, render: str = "raw", dim: int = 64,
                 text_col: str = "text", embedder=None):
        self.render = render
        self.text_col = text_col
        self.embedder = embedder or HashEmbedder(dim)

    def _texts(self, batch: pa.Table):
        if self.render == "entity":
            return [entity_to_text(n, d or "", a, t or "")
                    for n, d, a, t in zip(
                        batch["name"].to_pylist(),
                        batch["description"].to_pylist(),
                        batch["aliases"].to_pylist(),
                        batch["entity_type"].to_pylist())]
        if self.render == "relation":
            return [relation_to_text(s, r, o)
                    for s, r, o in zip(batch["subj"].to_pylist(),
                                       batch["relation_type"].to_pylist(),
                                       batch["obj"].to_pylist())]
        if self.render == "chunk":
            return [chunk_to_text(c or "", source=s or "", chunk_type=ct or "")
                    for c, s, ct in zip(batch["text"].to_pylist(),
                                        batch["conv_id"].to_pylist(),
                                        batch["chunk_type"].to_pylist())]
        return [t or "" for t in batch[self.text_col].to_pylist()]

    def __call__(self, batch: pa.Table) -> pa.Table:
        mat = self.embedder.embed_batch(self._texts(batch))
        col = pa.FixedSizeListArray.from_arrays(
            pa.array(mat.ravel(), pa.float32()), mat.shape[1])
        return batch.append_column("embedding", col)


def embed_dataset(ds: "ray.data.Dataset", render: str = "raw",
                  dim: int = 64, text_col: str = "text",
                  batch_size: Optional[int] = None,
                  concurrency: Optional[int] = None,
                  embedder=None) -> "ray.data.Dataset":
    """Append an ``embedding`` column.

    The Ray batch size is a TASK-granularity knob, not the embedding-API
    request size: the reference's batch-64 client batching
    (graph_embedding.py:404-405) belongs INSIDE the stage (a real client
    slices its request batches there) — using 64 as the Ray batch size
    spawned ~3,000 tasks for a 200k-edge table and task overhead dwarfed
    the compute (observed 26 s -> 3 s with 4096). The deterministic
    stand-in runs as elastic stateless tasks; pass ``concurrency`` to get
    an actor pool, the right shape for a real API-client embedder
    (connection + rate-limiter state per actor; zero-CPU actors per the
    endpoint-bound pool policy in
    ``stages.extract.extract_mentions_llm``). ``embedder`` swaps the
    deterministic HashEmbedder for a real client (e.g.
    ``clients.OpenAIEmbeddingClient.from_env()`` — picklable config-only,
    so each actor reconstructs its own connections)."""
    batch_size = batch_size or EMBED_BATCH_ROWS
    if concurrency:
        return ds.map_batches(
            EmbedStage, batch_format="pyarrow", batch_size=batch_size,
            fn_constructor_kwargs={"render": render, "dim": dim,
                                   "text_col": text_col,
                                   "embedder": embedder},
            concurrency=concurrency, num_cpus=0)
    stage = EmbedStage(render=render, dim=dim, text_col=text_col,
                       embedder=embedder)
    return ds.map_batches(stage, batch_format="pyarrow",
                          batch_size=batch_size)
