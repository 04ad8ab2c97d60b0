"""Production API clients for the LLM extractor/judge and the embedder.

Env-gated: this sandbox has no network, so the default transport (stdlib
``urllib``) is exercised only in production; every other piece — request
construction, retry/backoff, bounded concurrency, batch slicing, the
zero-vector fallback — is pure logic tested against injected mock
transports (tests/test_clients.py).

Reference semantics being matched:

- embeddings: request batches of 64, at most ``max_concurrent`` requests
  in flight, zero-vector fallback for a batch that still fails after
  retries (/root/reference/agraph/embeddings/graph_embedding.py:395-661,
  fallback at :563-566), output length always equals input length.
- chat: OpenAI-compatible ``/chat/completions`` built from the Settings
  env surface OPENAI_API_KEY / OPENAI_API_BASE / LLM_MODEL /
  LLM_TEMPERATURE / LLM_MAX_TOKENS
  (/root/reference/agraph/config.py:16-40); bounded concurrency lives in
  the caller (one request per actor call — the Ray actor pool is the
  semaphore, replacing llm_builders.py:216-229's asyncio semaphore).

Both clients hold only plain config (picklable) — construct them in an
actor's ``__init__`` and they open connections lazily per request. Wiring:

    build_kg(inp, out, cfg, engine_factory=llm_engine_from_env)
    embed_dataset(ds, concurrency=8,
                  embedder=OpenAIEmbeddingClient.from_env())
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "ClientConfig", "TransportError", "OpenAICompatClient",
    "OpenAIEmbeddingClient", "llm_engine_from_env",
]


@dataclass(frozen=True)
class ClientConfig:
    """Connection + retry knobs, read from the reference's env surface."""

    api_key: str = ""
    api_base: str = "https://api.openai.com/v1"
    model: str = "gpt-3.5-turbo"
    temperature: float = 0.0
    max_tokens: int = 4096
    embedding_model: str = "text-embedding-3-small"
    embedding_dim: int = 1024
    batch_size: int = 64          # texts per embeddings request
    max_concurrent: int = 5       # in-flight embeddings requests
    max_retries: int = 5
    backoff_base: float = 0.5     # sec; doubles per attempt
    backoff_cap: float = 30.0
    timeout: float = 60.0

    @classmethod
    def from_env(cls, **overrides) -> "ClientConfig":
        env = os.environ
        kw = dict(
            api_key=env.get("OPENAI_API_KEY", ""),
            api_base=env.get("OPENAI_API_BASE", "https://api.openai.com/v1"),
            model=env.get("LLM_MODEL", "gpt-3.5-turbo"),
            temperature=float(env.get("LLM_TEMPERATURE", "0.0")),
            max_tokens=int(env.get("LLM_MAX_TOKENS", "4096")),
            embedding_model=env.get("EMBEDDING_MODEL",
                                    "text-embedding-3-small"),
            embedding_dim=int(env.get("EMBEDDING_DIM", "1024")),
        )
        kw.update(overrides)
        return cls(**kw)


class TransportError(Exception):
    """HTTP/connection failure. ``retryable`` drives the backoff loop:
    429 and 5xx (and raw connection errors, status=None) retry; other
    4xx fail fast (a bad request never heals)."""

    def __init__(self, msg: str, status: Optional[int] = None):
        super().__init__(msg)
        self.status = status

    @property
    def retryable(self) -> bool:
        return self.status is None or self.status == 429 or \
            self.status >= 500


def _urllib_transport(url: str, payload: dict, headers: dict,
                      timeout: float) -> dict:
    """Default production transport: one POST, JSON in/out, stdlib only."""
    import urllib.error
    import urllib.request
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json", **headers},
        method="POST")
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return json.loads(resp.read().decode("utf-8"))
    except urllib.error.HTTPError as e:
        raise TransportError(f"HTTP {e.code}: {e.reason}",
                             status=e.code) from e
    except urllib.error.URLError as e:
        raise TransportError(f"connection failed: {e.reason}") from e
    except TimeoutError as e:
        raise TransportError("request timed out") from e


Transport = Callable[[str, dict, dict, float], dict]


class _BaseClient:
    """Shared retry/backoff machinery. ``transport`` and ``sleep`` are
    injectable for tests; exponential backoff with ±25% deterministic
    jitter (hash of the attempt count — no RNG state to resume)."""

    def __init__(self, cfg: Optional[ClientConfig] = None,
                 transport: Transport = _urllib_transport,
                 sleep: Callable[[float], None] = time.sleep):
        self.cfg = cfg or ClientConfig()
        self.transport = transport
        self.sleep = sleep

    @classmethod
    def from_env(cls, **overrides):
        return cls(ClientConfig.from_env(**overrides))

    def _headers(self) -> dict:
        return {"Authorization": f"Bearer {self.cfg.api_key}"}

    def _post(self, path: str, payload: dict) -> dict:
        url = self.cfg.api_base.rstrip("/") + path
        last: Optional[Exception] = None
        for attempt in range(self.cfg.max_retries + 1):
            try:
                return self.transport(url, payload, self._headers(),
                                      self.cfg.timeout)
            except TransportError as e:
                last = e
                if not e.retryable or attempt == self.cfg.max_retries:
                    raise
                delay = min(self.cfg.backoff_cap,
                            self.cfg.backoff_base * (2 ** attempt))
                jitter = 0.75 + 0.5 * ((hash((path, attempt)) & 0xFF) / 255)
                self.sleep(delay * jitter)
        raise last  # unreachable; keeps type-checkers honest


class OpenAICompatClient(_BaseClient):
    """``Callable[[str], str]`` chat client — the exact contract
    :class:`agraph_ray.extract.llm.LLMExtractorEngine` and
    :class:`~agraph_ray.extract.llm.LLMPairJudge` take. One request per
    call; concurrency comes from the Ray actor pool around it."""

    def __call__(self, prompt: str) -> str:
        return self.complete_messages(
            [{"role": "user", "content": prompt}])

    def complete_messages(self, messages: list) -> str:
        """Arbitrary chat messages — the multimodal shape (content as a
        list of text + image_url parts, image_processor.py:128-137)
        goes through the same retry/backoff/parse path as plain text."""
        resp = self._post("/chat/completions", {
            "model": self.cfg.model,
            "messages": messages,
            "temperature": self.cfg.temperature,
            "max_tokens": self.cfg.max_tokens,
        })
        try:
            return resp["choices"][0]["message"]["content"] or ""
        except (KeyError, IndexError, TypeError) as e:
            raise TransportError(f"malformed completion response: {e}",
                                 status=200) from e


class OpenAIEmbeddingClient(_BaseClient):
    """Batch embedding client with the reference's exact failure contract:
    requests go out in slices of ``cfg.batch_size`` with at most
    ``cfg.max_concurrent`` in flight; a slice that exhausts its retries
    contributes zero vectors (graph_embedding.py:563-566) so one bad batch
    never kills a 10^9-row embedding job; the output row count always
    equals the input row count (:601 length clamp)."""

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        from concurrent.futures import ThreadPoolExecutor
        cfg = self.cfg
        texts = list(texts)
        if not texts:
            return np.zeros((0, cfg.embedding_dim), dtype=np.float32)
        slices = [texts[i:i + cfg.batch_size]
                  for i in range(0, len(texts), cfg.batch_size)]

        def one(batch: List[str]) -> np.ndarray:
            try:
                resp = self._post("/embeddings", {
                    "model": cfg.embedding_model,
                    "input": [t or "" for t in batch],
                })
                data = sorted(resp["data"], key=lambda d: d["index"])
                mat = np.asarray([d["embedding"] for d in data],
                                 dtype=np.float32)
                if mat.shape != (len(batch), cfg.embedding_dim):
                    raise ValueError(f"bad embedding shape {mat.shape}")
            except Exception:
                # zero-vector fallback, one slice's blast radius only
                return np.zeros((len(batch), cfg.embedding_dim),
                                dtype=np.float32)
            return mat

        if len(slices) == 1:
            parts = [one(slices[0])]
        else:
            with ThreadPoolExecutor(max_workers=cfg.max_concurrent) as ex:
                parts = list(ex.map(one, slices))
        return np.concatenate(parts, axis=0)[:len(texts)]

    # EmbedStage contract alias (stages/embed.py expects .embed_batch and
    # .embed_one; one() on a single text is just a 1-row batch)
    def embed_one(self, text: str) -> np.ndarray:
        return self.embed_batch([text])[0]


def llm_engine_from_env(**overrides):
    """One-liner production wiring: env → chat client → extractor engine.

    >>> build_kg(inp, out, cfg, engine_factory=llm_engine_from_env)
    """
    from .extract.llm import LLMExtractorEngine
    return LLMExtractorEngine(OpenAICompatClient.from_env(**overrides))
