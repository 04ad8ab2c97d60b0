"""Counting wrappers around the package's mock LLM transport.

The extract, judge and embedding clients run inside Ray actors, so the
counts cannot live in the benchmark process's memory. Each wrapped call
appends one line ``<tag> <outcome> <seconds>`` to a per-process file under
a log directory (one ``write`` of a short line in append mode); the
benchmark process sums the files after the op. Outcomes:

- ``ok``    — the transport answered;
- ``retry`` — the transport raised (e.g. a mock 503); the client retries;
- ``fail``  — the client gave up after its retries (counted by
  :class:`CountingChat`, one level above the transport).

Every object here is picklable and importable by path, so it ships into
actor constructors unchanged.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Dict

EMBEDDING_DIM = 64


def _log(log_dir: str, tag: str, outcome: str, seconds: float) -> None:
    with open(os.path.join(log_dir, f"{os.getpid()}.log"), "a") as fh:
        fh.write(f"{tag} {outcome} {seconds:.6f}\n")


class CountingTransport:
    """``Transport``-signature wrapper: times and counts every call."""

    def __init__(self, inner, log_dir: str, tag: str):
        self.inner = inner
        self.log_dir = log_dir
        self.tag = tag

    def __call__(self, url: str, payload: dict, headers: dict,
                 timeout: float) -> dict:
        t0 = time.perf_counter()
        try:
            out = self.inner(url, payload, headers, timeout)
        except Exception:
            _log(self.log_dir, self.tag, "retry", time.perf_counter() - t0)
            raise
        _log(self.log_dir, self.tag, "ok", time.perf_counter() - t0)
        return out


class CountingChat:
    """``Callable[[str], str]`` chat client wrapper that records a request
    the client could not complete (the engine would silently turn it into
    an empty extraction, the judge into a "no")."""

    def __init__(self, client, log_dir: str, tag: str):
        self.client = client
        self.log_dir = log_dir
        self.tag = tag

    def __call__(self, prompt: str) -> str:
        try:
            return self.client(prompt)
        except Exception:
            _log(self.log_dir, self.tag, "fail", 0.0)
            raise


class AlwaysBusyTransport:
    """A transport that answers every call with a retryable 503 — the
    benchmark's own tests use it to check that an outage is reported as
    failed ops, not as faster ones."""

    def __call__(self, url: str, payload: dict, headers: dict,
                 timeout: float) -> dict:
        from agraph_ray.clients import TransportError
        raise TransportError("503: always busy", status=503)


@dataclass
class MockEndpoint:
    """One mock endpoint configuration shared by the three clients."""
    log_dir: str
    latency_sec: float = 0.05
    fail_rate: float = 0.0
    seed: int = 0
    transport_factory: object = None   # tests swap in a failing transport

    def _transport(self, tag: str, latency: float):
        from agraph_ray.mock_llm import MockLatencyTransport
        inner = (self.transport_factory() if self.transport_factory
                 else MockLatencyTransport(latency, 0.5, self.fail_rate,
                                           self.seed,
                                           embedding_dim=EMBEDDING_DIM))
        return CountingTransport(inner, self.log_dir, tag)

    def chat(self, tag: str):
        from agraph_ray.clients import ClientConfig, OpenAICompatClient
        cfg = ClientConfig(backoff_base=0.05, backoff_cap=0.2)
        client = OpenAICompatClient(
            cfg, transport=self._transport(tag, self.latency_sec))
        return CountingChat(client, self.log_dir, tag)

    def embedder(self):
        from agraph_ray.clients import ClientConfig, OpenAIEmbeddingClient
        cfg = ClientConfig(backoff_base=0.05, backoff_cap=0.2,
                           embedding_dim=EMBEDDING_DIM)
        return OpenAIEmbeddingClient(cfg, transport=self._transport("embed", 0.0))


class EngineFactory:
    """Zero-arg engine factory for the LLM extract pool."""

    def __init__(self, endpoint: MockEndpoint):
        self.endpoint = endpoint

    def __call__(self):
        from agraph_ray.extract.llm import LLMExtractorEngine
        return LLMExtractorEngine(self.endpoint.chat("extract"))


class JudgeFactory:
    """Zero-arg chat-client factory for the pair-judge pool."""

    def __init__(self, endpoint: MockEndpoint):
        self.endpoint = endpoint

    def __call__(self):
        return self.endpoint.chat("judge")


def read_counts(log_dir: str) -> Dict[str, float]:
    """Sum every process's log: ``<tag>.<outcome>`` counts and
    ``<tag>.seconds`` (in-flight transport seconds)."""
    out: Dict[str, float] = {}
    for f in os.listdir(log_dir):
        with open(os.path.join(log_dir, f)) as fh:
            for line in fh:
                tag, outcome, sec = line.split()
                out[f"{tag}.{outcome}"] = out.get(f"{tag}.{outcome}", 0) + 1
                out[f"{tag}.seconds"] = out.get(f"{tag}.seconds", 0.0) + float(sec)
    return out


def reset(log_dir: str) -> None:
    os.makedirs(log_dir, exist_ok=True)
    for f in os.listdir(log_dir):
        os.remove(os.path.join(log_dir, f))
