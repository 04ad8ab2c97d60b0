"""Mock-latency LLM transport + actor-pool extraction stage (round-3
verdict #1 machinery). Pins:

- transport determinism (same prompt → same completion, across
  instances) and the retryable-503 path;
- the actor-pool path (:func:`extract_mentions_llm`) produces EXACTLY
  the rows of the single-task path with the same engine — threading
  and actor count change nothing;
- a pool with more actors than cluster CPUs completes (the livelock
  guard: the actors reserve no CPU, so they cannot starve their own
  upstream repartition — observed hang when pools reserved CPUs).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data as rd

from agraph_ray.config import KGConfig

TEXT = ("Alice Johnson visited Acme Corp in Paris. Bob Smith from "
        "Initech met Carol at the Louvre Museum.")


def test_mock_transport_deterministic():
    from agraph_ray.mock_llm import MockLatencyTransport
    t1 = MockLatencyTransport(latency_sec=0.0)
    t2 = MockLatencyTransport(latency_sec=0.0)
    payload = {"messages": [{"role": "user",
                             "content": f"...\nText:\n{TEXT}\nRespond with"}]}
    r1 = t1("http://x/chat/completions", payload, {}, 1.0)
    r2 = t2("http://x/chat/completions", payload, {}, 1.0)
    assert r1 == r2
    assert "entities" in r1["choices"][0]["message"]["content"]


def test_mock_transport_retryable_failure_then_success():
    from agraph_ray.mock_llm import mock_chat_client
    # fail_rate=1.0: every FIRST attempt 503s, the retry succeeds —
    # exercises the client's backoff loop end to end
    c = mock_chat_client(latency_sec=0.0, fail_rate=1.0)
    out = c(f"...\nText:\n{TEXT}\nRespond with")
    assert "entities" in out


def test_mock_embeddings_shape():
    from agraph_ray.clients import ClientConfig, OpenAIEmbeddingClient
    from agraph_ray.mock_llm import MockLatencyTransport
    tr = MockLatencyTransport(latency_sec=0.0, embedding_dim=16)
    c = OpenAIEmbeddingClient(ClientConfig(embedding_dim=16),
                              transport=tr)
    m = c.embed_batch(["a", "b", "c"])
    assert m.shape == (3, 16)
    assert not np.allclose(m[0], m[1])          # distinct texts differ
    assert np.allclose(m[0], c.embed_batch(["a"])[0])   # deterministic


def test_llm_actor_pool_matches_single_task(ray_session):
    """Actor-pool fan-out must be a pure execution-strategy change."""
    from agraph_ray.mock_llm import mock_llm_engine_factory
    from agraph_ray.stages.extract import (extract_mentions,
                                           extract_mentions_llm)

    docs = pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(40)]),
        "doc_seq": pa.array([0] * 40, pa.int32()),
        "n_turns": pa.array([3] * 40, pa.int64()),
        "text": pa.array([f"{TEXT} Doc{i} Topic{i % 7}."
                          for i in range(40)]),
    })
    factory = mock_llm_engine_factory(latency_sec=0.0)

    def collect(ds):
        # concat as Arrow (ragged list cols defeat Ray's tensor cast)
        tabs = list(ds.iter_batches(batch_size=None,
                                    batch_format="pyarrow"))
        return pa.concat_tables(tabs).to_pandas()

    ds = rd.from_arrow(docs)
    a = collect(extract_mentions_llm(ds, KGConfig(),
                                     engine_factory=factory,
                                     num_actors=8, max_concurrent=4,
                                     batch_size=8))
    b = collect(extract_mentions(rd.from_arrow(docs), KGConfig(),
                                 engine=factory()))

    key = ["kind", "conv_id", "entity_id", "relation_id", "name",
           "subj", "pred", "obj"]

    def norm(df):
        df = df.copy()
        df["aliases"] = df["aliases"].map(
            lambda v: tuple(v) if isinstance(v, (list, np.ndarray)) else v)
        return (df.sort_values(key, kind="mergesort")
                .reset_index(drop=True)[sorted(df.columns)])

    pd.testing.assert_frame_equal(norm(a), norm(b), check_dtype=False)


def test_llm_pool_cpu_reservation_capped(ray_session):
    """A pool sized past the cluster must still complete (endpoint-bound
    actors reserve no CPU, so any actor count leaves the upstream tasks
    their CPUs)."""
    from agraph_ray.mock_llm import mock_llm_engine_factory
    from agraph_ray.stages.extract import extract_mentions_llm

    docs = pa.table({
        "conv_id": pa.array([f"c{i}" for i in range(12)]),
        "doc_seq": pa.array([0] * 12, pa.int32()),
        "n_turns": pa.array([1] * 12, pa.int64()),
        "text": pa.array([f"{TEXT} Case {i}." for i in range(12)]),
    })
    # 8 actors on the 4-CPU test cluster: twice the CPU count
    out = extract_mentions_llm(
        rd.from_arrow(docs), KGConfig(),
        engine_factory=mock_llm_engine_factory(latency_sec=0.0),
        num_actors=8, max_concurrent=2, batch_size=4)
    assert out.count() > 0
