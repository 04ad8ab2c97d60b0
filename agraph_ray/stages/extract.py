"""Stage C — mention/triple extraction.

``documents(conv_id, doc_seq, text)`` → combined ``mentions`` table with one
row per extracted entity (kind="entity") or triple (kind="triple").

Architecture (BASELINE.json north_star step 2): a stateful actor-pool
``map_batches`` stage. The extractor engine compiles its ~45 regexes once
per actor in ``__init__``; ``__call__`` processes a batch of documents and
emits one Arrow table. The deterministic :class:`RuleExtractor` engine is
the default (and the one the P/R fixtures gate on); any engine with an
``extract(text) -> (entities, triples)`` method can be substituted — the
production LLM extractor slot (agraph/extractors/llm_entity_extractor.py
semantics) plugs in here without touching the pipeline.

Emitting entities and triples as one table (discriminated by ``kind``) lets
the pipeline run extraction exactly once, checkpoint it as one Parquet
dataset, and serve both the node branch and the edge branch with
predicate-pushdown reads — no double execution, no mid-pipeline
materialization.
"""

from __future__ import annotations

import functools
from typing import List, Optional

import pyarrow as pa

from ..config import KGConfig
from ..extract.rules import RuleExtractor
from ..ids import entity_id, relation_id

MENTIONS_SCHEMA = pa.schema([
    ("kind", pa.string()),            # "entity" | "triple"
    ("conv_id", pa.string()),
    ("doc_seq", pa.int32()),
    # entity fields (null for triples)
    ("entity_id", pa.string()),
    ("name", pa.string()),            # original-case matched name
    ("norm_name", pa.string()),       # lower().strip() dedup key
    ("entity_type", pa.string()),
    ("description", pa.string()),
    ("aliases", pa.list_(pa.string())),
    # triple fields (null for entities)
    ("relation_id", pa.string()),
    ("subj", pa.string()),
    ("subj_type", pa.string()),
    ("pred", pa.string()),
    ("obj", pa.string()),
    ("obj_type", pa.string()),
    ("head_id", pa.string()),
    ("tail_id", pa.string()),
    # shared (``description`` above serves both branches: entity
    # description / relation description, agraph/relations.py:17-48)
    ("properties", pa.string()),      # JSON-encoded dict, null when empty
                                      # (SURVEY §1.3: lossless vs reference
                                      # Dict[str,Any] properties)
    ("confidence", pa.float64()),
    ("source", pa.string()),
    # per-document combiner outputs: occurrence count of this mention in
    # this document; n_convs is the entity branch's conversation-count seed
    ("n_mentions", pa.int64()),
    ("n_convs", pa.int64()),
])

_ENT_FIELDS = ["kind", "conv_id", "doc_seq", "entity_id", "name", "norm_name",
               "entity_type", "description", "aliases", "properties",
               "confidence", "source", "n_mentions", "n_convs"]
_TRI_FIELDS = ["kind", "conv_id", "doc_seq", "relation_id", "subj",
               "subj_type", "pred", "obj", "obj_type", "head_id", "tail_id",
               "description", "properties", "confidence", "source",
               "n_mentions"]


def _props_json(d) -> "str | None":
    import json
    return json.dumps(d, sort_keys=True, ensure_ascii=False) if d else None


class ExtractStage:
    """``map_batches`` actor-pool callable for the extraction stage.

    Emits mentions *pre-combined per document*: the engine already dedups
    entities in-document, and triples are collapsed here to one row per
    distinct (subj, pred, obj) with the max-confidence witness and an
    occurrence count — the exact merge the downstream dedup stage applies
    anyway (dedup.py merge semantics). At reference semantics the
    co-occurrence stream is quadratic per sentence; combining at the source
    shrinks the mentions checkpoint/shuffle from one row per occurrence to
    one row per distinct mention per document."""

    def __init__(self, cfg: Optional[KGConfig] = None, engine=None):
        cfg = cfg or KGConfig()
        # regex compilation happens once per actor, not once per batch
        self.engine = engine or RuleExtractor(
            confidence_threshold=cfg.confidence_threshold,
            max_keywords=cfg.max_keywords)

    def _extract_rows(self, texts):
        """One (entities, [(triple, count)]) engine result per text, in
        order. Engines exposing ``extract_agg`` (the rule engine) emit
        the quadratic co-occurrence stream pre-aggregated — one triple
        per DISTINCT (subj, pred, obj) per doc instead of per
        occurrence; plain ``extract`` engines are wrapped with count 1.
        Subclasses override for latency-bound engines (threaded
        fan-out); the base implementation is the CPU-bound serial
        loop."""
        agg = getattr(self.engine, "extract_agg", None)
        if agg is not None:
            return [agg(t or "") for t in texts]
        return [self._wrap(self.engine.extract(t or "")) for t in texts]

    @staticmethod
    def _wrap(res):
        ents, triples = res
        return ents, [(t, 1) for t in triples]

    def __call__(self, batch: pa.Table) -> pa.Table:
        ent = {f: [] for f in _ENT_FIELDS}
        tri = {f: [] for f in _TRI_FIELDS}
        results = self._extract_rows(batch["text"].to_pylist())
        for conv, seq, (ents, triples) in zip(
                batch["conv_id"].to_pylist(),
                batch["doc_seq"].to_pylist(), results):
            for e in ents:
                ent["kind"].append("entity")
                ent["conv_id"].append(conv)
                ent["doc_seq"].append(seq)
                ent["entity_id"].append(entity_id(e.name))
                ent["name"].append(e.name)
                ent["norm_name"].append(e.key)
                ent["entity_type"].append(e.etype)
                ent["description"].append(e.description)
                ent["aliases"].append(e.aliases)
                ent["properties"].append(_props_json(e.properties))
                ent["confidence"].append(e.confidence)
                ent["source"].append(e.source)
                ent["n_mentions"].append(1)
                ent["n_convs"].append(1)
            agg = {}
            for t, n in triples:
                k = (t.subj, t.pred, t.obj)
                cur = agg.get(k)
                if cur is None:
                    agg[k] = [t, n]
                else:
                    cur[1] += n
                    if t.confidence > cur[0].confidence:
                        cur[0] = t
            for (s, p, o), (t, n) in agg.items():
                tri["kind"].append("triple")
                tri["conv_id"].append(conv)
                tri["doc_seq"].append(seq)
                tri["relation_id"].append(relation_id(s, p, o))
                tri["subj"].append(s)
                tri["subj_type"].append(t.subj_type)
                tri["pred"].append(p)
                tri["obj"].append(o)
                tri["obj_type"].append(t.obj_type)
                tri["head_id"].append(entity_id(s))
                tri["tail_id"].append(entity_id(o))
                tri["description"].append(t.description or None)
                tri["properties"].append(_props_json(t.properties))
                tri["confidence"].append(t.confidence)
                tri["source"].append(t.source)
                tri["n_mentions"].append(n)

        n_ent, n_tri = len(ent["kind"]), len(tri["kind"])
        arrays = []
        for f in MENTIONS_SCHEMA:
            vals = (ent.get(f.name, [None] * n_ent)
                    + tri.get(f.name, [None] * n_tri))
            arrays.append(pa.array(vals, f.type))
        return pa.Table.from_arrays(arrays, schema=MENTIONS_SCHEMA)


# docs-bytes threshold above which the small/big extraction branches run
# as two thread-overlapped executions instead of one fused union — see
# extract_mentions; module-level so tests can pin either path
_BRANCH_OVERLAP_BYTES = 64 << 20


@functools.lru_cache(maxsize=4)
def _worker_stage(conf_th: float, max_kw: int) -> "ExtractStage":
    """Per-worker-process engine cache. Ray reuses worker processes across
    tasks, so the ~45 regexes compile once per worker — actor-pool
    amortization without an actor pool's static CPU reservation."""
    return ExtractStage(KGConfig(confidence_threshold=conf_th,
                                 max_keywords=max_kw))


def extract_mentions(docs: "ray.data.Dataset", cfg: Optional[KGConfig] = None,
                     engine=None) -> "ray.data.Dataset":
    """documents → mentions.

    Skew-aware scheduling: extraction cost is ~linear in text length, and
    ``batch_size`` counts ROWS — a batch of salted mega-documents (a
    skewed conversation's sub-docs, each 100-1000x the median size) would
    become a multi-minute straggler. Documents above ``hot_doc_turns`` go
    one-per-task; the rest batch normally. BOTH paths are stateless tasks
    (engine cached per worker process via ``_worker_stage``): a static
    actor pool sized to the cluster starves whichever path it doesn't
    serve — observed: a pool holding all but two CPUs for small docs left
    the mega-doc tasks 2 CPU slots and serialized the skew tail into the
    critical path.
    Elastic tasks let Ray interleave both streams over every core, over
    ``4 x cluster CPUs`` blocks: enough to even out skew, few enough that
    per-task cost stays below the work.
    """
    import pyarrow.compute as pc
    cfg = cfg or KGConfig()
    if engine is not None:   # pre-built engine (tests): single task path
        stage = ExtractStage(cfg, engine)
        return docs.map_batches(stage, batch_format="pyarrow",
                                batch_size=cfg.extract_batch_size)

    th, kw = cfg.confidence_threshold, cfg.max_keywords

    def run(t: pa.Table) -> pa.Table:
        return _worker_stage(th, kw)(t)

    thresh = int(cfg.hot_doc_turns)
    # ~4 blocks per CPU, no floor: docs arrive in as many blocks as the
    # reassembly sort made, row-skewed, and map tasks can't split blocks
    # (554k turns / 32 CPUs: 64 skewed tasks kept ~9.5 cores busy). Each
    # block is a task in both branches below, so more blocks only add
    # dispatch (82 docs at 1 CPU: 2.5 s in 64 blocks, 0.9 s in 4).
    import ray as _ray
    nblocks = max(1, int(4 * _ray.cluster_resources().get("CPU", 8)))
    # size of the incoming docs, known free ONLY when the caller
    # materialized them (size_bytes() on a lazy dataset would trigger a
    # full extra execution — the resumable path passes lazy docs)
    from ray.data.dataset import MaterializedDataset
    docs_bytes = (docs.size_bytes() or 0) \
        if isinstance(docs, MaterializedDataset) else 0
    overlap = docs_bytes > _BRANCH_OVERLAP_BYTES
    docs = docs.repartition(nblocks)
    if overlap:
        # The two thread-overlapped branch executions below are
        # independent plans — left lazy, EACH would re-run this
        # repartition (re-scanning docs and doubling its object-store
        # footprint). Materialize the repartitioned docs once so both
        # branches share the same input blocks.
        docs = docs.materialize()
    small = docs.map_batches(
        lambda t: t.filter(pc.less_equal(t["n_turns"], thresh)),
        batch_format="pyarrow")
    big = docs.map_batches(
        lambda t: t.filter(pc.greater(t["n_turns"], thresh)),
        batch_format="pyarrow")
    m_small = small.map_batches(run, batch_format="pyarrow",
                                batch_size=cfg.extract_batch_size)
    # batch_size=1 alone does NOT give one TASK per hot doc — tasks are
    # per block, and a skewed conversation's salted sub-docs sit
    # consecutively in the same reassembly bucket, so they land clustered
    # in a handful of blocks (observed: a single task serially extracting
    # ~500 hot sub-docs, a 60 s straggler stalling the union). Rebalance
    # the (small) hot-doc table across nblocks so each task holds at most
    # a few hot docs.
    m_big = big.repartition(nblocks).map_batches(
        run, batch_format="pyarrow", batch_size=1)
    # Large corpora: the fused union execution collapses — with both
    # branches' (huge) mention outputs sharing one execution's resource
    # budget the executor throttles tasks to ~25% CPU occupancy
    # (measured at 5.5M turns / 69M mentions: fused 130 s wall vs 23.8 s
    # + 16.0 s for the branches run separately; no spilling — pure
    # buffer-budget backpressure). Above a docs-bytes threshold,
    # materialize the branches as two thread-overlapped executions and
    # return the (free) union of materialized blocks. Small corpora keep
    # the single fused execution — two executions would only add fixed
    # cost there.
    if overlap:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=2) as tp:
            fut_s = tp.submit(m_small.materialize)
            fut_b = tp.submit(m_big.materialize)
            return fut_s.result().union(fut_b.result())
    return m_small.union(m_big)


# ---------------------------------------------------------------------------
# latency-bound (LLM API) extraction — endpoint pool with in-actor fan-out
# ---------------------------------------------------------------------------


class LLMExtractStage(ExtractStage):
    """Endpoint-pool stage for LATENCY-bound engines (the production
    LLM extractor: two ~seconds API calls per document,
    reference ``llm_builders.py:216-250``'s asyncio-semaphore regime).

    The CPU-bound stateless-task path is wrong here: a task blocked on an
    HTTP round-trip still holds its whole CPU, capping in-flight requests
    at num_cpus. Instead each actor of the zero-CPU endpoint pool
    (``state/endpoint_pool.py``, which states the policy) fans its batch
    out over an internal thread pool (``max_concurrent`` in-flight
    requests per actor — the reference's semaphore bound, per actor
    instead of per process), so total in-flight = actors x
    max_concurrent is independent of the core count.

    Engine construction happens once per actor in ``__init__`` via
    ``engine_factory`` (a zero-arg callable — keeps unpicklable client
    state out of the task closure)."""

    def __init__(self, cfg=None, engine_factory=None, max_concurrent: int = 8):
        from concurrent.futures import ThreadPoolExecutor
        if engine_factory is None:
            raise ValueError("LLMExtractStage requires engine_factory")
        self.engine = engine_factory()
        self.pool = ThreadPoolExecutor(max_workers=max_concurrent)

    @property
    def failed_calls(self) -> int:
        """Endpoint calls the engine gave up on (0 for engines that do
        not count them)."""
        return getattr(self.engine, "failed_calls", 0)

    def _extract_rows(self, texts):
        # per-text isolation lives in the engine (extract() returns
        # ([], []) on a failed call); thread pool preserves input order
        return list(self.pool.map(
            lambda t: self._wrap(self.engine.extract(t or "")), texts))


def extract_mentions_llm(docs: "ray.data.Dataset", cfg=None, *,
                         engine_factory, num_actors: int = 0,
                         max_concurrent: int = 8,
                         batch_size: int = 32,
                         scheduling_strategy: "str | None" = None,
                         pool=None, metrics: "dict | None" = None
                         ) -> "ray.data.Dataset":
    """documents → mentions through a latency-bound LLM engine, on the
    endpoint pool (``state/endpoint_pool.py``: zero-CPU actors, SPREAD
    honoured). ``pool`` shares a caller's pool (its own scheduling
    strategy applies); without one, the call runs on a pool scoped to
    it. The returned Dataset is materialized; ``metrics``, when given,
    gets the engine's failed calls added under ``extract_failed_calls``.

    Pool sizing: in-flight requests = ``num_actors x max_concurrent``.
    ``batch_size`` rows go to an actor at a time: it bounds per-actor
    in-memory results, and with ``max_concurrent`` in-flight per actor a
    batch drains in ``ceil(batch_size/max_concurrent) x 2 x latency`` —
    keep it a small multiple of ``max_concurrent`` so stragglers don't
    idle the pool. Default: 2 x cpus actors x 8 in-flight ≈ 512
    concurrent requests at 32 CPUs — measured in ``bench.py
    --llm-sweep``.
    """
    import ray

    from ..state.endpoint_pool import pool_map

    cfg = cfg or KGConfig()
    if not num_actors:
        cpus = int(ray.cluster_resources().get("CPU", 4)) \
            if ray.is_initialized() else 4
        num_actors = max(2, 2 * cpus)
    out, failed = pool_map(
        pool, docs, LLMExtractStage,
        {"cfg": cfg, "engine_factory": engine_factory,
         "max_concurrent": max_concurrent},
        batch_size=batch_size, num_actors=num_actors,
        scheduling_strategy=scheduling_strategy)
    if metrics is not None:
        metrics["extract_failed_calls"] = \
            metrics.get("extract_failed_calls", 0) + failed
    return out
