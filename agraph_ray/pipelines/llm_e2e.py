"""Composed production-LLM lifecycle, checkpointed end-to-end.

The reference's full LLM build (agraph/builders/llm_builders.py:1035-1097)
chains: LLM extraction → entity dedup → embedding → similarity candidate
search → LLM pairwise dedup judge → merge. This module composes the
engine's existing stages into that lifecycle as SIX resumable phases,
each committing a Parquet artifact + manifest so a killed job restarts
from the last committed phase. Every commit/skip goes through
``kg_build.run_phase``: phases 2-6 commit ``manifests/llm_e2e-<phase>.json``
holding the metrics they return, and a resumed run reads a committed
phase's metrics back, so it reports the same counts as the first run.
The judge and canonicalize manifests are keyed by judge mode
(``llm_e2e-judge-llm.json`` / ``llm_e2e-judge-none.json``, likewise
canonicalize), so resuming a threshold-only directory with a judge
re-runs both instead of keeping the threshold-only graph.

The endpoint-bound phases (1, 3, 5) share ONE endpoint pool
(``state/endpoint_pool.py``: zero-CPU actors that keep their stages).
It starts its first actor at the first endpoint phase that runs, so a
resume with those phases committed starts none, and it is closed when
the run returns or raises. Each phase keeps its own in-flight bound
(its actor count x ``max_concurrent``) on the shared actors. Failed
endpoint calls are counted, not hidden: the mention partitions commit
``extract_failed_calls`` and the judge ``judge_failed_calls``.

  1. ``mentions``      — per-partition LLM extract (in-flight decoupled
                         from CPU count), the same checkpoint regime as
                         ``build_kg_resumable``
  2. ``dedup``         — exact-id node/edge dedup → nodes_exact /
                         edges_exact / triples
  3. ``embed``         — canonical entity rendering → embedding column
                         via the batch embedding CLIENT (retry/backoff/
                         zero-vector fallback) on the run's pool; output
                         doubles as the ANN index shards (id, vec)
  4. ``ann_link``      — disk-backed ANN shard actors (each loads its
                         own shard file zero-copy); every node's top-k
                         neighbours → candidate pairs above a cosine
                         floor. The query fan-out runs as map tasks over
                         the embedding table — no vector transits the
                         driver.
  5. ``judge``         — candidate pairs through the latency-bound LLM
                         pair judge (extract/llm.py:judge_match_edges)
                         on the run's pool
  6. ``canonicalize``  — union-find over approved pairs →
                         apply_canonical_map rewrite → nodes / edges

Scale notes: phases 2-6 operate on the *vocabulary-sized* canonical
entity table, not the corpus; the corpus-sized work (extract) is
partition-parallel and resume-skippable. The ANN index is sharded
across actors sized by ``ann_num_shards`` and queried with a bounded
k — no all-pairs step anywhere; judge traffic is bounded by the
candidate-pair count (top-k × nodes, floored by ``ann_sim_threshold``).
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Optional, Sequence

from ..config import KGConfig
from ..stages.materialize import atomic_write_parquet, commit_manifest
from .kg_build import (KGBuildResult, _mentions_to_outputs,
                       run_mention_partitions, run_phase)

_STAGE = "llm_e2e"


def _embed_phase(out_dir: str, embedder, embed_dim: int, num_shards: int,
                 pool) -> Dict:
    """nodes_exact → (id, vec) ANN shard files + manifest.json, embedded
    on ``pool``'s actors."""
    import pyarrow as pa
    import ray.data as rd

    from ..stages.embed import embed_dataset

    ann_dir = os.path.join(out_dir, "ann_index")
    nodes = rd.read_parquet(
        os.path.join(out_dir, "nodes_exact"),
        columns=["entity_id", "name", "description", "aliases",
                 "entity_type"])
    emb = embed_dataset(nodes, render="entity", dim=embed_dim,
                        embedder=embedder, pool=pool)
    shards = emb.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["entity_id"].combine_chunks(),
             t["embedding"].combine_chunks()], names=["id", "vec"]),
        batch_format="pyarrow").repartition(num_shards)
    n = atomic_write_parquet(shards, ann_dir, min_rows_per_file=1)
    files = sorted(f for f in os.listdir(ann_dir) if f.endswith(".parquet"))
    with open(os.path.join(ann_dir, "manifest.json"), "w") as fh:
        json.dump({"shards": files, "counts": []}, fh)
    return {"n_embedded": n, "ann_shards": len(files)}


def ann_candidate_pairs(emb_ds, pool_shards: List, k: int,
                        sim_threshold: float):
    """Self-join candidates via the shard actors: each map task queries
    the pool for its batch's top-(k+1) and emits (src, dst, sim) with
    src < dst, sim ≥ threshold, self-matches dropped. Distributed — the
    driver never touches a vector; per-task traffic is
    batch × shards × (k+1) ids/sims."""
    import numpy as np
    import pyarrow as pa
    import ray

    from ..state.ann import merge_topk

    def query_batch(t: pa.Table) -> pa.Table:
        ids = np.asarray(t["id"].to_pylist(), dtype=object)
        vec = t["vec"].combine_chunks()
        flat = vec.flatten().to_numpy(zero_copy_only=False)
        mat = flat.reshape(len(t), -1)
        parts = ray.get([s.query.remote(mat, k + 1) for s in pool_shards])
        nn_ids, nn_sims = merge_topk(parts, k + 1)
        # vectorized pair emission: keep (row, neighbour) cells above
        # the floor and not self-matches, then canonicalize src < dst
        left = np.repeat(ids, nn_ids.shape[1]).astype(str)
        right = nn_ids.reshape(-1).astype(str)
        sims = nn_sims.reshape(-1).astype(np.float64)
        keep = (sims >= sim_threshold) & (left != right)
        left, right, sims = left[keep], right[keep], sims[keep]
        flip = left > right          # elementwise lexicographic compare
        lo = np.where(flip, right, left)
        hi = np.where(flip, left, right)
        return pa.table({"src": pa.array(lo, pa.string()),
                         "dst": pa.array(hi, pa.string()),
                         "sim": pa.array(sims, pa.float64())})

    from ..stages.common import distinct_on
    pairs = emb_ds.map_batches(query_batch, batch_format="pyarrow",
                               batch_size=4096)
    # the same pair surfaces from both endpoints' top-k
    return distinct_on(pairs, ["src", "dst"], num_buckets=16)


def build_kg_llm_e2e(shard_paths: Sequence[str], out_dir: str,
                     cfg: Optional[KGConfig] = None, *,
                     engine_factory,
                     embedder=None,
                     judge_llm_factory=None,
                     shards_per_partition: int = 4,
                     group_concurrency: Optional[int] = None,
                     llm_opts: Optional[Dict] = None,
                     embed_dim: int = 64,
                     ann_num_shards: int = 4,
                     ann_top_k: int = 5,
                     ann_sim_threshold: float = 0.90,
                     judge_opts: Optional[Dict] = None) -> KGBuildResult:
    """The composed lifecycle (module docstring). ``engine_factory`` /
    ``embedder`` / ``judge_llm_factory`` take the production clients;
    the mock-latency transports (mock_llm.py) drive the identical code
    path offline. ``judge_llm_factory=None`` skips phase 5 (every ANN
    candidate is accepted — threshold-only merge). The SPREAD
    ``scheduling_strategy`` of ``llm_opts`` or ``judge_opts`` places the
    run's endpoint pool."""
    import ray.data as rd

    from ..extract.llm import judge_match_edges
    from ..stages.canonicalize import apply_canonical_map
    from ..state.ann import AnnShardPool
    from ..state.endpoint_pool import EndpointPool
    from ..state.unionfind import (components_to_canonical_map,
                                   connected_components)

    cfg = cfg or KGConfig()
    # no actor starts until an endpoint phase runs; `with pool` below
    # kills the started ones when the run returns or raises
    pool = EndpointPool((llm_opts or {}).get("scheduling_strategy")
                        or (judge_opts or {}).get("scheduling_strategy"))
    judge_mode = "none" if judge_llm_factory is None else "llm"
    t0 = time.time()
    metrics: Dict = {}
    tables = {name: os.path.join(out_dir, name)
              for name in ("mentions", "triples", "ann_index", "ann_pairs",
                           "nodes", "edges")}
    ann_dir, pairs_dir = tables["ann_index"], tables["ann_pairs"]
    # no judge: the ANN pairs are the merge edges (also when resuming)
    judged_dir = tables["judged_pairs"] = (
        os.path.join(out_dir, "judged_pairs")
        if judge_llm_factory is not None else pairs_dir)

    def dedup() -> Dict:
        dd: Dict = {}
        _mentions_to_outputs(out_dir, cfg, do_canonicalize=False,
                             metrics=dd,
                             exact_as=("nodes_exact", "edges_exact"))
        return dd

    def embed() -> Dict:
        from ..mock_llm import mock_embedding_client
        emb_client = embedder or mock_embedding_client(
            latency_sec=0.0, embedding_dim=embed_dim)
        return _embed_phase(out_dir, emb_client, embed_dim, ann_num_shards,
                            pool)

    def ann_link() -> Dict:
        # list only the shard files: the dir also holds manifest.json
        shard_files = [os.path.join(ann_dir, f)
                       for f in sorted(os.listdir(ann_dir))
                       if f.endswith(".parquet")]
        if not shard_files:           # no node was embedded: no pairs
            import pyarrow as pa
            atomic_write_parquet(pa.schema([
                ("src", pa.string()), ("dst", pa.string()),
                ("sim", pa.float64())]).empty_table(), pairs_dir)
            return {"n_candidate_pairs": 0}
        shards = AnnShardPool.load(ann_dir)      # actors read own shards
        emb_ds = rd.read_parquet(shard_files, columns=["id", "vec"])
        pairs = ann_candidate_pairs(emb_ds, shards.shards, ann_top_k,
                                    ann_sim_threshold)
        n_pairs = atomic_write_parquet(pairs, pairs_dir,
                                       cfg.min_rows_per_file)
        del shards
        return {"n_candidate_pairs": n_pairs}

    def judge() -> Dict:
        if judge_llm_factory is None:
            return {"judge": "none"}
        pairs = rd.read_parquet(pairs_dir)
        got = {"judge_failed_calls": 0}
        if pairs.count() == 0:
            os.makedirs(judged_dir, exist_ok=True)
            return {"n_approved_pairs": 0, **got}
        nodes = rd.read_parquet(os.path.join(out_dir, "nodes_exact"),
                                columns=["entity_id", "name", "entity_type",
                                         "description", "aliases"])
        approved = judge_match_edges(pairs, nodes, judge_llm_factory,
                                     pool=pool, metrics=got,
                                     **(judge_opts or {}))
        return {"n_approved_pairs": atomic_write_parquet(
            approved, judged_dir, cfg.min_rows_per_file), **got}

    def canonicalize() -> Dict:
        have_pairs = any(f.endswith(".parquet")
                         for f in os.listdir(judged_dir)) \
            if os.path.isdir(judged_dir) else False
        cmap: Dict[str, str] = {}
        if have_pairs:
            edges_m = rd.read_parquet(judged_dir, columns=["src", "dst"])
            if edges_m.count():
                labels = connected_components(
                    edges_m, max_iters=cfg.max_label_prop_iters)
                cmap = components_to_canonical_map(labels)
        nodes = rd.read_parquet(os.path.join(out_dir, "nodes_exact"))
        edges = rd.read_parquet(os.path.join(out_dir, "edges_exact"))
        out_nodes, out_edges = apply_canonical_map(nodes, edges, cmap, cfg)
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=2) as tp:
            f_n = tp.submit(atomic_write_parquet, out_nodes,
                            tables["nodes"], cfg.min_rows_per_file)
            f_e = tp.submit(atomic_write_parquet, out_edges,
                            tables["edges"], cfg.min_rows_per_file)
            return {"n_nodes": f_n.result(), "n_edges": f_e.result(),
                    "entities_merged_by_ann_judge": len(cmap)}

    with pool:
        # -- 1: partitioned LLM extract (resumes at partition
        # granularity). Concurrent groups each take their own actors
        # from the pool (it grows to their sum); the actors reserve no
        # CPU, so they cannot starve the upstream maps.
        t = time.time()
        run_mention_partitions(shard_paths, out_dir, cfg,
                               shards_per_partition, None, engine_factory,
                               llm_opts, group_concurrency, metrics, pool)
        metrics["sec_extract"] = round(time.time() - t, 2)

        # -- 2-6: each phase commits the metrics it returns under its
        # function name, judge and canonicalize also under the judge mode;
        # a committed phase is skipped and its metrics read back. Later
        # phases overwrite the exact-dedup n_nodes / n_edges with the
        # canonical counts.
        for phase in (dedup, embed, ann_link, judge, canonicalize):
            name, t = phase.__name__, time.time()
            pid = (f"{name}-{judge_mode}"
                   if phase in (judge, canonicalize) else name)
            got, skipped = run_phase(out_dir, _STAGE, pid, phase)
            metrics.update(got)
            if skipped:
                metrics[f"skipped_{name}"] = 1
            metrics[f"sec_{name}"] = round(time.time() - t, 2)

    metrics["wall_sec"] = time.time() - t0
    commit_manifest(out_dir, "finalize", "llm_e2e", metrics)
    return KGBuildResult(out_dir, tables, metrics)
