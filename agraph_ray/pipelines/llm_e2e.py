"""Composed production-LLM lifecycle, checkpointed end-to-end.

The reference's full LLM build (agraph/builders/llm_builders.py:1035-1097)
chains: LLM extraction → entity dedup → embedding → similarity candidate
search → LLM pairwise dedup judge → merge. This module composes the
engine's existing stages into that lifecycle as SIX resumable phases,
each committing a Parquet artifact + manifest so a killed job restarts
from the last committed phase:

  1. ``mentions``      — per-partition LLM extract (actor pool,
                         in-flight decoupled from CPU count), the same
                         checkpoint regime as ``build_kg_resumable``
  2. ``dedup``         — exact-id node/edge dedup → nodes_exact /
                         edges_exact / triples
  3. ``embed``         — canonical entity rendering → embedding column
                         via the batch embedding CLIENT (retry/backoff/
                         zero-vector fallback) in an actor pool; output
                         doubles as the ANN index shards (id, vec)
  4. ``ann_link``      — disk-backed ANN shard actors (each loads its
                         own shard file zero-copy); every node's top-k
                         neighbours → candidate pairs above a cosine
                         floor. The query fan-out runs as map tasks over
                         the embedding table — no vector transits the
                         driver.
  5. ``judge``         — candidate pairs through the latency-bound LLM
                         pair-judge pool (extract/llm.py:judge_match_edges)
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
from ..stages.materialize import (atomic_write_parquet, commit_manifest,
                                  is_committed)
from .kg_build import (KGBuildResult, _mentions_to_outputs,
                       run_mention_partitions)

_STAGE = "llm_e2e"


def _embed_phase(out_dir: str, cfg: KGConfig, embedder, embed_dim: int,
                 concurrency: Optional[int], num_shards: int,
                 metrics: Dict) -> str:
    """nodes_exact → (id, vec) ANN shard files + manifest.json."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd

    from ..stages.embed import EMBED_BATCH_ROWS, embed_dataset

    ann_dir = os.path.join(out_dir, "ann_index")
    nodes_dir = os.path.join(out_dir, "nodes_exact")
    if concurrency is None:
        # one actor per embed batch, at most 4: the client actors reserve
        # no CPU, so the pool is sized by its input, not the cluster
        n_nodes = pads.dataset(nodes_dir, format="parquet").count_rows()
        concurrency = max(1, min(4, -(-n_nodes // EMBED_BATCH_ROWS)))
    nodes = rd.read_parquet(
        nodes_dir, columns=["entity_id", "name", "description", "aliases",
                            "entity_type"])
    emb = embed_dataset(nodes, render="entity", dim=embed_dim,
                        concurrency=concurrency, embedder=embedder)
    shards = emb.map_batches(
        lambda t: pa.Table.from_arrays(
            [t["entity_id"].combine_chunks(),
             t["embedding"].combine_chunks()], names=["id", "vec"]),
        batch_format="pyarrow").repartition(num_shards)
    n = atomic_write_parquet(shards, ann_dir, min_rows_per_file=1)
    files = sorted(f for f in os.listdir(ann_dir) if f.endswith(".parquet"))
    with open(os.path.join(ann_dir, "manifest.json"), "w") as fh:
        json.dump({"shards": files, "counts": []}, fh)
    metrics["n_embedded"] = n
    metrics["ann_shards"] = len(files)
    return ann_dir


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
                     embed_concurrency: Optional[int] = None,
                     ann_num_shards: int = 4,
                     ann_top_k: int = 5,
                     ann_sim_threshold: float = 0.90,
                     judge_opts: Optional[Dict] = None) -> KGBuildResult:
    """The composed lifecycle (module docstring). ``engine_factory`` /
    ``embedder`` / ``judge_llm_factory`` take the production clients;
    the mock-latency transports (mock_llm.py) drive the identical code
    path offline. ``judge_llm_factory=None`` skips phase 5 (every ANN
    candidate is accepted — threshold-only merge)."""
    import ray.data as rd

    from ..extract.llm import judge_match_edges
    from ..stages.canonicalize import apply_canonical_map
    from ..state.ann import AnnShardPool
    from ..state.unionfind import (components_to_canonical_map,
                                   connected_components)

    cfg = cfg or KGConfig()
    t0 = time.time()
    metrics: Dict[str, float] = {}
    tables: Dict[str, str] = {}

    # -- 1: partitioned LLM extract (resumes at partition granularity).
    # Concurrent groups are safe for the LLM pool path: its actors
    # reserve no CPU, so coexisting pools cannot starve the upstream
    # maps, and overlapping groups hides per-pool spin-up.
    t = time.time()
    run_mention_partitions(shard_paths, out_dir, cfg, shards_per_partition,
                           None, engine_factory, llm_opts,
                           group_concurrency, metrics)
    metrics["sec_extract"] = round(time.time() - t, 2)

    # -- 2: dedup → nodes_exact / edges_exact / triples ------------------
    t = time.time()
    if is_committed(out_dir, _STAGE, "dedup"):
        metrics["skipped_dedup"] = 1
    else:
        dd: Dict[str, float] = {}
        _mentions_to_outputs(out_dir, cfg, do_canonicalize=False,
                             metrics=dd,
                             exact_as=("nodes_exact", "edges_exact"))
        commit_manifest(out_dir, _STAGE, "dedup", dd)
    metrics["sec_dedup"] = round(time.time() - t, 2)
    tables["mentions"] = os.path.join(out_dir, "mentions")
    tables["triples"] = os.path.join(out_dir, "triples")

    # -- 3: embed nodes (client actor pool) → ANN shard files ------------
    t = time.time()
    ann_dir = os.path.join(out_dir, "ann_index")
    if is_committed(out_dir, _STAGE, "embed"):
        metrics["skipped_embed"] = 1
    else:
        from ..mock_llm import mock_embedding_client
        emb_client = embedder or mock_embedding_client(
            latency_sec=0.0, embedding_dim=embed_dim)
        em: Dict[str, float] = {}
        _embed_phase(out_dir, cfg, emb_client, embed_dim,
                     embed_concurrency, ann_num_shards, em)
        commit_manifest(out_dir, _STAGE, "embed", em)
        metrics.update(em)
    metrics["sec_embed"] = round(time.time() - t, 2)
    tables["ann_index"] = ann_dir

    # -- 4: ANN self-join → candidate pairs ------------------------------
    t = time.time()
    pairs_dir = os.path.join(out_dir, "ann_pairs")
    if is_committed(out_dir, _STAGE, "ann_link"):
        metrics["skipped_ann_link"] = 1
    else:
        pool = AnnShardPool.load(ann_dir)        # actors read own shards
        # list only the shard files: the dir also holds manifest.json
        shard_files = [os.path.join(ann_dir, f)
                       for f in sorted(os.listdir(ann_dir))
                       if f.endswith(".parquet")]
        emb_ds = rd.read_parquet(shard_files, columns=["id", "vec"])
        pairs = ann_candidate_pairs(emb_ds, pool.shards, ann_top_k,
                                    ann_sim_threshold)
        n_pairs = atomic_write_parquet(pairs, pairs_dir,
                                       cfg.min_rows_per_file)
        del pool
        commit_manifest(out_dir, _STAGE, "ann_link",
                        {"n_candidate_pairs": n_pairs})
        metrics["n_candidate_pairs"] = n_pairs
    metrics["sec_ann_link"] = round(time.time() - t, 2)
    tables["ann_pairs"] = pairs_dir

    # -- 5: LLM pair judge ----------------------------------------------
    t = time.time()
    # no judge: the ANN pairs are the merge edges (also when resuming)
    judged_dir = (os.path.join(out_dir, "judged_pairs")
                  if judge_llm_factory is not None else pairs_dir)
    if is_committed(out_dir, _STAGE, "judge"):
        metrics["skipped_judge"] = 1
    elif judge_llm_factory is None:
        commit_manifest(out_dir, _STAGE, "judge", {"skipped": "no judge"})
    else:
        pairs = rd.read_parquet(pairs_dir)
        if pairs.count() == 0:
            os.makedirs(judged_dir, exist_ok=True)
            commit_manifest(out_dir, _STAGE, "judge", {"n_approved": 0})
        else:
            nodes = rd.read_parquet(os.path.join(out_dir, "nodes_exact"),
                                    columns=["entity_id", "name",
                                             "entity_type", "description",
                                             "aliases"])
            approved = judge_match_edges(pairs, nodes, judge_llm_factory,
                                         **(judge_opts or {}))
            n_ok = atomic_write_parquet(approved, judged_dir,
                                        cfg.min_rows_per_file)
            commit_manifest(out_dir, _STAGE, "judge", {"n_approved": n_ok})
            metrics["n_approved_pairs"] = n_ok
    metrics["sec_judge"] = round(time.time() - t, 2)
    tables["judged_pairs"] = judged_dir

    # -- 6: union-find + canonical rewrite → nodes / edges ---------------
    t = time.time()
    if is_committed(out_dir, _STAGE, "canonicalize"):
        metrics["skipped_canonicalize"] = 1
    else:
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
                            os.path.join(out_dir, "nodes"),
                            cfg.min_rows_per_file)
            f_e = tp.submit(atomic_write_parquet, out_edges,
                            os.path.join(out_dir, "edges"),
                            cfg.min_rows_per_file)
            n_nodes, n_edges = f_n.result(), f_e.result()
        commit_manifest(out_dir, _STAGE, "canonicalize", {
            "n_nodes": n_nodes, "n_edges": n_edges,
            "entities_merged": len(cmap)})
        metrics["n_nodes"] = n_nodes
        metrics["n_edges"] = n_edges
        metrics["entities_merged_by_ann_judge"] = len(cmap)
    metrics["sec_canonicalize"] = round(time.time() - t, 2)
    tables["nodes"] = os.path.join(out_dir, "nodes")
    tables["edges"] = os.path.join(out_dir, "edges")

    metrics["wall_sec"] = time.time() - t0
    commit_manifest(out_dir, "finalize", "llm_e2e", metrics)
    return KGBuildResult(out_dir, tables, metrics)
