"""End-to-end KG construction pipeline (BASELINE.json north_star).

    read_parquet(transcripts) → reassemble → [chunk] → extract →
    dedup (nodes, edges) → link + canonicalize → materialize + manifests

Two entry points:

- :func:`build_kg` — the streaming single-job pipeline. One extraction
  execution, checkpointed as the ``mentions`` Parquet dataset; one dedup
  scan (``stages/dedup.py::dedup_both``) turns the mentions into nodes and
  edges, read from memory while they fit the object store, else from the
  checkpoint.

- :func:`build_kg_resumable` — the production shape for 10^12-turn inputs:
  input shards are processed in partition groups, each committing a
  ``mentions`` partition + lineage manifest; a restart skips committed
  partitions (kill/restart test: tests/test_resume.py). :func:`run_phase`
  is the one commit/skip rule, shared with ``pipelines/llm_e2e.py``'s
  phases. Global stages (dedup/link/materialize) then run over all
  mention partitions. Relies on the loader contract that shards are
  hash-partitioned by conv_id (our generator guarantees it; a general
  loader gets it from one repartition-by-key pass).

Size constant: ``_INMEM_STORE_SHARE`` (1/4) — :func:`build_kg` dedups
the in-memory mentions while they take at most this share of the object
store, else the Parquet checkpoint.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.dataset as pads

from ..config import KGConfig
from ..stages.canonicalize import canonicalize
from ..stages.chunk import chunk_documents
from ..stages.dedup import EDGES_SCHEMA, MENTION_COLS, dedup_both
from ..stages.extract import (MENTIONS_SCHEMA, extract_mentions,
                              extract_mentions_llm)
from ..stages.materialize import (atomic_write_parquet, commit_manifest,
                                  read_manifest)
from ..stages.reassemble import reassemble

# deduped (subj, pred, obj) table — the P/R gate artifact: these edge
# columns, with relation_type renamed pred
_TRIPLE_COLS = ["relation_id", "subj", "subj_type", "relation_type", "obj",
                "obj_type", "confidence", "source", "n_mentions"]
_TRIPLES_SCHEMA = pa.schema(
    [EDGES_SCHEMA.field(c).with_name("pred" if c == "relation_type" else c)
     for c in _TRIPLE_COLS])

_INMEM_STORE_SHARE = 0.25


@dataclass
class KGBuildResult:
    out_dir: str
    tables: Dict[str, str]
    metrics: Dict[str, float] = field(default_factory=dict)


def run_phase(out_dir: str, stage: str, pid: Any,
              fn: Callable[[], Dict[str, Any]]
              ) -> Tuple[Dict[str, Any], bool]:
    """The one commit/skip rule of the resumable drivers. A committed
    ``(stage, pid)`` returns its manifest's metrics without running
    ``fn``; otherwise ``fn()`` runs and the metrics dict it returns is
    committed. Returns ``(metrics, skipped)``."""
    done = read_manifest(out_dir, stage, pid)
    if done is not None:
        return done, True
    metrics = fn()
    commit_manifest(out_dir, stage, pid, metrics)
    return metrics, False


def _run_extract(docs, cfg, engine=None, engine_factory=None,
                 llm_opts: Optional[Dict] = None, pool=None,
                 metrics: Optional[Dict] = None):
    """Dispatch to the right extraction regime: ``engine_factory`` set →
    the latency-bound endpoint-pool path (:func:`extract_mentions_llm`,
    in-flight requests decoupled from CPU count; on ``pool`` when given,
    with its failed calls added to ``metrics``); else the CPU-bound
    stateless-task path with the optional pre-built ``engine``."""
    if engine_factory is not None:
        return extract_mentions_llm(docs, cfg,
                                    engine_factory=engine_factory,
                                    pool=pool, metrics=metrics,
                                    **(llm_opts or {}))
    return extract_mentions(docs, cfg, engine=engine)


def _mentions_to_outputs(out_dir: str, cfg: KGConfig,
                         do_canonicalize: bool = True,
                         metrics: Optional[Dict] = None,
                         mentions=None, pool=None,
                         exact_as: Optional[Sequence[str]] = None
                         ) -> Dict[str, str]:
    """Global stages: mentions (in-memory Dataset or, when ``mentions``
    is None, the parquet checkpoint) → triples / nodes / edges tables.

    One dedup scan yields both nodes and edges; the artifact writes run on
    ``pool``'s threads and overlap the downstream compute.
    """
    from concurrent.futures import ThreadPoolExecutor

    import ray.data as rd
    mentions_dir = os.path.join(out_dir, "mentions")
    tables: Dict[str, str] = {"mentions": mentions_dir}
    own_pool = pool is None
    if own_pool:
        pool = ThreadPoolExecutor(max_workers=4)

    t = time.time()
    if mentions is None:
        mentions = rd.read_parquet(mentions_dir, columns=MENTION_COLS)
    nodes, edges = dedup_both(mentions, cfg)
    nodes, edges = nodes.materialize(), edges.materialize()
    if metrics is not None:
        metrics["sec_dedup"] = round(time.time() - t, 2)

    t = time.time()
    if exact_as is None:
        exact_as = (("nodes_exact", "edges_exact") if do_canonicalize
                    else ("nodes", "edges"))
    nodes_exact_dir = os.path.join(out_dir, exact_as[0])
    edges_exact_dir = os.path.join(out_dir, exact_as[1])
    writes = {
        "nodes_exact": pool.submit(atomic_write_parquet, nodes,
                                   nodes_exact_dir, cfg.min_rows_per_file),
        "edges_exact": pool.submit(atomic_write_parquet, edges,
                                   edges_exact_dir, cfg.min_rows_per_file),
    }

    triples_dir = os.path.join(out_dir, "triples")
    tri_out = edges.select_columns(_TRIPLE_COLS).map_batches(
        lambda t: t.rename_columns(_TRIPLES_SCHEMA.names),
        batch_format="pyarrow")
    writes["triples"] = pool.submit(atomic_write_parquet, tri_out,
                                    triples_dir, cfg.min_rows_per_file,
                                    _TRIPLES_SCHEMA)
    tables["triples"] = triples_dir

    n_nodes = writes["nodes_exact"].result()
    n_edges = writes["edges_exact"].result()
    n_triples = writes["triples"].result()
    if metrics is not None:
        metrics["sec_dedup_write"] = round(time.time() - t, 2)

    if do_canonicalize:
        t = time.time()
        nodes, edges, cmap = canonicalize(nodes, edges, cfg)
        if metrics is not None:
            metrics["entities_merged_by_linking"] = len(cmap)
            metrics["sec_canonicalize"] = round(time.time() - t, 2)
        t = time.time()
        f_n = pool.submit(atomic_write_parquet, nodes,
                          os.path.join(out_dir, "nodes"),
                          cfg.min_rows_per_file)
        f_e = pool.submit(atomic_write_parquet, edges,
                          os.path.join(out_dir, "edges"),
                          cfg.min_rows_per_file)
        n_nodes, n_edges = f_n.result(), f_e.result()
        if metrics is not None:
            metrics["sec_final_write"] = round(time.time() - t, 2)
    if do_canonicalize:
        tables["nodes"] = os.path.join(out_dir, "nodes")
        tables["edges"] = os.path.join(out_dir, "edges")
    else:
        tables["nodes"] = nodes_exact_dir
        tables["edges"] = edges_exact_dir
    if own_pool:
        pool.shutdown(wait=True)
    if metrics is not None:
        metrics.update({"n_nodes": n_nodes, "n_edges": n_edges,
                        "n_triples": n_triples})
    return tables


def kg_tables(transcripts: "ray.data.Dataset",
              cfg: Optional[KGConfig] = None, do_canonicalize: bool = False,
              engine=None, engine_factory=None,
              llm_opts: Optional[Dict] = None):
    """In-memory variant for moderate inputs (driver queries / tests):
    transcripts Dataset → (nodes, edges, mentions) Datasets without any
    Parquet checkpointing. The extraction output is pinned once
    (materialize) so dedup and the caller share one extraction; use
    :func:`build_kg` for large corpora. ``engine`` = pluggable extraction
    engine (deterministic RuleExtractor default; extract/llm.py's
    LLMExtractorEngine for the production path)."""
    cfg = cfg or KGConfig()
    docs = reassemble(transcripts, cfg)
    mentions = _run_extract(docs, cfg, engine, engine_factory,
                            llm_opts).materialize()
    nodes, edges = dedup_both(mentions, cfg)
    if do_canonicalize:
        nodes = nodes.materialize()
        edges = edges.materialize()
        nodes, edges, _ = canonicalize(nodes, edges, cfg)
    return nodes, edges, mentions


def build_kg(transcripts, out_dir: str, cfg: Optional[KGConfig] = None,
             with_chunks: bool = True, do_canonicalize: bool = True,
             engine=None, engine_factory=None,
             llm_opts: Optional[Dict] = None) -> KGBuildResult:
    """Single-job streaming pipeline. ``transcripts`` is a Dataset or a
    parquet path/dir.

    Execution shape: each stage output that feeds multiple consumers is
    ``materialize()``d (pinned in the object store, spilling if needed)
    and its Parquet artifact is written on a SIDE THREAD while the next
    stage computes — artifact I/O overlaps compute instead of serializing
    the pipeline. (The partitioned :func:`build_kg_resumable` keeps strict
    Parquet checkpoints per partition — that path trades this overlap for
    restartability.)
    """
    from concurrent.futures import ThreadPoolExecutor

    import ray.data as rd
    cfg = cfg or KGConfig()
    t0 = time.time()
    metrics: Dict[str, float] = {}
    if isinstance(transcripts, (str, list)):
        from ..sources import sized_read_parquet
        transcripts = sized_read_parquet(
            transcripts, columns=["conv_id", "turn_idx", "text"],
            target_block_bytes=8 << 20)

    pool = ThreadPoolExecutor(max_workers=4)
    futures = {}

    t = time.time()
    docs = reassemble(transcripts, cfg).materialize()
    metrics["sec_reassemble"] = round(time.time() - t, 2)
    docs_dir = os.path.join(out_dir, "documents")
    futures["documents"] = pool.submit(
        atomic_write_parquet, docs, docs_dir, cfg.min_rows_per_file)
    if with_chunks:
        futures["chunks"] = pool.submit(
            atomic_write_parquet, chunk_documents(docs, cfg),
            os.path.join(out_dir, "chunks"), cfg.min_rows_per_file)

    t = time.time()
    mentions = _run_extract(docs, cfg, engine, engine_factory,
                            llm_opts).materialize()
    metrics["sec_extract"] = round(time.time() - t, 2)
    futures["mentions"] = pool.submit(
        atomic_write_parquet, mentions, os.path.join(out_dir, "mentions"),
        cfg.min_rows_per_file)

    # Dedup scans the in-memory extract output while it takes at most
    # _INMEM_STORE_SHARE of the object store, else the mentions PARQUET
    # checkpoint (pruned columns). Either way it is one scan for both
    # kinds. The discriminator is mentions BYTES vs store headroom, not
    # CPU count: the old wide-cluster measurement (in-memory 94-104 s vs
    # 21 s parquet at 1.1M turns) was spill-induced — full-width blocks
    # evicted to disk and read back — while within-store scans are
    # zero-copy. Blocking on the checkpoint write (big regime only) also
    # makes the dedup phase restartable from the checkpoint.
    import ray as _ray
    store = _ray.cluster_resources().get("object_store_memory", 0) \
        or (4 << 30)
    if (mentions.size_bytes() or 0) > store * _INMEM_STORE_SHARE:
        metrics["n_mentions"] = futures["mentions"].result()
        mentions = None   # release the in-memory blocks — the parquet
        #                   checkpoint is now the source of truth
    tables = _mentions_to_outputs(out_dir, cfg, do_canonicalize, metrics,
                                  mentions=mentions, pool=pool)
    t = time.time()
    metrics["n_documents"] = futures["documents"].result()
    metrics["n_mentions"] = futures["mentions"].result()
    if with_chunks:
        metrics["n_chunks"] = futures["chunks"].result()
        tables["chunks"] = os.path.join(out_dir, "chunks")
    tables["documents"] = docs_dir
    pool.shutdown(wait=True)
    # artifact writes run on side threads; this is how long the pipeline
    # waited for the slowest one to drain at the end (I/O-bound tail —
    # at 5.6M turns the 64M-row mentions checkpoint dominates it)
    metrics["sec_write_drain"] = round(time.time() - t, 2)
    metrics["wall_sec"] = time.time() - t0
    commit_manifest(out_dir, "build", "all", metrics)
    return KGBuildResult(out_dir, tables, metrics)


def run_mention_partitions(shard_paths: Sequence[str], out_dir: str,
                           cfg: KGConfig,
                           shards_per_partition: int = 4,
                           engine=None, engine_factory=None,
                           llm_opts: Optional[Dict] = None,
                           group_concurrency: Optional[int] = None,
                           metrics: Optional[Dict] = None,
                           pool=None) -> None:
    """The checkpointed per-partition extract loop shared by
    :func:`build_kg_resumable` and the composed LLM-path pipeline
    (pipelines/llm_e2e.py): each partition group runs through
    :func:`run_phase`, committing a ``mentions`` Parquet partition +
    lineage manifest; committed partitions are skipped on restart.
    A 0-row partition is written as a 0-row file with the mentions
    schema, so the dedup scan always finds its columns. On the LLM
    path (``engine_factory``) the partitions run on ``pool`` when given,
    each manifest records its ``extract_failed_calls``, and ``metrics``
    gets their sum, committed partitions included."""
    from concurrent.futures import ThreadPoolExecutor

    import ray as _ray
    groups: List[List[str]] = [
        list(shard_paths[i:i + shards_per_partition])
        for i in range(0, len(shard_paths), shards_per_partition)]
    if group_concurrency is None:
        cpus = int(_ray.cluster_resources().get("CPU", 8)) \
            if _ray.is_initialized() else 8
        group_concurrency = 1 if cpus < 16 else max(2, min(4, cpus // 16))

    def run_group(pid: int, files: List[str]) -> Dict[str, Any]:
        part_t0 = time.time()
        from ..sources import sized_read_parquet
        ds = sized_read_parquet(files,
                                columns=["conv_id", "turn_idx", "text"],
                                target_block_bytes=8 << 20)
        n_turns = ds.count()
        docs = reassemble(ds, cfg)
        got: Dict[str, Any] = {}
        mentions = _run_extract(docs, cfg, engine, engine_factory, llm_opts,
                                pool, got)
        part_dir = os.path.join(out_dir, "mentions", f"part={pid}")
        n_rows = atomic_write_parquet(mentions, part_dir,
                                      cfg.min_rows_per_file, MENTIONS_SCHEMA)
        n_ent = pads.dataset(part_dir, format="parquet").count_rows(
            filter=pc.field("kind") == "entity")
        return {"input_files": files, "input_rows": n_turns,
                "output_rows": n_rows, "entities": n_ent,
                "triples": n_rows - n_ent, **got,
                "duration_sec": time.time() - part_t0}

    def run(pf: Tuple[int, List[str]]) -> Tuple[Dict[str, Any], bool]:
        return run_phase(out_dir, "mentions", pf[0],
                         lambda: run_group(*pf))

    if group_concurrency <= 1 or len(groups) <= 1:
        done = [run(pf) for pf in enumerate(groups)]
    else:
        with ThreadPoolExecutor(max_workers=group_concurrency) as tp:
            # list() so the first exception propagates (fail the build,
            # committed partitions stay committed — that's the resume)
            done = list(tp.map(run, enumerate(groups)))
    if metrics is not None:
        metrics["n_partitions"] = len(groups)
        metrics["skipped"] = sum(skipped for _, skipped in done)
        if engine_factory is not None:
            metrics["extract_failed_calls"] = sum(
                got.get("extract_failed_calls", 0) for got, _ in done)


def build_kg_resumable(shard_paths: Sequence[str], out_dir: str,
                       cfg: Optional[KGConfig] = None,
                       shards_per_partition: int = 4,
                       do_canonicalize: bool = True,
                       engine=None, engine_factory=None,
                       llm_opts: Optional[Dict] = None,
                       group_concurrency: Optional[int] = None
                       ) -> KGBuildResult:
    """Partitioned, checkpointed build over conv_id-partitioned shards.

    Partition groups run ``group_concurrency`` at a time (bounded thread
    pool, each thread its own streaming execution): at thousands of groups
    the ~1-2 s per-execution fixed cost would otherwise serialize (the
    round-2 verdict's design note). The commit protocol is unchanged —
    atomic rename + per-partition manifest; deterministic content-hash ids
    make concurrent groups race-free (no shared mutable state). Default
    concurrency: 1 below 16 CPUs (one execution already uses the machine),
    else 2-4 scaled by width (A/B at sf0.1 / 32 CPUs / 8 groups: serial
    25.8-30.2 s, overlap-2 21.1-21.7 s, overlap-4 23.2 s — two overlapped
    executions hide the per-execution fixed cost; more just contend).
    """
    cfg = cfg or KGConfig()
    t0 = time.time()
    metrics: Dict[str, float] = {}
    run_mention_partitions(shard_paths, out_dir, cfg, shards_per_partition,
                           engine, engine_factory, llm_opts,
                           group_concurrency, metrics)
    tables = _mentions_to_outputs(out_dir, cfg, do_canonicalize, metrics)
    metrics["wall_sec"] = time.time() - t0
    commit_manifest(out_dir, "finalize", "all", metrics)
    return KGBuildResult(out_dir, tables, metrics)
