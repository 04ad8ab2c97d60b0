"""``ray job submit`` entrypoint for the KG-construction pipeline.

On a fixed-size multi-node cluster (the north_rule's deployment shape):

    ray job submit --working-dir . -- \\
        python -m agraph_ray.job --input s3://bucket/transcripts/ \\
        --output s3://bucket/kg_out/ --resumable

Locally (single node) the same module runs standalone:

    python -m agraph_ray.job --input /tmp/transcripts --output /tmp/out

The module does NOT own the Ray session when one already exists (the
job supervisor / driver initialises Ray inside the cluster; Ray Data
auto-initialises standalone) — it only calls ``ray.init()`` when no
session is active, per the driver contract in ``__ray_entry__.py``.

``--resumable`` runs the partitioned checkpointed build
(:func:`agraph_ray.pipelines.kg_build.build_kg_resumable`): per-partition
lineage manifests under ``<output>/manifests/`` let a resubmitted job
skip every committed partition — the rule's resume-from-checkpoint
requirement. Without it, the single-job streaming build
(:func:`build_kg`) overlaps artifact writes with compute.

Exit status is non-zero on failure; on success one JSON line with the
run metrics (n_nodes, n_edges, n_triples, per-stage seconds) is printed
to stdout for the job log.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import sys


def _shard_paths(input_path: str) -> list:
    if os.path.isdir(input_path):
        paths = sorted(glob.glob(os.path.join(input_path, "*.parquet")))
        if not paths:
            raise FileNotFoundError(
                f"no *.parquet shards under {input_path}")
        return paths
    return [input_path]


def build_llm_opts(args) -> dict:
    """argparse → ``extract_mentions_llm`` keyword dict (factored out so
    the flag→pool plumbing is unit-testable without a cluster)."""
    opts = {"max_concurrent": args.max_concurrent,
            "batch_size": args.llm_batch_size}
    if args.num_actors:
        opts["num_actors"] = args.num_actors
    if args.spread:
        opts["scheduling_strategy"] = "SPREAD"
    return opts


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="python -m agraph_ray.job",
        description="transcripts -> knowledge-graph Parquet tables")
    ap.add_argument("--input", required=True,
                    help="transcripts parquet file or directory")
    ap.add_argument("--output", required=True, help="output directory")
    ap.add_argument("--resumable", action="store_true",
                    help="partitioned build with per-partition checkpoint "
                         "manifests (resubmit skips committed partitions)")
    ap.add_argument("--e2e", action="store_true",
                    help="composed six-phase LLM lifecycle (extract → "
                         "dedup → embed → ANN link → pair judge → "
                         "merge), every phase checkpointed; implies "
                         "--llm and env-configured embedding/judge "
                         "clients (AGRAPH_LLM_*)")
    ap.add_argument("--ann-top-k", type=int, default=5)
    ap.add_argument("--ann-threshold", type=float, default=0.90)
    ap.add_argument("--shards-per-partition", type=int, default=4)
    ap.add_argument("--no-chunks", action="store_true",
                    help="skip the chunk table (triples/nodes only)")
    ap.add_argument("--config-json", default=None,
                    help="JSON object of KGConfig field overrides")
    # --- production-LLM extraction pool (env-configured clients) ------
    ap.add_argument("--llm", action="store_true",
                    help="extract via the env-configured LLM engine "
                         "(AGRAPH_LLM_* vars) through the latency-bound "
                         "actor pool instead of the rule extractor")
    ap.add_argument("--num-actors", type=int, default=0,
                    help="LLM pool size (0 = auto: 2 x cluster CPUs); "
                         "in-flight requests = num-actors x "
                         "max-concurrent — size to the endpoint's rate "
                         "limit, not the CPU count")
    ap.add_argument("--max-concurrent", type=int, default=8,
                    help="in-flight requests per LLM pool actor")
    ap.add_argument("--llm-batch-size", type=int, default=32)
    # --- multi-node scheduling / memory knobs -------------------------
    ap.add_argument("--spread", action="store_true",
                    help="SPREAD-schedule latency-bound actor pools "
                         "across nodes (per-node NIC limits bound a "
                         "latency pool, not CPUs); no-op single-node")
    ap.add_argument("--object-store-memory", type=int, default=None,
                    help="bytes for the object store when THIS process "
                         "starts the Ray session (ignored when a "
                         "cluster session already exists)")
    ap.add_argument("--spill-dir", default=None,
                    help="object-spilling directory when this process "
                         "starts the session (fast local disk on each "
                         "node; default Ray tmp)")
    args = ap.parse_args(argv)

    import ray
    if not ray.is_initialized():
        # `ray job submit` sets RAY_ADDRESS; =local starts a session here,
        # unset/empty joins the cluster `ray start` left on this host or
        # starts one. Session-level settings go only to a session this
        # process starts: Ray rejects them when joining a cluster.
        from ray._private.services import find_bootstrap_address
        address = os.environ.get("RAY_ADDRESS") or None
        starts_session = address == "local" or (
            address is None and find_bootstrap_address(None) is None)
        init_kw = {}
        if starts_session:
            if args.object_store_memory:
                init_kw["object_store_memory"] = args.object_store_memory
            if args.spill_dir:
                init_kw["_system_config"] = {
                    "object_spilling_config": json.dumps(
                        {"type": "filesystem",
                         "params": {"directory_path": args.spill_dir}})}
        ray.init(address=address, ignore_reinit_error=True, **init_kw)

    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import build_kg, build_kg_resumable

    overrides = json.loads(args.config_json) if args.config_json else {}
    cfg = KGConfig(**overrides)

    engine_factory, llm_opts = None, None
    if args.llm or args.e2e:
        from agraph_ray.clients import llm_engine_from_env
        engine_factory = llm_engine_from_env
        llm_opts = build_llm_opts(args)

    if args.e2e:
        from agraph_ray.clients import (OpenAICompatClient,
                                        OpenAIEmbeddingClient)
        from agraph_ray.pipelines.llm_e2e import build_kg_llm_e2e
        judge_opts = {"max_concurrent": args.max_concurrent}
        if args.spread:
            judge_opts["scheduling_strategy"] = "SPREAD"
        res = build_kg_llm_e2e(
            _shard_paths(args.input), args.output, cfg,
            engine_factory=engine_factory,
            embedder=OpenAIEmbeddingClient.from_env(),
            judge_llm_factory=OpenAICompatClient.from_env,
            shards_per_partition=args.shards_per_partition,
            llm_opts=llm_opts,
            ann_top_k=args.ann_top_k,
            ann_sim_threshold=args.ann_threshold,
            judge_opts=judge_opts)
    elif args.resumable:
        res = build_kg_resumable(
            _shard_paths(args.input), args.output, cfg,
            shards_per_partition=args.shards_per_partition,
            engine_factory=engine_factory, llm_opts=llm_opts)
    else:
        res = build_kg(args.input, args.output, cfg,
                       with_chunks=not args.no_chunks,
                       engine_factory=engine_factory, llm_opts=llm_opts)

    print(json.dumps({"status": "ok", "output": args.output,
                      "metrics": res.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
