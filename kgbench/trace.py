"""Traced runs: per-layer metrics.

A traced run sets up like an untimed run, runs one untraced op as the
reference time, then repeats the op *stage by stage* — each layer's public
function called on its own, its output materialized before the next call,
a span recorded around each call — until ``seconds`` of traced op time
have passed. Every traced op is checked like an untraced one (the traced
build must reproduce the reference digest), and each per-layer metric is
the median over the traced ops. ``trace.gap_s`` is traced minus untraced
op time: the trace gives up build_kg's side-thread write overlap, so it
is expected to be positive.

Layers that a workload does not run report 0 (e.g. the ``llm.*`` counts on
the rule workloads); README.md maps each metric to its workload.
"""

from __future__ import annotations

import os
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List

from . import checks, corpus

# name → (unit, better), in the order of BENCHMARK.json's per_layer list.
# Counts fixed by the output (node and document counts) are marked
# "lower" only because the field is required; they explain the times.
PER_LAYER = {
    "sources.read_s": ("s", "lower"), "sources.blocks": ("count", "lower"),
    "reassemble.s": ("s", "lower"), "reassemble.docs": ("count", "lower"),
    "reassemble.hot_convs": ("count", "lower"),
    "reassemble.max_doc_turns": ("count", "lower"),
    "extract.s": ("s", "lower"), "extract.mention_rows": ("count", "lower"),
    "extract.block_rows_skew": ("ratio", "lower"),
    "extract.rows_per_output": ("ratio", "lower"),
    "rules.extract_agg_docs_per_s": ("1/s", "higher"),
    "rules.assembly_docs_per_s": ("1/s", "higher"),
    "dedup.entities_s": ("s", "lower"), "dedup.edges_s": ("s", "lower"),
    "dedup.fused_s": ("s", "lower"), "dedup.nodes": ("count", "lower"),
    "dedup.edges": ("count", "lower"), "dedup.reduction": ("ratio", "lower"),
    "canonicalize.s": ("s", "lower"), "canonicalize.similar_s": ("s", "lower"),
    "canonicalize.map_s": ("s", "lower"),
    "canonicalize.nodes_in": ("count", "lower"),
    "canonicalize.nodes_out": ("count", "lower"),
    "canonicalize.candidate_pairs": ("count", "lower"),
    "canonicalize.pair_yield": ("ratio", "higher"),
    "minhash.band_entities_per_s": ("1/s", "higher"),
    "write.s": ("s", "lower"), "write.rows": ("count", "lower"),
    "write.bytes": ("bytes", "lower"), "write.files": ("count", "lower"),
    "manifest.commits": ("count", "lower"),
    "update.add_s": ("s", "lower"), "update.remove_s": ("s", "lower"),
    "incremental.delta_extract_s": ("s", "lower"),
    "incremental.rederive_share": ("ratio", "lower"),
    "incremental.rewritten_rows": ("count", "lower"),
    "llm_e2e.extract_s": ("s", "lower"), "llm_e2e.dedup_s": ("s", "lower"),
    "llm_e2e.embed_s": ("s", "lower"), "llm_e2e.ann_link_s": ("s", "lower"),
    "llm_e2e.judge_s": ("s", "lower"),
    "llm_e2e.canonicalize_s": ("s", "lower"),
    "llm.calls": ("count", "lower"), "llm.retries": ("count", "lower"),
    "llm.failed": ("count", "lower"), "llm.busy_share": ("ratio", "higher"),
    "ann.candidate_pairs": ("count", "lower"),
    "judge.approved": ("count", "higher"), "judge.yield": ("ratio", "higher"),
    "trace.op_s": ("s", "lower"), "trace.gap_s": ("s", "lower"),
}

# the mention columns each dedup branch reads (as pipelines/kg_build.py)
ENT_COLS = ["kind", "conv_id", "entity_id", "name", "norm_name",
            "entity_type", "description", "aliases", "properties",
            "confidence", "source", "n_mentions", "n_convs"]
TRI_COLS = ["kind", "conv_id", "relation_id", "subj", "subj_type", "pred",
            "obj", "obj_type", "head_id", "tail_id", "description",
            "properties", "confidence", "source", "n_mentions"]
FUSED_COLS = sorted(set(ENT_COLS) | set(TRI_COLS))
TRIPLE_COLS = ["relation_id", "subj", "subj_type", "relation_type", "obj",
               "obj_type", "confidence", "source", "n_mentions"]


class Spans:
    """In-memory span log: (name, parent, start, end), flushed into the
    detail record when the run ends."""

    def __init__(self):
        self.spans: List[tuple] = []
        self._stack: List[str] = []

    @contextmanager
    def __call__(self, name: str):
        parent = self._stack[-1] if self._stack else ""
        self._stack.append(name)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._stack.pop()
            self.spans.append((name, parent, t0, time.perf_counter()))

    def s(self, *names: str) -> float:
        return sum(e - b for n, _, b, e in self.spans if n in names)


class WriteLog:
    """Rows, bytes and files of every artifact a traced op writes."""

    def __init__(self):
        self.rows = self.bytes = self.files = 0

    def __call__(self, ds, path: str, cfg) -> int:
        from agraph_ray.stages.materialize import atomic_write_parquet
        n = atomic_write_parquet(ds, path, cfg.min_rows_per_file)
        for root, _, files in os.walk(path):
            for f in files:
                self.files += f.endswith(".parquet")
                self.bytes += os.path.getsize(os.path.join(root, f))
        self.rows += n
        return n


def _kind(ds, kind: str, cols: List[str]):
    import pyarrow.compute as pc
    return ds.map_batches(lambda t: t.filter(pc.equal(t["kind"], kind))
                          .select(cols), batch_format="pyarrow")


def _read_stage(sp: Spans, m: Dict, files, cfg):
    """sources → reassemble → extract, each materialized; fills the
    sources/reassemble/extract metrics and returns (docs, mentions)."""
    from agraph_ray.sources import sized_read_parquet
    from agraph_ray.stages.extract import extract_mentions
    from agraph_ray.stages.reassemble import reassemble
    with sp("sources"):
        ds = sized_read_parquet(files, columns=["conv_id", "turn_idx", "text"],
                                target_block_bytes=8 << 20).materialize()
    with sp("reassemble"):
        docs = reassemble(ds, cfg).materialize()
    with sp("extract"):
        mentions = extract_mentions(docs, cfg).materialize()
    m["sources.read_s"] = sp.s("sources")
    m["sources.blocks"] = ds.num_blocks()
    convs: Dict[str, int] = {}
    max_turns = 0
    for b in docs.iter_batches(batch_size=None, batch_format="pyarrow"):
        for c in b["conv_id"].to_pylist():
            convs[c] = convs.get(c, 0) + 1
        if b.num_rows:
            max_turns = max(max_turns, max(b["n_turns"].to_pylist()))
    m["reassemble.s"] = sp.s("reassemble")
    m["reassemble.docs"] = sum(convs.values())
    m["reassemble.hot_convs"] = sum(1 for v in convs.values() if v > 1)
    m["reassemble.max_doc_turns"] = max_turns
    rows = [b.num_rows for b in mentions.iter_batches(
        batch_size=None, batch_format="pyarrow") if b.num_rows]
    m["extract.s"] = sp.s("extract")
    m["extract.mention_rows"] = sum(rows)
    m["extract.block_rows_skew"] = (max(rows) / statistics.median(rows)
                                    if rows else 0.0)
    return docs, mentions


def _candidate_pairs(nodes_tbl, cfg) -> int:
    """Distinct entity pairs sharing a MinHash band or alias block — the
    pairs canonicalize scores (before its per-block cap)."""
    from agraph_ray.stages.canonicalize import MinHashBander
    bands = MinHashBander(cfg)(nodes_tbl).select(["block_key", "entity_id"])
    members: Dict[str, List[str]] = {}
    for k, e in zip(bands["block_key"].to_pylist(),
                    bands["entity_id"].to_pylist()):
        members.setdefault(k, []).append(e)
    pairs = set()
    for ids in members.values():
        ids = sorted(set(ids))
        for i, a in enumerate(ids):
            for b in ids[i + 1:]:
                pairs.add((a, b))
    return len(pairs)


def _canonicalize_layer(sp: Spans, m: Dict, nodes, cfg, cmap: Dict) -> None:
    """Extra canonicalize sub-layer timings, outside the traced op time."""
    from agraph_ray.stages.canonicalize import (compute_canonical_map,
                                                find_similar_entities)
    with sp("canonicalize.similar"):
        find_similar_entities(nodes, cfg).count()
    with sp("canonicalize.map"):
        compute_canonical_map(nodes, cfg)
    tbl = _to_arrow(nodes)
    m["canonicalize.similar_s"] = sp.s("canonicalize.similar")
    m["canonicalize.map_s"] = sp.s("canonicalize.map")
    m["canonicalize.candidate_pairs"] = _candidate_pairs(tbl, cfg)
    m["canonicalize.pair_yield"] = (len(cmap) / m["canonicalize.candidate_pairs"]
                                    if m["canonicalize.candidate_pairs"] else 0.0)


def _to_arrow(ds):
    import pyarrow as pa
    if isinstance(ds, pa.Table):
        return ds
    return pa.concat_tables(list(ds.iter_batches(batch_size=None,
                                                 batch_format="pyarrow")))


def _triples(edges):
    import pyarrow as pa
    names = ["relation_id", "subj", "subj_type", "pred", "obj", "obj_type",
             "confidence", "source", "n_mentions"]
    if isinstance(edges, pa.Table):
        return edges.select(TRIPLE_COLS).rename_columns(names)
    return edges.select_columns(TRIPLE_COLS).map_batches(
        lambda t: t.rename_columns(names), batch_format="pyarrow")


def _rederive(sp: Spans, out: str, cfg, w: WriteLog):
    """The global tables from the Parquet mentions checkpoint, as an
    incremental add or remove re-derives them: fused dedup, exact tables,
    canonicalize, final tables. Returns (rows written, exact node count,
    exact edge count)."""
    import ray.data as rd
    from agraph_ray.stages.canonicalize import canonicalize
    from agraph_ray.stages.dedup import dedup_both, dedup_edges, dedup_entities
    mdir = os.path.join(out, "mentions")
    rows0 = w.rows
    with sp("dedup.fused"):
        pair = dedup_both(rd.read_parquet(mdir, columns=FUSED_COLS), cfg)
        if pair is None:       # partial volume over the fused cap
            src = rd.read_parquet(mdir, columns=FUSED_COLS)
            pair = (dedup_entities(_kind(src, "entity", ENT_COLS), cfg),
                    dedup_edges(_kind(src, "triple", TRI_COLS), cfg))
        nodes, edges = pair[0].materialize(), pair[1].materialize()
    with sp("write"):
        w(nodes, os.path.join(out, "nodes_exact"), cfg)
        w(edges, os.path.join(out, "edges_exact"), cfg)
        w(_triples(edges), os.path.join(out, "triples"), cfg)
    with sp("canonicalize"):
        cn, ce, cmap = canonicalize(nodes, edges, cfg)
    with sp("write"):
        w(cn, os.path.join(out, "nodes"), cfg)
        w(ce, os.path.join(out, "edges"), cfg)
    return w.rows - rows0, nodes.count(), edges.count()


# -- per-workload traced ops --------------------------------------------------

def trace_build(wl) -> tuple:
    """build_kg, stage by stage (the in-memory dedup regime build_kg takes
    at these sizes), plus the fused dedup over the written checkpoint."""
    import ray.data as rd
    from agraph_ray.stages.canonicalize import canonicalize
    from agraph_ray.stages.chunk import chunk_documents
    from agraph_ray.stages.dedup import dedup_both, dedup_edges, dedup_entities
    from agraph_ray.stages.materialize import commit_manifest
    cfg, out, sp, m, w = wl.cfg, wl._out(), Spans(), {}, WriteLog()
    with sp("op"):
        docs, mentions = _read_stage(sp, m, wl.corpus.files, cfg)
        with sp("dedup.entities"):
            nodes = dedup_entities(_kind(mentions, "entity", ENT_COLS),
                                   cfg).materialize()
        with sp("dedup.edges"):
            edges = dedup_edges(_kind(mentions, "triple", TRI_COLS),
                                cfg).materialize()
        with sp("canonicalize"):
            cn, ce, cmap = canonicalize(nodes, edges, cfg)
        with sp("write"):
            w(docs, os.path.join(out, "documents"), cfg)
            w(chunk_documents(docs, cfg), os.path.join(out, "chunks"), cfg)
            w(mentions, os.path.join(out, "mentions"), cfg)
            w(nodes, os.path.join(out, "nodes_exact"), cfg)
            w(edges, os.path.join(out, "edges_exact"), cfg)
            w(_triples(edges), os.path.join(out, "triples"), cfg)
            w(cn, os.path.join(out, "nodes"), cfg)
            w(ce, os.path.join(out, "edges"), cfg)
            commit_manifest(out, "build", "all", {"traced": 1})
    op_s = sp.s("op")
    with sp("dedup.fused"):
        pair = dedup_both(rd.read_parquet(os.path.join(out, "mentions"),
                                          columns=FUSED_COLS), cfg)
        if pair is not None:
            pair[0].materialize(), pair[1].materialize()
    n_nodes, n_edges = nodes.count(), edges.count()
    n_out = cn.num_rows if hasattr(cn, "num_rows") else cn.count()
    e_out = ce.num_rows if hasattr(ce, "num_rows") else ce.count()
    m.update({
        "dedup.entities_s": sp.s("dedup.entities"),
        "dedup.edges_s": sp.s("dedup.edges"),
        "dedup.fused_s": sp.s("dedup.fused"),
        "dedup.nodes": n_nodes, "dedup.edges": n_edges,
        "dedup.reduction": m["extract.mention_rows"] / max(1, n_nodes + n_edges),
        "extract.rows_per_output": m["extract.mention_rows"] / max(1, n_out + e_out),
        "canonicalize.s": sp.s("canonicalize"),
        "canonicalize.nodes_in": n_nodes, "canonicalize.nodes_out": n_out,
        "write.s": sp.s("write"), "write.rows": w.rows,
        "write.bytes": w.bytes, "write.files": w.files,
        "manifest.commits": len(os.listdir(os.path.join(out, "manifests"))),
    })
    _canonicalize_layer(sp, m, nodes, cfg, cmap)
    m["minhash.band_entities_per_s"] = _band_rate(_to_arrow(nodes), cfg)
    ok, detail = wl.check(out)
    wl._drop(out)
    return m, op_s, ok, detail, sp


def trace_update(wl) -> tuple:
    """add_documents then remove_documents, stage by stage."""
    import pyarrow as pa
    import pyarrow.compute as pc
    from agraph_ray.sources import sized_read_parquet
    from agraph_ray.stages.materialize import commit_manifest
    import shutil
    cfg, out, sp, m, w = wl.cfg, wl.graph, Spans(), {}, WriteLog()
    mdir = os.path.join(out, "mentions")
    manifests0 = len(os.listdir(os.path.join(out, "manifests")))
    # the traced op time is the add and remove spans; the checks between
    # and after them stay outside it, as in the untraced op
    with sp("add"):
        _, mentions = _read_stage(sp, m, wl.delta.files, cfg)
        with sp("write"):
            w(mentions, os.path.join(
                mdir, f"delta={int(time.time() * 1000)}"), cfg)
        with sp("rederive"):
            add_rows, n_nodes, n_edges = _rederive(sp, out, cfg, w)
        commit_manifest(out, "add", f"traced-{time.time():.0f}", {})
    rederive_add = sp.s("rederive")
    ok, detail = wl._expect(wl.union_digest, "traced add")
    n_out = checks.graph_digest(out)[1]["nodes"]
    with sp("remove"):
        dead = pa.array(wl.delta.conv_ids)
        with sp("write"):
            kept = sized_read_parquet(mdir).map_batches(
                lambda t: t.filter(pc.invert(pc.is_in(t["conv_id"],
                                                      value_set=dead))),
                batch_format="pyarrow")
            n_left = w(kept, mdir + ".tomb", cfg)
            shutil.rmtree(mdir + ".old", ignore_errors=True)
            os.rename(mdir, mdir + ".old")
            os.rename(mdir + ".tomb", mdir)
            shutil.rmtree(mdir + ".old", ignore_errors=True)
        with sp("rederive"):
            rm_rows, _, _ = _rederive(sp, out, cfg, w)
        commit_manifest(out, "remove", f"traced-{time.time():.0f}", {})
    ok2, detail2 = wl._expect(wl.base_digest, "traced remove")
    add_s = sp.s("add")
    m.update({             # dedup and canonicalize ran twice: per-run means
        "dedup.fused_s": sp.s("dedup.fused") / 2,
        "dedup.nodes": n_nodes, "dedup.edges": n_edges,
        "canonicalize.s": sp.s("canonicalize") / 2,
        "canonicalize.nodes_in": n_nodes, "canonicalize.nodes_out": n_out,
        "write.s": sp.s("write"), "write.rows": w.rows,
        "write.bytes": w.bytes, "write.files": w.files,
        "manifest.commits": (len(os.listdir(os.path.join(out, "manifests")))
                             - manifests0),
        "incremental.delta_extract_s": sp.s("sources", "reassemble", "extract"),
        "incremental.rederive_share": rederive_add / add_s if add_s else 0.0,
        "incremental.rewritten_rows": add_rows + rm_rows + n_left,
    })
    m["minhash.band_entities_per_s"] = _band_rate(
        _read_table(os.path.join(out, "nodes_exact")), cfg)
    return m, sp.s("add", "remove"), ok and ok2, detail or detail2, sp


def trace_llm(wl) -> tuple:
    """The lifecycle is not re-run stage by stage: it already times its six
    phases (read here from its result) and commits a manifest per phase;
    the trace adds the counting transports' numbers."""
    out = wl._out()
    sp = Spans()
    with sp("op"):
        wl.last = wl._run(out, wl.endpoint)
    mx, c = wl.last["metrics"], wl.last["counts"]
    tags = ("extract", "judge", "embed")
    calls = sum(c.get(f"{t}.ok", 0) + c.get(f"{t}.retry", 0) for t in tags)
    slots = wl.pool["num_actors"] * wl.pool["max_concurrent"]
    cands = mx.get("n_candidate_pairs", 0)
    approved = mx.get("n_approved_pairs", 0)
    m = {f"llm_e2e.{k}_s": mx.get(f"sec_{k}", 0.0)
         for k in ("extract", "dedup", "embed", "ann_link", "judge",
                   "canonicalize")}
    m.update({
        "llm.calls": calls,
        "llm.retries": sum(c.get(f"{t}.retry", 0) for t in tags),
        "llm.failed": sum(c.get(f"{t}.fail", 0) for t in tags),
        "llm.busy_share": (c.get("extract.seconds", 0.0)
                           / (slots * mx["sec_extract"])
                           if mx.get("sec_extract") else 0.0),
        "ann.candidate_pairs": cands, "judge.approved": approved,
        "judge.yield": approved / cands if cands else 0.0,
        "manifest.commits": len(os.listdir(os.path.join(out, "manifests"))),
    })
    digest, counts = checks.graph_digest(out)
    ok = digest == wl.digest and not m["llm.failed"] and not counts["dangling"]
    m["minhash.band_entities_per_s"] = _band_rate(
        _read_table(os.path.join(out, "nodes_exact")), wl.cfg)
    wl._drop(out)
    return m, sp.s("op"), ok, "" if ok else "traced lifecycle output differs", sp


# -- single-process kernels ---------------------------------------------------

def _read_table(path: str):
    import pyarrow.dataset as pads
    return pads.dataset(path, format="parquet").to_table()


def _rate(n: int, fn, repeats: int = 3) -> float:
    """Items per second of ``fn`` (processing ``n`` items), median of
    ``repeats`` timings."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return n / statistics.median(times)


def _band_rate(nodes_tbl, cfg) -> float:
    from agraph_ray.stages.canonicalize import MinHashBander
    cols = [c for c in ("entity_id", "name", "entity_type", "aliases",
                        "properties") if c in nodes_tbl.schema.names]
    tbl = nodes_tbl.select(cols)
    bander = MinHashBander(cfg)
    return _rate(tbl.num_rows, lambda: bander(tbl))


def kernel_rates(cfg, n_docs: int = 30) -> Dict[str, float]:
    """rules.* rates on a fixed, seed-independent document sample, in this
    process without Ray: the hardware reference."""
    import pyarrow as pa
    from agraph_ray.extract.rules import RuleExtractor
    from agraph_ray.stages.extract import ExtractStage
    texts = corpus.sample_texts(n_docs)
    eng = RuleExtractor(confidence_threshold=cfg.confidence_threshold,
                        max_keywords=cfg.max_keywords)
    agg = {t: eng.extract_agg(t) for t in texts}

    class _Replay:       # returns the cached results: times assembly alone
        def extract_agg(self, text):
            return agg[text]

    batch = pa.table({"conv_id": [f"k{i}" for i in range(n_docs)],
                      "doc_seq": [0] * n_docs, "text": texts})
    stage = ExtractStage(cfg, engine=_Replay())
    return {
        "rules.extract_agg_docs_per_s": _rate(
            n_docs, lambda: [eng.extract_agg(t) for t in texts]),
        "rules.assembly_docs_per_s": _rate(n_docs, lambda: stage(batch)),
    }


# -- the traced run -------------------------------------------------------------

def traced(wl, seconds: float) -> dict:
    from kgbench.run import guarded, result_object
    from .workloads import KgUpdate, LlmLifecycle, OpResult
    fn = (trace_update if isinstance(wl, KgUpdate) else
          trace_llm if isinstance(wl, LlmLifecycle) else trace_build)
    samples, spans = [], []

    def one() -> OpResult:
        m, op_s, ok, detail, sp = fn(wl)
        m["trace.op_s"] = op_s
        samples.append(m)
        spans.append(sp.spans)
        return OpResult(op_s, ok, detail)

    ref = guarded(wl.op)              # untraced reference op
    ops = [ref]
    spent = 0.0
    while spent < seconds or len(ops) < 2:
        ops.append(guarded(one))
        spent += ops[-1].seconds
    metrics = {k: statistics.median(s.get(k, 0.0) for s in samples)
               if samples else 0.0 for k in PER_LAYER}
    metrics.update(kernel_rates(wl.cfg))
    metrics["trace.gap_s"] = metrics["trace.op_s"] - ref.seconds
    metrics["update.add_s"] = ref.parts.get("add_s", 0.0)
    metrics["update.remove_s"] = ref.parts.get("remove_s", 0.0)
    detail = {"workload": wl.name, "seed": wl.seed, "untraced_op_s": ref.seconds,
              "traced_op_s": [round(s["trace.op_s"], 4) for s in samples],
              "failures": [r.detail for r in ops if not r.ok],
              "spans": [[(n, p, round(e - b, 4)) for n, p, b, e in sp]
                        for sp in spans]}
    return result_object(ops, {k: (metrics[k], unit)
                               for k, (unit, _) in PER_LAYER.items()}, detail)
