"""Remaining reference utility surfaces.

- reverse relations with the reverse-type map (agraph/relations.py:127-162)
- entity importance / degree centrality
  (agraph/services/graph_analyzer.py:245-267)
- chunk-to-chunk similarity: Jaccard over linked entities (0.6) and
  relations (0.4) (agraph/text.py:277-297), as a blocked pair op
- RAG context formatting for the chat path (the deterministic half of
  agraph/retrieval/knowledge_retriever.py:798-851 — the LLM call itself is
  a provider client that slots in above this)
- whole-graph JSON debug export (agraph/builders/llm_builders.py:1280,
  1303-1316 graph.json)

:func:`chunk_similarity_pairs` filters the relation lists to candidate
chunks with a semi join through ``ops/join.py::auto_join``.
"""

from __future__ import annotations

import json
from typing import Dict, List

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..ids import relation_id


REVERSE_RELATION_TYPE = {
    "contains": "belongs_to",
    "belongs_to": "contains",
    "references": "references",
    "similar_to": "similar_to",
    "synonyms": "synonyms",
}


def reverse_relation_type(rtype: str) -> str:
    """relations.py:146-162 reverse map; unmapped types reverse to
    themselves."""
    return REVERSE_RELATION_TYPE.get(rtype, rtype)


def reverse_edges(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """Every edge reversed (head/tail swapped, type mapped) — pure map."""
    def rev(t: pa.Table) -> pa.Table:
        rt = [reverse_relation_type(r)
              for r in t["relation_type"].to_pylist()]
        return pa.table({
            "relation_id": pa.array(
                [relation_id(o, r, s) for s, r, o in
                 zip(t["subj"].to_pylist(), rt, t["obj"].to_pylist())],
                pa.string()),
            "head_id": t["tail_id"],
            "tail_id": t["head_id"],
            "relation_type": pa.array(rt, pa.string()),
            "subj": t["obj"],
            "obj": t["subj"],
            "confidence": t["confidence"],
            "source": t["source"],
        })

    cols = ["relation_id", "head_id", "tail_id", "relation_type",
            "subj", "obj", "confidence", "source"]
    return edges.select_columns(cols).map_batches(rev, batch_format="pyarrow")


def entity_importance(edges: "ray.data.Dataset",
                      n_entities: int) -> "ray.data.Dataset":
    """Degree centrality: degree / (n_entities - 1)
    (graph_analyzer.py:245-267)."""
    from .graph import degree_table
    denom = max(1, n_entities - 1)
    deg = degree_table(edges)
    return deg.map_batches(
        lambda t: t.append_column(
            "importance", pc.divide(pc.cast(t["degree"], pa.float64()),
                                    float(denom))),
        batch_format="pyarrow")


def chunk_similarity_pairs(linked_chunks: "ray.data.Dataset",
                           threshold: float = 0.2,
                           num_buckets: int = 64,
                           max_block_pairs: int = 200_000,
                           ) -> "ray.data.Dataset":
    """Chunk pairs with entity/relation-overlap similarity ≥ threshold
    (text.py:277-297: 0.6 * entity Jaccard + 0.4 * relation Jaccard).

    Two phases, so relation lists never ride the blocking fanout (chunks
    can link 100x more relations than entities — the single-phase version
    shipped every chunk's full relation list once per linked entity,
    ~700 MB of list payload for a 500-chunk corpus):

    1. Entity blocking: one fanout row per (chunk, linked entity) carrying
       only the chunk's entity-hash list; candidate pairs form within
       entity blocks with their exact entity Jaccard. Pairs whose upper
       bound 0.6*eJ + 0.4 (relation Jaccard ≤ 1) misses the threshold are
       pruned here. Entity-disjoint pairs score 0 (no relation without
       its endpoints), so blocking is lossless.
    2. Relation Jaccard is attached by co-grouping the candidates with the
       relation lists of ONLY candidate-incident chunks (a semi join on
       their ids through ``ops/join.py::auto_join``; the lists never ride
       it).

    The all-pairs reference scan is O(n²); this is candidate-bound.
    """
    import ray.data as rd
    from ..stages.common import bucketed_group_reduce, distinct_on
    from .join import auto_join

    # signed-int64 stable hashes for the id lists: the ids carry 32 bits of
    # entropy (md5[:8] hex), so at ~10^5 distinct ids a 32-bit hash
    # (previously crc32) has expected birthday collisions that silently
    # inflate Jaccard — 64 bits pushes collisions past 10^9 ids while still
    # cutting shuffle bytes ~2x vs the id strings
    from ..ids import stable_hash64_signed as _h64

    def fanout(t: pa.Table) -> pa.Table:
        cid, ent, ents = [], [], []
        for c, es in zip(t["chunk_id"].to_pylist(),
                         t["entities"].to_pylist()):
            eh = [_h64(e) for e in es or []]
            for e in es or []:
                cid.append(c)
                ent.append(e)
                ents.append(eh)
        return pa.table({
            "block": pa.array(ent, pa.string()),
            "chunk_id": pa.array(cid, pa.string()),
            "entities": pa.array(ents, pa.list_(pa.int64()))})

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        out: List[Dict] = []

        def emit(members_a, members_b, esim):
            if members_b is None:   # intra-signature-group pairs
                for x in range(len(members_a)):
                    for y in range(x + 1, len(members_a)):
                        out.append({"chunk_a": members_a[x],
                                    "chunk_b": members_a[y],
                                    "e_sim": esim})
            else:
                for a in members_a:
                    for b in members_b:
                        lo, hi = (a, b) if a < b else (b, a)
                        out.append({"chunk_a": lo, "chunk_b": hi,
                                    "e_sim": esim})

        for block, g in df.groupby("block", sort=False):
            block_h = _h64(block)
            g = g.drop_duplicates("chunk_id").sort_values("chunk_id")
            # collapse identical entity signatures: the pair loop shrinks
            # from |chunks|^2 to |signatures|^2
            groups: Dict = {}
            for r in g.itertuples(index=False):
                groups.setdefault(frozenset(r.entities), []).append(
                    r.chunk_id)
            sigs = sorted(groups.items(), key=lambda kv: kv[1][0])
            budget = max_block_pairs
            for i, (ea, members_a) in enumerate(sigs):
                if budget <= 0:
                    break
                if len(members_a) > 1 and min(ea) == block_h:
                    emit(members_a, None, 1.0)
                la = len(ea)
                for eb, members_b in sigs[i + 1:]:
                    # budget bounds ITERATIONS (work) over signature
                    # pairs; overflow is dropped (hot blocks are
                    # quadratic otherwise) — documented approximation
                    budget -= 1
                    if budget < 0:
                        break
                    # size-ratio upper bound: entity Jaccard ≤ min/max,
                    # relation Jaccard ≤ 1 — prune before set work
                    lb = len(eb)
                    if 0.6 * min(la, lb) / max(la, lb, 1) + 0.4 < threshold:
                        continue
                    inter = ea & eb
                    # each pair is OWNED by its smallest-hash shared
                    # entity — other shared-entity blocks skip it
                    # (cross-block dedup without a second shuffle)
                    if not inter or min(inter) != block_h:
                        continue
                    ej = len(inter) / len(ea | eb)
                    if 0.6 * ej + 0.4 >= threshold:
                        emit(members_a, members_b, ej)
        return pd.DataFrame(out, columns=["chunk_a", "chunk_b", "e_sim"])

    cand_schema = pa.schema([("chunk_a", pa.string()),
                             ("chunk_b", pa.string()),
                             ("e_sim", pa.float64())])
    fanned = linked_chunks.select_columns(
        ["chunk_id", "entities"]).map_batches(fanout, batch_format="pyarrow")
    cand = distinct_on(
        bucketed_group_reduce(fanned, ["block"], pairs, num_buckets,
                              schema=cand_schema),
        ["chunk_a", "chunk_b"], num_buckets).materialize()

    # ---- phase 2: relation Jaccard for the candidates only ----
    if cand.count() == 0:
        return rd.from_arrow(pa.schema(
            [("chunk_a", pa.string()), ("chunk_b", pa.string()),
             ("similarity", pa.float64())]).empty_table())
    ends = cand.map_batches(lambda t: pa.table({"chunk_id": pa.concat_arrays(
        [t["chunk_a"].combine_chunks(), t["chunk_b"].combine_chunks()])}),
        batch_format="pyarrow")
    rels = auto_join(linked_chunks.select_columns(["chunk_id", "relations"]),
                     ends, ["chunk_id"], how="semi", num_buckets=num_buckets)

    def hash_rels(t: pa.Table) -> pa.Table:
        rh = [sorted({_h64(r) for r in rs or []})
              for rs in t["relations"].to_pylist()]
        return pa.table({
            "key": t["chunk_id"].combine_chunks(),
            "chunk_a": pa.nulls(len(t), pa.string()),
            "chunk_b": pa.nulls(len(t), pa.string()),
            "e_sim": pa.nulls(len(t), pa.float64()),
            "rh": pa.array(rh, pa.list_(pa.int64()))})

    def tag_req(t: pa.Table) -> pa.Table:
        a = t["chunk_a"].combine_chunks()
        b = t["chunk_b"].combine_chunks()
        e = t["e_sim"].combine_chunks()
        empty = pa.nulls(len(t), pa.list_(pa.int64()))
        ta = pa.Table.from_arrays([a, a, b, e, empty],
                                  names=["key", "chunk_a", "chunk_b",
                                         "e_sim", "rh"])
        tb = pa.Table.from_arrays([b, a, b, e, empty],
                                  names=["key", "chunk_a", "chunk_b",
                                         "e_sim", "rh"])
        return pa.concat_tables([ta, tb])

    fetched_schema = pa.schema([("chunk_a", pa.string()),
                                ("chunk_b", pa.string()),
                                ("e_sim", pa.float64()),
                                ("key", pa.string()),
                                ("rh", pa.list_(pa.int64()))])

    def fetch(df: pd.DataFrame) -> pd.DataFrame:
        selfs = df.loc[df["chunk_a"].isna(), ["key", "rh"]]
        reqs = df.loc[df["chunk_a"].notna(),
                      ["key", "chunk_a", "chunk_b", "e_sim"]]
        return reqs.merge(selfs, on="key", how="inner")

    tagged = (rels.map_batches(hash_rels, batch_format="pyarrow")
              .union(cand.map_batches(tag_req, batch_format="pyarrow")))
    fetched = bucketed_group_reduce(tagged, ["key"], fetch, num_buckets,
                                    schema=fetched_schema)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        a_o, b_o, s_o = [], [], []
        for (a, b), g in df.groupby(["chunk_a", "chunk_b"], sort=False):
            by_key = {k: set(s) for k, s in zip(g["key"], g["rh"])}
            ra, rb = by_key.get(a, set()), by_key.get(b, set())
            ru = len(ra | rb)
            sim = (0.6 * g["e_sim"].iloc[0]
                   + 0.4 * (len(ra & rb) / ru if ru else 0.0))
            if sim >= threshold:
                a_o.append(a)
                b_o.append(b)
                s_o.append(round(sim, 6))
        return pd.DataFrame({
            "chunk_a": pd.Series(a_o, dtype=object),
            "chunk_b": pd.Series(b_o, dtype=object),
            "similarity": pd.Series(s_o, dtype="float64")})

    return bucketed_group_reduce(
        fetched, ["chunk_a", "chunk_b"], score, num_buckets,
        schema=pa.schema([("chunk_a", pa.string()),
                          ("chunk_b", pa.string()),
                          ("similarity", pa.float64())]))


def format_rag_context(entities: List[dict], relations: List[dict],
                       chunks: List[dict], query: str = "",
                       history: str = "",
                       response_type: str = "concise") -> str:
    """Deterministic KG+DC context block for the chat prompt
    (knowledge_retriever.py:798-851 context assembly; the RAG_SYS_PROMPT
    skeleton lives in agraph/config.py:85-120). Returns the filled data
    sections; an LLM provider client consumes this string."""
    kg_lines = ["-----Entities-----"]
    for e in entities:
        kg_lines.append(json.dumps(
            {"name": e.get("name"), "type": e.get("entity_type"),
             "score": round(float(e.get("score", 0)), 4)},
            ensure_ascii=False, sort_keys=True))
    kg_lines.append("-----Relations-----")
    for r in relations:
        kg_lines.append(json.dumps(
            {"head": r.get("subj"), "type": r.get("relation_type"),
             "tail": r.get("obj"),
             "score": round(float(r.get("score", 0)), 4)},
            ensure_ascii=False, sort_keys=True))
    dc_lines = ["-----Document Chunks-----"]
    for c in chunks:
        dc_lines.append(c.get("text", ""))
    return (f"---Conversation History---\n{history}\n\n"
            f"---Query---\n{query}\n\n"
            "1. From Knowledge Graph(KG):\n" + "\n".join(kg_lines)
            + "\n\n2. From Document Chunks(DC):\n" + "\n".join(dc_lines)
            + f"\n\n---Target format---\n{response_type}")


def write_graph_json(nodes: "ray.data.Dataset", edges: "ray.data.Dataset",
                     path: str, graph_name: str = "kg",
                     max_rows: int = 1_000_000) -> Dict[str, int]:
    """Single-document graph.json debug export (llm_builders.py:1303-1316
    layout: entities/relations keyed by id). Guarded against accidental
    full-corpus export."""
    n = nodes.count()
    if n > max_rows:
        raise ValueError(f"graph.json export of {n} nodes exceeds "
                         f"max_rows={max_rows}")
    def _props(r):
        raw = r.get("properties")
        return json.loads(raw) if raw else {}

    doc = {"name": graph_name, "entities": {}, "relations": {}}
    for b in nodes.iter_batches(batch_size=None, batch_format="pyarrow"):
        for r in b.to_pylist():
            doc["entities"][r["entity_id"]] = {
                "id": r["entity_id"], "name": r["name"],
                "entity_type": r["entity_type"],
                "description": r.get("description", ""),
                "aliases": list(r.get("aliases") or []),
                "properties": _props(r),
                "confidence": r["confidence"], "source": r.get("source", "")}
    for b in edges.iter_batches(batch_size=None, batch_format="pyarrow"):
        for r in b.to_pylist():
            doc["relations"][r["relation_id"]] = {
                "id": r["relation_id"],
                "head_entity_id": r["head_id"],
                "tail_entity_id": r["tail_id"],
                "relation_type": r["relation_type"],
                "description": r.get("description") or "",
                "properties": _props(r),
                "confidence": r["confidence"], "source": r.get("source", "")}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, ensure_ascii=False)
    return {"entities": len(doc["entities"]),
            "relations": len(doc["relations"])}
