"""Stage-level tests: reassembly (incl. salting), chunker, dedup merge,
union-find, canonicalization."""

import pandas as pd
import pytest

from agraph_ray.config import KGConfig
from agraph_ray.stages.chunk import ApproxTokenChunker


# ---------------- reassembly ----------------

def test_reassemble_restores_turn_order(ray_session):
    import ray.data as rd
    from agraph_ray.stages.reassemble import reassemble
    rows = [{"conv_id": "c1", "turn_idx": i, "text": f"t{i}"} for i in (3, 0, 2, 1)]
    rows += [{"conv_id": "c2", "turn_idx": i, "text": f"u{i}"} for i in (1, 0)]
    docs = {r["conv_id"]: r["text"]
            for r in reassemble(rd.from_items(rows), KGConfig(),
                                detect_hot=False).take_all()}
    assert docs["c1"] == "t0\nt1\nt2\nt3"
    assert docs["c2"] == "u0\nu1"


def test_reassemble_salts_hot_conversations(ray_session):
    import ray.data as rd
    from agraph_ray.stages.reassemble import reassemble
    cfg = KGConfig(hot_conv_turns=10, salt_span=8)
    rows = [{"conv_id": "big", "turn_idx": i, "text": f"x{i}"} for i in range(30)]
    rows += [{"conv_id": "small", "turn_idx": i, "text": f"y{i}"} for i in range(3)]
    out = reassemble(rd.from_items(rows), cfg).take_all()
    big = sorted((r for r in out if r["conv_id"] == "big"),
                 key=lambda r: r["doc_seq"])
    assert [r["doc_seq"] for r in big] == [0, 1, 2, 3]        # 30/8 → 4 sub-docs
    assert [r["n_turns"] for r in big] == [8, 8, 8, 6]
    # concatenation preserves the full conversation text
    joined = "\n".join(r["text"] for r in big)
    assert joined == "\n".join(f"x{i}" for i in range(30))
    small = [r for r in out if r["conv_id"] == "small"]
    assert len(small) == 1 and small[0]["doc_seq"] == 0


# ---------------- chunker ----------------

def test_chunker_bounds_and_overlap():
    c = ApproxTokenChunker(chunk_size=50, chunk_overlap=10)
    text = ". ".join(f"sentence number {i} with several extra words here"
                     for i in range(40))
    chunks = c.split_text(text)
    assert len(chunks) > 1
    for ch in chunks:
        assert c.count_tokens(ch) <= 50 + 10
    # no content loss: every sentence id appears somewhere
    joined = " ".join(chunks)
    for i in range(40):
        assert f"number {i} " in joined or joined.endswith(f"number {i}")


def test_chunker_short_text_single_chunk():
    c = ApproxTokenChunker(chunk_size=512, chunk_overlap=100)
    assert c.split_text("short text") == ["short text"]


def test_chunker_rejects_bad_overlap():
    with pytest.raises(ValueError):
        ApproxTokenChunker(chunk_size=10, chunk_overlap=10)


# ---------------- dedup merge ----------------

def test_dedup_entities_merge_semantics(ray_session):
    import ray.data as rd
    from agraph_ray.stages.dedup import dedup_entities
    rows = [
        dict(kind="entity", conv_id="c1", entity_id="entity_x", name="Apple",
             norm_name="apple", entity_type="organization", description="d1",
             aliases=["AAPL"], confidence=0.8, source="text_extraction"),
        dict(kind="entity", conv_id="c2", entity_id="entity_x", name="apple",
             norm_name="apple", entity_type="organization", description="d2",
             aliases=["apple co"], confidence=0.6, source="text_extraction"),
        dict(kind="entity", conv_id="c1", entity_id="entity_y", name="pear",
             norm_name="pear", entity_type="concept", description="",
             aliases=[], confidence=0.6, source="keyword_extraction"),
    ]
    nodes = {r["name"]: r for r in dedup_entities(rd.from_items(rows)).take_all()}
    assert set(nodes) == {"apple", "pear"}
    a = nodes["apple"]
    assert a["confidence"] == 0.8            # max confidence wins
    assert a["description"] == "d1"          # description of max-confidence rec
    assert sorted(a["aliases"]) == ["AAPL", "apple co"]   # union
    assert a["n_mentions"] == 2


def test_dedup_edges_keeps_max_confidence(ray_session):
    import ray.data as rd
    from agraph_ray.stages.dedup import dedup_edges
    base = dict(kind="triple", conv_id="c", subj="a", subj_type="person",
                pred="related_to", obj="b", obj_type="person",
                head_id="entity_a", tail_id="entity_b",
                relation_id="relation_1")
    rows = [dict(base, confidence=0.5, source="cooccurrence"),
            dict(base, confidence=0.7, source="text_pattern_matching")]
    out = dedup_edges(rd.from_items(rows)).take_all()
    assert len(out) == 1
    assert out[0]["confidence"] == 0.7
    assert out[0]["source"] == "text_pattern_matching"
    assert out[0]["n_mentions"] == 2


# ---------------- union-find ----------------

@pytest.mark.parametrize("driver_threshold", [2_000_000, 0],
                         ids=["driver-uf", "distributed-labelprop"])
def test_connected_components_chain_and_islands(ray_session, driver_threshold):
    import ray.data as rd
    from agraph_ray.state.unionfind import (components_to_canonical_map,
                                            connected_components)
    edges = rd.from_items([
        {"src": "b", "dst": "a"}, {"src": "b", "dst": "c"},
        {"src": "c", "dst": "d"}, {"src": "x", "dst": "y"},
    ])
    labels = {r["node"]: r["label"]
              for r in connected_components(
                  edges, max_iters=10,
                  driver_threshold=driver_threshold).take_all()}
    assert labels == {"a": "a", "b": "a", "c": "a", "d": "a",
                      "x": "x", "y": "x"}
    cmap = components_to_canonical_map(
        connected_components(edges, driver_threshold=driver_threshold))
    assert cmap == {"b": "a", "c": "a", "d": "a", "y": "x"}


def test_alias_block_merges_spelled_out_entity(ray_session):
    """'IBM' whose alias is the spelled-out name must merge with the
    spelled-out entity even though no name shingle collides (alias-block
    candidates, llm_builders.py:471-475; weighted scoring,
    entity_merger.py:193-293)."""
    import ray.data as rd
    from agraph_ray.stages.canonicalize import compute_canonical_map
    n1 = _node("entity_a", "ibm")
    n1["aliases"] = ["International Business Machines"]
    n2 = _node("entity_b", "international business machines")
    n3 = _node("entity_c", "completely different gadgets")
    cmap = compute_canonical_map(rd.from_items([n1, n2, n3]))
    assert cmap == {"entity_b": "entity_a"}


def test_weighted_similarity_reference_semantics():
    from agraph_ray.stages.canonicalize import weighted_similarity
    # identical everything
    assert weighted_similarity("Acme Corp", "Acme Corp", "organization",
                               "organization", [], [], {}, {}) == 1.0
    # no overlap, same type, no alias/prop info: 0.2 type + 0.2 + 0.2
    assert abs(weighted_similarity("alpha", "beta", "organization",
                                   "organization", [], [], {}, {})
               - 0.6) < 1e-9
    # property partial credit: case-insensitive equal 0.8, containment 0.5
    s = weighted_similarity("x co", "x co", "organization", "organization",
                            ["x"], ["x"],
                            {"hq": "Berlin", "ceo": "Ada"},
                            {"hq": "berlin", "ceo": "Ada Lovelace"})
    assert abs(s - (0.4 + 0.2 + 0.2 + 0.2 * ((0.8 + 0.5) / 2))) < 1e-9


def test_connected_components_empty(ray_session):
    import ray.data as rd
    import pyarrow as pa
    from agraph_ray.state.unionfind import connected_components
    empty = rd.from_arrow(pa.table({"src": pa.array([], pa.string()),
                                    "dst": pa.array([], pa.string())}))
    assert connected_components(empty).count() == 0


def test_connected_components_long_chain_distributed(ray_session):
    """10k-edge chain on the distributed path: pointer doubling must
    converge in O(log n) rounds (a plain min-label walk needs 10k) and the
    labels must match the exact driver union-find."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.state.unionfind import connected_components
    n = 10_000
    ids = [f"n{i:05d}" for i in range(n + 1)]
    edges = rd.from_arrow(pa.table({"src": ids[:-1], "dst": ids[1:]}))
    dist = {r["node"]: r["label"]
            for r in connected_components(
                edges, driver_threshold=0).take_all()}
    drv = {r["node"]: r["label"]
           for r in connected_components(
               edges, driver_threshold=2_000_000).take_all()}
    assert dist == drv
    assert set(dist.values()) == {ids[0]}


def test_connected_components_nonconvergence_raises(ray_session):
    import pyarrow as pa
    import pytest
    import ray.data as rd
    from agraph_ray.state.unionfind import connected_components
    ids = [f"n{i:03d}" for i in range(60)]
    edges = rd.from_arrow(pa.table({"src": ids[:-1], "dst": ids[1:]}))
    with pytest.raises(RuntimeError, match="did not converge"):
        connected_components(edges, max_iters=2, driver_threshold=0)


# ---------------- linking / canonicalization ----------------

def _node(eid, name, etype="organization", conf=0.8):
    return dict(entity_id=eid, name=name, display_name=name,
                entity_type=etype, description="", aliases=[],
                confidence=conf, source="text_extraction",
                n_mentions=1, n_convs=1)


def test_link_entities_finds_near_duplicates(ray_session):
    import ray.data as rd
    from agraph_ray.stages.canonicalize import link_entities
    nodes = rd.from_items([
        _node("entity_1", "globex incorporated"),
        _node("entity_2", "globex incorporated."),     # near-dup
        _node("entity_3", "completely different name"),
    ])
    pairs = link_entities(nodes, KGConfig()).take_all()
    assert {(p["src"], p["dst"]) for p in pairs} == {("entity_1", "entity_2")}


def test_link_entities_keeps_best_sim_of_case_variants(ray_session):
    """A case variant surfaces from minhash blocks (difflib ratio < 1)
    and from its alias block (weighted score 1.0): the pair is reported
    once, with its best sim, so a 0.95 threshold keeps it."""
    import ray.data as rd
    from agraph_ray.stages.canonicalize import (find_similar_entities,
                                                link_entities)
    variants = [("Acme Corp", "Acme corp"), ("Globex Inc", "Globex inc"),
                ("Stark Industries", "Stark industries")]
    for a, b in variants:
        nodes = rd.from_items([_node("e1", a), _node("e2", b)])
        pairs = link_entities(nodes, KGConfig()).take_all()
        assert [(p["src"], p["dst"], p["sim"]) for p in pairs] == \
            [("e1", "e2", 1.0)], (a, b)
        kept = find_similar_entities(nodes, KGConfig(),
                                     similarity_threshold=0.95).take_all()
        assert len(kept) == 1, (a, b)


def test_canonicalize_rewrites_edges(ray_session):
    import ray.data as rd
    from agraph_ray.stages.canonicalize import canonicalize
    nodes = rd.from_items([
        _node("entity_1", "globex incorporated"),
        _node("entity_2", "globex incorporated."),
        _node("entity_3", "acme unrelated thing"),
    ])
    edges = rd.from_items([dict(
        relation_id="relation_1", head_id="entity_2", tail_id="entity_3",
        relation_type="related_to", subj="globex incorporated.",
        obj="acme unrelated thing", subj_type="organization",
        obj_type="organization", confidence=0.5, source="cooccurrence",
        n_mentions=1)])
    cn, ce, cmap = canonicalize(nodes, edges, KGConfig())
    assert cmap == {"entity_2": "entity_1"}

    def rows(x):   # pa.Table (driver rewrite path) or Dataset
        return x.to_pylist() if hasattr(x, "to_pylist") else x.take_all()

    node_ids = {r["entity_id"] for r in rows(cn)}
    assert node_ids == {"entity_1", "entity_3"}
    e = rows(ce)[0]
    assert e["head_id"] == "entity_1"            # rewritten to canonical id
    merged = [r for r in rows(cn) if r["entity_id"] == "entity_1"][0]
    assert merged["n_mentions"] == 2


def test_render_chat_salting_and_stats(ray_session):
    """Role tags render in turn order; assistant stats count only
    assistant turns; a conversation longer than salt_span splits into
    doc_seq sub-renders that concatenate back to the full render."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.stages.reassemble import render_chat

    rows = []
    for i in range(7):
        rows.append({"conv_id": "c1", "turn_idx": i,
                     "role": "user" if i % 2 == 0 else "assistant",
                     "text": f"t{i}"})
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(3)
    out = render_chat(ds).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert r["text"] == ("<|user|>t0<|assistant|>t1<|user|>t2"
                         "<|assistant|>t3<|user|>t4<|assistant|>t5"
                         "<|user|>t6")
    assert r["n_turns"] == 7 and r["n_assistant_turns"] == 3
    assert r["assistant_chars"] == 6
    # salted: spans of 3 turns -> 3 sub-renders, concat == unsalted
    salted = render_chat(ds, salt_span=3).to_pandas().sort_values(
        "doc_seq")
    assert list(salted["doc_seq"]) == [0, 1, 2]
    assert "".join(salted["text"]) == r["text"]


def test_extract_branch_overlap_equals_fused(ray_session, tmp_path):
    """The large-corpus path (two thread-overlapped branch executions)
    must emit exactly the fused single-execution's mentions."""
    import pandas as pd

    import agraph_ray.stages.extract as ex
    from agraph_ray.config import KGConfig
    from agraph_ray.stages.reassemble import reassemble
    from agraph_ray.synth import generate_transcripts
    import ray.data as rd

    d = str(tmp_path / "in")
    generate_transcripts(d, n_convs=30, seed=7, num_shards=2)
    cfg = KGConfig(hot_conv_turns=100, salt_span=64)
    docs = reassemble(
        rd.read_parquet(d, columns=["conv_id", "turn_idx", "text"]),
        cfg).materialize()

    import json

    import ray

    def run(thresh):
        import pyarrow as pa
        old = ex._BRANCH_OVERLAP_BYTES
        ex._BRANCH_OVERLAP_BYTES = thresh
        try:
            m = ex.extract_mentions(docs, cfg).materialize()
        finally:
            ex._BRANCH_OVERLAP_BYTES = old
        refs = [t for t in ray.get(m.to_arrow_refs()) if t.num_rows]
        tbl = pa.concat_tables(refs, promote_options="default")
        # json-render rows (list columns are ragged — pandas' tensor
        # conversion chokes) and sort for order-independent compare
        return sorted(json.dumps(r, sort_keys=True, default=str)
                      for r in tbl.to_pylist())

    fused = run(1 << 60)      # threshold never reached → fused union
    overlap = run(0)          # always overlap → two executions
    assert fused == overlap and len(fused) > 0


def test_precombine_preserves_merge_and_bounds_blocks(ray_session):
    """_precombine is an associative second-level re-merge: the final
    reduced table equals the un-precombined one, and the coalesced
    width respects the blocks/8 memory floor."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from agraph_ray.stages.common import bucketed_group_reduce
    from agraph_ray.stages.dedup import (EDGES_SCHEMA, _edge_partial,
                                         _precombine, merge_edges_bucket)

    rng = np.random.default_rng(3)
    n = 4000
    t = pa.table({
        "relation_id": pa.array([f"r{int(i)}" for i in
                                 rng.integers(0, 400, n)]),
        "head_id": pa.array(["h"] * n), "tail_id": pa.array(["t"] * n),
        "relation_type": pa.array(["related_to"] * n),
        "subj": pa.array(["s"] * n), "obj": pa.array(["o"] * n),
        "subj_type": pa.array(["organization"] * n),
        "obj_type": pa.array(["organization"] * n),
        "description": pa.array([""] * n),
        "properties": pa.array([None] * n, pa.string()),
        "confidence": pa.array(rng.random(n).round(3)),
        "source": pa.array(["cooccurrence"] * n),
        "n_mentions": pa.array([1] * n, pa.int64()),
    })
    parts = (rd.from_arrow(t).repartition(40)
             .map_batches(_edge_partial, batch_format="pyarrow")
             .materialize())
    pre = _precombine(parts, _edge_partial, width=4).materialize()
    # width floors at blocks/8: 40 blocks -> at least 5-wide coalesce
    assert pre.num_blocks() <= max(8, parts.num_blocks())
    assert pre.count() < parts.count()

    def fin(ds):
        out = bucketed_group_reduce(ds, ["relation_id"],
                                    merge_edges_bucket, 8,
                                    schema=EDGES_SCHEMA).take_all()
        return sorted((r["relation_id"], r["n_mentions"],
                       round(r["confidence"], 6)) for r in out)

    assert fin(pre) == fin(parts)


def test_bucketed_group_reduce_one_call_per_block(ray_session):
    """reduce_df runs once per sorted block, not once per bucket: a
    one-block input of 200 keys over 64 buckets makes at most
    ``num_blocks`` calls, and every row reaches exactly one call."""
    import ray.data as rd

    from agraph_ray.stages.common import bucketed_group_reduce

    ds = rd.from_pandas(pd.DataFrame({"k": [f"k{i}" for i in range(200)]}))
    assert ds.num_blocks() == 1
    out = bucketed_group_reduce(
        ds, ["k"], lambda df: pd.DataFrame({"rows": [len(df)]}),
        num_buckets=64).take_all()
    assert len(out) <= ds.num_blocks()
    assert sum(r["rows"] for r in out) == 200


def test_bucketed_group_reduce_schema_types_empty_results(ray_session):
    """With a ``schema``, a block whose reduce yields no rows is emitted
    as that schema's typed empty table (an empty pandas frame would carry
    NaN-float columns that can't cast to list types)."""
    import pyarrow as pa
    import ray.data as rd

    from agraph_ray.stages.common import bucketed_group_reduce

    schema = pa.schema([pa.field("k", pa.string()),
                        pa.field("ids", pa.list_(pa.int64()))])
    ds = rd.from_pandas(pd.DataFrame({"k": ["a", "b", "c"]})).repartition(3)
    out = bucketed_group_reduce(
        ds, ["k"], lambda df: pd.DataFrame({"k": [], "ids": []}),
        num_buckets=4, schema=schema).materialize()
    assert out.count() == 0
    assert out.schema().base_schema == schema


def test_distinct_on_round_trip_logs_no_schema_hash_warning(ray_session,
                                                            tmp_path):
    """Reduce outputs carry no pandas schema metadata, whose dict makes a
    pyarrow schema unhashable: Ray then logs "Failed to hash the schemas"
    and skips its schema-unify fast path on every concat."""
    import io
    import logging

    import pyarrow as pa
    import ray.data as rd

    from agraph_ray.stages.common import distinct_on

    t = pa.table({"src": [f"e{i % 37}" for i in range(400)],
                  "dst": [f"f{i % 11}" for i in range(400)],
                  "sim": [0.5] * 400})
    buf = io.StringIO()
    handler = logging.StreamHandler(buf)
    log = logging.getLogger("ray.data")
    log.addHandler(handler)
    try:
        distinct_on(rd.from_arrow(t).repartition(8), ["src", "dst"],
                    8).write_parquet(str(tmp_path))
        assert rd.read_parquet(str(tmp_path)).count() == 400
    finally:
        log.removeHandler(handler)
    assert "Failed to hash the schemas" not in buf.getvalue()
