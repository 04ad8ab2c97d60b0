"""Graph analytics / validation / inference / export / retrieval /
incremental tests over the shared end-to-end build."""

import json
import os

import pyarrow as pa
import pytest


@pytest.fixture(scope="module")
def tables(ray_session, kg_out):
    import ray.data as rd
    nodes = rd.read_parquet(kg_out.tables["nodes"]).materialize()
    edges = rd.read_parquet(kg_out.tables["edges"]).materialize()
    return nodes, edges


def test_degree_table(tables):
    from agraph_ray.ops.graph import degree_table
    nodes, edges = tables
    deg = degree_table(edges).to_pandas()
    assert (deg["degree"] == deg["in_degree"] + deg["out_degree"]).all()
    # total degree mass = 2 * edge count
    assert deg["degree"].sum() == 2 * edges.count()


def test_graph_statistics(tables):
    from agraph_ray.ops.graph import graph_statistics
    nodes, edges = tables
    stats = graph_statistics(nodes, edges)
    assert stats["total_entities"] == nodes.count()
    assert stats["total_relations"] == edges.count()
    assert sum(stats["entity_types"].values()) == nodes.count()
    assert sum(stats["relation_types"].values()) == edges.count()
    assert 0 <= stats["density"] <= 1
    assert stats["degree_statistics"]["max_degree"] >= 1
    assert stats["connectivity"]["components"] >= 1


def test_validate_graph_clean(tables):
    from agraph_ray.ops.graph import validate_graph
    nodes, edges = tables
    issues = validate_graph(nodes, edges).to_pandas()
    if issues.empty:       # zero issues: Ray drops schema on empty unions
        return
    # the pipeline's own output must be integrity-clean
    bad = issues[issues["severity"] == "high"]
    assert len(bad) == 0, bad.head()
    # duplicate signatures impossible after dedup on norm_name
    assert (issues["issue_type"] != "duplicate_entity").all()


def test_validate_graph_detects_dangling(ray_session, tables):
    import ray.data as rd
    from agraph_ray.ops.graph import validate_graph
    nodes, edges = tables
    fake = rd.from_arrow(pa.table({
        "relation_id": ["relation_ffffffff"],
        "head_id": ["entity_nonexistent"],
        "tail_id": [nodes.take(1)[0]["entity_id"]],
        "confidence": [0.9],
    }))
    issues = validate_graph(nodes, edges.select_columns(
        ["relation_id", "head_id", "tail_id", "confidence"])
        .union(fake)).to_pandas()
    dang = issues[issues["issue_type"].str.startswith("invalid_head")]
    assert len(dang) == 1
    assert dang.iloc[0]["ref_id"] == "relation_ffffffff"


def test_infer_symmetric(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph import infer_symmetric
    edges = rd.from_arrow(pa.table({
        "relation_id": ["r1", "r2"],
        "head_id": ["e1", "e1"], "tail_id": ["e2", "e3"],
        "relation_type": ["similar_to", "contains"],
        "subj": ["a", "a"], "obj": ["b", "c"],
        "confidence": [0.8, 0.9],
    }))
    out = infer_symmetric(edges).to_pandas()
    assert len(out) == 1  # only similar_to reverses
    assert out.iloc[0]["subj"] == "b" and out.iloc[0]["obj"] == "a"
    assert abs(out.iloc[0]["confidence"] - 0.72) < 1e-9
    assert out.iloc[0]["source"] == "symmetric_inference"


def test_infer_transitive(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph import infer_transitive_contains
    edges = rd.from_arrow(pa.table({
        "head_id": ["A", "B"], "tail_id": ["B", "C"],
        "relation_type": ["contains", "contains"],
        "subj": ["a", "b"], "obj": ["b", "c"],
        "confidence": [1.0, 0.9],
    }))
    out = infer_transitive_contains(edges).to_pandas()
    assert len(out) == 1
    r = out.iloc[0]
    assert (r["subj"], r["obj"]) == ("a", "c")
    assert abs(r["confidence"] - 0.9 * 0.8) < 1e-9


def test_infer_hierarchical(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph import infer_hierarchical
    nodes = rd.from_arrow(pa.table({
        "entity_id": ["o1", "p1", "p2"],
        "name": ["Acme", "Acme Smith", "Bob Jones"],
        "entity_type": ["organization", "person", "person"],
    }))
    out = infer_hierarchical(nodes).to_pandas()
    assert len(out) == 1
    assert out.iloc[0]["subj"] == "Acme"
    assert out.iloc[0]["obj"] == "Acme Smith"
    assert out.iloc[0]["confidence"] == 0.6


def test_exports_roundtrip(tables, tmp_path):
    from agraph_ray.export import (parse_graphml, to_cytoscape, to_d3,
                                   write_csv, write_graphml)
    nodes, edges = tables
    p = str(tmp_path / "kg.graphml")
    n = write_graphml(nodes, edges, p)
    assert n == nodes.count() + edges.count()
    parsed = parse_graphml(p)
    assert len(parsed["nodes"]) == nodes.count()
    assert len(parsed["edges"]) == edges.count()
    names = {r["entity_id"] for r in parsed["nodes"]}  # d0 = name attr
    assert len(names) > 1

    cy = to_cytoscape(nodes, edges)
    assert len(cy["elements"]["nodes"]) == nodes.count()
    assert len(cy["elements"]["edges"]) == edges.count()
    d3 = to_d3(nodes, edges)
    assert d3["graph_info"]["node_count"] == nodes.count()
    # links reference valid integer node indexes
    assert all(0 <= l["source"] < nodes.count() for l in d3["links"])

    counts = write_csv(nodes, edges, str(tmp_path / "n.csv"),
                       str(tmp_path / "e.csv"))
    assert counts == {"nodes": nodes.count(), "edges": edges.count()}


def test_embed_and_retrieval(ray_session, tables, kg_out):
    import ray.data as rd
    from agraph_ray.retrieval import GraphPathFinder, KnowledgeRetriever
    from agraph_ray.stages.embed import HashEmbedder, embed_dataset
    nodes, edges = tables

    emb = embed_dataset(nodes, render="entity").to_pandas()
    assert all(len(v) == 64 for v in emb["embedding"])
    # determinism: same row -> same vector on re-run
    emb2 = embed_dataset(nodes, render="entity").to_pandas()
    a = {n: tuple(v) for n, v in zip(emb["name"], emb["embedding"])}
    b = {n: tuple(v) for n, v in zip(emb2["name"], emb2["embedding"])}
    assert a == b

    kr = KnowledgeRetriever(nodes=nodes, edges=edges)
    name = nodes.take(5)[2]["name"]
    from agraph_ray.stages.embed import entity_to_text
    hits = kr.search_entities("anything", top_k=3)
    assert len(hits) == 3 and all("score" in h for h in hits)
    res = kr.search_knowledge("query", top_k=2)
    assert set(res) == {"entities", "relations", "text_chunks"}
    assert len(res["entities"]) == 2

    pf = GraphPathFinder(edges)
    e = edges.take(1)[0]
    nb = pf.neighbors(e["head_id"], max_hops=1)
    assert e["tail_id"] in nb
    path = pf.shortest_path(e["head_id"], e["tail_id"])
    assert path == [e["head_id"], e["tail_id"]]


def test_link_chunks(ray_session, kg_out, tables):
    import ray.data as rd
    from agraph_ray.stages.link_chunks import link_chunks
    nodes, edges = tables
    chunks = rd.read_parquet(kg_out.tables["chunks"])
    linked = link_chunks(chunks, nodes, edges).to_pandas()
    assert "entities" in linked and "relations" in linked
    # most chunks of planted-vocabulary text should link at least one entity
    frac = (linked["entities"].str.len() > 0).mean()
    assert frac > 0.5
    # relation link implies both endpoints present
    eid_by_rel = {r["relation_id"]: (r["head_id"], r["tail_id"])
                  for r in edges.select_columns(
                      ["relation_id", "head_id", "tail_id"]).take_all()}
    row = linked[linked["relations"].str.len() > 0].iloc[0]
    ents = set(row["entities"])
    for rid in row["relations"]:
        h, t = eid_by_rel[rid]
        assert h in ents and t in ents


def test_incremental_add_idempotent(ray_session, corpus_dir, tmp_path):
    import glob
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.incremental import add_documents, remove_documents
    from agraph_ray.pipelines.kg_build import build_kg
    cfg = KGConfig()
    out = str(tmp_path / "inc")
    shards = sorted(glob.glob(f"{corpus_dir}/*.parquet"))
    base = build_kg(shards[:3], out, cfg, with_chunks=False)

    # adding a shard grows the graph
    r1 = add_documents(out, shards[3:], cfg)
    assert r1.metrics["n_nodes"] >= base.metrics["n_nodes"]
    n_after_add = r1.metrics["n_triples"]

    # re-adding the same shard changes nothing (idempotent)
    r2 = add_documents(out, shards[3:], cfg)
    assert r2.metrics["n_nodes"] == r1.metrics["n_nodes"]
    assert r2.metrics["n_triples"] == n_after_add

    # removing one conversation shrinks (or keeps) every count
    import pyarrow.dataset as pads
    conv = pads.dataset(shards[3], format="parquet").to_table(
        columns=["conv_id"])["conv_id"][0].as_py()
    r3 = remove_documents(out, [conv], cfg)
    assert r3.metrics["n_triples"] <= n_after_add
    # removed conversation leaves no mentions behind
    left = pads.dataset(os.path.join(out, "mentions"),
                        format="parquet").to_table(columns=["conv_id"])
    assert conv not in set(left["conv_id"].to_pylist())


def test_db_schema_extraction(ray_session):
    import ray.data as rd
    from agraph_ray.ops.db_schema import (extract_schema_entities,
                                          extract_schema_relations)
    cols = rd.from_arrow(pa.table({
        "database": ["shop"] * 5,
        "table_name": ["tbl_users", "tbl_users", "orders", "orders",
                       "order_items"],
        "column_name": ["user_id", "email", "order_id", "user_id", "id"],
        "data_type": ["int", "text", "int", "int", "int"],
        "is_primary_key": [True, False, True, False, True],
        "fk_table": [None, None, None, "tbl_users", None],
        "fk_column": [None, None, None, "user_id", None],
        "table_comment": [None] * 5,
        "column_comment": [None] * 5,
    }))
    ents = extract_schema_entities(cols).to_pandas()
    types = ents.groupby("entity_type")["name"].apply(set).to_dict()
    assert "shop" in types["database"]
    assert {"tbl_users", "orders", "order_items"} <= types["table"]
    assert "tbl_users.email" in types["column"]
    assert "id" not in {n.split(".")[-1] for n in types["column"]}  # common skipped
    assert "User Management" in types.get("concept", set())
    # alias strips tbl_ prefix
    urow = ents[ents["name"] == "tbl_users"].iloc[0]
    assert "users" in urow["aliases"]

    rels = extract_schema_relations(cols).to_pandas()
    kinds = rels.groupby("relation_type").size().to_dict()
    assert kinds.get("foreign_key") == 1
    fk = rels[rels["relation_type"] == "foreign_key"].iloc[0]
    assert fk["subj"] == "orders.user_id" and fk["obj"] == "tbl_users.user_id"
    # orders / order_items are Jaccard-similar > 0.6? {"orders"} vs
    # {"order","items"} -> 0. No similar pair expected here.
    assert kinds.get("contains", 0) >= 6  # db->3 tables, table->columns


def test_parse_registry(ray_session):
    import ray.data as rd
    from agraph_ray.ops.parse import (parse_csv, parse_documents, parse_html,
                                      parse_json, parse_markdown)
    assert parse_markdown("# Title\n\n**bold** [link](http://x)") == \
        "Title\n\nbold link"
    assert parse_json('{"a": "hello", "b": {"c": "world"}, "d": 1}') == \
        "hello\nworld"
    assert parse_csv("name,age\nalice,30\nbob,25") == \
        "name: alice | age: 30\nname: bob | age: 25"
    assert parse_html("<html><script>x()</script><p>Hi <b>there</b></p>") == \
        "Hi\nthere"

    ds = rd.from_arrow(pa.table({
        "content": ["# Doc", '{"k": "v"}', "bad", None],
        "format": ["md", "json", "xls", "txt"],
    }))
    out = parse_documents(ds).to_pandas()
    assert out["text"].tolist()[:2] == ["Doc", "v"]
    assert out["text"][2] is None      # garbage .xls payload -> error row
    assert "OLE" in out["parse_error"][2]
    assert out["text"][3] == ""


def test_chunk_statistics_and_orphans(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph import chunk_statistics, orphaned_chunks
    linked = rd.from_items([
        {"chunk_id": "c1", "chunk_type": "paragraph", "text": "abcde",
         "entities": ["e1"], "relations": ["r1"]},
        {"chunk_id": "c2", "chunk_type": "paragraph", "text": "xyz",
         "entities": ["e1", "e2"], "relations": []},
        {"chunk_id": "c3", "chunk_type": "section", "text": "pq",
         "entities": [], "relations": []},
    ])
    s = chunk_statistics(linked)
    assert s["total_chunks"] == 3
    assert s["total_content_length"] == 10
    assert abs(s["avg_content_length"] - 10 / 3) < 1e-9
    assert s["type_statistics"]["paragraph"]["count"] == 2
    assert s["type_statistics"]["paragraph"]["avg_length"] == 4.0
    assert s["type_statistics"]["section"]["count"] == 1
    conn = s["connection_statistics"]
    assert conn["chunks_with_entities"] == 2
    assert conn["chunks_with_relations"] == 1
    assert conn["orphaned_chunks"] == 1
    assert abs(conn["avg_entities_per_chunk"] - 1.0) < 1e-9
    orph = orphaned_chunks(linked).take_all()
    assert [r["chunk_id"] for r in orph] == ["c3"]
    assert chunk_statistics(linked.filter(lambda r: False)) == {
        "total_chunks": 0}


def test_retriever_listings(ray_session):
    import ray.data as rd
    from agraph_ray.retrieval import KnowledgeRetriever
    nodes = rd.from_items([
        {"entity_id": "e1", "name": "acme", "entity_type": "organization",
         "description": "", "aliases": [], "confidence": 0.9},
        {"entity_id": "e2", "name": "bob smith", "entity_type": "person",
         "description": "", "aliases": [], "confidence": 0.8},
    ])
    edges = rd.from_items([
        {"relation_id": "r1", "subj": "bob smith",
         "relation_type": "works_for", "obj": "acme",
         "description": "", "confidence": 0.9},
    ])
    kr = KnowledgeRetriever(nodes=nodes, edges=edges)
    orgs = kr.list_entities(entity_type="organization")
    assert [e["entity_id"] for e in orgs] == ["e1"]
    assert len(kr.list_entities()) == 2
    assert kr.list_entities(limit=1)
    assert [r["relation_id"]
            for r in kr.list_relations(relation_type="works_for")] == ["r1"]
    assert kr.list_relations(relation_type="nope") == []
    assert kr.get_entity("e2")["name"] == "bob smith"
    assert kr.get_entity("missing") is None
    assert kr.get_relation("r1")["relation_type"] == "works_for"


def test_validation_report_recommendations(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph import validation_report
    nodes = rd.from_items([
        {"entity_id": "e1", "name": "acme", "entity_type": "organization",
         "confidence": 0.9},
        {"entity_id": "e2", "name": "acme", "entity_type": "organization",
         "confidence": 0.3},
    ])
    edges = rd.from_items([
        {"relation_id": "r1", "head_id": "e1", "tail_id": "ghost",
         "relation_type": "related_to", "confidence": 0.9},
    ])
    rep = validation_report(nodes, edges)
    assert rep["is_valid"] is False          # dangling tail reference
    assert rep["issue_counts"]["invalid_tail_entity_reference"] == 1
    assert rep["issue_counts"]["duplicate_entity"] == 1
    assert rep["issue_counts"]["low_confidence_entity"] == 1
    assert any("non-existent" in r for r in rep["recommendations"])
    assert any("duplicate" in r for r in rep["recommendations"])
    assert any("low-confidence" in r for r in rep["recommendations"])

    clean_nodes = rd.from_items([
        {"entity_id": "e1", "name": "acme", "entity_type": "organization",
         "confidence": 0.9}])
    empty_edges = rd.from_items([
        {"relation_id": "r0", "head_id": "e1", "tail_id": "e1",
         "relation_type": "related_to", "confidence": 0.9}]).filter(
        lambda r: False)
    rep2 = validation_report(clean_nodes, empty_edges)
    assert rep2["is_valid"] is True
    assert any("Add relations" in r for r in rep2["recommendations"])


def test_find_similar_entities_ranked(ray_session):
    import ray.data as rd
    from agraph_ray.stages.canonicalize import find_similar_entities
    nodes = rd.from_items([
        {"entity_id": "e1", "name": "globex incorporated",
         "entity_type": "organization", "aliases": [], "properties": None},
        {"entity_id": "e2", "name": "globex incorporated.",
         "entity_type": "organization", "aliases": [], "properties": None},
        {"entity_id": "e3", "name": "globex inc",
         "entity_type": "organization", "aliases": [], "properties": None},
        {"entity_id": "e4", "name": "unrelated gadget works",
         "entity_type": "organization", "aliases": [], "properties": None},
    ])
    rows = find_similar_entities(nodes).take_all()
    assert rows, "expected at least one similar pair"
    sims = [r["sim"] for r in rows]
    assert sims == sorted(sims, reverse=True)
    top = rows[0]
    assert {top["src"], top["dst"]} == {"e1", "e2"}   # containment, 0.8+
    assert all("e4" not in (r["src"], r["dst"]) for r in rows)
    capped = find_similar_entities(nodes, max_pairs=1).take_all()
    assert len(capped) == 1


def test_ann_pool_save_load_roundtrip(ray_session, tmp_path):
    import numpy as np
    from agraph_ray.state.ann import AnnShardPool
    rng = np.random.default_rng(3)
    ids = [f"v{i}" for i in range(57)]
    mat = rng.normal(size=(57, 16)).astype("float32")
    pool = AnnShardPool(ids, mat, num_shards=3)
    q = rng.normal(size=(4, 16)).astype("float32")
    ids1, sims1 = pool.query(q, k=5)

    manifest = pool.save(str(tmp_path / "ann"))
    assert len(manifest["shards"]) == 3 and sum(manifest["counts"]) == 57

    loaded = AnnShardPool.load(str(tmp_path / "ann"))
    ids2, sims2 = loaded.query(q, k=5)
    assert ids1.tolist() == ids2.tolist()
    assert np.allclose(sims1, sims2, atol=1e-6)

    # load with index-rebuild options: each actor retrains IVF-PQ over its
    # own shard; exhaustive probe + full re-rank must reproduce the exact
    # top-k (ids may tie-swap only on equal sims — this data has none)
    indexed = AnnShardPool.load(str(tmp_path / "ann"), ivf_nlist=4, pq_m=4)
    ids3, sims3 = indexed.query_pq(q, k=5, nprobe=4, rerank=57)
    assert ids1.tolist() == ids3.tolist()
    assert np.allclose(sims1, sims3, atol=1e-5)


def test_ann_ties_rank_by_id_at_any_shard_count(ray_session):
    """Exact copies of the query tie; every shard query and the merge
    rank them by id, so the pool's answer does not depend on how many
    shards hold the rows."""
    import numpy as np
    import ray
    from agraph_ray.state.ann import AnnIndexActor, AnnShardPool
    rng = np.random.default_rng(23)
    q = rng.normal(size=(1, 8)).astype("float32")
    mat = rng.normal(size=(23, 8)).astype("float32")
    ids = [f"v{i}" for i in range(23)]
    for pos, name in zip((4, 11, 19), ("t3", "t1", "t2")):
        mat[pos], ids[pos] = q[0], name
    actor = AnnIndexActor.remote(ids, mat, ivf_nlist=2, pq_m=4)
    for call in (actor.query.remote(q, 2),
                 actor.query_ivf.remote(q, 2, nprobe=1),
                 actor.query_pq.remote(q, 2, 1, 23)):
        assert ray.get(call)[0][0].tolist() == ["t1", "t2"]
    for n in (1, 2, 3):
        top, _ = AnnShardPool(ids, mat, num_shards=n).query(q, k=2)
        assert top[0].tolist() == ["t1", "t2"], n


def test_ann_actor_ivf_probing(ray_session):
    import numpy as np
    from agraph_ray.state.ann import AnnIndexActor
    import ray
    rng = np.random.default_rng(19)
    n, dim = 600, 16
    mat = rng.normal(size=(n, dim)).astype("float32")
    ids = [f"v{i}" for i in range(n)]
    actor = AnnIndexActor.remote(ids, mat, ivf_nlist=8)
    q = rng.normal(size=(5, dim)).astype("float32")
    exact_ids, exact_sims = ray.get(actor.query.remote(q, 10))
    # nprobe == nlist → exact fallback, identical results
    full_ids, full_sims = ray.get(actor.query_ivf.remote(q, 10, nprobe=8))
    assert (exact_ids == full_ids).all()
    # small nprobe → high-but-not-required-perfect recall, valid ordering
    appr_ids, appr_sims = ray.get(actor.query_ivf.remote(q, 10, nprobe=3))
    rec = np.mean([len(set(appr_ids[i]) & set(exact_ids[i])) / 10
                   for i in range(len(q))])
    assert rec >= 0.5, rec
    for i in range(len(q)):
        s = appr_sims[i][appr_sims[i] > -np.inf]
        assert (np.diff(s) <= 1e-6).all()


def test_incremental_replay_equals_batch(ray_session, corpus_dir, tmp_path):
    """North-rule invariant: replaying the corpus as sequential
    add_documents micro-batches yields EXACTLY the one-shot batch build —
    the derived tables are a pure function of the union of mention
    partitions, so incremental maintenance can never drift."""
    import glob

    import numpy as np
    import pyarrow.dataset as pads

    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.incremental import add_documents
    from agraph_ray.pipelines.kg_build import build_kg

    cfg = KGConfig()
    shards = sorted(glob.glob(f"{corpus_dir}/*.parquet"))
    inc, batch = str(tmp_path / "inc"), str(tmp_path / "batch")
    build_kg(shards[:1], inc, cfg, with_chunks=False)
    for s in shards[1:]:
        add_documents(inc, [s], cfg)
    build_kg(shards, batch, cfg, with_chunks=False)

    _assert_graph_tables_equal(inc, batch)


def _load_sorted(out, table):
    import numpy as np
    import pyarrow.dataset as pads
    t = pads.dataset(os.path.join(out, table), format="parquet").to_table()
    df = t.to_pandas()[sorted(t.column_names)]
    # list columns (aliases, …) aren't sortable — order rows by the
    # stringified row rendering instead
    s = df.astype(str)
    order = np.lexsort([s[c].to_numpy() for c in reversed(s.columns)])
    return df.iloc[order].reset_index(drop=True)


def _assert_graph_tables_equal(out_a, out_b):
    import numpy as np
    for table in ("nodes", "edges"):
        a, b = _load_sorted(out_a, table), _load_sorted(out_b, table)
        assert len(a) == len(b), table
        for col in a.columns:
            if a[col].dtype.kind == "f":
                assert np.allclose(a[col], b[col], atol=1e-12), (table, col)
            else:
                assert a[col].astype(str).equals(b[col].astype(str)), \
                    (table, col)


def test_build_invariant_to_input_sharding(ray_session, corpus_dir,
                                           tmp_path):
    """The built graph is a pure function of the transcript SET: feeding
    the same corpus as 4 shards vs a single re-written shard (different
    block layout, different batch boundaries, different row order inside
    the file) produces identical node/edge tables."""
    import glob

    import ray.data as rd

    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import build_kg

    cfg = KGConfig()
    shards = sorted(glob.glob(f"{corpus_dir}/*.parquet"))
    one = str(tmp_path / "one_shard")
    # rewrite the corpus as one file in a scrambled row order
    ds = rd.read_parquet(shards)
    ds = ds.random_shuffle(seed=3).repartition(1)
    ds.write_parquet(one)

    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    build_kg(shards, a, cfg, with_chunks=False)
    build_kg(one, b, cfg, with_chunks=False)
    _assert_graph_tables_equal(a, b)


def test_remove_equals_complement_build(ray_session, corpus_dir, tmp_path):
    """remove_documents cascade semantics: removing conversations from a
    built graph equals building from scratch WITHOUT them — entities
    whose every witness came from the removed convs disappear, edges
    cascade, survivors keep identical merged rows."""
    import glob

    import pyarrow.dataset as pads

    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.incremental import remove_documents
    from agraph_ray.pipelines.kg_build import build_kg

    cfg = KGConfig()
    shards = sorted(glob.glob(f"{corpus_dir}/*.parquet"))
    full, complement = str(tmp_path / "full"), str(tmp_path / "compl")
    build_kg(shards, full, cfg, with_chunks=False)

    # pick two conversations present in the corpus
    convs = pads.dataset(shards[0], format="parquet").to_table(
        columns=["conv_id"])["conv_id"].to_pylist()
    victims = sorted(set(convs))[:2]
    remove_documents(full, victims, cfg)

    # batch build over the complement (filter rows at read time)
    import ray.data as rd
    ds = rd.read_parquet(shards).filter(
        lambda r: r["conv_id"] not in set(victims))
    one = str(tmp_path / "filtered")
    ds.write_parquet(one)
    build_kg(one, complement, cfg, with_chunks=False)

    _assert_graph_tables_equal(full, complement)

    # removing every remaining conversation leaves no mention rows: the
    # graph tables come out empty and keep their columns
    from agraph_ray.stages.dedup import EDGES_SCHEMA, NODES_SCHEMA
    rest = sorted(set(rd.read_parquet(shards).unique("conv_id"))
                  - set(victims))
    res = remove_documents(full, rest, cfg)
    assert res.metrics["n_surviving_mentions"] == 0
    for table, cols in (("nodes", NODES_SCHEMA.names),
                        ("edges", EDGES_SCHEMA.names),
                        ("triples", ["relation_id", "subj", "subj_type",
                                     "pred", "obj", "obj_type", "confidence",
                                     "source", "n_mentions"])):
        d = pads.dataset(res.tables[table], format="parquet")
        assert d.count_rows() == 0, table
        assert set(cols) <= set(d.schema.names), table


def test_remove_killed_between_renames_resumes(ray_session, corpus_dir,
                                               tmp_path, monkeypatch):
    """A remove_documents killed between its two renames (no mentions/
    left) is finished by the next call: a rerun of remove equals an
    uninterrupted remove, and an add keeps the base mentions."""
    import glob
    import shutil

    import pyarrow.parquet as pq

    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines import incremental
    from agraph_ray.pipelines.kg_build import build_kg

    cfg = KGConfig()
    shards = sorted(glob.glob(f"{corpus_dir}/*.parquet"))
    base = str(tmp_path / "base")
    build_kg(shards[:3], base, cfg, with_chunks=False)
    victims = sorted(set(pq.read_table(
        shards[0], columns=["conv_id"])["conv_id"].to_pylist()))[:2]
    clean, killed = str(tmp_path / "clean"), str(tmp_path / "killed")
    shutil.copytree(base, clean)
    shutil.copytree(base, killed)
    incremental.remove_documents(clean, victims, cfg)

    class Killed(Exception):
        pass

    real_rename = os.rename

    def kill_at_swap(src, dst):
        if str(src).endswith("mentions.tomb"):
            raise Killed("between the renames")
        real_rename(src, dst)

    monkeypatch.setattr(os, "rename", kill_at_swap)
    with pytest.raises(Killed):
        incremental.remove_documents(killed, victims, cfg)
    monkeypatch.setattr(os, "rename", real_rename)
    assert not os.path.exists(os.path.join(killed, "mentions"))

    killed_add = str(tmp_path / "killed_add")
    shutil.copytree(killed, killed_add)
    incremental.remove_documents(killed, victims, cfg)
    _assert_graph_tables_equal(killed, clean)
    assert not os.path.exists(os.path.join(killed, "mentions.old"))

    incremental.add_documents(killed_add, shards[3:], cfg)
    incremental.add_documents(clean, shards[3:], cfg)
    _assert_graph_tables_equal(killed_add, clean)


def test_ann_actor_pq_recall_floor(ray_session):
    """IVF-PQ ADC + exact re-rank holds a recall@10 floor vs the exact
    scan on clustered data (the regime PQ serves), and degrades cleanly
    to valid orderings at small nprobe."""
    import numpy as np
    import ray
    from agraph_ray.state.ann import AnnIndexActor
    rng = np.random.default_rng(7)
    n_clusters, per, dim = 16, 256, 32
    cents = rng.normal(size=(n_clusters, dim))
    mat = np.repeat(cents, per, axis=0) + \
        0.15 * rng.normal(size=(n_clusters * per, dim))
    mat = mat.astype("float32")
    ids = [f"v{i}" for i in range(len(mat))]
    actor = AnnIndexActor.remote(ids, mat, ivf_nlist=16, pq_m=8)
    q = (cents[:6] + 0.1 * rng.normal(size=(6, dim))).astype("float32")
    exact_ids, exact_sims = ray.get(actor.query.remote(q, 10))
    pq_ids, pq_sims = ray.get(
        actor.query_pq.remote(q, 10, 4, 256))
    rec = np.mean([len(set(pq_ids[i]) & set(exact_ids[i])) / 10
                   for i in range(len(q))])
    assert rec >= 0.9, rec
    # re-ranked sims are EXACT cosines: every reported sim matches the
    # exact run's sim for the same id
    for i in range(len(q)):
        lut = dict(zip(exact_ids[i], exact_sims[i]))
        for j, vid in enumerate(pq_ids[i]):
            if vid in lut:
                assert abs(float(pq_sims[i][j]) - float(lut[vid])) < 1e-5
        s = pq_sims[i][pq_sims[i] > -np.inf]
        assert (np.diff(s) <= 1e-6).all()
    # no-PQ build falls back to the exact scan
    plain = AnnIndexActor.remote(ids, mat)
    f_ids, _ = ray.get(plain.query_pq.remote(q, 10, 4, 256))
    assert (f_ids == exact_ids).all()


def test_ann_pool_pq_merge(ray_session):
    import numpy as np
    from agraph_ray.state.ann import AnnShardPool
    rng = np.random.default_rng(11)
    cents = rng.normal(size=(8, 16))
    mat = (np.repeat(cents, 128, axis=0)
           + 0.1 * rng.normal(size=(1024, 16))).astype("float32")
    ids = [f"v{i}" for i in range(1024)]
    pool = AnnShardPool(ids, mat, num_shards=3, ivf_nlist=8, pq_m=4)
    q = cents[:3].astype("float32")
    e_ids, _ = pool.query(q, k=5)
    p_ids, p_sims = pool.query_pq(q, k=5, nprobe=4, rerank=96)
    rec = np.mean([len(set(p_ids[i]) & set(e_ids[i])) / 5
                   for i in range(len(q))])
    assert rec >= 0.8, rec
    assert p_ids.shape == (3, 5)

    # integer ids, k beyond what one probed list holds: each shard pads
    # with '' / -inf, and the merge ranks the real ids ahead of the pads
    pool = AnnShardPool(list(range(1024)), mat, num_shards=3,
                        ivf_nlist=8, pq_m=4)
    p_ids, p_sims = pool.query_pq(q[:1], k=400, nprobe=1, rerank=400)
    real = p_sims[0] > -np.inf
    assert 0 < real.sum() < 400 and not real[real.sum():].any()
    assert all(isinstance(i, (int, np.integer)) for i in p_ids[0][real])
    assert set(p_ids[0][~real]) == {""}


def test_ann_actor_hnsw_recall_floor(ray_session):
    """NSW-graph index (vectorized NN-descent build + beam search):
    recall@10 >= 0.9 vs the exact scan on clustered data; reported
    sims are exact cosines; a no-graph build falls back to the exact
    scan; save/load(hnsw_m=...) rebuilds the graph per shard."""
    import numpy as np
    import ray

    from agraph_ray.state.ann import AnnIndexActor, AnnShardPool
    rng = np.random.default_rng(13)
    n_clusters, per, dim = 16, 256, 32
    cents = rng.normal(size=(n_clusters, dim))
    mat = (np.repeat(cents, per, axis=0)
           + 0.15 * rng.normal(size=(n_clusters * per, dim))
           ).astype("float32")
    ids = [f"v{i}" for i in range(len(mat))]
    actor = AnnIndexActor.remote(ids, mat, hnsw_m=12)
    q = (cents[:6] + 0.1 * rng.normal(size=(6, dim))).astype("float32")
    exact_ids, exact_sims = ray.get(actor.query.remote(q, 10))
    h_ids, h_sims = ray.get(actor.query_hnsw.remote(q, 10, 64))
    rec = np.mean([len(set(h_ids[i]) & set(exact_ids[i])) / 10
                   for i in range(len(q))])
    assert rec >= 0.9, rec
    for i in range(len(q)):
        lut = dict(zip(exact_ids[i], exact_sims[i]))
        for j, vid in enumerate(h_ids[i]):
            if vid in lut:
                assert abs(float(h_sims[i][j]) - float(lut[vid])) < 1e-5
    # no-graph build falls back to the exact scan
    plain = AnnIndexActor.remote(ids, mat)
    f_ids, _ = ray.get(plain.query_hnsw.remote(q, 10, 64))
    assert (f_ids == exact_ids).all()
    # exact-re-rank mode: ef covering the shard degenerates the beam to
    # the exact scan (same contract as query_ivf at nprobe >= nlist) —
    # this is what makes ann_topk_hnsw_exact oracle-checkable
    e_ids, e_sims = ray.get(actor.query_hnsw.remote(q, 10, len(ids)))
    assert (e_ids == exact_ids).all()
    assert np.allclose(e_sims, exact_sims)
    # precision="float64" pins the exact path to double scoring
    # (bit-compatible with a DOUBLE cosine oracle)
    a64 = AnnIndexActor.remote(ids, mat, precision="float64")
    d_ids, d_sims = ray.get(a64.query.remote(q.astype("float64"), 10))
    assert d_sims.dtype == np.float64
    assert (d_ids == exact_ids).all()


def test_ann_pool_hnsw_save_load(ray_session, tmp_path):
    import numpy as np

    from agraph_ray.state.ann import AnnShardPool
    rng = np.random.default_rng(17)
    cents = rng.normal(size=(8, 16))
    mat = (np.repeat(cents, 128, axis=0)
           + 0.1 * rng.normal(size=(1024, 16))).astype("float32")
    ids = [f"v{i}" for i in range(1024)]
    pool = AnnShardPool(ids, mat, num_shards=3, hnsw_m=8)
    q = cents[:3].astype("float32")
    e_ids, _ = pool.query(q, k=5)
    h_ids, h_sims = pool.query_hnsw(q, k=5, ef=48)
    rec = np.mean([len(set(h_ids[i]) & set(e_ids[i])) / 5
                   for i in range(len(q))])
    assert rec >= 0.8, rec
    pool.save(str(tmp_path / "ann"))
    loaded = AnnShardPool.load(str(tmp_path / "ann"), hnsw_m=8)
    l_ids, _ = loaded.query_hnsw(q, k=5, ef=48)
    assert (l_ids == h_ids).all()


def test_ann_pool_float64_survives_save_load(ray_session, tmp_path):
    """A float64 pool reloads as float64: two candidates whose float32
    cosines tie with the query keep their float64 order after save and
    load (the manifest records the precision, shards keep float64
    vectors)."""
    import numpy as np

    from agraph_ray.state.ann import AnnShardPool
    rng = np.random.default_rng(5)
    # v1 is closer to the query than v0 by ~1.5e-8 in cosine: below
    # float32 resolution at 1.0, so only float64 scoring separates them
    near = np.array([[1.0, 2e-4, 0.0], [1.0, 1e-4, 0.0]])
    far = rng.normal(size=(30, 3)) * [0.1, 1.0, 1.0]
    mat = np.vstack([near, far])
    ids = [f"v{i}" for i in range(len(mat))]
    q = np.array([[1.0, 0.0, 0.0]])
    pool = AnnShardPool(ids, mat, num_shards=3, precision="float64")
    ids_before, sims_before = pool.query(q, k=2)
    assert list(ids_before[0]) == ["v1", "v0"]
    pool.save(str(tmp_path / "ann64"))
    loaded = AnnShardPool.load(str(tmp_path / "ann64"))
    ids_after, sims_after = loaded.query(q, k=2)
    assert sims_after.dtype == np.float64
    assert (ids_after == ids_before).all()
    assert np.allclose(sims_after, sims_before, rtol=0, atol=1e-12)
