"""reverse edges / importance / chunk similarity / RAG context / graph.json
/ path enumeration tests."""

import json

import pyarrow as pa
import pytest


def _edges(ray_session):
    import ray.data as rd
    return rd.from_arrow(pa.table({
        "relation_id": ["r1", "r2"],
        "head_id": ["e1", "e2"], "tail_id": ["e2", "e3"],
        "relation_type": ["contains", "works_for"],
        "subj": ["a", "b"], "obj": ["b", "c"],
        "confidence": [0.9, 0.8],
        "source": ["s", "s"],
    }))


def test_reverse_edges(ray_session):
    from agraph_ray.ops.misc import reverse_edges
    out = reverse_edges(_edges(ray_session)).to_pandas()
    r1 = out[out["subj"] == "b"].iloc[0]
    assert r1["relation_type"] == "belongs_to"   # contains reverses
    assert r1["obj"] == "a"
    r2 = out[out["subj"] == "c"].iloc[0]
    assert r2["relation_type"] == "works_for"    # unmapped reverses to self


def test_entity_importance(ray_session):
    from agraph_ray.ops.misc import entity_importance
    out = entity_importance(_edges(ray_session), n_entities=3).to_pandas()
    e2 = out[out["entity_id"] == "e2"].iloc[0]
    assert e2["degree"] == 2 and e2["importance"] == 1.0
    assert out[out["entity_id"] == "e1"].iloc[0]["importance"] == 0.5


def test_chunk_similarity_pairs(ray_session, force_side):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.misc import chunk_similarity_pairs
    chunks = rd.from_arrow(pa.table({
        "chunk_id": ["c1", "c2", "c3"],
        "entities": [["e1", "e2"], ["e1", "e2"], ["e9"]],
        "relations": [["r1"], ["r1"], []],
    }))
    out = chunk_similarity_pairs(chunks, threshold=0.2).to_pandas()
    assert len(out) == 1
    row = out.iloc[0]
    assert (row["chunk_a"], row["chunk_b"]) == ("c1", "c2")
    assert abs(row["similarity"] - 1.0) < 1e-9   # identical sets
    # same pair must not appear twice despite two shared-entity blocks
    # the co-group placement of the candidate-id semi join
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        full = chunk_similarity_pairs(chunks, threshold=0.2).to_pandas()
    pd.testing.assert_frame_equal(out, full)


def test_format_rag_context():
    from agraph_ray.ops.misc import format_rag_context
    s = format_rag_context(
        entities=[{"name": "A", "entity_type": "person", "score": 0.9}],
        relations=[{"subj": "A", "relation_type": "works_for", "obj": "B",
                    "score": 0.5}],
        chunks=[{"text": "A works for B."}],
        query="who is A?")
    assert "Knowledge Graph(KG)" in s and "Document Chunks(DC)" in s
    assert "works_for" in s and "A works for B." in s
    # deterministic
    assert s == format_rag_context(
        entities=[{"name": "A", "entity_type": "person", "score": 0.9}],
        relations=[{"subj": "A", "relation_type": "works_for", "obj": "B",
                    "score": 0.5}],
        chunks=[{"text": "A works for B."}],
        query="who is A?")


def test_write_graph_json(ray_session, tmp_path):
    import ray.data as rd
    from agraph_ray.ops.misc import write_graph_json
    nodes = rd.from_arrow(pa.table({
        "entity_id": ["e1", "e2", "e3"], "name": ["a", "b", "c"],
        "entity_type": ["person"] * 3, "description": [""] * 3,
        "aliases": [[], [], []], "confidence": [1.0] * 3,
        "source": ["s"] * 3,
    }))
    p = str(tmp_path / "graph.json")
    counts = write_graph_json(nodes, _edges(ray_session), p)
    assert counts == {"entities": 3, "relations": 2}
    doc = json.load(open(p))
    assert doc["entities"]["e1"]["name"] == "a"
    assert doc["relations"]["r1"]["head_entity_id"] == "e1"


def test_path_enumeration(ray_session):
    from agraph_ray.retrieval import GraphPathFinder
    import ray.data as rd
    edges = rd.from_arrow(pa.table({
        "head_id": ["a", "b", "a", "c"],
        "tail_id": ["b", "c", "c", "d"],
    }))
    pf = GraphPathFinder(edges)
    paths = pf.find_all_paths("a", "c", max_depth=3)
    assert sorted(paths) == [["a", "b", "c"], ["a", "c"]]
    cycles = pf.find_cycles()
    assert any(set(c) == {"a", "b", "c"} for c in cycles)


def test_word_repetition_edge_cases():
    import pyarrow as pa
    from agraph_ray.ops.text import add_word_repetition
    t = pa.table({"doc_id": [1, 2, 3, 4],
                  "text": ["a b a b a",        # top 'a' 3/5
                           "x x x x",          # all same
                           "",                 # splits to one '' token
                           "tie tie bee bee"]})  # tie -> min word 'bee'
    out = add_word_repetition(t)
    assert out["word_total"].to_pylist() == [5, 4, 1, 4]
    assert out["distinct_words"].to_pylist() == [2, 1, 1, 2]
    assert out["top_word"].to_pylist() == ["a", "x", "", "bee"]
    fr = out["top_word_fraction"].to_pylist()
    assert fr == [3 / 5, 1.0, 1.0, 0.5]
    dup = out["dup_word_fraction"].to_pylist()
    assert dup == [1 - 2 / 5, 0.75, 0.0, 0.5]


def test_top_words_sketch_equals_exact(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import top_words, top_words_sketch
    texts = []
    for i in range(300):
        texts.append(f"the quick fox number {i} jumps over the lazy dog "
                     + ("spam " * (i % 7)).strip())
    ds = rd.from_items([{"text": t} for t in texts]).repartition(6)
    exact = top_words(ds, k=10).to_pandas()
    sk = top_words_sketch(ds, k=10, cap=64).to_pandas()
    assert list(exact.word) == list(sk.word)
    assert list(exact.cnt) == list(sk.cnt)


def test_corpus_filter_rules():
    import pyarrow as pa
    from agraph_ray.ops.text import add_corpus_filter
    good = ("The quick brown fox jumps over the lazy sleeping dog and "
            "then runs far away into the quiet green forest tonight")
    t = pa.table({"doc_id": [1, 2, 3, 4, 5],
                  "text": [good,
                           "one two",                      # few_words
                           "spam spam spam spam spam spam",  # dup+top
                           "!!! ??? ... ;;; ::: ,,,",      # punct (+lang)
                           ""]})                           # empty
    out = add_corpus_filter(t)
    keep = out["keep"].to_pylist()
    reasons = out["reasons"].to_pylist()
    assert keep == [True, False, False, False, False]
    assert reasons[0] == ""
    assert "few_words" in reasons[1]
    assert "dup_words" in reasons[2] and "top_word" in reasons[2]
    assert "punct" in reasons[3]
    assert "few_words" in reasons[4]
    # reasons are ';'-joined in fixed rule order, no trailing separator
    assert not any(r.endswith(";") for r in reasons)


def test_tfidf_top_terms(ray_session):
    import math

    import ray.data as rd
    from agraph_ray.ops.text import tfidf_top_terms

    docs = [
        {"doc_id": 1, "text": "apple banana apple"},
        {"doc_id": 2, "text": "banana cherry"},
        {"doc_id": 3, "text": "cherry cherry cherry"},
    ]
    out = tfidf_top_terms(rd.from_items(docs), k=2).take_all()
    got = {(r["doc_id"], r["word"]): (r["tf"], r["df"], r["score"])
           for r in out}

    def idf(df):
        return math.log(4.0 / (df + 1.0)) + 1.0

    # doc 1: apple tf=2 df=1 -> top; banana tf=1 df=2
    assert got[(1, "apple")] == (2, 1, 2 * idf(1))
    assert got[(1, "banana")] == (1, 2, 1 * idf(2))
    # doc 3 has a single distinct term -> only 1 row despite k=2
    assert [k for k in got if k[0] == 3] == [(3, "cherry")]
    assert got[(3, "cherry")] == (3, 2, 3 * idf(2))
    assert len(out) == 5


def test_top_ngrams_no_doc_spanning(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import top_ngrams

    docs = [
        {"doc_id": 1, "text": "a b c d"},    # grams: "a b c", "b c d"
        {"doc_id": 2, "text": "c d a"},      # gram: "c d a" (no span to d1)
        {"doc_id": 3, "text": "x y"},        # too short: none
        {"doc_id": 4, "text": "a b c"},      # gram: "a b c"
    ]
    rows = top_ngrams(rd.from_items(docs), n=3, k=10).take_all()
    got = {r["gram"]: r["cnt"] for r in rows}
    assert got == {"a b c": 2, "b c d": 1, "c d a": 1}


def test_scan_contains_aho(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import scan_contains

    docs = [
        {"doc_id": 1, "text": "the hash join beats the sort merge here"},
        {"doc_id": 2, "text": "nothing to see"},
        {"doc_id": 3, "text": "hash joins overlap: hash join hash join"},
    ]
    rows = scan_contains(rd.from_items(docs),
                         ["hash join", "sort merge", "absent"]).take_all()
    got = {(r["doc_id"], r["needle"]) for r in rows}
    # one row per (doc, needle) no matter how many occurrences
    assert got == {(1, "hash join"), (1, "sort merge"), (3, "hash join")}


def test_redact_pattern(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import redact_pattern

    ds = rd.from_items([{"doc_id": 1, "text": "call 555-1234 or 555-9999"}])
    out = redact_pattern(ds, r"\d{3}-\d{4}", "[TEL]").take_all()
    assert out[0]["redacted"] == "call [TEL] or [TEL]"
    assert out[0]["text"] == "call 555-1234 or 555-9999"   # original kept


def test_decontaminate_ngrams_mark_and_drop(ray_session, force_side):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import decontaminate_ngrams
    train = pd.DataFrame({
        "doc_id": [0, 2, 4],
        "text": ["the quick brown fox jumps",     # shares trigram w/ eval
                 "totally clean document here",
                 "one quick brown cat sits"]})    # "quick brown" only 2-gram
    ev = pd.DataFrame({
        "doc_id": [1],
        "text": ["a the quick brown fox ran"]})
    out = decontaminate_ngrams(rd.from_pandas(train), rd.from_pandas(ev),
                               n=3).to_pandas().sort_values("doc_id")
    assert list(out["contaminated"]) == [1, 0, 0]
    kept = decontaminate_ngrams(rd.from_pandas(train), rd.from_pandas(ev),
                                n=3, mode="drop").to_pandas()
    assert sorted(kept["doc_id"]) == [2, 4]
    # co-group placement of both joins (the gram semi join through the
    # Bloom filter, the id join by co-group) gives the same answer
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        out2 = decontaminate_ngrams(rd.from_pandas(train),
                                    rd.from_pandas(ev), n=3).to_pandas() \
            .sort_values("doc_id")
        kept2 = decontaminate_ngrams(rd.from_pandas(train),
                                     rd.from_pandas(ev), n=3,
                                     mode="drop").to_pandas()
    assert list(out2["contaminated"]) == [1, 0, 0]
    assert sorted(kept2["doc_id"]) == [2, 4]


def test_word_pmi_hand_computed(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import word_pmi
    docs = pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["a b", "a b", "a c", "d d d"]})
    out = word_pmi(rd.from_pandas(docs), k=10)
    got = {(r.w1, r.w2): (r.c12, r.pmi_micro) for r in out.itertuples()}
    # df: a=3, b=2, c=1, d=1; pairs: (a,b)=2, (a,c)=1; N=4
    assert set(got) == {("a", "b"), ("a", "c")}
    assert got[("a", "b")][0] == 2
    assert got[("a", "b")][1] == int(np.floor(
        np.log(2 * 4 / (3 * 2)) * 1e6 + 0.5))
    assert got[("a", "c")][1] == int(np.floor(
        np.log(1 * 4 / (3 * 1)) * 1e6 + 0.5))
