"""Aho-Corasick matcher: equivalence with naive substring scan, and the
link_chunks stage built on it."""

import random
import string

import pyarrow as pa


def naive_present(patterns, text):
    return {p for p in patterns if p in text}


def test_ac_basic_overlap_and_nesting():
    from agraph_ray.state.textmatch import AhoCorasick
    pats = ["he", "she", "his", "hers", "sher"]
    ac = AhoCorasick(pats)
    assert ac.find_present("ushers") == {"he", "she", "hers", "sher"}
    assert ac.find_present("this") == {"his"}
    assert ac.find_present("xyz") == set()
    assert ac.find_present("") == set()


def test_ac_substring_patterns():
    """A pattern contained in another must still be reported when the
    longer one matches (naive `in` semantics, not leftmost-longest)."""
    from agraph_ray.state.textmatch import AhoCorasick
    ac = AhoCorasick(["google", "google cloud", "cloud"])
    assert ac.find_present("uses google cloud daily") == {
        "google", "google cloud", "cloud"}


def test_ac_unicode():
    from agraph_ray.state.textmatch import AhoCorasick
    ac = AhoCorasick(["苹果公司", "清华大学", "tensorflow"])
    assert ac.find_present("他在苹果公司用tensorflow工作") == {
        "苹果公司", "tensorflow"}


def test_ac_randomized_vs_naive():
    from agraph_ray.state.textmatch import AhoCorasick
    rng = random.Random(7)
    alphabet = "abcd "
    pats = {"".join(rng.choice(alphabet) for _ in range(rng.randint(1, 6)))
            .strip() for _ in range(200)}
    pats = sorted(p for p in pats if p)
    ac = AhoCorasick(pats)
    for _ in range(50):
        text = "".join(rng.choice(alphabet) for _ in range(300))
        assert ac.find_present(text) == naive_present(pats, text)


def test_link_chunks_matches_naive_scan(ray_session):
    import ray.data as rd
    from agraph_ray.stages.link_chunks import link_chunks

    nodes = rd.from_items([
        {"entity_id": "e1", "name": "Alice Johnson", "aliases": ["alice"]},
        {"entity_id": "e2", "name": "Google", "aliases": []},
        {"entity_id": "e3", "name": "Beijing", "aliases": None},
    ])
    edges = rd.from_items([
        {"relation_id": "r1", "subj": "Alice Johnson", "obj": "Google"},
        {"relation_id": "r2", "subj": "Google", "obj": "Beijing"},
    ])
    chunks = rd.from_items([
        {"chunk_id": "c1", "text": "Alice Johnson works for Google."},
        {"chunk_id": "c2", "text": "Google opened an office in Beijing."},
        {"chunk_id": "c3", "text": "Nothing relevant here."},
        {"chunk_id": "c4", "text": "alice visited beijing"},
    ])
    out = {r["chunk_id"]: r
           for r in link_chunks(chunks, nodes, edges).take_all()}
    assert out["c1"]["entities"] == ["e1", "e2"]
    assert out["c1"]["relations"] == ["r1"]
    assert out["c2"]["entities"] == ["e2", "e3"]
    assert out["c2"]["relations"] == ["r2"]
    assert out["c3"]["entities"] == []
    assert out["c3"]["relations"] == []
    # alias hit for e1, case-insensitive name hit for e3; r1 requires
    # Google which is absent
    assert out["c4"]["entities"] == ["e1", "e3"]
    assert out["c4"]["relations"] == []


def test_unigram_logprob_paths_agree(ray_session, force_side):
    """The word-join (_VOCAB_BROADCAST_ROWS=0) path must produce the same
    scores as the broadcast-model path."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import unigram_logprob
    docs = pd.DataFrame({
        "doc_id": [1, 2, 3, 4],
        "text": ["a b a c", "a a a a", "c c d", "b"]})
    ds = rd.from_pandas(docs)
    bc = (unigram_logprob(ds).to_pandas()
          .sort_values("doc_id").reset_index(drop=True))
    with force_side("agraph_ray.ops.text", _VOCAB_BROADCAST_ROWS=0):
        dist = (unigram_logprob(ds).to_pandas()
                .sort_values("doc_id").reset_index(drop=True))
    assert (bc["n_tokens"] == [4, 4, 3, 1]).all()
    assert (bc["n_tokens"] == dist["n_tokens"]).all()
    assert (bc["lp_micro"] == dist["lp_micro"]).all()
    # doc 2 is all-'a' (the most common word) -> highest likelihood
    assert bc.loc[1, "lp_micro"] == bc["lp_micro"].max()


def test_vocab_prune_paths_agree(ray_session, force_side):
    """Rare words become <unk> with correct counts; the broadcast and
    beyond-cap explode/co-group paths produce identical output."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import vocab_prune

    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": ["common words common rare1",
                 "common words again again",
                 "rare2 common"]})
    ds = rd.from_pandas(df).repartition(2)

    def run(**forced):
        with force_side("agraph_ray.ops.text", **forced):
            out = vocab_prune(ds, min_count=2).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    got = run()
    assert got.loc[0, "text"] == "common words common <unk>"
    assert got.loc[1, "text"] == "common words again again"
    assert got.loc[2, "text"] == "<unk> common"
    assert got["n_unk"].tolist() == [1, 0, 1]
    pd.testing.assert_frame_equal(got, run(_VOCAB_BROADCAST_ROWS=0))


def test_add_compress_ratio(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import add_compress_ratio
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": ["spam " * 400,
                                "the quick brown fox jumps over lazy dogs"]})
    out = rd.from_pandas(df).map_batches(
        add_compress_ratio, batch_format="pyarrow").to_pandas()
    r = dict(zip(out["doc_id"], out["compress_ratio"]))
    assert r[0] < 0.05          # pure repetition compresses away
    assert r[1] > 0.8           # short natural text barely compresses
    import zlib                 # exact pin: one doc, hand-computed
    s = df.loc[1, "text"].encode()
    assert abs(r[1] - len(zlib.compress(s, 6)) / len(s)) < 1e-12


def test_redact_pii_patterns(ray_session):
    """Each PII family redacts to its tag; counts total replacements;
    card/ssn survive the phone pattern (ordering contract)."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import redact_pii

    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": [
        "mail a.b+c@ex-ample.org call +1 555-123-4567 done",
        "card 1234-5678-9012-3456 ssn 123-45-6789 ip 10.0.0.255",
        "nothing sensitive here"]})
    out = rd.from_pandas(df).map_batches(
        lambda b: b, batch_format="pyarrow")
    out = redact_pii(rd.from_pandas(df)).to_pandas().sort_values(
        "doc_id").reset_index(drop=True)
    assert out.loc[0, "redacted"] == "mail [EMAIL] call [PHONE] done"
    assert out.loc[1, "redacted"] == "card [CARD] ssn [SSN] ip [IP]"
    assert out.loc[2, "redacted"] == "nothing sensitive here"
    assert out["n_pii"].tolist() == [2, 3, 0]


def test_add_script_ratios(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import add_script_ratios
    df = pd.DataFrame({"doc_id": [0, 1, 2], "text": [
        "hello", "你好吗", "abc да 12"]})
    out = rd.from_pandas(df).map_batches(
        add_script_ratios, batch_format="pyarrow").to_pandas()
    r0 = out.iloc[0]; r1 = out.iloc[1]; r2 = out.iloc[2]
    assert r0["latin_ratio"] == 1.0 and r0["cjk_ratio"] == 0.0
    assert r1["cjk_ratio"] == 1.0 and r1["latin_ratio"] == 0.0
    assert abs(r2["latin_ratio"] - 3/9) < 1e-12
    assert abs(r2["cyrillic_ratio"] - 2/9) < 1e-12
    assert abs(r2["digit_ratio"] - 2/9) < 1e-12
