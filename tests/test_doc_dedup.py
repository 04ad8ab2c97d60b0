"""Document-dedup operators: distributed Jaccard verify (no driver text
dict — the round-1 >200k-doc broadcast crash path is gone), exact dedup,
and the cogroup_join key-dtype unification."""

import pyarrow as pa
import pytest


def _corpus():
    """Six docs: 0/1 near-identical, 2/3 near-identical, 4/5 unique."""
    base_a = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
              "lambda mu nu xi omicron pi rho sigma tau upsilon")
    base_b = ("one two three four five six seven eight nine ten eleven "
              "twelve thirteen fourteen fifteen sixteen seventeen")
    docs = [
        base_a,
        base_a + " phi",                      # ~0.9 jaccard vs doc 0
        base_b,
        base_b + " eighteen",                 # ~0.9 jaccard vs doc 2
        "the quick brown fox jumps over the lazy dog again and again today",
        "completely different content about distributed dataframes and arrow",
    ]
    return pa.table({"doc_id": list(range(len(docs))), "text": docs})


def test_minhash_dedup_distributed_verify(ray_session):
    import ray.data as rd
    from agraph_ray.ops.dedup import minhash_dedup
    ds = rd.from_arrow(_corpus())
    out = minhash_dedup(ds, jaccard_threshold=0.7)
    ids = sorted(out.to_pandas()["doc_id"].tolist())
    # min id survives each near-dup component; singletons untouched
    assert ids == [0, 2, 4, 5]


def test_ngram_jaccard_pairs_distributed(ray_session):
    import ray.data as rd
    from agraph_ray.ops.dedup import ngram_jaccard_pairs
    ds = rd.from_arrow(_corpus())
    df = ngram_jaccard_pairs(ds, threshold=0.5).to_pandas()
    pairs = {(a, b): j for a, b, j in
             zip(df["a"], df["b"], df["jaccard"])}
    assert set(pairs) == {(0, 1), (2, 3)}
    assert all(j > 0.7 for j in pairs.values())


def test_jaccard_verify_semi_join_paths_agree(ray_session, force_side):
    """The semi-join shingle filter (default) and the full-shuffle fallback
    (_SEMI_JOIN_IDS=0 forces it) score identical pairs."""
    import ray.data as rd
    from agraph_ray.ops.dedup import (MinHashSigner, _jaccard_scored_pairs,
                                      minhash_lsh_groups)
    texts = rd.from_arrow(_corpus())
    cand = minhash_lsh_groups(texts, dedup=False)
    signer = MinHashSigner()

    def rows(**forced):
        with force_side("agraph_ray.ops.dedup", **forced):
            out = _jaccard_scored_pairs(texts, cand, signer, "doc_id",
                                        "text").to_pandas()
        return sorted((a, b, round(j, 9)) for a, b, j in
                      zip(out["a"], out["b"], out["jaccard"]))

    filtered, full = rows(), rows(_SEMI_JOIN_IDS=0)
    assert filtered == full and filtered, "paths diverged or found nothing"


def test_jaccard_verify_broadcast_and_shuffle_regimes_agree(ray_session,
                                                            force_side):
    """The r3 candidate-only shingle-broadcast fast path (default for
    small candidate sets) must score identically to the two-shuffle
    regime, under every forced fallback: ids-cap overflow (the pinned
    >200k-doc no-broadcast behavior), bytes-guard overflow mid-collect,
    and the semi-join-cap overflow that disables both reductions; and
    its driver scoring identically to its per-batch scoring."""
    import ray.data as rd
    from agraph_ray.ops.dedup import (MinHashSigner, _jaccard_scored_pairs,
                                      minhash_lsh_groups)
    texts = rd.from_arrow(_corpus())
    cand = minhash_lsh_groups(texts, dedup=False)
    signer = MinHashSigner()

    def rows(**forced):
        with force_side("agraph_ray.ops.dedup", **forced):
            out = _jaccard_scored_pairs(texts, cand, signer, "doc_id",
                                        "text").to_pandas()
        return sorted((a, b, round(j, 9)) for a, b, j in
                      zip(out["a"], out["b"], out["jaccard"]))

    broadcast = rows()
    no_bcast_ids = rows(_BROADCAST_IDS=0)
    no_bcast_bytes = rows(_BROADCAST_BYTES=0)
    no_semi = rows(_SEMI_JOIN_IDS=0)
    mapped = rows(_DRIVER_SCORE_PAIRS=0)
    assert broadcast == no_bcast_ids == no_bcast_bytes == no_semi == mapped
    assert broadcast, "found nothing"


def test_minhash_dedup_no_duplicates_is_identity(ray_session):
    import ray.data as rd
    from agraph_ray.ops.dedup import minhash_dedup
    t = pa.table({"doc_id": [1, 2],
                  "text": ["totally unique first document text here",
                           "second document with nothing in common at all"]})
    out = minhash_dedup(rd.from_arrow(t), jaccard_threshold=0.7)
    assert sorted(out.to_pandas()["doc_id"].tolist()) == [1, 2]


def test_exact_dedup_min_id(ray_session):
    import ray.data as rd
    from agraph_ray.ops.dedup import exact_dedup
    t = pa.table({"doc_id": [5, 3, 9, 1],
                  "text": ["same", "same", "other", "same"]})
    out = exact_dedup(rd.from_arrow(t))
    assert sorted(out.to_pandas()["doc_id"].tolist()) == [1, 9]


def test_shingle_hash_stability():
    """Pin the vectorized hash scheme: any pandas/numpy behavior change
    (or accidental reseeding) that would silently move LSH buckets across
    cluster processes fails here first."""
    from agraph_ray.ops.dedup import MinHashSigner
    from agraph_ray.stages.canonicalize import _hash_tokens, _shingle_hashes
    h = _hash_tokens(["alpha", "beta", "alpha"])
    assert h.dtype == "uint64"
    assert h[0] == h[2] and h[0] != h[1]
    # pinned values: determinism across processes and machines
    assert int(h[0]) == int(_hash_tokens(["alpha"])[0])
    s = MinHashSigner()
    g1 = s.shingles("one two three four five")
    g2 = s.shingles("one two three four five")
    assert (g1 == g2).all() and len(g1) == 3      # 5 tokens, w=3 -> 3 grams
    assert (s.signature("a b c d") == s.signature("a b c d")).all()
    n1 = _shingle_hashes("acme corp", 3)
    assert (n1 == _shingle_hashes("acme corp", 3)).all()


def test_simhash_identical_to_naive_md5_loop():
    import hashlib
    import numpy as np
    from agraph_ray.ops.dedup import SimHasher

    def naive(tokens):
        if not tokens:
            return 0
        shifts = np.arange(64, dtype=np.uint64)
        acc = np.zeros(64, dtype=np.int64)
        for tok in tokens:
            h = np.uint64(int.from_bytes(
                hashlib.md5(tok.encode()).digest()[:8], "little"))
            bits = ((h >> shifts) & np.uint64(1)).astype(np.int64)
            acc += 2 * bits - 1
        return int(((acc > 0).astype(np.uint64) << shifts).sum())

    for text in ["the quick brown fox the quick", "a", "", "x y z x y x"]:
        toks = text.split()
        assert SimHasher.simhash64(toks) == naive(toks)


def test_cogroup_join_mixed_key_dtypes(ray_session):
    """int32 vs int64 keys must still match (right side is cast)."""
    import ray.data as rd
    from agraph_ray.ops.join import cogroup_join
    left = rd.from_arrow(pa.table({
        "k": pa.array([1, 2, 3], pa.int64()),
        "lv": ["a", "b", "c"]}))
    right = rd.from_arrow(pa.table({
        "k": pa.array([2, 3], pa.int32()),
        "rv": ["x", "y"]}))
    out = cogroup_join(left, right, on=["k"], how="inner").to_pandas()
    got = sorted(map(tuple, out[["k", "lv", "rv"]].values.tolist()))
    assert got == [(2, "b", "x"), (3, "c", "y")]


def test_topk_cosine_ivf(ray_session):
    """nprobe == nlist reproduces brute force exactly; a partial probe
    keeps high recall on clustered data."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.similarity import (embedding_join, topk_cosine,
                                           topk_cosine_ivf)
    rng = np.random.default_rng(11)
    centers = rng.standard_normal((4, 16)) * 3
    vecs = np.concatenate([c + rng.standard_normal((50, 16))
                           for c in centers])
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(len(vecs))),
        "embedding": [v.tolist() for v in vecs]}))
    queries = vecs[[0, 60, 120, 180]] + 0.01

    def rows(d):
        return sorted((r["query_id"], r["rank"], r["vec_id"])
                      for r in d.take_all())

    brute = rows(topk_cosine(ds, queries, k=5))
    exhaustive = rows(topk_cosine_ivf(ds, queries, k=5, nlist=8, nprobe=8,
                                      sample_size=200))
    assert exhaustive == brute
    approx = topk_cosine_ivf(ds, queries, k=5, nlist=8, nprobe=2,
                             sample_size=200)
    hits = {(r["query_id"], r["vec_id"]) for r in approx.take_all()}
    truth = {(q, v) for q, _, v in brute}
    recall = len(hits & truth) / len(truth)
    assert recall >= 0.8

    # exact ties at the k-th place: twelve copies of the query in one
    # block; every scan keeps the k smallest tied ids
    rng = np.random.default_rng(1)
    vecs = rng.standard_normal((5000, 8))
    q = rng.standard_normal(8)
    dup = rng.choice(5000, 12, replace=False)
    vecs[dup] = q
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(len(vecs))),
        "embedding": [v.tolist() for v in vecs]}))
    tied = sorted(dup.tolist())
    assert tied[:5] == [867, 917, 1766, 2199, 2354]

    def ids(d, col="vec_id"):
        return [r[col] for r in sorted(d.take_all(),
                                        key=lambda r: r["rank"])]

    qds = rd.from_arrow(pa.table({"vec_id": [-1],
                                  "embedding": [q.tolist()]}))
    for k in (5, 7):
        assert ids(topk_cosine(ds, q[None], k=k)) == tied[:k]
        assert ids(topk_cosine_ivf(ds, q[None], k=k, nlist=8,
                                   nprobe=8)) == tied[:k]
        assert ids(embedding_join(qds, ds, k=k), "b_id") == tied[:k]


def test_topk_cosine_lsh_ranks_on_returned_sim(ray_session):
    """The LSH scan ranks by the 6-place sim it returns, then vec_id: two
    cosines that round to the same value tie, and the smaller id wins."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.similarity import topk_cosine_lsh
    q = np.eye(8)[0]

    def at_cos(c):
        v = np.zeros(8)
        v[0], v[1] = c, np.sqrt(1.0 - c * c)
        return v.tolist()

    ds = rd.from_arrow(pa.table({
        "vec_id": [1, 2], "embedding": [at_cos(0.9999996),
                                        at_cos(0.9999999)]}))
    rows = topk_cosine_lsh(ds, q[None], k=1).take_all()
    assert [(r["vec_id"], r["sim"]) for r in rows] == [(1, 1.0)]


def test_dedup_against_incremental(ray_session):
    """New-batch dedup vs an existing corpus: cross-batch dups dropped,
    in-batch dups collapse to min id, novel docs survive."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.dedup import dedup_against
    old = pd.DataFrame({
        "doc_id": [1, 2, 3],
        "text": ["alpha corpus text", "beta corpus text", "gamma text"]})
    new = pd.DataFrame({
        "doc_id": [10, 11, 12, 13, 14],
        "text": ["alpha corpus text",      # dup of existing -> dropped
                 "delta novel text",        # novel -> kept
                 "delta novel text",        # in-batch dup -> collapsed
                 "epsilon novel text",      # novel -> kept
                 "beta corpus text"]})      # dup of existing -> dropped
    out = dedup_against(rd.from_pandas(new).repartition(3),
                        rd.from_pandas(old).repartition(2),
                        m_bits=1 << 14).to_pandas()
    assert sorted(out.doc_id) == [11, 13]


def test_cdc_chunking_shift_invariance(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.dedup import cdc_chunk_stats
    rng = np.random.default_rng(29)
    body = " ".join(rng.choice(["alpha", "beta", "gamma", "delta",
                                "epsilon"], 3000))
    # two docs: identical body, one with a small inserted prefix —
    # content-defined boundaries realign, so most chunks dedup
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": [body, "INSERTED PREFIX " + body]})
    out = cdc_chunk_stats(rd.from_pandas(df), mask_bits=8).to_pandas()
    r = out.iloc[0]
    assert r["n_chunks"] > r["n_distinct"]          # real dedup happened
    assert r["dedup_ratio_micro"] > 350_000         # >35% bytes dedup'd
    assert r["total_bytes"] == sum(len(t.encode()) for t in df["text"])
    # determinism across runs / partitioning
    out2 = cdc_chunk_stats(rd.from_pandas(df).repartition(2),
                           mask_bits=8).to_pandas()
    pd.testing.assert_frame_equal(out, out2)


def test_line_dedup_broadcast_and_antijoin_paths_agree(ray_session,
                                                       force_side):
    """Corpus-level first-occurrence turn dedup: the kill-list broadcast
    path and the beyond-cap anti-join path (_KILL_BROADCAST_ROWS=0) keep
    exactly the same (conv_id, turn_idx) winners — min lexicographic per
    text."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.dedup import line_dedup

    rows = []
    texts = ["hello there", "repeated boilerplate", "unique alpha",
             "repeated boilerplate", "unique beta"]
    for cid in ["c2", "c1", "c3"]:
        for i, t in enumerate(texts if cid != "c3"
                              else ["repeated boilerplate", "solo"]):
            rows.append({"conv_id": cid, "turn_idx": i, "text": t})
    ds = rd.from_pandas(pd.DataFrame(rows)).repartition(3)

    def key_set(out):
        df = out.to_pandas()
        return sorted(zip(df["conv_id"], df["turn_idx"]))

    got_b = key_set(line_dedup(ds))
    with force_side("agraph_ray.ops.dedup", _KILL_BROADCAST_ROWS=0):
        got_a = key_set(line_dedup(ds))
    # pandas reference: first (conv_id, turn_idx) per distinct text
    ref = (pd.DataFrame(rows).sort_values(["conv_id", "turn_idx"])
           .drop_duplicates("text", keep="first"))
    want = sorted(zip(ref["conv_id"], ref["turn_idx"]))
    assert got_b == want
    assert got_a == want


def test_remove_duplicate_spans_paths_and_semantics(ray_session, force_side):
    """Duplicated 4-gram spans are cut, uniques survive; broadcast and
    beyond-cap co-group rebuild paths produce identical output."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.text import remove_duplicate_spans

    span = "alpha beta gamma delta"
    df = pd.DataFrame({
        "doc_id": [0, 1, 2],
        "text": [f"intro one {span} tail zero",
                 f"other words here {span} closing bits now",
                 "totally unique text with no repeats at all"]})
    ds = rd.from_pandas(df).repartition(2)

    def run(**forced):
        with force_side("agraph_ray.ops.text", **forced):
            out = remove_duplicate_spans(ds, n=4, min_count=2).to_pandas()
        return out.sort_values("doc_id").reset_index(drop=True)

    got = run()
    assert got.loc[0, "text"] == "intro one tail zero"
    assert got.loc[1, "text"] == "other words here closing bits now"
    assert got.loc[2, "text"] == df.loc[2, "text"]
    assert got["n_removed"].tolist() == [4, 4, 0]
    pd.testing.assert_frame_equal(got, run(_KILL_BROADCAST_ROWS=0))


def test_neardedup_against(ray_session, force_side):
    """New docs near-duplicating an existing doc (J>=0.7) are dropped;
    novel new docs and exact-id survivors pass; existing side untouched."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.dedup import neardedup_against

    base = ("alpha beta gamma delta epsilon zeta eta theta iota kappa "
            "lambda mu nu xi omicron pi rho sigma tau upsilon")
    old = pd.DataFrame({"doc_id": [100, 101],
                        "text": [base,
                                 "unrelated existing corpus text about "
                                 "arrow datasets and shuffles entirely"]})
    new = pd.DataFrame({"doc_id": [1, 2, 3],
                        "text": [base + " phi",         # near-dup of 100
                                 "completely novel words nobody wrote "
                                 "before in any earlier crawl batch",
                                 base.replace("alpha", "ALPHA-9")
                                 ]})                    # still ~0.9 to 100
    out = neardedup_against(rd.from_pandas(new).repartition(2),
                            rd.from_pandas(old).repartition(2),
                            jaccard_threshold=0.7).to_pandas()
    assert sorted(out["doc_id"]) == [2]
    # threshold above every true jaccard -> nothing killed
    out2 = neardedup_against(rd.from_pandas(new), rd.from_pandas(old),
                             jaccard_threshold=0.99).to_pandas()
    assert sorted(out2["doc_id"]) == [1, 2, 3]
    # beyond-cap anti-join path keeps the same survivors
    with force_side("agraph_ray.ops.dedup", _KILL_BROADCAST_ROWS=0):
        out3 = neardedup_against(rd.from_pandas(new), rd.from_pandas(old),
                                 jaccard_threshold=0.7).to_pandas()
    assert sorted(out3["doc_id"]) == [2]


def test_md5_hex_matches_hashlib():
    """_md5_hex (DuckDB kernel) must be byte-identical to the per-row
    hashlib digest it replaced — DuckDB-pinned oracles depend on it."""
    import hashlib

    import pyarrow as pa

    from agraph_ray.ops.dedup import _md5_hex

    texts = ["", "a", "hello world", "naïve café ünïcode 漢字",
             "x" * 10_000, None, "line\nbreak\ttab"]
    got = _md5_hex(pa.array(texts, pa.string())).to_pylist()
    want = [hashlib.md5((s or "").encode("utf-8")).hexdigest()
            for s in texts]
    assert got == want
