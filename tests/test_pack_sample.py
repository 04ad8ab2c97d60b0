"""Sequence packing, windowed stream dedup, neighbor sampling,
conversation stats."""

import numpy as np
import pandas as pd


def _tok_df(n=300, seed=11, max_tok=400):
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "token_count": rng.integers(1, max_tok, n).astype(np.int64)})


def test_ordered_prefix_sum_matches_numpy(ray_session):
    import ray.data as rd
    from agraph_ray.ops.pack import ordered_prefix_sum
    df = _tok_df()
    # shuffled + repartitioned input: the op owns the ordering
    shuffled = df.sample(frac=1.0, random_state=3).reset_index(drop=True)
    out = (ordered_prefix_sum(rd.from_pandas(shuffled).repartition(7),
                              "doc_id", "token_count")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    expect = np.concatenate(
        [[0], np.cumsum(df["token_count"].to_numpy()[:-1])])
    assert (out["doc_id"].to_numpy() == df["doc_id"].to_numpy()).all()
    assert (out["prefix"].to_numpy() == expect).all()


def test_ordered_prefix_sum_string_keys(ray_session):
    import ray.data as rd
    from agraph_ray.ops.pack import ordered_prefix_sum
    # keys whose lexicographic and numeric orders differ ("10" < "9")
    df = pd.DataFrame({"k": [str(i) for i in range(15)],
                       "v": np.arange(1, 16, dtype=np.int64)})
    out = (ordered_prefix_sum(rd.from_pandas(df).repartition(4), "k", "v")
           .to_pandas())
    ordered = df.sort_values("k").reset_index(drop=True)  # lexicographic
    expect = np.concatenate([[0], np.cumsum(ordered["v"].to_numpy()[:-1])])
    got = out.set_index("k").loc[ordered["k"], "prefix"].to_numpy()
    assert (got == expect).all()


def test_pack_concat_cut_semantics(ray_session):
    import ray.data as rd
    from agraph_ray.ops.pack import pack_concat
    df = _tok_df(n=200, seed=5)
    cap = 256
    out = (pack_concat(rd.from_pandas(df).repartition(5), "token_count",
                       cap=cap, order_col="doc_id")
           .to_pandas().sort_values("doc_id").reset_index(drop=True))
    prefix = np.concatenate(
        [[0], np.cumsum(df["token_count"].to_numpy()[:-1])])
    assert (out["seq_id"].to_numpy() == prefix // cap).all()
    assert (out["seq_offset"].to_numpy() == prefix % cap).all()
    # sequence ids are dense from 0 to total//cap
    total = int(df["token_count"].sum())
    assert out["seq_id"].max() == (total - int(df["token_count"].iloc[-1])) // cap


def test_pack_greedy_invariants(ray_session):
    import ray.data as rd
    from agraph_ray.ops.pack import pack_greedy
    cap = 300
    df = _tok_df(n=400, seed=9, max_tok=500)   # some docs exceed the cap
    out = pack_greedy(rd.from_pandas(df).repartition(6), "token_count",
                      cap=cap, id_col="doc_id").to_pandas()
    # every document packed exactly once, token counts preserved
    assert sorted(out["doc_id"]) == sorted(df["doc_id"])
    merged = out.merge(df, on="doc_id", suffixes=("", "_in"))
    assert (merged["token_count"] == merged["token_count_in"]).all()
    # bin loads: consistent with membership, ≤ cap unless singleton
    loads = out.groupby(["partition", "bin"])["token_count"].sum()
    sizes = out.groupby(["partition", "bin"])["doc_id"].count()
    declared = out.groupby(["partition", "bin"])["bin_tokens"].first()
    assert (loads == declared).all()
    over = loads[loads > cap]
    assert (sizes.loc[over.index] == 1).all()      # only oversized singles
    # determinism across partition-count-agnostic reruns of same input
    out2 = pack_greedy(rd.from_pandas(df).repartition(11), "token_count",
                       cap=cap, id_col="doc_id").to_pandas()
    a = out.sort_values("doc_id").reset_index(drop=True)
    b = out2.sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # not wasteful: first-fit guarantees at most ONE bin at ≤ half
    # capacity per partition (two half-empty bins would have merged)
    for part, g in out.groupby("partition"):
        bl = g.groupby("bin")["token_count"].sum()
        assert (bl <= cap / 2).sum() <= 1, (part, bl.tolist())


def test_window_dedup_keeps_earliest(ray_session):
    import ray.data as rd
    from agraph_ray.ops.window import window_dedup
    rng = np.random.default_rng(4)
    n = 500
    base = 1_700_000_000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 10, n).astype(np.int64),
        "etype": rng.choice(["a", "b"], n),
        "ts": pd.to_datetime(
            base + rng.integers(0, 6 * 3600, n), unit="s")})
    out = window_dedup(rd.from_pandas(df).repartition(5),
                       ["user_id", "etype"], "ts", width_sec=3600,
                       tie_col="event_id").to_pandas()
    us = df["ts"].astype("int64") // 1000
    win = (us // 3_600_000_000) * 3_600_000_000
    expect = (df.assign(window_start=win, us=us)
              .sort_values(["us", "event_id"], kind="stable")
              .drop_duplicates(["user_id", "etype", "window_start"]))
    got = out.sort_values("event_id")["event_id"].tolist()
    assert got == sorted(expect["event_id"].tolist())


def test_sample_neighbors_bounds_and_determinism(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import sample_neighbors
    rng = np.random.default_rng(8)
    df = pd.DataFrame({
        "src": rng.integers(0, 30, 3000).astype(np.int64),
        "dst": rng.integers(0, 200, 3000).astype(np.int64)})
    out = sample_neighbors(rd.from_pandas(df).repartition(6),
                           "src", "dst", k=5).to_pandas()
    dd = df.drop_duplicates()
    # sample is a subset of the distinct edge set
    assert out.merge(dd, on=["src", "dst"]).shape[0] == len(out)
    counts = out.groupby("src")["dst"].count()
    deg = dd.groupby("src")["dst"].count()
    for s, c in counts.items():
        assert c == min(5, deg[s])
    # partitioning-invariant
    out2 = sample_neighbors(rd.from_pandas(df).repartition(13),
                            "src", "dst", k=5).to_pandas()
    a = out.sort_values(["src", "dst"]).reset_index(drop=True)
    b = out2.sort_values(["src", "dst"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_conversation_stats(ray_session, corpus_dir):
    import ray.data as rd
    from agraph_ray.stages.reassemble import conversation_stats
    ds = rd.read_parquet(corpus_dir)
    out = conversation_stats(ds).to_pandas().set_index("conv_id")
    df = ds.to_pandas()
    g = df.groupby("conv_id")
    assert (out["n_turns"].sort_index()
            == g.size().sort_index()).all()
    nu = (df["role"] == "user").groupby(df["conv_id"]).sum()
    assert (out["n_user"].sort_index() == nu.sort_index()).all()
    tc = df["text"].str.len().groupby(df["conv_id"]).sum()
    assert (out["total_chars"].sort_index() == tc.sort_index()).all()
    mx = df["text"].str.len().groupby(df["conv_id"]).max()
    assert (out["max_turn_chars"].sort_index() == mx.sort_index()).all()


def test_duplicate_ngram_stats(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import duplicate_ngram_stats
    docs = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [
            "a b c d",          # trigrams: "a b c", "b c d"
            "a b c x",          # shares "a b c"
            "q r s t u",        # all unique
            "z z z z z",        # within-doc repeat: "z z z" x3 → dup
            "short",            # < n words → 0/0
            "",                 # empty → 0/0
        ]})
    out = (duplicate_ngram_stats(rd.from_pandas(docs).repartition(3),
                                 n=3, min_count=2)
           .to_pandas().set_index("doc_id").sort_index())
    assert out.loc[0].tolist() == [2, 1]     # "a b c" dup'd across docs
    assert out.loc[1].tolist() == [2, 1]
    assert out.loc[2].tolist() == [3, 0]
    assert out.loc[3].tolist() == [3, 3]     # within-doc repetition counts
    assert out.loc[4].tolist() == [0, 0]
    assert out.loc[5].tolist() == [0, 0]
    # partitioning-invariant
    out2 = (duplicate_ngram_stats(rd.from_pandas(docs).repartition(6),
                                  n=3, min_count=2)
            .to_pandas().set_index("doc_id").sort_index())
    pd.testing.assert_frame_equal(out, out2)


def test_negative_sample_edges(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import negative_sample_edges
    rng = np.random.default_rng(2)
    edges = pd.DataFrame({
        "src": rng.integers(0, 20, 500).astype(np.int64),
        "dst": rng.integers(0, 50, 500).astype(np.int64)})
    pool = pd.DataFrame({"e": np.arange(100, 200, dtype=np.int64)})
    out = negative_sample_edges(
        rd.from_pandas(edges).repartition(4), "src", "dst",
        rd.from_pandas(pool), "e", k=3).to_pandas()
    dd = edges.drop_duplicates()
    assert len(out) == 3 * len(dd)
    assert set(out["neg_e"]).issubset(set(pool["e"]))
    assert sorted(out["neg_idx"].unique()) == [0, 1, 2]
    # every distinct edge gets exactly k negatives
    per = out.groupby(["src", "dst"]).size()
    assert (per == 3).all()
    # partitioning-invariant
    out2 = negative_sample_edges(
        rd.from_pandas(edges).repartition(9), "src", "dst",
        rd.from_pandas(pool), "e", k=3).to_pandas()
    a = out.sort_values(["src", "dst", "neg_idx"]).reset_index(drop=True)
    b = out2.sort_values(["src", "dst", "neg_idx"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)


def test_bm25_matches_bruteforce(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import bm25_topk
    rng = np.random.default_rng(6)
    vocab = np.array(["aa", "bb", "cc", "dd", "ee", "ff"])
    docs = pd.DataFrame({
        "doc_id": np.arange(80, dtype=np.int64),
        "text": [" ".join(rng.choice(vocab, rng.integers(3, 30)))
                 for _ in range(80)]})
    queries = {0: ["aa", "cc"], 1: ["ff"]}
    out = (bm25_topk(rd.from_pandas(docs).repartition(5), queries, k=7)
           .to_pandas())
    # brute-force reference
    k1, b = 1.2, 0.75
    toks = [t.split(" ") for t in docs["text"]]
    dl = np.array([len(t) for t in toks], dtype=float)
    avgdl = dl.mean()
    N = len(docs)
    rows = []
    for qid, terms in queries.items():
        scores = np.zeros(N)
        for term in terms:
            tf = np.array([t.count(term) for t in toks], dtype=float)
            df = int((tf > 0).sum())
            idf = np.log(1 + (N - df + 0.5) / (df + 0.5))
            with np.errstate(invalid="ignore"):
                scores += np.where(
                    tf > 0,
                    idf * tf * (k1 + 1)
                    / (tf + k1 * (1 - b + b * dl / avgdl)), 0)
        ss = np.floor(scores * 1_000_000 + 0.5).astype(np.int64)
        order = sorted(range(N), key=lambda i: (-ss[i], i))
        for r, i in enumerate([i for i in order if ss[i] > 0][:7], 1):
            rows.append((qid, i, ss[i], r))
    expect = pd.DataFrame(rows, columns=["query_id", "doc_id",
                                         "score_scaled", "rank"])
    got = (out.sort_values(["query_id", "rank"]).reset_index(drop=True)
           .astype({"query_id": np.int64, "doc_id": np.int64}))
    pd.testing.assert_frame_equal(
        got, expect.astype({"query_id": np.int64, "doc_id": np.int64,
                            "score_scaled": np.int64, "rank": np.int64}))


def test_corpus_js_divergence_bounds(ray_session):
    import ray.data as rd
    from agraph_ray.ops.text import corpus_js_divergence
    a = pd.DataFrame({"text": ["x y z", "x x y"]})
    same = corpus_js_divergence(rd.from_pandas(a),
                                rd.from_pandas(a.copy())).to_pandas()
    assert same["js_scaled"].iloc[0] == 0          # identical → JS = 0
    b = pd.DataFrame({"text": ["p q r", "p p q"]})
    disj = corpus_js_divergence(rd.from_pandas(a),
                                rd.from_pandas(b)).to_pandas()
    assert disj["js_scaled"].iloc[0] == int(
        np.floor(np.log(2) * 1_000_000 + 0.5))    # disjoint → ln 2
    assert disj["vocab_union"].iloc[0] == 6


def test_recall_at_k(ray_session):
    import ray.data as rd
    from agraph_ray.ops.similarity import recall_at_k
    e = pd.DataFrame({"query_id": [0]*3 + [1]*3,
                      "vec_id": [1, 2, 3, 7, 8, 9],
                      "rank": [1, 2, 3, 1, 2, 3]})
    a = pd.DataFrame({"query_id": [0]*3 + [1]*2,
                      "vec_id": [1, 2, 99, 7, 8],
                      "rank": [1, 2, 3, 1, 2]})
    out = (recall_at_k(rd.from_pandas(a), rd.from_pandas(e), k=3)
           .to_pandas().set_index("query_id").sort_index())
    assert out.loc[0, "n_hit"] == 2 and out.loc[0, "n_exact"] == 3
    assert out.loc[0, "recall_scaled"] == 666667
    assert out.loc[1, "n_hit"] == 2 and out.loc[1, "recall_scaled"] == 666667
    # identical sets → recall 1
    full = (recall_at_k(rd.from_pandas(e), rd.from_pandas(e), k=3)
            .to_pandas())
    assert (full["recall_scaled"] == 1_000_000).all()


def test_resample_by_weight_multiplicity(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import resample_by_weight, _key_hash32
    df = pd.DataFrame({"k": np.arange(200),
                       "wt": [0.0, 0.5, 1.0, 2.5] * 50})
    out = resample_by_weight(rd.from_pandas(df), "k", "wt").to_pandas()
    counts = out.groupby("k").size()
    for r in df.itertuples():
        base = int(np.floor(r.wt))
        frac_cut = int(np.floor((r.wt - base) * 1e6 + 0.5))
        h = int(_key_hash32([str(r.k)])[0] % np.uint64(1_000_000))
        exp = base + (1 if h < frac_cut else 0)
        assert counts.get(r.k, 0) == exp
        if exp:
            reps = sorted(out.loc[out["k"] == r.k, "rep"])
            assert reps == list(range(exp))
    # expected multiplicity ~ mean weight over many keys
    assert abs(len(out) / len(df) - df["wt"].mean()) < 0.15


def test_rrf_fuse_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.similarity import rrf_fuse
    a = pd.DataFrame({"query_id": [0, 0, 0], "doc_id": [10, 11, 12],
                      "rank": [1, 2, 3]})
    b = pd.DataFrame({"query_id": [0, 0, 0], "doc_id": [12, 10, 13],
                      "rank": [1, 2, 3]})
    out = rrf_fuse([rd.from_pandas(a), rd.from_pandas(b)],
                   k_rrf=60, topk=4).to_pandas() \
        .sort_values("rank").reset_index(drop=True)

    def s(*ranks):
        return sum(int(round(1e9 / (60 + r))) for r in ranks)
    exp = sorted([(10, s(1, 2)), (12, s(3, 1)), (11, s(2)), (13, s(3))],
                 key=lambda t: (-t[1], t[0]))
    assert list(out["doc_id"]) == [d for d, _ in exp]
    assert list(out["rrf_nano"]) == [v for _, v in exp]
    assert list(out["rank"]) == [1, 2, 3, 4]


def test_ndcg_at_k_hand_computed(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.similarity import ndcg_at_k
    exact = pd.DataFrame({"query_id": [0] * 3, "vec_id": [1, 2, 3],
                          "rank": [1, 2, 3]})
    # approx finds 1 (at rank 2) and 3 (at rank 1); misses 2
    approx = pd.DataFrame({"query_id": [0] * 3, "vec_id": [3, 1, 9],
                           "rank": [1, 2, 3]})
    out = ndcg_at_k(rd.from_pandas(approx), rd.from_pandas(exact),
                    k=3).to_pandas()
    dcg = 1 / np.log2(2) + 1 / np.log2(3)
    idcg = sum(1 / np.log2(i + 1) for i in (1, 2, 3))
    assert out.loc[0, "dcg_scaled"] == int(np.floor(dcg * 1e6 + 0.5))
    assert out.loc[0, "ndcg_scaled"] == int(np.floor(dcg / idcg * 1e6
                                                     + 0.5))
    # perfect approx → ndcg 1.0
    perfect = ndcg_at_k(rd.from_pandas(exact), rd.from_pandas(exact),
                        k=3).to_pandas()
    assert perfect.loc[0, "ndcg_scaled"] == 1_000_000


def test_negative_sampling_join_path_equals_broadcast(ray_session,
                                                      force_side):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.graph_algo import negative_sample_edges
    edges = pd.DataFrame({"s": [1, 1, 2, 3], "d": [10, 11, 10, 12]})
    pool = pd.DataFrame({"p": [100, 200, 300, 400, 500]})
    de, dp = rd.from_pandas(edges), rd.from_pandas(pool)
    b = negative_sample_edges(de, "s", "d", dp, "p", k=3).to_pandas()
    with force_side("agraph_ray.ops.graph_algo", _BROADCAST_ROWS=0):
        j = negative_sample_edges(de, "s", "d", dp, "p", k=3).to_pandas()
    key = lambda df: sorted(map(tuple,
                                df[["s", "d", "neg_idx", "neg_p"]].values))
    assert key(b) == key(j)
    assert len(b) == 4 * 3


def test_weighted_sample_n_deterministic_and_biased(ray_session):
    """Same winners at any partitioning; heavier rows win more often."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import weighted_sample_n

    rng = np.random.default_rng(3)
    df = pd.DataFrame({"g": rng.integers(0, 5, 5000),
                       "i": np.arange(5000, dtype="int64"),
                       "w": np.where(np.arange(5000) % 100 == 0,
                                     1000.0, 1.0)})
    def run(parts):
        out = weighted_sample_n(rd.from_pandas(df).repartition(parts),
                                "g", "i", "w", n=4).to_pandas()
        return sorted(zip(out["g"], out["i"]))

    a, b = run(3), run(13)
    assert a == b and len(a) == 20
    # the 1000x-weighted ids (i % 100 == 0) should dominate winners
    heavy = sum(1 for _, i in a if i % 100 == 0)
    assert heavy >= 15


def test_select_until_budget_prefix_semantics(ray_session):
    """Kept set is exactly the maximal score-ordered prefix whose
    inclusive cumsum fits the budget, at any partitioning."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.pack import select_until_budget

    rng = np.random.default_rng(9)
    df = pd.DataFrame({"i": np.arange(1000, dtype="int64"),
                       "score": rng.random(1000),
                       "tok": rng.integers(1, 50, 1000).astype("int64")})
    ref = df.sort_values(["score", "i"], ascending=[False, True])
    ref = ref[ref["tok"].cumsum() <= 3000]
    for parts in (2, 9):
        out = select_until_budget(
            rd.from_pandas(df).repartition(parts), "score", "i", "tok",
            budget=3000).to_pandas()
        assert sorted(out["i"]) == sorted(ref["i"])
        assert out["cum"].max() <= 3000


def test_temperature_mix_rates_and_determinism(ray_session):
    """alpha<1 upweights the small source; kept set is identical at any
    partitioning; per-group take is within binomial noise of target."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import temperature_mix

    df = pd.DataFrame({
        "i": np.arange(11000, dtype="int64"),
        "g": ["big"] * 10000 + ["small"] * 1000})
    def run(parts):
        out = temperature_mix(rd.from_pandas(df).repartition(parts),
                              "g", "i", alpha=0.5,
                              target_total=2000).to_pandas()
        return out
    a, b = run(3), run(11)
    assert sorted(a["i"]) == sorted(b["i"])
    na = a.groupby("g").size()
    # targets: den = 100 + 31.62; big ~ 2000*100/131.6 = 1520,
    # small ~ 480 (48% of its 1000 rows vs big's 15%)
    assert abs(na["big"] - 1520) < 120
    assert abs(na["small"] - 480) < 60
    assert na["small"] / 1000 > na["big"] / 10000  # upweighted
