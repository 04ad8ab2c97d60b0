"""Distributed classical-ML ops: Naive Bayes, k-means, softmax probe."""

import numpy as np
import pandas as pd


def _nb_corpus():
    """Two well-separated vocabularies -> perfectly learnable labels."""
    rows = []
    fruit = ["apple", "banana", "pear", "grape", "melon"]
    tools = ["hammer", "wrench", "drill", "saw", "pliers"]
    for i in range(60):
        voc = fruit if i % 2 == 0 else tools
        words = [voc[(i + j) % 5] for j in range(8)] + ["the", "and"]
        rows.append({"doc_id": i, "text": " ".join(words),
                     "lang": "fruit" if i % 2 == 0 else "tool"})
    return pd.DataFrame(rows)


def _nb_reference_scores(df, alpha=1.0):
    """Plain-python NB reference implementation."""
    import math
    tok = {r.doc_id: r.text.split(" ") for r in df.itertuples()}
    classes = sorted(df["lang"].unique())
    wc = {}
    totals = {c: 0 for c in classes}
    docs = {c: 0 for c in classes}
    vocab = set()
    for r in df.itertuples():
        docs[r.lang] += 1
        for w in tok[r.doc_id]:
            wc[(r.lang, w)] = wc.get((r.lang, w), 0) + 1
            totals[r.lang] += 1
            vocab.add(w)
    V, N = len(vocab), len(df)
    out = {}
    for r in df.itertuples():
        best = None
        for c in classes:
            s = math.log(docs[c] / N)
            for w in tok[r.doc_id]:
                s += math.log((wc.get((c, w), 0) + alpha)
                              / (totals[c] + alpha * V))
            if best is None or s > best[1] + 1e-12:
                best = (c, s)
        out[r.doc_id] = best
    return out


def test_nb_broadcast_path_matches_reference(ray_session):
    import ray.data as rd
    from agraph_ray.ops.ml import train_nb, score_nb
    df = _nb_corpus()
    model = train_nb(rd.from_pandas(df))
    assert model.vocab_size == 12
    assert model.class_docs == {"fruit": 30, "tool": 30}
    got = score_nb(rd.from_pandas(df), model).to_pandas() \
        .set_index("doc_id").sort_index()
    ref = _nb_reference_scores(df)
    for doc_id, (c, s) in ref.items():
        assert got.loc[doc_id, "pred_label"] == c
        assert abs(got.loc[doc_id, "score"] - s) < 1e-9
    # the planted labels are perfectly recoverable
    assert (got["pred_label"] ==
            df.set_index("doc_id").sort_index()["lang"]).all()


def test_nb_join_path_equals_broadcast_path(ray_session, force_side):
    import ray.data as rd
    from agraph_ray.ops.ml import train_nb, score_nb
    df = _nb_corpus()
    model = train_nb(rd.from_pandas(df))
    b = score_nb(rd.from_pandas(df), model).to_pandas() \
        .set_index("doc_id").sort_index()
    with force_side("agraph_ray.ops.ml", _MODEL_BROADCAST_ROWS=0):
        j = score_nb(rd.from_pandas(df), model, num_buckets=8).to_pandas() \
            .set_index("doc_id").sort_index()
    assert (b["pred_label"] == j["pred_label"]).all()
    assert np.allclose(b["score"], j["score"], atol=1e-9)


def _clustered_vecs(k=3, per=40, dim=6, seed=3):
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(k, dim)) * 10
    vecs, truth = [], []
    for c in range(k):
        vecs.append(centers[c] + rng.normal(scale=0.3, size=(per, dim)))
        truth += [c] * per
    v = np.concatenate(vecs)
    return pd.DataFrame({"vec_id": np.arange(len(v)),
                         "truth": truth,
                         "embedding": [x.astype("float32") for x in v]})


def test_kmeans_recovers_planted_clusters(ray_session):
    import ray.data as rd
    from agraph_ray.ops.ml import embedding_kmeans
    df = _clustered_vecs()
    assigns, cents = embedding_kmeans(
        rd.from_pandas(df[["vec_id", "embedding"]]), k=3, iters=30)
    a = assigns.to_pandas().set_index("vec_id").sort_index()
    assert cents.shape == (3, 6)
    # each planted cluster maps to exactly one k-means cluster, and the
    # three are distinct
    mapped = {}
    for t in range(3):
        got = a.loc[df.loc[df["truth"] == t, "vec_id"], "cluster"].unique()
        assert len(got) == 1
        mapped[t] = got[0]
    assert len(set(mapped.values())) == 3
    assert (a["dist"] >= 0).all()


def test_kmeans_deterministic_across_runs(ray_session):
    import ray.data as rd
    from agraph_ray.ops.ml import embedding_kmeans
    df = _clustered_vecs(seed=11)
    ds = rd.from_pandas(df[["vec_id", "embedding"]])
    a1, c1 = embedding_kmeans(ds, k=3, iters=10)
    a2, c2 = embedding_kmeans(ds, k=3, iters=10)
    p1 = a1.to_pandas().sort_values("vec_id").reset_index(drop=True)
    p2 = a2.to_pandas().sort_values("vec_id").reset_index(drop=True)
    assert (p1["cluster"] == p2["cluster"]).all()
    assert np.allclose(c1, c2)


def test_softmax_probe_separable(ray_session):
    import ray.data as rd
    from agraph_ray.ops.ml import softmax_probe
    rng = np.random.default_rng(5)
    n, dim = 150, 5
    x = rng.normal(size=(n, dim))
    w_true = rng.normal(size=dim)
    y = (x @ w_true > 0).astype("int32")
    df = pd.DataFrame({"vec_id": np.arange(n), "label": y,
                       "embedding": [v.astype("float32") for v in x]})
    scored, W, classes = softmax_probe(rd.from_pandas(df), iters=80, lr=1.0)
    s = scored.to_pandas()
    assert classes == [0, 1]
    assert W.shape == (2, dim + 1)
    acc = s["correct"].mean()
    assert acc >= 0.95, acc


def test_hash_vectorize_deterministic_and_normalized(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.ml import hash_vectorize
    from agraph_ray.ops.stats import _key_hash32
    df = pd.DataFrame({"doc_id": [0, 1],
                       "text": ["apple apple pear", "dog"]})
    out = hash_vectorize(rd.from_pandas(df), dim=16).to_pandas() \
        .set_index("doc_id")
    v0 = np.asarray(out.loc[0, "embedding"])
    # hand-build: apple x2, pear x1 into md5 buckets, L2-normalized
    exp = np.zeros(16)
    exp[int(_key_hash32(["apple"])[0] % np.uint64(16))] += 2
    exp[int(_key_hash32(["pear"])[0] % np.uint64(16))] += 1
    exp = exp / np.linalg.norm(exp)
    assert np.allclose(v0, exp)
    assert np.isclose(np.linalg.norm(np.asarray(out.loc[1, "embedding"])),
                      1.0)
    # partition-invariant
    out2 = hash_vectorize(rd.from_pandas(df).repartition(2),
                          dim=16).to_pandas().set_index("doc_id")
    assert np.allclose(np.asarray(out2.loc[0, "embedding"]), v0)
