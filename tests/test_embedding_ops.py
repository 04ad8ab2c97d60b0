"""Embedding analytics: centroids, outlier scores, SemDeDup."""

import numpy as np
import pandas as pd


def _emb_frame(n=120, dim=8, n_labels=4, seed=7):
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(n, dim))
    labels = rng.integers(0, n_labels, n)
    return pd.DataFrame({"vec_id": np.arange(n),
                         "label": labels.astype("int32"),
                         "embedding": [v.astype("float32") for v in vecs]})


def test_label_centroids_match_numpy(ray_session):
    import ray.data as rd
    from agraph_ray.ops.embedding import label_centroids
    df = _emb_frame()
    out = label_centroids(rd.from_pandas(df)).to_pandas()
    for _, row in out.iterrows():
        members = np.stack(df.loc[df["label"] == row["label"],
                                  "embedding"].to_numpy()).astype(np.float64)
        assert row["n"] == len(members)
        assert np.allclose(np.asarray(row["centroid"]), members.mean(axis=0),
                           atol=1e-12)


def test_centroid_outlier_scores(ray_session):
    import ray.data as rd
    from agraph_ray.ops.embedding import centroid_outlier_scores
    df = _emb_frame(seed=9)
    out = (centroid_outlier_scores(rd.from_pandas(df)).to_pandas()
           .sort_values("vec_id").reset_index(drop=True))
    assert len(out) == len(df)
    # recompute one label end-to-end
    lab = int(df["label"].iloc[0])
    members = np.stack(df.loc[df["label"] == lab,
                              "embedding"].to_numpy()).astype(np.float64)
    cent = members.mean(axis=0)
    ids = df.loc[df["label"] == lab, "vec_id"].to_numpy()
    for i, v in zip(ids, members):
        cos = v @ cent / (np.linalg.norm(v) * np.linalg.norm(cent))
        got = out.loc[out["vec_id"] == i, "cos_micro"].iloc[0]
        assert got == int(np.floor(cos * 1e6 + 0.5))


def test_semdedup_removes_planted_duplicates(ray_session, force_side):
    import ray.data as rd
    from agraph_ray.ops.embedding import semdedup, semdedup_pairs
    rng = np.random.default_rng(3)
    base = rng.normal(size=(50, 16))
    rows = []
    for i, v in enumerate(base):
        rows.append((i, v))
    # plant 10 near-duplicates of the first 10 vectors (tiny jitter)
    for j in range(10):
        rows.append((100 + j, base[j] + rng.normal(scale=1e-4, size=16)))
    df = pd.DataFrame({"vec_id": [r[0] for r in rows],
                       "label": 0,
                       "embedding": [r[1].astype("float32") for r in rows]})
    ds = rd.from_pandas(df)
    pairs = semdedup_pairs(ds, threshold=0.99, n_clusters=8).to_pandas()
    got_pairs = set(zip(pairs["a"], pairs["b"]))
    assert {(j, 100 + j) for j in range(10)} <= got_pairs
    surv = semdedup(ds, threshold=0.99, n_clusters=8).to_pandas()
    kept = set(surv["vec_id"])
    assert kept == set(range(50))       # min-id survivor per dup pair
    # the co-group placement of the survivor anti join agrees
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        surv = semdedup(ds, threshold=0.99, n_clusters=8).to_pandas()
    assert set(surv["vec_id"]) == kept


def test_embedding_pca_recovers_planted_axis(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.embedding import embedding_pca
    rng = np.random.RandomState(5)
    d, n = 6, 600
    axis = np.zeros(d); axis[2] = 1.0
    x = rng.normal(0, 0.05, (n, d)) + rng.normal(0, 3.0, (n, 1)) * axis
    ds = rd.from_arrow(pa.table({
        "vec_id": list(range(n)),
        "embedding": pa.array([r.tolist() for r in x],
                              pa.list_(pa.float64()))})).repartition(4)
    comps, explained, proj = embedding_pca(ds, "embedding", k=2)
    assert abs(comps[0][2]) > 0.99          # planted axis dominates PC1
    assert comps[0][2] > 0                  # sign convention pinned
    assert explained[0] > 0.9
    rows = proj.take_all()
    assert len(rows) == n and len(rows[0]["pca"]) == 2
    # projection matches the driver-side computation
    mean = x.mean(axis=0)
    want = (x - mean) @ np.asarray(comps).T
    got = np.asarray([r["pca"] for r in
                      sorted(rows, key=lambda r: r["vec_id"])])
    assert np.allclose(got, want, atol=1e-8)


def test_embedding_join_sharded_equals_broadcast(ray_session, force_side):
    import numpy as np
    import ray.data as rd
    from agraph_ray.ops.similarity import embedding_join
    rng = np.random.default_rng(13)
    a = _emb_frame(n=40, dim=8, seed=1)
    b = _emb_frame(n=90, dim=8, seed=2)
    da = rd.from_pandas(a[["vec_id", "embedding"]])
    db = rd.from_pandas(b[["vec_id", "embedding"]])
    wide = embedding_join(da, db, k=4).to_pandas() \
        .sort_values(["a_id", "rank"]).reset_index(drop=True)
    with force_side("agraph_ray.ops.similarity", _INDEX_BROADCAST_ROWS=25):
        shard = embedding_join(da, db, k=4).to_pandas() \
            .sort_values(["a_id", "rank"]).reset_index(drop=True)
    assert (wide["a_id"] == shard["a_id"]).all()
    assert (wide["b_id"] == shard["b_id"]).all()
    assert (wide["rank"] == shard["rank"]).all()
    assert np.allclose(wide["sim"], shard["sim"], atol=1e-12)


def test_neighbor_mean_hand_graph(ray_session):
    """Mean of in-neighbor vectors; inner semantics; combiner across
    partitions agrees with a hand computation."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.embedding import neighbor_mean

    feats = pd.DataFrame({
        "vec_id": [1, 2, 3],
        "embedding": [[1.0, 0.0], [0.0, 2.0], [4.0, 4.0]]})
    edges = pd.DataFrame({
        "src": [1, 2, 3, 1, 9],        # 9 has no feature row
        "dst": [10, 10, 10, 11, 11]})
    out = neighbor_mean(rd.from_pandas(edges).repartition(3),
                        rd.from_pandas(feats).repartition(2)).to_pandas()
    got = {r["node"]: (list(r["vec"]), r["n_in"])
           for _, r in out.iterrows()}
    v10, n10 = got[10]
    assert n10 == 3 and np.allclose(v10, [5/3, 2.0])
    v11, n11 = got[11]
    assert n11 == 1 and np.allclose(v11, [1.0, 0.0])
    assert set(got) == {10, 11}
