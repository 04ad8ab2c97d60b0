"""Embedding-column analytics for training-data curation.

Operates on a ``list<float>`` vector column + metadata columns, the layout
this engine uses in place of the reference's ChromaDB collections
(agraph/vector/chroma_storage.py; SURVEY §2.1). All stages are vectorized
numpy-over-Arrow ``map_batches`` with per-batch combiners ahead of any
shuffle; nothing corpus-sized ever lands on the driver.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.common import bucketed_group_reduce, distinct_on
from .similarity import _batch_vecs, _sample_centroids, _unit

__all__ = ["label_centroids", "centroid_outlier_scores", "semdedup_pairs",
           "semdedup", "embedding_pca"]


def label_centroids(ds: "ray.data.Dataset", vec_col: str = "embedding",
                    label_col: str = "label",
                    num_buckets: int = 16) -> "ray.data.Dataset":
    """Per-label mean vector → ``(label, n, centroid: list<double>)``.

    Per batch, vectors collapse to one (label, sum, count) partial per
    distinct label (``np.add.at`` segment sum), so the shuffle carries
    O(|labels| x num_blocks) rows of dim doubles — never the vectors."""
    part_schema = pa.schema([(label_col, pa.int64()),
                             ("s", pa.list_(pa.float64())),
                             ("n", pa.int64())])
    out_schema = pa.schema([(label_col, pa.int64()), ("n", pa.int64()),
                            ("centroid", pa.list_(pa.float64()))])

    def partial(batch: pa.Table) -> pa.Table:
        v = _batch_vecs(batch, vec_col)
        lab = batch[label_col].to_numpy(zero_copy_only=False).astype(np.int64)
        u, inv = np.unique(lab, return_inverse=True)
        sums = np.zeros((len(u), v.shape[1] if v.size else 0))
        np.add.at(sums, inv, v)
        cnt = np.bincount(inv, minlength=len(u)).astype(np.int64)
        return pa.Table.from_pydict(
            {label_col: u, "s": list(sums), "n": cnt}, schema=part_schema)

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for lab, g in df.groupby(label_col, sort=False):
            s = np.sum(np.stack(g["s"].to_numpy()), axis=0)
            n = int(g["n"].sum())
            rows.append((int(lab), n, (s / n).tolist()))
        return pd.DataFrame(rows, columns=[label_col, "n", "centroid"])

    return bucketed_group_reduce(
        ds.select_columns([label_col, vec_col])
        .map_batches(partial, batch_format="pyarrow"),
        [label_col], reduce_df, num_buckets, schema=out_schema)


def centroid_outlier_scores(ds: "ray.data.Dataset",
                            vec_col: str = "embedding",
                            label_col: str = "label",
                            id_col: str = "vec_id") -> "ray.data.Dataset":
    """Cosine similarity of every vector to its own label's centroid →
    ``(id, label, cos_micro)`` (micro-scaled floor int — low values are
    the label's outliers / suspect labelings). The centroid table is tiny
    (one row per label) and is broadcast via ``ray.put``; the vector
    stream is scored in one vectorized pass."""
    import ray

    cent = label_centroids(ds, vec_col, label_col)
    labs, cents = [], []
    for b in cent.iter_batches(batch_size=None, batch_format="pyarrow"):
        labs.append(b[label_col].to_numpy(zero_copy_only=False))
        cents.append(_batch_vecs(b, "centroid"))
    lab_arr = np.concatenate(labs).astype(np.int64)
    cen_arr = np.concatenate(cents) if cents else np.zeros((0, 0))
    order = np.argsort(lab_arr)
    ref = ray.put((lab_arr[order], cen_arr[order]))

    def score(batch: pa.Table) -> pa.Table:
        lab_sorted, cen = ray.get(ref)
        v = _batch_vecs(batch, vec_col)
        lab = batch[label_col].to_numpy(
            zero_copy_only=False).astype(np.int64)
        c = cen[np.searchsorted(lab_sorted, lab)]
        dot = np.einsum("ij,ij->i", v, c)
        nv = np.linalg.norm(v, axis=1)
        ncen = np.linalg.norm(c, axis=1)
        denom = np.maximum(nv * ncen, 1e-300)
        cos = dot / denom
        return pa.table({
            id_col: batch[id_col],
            label_col: pa.array(lab, pa.int64()),
            "cos_micro": pa.array(
                np.floor(cos * 1e6 + 0.5).astype(np.int64))})

    return ds.select_columns([id_col, label_col, vec_col]).map_batches(
        score, batch_format="pyarrow")


def semdedup_pairs(ds: "ray.data.Dataset", threshold: float = 0.95,
                   n_clusters: int = 64, vec_col: str = "embedding",
                   id_col: str = "vec_id", sample_size: int = 2048,
                   num_buckets: int = 32) -> "ray.data.Dataset":
    """SemDeDup-style semantic near-duplicate candidates (Abbas et al.
    2023, arXiv:2303.09540): k-means-cluster the embeddings, then compare
    pairs ONLY within a cluster → ``(a, b, cosine)`` above ``threshold``.

    The quadratic step is bounded per cluster; the deterministic
    centroids come from an id-sorted sample (same quantizer as the IVF
    index, ops/similarity.py). Vectors ride the shuffle once, keyed by
    their assigned cluster. Unlike hyperplane-LSH near-dup
    (ops/dedup.py), recall does not depend on random projections — two
    texts embedded near each other land in the same cluster unless they
    straddle a k-means boundary (raise ``n_clusters`` resolution /
    lower ``threshold`` to trade)."""
    import ray

    cents = _sample_centroids(ds, id_col, vec_col, sample_size, n_clusters)
    if cents is None:
        import ray.data as rd
        return rd.from_arrow(pa.table(
            {"a": pa.array([], pa.int64()), "b": pa.array([], pa.int64()),
             "cosine": pa.array([], pa.float64())}))
    cref = ray.put(cents)

    def assign(batch: pa.Table) -> pa.Table:
        c = ray.get(cref)
        unit = _unit(_batch_vecs(batch, vec_col))
        cl = np.argmax(unit @ c.T, axis=1).astype(np.int64)
        return pa.table({id_col: batch[id_col],
                         "cl": pa.array(cl),
                         vec_col: batch[vec_col]})

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("cosine", pa.float64())])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        a_o, b_o, c_o = [], [], []
        for _, g in df.groupby("cl", sort=False):
            g = g.drop_duplicates(id_col).sort_values(id_col)
            n = len(g)
            if n <= 1:
                continue
            ids = g[id_col].to_numpy(dtype=np.int64)
            unit = _unit(np.asarray(g[vec_col].tolist(), dtype=np.float64))
            sims = unit @ unit.T
            ii, jj = np.triu_indices(n, k=1)
            keep = sims[ii, jj] >= threshold
            a_o.append(ids[ii[keep]])
            b_o.append(ids[jj[keep]])
            c_o.append(sims[ii[keep], jj[keep]])
        if not a_o:
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64"),
                                 "cosine": pd.Series(dtype="float64")})
        return pd.DataFrame({"a": np.concatenate(a_o),
                             "b": np.concatenate(b_o),
                             "cosine": np.concatenate(c_o)})

    assigned = ds.select_columns([id_col, vec_col]).map_batches(
        assign, batch_format="pyarrow")
    cand = bucketed_group_reduce(assigned, ["cl"], pairs, num_buckets,
                                 schema=pair_schema)
    return distinct_on(cand, ["a", "b"])


def semdedup(ds: "ray.data.Dataset", threshold: float = 0.95,
             n_clusters: int = 64, vec_col: str = "embedding",
             id_col: str = "vec_id") -> "ray.data.Dataset":
    """Semantic dedup: drop every vector that has a semantic near-dup
    with a smaller id (SemDeDup's keep-one-per-group rule via connected
    components over the candidate pairs). Only the matched-duplicate id
    set — bounded by the duplicate count, not the corpus — is broadcast
    for the survivor filter."""
    import ray

    from ..state.unionfind import connected_components

    cand = semdedup_pairs(ds, threshold, n_clusters, vec_col, id_col)

    def to_match(t: pa.Table) -> pa.Table:
        return pa.table({"src": pc.cast(t["a"], pa.string()),
                         "dst": pc.cast(t["b"], pa.string())})

    labels = connected_components(cand.map_batches(to_match,
                                                   batch_format="pyarrow"))
    # numeric min per component (the string component label is the
    # LEXICOGRAPHIC min — "102" < "2" — so recompute the survivor
    # numerically). Size is bounded by duplicate-incident ids, not the
    # corpus.
    comp_min: dict = {}
    members: list = []
    for b in labels.iter_batches(batch_size=None, batch_format="pyarrow"):
        for node, lab in zip(b["node"].to_pylist(), b["label"].to_pylist()):
            v = int(node)
            members.append((v, lab))
            if lab not in comp_min or v < comp_min[lab]:
                comp_min[lab] = v
    dup_ids = {v for v, lab in members if v != comp_min[lab]}
    ref = ray.put(dup_ids)

    def survivors(batch: pa.Table) -> pa.Table:
        dead = ray.get(ref)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        mask = np.fromiter((i not in dead for i in ids), dtype=bool,
                           count=len(ids))
        return batch.filter(pa.array(mask))

    return ds.map_batches(survivors, batch_format="pyarrow")


def embedding_pca(ds: "ray.data.Dataset", vec_col: str = "embedding",
                  k: int = 8, id_col: str = "vec_id"):
    """PCA projection of an embedding column to ``k`` components.

    Distributed moment pass: each batch emits ONE (n, Σv, Σ vᵀv) partial
    — d + d² doubles regardless of batch size — reduced with a tiny
    groupby-sum; the driver eigendecomposes the d×d covariance (d is
    embedding width, never row count) and broadcasts the top-k basis;
    the projection is a pure map. Returns ``(components, explained,
    projected)``: the (k, d) basis, the k explained-variance ratios, and
    the dataset with a ``pca: list<double>`` column.

    Sign convention pinned for determinism: each component is flipped so
    its largest-|coeff| entry is positive (ties → lowest index).
    """
    import ray
    from ray.data.aggregate import Sum

    def moments(batch: pa.Table) -> pa.Table:
        v = _batch_vecs(batch, vec_col)
        n, d = v.shape if v.size else (0, 0)
        if n == 0:
            return pa.table({"g": pa.array([], pa.int8()),
                             "n": pa.array([], pa.int64()),
                             "s": pa.array([], pa.list_(pa.float64())),
                             "ss": pa.array([], pa.list_(pa.float64()))})
        return pa.table({
            "g": pa.array([0], pa.int8()),
            "n": pa.array([n], pa.int64()),
            "s": pa.array([v.sum(axis=0).tolist()],
                          pa.list_(pa.float64())),
            "ss": pa.array([(v.T @ v).reshape(-1).tolist()],
                           pa.list_(pa.float64()))})

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({"n": [], "s": [], "ss": []})
        return pd.DataFrame({
            "n": [int(df["n"].sum())],
            "s": [np.sum(np.stack(df["s"].to_numpy()), axis=0).tolist()],
            "ss": [np.sum(np.stack(df["ss"].to_numpy()), axis=0).tolist()]})

    agg = bucketed_group_reduce(
        ds.map_batches(moments, batch_format="pyarrow"), ["g"], merge,
        num_buckets=1).take_all()
    row = agg[0]
    n = row["n"]
    s = np.asarray(row["s"], dtype=np.float64)
    d = len(s)
    ss = np.asarray(row["ss"], dtype=np.float64).reshape(d, d)
    mean = s / n
    cov = ss / n - np.outer(mean, mean)
    w, vecs = np.linalg.eigh(cov)                  # ascending
    order = np.argsort(w)[::-1][:k]
    comps = vecs[:, order].T                       # (k, d)
    flip = np.sign(comps[np.arange(len(comps)),
                         np.abs(comps).argmax(axis=1)])
    flip[flip == 0] = 1.0
    comps = comps * flip[:, None]
    explained = (w[order] / max(w.sum(), 1e-300)).tolist()
    ref = ray.put((mean, comps))

    def project(t: pa.Table) -> pa.Table:
        m, c = ray.get(ref)
        v = _batch_vecs(t, vec_col)
        p = (v - m) @ c.T if v.size else np.zeros((0, len(c)))
        return pa.table({
            id_col: t[id_col],
            "pca": pa.array([r.tolist() for r in p],
                            pa.list_(pa.float64()))})

    return comps, explained, ds.map_batches(project,
                                            batch_format="pyarrow")


def neighbor_mean(edges: "ray.data.Dataset", feats: "ray.data.Dataset",
                  src: str = "src", dst: str = "dst",
                  id_col: str = "vec_id", vec_col: str = "embedding",
                  num_buckets: int = 64) -> "ray.data.Dataset":
    """GNN-style one-hop message passing: for every destination node,
    the element-wise MEAN of its in-neighbors' feature vectors (inner
    semantics — edges whose source has no feature row contribute
    nothing, destinations with no featured in-neighbor are absent).

    → ``(node, vec: list<double>, n_in)``.

    Scale shape: feature vectors ride the shuffle once per edge
    (inherent to message passing), but each src-keyed bucket pre-sums
    its messages into at most one ``(dst, Σvec, n)`` partial per
    destination before the dst-keyed reduce — the combiner discipline of
    every wide op in this repo. Accumulation in float64 regardless of
    input precision (matches the SQL oracle's DOUBLE promotion)."""
    import pyarrow.compute as pc

    from ..stages.common import bucketed_group_reduce

    def tag_feat(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t[id_col], pa.int64()),
            "dst": pa.nulls(len(t), pa.int64()),
            "vec": pc.cast(t[vec_col], pa.list_(pa.float64()))})

    def tag_edge(t: pa.Table) -> pa.Table:
        return pa.table({
            "key": pc.cast(t[src], pa.int64()),
            "dst": pc.cast(t[dst], pa.int64()),
            "vec": pa.nulls(len(t), pa.list_(pa.float64()))})

    part_schema = pa.schema([("dst", pa.int64()),
                             ("vsum", pa.list_(pa.float64())),
                             ("n", pa.int64())])

    def fetch_combine(df: pd.DataFrame) -> pd.DataFrame:
        selfs = df.loc[df["dst"].isna(), ["key", "vec"]]
        reqs = df.loc[df["dst"].notna(), ["key", "dst"]]
        m = reqs.merge(selfs, on="key", how="inner")
        if not len(m):
            return pd.DataFrame({"dst": pd.Series(dtype="int64"),
                                 "vsum": pd.Series(dtype="object"),
                                 "n": pd.Series(dtype="int64")})
        vecs = np.stack([np.asarray(v, np.float64) for v in m["vec"]])
        d = m["dst"].to_numpy(np.int64)
        order = np.argsort(d, kind="stable")
        d, vecs = d[order], vecs[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        sums = np.add.reduceat(vecs, starts, axis=0)
        cnts = np.diff(np.append(starts, len(d)))
        return pd.DataFrame({"dst": d[starts],
                             "vsum": list(sums),
                             "n": cnts.astype("int64")})

    msgs = bucketed_group_reduce(
        feats.select_columns([id_col, vec_col]).map_batches(
            tag_feat, batch_format="pyarrow")
        .union(edges.select_columns([src, dst]).map_batches(
            tag_edge, batch_format="pyarrow")),
        ["key"], fetch_combine, num_buckets, schema=part_schema)

    out_schema = pa.schema([("node", pa.int64()),
                            ("vec", pa.list_(pa.float64())),
                            ("n_in", pa.int64())])

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "vec": pd.Series(dtype="object"),
                                 "n_in": pd.Series(dtype="int64")})
        vecs = np.stack([np.asarray(v, np.float64) for v in df["vsum"]])
        d = df["dst"].to_numpy(np.int64)
        n = df["n"].to_numpy(np.int64)
        order = np.argsort(d, kind="stable")
        d, vecs, n = d[order], vecs[order], n[order]
        starts = np.flatnonzero(np.r_[True, d[1:] != d[:-1]])
        sums = np.add.reduceat(vecs, starts, axis=0)
        cnts = np.add.reduceat(n, starts)
        return pd.DataFrame({"node": d[starts],
                             "vec": list(sums / cnts[:, None]),
                             "n_in": cnts.astype("int64")})

    return bucketed_group_reduce(msgs, ["dst"], finish, num_buckets,
                                 schema=out_schema)
