"""Similarity search over an embedding column (list<float>).

Baseline: brute-force cosine top-k — the query matrix is broadcast once
(``ray.put``) and every batch does one numpy matmul + local top-k; the
global top-k per query is a tiny final reduction. This replaces the
reference's per-query Python loop over an in-heap vector dict
(agraph/storage/vector_storage.py:310-332).

Scale path: IVF-style LSH bucketing (ops/dedup.embedding_near_dup_pairs
buckets) or the sharded ANN actor pool (state/ann.py) when the corpus is
queried repeatedly.

Size constant: ``_INDEX_BROADCAST_ROWS`` (2M rows) — :func:`embedding_join`
broadcasts an index side up to it whole, and above it in ceil(rows / cap)
hash shards, one at a time.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

_INDEX_BROADCAST_ROWS = 2_000_000


def _topk(ds: "ray.data.Dataset", local, k: int, id_col: str,
          vec_col: str) -> "ray.data.Dataset":
    """Global top-k per query: ``local(batch)`` scores one batch and returns
    its partial top-k as (query ids, ids, sims) lists; one reduce per block
    then ranks by descending ``sim``, ties broken by ascending id."""
    from ..stages.common import bucketed_group_reduce

    def partial(batch: pa.Table) -> pa.Table:
        q, ids, sims = local(batch)
        return pa.Table.from_arrays(
            [pa.array(q), pa.array(ids), pa.array(sims, pa.float64())],
            names=["query_id", id_col, "sim"])

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["sim", id_col], ascending=[False, True],
                            kind="mergesort")
        df = df.groupby("query_id", sort=False).head(k).copy()
        df["rank"] = df.groupby("query_id", sort=False).cumcount() + 1
        return df
    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow")
    return bucketed_group_reduce(partials, ["query_id"], final)


def topk_cosine(ds: "ray.data.Dataset", queries: np.ndarray,
                query_ids: Optional[list] = None, k: int = 10,
                vec_col: str = "embedding",
                id_col: str = "vec_id") -> "ray.data.Dataset":
    """→ rows (query_id, vec_id, sim, rank), rank 1..k per query.

    Deterministic tie-break: (-sim, vec_id). Cosine is computed in float64
    at full precision; callers that need oracle-hashable output scale to
    integers afterwards.
    """
    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    q_ref = ray.put(q / qn)
    qids = query_ids if query_ids is not None else list(range(len(q)))

    def local_topk(batch: pa.Table) -> tuple:
        qm = ray.get(q_ref)                                    # (Q, d)
        vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        ids = np.asarray(batch[id_col].to_pylist())
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        sims = qm @ (vecs / norms).T                           # (Q, n)
        kk = min(k, sims.shape[1])
        out_q, out_id, out_sim = [], [], []
        for qi in range(sims.shape[0]):
            row = sims[qi]
            part = np.argpartition(-row, kk - 1)[:kk]
            order = part[np.lexsort((ids[part], -row[part]))]
            out_q.extend([qids[qi]] * kk)
            out_id.extend(ids[order].tolist())
            out_sim.extend(row[order].tolist())
        return out_q, out_id, out_sim

    return _topk(ds, local_topk, k, id_col, vec_col)


def _kmeans_centroids(x: np.ndarray, nlist: int, iters: int = 5) -> np.ndarray:
    """Deterministic Lloyd's k-means on L2-normalized vectors: init = first
    ``nlist`` sample rows (sample is id-sorted → reproducible), fixed
    iteration count, empty clusters re-seeded from the sample in order."""
    n = x.shape[0]
    nlist = min(nlist, n)
    c = x[:nlist].copy()
    for _ in range(iters):
        assign = np.argmax(x @ c.T, axis=1)
        for j in range(nlist):
            members = x[assign == j]
            if len(members):
                m = members.mean(axis=0)
                norm = np.linalg.norm(m)
                c[j] = m / norm if norm else x[j % n]
            else:
                c[j] = x[j % n]
    return c


def topk_cosine_ivf(ds: "ray.data.Dataset", queries: np.ndarray,
                    query_ids: Optional[list] = None, k: int = 10,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    nlist: int = 16, nprobe: int = 4,
                    sample_size: int = 2048):
    """IVF-style approximate top-k: a coarse quantizer (deterministic
    k-means over an id-sorted sample) assigns every vector to one of
    ``nlist`` lists; each query scores only vectors in its ``nprobe``
    nearest lists — cost ~ nprobe/nlist of brute force with tunable recall
    (``nprobe == nlist`` is exhaustive and matches :func:`topk_cosine`
    exactly). Same output schema as :func:`topk_cosine`.

    This is the scan-once formulation (assignment fused into the scoring
    pass). The repeated-query deployment writes the corpus Parquet
    partitioned by list id so probes prune whole files at the read, and
    serves queries from the sharded ANN actor pool (state/ann.py)."""
    samp = (ds.select_columns([id_col, vec_col]).sort(id_col)
            .limit(sample_size).take_all())
    x = np.asarray([r[vec_col] for r in samp], dtype=np.float64)
    xn = np.linalg.norm(x, axis=1, keepdims=True)
    xn[xn == 0] = 1.0
    cents = _kmeans_centroids(x / xn, nlist)

    q = np.asarray(queries, dtype=np.float64)
    qn = np.linalg.norm(q, axis=1, keepdims=True)
    qn[qn == 0] = 1.0
    qm = q / qn
    nprobe = min(nprobe, len(cents))
    probes = np.argsort(-(qm @ cents.T), axis=1)[:, :nprobe]   # (Q, nprobe)
    qids = query_ids if query_ids is not None else list(range(len(q)))
    ref = ray.put((qm, probes, qids, cents))

    def local(batch: pa.Table) -> tuple:
        qmat, prb, ids_, c = ray.get(ref)
        vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        ids = np.asarray(batch[id_col].to_pylist())
        norms = np.linalg.norm(vecs, axis=1, keepdims=True)
        norms[norms == 0] = 1.0
        unit = vecs / norms
        assign = np.argmax(unit @ c.T, axis=1)                 # (n,)
        out_q, out_id, out_sim = [], [], []
        for qi in range(qmat.shape[0]):
            mask = np.isin(assign, prb[qi])
            if not mask.any():
                continue
            sims = unit[mask] @ qmat[qi]
            sub_ids = ids[mask]
            kk = min(k, len(sims))
            part = np.argpartition(-sims, kk - 1)[:kk]
            order = part[np.lexsort((sub_ids[part], -sims[part]))]
            out_q.extend([ids_[qi]] * kk)
            out_id.extend(sub_ids[order].tolist())
            out_sim.extend(sims[order].tolist())
        return out_q, out_id, out_sim

    return _topk(ds, local, k, id_col, vec_col)


def topk_cosine_lsh(ds: "ray.data.Dataset", queries: np.ndarray,
                    query_ids: Optional[list] = None, k: int = 10,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    num_planes: int = 8):
    """Approximate variant: only score vectors whose hyperplane sign-bucket
    matches the query's (single table). Recall < 1; cost ~ 1/2^planes of
    brute force. Same output schema as :func:`topk_cosine`."""
    import hashlib
    rng = np.random.default_rng(
        int.from_bytes(hashlib.md5(b"agraph-ray-hyperplanes").digest()[:4],
                       "little"))
    q = np.asarray(queries, dtype=np.float64)
    dim = q.shape[1]
    planes = rng.standard_normal((num_planes, dim))
    qkeys = ((q @ planes.T > 0).astype(np.uint32)
             << np.arange(num_planes, dtype=np.uint32)).sum(axis=1)
    qids = query_ids if query_ids is not None else list(range(len(q)))
    by_bucket = {}
    for qi, bk in enumerate(qkeys.tolist()):
        by_bucket.setdefault(bk, []).append(qi)
    q_ref = ray.put((q, by_bucket, qids))

    def local(batch: pa.Table) -> tuple:
        qm, buckets, ids_ = ray.get(q_ref)
        vecs = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        ids = np.asarray(batch[id_col].to_pylist())
        keys = ((vecs @ planes[:, :vecs.shape[1]].T > 0).astype(np.uint32)
                << np.arange(num_planes, dtype=np.uint32)).sum(axis=1)
        out_q, out_id, out_sim = [], [], []
        norms = np.linalg.norm(vecs, axis=1)
        norms[norms == 0] = 1.0
        for bk, qlist in buckets.items():
            mask = keys == bk
            if not mask.any():
                continue
            sub, sub_ids = vecs[mask], ids[mask]
            sub = sub / norms[mask][:, None]
            for qi in qlist:
                qv = qm[qi] / max(np.linalg.norm(qm[qi]), 1e-12)
                sims = sub @ qv
                kk = min(k, len(sims))
                part = np.argpartition(-sims, kk - 1)[:kk] if kk else []
                out_q.extend([ids_[qi]] * kk)
                out_id.extend(sub_ids[part].tolist())
                out_sim.extend(np.round(sims[part], 6).tolist())
        return out_q, out_id, out_sim

    return _topk(ds, local, k, id_col, vec_col)


def recall_at_k(approx: "ray.data.Dataset", exact: "ray.data.Dataset",
                query_col: str = "query_id", id_col: str = "vec_id",
                k: int = 10, num_buckets: int = 16) -> "ray.data.Dataset":
    """Retrieval-quality eval: per-query recall@k of an approximate
    result set (LSH/IVF) against the exact top-k →
    ``(query_id, n_exact, n_hit, recall_scaled)`` with
    ``recall_scaled = floor(hit/exact·10⁶ + 0.5)``.

    Both inputs are (query_id, vec_id, ...) rankings; rows beyond rank k
    are ignored if a ``rank`` column is present. One tagged union + one
    bucketed shuffle on the query id — eval cost scales with result-set
    size, never corpus size."""
    import pandas as pd

    from ..stages.common import bucketed_group_reduce

    def prep(side: str):
        def f(t: pa.Table) -> pa.Table:
            if "rank" in t.schema.names:
                t = t.filter(pc.less_equal(t["rank"], k))
            return pa.table({
                query_col: t[query_col],
                id_col: pc.cast(t[id_col], pa.int64()),
                "side": pa.array([side] * len(t))})
        return f

    both = (approx.map_batches(prep("a"), batch_format="pyarrow")
            .union(exact.map_batches(prep("e"), batch_format="pyarrow")))

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for qid, g in df.groupby(query_col, sort=False):
            ex = set(g.loc[g["side"] == "e", id_col])
            ap = set(g.loc[g["side"] == "a", id_col])
            hit = len(ex & ap)
            rec = hit / len(ex) if ex else 0.0
            rows.append((qid, len(ex), hit,
                         int(np.floor(rec * 1_000_000 + 0.5))))
        return pd.DataFrame(rows, columns=[query_col, "n_exact", "n_hit",
                                           "recall_scaled"])

    from ..stages.common import arrow_col_type
    qt = arrow_col_type(approx, query_col)
    return bucketed_group_reduce(
        both, [query_col], reduce_df, num_buckets,
        schema=pa.schema([(query_col, qt), ("n_exact", pa.int64()),
                          ("n_hit", pa.int64()),
                          ("recall_scaled", pa.int64())]))


def embedding_join(a: "ray.data.Dataset", b: "ray.data.Dataset",
                   k: int = 3, vec_col: str = "embedding",
                   id_col: str = "vec_id") -> "ray.data.Dataset":
    """Exact nearest-neighbor join: for every vector in ``a``, the top-k
    most-cosine-similar vectors in ``b`` → ``(a_id, b_id, sim, rank)``.
    Deterministic ties: (-sim, b_id).

    Scale shape: ``b`` (the index side) is collected into two numpy
    arrays and broadcast ONCE via ``ray.put`` (size-guarded at
    ``_INDEX_BROADCAST_ROWS`` rows — ~½ GB of float32x64 at the cap); ``a``
    streams through ``map_batches``, one matmul per batch, and the
    result is final per row — ZERO shuffles. An index side beyond the
    cap takes the sharded path: ``b`` splits into ceil(n/cap) hash
    shards, each broadcast in turn while ``a`` streams a per-shard local
    top-k, and one (a_id)-keyed bucketed reduce folds the shard
    candidates into the exact global top-k — ``a`` makes S passes but
    never more than ``cap`` index rows are resident anywhere. (The
    sharded ANN actor pool in state/ann.py serves the repeated-query
    deployment.)"""
    # materialize the index side before the size probe: a lazy count()
    # would execute b's upstream once for the probe and again for the
    # collect below (or S more times on the sharded path)
    b = b.select_columns([id_col, vec_col]).materialize()
    n_b = b.count()
    if n_b > _INDEX_BROADCAST_ROWS:
        return _embedding_join_sharded(
            a, b, k, vec_col, id_col,
            n_shards=int(np.ceil(n_b / _INDEX_BROADCAST_ROWS)))
    return _embedding_join_broadcast(a, b, k, vec_col, id_col)


def _embedding_join_broadcast(a: "ray.data.Dataset", b: "ray.data.Dataset",
                              k: int, vec_col: str,
                              id_col: str) -> "ray.data.Dataset":
    """The zero-shuffle join: ``b`` collected and broadcast whole, ``a``
    streamed through one matmul and local top-k per batch."""
    ids_b, vecs_b = [], []
    for bt in b.iter_batches(
            batch_size=None, batch_format="pyarrow"):
        ids_b.append(np.asarray(bt[id_col].to_pylist()))
        vecs_b.append(np.asarray(bt[vec_col].to_pylist(), dtype=np.float64))
    ids_b = np.concatenate(ids_b) if ids_b else np.empty(0, np.int64)
    vecs_b = (np.concatenate(vecs_b) if vecs_b
              else np.empty((0, 1), np.float64))
    order = np.argsort(ids_b)
    ids_b, vecs_b = ids_b[order], vecs_b[order]
    norms = np.linalg.norm(vecs_b, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    ref = ray.put((ids_b, vecs_b / norms))

    def local(batch: pa.Table) -> pa.Table:
        bid, bunit = ray.get(ref)
        va = np.asarray(batch[vec_col].to_pylist(), dtype=np.float64)
        ia = np.asarray(batch[id_col].to_pylist())
        na = np.linalg.norm(va, axis=1, keepdims=True)
        na[na == 0] = 1.0
        sims = (va / na) @ bunit.T                     # (nA, nB)
        kk = min(k, sims.shape[1])
        o_a, o_b, o_s, o_r = [], [], [], []
        for i in range(sims.shape[0]):
            row = sims[i]
            part = np.argpartition(-row, kk - 1)[:kk]
            order_ = part[np.lexsort((bid[part], -row[part]))]
            o_a.extend([ia[i]] * kk)
            o_b.extend(bid[order_].tolist())
            o_s.extend(row[order_].tolist())
            o_r.extend(range(1, kk + 1))
        return pa.Table.from_arrays(
            [pa.array(o_a), pa.array(o_b),
             pa.array(o_s, pa.float64()),
             pa.array(o_r, pa.int64())],
            names=["a_id", "b_id", "sim", "rank"])

    return a.select_columns([id_col, vec_col]).map_batches(
        local, batch_format="pyarrow")


def _embedding_join_sharded(a: "ray.data.Dataset", b: "ray.data.Dataset",
                            k: int, vec_col: str, id_col: str,
                            n_shards: int,
                            num_buckets: int = 64) -> "ray.data.Dataset":
    """Sharded exact NN join: per-shard broadcast + streamed local top-k,
    then one a_id-keyed reduce folds shard candidates to the global
    top-k. Result is identical to the broadcast path (same per-pair
    arithmetic, same (-sim, b_id) tie rule)."""
    from ..stages.common import bucketed_group_reduce
    from .stats import _key_hash32

    def shard_filter(s: int):
        def f(t: pa.Table) -> pa.Table:
            h = _key_hash32(t[id_col].to_pylist()) \
                % np.uint64(n_shards)
            return t.filter(pa.array(h == s))
        return f

    parts = None
    for s in range(n_shards):
        shard = b.select_columns([id_col, vec_col]).map_batches(
            shard_filter(s), batch_format="pyarrow")
        cand = _embedding_join_broadcast(a, shard, k, vec_col, id_col)
        parts = cand if parts is None else parts.union(cand)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["a_id", "sim", "b_id"],
                            ascending=[True, False, True],
                            kind="mergesort")
        df = df.groupby("a_id", sort=False).head(k).copy()
        df["rank"] = df.groupby("a_id", sort=False).cumcount() + 1
        return df

    return bucketed_group_reduce(
        parts, ["a_id"], fold, num_buckets,
        schema=pa.schema([("a_id", pa.int64()), ("b_id", pa.int64()),
                          ("sim", pa.float64()), ("rank", pa.int64())]))


def rrf_fuse(rankings: "list", k_rrf: int = 60, topk: int = 10,
             query_col: str = "query_id", id_col: str = "doc_id",
             num_buckets: int = 16) -> "ray.data.Dataset":
    """Reciprocal-rank fusion (Cormack 2009) of N ranking tables
    ``(query_id, doc_id, rank)`` → the hybrid-retrieval merge (e.g.
    BM25 ⊕ dense ANN): fused(q, d) = Σ_lists 1/(k_rrf + rank). One
    tagged union + one query-keyed bucketed reduce (sum per (q, d),
    sort, head topk); scores scaled to integers (×10⁹) before ranking so
    float noise can never reorder the cut. Ties → smaller id."""
    from ..stages.common import bucketed_group_reduce

    def prep(ds):
        def f(t: pa.Table) -> pa.Table:
            r = t["rank"].to_numpy(zero_copy_only=False).astype(np.float64)
            s = np.floor(1e9 / (k_rrf + r) + 0.5).astype(np.int64)
            return pa.table({query_col: t[query_col], id_col: t[id_col],
                             "s": pa.array(s, pa.int64())})
        return ds.map_batches(f, batch_format="pyarrow")

    u = prep(rankings[0])
    for r in rankings[1:]:
        u = u.union(prep(r))

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby([query_col, id_col], as_index=False,
                       sort=False)["s"].sum()
        g = g.sort_values([query_col, "s", id_col],
                          ascending=[True, False, True], kind="mergesort")
        g = g.groupby(query_col, sort=False).head(topk).copy()
        g["rank"] = g.groupby(query_col, sort=False).cumcount() + 1
        return g.rename(columns={"s": "rrf_nano"})

    return bucketed_group_reduce(u, [query_col], fold, num_buckets)


def ndcg_at_k(approx: "ray.data.Dataset", exact: "ray.data.Dataset",
              query_col: str = "query_id", id_col: str = "vec_id",
              k: int = 10, num_buckets: int = 16) -> "ray.data.Dataset":
    """Per-query nDCG@k of an approximate ranking against the exact
    top-k (binary relevance: a doc is relevant iff it appears in the
    exact top-k) → ``(query_id, dcg_scaled, ndcg_scaled)``. Unlike
    recall@k, position matters: a relevant doc at approx rank 1 is worth
    1/log2(2), at rank k only 1/log2(k+1). Same tagged-union +
    query-keyed reduce shape as :func:`recall_at_k`; both ranking tables
    must carry a ``rank`` column."""
    import pandas as pd

    from ..stages.common import arrow_col_type, bucketed_group_reduce

    def prep(side: str):
        def f(t: pa.Table) -> pa.Table:
            t = t.filter(pc.less_equal(t["rank"], k))
            return pa.table({
                query_col: t[query_col],
                id_col: pc.cast(t[id_col], pa.int64()),
                "rank": pc.cast(t["rank"], pa.int64()),
                "side": pa.array([side] * len(t))})
        return f

    both = (approx.map_batches(prep("a"), batch_format="pyarrow")
            .union(exact.map_batches(prep("e"), batch_format="pyarrow")))

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for qid, g in df.groupby(query_col, sort=False):
            ex = g[g["side"] == "e"]
            ap = g[g["side"] == "a"]
            rel = set(ex[id_col])
            hit = ap[ap[id_col].isin(rel)]
            dcg = float(np.sum(1.0 / np.log2(
                hit["rank"].to_numpy(dtype=np.float64) + 1.0)))
            n_ideal = min(len(rel), k)
            idcg = float(np.sum(1.0 / np.log2(
                np.arange(1, n_ideal + 1, dtype=np.float64) + 1.0)))
            ndcg = dcg / idcg if idcg else 0.0
            rows.append((qid, int(np.floor(dcg * 1e6 + 0.5)),
                         int(np.floor(ndcg * 1e6 + 0.5))))
        return pd.DataFrame(rows, columns=[query_col, "dcg_scaled",
                                           "ndcg_scaled"])

    qt = arrow_col_type(approx, query_col)
    return bucketed_group_reduce(
        both, [query_col], reduce_df, num_buckets,
        schema=pa.schema([(query_col, qt), ("dcg_scaled", pa.int64()),
                          ("ndcg_scaled", pa.int64())]))
