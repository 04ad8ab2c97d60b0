"""Vector search over an embedding column: the one set of cosine kernels.

Every cosine top-k in the engine runs on the kernels here:
:func:`_batch_vecs` reads a batch's vector column as a float64 matrix,
:func:`_unit` unit-normalizes rows, :func:`_topk` is the selection,
:func:`_rank_topk` the per-query final reduce of partial top-k lists, and
:func:`_kmeans_centroids` the Lloyd loop that trains the IVF quantizers,
semdedup's clusters and the PQ codebooks (cosine or L2 assignment,
:func:`_l2_assign`).

One tie rule: a top-k ranks by (-sim, id), ids compared in their own
order, with every candidate tied at the k-th place considered before the
cut. Partition-local top-k lists therefore merge into the global top-k
whatever the partition layout (Distributed Similarity Joins over Top-K
Rankings, EDBT 2020).

Two placements share the kernels and serve different traffic:

- a scan (:func:`topk_cosine`, :func:`topk_cosine_ivf`,
  :func:`topk_cosine_lsh`, :func:`embedding_join`) streams the corpus
  once past broadcast queries and holds no copy of it: one matmul and
  one local top-k per batch, then one query-keyed reduce. Use it for a
  one-off batch of queries. (This replaces the reference's per-query
  Python loop over an in-heap vector dict,
  agraph/storage/vector_storage.py:310-332.)
- the resident shard pool (state/ann.py) keeps the index in actors and
  merges per-shard top-k on the caller. Use it when the same corpus is
  queried repeatedly (llm_e2e ``ann_link``, retrieval).

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


def _batch_vecs(batch: pa.Table, vec_col: str) -> np.ndarray:
    """(n, dim) float64 from a list<float> / fixed-size-list / Ray tensor
    extension column."""
    col = batch[vec_col].combine_chunks()
    n = len(batch)
    if pa.types.is_list(col.type) or pa.types.is_large_list(col.type) \
            or pa.types.is_fixed_size_list(col.type):
        flat = col.flatten().to_numpy(zero_copy_only=False)
        return (flat.astype(np.float64).reshape(n, -1)
                if n else flat.reshape(0, 0))
    # Ray ArrowTensorArray (rd.from_pandas of an ndarray column)
    arr = np.asarray(col.to_numpy(zero_copy_only=False))
    if arr.dtype == object:
        arr = np.stack(arr) if n else np.zeros((0, 0))
    return arr.astype(np.float64)


def _unit(x: np.ndarray) -> np.ndarray:
    """Rows of ``x`` scaled to unit L2 norm, in x's dtype; a zero row
    stays zero."""
    norms = np.linalg.norm(x, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return x / norms


def _topk(rows, k: int) -> tuple:
    """The top-k selection. ``rows`` holds one (sims, ids) pair of 1-d
    candidate arrays per query → ``(ids, sims)``, each (len(rows), k),
    every row ranked by (-sim, id). Every candidate tied with the k-th
    sim is kept before the cut, so the k chosen do not depend on the
    order the candidates come in. A row with fewer than k candidates pads
    with id '' and sim -inf."""
    rows = list(rows)
    out_ids = np.full((len(rows), k), "", dtype=object)
    out_sims = np.full((len(rows), k), -np.inf,
                       dtype=rows[0][0].dtype if rows else np.float64)
    for r, (sims, ids) in enumerate(rows):
        n = len(sims)
        if n > k:
            cand = np.flatnonzero(sims >= np.partition(sims, n - k)[n - k])
            sims, ids = sims[cand], ids[cand]
        top = np.lexsort((ids, -sims))[:k]
        out_ids[r, :len(top)] = ids[top]
        out_sims[r, :len(top)] = sims[top]
    return out_ids, out_sims


def _probe(qm: np.ndarray, cents: np.ndarray, nprobe: int) -> np.ndarray:
    """(Q, nprobe) indices of each unit query's nearest coarse lists,
    ranked by (-sim, list index)."""
    lists = np.arange(len(cents))
    top, _ = _topk([(s, lists) for s in qm @ cents.T],
                   min(nprobe, len(cents)))
    return top.astype(np.int64)


def _rank_topk(df: pd.DataFrame, key: str, id_col: str, k: int,
               score: str = "sim") -> pd.DataFrame:
    """The per-query final reduce: partial top-k rows (``key``,
    ``id_col``, ``score``) → each ``key``'s top k by (-score, id), with
    its 1-based ``rank``. The vector top-k, :func:`rrf_fuse` and BM25
    (ops/text.py) all cut through it."""
    df = df.sort_values([key, score, id_col], ascending=[True, False, True],
                        kind="mergesort")
    df = df.groupby(key, sort=False).head(k).copy()
    df["rank"] = df.groupby(key, sort=False).cumcount() + 1
    return df


def _l2_assign(x: np.ndarray, c: np.ndarray, block: int = 262144) -> tuple:
    """Nearest centroid by squared L2 → (labels, squared distances).
    Blockwise: the dense (n, k) distance matrix of a million-row shard
    would be GBs, so it is formed ~256k rows at a time."""
    labels = np.empty(len(x), dtype=np.int64)
    d2min = np.empty(len(x))
    c2 = (c ** 2).sum(1)[None]
    for s in range(0, len(x), block):
        xx = x[s:s + block]
        d2 = (xx ** 2).sum(1)[:, None] - 2.0 * (xx @ c.T) + c2
        labels[s:s + block] = np.argmin(d2, axis=1)
        d2min[s:s + block] = d2[np.arange(len(xx)), labels[s:s + block]]
    return labels, d2min


def _kmeans_centroids(x: np.ndarray, k: int, iters: int = 5,
                      metric: str = "cosine") -> np.ndarray:
    """Deterministic Lloyd's k-means on the driver or in one actor: init =
    the first ``k`` rows (callers pass an id-ordered sample, so it is
    reproducible), a fixed iteration count, an empty cluster re-seeded
    from row ``j % n``. ``metric="cosine"`` (unit rows, argmax dot,
    centroids renormalized) trains the IVF quantizers and semdedup's
    clusters; ``"l2"`` (argmin squared distance, plain means) the PQ
    codebooks."""
    n = x.shape[0]
    k = min(k, n)
    c = x[:k].copy()
    for _ in range(iters):
        assign = (np.argmax(x @ c.T, axis=1) if metric == "cosine"
                  else _l2_assign(x, c)[0])
        for j in range(k):
            members = x[assign == j]
            if not len(members):
                c[j] = x[j % n]
                continue
            m = members.mean(axis=0)
            if metric == "cosine":
                norm = np.linalg.norm(m)
                m = m / norm if norm else x[j % n]
            c[j] = m
    return c


def _sample_centroids(ds: "ray.data.Dataset", id_col: str, vec_col: str,
                      sample_size: int, k: int) -> Optional[np.ndarray]:
    """Cosine k-means centroids over the ``sample_size`` smallest-id rows
    of ``ds``; None when ``ds`` is empty."""
    rows = (ds.select_columns([id_col, vec_col]).sort(id_col)
            .limit(sample_size).take_all())
    if not rows:
        return None
    x = np.asarray([r[vec_col] for r in rows], dtype=np.float64)
    return _kmeans_centroids(_unit(x), k)


def _scan_topk(ds: "ray.data.Dataset", score, k: int, id_col: str,
               vec_col: str) -> "ray.data.Dataset":
    """The scan placement: one pass over ``ds``. Per batch,
    ``score(vecs, ids)`` returns the (query id, sims, ids) candidates of
    each query it scores; :func:`_topk` cuts each to k, and one
    query-keyed reduce (:func:`_rank_topk`) ranks the block-local lists
    into the global top k → rows (query_id, id, sim, rank)."""
    from ..stages.common import bucketed_group_reduce

    def partial(batch: pa.Table) -> pa.Table:
        cands = score(_batch_vecs(batch, vec_col),
                      np.asarray(batch[id_col].to_pylist()))
        ids, sims = _topk([c[1:] for c in cands], k)
        keep = sims > -np.inf
        qids = np.repeat(np.asarray([c[0] for c in cands], dtype=object), k)
        return pa.Table.from_arrays(
            [pa.array(qids[keep.ravel()]), pa.array(ids[keep]),
             pa.array(sims[keep], pa.float64())],
            names=["query_id", id_col, "sim"])

    partials = ds.select_columns([id_col, vec_col]).map_batches(
        partial, batch_format="pyarrow")
    return bucketed_group_reduce(
        partials, ["query_id"],
        lambda df: _rank_topk(df, "query_id", id_col, k))


def topk_cosine(ds: "ray.data.Dataset", queries: np.ndarray,
                query_ids: Optional[list] = None, k: int = 10,
                vec_col: str = "embedding",
                id_col: str = "vec_id") -> "ray.data.Dataset":
    """→ rows (query_id, vec_id, sim, rank), rank 1..k per query.

    Ties: (-sim, vec_id). Cosine is computed in float64 at full
    precision; callers that need oracle-hashable output scale to integers
    afterwards.
    """
    qm = _unit(np.asarray(queries, dtype=np.float64))
    q_ref = ray.put(qm)
    qids = query_ids if query_ids is not None else list(range(len(qm)))

    def score(vecs: np.ndarray, ids: np.ndarray) -> list:
        sims = ray.get(q_ref) @ _unit(vecs).T                 # (Q, n)
        return [(qid, row, ids) for qid, row in zip(qids, sims)]

    return _scan_topk(ds, score, k, id_col, vec_col)


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
    cents = _sample_centroids(ds, id_col, vec_col, sample_size, nlist)
    qm = _unit(np.asarray(queries, dtype=np.float64))
    qids = query_ids if query_ids is not None else list(range(len(qm)))
    ref = ray.put((qm, _probe(qm, cents, nprobe), cents))

    def score(vecs: np.ndarray, ids: np.ndarray) -> list:
        qmat, probes, c = ray.get(ref)
        unit = _unit(vecs)
        assign = np.argmax(unit @ c.T, axis=1)                 # (n,)
        out = []
        for qi, qid in enumerate(qids):
            mask = np.isin(assign, probes[qi])
            out.append((qid, unit[mask] @ qmat[qi], ids[mask]))
        return out

    return _scan_topk(ds, score, k, id_col, vec_col)


def topk_cosine_lsh(ds: "ray.data.Dataset", queries: np.ndarray,
                    query_ids: Optional[list] = None, k: int = 10,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    num_planes: int = 8):
    """Approximate variant: only score vectors whose hyperplane sign-bucket
    matches the query's (single table). Recall < 1; cost ~ 1/2^planes of
    brute force. Same output schema as :func:`topk_cosine`, with sims
    rounded to 6 places and ranked by (-rounded sim, vec_id)."""
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
    q_ref = ray.put((_unit(q), by_bucket))

    def score(vecs: np.ndarray, ids: np.ndarray) -> list:
        qu, buckets = ray.get(q_ref)
        keys = ((vecs @ planes[:, :vecs.shape[1]].T > 0).astype(np.uint32)
                << np.arange(num_planes, dtype=np.uint32)).sum(axis=1)
        unit = _unit(vecs)
        out = []
        for bk, qlist in buckets.items():
            mask = keys == bk
            sub, sub_ids = unit[mask], ids[mask]
            out.extend((qids[qi], np.round(sub @ qu[qi], 6), sub_ids)
                       for qi in qlist)
        return out

    return _scan_topk(ds, score, k, id_col, vec_col)


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
        vecs_b.append(_batch_vecs(bt, vec_col))
    ids_b = np.concatenate(ids_b) if ids_b else np.empty(0, np.int64)
    vecs_b = (np.concatenate(vecs_b) if vecs_b
              else np.empty((0, 1), np.float64))
    ref = ray.put((ids_b, _unit(vecs_b)))

    def local(batch: pa.Table) -> pa.Table:
        bid, bunit = ray.get(ref)
        sims = _unit(_batch_vecs(batch, vec_col)) @ bunit.T   # (nA, nB)
        ids, top = _topk([(row, bid) for row in sims], k)
        keep = top > -np.inf
        a_ids = np.repeat(np.asarray(batch[id_col].to_pylist(), object), k)
        ranks = np.tile(np.arange(1, k + 1), len(sims))
        return pa.Table.from_arrays(
            [pa.array(a_ids[keep.ravel()]), pa.array(ids[keep]),
             pa.array(top[keep], pa.float64()),
             pa.array(ranks[keep.ravel()], pa.int64())],
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

    return bucketed_group_reduce(
        parts, ["a_id"], lambda df: _rank_topk(df, "a_id", "b_id", k),
        num_buckets,
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
        return _rank_topk(g, query_col, id_col, topk, "s").rename(
            columns={"s": "rrf_nano"})

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
