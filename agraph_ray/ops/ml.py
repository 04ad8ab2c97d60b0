"""Distributed classical-ML operators for training-data curation.

The reference has no ML training surface (its "models" are remote LLM
calls, agraph/builders/llm_builders.py); a 100-TB training-data pipeline
needs cheap, deterministic, fully-distributed classifiers for quality
scoring and corpus analysis (fastText-style filters per Joulin 2016; CCNet
per Wenzek 2019). Everything here is expressed as per-batch combiner
partials + one small keyed reduce — model state is O(vocab) or O(k x d),
never O(rows), and no document text ever lands on the driver.

Determinism: token rule is the engine-wide space-split (same as
ops/text.py::corpus_word_counts and its DuckDB oracle); all tie-breaks
are pinned (min label / min cluster index).

Size constant: ``_MODEL_BROADCAST_ROWS`` (2M rows) — up to it
:func:`score_nb` broadcasts the model's word table; above it document
terms shuffle by word to meet it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.common import bucketed_group_reduce, distinct_on
from .similarity import _batch_vecs, _l2_assign, _unit

_MODEL_BROADCAST_ROWS = 2_000_000

__all__ = ["NBModel", "train_nb", "score_nb", "embedding_kmeans",
           "softmax_probe", "hash_vectorize"]


# ---------------------------------------------------------------------------
# Multinomial Naive Bayes (add-alpha smoothing) over a text + label table
# ---------------------------------------------------------------------------

@dataclass
class NBModel:
    """Trained multinomial NB. ``word_counts`` is a (label, word, cnt)
    Dataset — it stays distributed; only the O(|classes|) stats and the
    scalar vocab size live on the driver."""
    word_counts: "ray.data.Dataset"
    class_docs: Dict[str, int]        # label -> #docs
    class_totals: Dict[str, float]    # label -> total token count
    n_docs: int
    vocab_size: int
    alpha: float


def _token_partials(text_col: str, label_col: Optional[str]):
    """Per-batch (label?, word, cnt) combiner — one np.unique per batch, so
    the shuffle carries batch-vocabulary rows, not token occurrences."""
    def partial(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[text_col].combine_chunks(), " ")
        counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        if label_col is None:
            u, c = np.unique(words, return_counts=True)
            return pa.table({"word": pa.array(u, pa.string()),
                             "cnt": pa.array(c, pa.int64())})
        labels = np.repeat(
            np.asarray(batch[label_col].to_pylist(), dtype=object), counts)
        df = pd.DataFrame({"label": labels, "word": words})
        g = df.groupby(["label", "word"], sort=False).size().reset_index(
            name="cnt")
        return pa.table({"label": pa.array(g["label"], pa.string()),
                         "word": pa.array(g["word"], pa.string()),
                         "cnt": pa.array(g["cnt"], pa.int64())})
    return partial


def train_nb(ds: "ray.data.Dataset", text_col: str = "text",
             label_col: str = "lang", alpha: float = 1.0) -> NBModel:
    """Train multinomial NB distributed. Two passes: one combiner shuffle
    for (label, word) counts (the model — stays a Dataset), one tiny
    aggregate for per-class doc/token totals (|classes| rows to the
    driver). Vocabulary size is a distinct-count over the model table."""
    from ray.data.aggregate import Count, Sum

    wc_schema = pa.schema([("label", pa.string()), ("word", pa.string()),
                           ("cnt", pa.int64())])

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["label", "word"], as_index=False,
                          sort=False)["cnt"].sum()

    wc = bucketed_group_reduce(
        ds.map_batches(_token_partials(text_col, label_col),
                       batch_format="pyarrow"),
        ["label", "word"], reduce_df, schema=wc_schema)
    # one materialization serves the totals below AND later scoring reads
    wc = wc.materialize()

    # per-class totals from the (already tiny-keyed) model table
    def tok_stats(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[text_col].combine_chunks(), " ")
        ntok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        lab = np.asarray(batch[label_col].to_pylist(), dtype=object)
        df = pd.DataFrame({"label": lab, "ntok": ntok.astype(np.int64)})
        g = df.groupby("label", sort=False).agg(
            docs=("ntok", "size"), toks=("ntok", "sum")).reset_index()
        return pa.table({"label": pa.array(g["label"], pa.string()),
                         "docs": pa.array(g["docs"], pa.int64()),
                         "toks": pa.array(g["toks"], pa.int64())})

    stats = (ds.map_batches(tok_stats, batch_format="pyarrow")
             .groupby("label").aggregate(Sum("docs", alias_name="docs"),
                                         Sum("toks", alias_name="toks"))
             .take_all())
    class_docs = {r["label"]: int(r["docs"]) for r in stats}
    class_totals = {r["label"]: float(r["toks"]) for r in stats}
    vocab_size = distinct_on(wc.select_columns(["word"]), ["word"]).count()
    return NBModel(word_counts=wc, class_docs=class_docs,
                   class_totals=class_totals,
                   n_docs=sum(class_docs.values()),
                   vocab_size=int(vocab_size), alpha=float(alpha))


def _nb_bases(model: NBModel):
    """Per-class constants: score(d, c) = base_c(ntok_d) + sum over joined
    (word, c) rows of tf * (ln(cnt+a) - ln(a)). Folding the unseen-word
    term ntok*ln(a) into the base makes the join INNER (missing rows
    contribute exactly 0), so no outer join is needed at scale."""
    classes = sorted(model.class_docs)
    a, v = model.alpha, model.vocab_size
    prior = np.array([math.log(model.class_docs[c] / model.n_docs)
                      for c in classes])
    denom = np.array([math.log(model.class_totals[c] + a * v)
                      for c in classes])
    return classes, prior, denom, math.log(a)


def score_nb(ds: "ray.data.Dataset", model: NBModel,
             id_col: str = "doc_id", text_col: str = "text",
             num_buckets: int = 64) -> "ray.data.Dataset":
    """Score documents → (id, pred_label, score). Two exact-equivalent
    paths: if the model table has at most ``_MODEL_BROADCAST_ROWS`` rows
    it is broadcast once (ray.put) and scoring is entirely map-side;
    otherwise doc term frequencies shuffle by word to meet the model
    shards (inner cogroup join), and per-doc per-class deltas fold in one
    id-keyed reduce. Ties → min label."""
    import ray

    classes, prior, denom, log_a = _nb_bases(model)
    k = len(classes)
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("pred_label", pa.string()),
                            ("score", pa.float64())])

    if model.word_counts.count() <= _MODEL_BROADCAST_ROWS:
        wdf = model.word_counts.to_pandas()
        vocab = pd.Index(np.sort(wdf["word"].unique()))
        mat = np.zeros((len(vocab), k))
        li = {c: i for i, c in enumerate(classes)}
        mat[vocab.get_indexer(wdf["word"]), wdf["label"].map(li)] = \
            np.log(wdf["cnt"].to_numpy() + model.alpha) - log_a
        ref = ray.put((vocab, mat))

        def score(batch: pa.Table) -> pa.Table:
            voc, m = ray.get(ref)
            lists = pc.split_pattern(batch[text_col].combine_chunks(), " ")
            ntok = pc.list_value_length(lists).to_numpy(
                zero_copy_only=False).astype(np.float64)
            words = np.asarray(lists.flatten().to_pylist(), dtype=object)
            idx = voc.get_indexer(words)
            seg = np.repeat(np.arange(len(batch)), ntok.astype(np.int64))
            contrib = np.where(idx[:, None] >= 0, m[np.clip(idx, 0, None)],
                               0.0)
            scores = np.zeros((len(batch), k))
            np.add.at(scores, seg, contrib)
            scores += prior + ntok[:, None] * (log_a - denom)
            best = np.argmin(  # argmax score, ties -> min label index
                np.where(scores == scores.max(axis=1, keepdims=True),
                         np.arange(k), k), axis=1) if len(batch) else \
                np.zeros(0, np.int64)
            return pa.table({
                id_col: batch[id_col],
                "pred_label": pa.array(
                    np.asarray(classes, dtype=object)[best], pa.string()),
                "score": pa.array(scores[np.arange(len(batch)), best]
                                  if len(batch) else
                                  np.zeros(0), pa.float64())})
        return ds.map_batches(score, batch_format="pyarrow")

    # scale path: doc tf rows meet the model by word
    from .join import cogroup_join

    def tf_partial(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[text_col].combine_chunks(), " ")
        ntok = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), ntok)
        df = pd.DataFrame({id_col: ids, "word": words})
        g = df.groupby([id_col, "word"], sort=False).size().reset_index(
            name="tf")
        return pa.table({id_col: pa.array(g[id_col], pa.int64()),
                         "word": pa.array(g["word"], pa.string()),
                         "tf": pa.array(g["tf"], pa.int64())})

    tf = ds.map_batches(tf_partial, batch_format="pyarrow")
    joined = cogroup_join(tf, model.word_counts, on=["word"], how="inner",
                          num_buckets=num_buckets,
                          schema=pa.schema([(id_col, pa.int64()),
                                            ("word", pa.string()),
                                            ("tf", pa.int64()),
                                            ("label", pa.string()),
                                            ("cnt", pa.int64())]))

    def delta(batch: pa.Table) -> pa.Table:
        d = (batch["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
             * (np.log(batch["cnt"].to_numpy(zero_copy_only=False)
                       + model.alpha) - log_a))
        return pa.table({id_col: batch[id_col], "label": batch["label"],
                         "delta": pa.array(d, pa.float64())})

    deltas = joined.map_batches(delta, batch_format="pyarrow")

    li = {c: i for i, c in enumerate(classes)}

    def base_rows(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[text_col].combine_chunks(), " ")
        ntok = pc.list_value_length(lists).to_numpy(
            zero_copy_only=False).astype(np.float64)
        n = len(batch)
        ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), k)
        labs = np.tile(np.asarray(classes, dtype=object), n)
        base = (prior + ntok[:, None] * (log_a - denom)).ravel()
        return pa.table({id_col: pa.array(ids, pa.int64()),
                         "label": pa.array(labs, pa.string()),
                         "delta": pa.array(base, pa.float64())})

    bases = ds.map_batches(base_rows, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        s = df.groupby([id_col, "label"], as_index=False,
                       sort=True)["delta"].sum()
        s["_li"] = s["label"].map(li)
        s = s.sort_values(["delta", "_li"], ascending=[False, True],
                          kind="mergesort")
        best = s.drop_duplicates(subset=[id_col], keep="first")
        return pd.DataFrame({id_col: best[id_col],
                             "pred_label": best["label"],
                             "score": best["delta"]})

    return bucketed_group_reduce(bases.union(deltas), [id_col], fold,
                                 schema=out_schema,
                                 num_buckets=num_buckets)


# ---------------------------------------------------------------------------
# Lloyd k-means over an embedding column
# ---------------------------------------------------------------------------

def _init_centroids(ds, vec_col: str, id_col: str, k: int) -> np.ndarray:
    """Deterministic farthest-point init over a bounded candidate sample.
    Each batch contributes only its local 4k smallest-id rows, so the
    driver sees <= blocks*4k candidates regardless of corpus size; greedy
    k-center over the candidates (start = min id, ties → min id) spreads
    the seeds across the data instead of clumping in one region."""
    m = 4 * k

    def local_m(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        take = np.argsort(ids, kind="stable")[:m]
        return batch.take(pa.array(take))

    cand = ds.select_columns([id_col, vec_col]).map_batches(
        local_m, batch_format="pyarrow").take_all()
    cand.sort(key=lambda r: r[id_col])
    vecs = np.stack([np.asarray(r[vec_col], dtype=np.float64)
                     for r in cand])
    chosen = [0]
    mind = ((vecs - vecs[0]) ** 2).sum(1)
    while len(chosen) < min(k, len(vecs)):
        nxt = int(np.argmax(mind))  # argmax → first (min id) on ties
        chosen.append(nxt)
        mind = np.minimum(mind, ((vecs - vecs[nxt]) ** 2).sum(1))
    return vecs[chosen]


def embedding_kmeans(ds: "ray.data.Dataset", k: int = 8,
                     iters: int = 20, tol: float = 1e-6,
                     vec_col: str = "embedding",
                     id_col: str = "vec_id"):
    """Distributed Lloyd k-means → (assignments Dataset, centroids array).

    Per iteration: centroids broadcast via ray.put; each batch emits one
    (cluster, sum-vector, n) partial per non-empty cluster (np.add.at
    segment sum), so the driver reduce sees <= blocks*k rows of dim
    doubles — vectors never shuffle and never land on the driver. Empty
    clusters keep their previous centroid. Ties → min cluster index
    (argmin picks first). Output: (id, cluster, dist)."""
    import ray

    cent = _init_centroids(ds, vec_col, id_col, k)
    dim = cent.shape[1]

    for _ in range(iters):
        ref = ray.put(cent)

        def partial(batch: pa.Table, _ref=ref) -> pa.Table:
            c = ray.get(_ref)
            v = _batch_vecs(batch, vec_col)
            if not len(v):
                return pa.table({"cl": pa.array([], pa.int64()),
                                 "s": pa.array([], pa.list_(pa.float64())),
                                 "n": pa.array([], pa.int64())})
            a, _ = _l2_assign(v, c)
            u = np.unique(a)
            sums = np.zeros((len(u), v.shape[1]))
            np.add.at(sums, np.searchsorted(u, a), v)
            cnt = np.bincount(np.searchsorted(u, a))
            return pa.table({"cl": pa.array(u, pa.int64()),
                             "s": pa.array(list(sums), pa.list_(pa.float64())),
                             "n": pa.array(cnt, pa.int64())})

        parts = ds.map_batches(partial, batch_format="pyarrow").take_all()
        sums = np.zeros((k, dim))
        cnts = np.zeros(k)
        for r in sorted(parts, key=lambda r: r["cl"]):
            sums[r["cl"]] += np.asarray(r["s"], dtype=np.float64)
            cnts[r["cl"]] += r["n"]
        new = np.where(cnts[:, None] > 0,
                       sums / np.maximum(cnts, 1)[:, None], cent)
        shift = float(np.abs(new - cent).max())
        cent = new
        if shift < tol:
            break

    ref = ray.put(cent)

    def assign(batch: pa.Table, _ref=ref) -> pa.Table:
        c = ray.get(_ref)
        v = _batch_vecs(batch, vec_col)
        if not len(v):
            return pa.table({id_col: pa.array([], pa.int64()),
                             "cluster": pa.array([], pa.int64()),
                             "dist": pa.array([], pa.float64())})
        a, d2 = _l2_assign(v, c)
        return pa.table({id_col: batch[id_col],
                         "cluster": pa.array(a, pa.int64()),
                         "dist": pa.array(np.sqrt(np.maximum(d2, 0.0)),
                                          pa.float64())})

    return ds.map_batches(assign, batch_format="pyarrow"), cent


# ---------------------------------------------------------------------------
# Softmax-regression probe over an embedding column (full-batch GD)
# ---------------------------------------------------------------------------

def softmax_probe(ds: "ray.data.Dataset", vec_col: str = "embedding",
                  label_col: str = "label", iters: int = 60,
                  lr: float = 0.5, l2: float = 1e-4):
    """Train a linear softmax classifier on (embedding, label) — the
    standard "linear probe" for embedding quality. Full-batch gradient
    descent: each pass broadcasts W, each batch emits one gradient partial
    (k x (d+1) doubles) — tree-reduced driver-side; O(k*d) state, no row
    ever leaves its block. Returns (per-row scored Dataset, W, classes).

    Output rows: (label, pred, correct) for downstream accuracy
    aggregation."""
    import ray

    # label universe + count via one tiny aggregate
    from ray.data.aggregate import Count
    labs = ds.groupby(label_col).aggregate(Count()).take_all()
    classes = sorted(int(r[label_col]) for r in labs)
    n_rows = sum(int(r["count()"]) for r in labs)
    k = len(classes)
    li = {c: i for i, c in enumerate(classes)}
    dim = len(ds.take(1)[0][vec_col])
    W = np.zeros((k, dim + 1))

    def grad_partial(batch: pa.Table, _ref) -> pa.Table:
        w = ray.get(_ref)
        v = _batch_vecs(batch, vec_col)
        x = np.concatenate([v, np.ones((len(v), 1))], axis=1)
        y = np.array([li[int(c)] for c in
                      batch[label_col].to_pylist()], dtype=np.int64)
        z = x @ w.T
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(y)), y] -= 1.0
        g = p.T @ x  # (k, d+1)
        return pa.table({"i": pa.array(np.arange(k), pa.int64()),
                         "g": pa.array(list(g), pa.list_(pa.float64()))})

    for _ in range(iters):
        ref = ray.put(W)
        parts = ds.map_batches(
            lambda b, _r=ref: grad_partial(b, _r),
            batch_format="pyarrow").take_all()
        G = np.zeros_like(W)
        for r in parts:
            G[r["i"]] += np.asarray(r["g"], dtype=np.float64)
        W -= lr * (G / n_rows + l2 * W)

    ref = ray.put(W)

    def score(batch: pa.Table, _ref=ref) -> pa.Table:
        w = ray.get(_ref)
        v = _batch_vecs(batch, vec_col)
        x = np.concatenate([v, np.ones((len(v), 1))], axis=1)
        pred = np.asarray(classes)[np.argmax(x @ w.T, axis=1)] \
            if len(v) else np.zeros(0, np.int64)
        y = np.asarray(batch[label_col].to_pylist(), dtype=np.int64)
        return pa.table({label_col: pa.array(y, pa.int64()),
                         "pred": pa.array(pred, pa.int64()),
                         "correct": pa.array((pred == y).astype(np.int64),
                                             pa.int64())})

    return ds.map_batches(score, batch_format="pyarrow"), W, classes


def hash_vectorize(ds: "ray.data.Dataset", text_col: str = "text",
                   id_col: str = "doc_id", dim: int = 64,
                   out_col: str = "embedding",
                   normalize: bool = True) -> "ray.data.Dataset":
    """Feature-hashing bag-of-words vectorizer (Weinberger 2009): each
    word hashes to one of ``dim`` buckets under the engine's pinned md5
    rule; the vector is the (optionally L2-normalized) bucket-count
    histogram. Deterministic on any worker — the glue between raw text
    and the embedding ops (k-means, probe, NN join). Pure map-side; the
    md5 is paid once per DISTINCT word per batch (np.unique first)."""
    from .stats import _key_hash32

    def f(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[text_col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        uniq, inv = np.unique(words, return_inverse=True) \
            if len(words) else (np.zeros(0, object), np.zeros(0, np.int64))
        buckets = (_key_hash32(uniq) % np.uint64(dim)).astype(np.int64)
        n = len(batch)
        m = np.zeros((n, dim))
        if len(words):
            rows = np.repeat(np.arange(n), lens)
            np.add.at(m, (rows, buckets[inv]), 1.0)
        if normalize:
            m = _unit(m)
        return pa.table({id_col: batch[id_col],
                         out_col: pa.array(list(m),
                                           pa.list_(pa.float64()))})

    return ds.map_batches(f, batch_format="pyarrow")
