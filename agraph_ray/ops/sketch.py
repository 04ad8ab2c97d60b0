"""Mergeable sketches for corpus-scale statistics.

HyperLogLog grouped count-distinct: the scale path for cardinalities
where the exact operators (ops/stats.py ``grouped_count_distinct``,
``exact_quantiles``) would shuffle every distinct value. A sketch row is
a fixed ``m``-byte register array — per-group shuffle volume is O(m x
num_blocks), independent of the number of distinct values — and register
merge is an element-wise max, so partial sketches combine associatively
(the property pinned by tests/test_sketch.py).

The estimator is the standard HLL with the small-range linear-counting
correction (Flajolet et al. 2007). Deterministic: the value hash is the
repo's pinned SipHash (ops/dedup.py:_hash_tokens), so the same
input yields the same estimate at any parallelism.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from .dedup import _hash_tokens
from ..stages.common import bucketed_group_reduce

__all__ = ["hll_count_distinct", "approx_quantiles",
           "grouped_heavy_hitters"]


def _alpha(m: int) -> float:
    if m == 16:
        return 0.673
    if m == 32:
        return 0.697
    if m == 64:
        return 0.709
    return 0.7213 / (1.0 + 1.079 / m)


def _estimate(regs: np.ndarray, m: int) -> float:
    est = _alpha(m) * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    if est <= 2.5 * m:
        zeros = int((regs == 0).sum())
        if zeros:
            est = m * np.log(m / zeros)
    return float(est)


def hll_count_distinct(ds: "ray.data.Dataset", key: str, value_col: str,
                       p: int = 12,
                       num_buckets: int = 32) -> "ray.data.Dataset":
    """Approximate distinct ``value_col`` count per ``key`` group →
    ``(key, approx_distinct)`` with standard error ~1.04/sqrt(2^p)
    (~1.6 % at the default p=12 / 4 KiB of registers per group).

    Per batch, one vectorized pass collapses all values to one register
    array per in-batch group (``np.maximum.at``); one bucketed reduce
    element-wise-maxes the partials. Nothing value-shaped crosses the
    shuffle."""
    m = 1 << p
    ktype = dict(zip(ds.schema().names, ds.schema().types))[key]
    if not isinstance(ktype, pa.DataType):
        ktype = pa.from_numpy_dtype(ktype)
    part_schema = pa.schema([(key, ktype),
                             ("regs", pa.list_(pa.uint8()))])
    out_schema = pa.schema([(key, ktype),
                            ("approx_distinct", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        k = batch[key].to_numpy(zero_copy_only=False)
        vals = batch[value_col].to_pylist()
        h = _hash_tokens([str(v) for v in vals]).astype(np.uint64)
        idx = (h & np.uint64(m - 1)).astype(np.int64)
        rest = h >> np.uint64(p)
        # rho = position of first set bit of the remaining 64-p bits,
        # 1-based; all-zero rest -> 64-p+1
        width = 64 - p
        rho = np.full(len(h), width + 1, dtype=np.uint8)
        nz = rest != 0
        # trailing... we want leading position within `width` bits:
        # number of leading zeros of rest (as a width-bit int) + 1
        bl = np.zeros(len(h), dtype=np.int64)
        r = rest[nz]
        # bit_length via log2 on uint64 is unsafe near 2^53; compute by
        # repeated shifts on the byte view instead (vectorized, 8 steps)
        bits = np.zeros(r.shape, dtype=np.int64)
        cur = r.copy()
        for shift in (32, 16, 8, 4, 2, 1):
            big = cur >= (np.uint64(1) << np.uint64(shift))
            bits[big] += shift
            cur[big] >>= np.uint64(shift)
        bl[nz] = bits + 1                  # bit_length of rest
        rho[nz] = (width - bl[nz] + 1).astype(np.uint8)

        u, inv = np.unique(k, return_inverse=True)
        regs = np.zeros((len(u), m), dtype=np.uint8)
        np.maximum.at(regs, (inv, idx), rho)
        return pa.Table.from_pydict({key: u, "regs": list(regs)},
                                    schema=part_schema)

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for kv, g in df.groupby(key, sort=False):
            regs = np.max(np.stack(
                [np.asarray(r, dtype=np.uint8) for r in g["regs"]]), axis=0)
            rows.append((kv, int(round(_estimate(regs, m)))))
        return pd.DataFrame(rows, columns=[key, "approx_distinct"])

    return bucketed_group_reduce(
        ds.select_columns([key, value_col])
        .map_batches(partial, batch_format="pyarrow"),
        [key], reduce_df, num_buckets, schema=out_schema)


def approx_quantiles(ds: "ray.data.Dataset", value_col: str,
                     qs: "list[float]", key: str | None = None,
                     k: int = 256,
                     num_buckets: int = 64) -> "ray.data.Dataset":
    """One-pass mergeable quantile sketch → per-group (or global)
    approximate quantiles with rank error <= ~1.5/k.

    The scale companion to the EXACT quantile ops (ops/stats.py
    ``exact_quantiles`` / ``grouped_quantile_radix``, which take multiple
    passes or shuffle per-group values): each input block is compressed
    map-side to at most ``k`` equi-weight centroids ``(value, weight)``
    (classic merge-and-compress summary, Manku/Rajagopalan/Lindsay
    lineage), so the shuffle carries O(k x num_blocks) rows total —
    independent of row count — and one weighted-rank pass per group
    answers every requested quantile. Two compression levels (block →
    group) bound the rank error at ~1.5/k. Deterministic at any
    parallelism DOWN TO block boundaries: centroid placement depends on
    how rows batch, so unlike the exact ops the result may shift within
    the error bound under repartitioning (pinned by the pytest bound
    check, not an equality oracle).

    → ``(key?, q, value)`` one row per group per requested quantile.
    """
    qs = sorted(float(q) for q in qs)
    const_key = key is None
    gkey = key or "__all"

    def partial(batch: pa.Table) -> pa.Table:
        v = batch[value_col].to_numpy(zero_copy_only=False).astype(
            np.float64)
        if const_key:
            keys = np.zeros(len(v), np.int64)
        else:
            keys = batch[key].to_numpy(zero_copy_only=False)
        order = np.lexsort((v, keys))
        v, keys = v[order], keys[order]
        starts = np.flatnonzero(np.r_[True, keys[1:] != keys[:-1]]) \
            if len(keys) else np.empty(0, np.int64)
        ends = np.r_[starts[1:], len(keys)] if len(starts) else starts
        out_k, out_v, out_w = [], [], []
        for s, e in zip(starts, ends):
            g = v[s:e]
            n = len(g)
            if n <= k:
                out_k.append(keys[s:e])
                out_v.append(g)
                out_w.append(np.ones(n))
                continue
            # equi-weight centroids: mean of each of k contiguous runs
            edges = np.linspace(0, n, k + 1).round().astype(np.int64)
            sums = np.add.reduceat(g, edges[:-1])
            cnts = np.diff(edges).astype(np.float64)
            out_k.append(np.full(k, keys[s]))
            out_v.append(sums / cnts)
            out_w.append(cnts)
        if not out_k:
            return pa.table({gkey: pa.array([], pa.int64()),
                             "v": pa.array([], pa.float64()),
                             "w": pa.array([], pa.float64())})
        return pa.table({gkey: pa.array(np.concatenate(out_k)),
                         "v": pa.array(np.concatenate(out_v), pa.float64()),
                         "w": pa.array(np.concatenate(out_w),
                                       pa.float64())})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        out_k, out_q, out_v = [], [], []
        df = df.sort_values([gkey, "v"], kind="mergesort")
        kv = df[gkey].to_numpy()
        vv = df["v"].to_numpy()
        wv = df["w"].to_numpy()
        starts = np.flatnonzero(np.r_[True, kv[1:] != kv[:-1]])
        ends = np.r_[starts[1:], len(kv)]
        for s, e in zip(starts, ends):
            v, w = vv[s:e], wv[s:e]
            cum = np.cumsum(w)
            total = cum[-1]
            for q in qs:
                i = int(np.searchsorted(cum, q * total, side="left"))
                i = min(i, len(v) - 1)
                out_k.append(kv[s])
                out_q.append(q)
                out_v.append(v[i])
        return pd.DataFrame({gkey: out_k, "q": out_q, "value": out_v})

    from ..stages.common import arrow_col_type
    key_t = pa.int64() if const_key else arrow_col_type(ds, key)
    cols = [value_col] if const_key else [key, value_col]
    res = bucketed_group_reduce(
        ds.select_columns(cols).map_batches(partial,
                                            batch_format="pyarrow"),
        [gkey], finalize, num_buckets,
        schema=pa.schema([(gkey, key_t), ("q", pa.float64()),
                          ("value", pa.float64())]))
    if const_key:
        res = res.map_batches(
            lambda t: t.select(["q", "value"]), batch_format="pyarrow")
    return res


def grouped_heavy_hitters(ds: "ray.data.Dataset", key: str,
                          value_col: str, k: int = 10,
                          capacity: int = 1024,
                          num_buckets: int = 64) -> "ray.data.Dataset":
    """Mergeable per-group heavy hitters (top-``k`` values by count) with
    a tracked undercount bound — SpaceSaving-family summary (Metwally et
    al.; merge rule per Agarwal et al., "Mergeable Summaries").

    Each block contributes, per group, its top-``capacity`` exact
    (value, count) pairs plus the largest DROPPED count as that block's
    error term; the group reduce sums matched counts and sums the blocks'
    error terms. A value absent from some block can have been undercounted
    by at most that block's dropped-max, so ``count`` is a lower bound and
    ``count + err`` an upper bound. With ``capacity`` >= the number of
    distinct values per group per block nothing is ever dropped, ``err``
    is 0 and the result is EXACT top-k by count — the parameterization the
    DuckDB oracle checks; the approximate regime is pytest-bounded.

    Ties break deterministically: count desc, then value asc.
    → ``(key, value, count, err)``, up to k rows per group.
    Shuffle volume: <= (capacity+1) rows per group per block — independent
    of row count.
    """
    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": batch[key].to_numpy(zero_copy_only=False),
            "v": batch[value_col].to_numpy(zero_copy_only=False)})
        cnt = (df.groupby(["k", "v"], sort=False).size()
               .reset_index(name="c"))
        cnt = cnt.sort_values(["k", "c", "v"],
                              ascending=[True, False, True],
                              kind="mergesort")
        pos = cnt.groupby("k", sort=False).cumcount()
        kept = cnt[pos < capacity]
        dropped = cnt[pos >= capacity]
        # one marker row per (group, block) carrying the max dropped count
        dmax = (dropped.groupby("k", sort=False)["c"].max()
                .reset_index(name="e"))
        out = pd.DataFrame({
            "k": kept["k"], "v": kept["v"],
            "c": kept["c"].astype("int64"),
            "e": np.zeros(len(kept), np.int64)})
        if len(dmax):
            mark = pd.DataFrame({
                "k": dmax["k"], "v": [None] * len(dmax),
                "c": np.zeros(len(dmax), np.int64),
                "e": dmax["e"].astype("int64")})
            out = pd.concat([out, mark], ignore_index=True)
        return pa.Table.from_pandas(out, preserve_index=False)

    def reduce_group(df: pd.DataFrame) -> pd.DataFrame:
        err = (df.loc[df["v"].isna()].groupby("k", sort=False)["e"].sum())
        cnt = (df.loc[df["v"].notna()]
               .groupby(["k", "v"], sort=False)["c"].sum()
               .reset_index())
        cnt = cnt.sort_values(["k", "c", "v"],
                              ascending=[True, False, True],
                              kind="mergesort")
        top = cnt[cnt.groupby("k", sort=False).cumcount() < k].copy()
        top["e"] = top["k"].map(err).fillna(0).astype("int64")
        return top.rename(columns={"k": key, "v": value_col,
                                   "c": "count", "e": "err"})

    from ..stages.common import arrow_col_type
    schema = pa.schema([(key, arrow_col_type(ds, key)),
                        (value_col, arrow_col_type(ds, value_col)),
                        ("count", pa.int64()), ("err", pa.int64())])
    return bucketed_group_reduce(
        ds.select_columns([key, value_col]).map_batches(
            partial, batch_format="pyarrow"),
        ["k"], reduce_group, num_buckets, schema=schema)
