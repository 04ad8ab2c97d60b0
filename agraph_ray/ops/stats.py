"""Distributed statistics operators.

Exact per-group quantiles by co-grouped sort: hash-partition on the group
key (same co-location assumption as ``cogroup_join`` — one group's rows
must fit a bucket; at corpus scale use a sketch for corpus-wide
percentiles), then one vectorized sort + rank-index pick per bucket.

The rank rule is pinned so a SQL oracle can reproduce it bit-for-bit:
``index = floor(q * (n - 1) + 0.5)`` into the ascending-sorted values
(nearest-rank, half-up on the (n-1) scale) — no interpolation, result is
always an element of the input.

:func:`grouped_zscore` joins its per-group stats back through
``ops/join.py::auto_join``, which picks broadcast or co-group.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.common import arrow_col_type, bucketed_group_reduce


def _key_hash32(vals) -> np.ndarray:
    """Deterministic 32-bit hash of each value's string form — the first
    8 hex digits of md5(str(v)), matching DuckDB
    ``('0x' || substr(md5(CAST(v AS VARCHAR)), 1, 8))::UBIGINT`` exactly
    (pinned by the sampling oracles)."""
    import hashlib
    return np.fromiter(
        (int(hashlib.md5(str(v).encode()).hexdigest()[:8], 16)
         for v in vals),
        dtype=np.uint64, count=len(vals))


def hash_sample(ds: "ray.data.Dataset", key: str,
                fraction: float) -> "ray.data.Dataset":
    """Deterministic Bernoulli sample: keep rows whose key-hash bucket
    (mod 1e6) falls below ``fraction``. Same key → same decision on any
    worker, any run, any engine — resumable and oracle-reproducible,
    unlike ``Dataset.random_sample``. Pure map-side filter, no shuffle."""
    cut = int(round(fraction * 1_000_000))

    def f(t: pa.Table) -> pa.Table:
        h = _key_hash32(t[key].to_pylist()) % np.uint64(1_000_000)
        return t.filter(pa.array(h < cut))

    return ds.map_batches(f, batch_format="pyarrow")


def stratified_sample(ds: "ray.data.Dataset", group_col: str, key: str,
                      n_per_group: int,
                      num_buckets: int = 64) -> "ray.data.Dataset":
    """Deterministic n-per-group sample: within each group keep the n
    rows with the smallest (key-hash, key) rank — a uniform-ish,
    run-stable stratum sample (the classic "cap each language/quality
    bucket" training-data op). One bucketed shuffle on the group key."""
    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(__h=_key_hash32(df[key].tolist()))
        df = df.sort_values(["__h", key], kind="stable")
        return (df.groupby(group_col, sort=False).head(n_per_group)
                .drop(columns="__h"))

    schema = pa.schema(list(zip(ds.schema().names, ds.schema().types)))
    return bucketed_group_reduce(ds, [group_col], reduce_df, num_buckets,
                                 schema=schema)


def _f64_to_ordered_u64(v: np.ndarray) -> np.ndarray:
    """Monotone bijection double -> uint64: negative floats get bit-flipped,
    positives get the sign bit set, so unsigned order == numeric order
    (NaNs sort above +inf; -0.0 < +0.0)."""
    b = v.astype(np.float64).view(np.uint64)
    neg = (b >> np.uint64(63)) == 1
    out = np.where(neg, ~b, b | np.uint64(1 << 63))
    return out.astype(np.uint64)


def _ordered_u64_to_f64(u: int) -> float:
    b = np.uint64(u)
    if (b >> np.uint64(63)) == 1:
        b = b & ~np.uint64(1 << 63)
    else:
        b = ~b
    return float(np.array([b], dtype=np.uint64).view(np.float64)[0])


def exact_quantiles(ds: "ray.data.Dataset", value_col: str,
                    qs: Sequence[float] = (0.25, 0.5, 0.75)) -> "pd.DataFrame":
    """EXACT corpus-wide quantiles of a double column without sorting or
    collecting the data: multi-pass radix selection. Values map through a
    monotone float64->uint64 bijection; four MSB-first 16-bit-digit
    histogram passes (each a ``map_batches`` + 64Ki-counter reduce) narrow
    every requested rank to its exact bit pattern. Driver state is
    O(65536 x passes), independent of dataset size; ties and degenerate
    distributions (all values equal) cost nothing extra.

    Rank rule matches ``grouped_quantiles``: index floor(q*(n-1)+0.5)
    into the ascending sort. Returns a small pandas DataFrame
    (q, value) — a driver-side result, like any aggregate."""
    src = ds.select_columns([value_col])
    n = src.count()
    if n == 0:
        return pd.DataFrame({"q": list(qs), "value": [float("nan")] * len(qs)})
    targets = {q: int(np.floor(q * (n - 1) + 0.5)) for q in qs}
    # state per target: resolved bit prefix + rank within the prefix group
    prefix = {q: np.uint64(0) for q in qs}
    rank = {q: targets[q] for q in qs}

    for p in range(4):                      # digits: bits 48, 32, 16, 0
        shift = np.uint64(48 - 16 * p)
        pre_shift = np.uint64(64 - 16 * p)  # bits resolved so far
        probes = sorted({(int(prefix[q]), int(rank[q])) for q in qs})
        pre_list = [pr for pr, _ in probes]

        def hist(batch: "pa.Table", _pre=tuple(pre_list), _ps=pre_shift,
                 _sh=shift) -> "pa.Table":
            v = batch[value_col].to_numpy(zero_copy_only=False)
            u = _f64_to_ordered_u64(np.asarray(v, dtype=np.float64))
            outs = []
            for pi, pr in enumerate(_pre):
                sel = u if _ps == np.uint64(64) else u[
                    (u >> _ps) == np.uint64(pr)]
                dig = ((sel >> _sh) & np.uint64(0xFFFF)).astype(np.int64)
                cnt = np.bincount(dig, minlength=65536)
                nz = np.flatnonzero(cnt)
                outs.append(pa.table({
                    "probe": pa.array(np.full(len(nz), pi), pa.int32()),
                    "digit": pa.array(nz, pa.int32()),
                    "cnt": pa.array(cnt[nz], pa.int64())}))
            return pa.concat_tables(outs) if outs else pa.table(
                {"probe": pa.array([], pa.int32()),
                 "digit": pa.array([], pa.int32()),
                 "cnt": pa.array([], pa.int64())})

        from ray.data.aggregate import Sum
        agg = (src.map_batches(hist, batch_format="pyarrow")
               .groupby(["probe", "digit"])
               .aggregate(Sum("cnt", alias_name="cnt")).take_all())
        counts = {}
        for r in agg:
            counts.setdefault(r["probe"], {})[r["digit"]] = r["cnt"]
        for q in qs:
            pi = pre_list.index(int(prefix[q]))
            c = counts.get(pi, {})
            acc = 0
            for d in sorted(c):
                if acc + c[d] > rank[q]:
                    prefix[q] = (prefix[q] << np.uint64(16)) | np.uint64(d)
                    rank[q] = rank[q] - acc
                    break
                acc += c[d]

    return pd.DataFrame({
        "q": list(qs),
        "value": [_ordered_u64_to_f64(int(prefix[q])) for q in qs]})


def grouped_count_distinct(ds: "ray.data.Dataset", key: str, value_col: str,
                           num_buckets: int = 64) -> "ray.data.Dataset":
    """Exact per-key distinct count of ``value_col``. Per-batch combiner
    first (each batch emits its distinct (key, value) pairs once), so the
    shuffle carries pair cardinality, not row count; one keyed reduce
    computes ``nunique`` vectorized."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates([key, value_col])

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates([key, value_col])
        out = df.groupby(key, sort=False, as_index=False)[value_col].count()
        return out.rename(columns={value_col: "n_distinct"})

    ktype = dict(zip(ds.schema().names, ds.schema().types))[key]
    return bucketed_group_reduce(
        ds.select_columns([key, value_col]).map_batches(
            partial, batch_format="pandas"),
        [key], reduce_df, num_buckets,
        schema=pa.schema([(key, ktype if isinstance(ktype, pa.DataType)
                           else pa.from_numpy_dtype(ktype)),
                          ("n_distinct", pa.int64())]))


def pivot_counts(ds: "ray.data.Dataset", key: str, pivot_col: str,
                 categories: Sequence[str],
                 value_col: Optional[str] = None) -> "ray.data.Dataset":
    """Wide per-key aggregate: one ``n_<cat>`` count column (and, with
    ``value_col``, one ``sum_<cat>`` column) per category — the SQL
    ``count(*) FILTER (WHERE ...)`` pivot. Per-batch partial pivot first
    (each batch collapses to <= |keys-in-batch| rows), so the shuffle
    carries pre-aggregated wide rows, never events; unknown categories
    are dropped (the caller pins the category set)."""
    from ray.data.aggregate import Sum

    cats = list(categories)
    ncols = [f"n_{c}" for c in cats]
    scols = [f"sum_{c}" for c in cats] if value_col else []

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnt = (df.pivot_table(index=key, columns=pivot_col, aggfunc="size",
                              fill_value=0)
               .reindex(columns=cats, fill_value=0))
        cnt.columns = ncols
        out = cnt
        if value_col:
            sm = (df.pivot_table(index=key, columns=pivot_col,
                                 values=value_col, aggfunc="sum",
                                 fill_value=0.0)
                  .reindex(columns=cats, fill_value=0.0))
            sm.columns = scols
            out = pd.concat([cnt, sm.astype("float64")], axis=1)
        return out.reset_index()

    cols = [key, pivot_col] + ([value_col] if value_col else [])
    aggs = ([Sum(c, alias_name=c) for c in ncols]
            + [Sum(c, alias_name=c) for c in scols])
    return (ds.select_columns(cols)
            .map_batches(partial, batch_format="pandas")
            .groupby(key)
            .aggregate(*aggs))


def grouped_quantiles(ds: "ray.data.Dataset", key: str, value_col: str,
                      qs: Sequence[float] = (0.25, 0.5, 0.75),
                      num_buckets: int = 64) -> "ray.data.Dataset":
    """→ one row per group: key, q<pct> per requested quantile, n."""
    qcols = [f"q{int(round(q * 100)):02d}" for q in qs]

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: [], **{c: [] for c in qcols},
                                 "n": []})
        df = df.sort_values([key, value_col], kind="stable")
        v = df[value_col].to_numpy()
        k = df[key].to_numpy()
        new = np.empty(len(df), dtype=bool)
        new[0] = True
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        ns = np.diff(np.append(starts, len(df)))
        out = {key: k[starts]}
        for q, c in zip(qs, qcols):
            idx = starts + np.floor(q * (ns - 1) + 0.5).astype(np.int64)
            out[c] = v[idx]
        out["n"] = ns
        return pd.DataFrame(out)

    ktype = dict(zip(ds.schema().names, ds.schema().types))[key]
    vtype = dict(zip(ds.schema().names, ds.schema().types))[value_col]
    schema = pa.schema([(key, ktype)] + [(c, vtype) for c in qcols]
                       + [("n", pa.int64())])
    return bucketed_group_reduce(ds.select_columns([key, value_col]),
                                 [key], reduce_df, num_buckets,
                                 schema=schema)


def rollup_agg(ds: "ray.data.Dataset", keys: Sequence[str],
               value_col: Optional[str] = None,
               num_buckets: int = 64) -> "ray.data.Dataset":
    """SQL ``GROUP BY ROLLUP(*keys)``: ``cnt`` (and, with ``value_col``, an
    exact integer ``sum_v``) at every rollup level — the finest
    ``(k1..kn)``, each prefix ``(k1..ki, NULL...)``, and the grand total
    (all keys NULL). The input is read ONCE: a per-batch combiner collapses
    each batch to its distinct finest groups, one bucketed reduce finishes
    the finest level, and every coarser level re-aggregates the finest
    *result* (rows bounded by group cardinality, tiny next to the input) —
    no second input pass, no extra wide shuffle. Pass an integer
    ``value_col`` (pre-scale floats to cents) so sums are order-exact."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    keys = list(keys)
    vals = ["cnt"] + (["sum_v"] if value_col else [])
    named = dict(zip(ds.schema().names, ds.schema().types))

    def _as_pa(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    kfields = [(k, _as_pa(named[k])) for k in keys]
    schema = pa.schema(kfields + [(c, pa.int64()) for c in vals])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        aggs = {"cnt": (keys[0], "size")}
        if value_col:
            aggs["sum_v"] = (value_col, "sum")
        return g.agg(**aggs).reset_index()

    def _resum(level_keys):
        def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(level_keys, sort=False, dropna=False,
                           as_index=False)[vals].sum()
            for k in keys:
                if k not in level_keys:
                    g[k] = None
            return g[keys + vals]
        return reduce_df

    cols = keys + ([value_col] if value_col else [])
    finest = bucketed_group_reduce(
        ds.select_columns(cols).map_batches(partial, batch_format="pandas"),
        keys, _resum(keys), num_buckets, schema=schema).materialize()

    levels = [finest]
    for i in range(len(keys) - 1, 0, -1):
        levels.append(bucketed_group_reduce(
            finest, keys[:i], _resum(keys[:i]), num_buckets=8,
            schema=schema))

    # grand total: a scalar reduce of the (small) finest result
    tot = finest.aggregate(*[Sum(c, alias_name=c) for c in vals])
    grand = pa.Table.from_pylist(
        [{**{k: None for k in keys},
          **{c: int(tot[c]) if tot[c] is not None else 0 for c in vals}}],
        schema=schema)

    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out.union(rd.from_arrow(grand))


def cube_agg(ds: "ray.data.Dataset", keys: Sequence[str],
             value_col: Optional[str] = None,
             num_buckets: int = 64) -> "ray.data.Dataset":
    """SQL ``GROUP BY CUBE(*keys)``: ``cnt`` (and, with an integer
    ``value_col``, an exact ``sum_v``) for EVERY subset of the keys —
    2^n grouping sets. Same one-input-pass shape as :func:`rollup_agg`:
    the finest level is computed with a per-batch combiner + one bucketed
    reduce, and every other grouping set re-aggregates the finest
    *result* (bounded by group cardinality), so adding 2^n - 1 levels
    costs no extra wide shuffle over the input."""
    import itertools

    import ray.data as rd
    from ray.data.aggregate import Sum

    keys = list(keys)
    vals = ["cnt"] + (["sum_v"] if value_col else [])
    named = dict(zip(ds.schema().names, ds.schema().types))

    def _as_pa(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    schema = pa.schema([(k, _as_pa(named[k])) for k in keys]
                       + [(c, pa.int64()) for c in vals])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(keys, sort=False, dropna=False)
        aggs = {"cnt": (keys[0], "size")}
        if value_col:
            aggs["sum_v"] = (value_col, "sum")
        return g.agg(**aggs).reset_index()

    def _resum(level_keys):
        def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
            g = df.groupby(level_keys, sort=False, dropna=False,
                           as_index=False)[vals].sum()
            for k in keys:
                if k not in level_keys:
                    g[k] = None
            return g[keys + vals]
        return reduce_df

    cols = keys + ([value_col] if value_col else [])
    finest = bucketed_group_reduce(
        ds.select_columns(cols).map_batches(partial, batch_format="pandas"),
        keys, _resum(keys), num_buckets, schema=schema).materialize()

    levels = [finest]
    for size in range(len(keys) - 1, 0, -1):
        for subset in itertools.combinations(keys, size):
            levels.append(bucketed_group_reduce(
                finest, list(subset), _resum(list(subset)), num_buckets=8,
                schema=schema))

    tot = finest.aggregate(*[Sum(c, alias_name=c) for c in vals])
    grand = pa.Table.from_pylist(
        [{**{k: None for k in keys},
          **{c: int(tot[c]) if tot[c] is not None else 0 for c in vals}}],
        schema=schema)

    out = levels[0]
    for lvl in levels[1:]:
        out = out.union(lvl)
    return out.union(rd.from_arrow(grand))


def histogram(ds: "ray.data.Dataset", value_col: str, lo: float, hi: float,
              nbins: int) -> "ray.data.Dataset":
    """Fixed-width histogram of ``value_col`` over [lo, hi): one row per
    non-empty bin ``(bin, bin_lo, cnt)``; values outside the range clamp
    into the edge bins. Each batch collapses to <= nbins partial rows via
    ``np.bincount`` (the combiner), so the shuffle moves O(nbins x
    num_blocks) tiny rows regardless of input size."""
    width = (hi - lo) / nbins
    schema = pa.schema([("bin", pa.int64()), ("bin_lo", pa.float64()),
                        ("cnt", pa.int64())])

    def partial(t: pa.Table) -> pa.Table:
        v = pc.cast(t[value_col], pa.float64()).to_numpy(
            zero_copy_only=False)
        b = np.clip(np.floor((v - lo) / width).astype(np.int64), 0,
                    nbins - 1)
        cnt = np.bincount(b, minlength=nbins)
        nz = np.flatnonzero(cnt)
        return pa.Table.from_arrays(
            [pa.array(nz, pa.int64()),
             pa.array(cnt[nz], pa.int64())], names=["bin", "cnt"])

    from ray.data.aggregate import Sum
    agg = (ds.select_columns([value_col])
           .map_batches(partial, batch_format="pyarrow")
           .groupby("bin").aggregate(Sum("cnt", alias_name="cnt")))

    def finish(t: pa.Table) -> pa.Table:
        b = t["bin"].to_numpy(zero_copy_only=False)
        return pa.Table.from_arrays(
            [pa.array(b, pa.int64()), pa.array(lo + b * width),
             pc.cast(t["cnt"], pa.int64())],
            names=["bin", "bin_lo", "cnt"])

    return agg.map_batches(finish, batch_format="pyarrow")


def melt(ds: "ray.data.Dataset", id_cols: "List[str]",
         value_cols: "List[str]", var_name: str = "variable",
         value_name: str = "value") -> "ray.data.Dataset":
    """Wide→long unpivot: one output row per (input row × value column),
    values cast to float64. Pure per-batch projection — zero shuffle,
    the inverse of :func:`pivot_table`."""
    def f(t: pa.Table) -> pa.Table:
        n = len(t)
        idx = pa.array(np.tile(np.arange(n, dtype=np.int64),
                               len(value_cols)))
        cols = {c: t[c].combine_chunks().take(idx) for c in id_cols}
        cols[var_name] = pa.array(
            np.repeat(np.asarray(value_cols, dtype=object), n), pa.string())
        vals = np.concatenate(
            [pc.cast(t[c], pa.float64()).to_numpy(zero_copy_only=False)
             for c in value_cols]) if n else np.empty(0, np.float64)
        cols[value_name] = pa.array(vals, pa.float64())
        return pa.table(cols)

    return ds.select_columns(id_cols + value_cols).map_batches(
        f, batch_format="pyarrow")


def grouped_corr(ds: "ray.data.Dataset", key: str, x_col: str,
                 y_col: str) -> "ray.data.Dataset":
    """Per-group Pearson correlation + least-squares line of ``y`` on
    ``x``: one row per key with ``n, corr, slope, intercept``.

    Classic combiner shape: each batch collapses to one row of moment
    sums (n, Σx, Σy, Σxx, Σyy, Σxy) per key present in the batch, a tiny
    ``groupby(key).Sum`` merges them, and the finalize step is arithmetic
    on |groups| rows — nothing but the moment rows ever rides the
    shuffle, so the op costs one input pass at any scale. Matches SQL
    ``corr(y, x) / regr_slope(y, x) / regr_intercept(y, x)`` (the n vs
    n-1 factors cancel in all three)."""
    from ray.data.aggregate import Sum

    def partial(t: pa.Table) -> pa.Table:
        x = pc.cast(t[x_col], pa.float64()).to_numpy(zero_copy_only=False)
        y = pc.cast(t[y_col], pa.float64()).to_numpy(zero_copy_only=False)
        d = pd.DataFrame({key: t[key].to_pandas(), "n": 1, "sx": x, "sy": y,
                          "sxx": x * x, "syy": y * y, "sxy": x * y})
        return pa.Table.from_pandas(
            d.groupby(key, as_index=False, sort=False).sum(),
            preserve_index=False)

    sums = (ds.select_columns([key, x_col, y_col])
            .map_batches(partial, batch_format="pyarrow")
            .groupby(key)
            .aggregate(*[Sum(c, alias_name=c)
                         for c in ("n", "sx", "sy", "sxx", "syy", "sxy")]))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        sx = t["sx"].to_numpy(zero_copy_only=False)
        sy = t["sy"].to_numpy(zero_copy_only=False)
        sxx_c = t["sxx"].to_numpy(zero_copy_only=False) - sx * sx / n
        syy_c = t["syy"].to_numpy(zero_copy_only=False) - sy * sy / n
        sxy_c = t["sxy"].to_numpy(zero_copy_only=False) - sx * sy / n
        denom = np.sqrt(np.maximum(sxx_c * syy_c, 0.0))
        corr = np.divide(sxy_c, denom, out=np.zeros_like(sxy_c),
                         where=denom > 0)
        slope = np.divide(sxy_c, sxx_c, out=np.zeros_like(sxy_c),
                          where=sxx_c > 0)
        intercept = (sy - slope * sx) / n
        return pa.table({key: t[key],
                         "n": pc.cast(t["n"], pa.int64()),
                         "corr": pa.array(corr, pa.float64()),
                         "slope": pa.array(slope, pa.float64()),
                         "intercept": pa.array(intercept, pa.float64())})

    return sums.map_batches(finish, batch_format="pyarrow")


def grouped_mode(ds: "ray.data.Dataset", key: str, value_col: str,
                 num_buckets: int = 64) -> "ray.data.Dataset":
    """Most frequent ``value_col`` per key (ties → smallest value), with
    its count: ``(key, mode_value, cnt)``. Per-batch combiner emits
    (key, value, batch-count) rows, so the shuffle carries distinct-pair
    cardinality; one bucketed reduce merges counts and picks the argmax
    vectorized (sort by cnt desc, value asc, head-1 per key) — exact
    integer counts, no float drift, SQL-reproducible via
    ``ROW_NUMBER() OVER (ORDER BY COUNT(*) DESC, value)``."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby([key, value_col], sort=False)
                .size().reset_index(name="cnt"))

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([key, value_col], sort=False, as_index=False)
             ["cnt"].sum())
        g = g.sort_values([key, "cnt", value_col],
                          ascending=[True, False, True], kind="stable")
        out = g.groupby(key, sort=False).head(1)
        return out.rename(columns={value_col: "mode_value"})

    schema = pa.schema([(key, arrow_col_type(ds, key)),
                        ("mode_value", arrow_col_type(ds, value_col)),
                        ("cnt", pa.int64())])
    return bucketed_group_reduce(
        ds.select_columns([key, value_col]).map_batches(
            partial, batch_format="pandas"),
        [key], reduce_df, num_buckets, schema=schema)


def grouped_entropy(ds: "ray.data.Dataset", key: str, value_col: str,
                    num_buckets: int = 64) -> "ray.data.Dataset":
    """Shannon entropy (bits) of the ``value_col`` distribution within
    each key: ``(key, n, entropy)`` — the label/source-diversity signal
    for corpus monitoring. Combiner emits (key, value, cnt) rows; one
    bucketed reduce merges counts and computes
    ``-Σ (c/n)·log2(c/n)`` per key with summation in value order
    (pinned so a SQL oracle can reproduce the float bit-for-bit at
    modest group sizes)."""
    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (df.groupby([key, value_col], sort=False)
                .size().reset_index(name="cnt"))

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby([key, value_col], as_index=False)["cnt"].sum()
             .sort_values([key, value_col], kind="stable"))
        n = g.groupby(key, sort=False)["cnt"].transform("sum")
        p = g["cnt"] / n
        g["term"] = -p * np.log2(p)
        out = g.groupby(key, sort=False).agg(
            n=("cnt", "sum"), entropy=("term", "sum")).reset_index()
        return out

    schema = pa.schema([(key, arrow_col_type(ds, key)),
                        ("n", pa.int64()), ("entropy", pa.float64())])
    return bucketed_group_reduce(
        ds.select_columns([key, value_col]).map_batches(
            partial, batch_format="pandas"),
        [key], reduce_df, num_buckets, schema=schema)


def group_concat(ds: "ray.data.Dataset", key: str, value_col: str,
                 order_col: str, sep: str = ",",
                 num_buckets: int = 64) -> "ray.data.Dataset":
    """Ordered ``string_agg`` per key: values joined by ``sep`` in
    (order_col, value) order — a total order, so the output string is
    deterministic under any shuffle. One bucketed reduce; same
    co-location contract as :func:`grouped_quantiles` (one key's rows fit
    a bucket — concatenating a truly unbounded group is caller error)."""
    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, order_col, value_col], kind="stable")
        out = df.groupby(key, sort=False)[value_col].agg(
            lambda s: sep.join(s.astype(str))).reset_index(name="concat")
        return out

    schema = pa.schema([(key, arrow_col_type(ds, key)),
                        ("concat", pa.string())])
    cols = list(dict.fromkeys([key, value_col, order_col]))
    return bucketed_group_reduce(
        ds.select_columns(cols),
        [key], reduce_df, num_buckets, schema=schema)


def grouped_zscore(ds: "ray.data.Dataset", group_col: str, val_col: str,
                   out_col: str = "z") -> "ray.data.Dataset":
    """Population z-score of ``val_col`` within each group, appended as
    ``out_col`` — the per-language/per-source feature normalization op.

    Two passes: per-batch (group, n, Σv, Σv²) partials reduce to one tiny
    stats table (|groups| rows), which left-joins back by group through
    ``ops/join.py::auto_join`` (broadcast while small, co-grouped above
    its size constant); one map then computes z. A null group is its own
    group, like SQL's ``PARTITION BY``. Zero-variance groups emit z = 0."""
    from ray.data.aggregate import Sum

    from .join import auto_join

    def partial(t: pa.Table) -> pa.Table:
        v = pc.cast(t[val_col], pa.float64()).to_numpy(zero_copy_only=False)
        g = t[group_col].to_pandas()
        d = pd.DataFrame({"g": g, "n": 1, "s": v, "ss": v * v})
        agg = d.groupby("g", as_index=False, dropna=False).sum()
        return pa.Table.from_pandas(agg, preserve_index=False)

    def mean_std(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        s = t["s"].to_numpy(zero_copy_only=False)
        ss = t["ss"].to_numpy(zero_copy_only=False)
        mean = s / n
        std = np.sqrt(np.maximum(ss / n - mean * mean, 0.0))
        return pa.table({group_col: t["g"],
                         "__mean": pa.array(mean, pa.float64()),
                         "__std": pa.array(std, pa.float64())})

    stats = (ds.select_columns([group_col, val_col])
             .map_batches(partial, batch_format="pyarrow")
             .groupby("g").aggregate(Sum("n", alias_name="n"),
                                     Sum("s", alias_name="s"),
                                     Sum("ss", alias_name="ss"))
             .map_batches(mean_std, batch_format="pyarrow"))

    def z(t: pa.Table) -> pa.Table:
        v = pc.cast(t[val_col], pa.float64()).to_numpy(zero_copy_only=False)
        mean = t["__mean"].to_numpy(zero_copy_only=False)
        std = t["__std"].to_numpy(zero_copy_only=False)
        z = np.where(std > 0, (v - mean) / np.where(std > 0, std, 1), 0.0)
        return t.drop_columns(["__mean", "__std"]).append_column(
            out_col, pa.array(z, pa.float64()))

    return auto_join(ds, stats, [group_col], how="left").map_batches(
        z, batch_format="pyarrow")


def winsorize(ds: "ray.data.Dataset", value_col: str,
              lo_q: float = 0.05, hi_q: float = 0.95,
              out_col: str = "w") -> "ray.data.Dataset":
    """Clip ``value_col`` to its corpus-wide [lo_q, hi_q] quantiles —
    the outlier-robust normalization pass. Bounds come from
    :func:`exact_quantiles` (multi-pass radix selection, O(65536)
    driver state, no sort); the clip itself is a pure map — two cheap
    passes total, nothing ever shuffles."""
    qdf = exact_quantiles(ds, value_col, (lo_q, hi_q))
    lo, hi = (float(v) for v in qdf["value"])

    def clip(t: pa.Table) -> pa.Table:
        v = pc.cast(t[value_col], pa.float64())
        w = pc.min_element_wise(pc.max_element_wise(v, lo), hi)
        return t.append_column(out_col, w)

    return ds.map_batches(clip, batch_format="pyarrow")


def profile_table(ds: "ray.data.Dataset",
                  columns: Optional[Sequence[str]] = None
                  ) -> "ray.data.Dataset":
    """Table profile (ANALYZE TABLE / ``describe``): one row per column
    with ``(column, n, nulls, min_v, max_v, mean_v, min_s, max_s)`` —
    numeric columns fill the ``*_v`` slots (min/max/mean as doubles),
    string columns the lexicographic ``*_s`` slots; other types profile
    counts only. One pass: each batch collapses to |columns| partial
    rows, a tiny column-keyed groupby finishes — column count, not row
    count, rides the shuffle."""
    from ray.data.aggregate import Max, Min, Sum

    sch = ds.schema()
    named = dict(zip(sch.names, sch.types))
    cols = list(columns) if columns else list(sch.names)

    def partial(t: pa.Table) -> pa.Table:
        rows = {"column": [], "n": [], "nulls": [], "min_v": [],
                "max_v": [], "sum_v": [], "min_s": [], "max_s": []}
        for c in cols:
            col = t[c]
            rows["column"].append(c)
            rows["n"].append(len(col))
            rows["nulls"].append(col.null_count)
            typ = col.type
            if pa.types.is_integer(typ) or pa.types.is_floating(typ) \
                    or pa.types.is_decimal(typ):
                v = pc.cast(col, pa.float64())
                mn, mx, sm = pc.min(v).as_py(), pc.max(v).as_py(), \
                    pc.sum(v).as_py()
                rows["min_v"].append(mn)
                rows["max_v"].append(mx)
                rows["sum_v"].append(sm if sm is not None else 0.0)
                rows["min_s"].append(None)
                rows["max_s"].append(None)
            elif pa.types.is_string(typ) or pa.types.is_large_string(typ):
                rows["min_v"].append(None)
                rows["max_v"].append(None)
                rows["sum_v"].append(None)
                rows["min_s"].append(pc.min(col).as_py())
                rows["max_s"].append(pc.max(col).as_py())
            else:
                for k in ("min_v", "max_v", "sum_v", "min_s", "max_s"):
                    rows[k].append(None)
        return pa.table({
            "column": pa.array(rows["column"], pa.string()),
            "n": pa.array(rows["n"], pa.int64()),
            "nulls": pa.array(rows["nulls"], pa.int64()),
            "min_v": pa.array(rows["min_v"], pa.float64()),
            "max_v": pa.array(rows["max_v"], pa.float64()),
            "sum_v": pa.array(rows["sum_v"], pa.float64()),
            "min_s": pa.array(rows["min_s"], pa.string()),
            "max_s": pa.array(rows["max_s"], pa.string())})

    agg = (ds.select_columns(cols)
           .map_batches(partial, batch_format="pyarrow")
           .groupby("column")
           .aggregate(Sum("n", alias_name="n"),
                      Sum("nulls", alias_name="nulls"),
                      Min("min_v", alias_name="min_v"),
                      Max("max_v", alias_name="max_v"),
                      Sum("sum_v", alias_name="sum_v"),
                      Min("min_s", alias_name="min_s"),
                      Max("max_s", alias_name="max_s")))

    def finish(t: pa.Table) -> pa.Table:
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.float64)
        nulls = t["nulls"].to_numpy(zero_copy_only=False).astype(np.float64)
        # all-null group columns can surface as null-typed/object blocks —
        # pin everything to Arrow float64/string before numpy sees it
        fsum = pc.cast(t["sum_v"], pa.float64())
        sums = fsum.to_numpy(zero_copy_only=False).astype(np.float64)
        valid = np.maximum(n - nulls, 1.0)
        mean = np.where(np.isnan(sums), np.nan, sums / valid)
        mean = pa.array([None if np.isnan(m) else float(m) for m in mean],
                        pa.float64())   # NaN → null (cast-to-int safe)
        return pa.table({
            "column": pc.cast(t["column"], pa.string()),
            "n": pc.cast(t["n"], pa.int64()),
            "nulls": pc.cast(t["nulls"], pa.int64()),
            "min_v": pc.cast(t["min_v"], pa.float64()),
            "max_v": pc.cast(t["max_v"], pa.float64()),
            "mean_v": mean,
            "min_s": pc.cast(t["min_s"], pa.string()),
            "max_s": pc.cast(t["max_s"], pa.string())})

    return agg.map_batches(finish, batch_format="pyarrow")


def explode(ds: "ray.data.Dataset", list_col: str,
            id_cols: "Sequence[str]", pos_col: str = "pos",
            value_col: str = "value") -> "ray.data.Dataset":
    """UNNEST WITH ORDINALITY: one output row per list element with its
    0-based position, id columns repeated. Pure per-batch Arrow
    projection — zero shuffle, zero-copy flatten of the list child."""
    def f(t: pa.Table) -> pa.Table:
        col = t[list_col].combine_chunks()
        lens = pc.list_value_length(col).to_numpy(zero_copy_only=False)
        lens = np.nan_to_num(lens.astype(np.float64)).astype(np.int64)
        flat = col.flatten()
        pos = np.concatenate([np.arange(n, dtype=np.int64)
                              for n in lens]) if len(t) else \
            np.zeros(0, np.int64)
        cols = {c: t[c].take(pa.array(np.repeat(np.arange(len(t)), lens)))
                for c in id_cols}
        cols[pos_col] = pa.array(pos, pa.int64())
        cols[value_col] = flat
        return pa.table(cols)

    return ds.map_batches(f, batch_format="pyarrow")


def collect_list(ds: "ray.data.Dataset", key: str, pos_col: str,
                 value_col: str, out_col: str = "values",
                 num_buckets: int = 64) -> "ray.data.Dataset":
    """Inverse of :func:`explode`: per-key list ordered by ``pos_col``
    (SQL ``list(value ORDER BY pos)``). One key-bucketed reduce with a
    vectorized lexsort + ListArray re-assembly per bucket — the rows of a
    key must fit one bucket task (same contract as every keyed reduce
    here)."""
    from ..stages.common import bucketed_group_reduce, arrow_col_type
    vt = arrow_col_type(ds, value_col)
    kt = arrow_col_type(ds, key)
    schema = pa.schema([(key, kt), (out_col, pa.list_(vt))])

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([key, pos_col], kind="mergesort")
        g = df.groupby(key, sort=True)[value_col].agg(list)
        return pd.DataFrame({key: g.index, out_col: g.to_numpy()})

    return bucketed_group_reduce(ds, [key], fold, num_buckets,
                                 schema=schema)


def resample_by_weight(ds: "ray.data.Dataset", key: str, weight_col: str,
                       out_col: str = "rep") -> "ray.data.Dataset":
    """Deterministic importance resampling for corpus mixing: each row is
    repeated ``floor(w)`` times plus one more iff the row's pinned md5
    hash (same rule as ``hash_sample``) falls below the fractional part —
    expected multiplicity exactly ``w``, same decision on any worker/run/
    engine, no RNG state. Emits a 0-based ``out_col`` replica index so
    output rows are distinct. Pure map-side ``np.repeat`` — zero
    shuffle."""
    def f(t: pa.Table) -> pa.Table:
        w = pc.cast(t[weight_col], pa.float64()).to_numpy(
            zero_copy_only=False)
        base = np.floor(w)
        cut = np.floor((w - base) * 1_000_000 + 0.5).astype(np.uint64)
        h = _key_hash32(t[key].to_pylist()) % np.uint64(1_000_000)
        reps = (base + (h < cut)).astype(np.int64)
        reps = np.maximum(reps, 0)
        idx = np.repeat(np.arange(len(t)), reps)
        out = t.take(pa.array(idx))
        total = int(reps.sum())
        # vectorized within-row replica index: global position minus the
        # exclusive prefix sum of reps, repeated per emitted row
        rep = (np.arange(total, dtype=np.int64)
               - np.repeat(np.cumsum(reps) - reps, reps)) if total else \
            np.zeros(0, np.int64)
        return out.append_column(out_col, pa.array(rep, pa.int64()))

    return ds.map_batches(f, batch_format="pyarrow")


def grouped_quantiles_cont(ds: "ray.data.Dataset", key: str,
                           value_col: str,
                           qs: Sequence[float] = (0.25, 0.5, 0.75),
                           num_buckets: int = 64) -> "ray.data.Dataset":
    """Interpolated per-group quantiles with SQL ``quantile_cont``
    semantics: h = q*(n-1), result = v[floor(h)]*(1-frac(h)) +
    v[floor(h)+1]*frac(h) over the ascending-sorted values —
    bit-compatible with DuckDB/Postgres percentile_cont. Same co-grouped
    sort shape as :func:`grouped_quantiles` (nearest-rank)."""
    qcols = [f"q{int(round(q * 100)):02d}" for q in qs]

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        if len(df) == 0:
            return pd.DataFrame({key: [], **{c: [] for c in qcols},
                                 "n": []})
        df = df.sort_values([key, value_col], kind="stable")
        v = df[value_col].to_numpy(dtype=np.float64)
        k = df[key].to_numpy()
        new = np.empty(len(df), dtype=bool)
        new[0] = True
        new[1:] = k[1:] != k[:-1]
        starts = np.flatnonzero(new)
        ns = np.diff(np.append(starts, len(df)))
        out = {key: k[starts]}
        for q, c in zip(qs, qcols):
            h = q * (ns - 1)
            lo = np.floor(h).astype(np.int64)
            frac = h - lo
            hi = np.minimum(lo + 1, ns - 1)
            # DuckDB/Postgres interpolate as lo*(1-d) + hi*d — the
            # algebraically-equal lo + d*(hi-lo) differs by one ulp at
            # exact rounding boundaries (caught by the sf0.1 sweep)
            out[c] = (v[starts + lo] * (1.0 - frac)
                      + v[starts + hi] * frac)
        out["n"] = ns
        return pd.DataFrame(out)

    ktype = dict(zip(ds.schema().names, ds.schema().types))[key]
    schema = pa.schema([(key, ktype)] + [(c, pa.float64()) for c in qcols]
                       + [("n", pa.int64())])
    return bucketed_group_reduce(ds.select_columns([key, value_col]),
                                 [key], reduce_df, num_buckets,
                                 schema=schema)


def sample_n(ds: "ray.data.Dataset", key: str, n: int) -> "ray.data.Dataset":
    """Exactly-n deterministic global sample: the n rows with the
    smallest pinned md5 key hash (ties → smaller key) — the
    reservoir-sampling replacement that is reproducible across runs,
    workers, and engines. Each batch forwards only its local n smallest
    (hash, key) rows, so the final sort sees <= blocks*n rows."""
    def local_n(t: pa.Table) -> pa.Table:
        h = _key_hash32(t[key].to_pylist()).astype(np.int64)
        t = t.append_column("__h", pa.array(h, pa.int64()))
        order = np.lexsort((t[key].to_numpy(zero_copy_only=False), h))[:n]
        return t.take(pa.array(order))

    return (ds.map_batches(local_n, batch_format="pyarrow")
            .sort(["__h", key]).limit(n).drop_columns(["__h"]))


def grouped_quantile_radix(ds: "ray.data.Dataset", key: str,
                           value_col: str, q: float = 0.5) -> "pd.DataFrame":
    """EXACT per-group quantile with NO co-location requirement — the
    scale path past :func:`grouped_quantiles` (which needs a group's rows
    to fit one bucket task). Same multi-pass radix selection as
    :func:`exact_quantiles`, run for every group simultaneously: four
    MSB-first 16-bit-digit passes; each pass broadcasts the per-group
    resolved prefixes and reduces per-(group, digit) counts. A group with
    10^12 rows costs the same driver state as a group with 10 rows.

    Driver/shuffle budget is O(|groups| x 65536) worst case per pass
    (per-batch combiner collapses to the batch's distinct (group, digit)
    pairs) — the right tool for FEW-to-moderate groups of ANY size;
    for millions of tiny groups use grouped_quantiles. Rank rule:
    floor(q*(n-1)+0.5), identical to grouped_quantiles / the SQL
    oracles."""
    import ray
    from ray.data.aggregate import Sum

    src = ds.select_columns([key, value_col])
    nrows = (src.map_batches(
        lambda t: pa.table({key: t[key],
                            "one": pa.array([1] * len(t), pa.int64())}),
        batch_format="pyarrow")
        .groupby(key).aggregate(Sum("one", alias_name="n")).take_all())
    garr = np.asarray(sorted(r[key] for r in nrows))
    nmap = {r[key]: int(r["n"]) for r in nrows}
    ns = np.array([nmap[g] for g in garr], dtype=np.int64)
    rank = np.floor(q * (ns - 1) + 0.5).astype(np.int64)
    prefix = np.zeros(len(garr), dtype=np.uint64)

    for p in range(4):
        shift = np.uint64(48 - 16 * p)
        pre_shift = np.uint64(64 - 16 * p)
        ref = ray.put((garr, prefix.copy()))

        def hist(batch: pa.Table, _ps=pre_shift, _sh=shift) -> pa.Table:
            ga, pref = ray.get(ref)
            gvals = np.asarray(batch[key].to_pylist())
            gidx = np.searchsorted(ga, gvals)
            v = batch[value_col].to_numpy(zero_copy_only=False)
            u = _f64_to_ordered_u64(np.asarray(v, dtype=np.float64))
            if _ps != np.uint64(64):
                keep = (u >> _ps) == pref[gidx]
                gidx, u = gidx[keep], u[keep]
            dig = ((u >> _sh) & np.uint64(0xFFFF)).astype(np.int64)
            df = pd.DataFrame({"g": gidx, "d": dig})
            c = df.groupby(["g", "d"], sort=False).size().reset_index(
                name="cnt")
            return pa.table({"g": pa.array(c["g"], pa.int32()),
                             "d": pa.array(c["d"], pa.int32()),
                             "cnt": pa.array(c["cnt"], pa.int64())})

        agg = (src.map_batches(hist, batch_format="pyarrow")
               .groupby(["g", "d"])
               .aggregate(Sum("cnt", alias_name="cnt")).take_all())
        per_g = {}
        for r in agg:
            per_g.setdefault(r["g"], {})[r["d"]] = r["cnt"]
        for gi in range(len(garr)):
            c = per_g.get(gi, {})
            acc = 0
            for d in sorted(c):
                if acc + c[d] > rank[gi]:
                    prefix[gi] = (prefix[gi] << np.uint64(16)) | np.uint64(d)
                    rank[gi] = rank[gi] - acc
                    break
                acc += c[d]

    return pd.DataFrame({
        key: garr,
        "q_value": [_ordered_u64_to_f64(int(x)) for x in prefix],
        "n": ns})


def grouped_means(ds: "ray.data.Dataset", key: str, value_col: str,
                  num_buckets: int = 64) -> "ray.data.Dataset":
    """Per-group arithmetic, geometric, and harmonic means in one
    combiner pass: each batch emits (n, Σv, Σln v, Σ1/v) partials per
    key, the keyed reduce finishes the arithmetic. Values must be
    positive for the geometric/harmonic terms (rows ≤ 0 raise — a wrong
    silent NaN is worse at scale)."""
    def partial(t: pa.Table) -> pa.Table:
        import pandas as pd
        v = pc.cast(t[value_col], pa.float64()).to_numpy(
            zero_copy_only=False)
        if (v <= 0).any():
            raise ValueError("grouped_means requires positive values")
        df = pd.DataFrame({key: t[key].to_pandas(), "v": v})
        g = df.groupby(key, sort=False)["v"].agg(
            n="size", s="sum",
            sl=lambda x: float(np.log(x.to_numpy()).sum()),
            si=lambda x: float((1.0 / x.to_numpy()).sum()))
        g = g.reset_index()
        return pa.table({key: pa.array(g[key]),
                         "n": pa.array(g["n"], pa.int64()),
                         "s": pa.array(g["s"], pa.float64()),
                         "sl": pa.array(g["sl"], pa.float64()),
                         "si": pa.array(g["si"], pa.float64())})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(key, as_index=False, sort=False).agg(
            n=("n", "sum"), s=("s", "sum"), sl=("sl", "sum"),
            si=("si", "sum"))
        g["mean_v"] = g["s"] / g["n"]
        g["geomean_v"] = np.exp(g["sl"] / g["n"])
        g["harmean_v"] = g["n"] / g["si"]
        return g[[key, "n", "mean_v", "geomean_v", "harmean_v"]]

    return bucketed_group_reduce(
        ds.select_columns([key, value_col]).map_batches(
            partial, batch_format="pyarrow"),
        [key], fold, num_buckets)


def validate_expectations(ds: "ray.data.Dataset",
                          rules: "Sequence[dict]",
                          num_buckets: int = 64) -> "pd.DataFrame":
    """Data-quality expectations over a table (the Great-Expectations
    primitive as an engine op) → one row per rule:
    ``(rule, column, n_checked, n_violations, passed)``.

    Rule dicts: ``{"type": "not_null", "col": c}`` |
    ``{"type": "in_range", "col": c, "lo": x, "hi": y}`` (inclusive) |
    ``{"type": "matches", "col": c, "pattern": re2}`` |
    ``{"type": "unique", "col": c}``.

    not_null/in_range/matches are one shared combiner pass (per-batch
    violation counts, tiny sum); unique adds one distinct-combiner
    count per named column. Nothing but counters leaves the workers."""
    from ray.data.aggregate import Sum

    from ..stages.common import distinct_on

    scan_rules = [r for r in rules if r["type"] != "unique"]
    uniq_rules = [r for r in rules if r["type"] == "unique"]

    rows = []
    if scan_rules:
        def partial(t: pa.Table) -> pa.Table:
            ids, checked, bad = [], [], []
            for i, r in enumerate(scan_rules):
                col = t[r["col"]]
                n = len(t)
                if r["type"] == "not_null":
                    v = col.null_count
                elif r["type"] == "in_range":
                    ok = pc.and_(
                        pc.greater_equal(col, pa.scalar(r["lo"])),
                        pc.less_equal(col, pa.scalar(r["hi"])))
                    v = n - pc.sum(pc.cast(ok, pa.int64())).as_py() \
                        if n else 0
                elif r["type"] == "matches":
                    ok = pc.match_substring_regex(col, r["pattern"])
                    v = n - pc.sum(pc.cast(ok, pa.int64())).as_py() \
                        if n else 0
                else:
                    raise ValueError(f"unknown rule {r['type']}")
                ids.append(i)
                checked.append(n)
                bad.append(int(v or 0))
            return pa.table({"rid": pa.array(ids, pa.int32()),
                             "n": pa.array(checked, pa.int64()),
                             "bad": pa.array(bad, pa.int64())})

        agg = (ds.map_batches(partial, batch_format="pyarrow")
               .groupby("rid").aggregate(Sum("n", alias_name="n"),
                                         Sum("bad", alias_name="bad")))
        got = {r["rid"]: r for r in agg.take_all()}
        for i, r in enumerate(scan_rules):
            g = got.get(i, {"n": 0, "bad": 0})
            rows.append((f'{r["type"]}', r["col"], int(g["n"]),
                         int(g["bad"]), int(g["bad"]) == 0))

    for r in uniq_rules:
        total = ds.count()
        dist = distinct_on(ds.select_columns([r["col"]]), [r["col"]],
                           num_buckets).count()
        rows.append(("unique", r["col"], total, total - dist,
                     total == dist))

    return pd.DataFrame(rows, columns=["rule", "column", "n_checked",
                                       "n_violations", "passed"])


def weighted_sample_n(ds: "ray.data.Dataset", key: str, id_col: str,
                      weight_col: str, n: int,
                      num_buckets: int = 64) -> "ray.data.Dataset":
    """Deterministic weighted sampling WITHOUT replacement: per group,
    the ``n`` rows with the largest Efraimidis-Spirakis keys
    ``u(id) ** (1/weight)``, where ``u(id)`` is a fixed uniform derived
    from ``md5(str(id))`` — no RNG state, so the sample is reproducible
    at any parallelism AND expressible in SQL (the DuckDB oracle computes
    the identical md5-derived uniform). Higher weight → higher inclusion
    probability; weights must be > 0.

    Scale shape: per-block partial top-n per group (the E-S key order is
    a max-heap property: the global top-n is contained in the union of
    per-block top-ns), then one group reduce over <= n x num_blocks rows
    per group. Ties (astronomically unlikely with 64-bit uniforms) break
    on id asc. → input columns of the winners plus ``es_key``.
    """
    import hashlib as _hl

    def es_key(ids) -> np.ndarray:
        u = np.array([int(_hl.md5(str(i).encode()).hexdigest()[:16], 16)
                      for i in ids], dtype=np.float64)
        return u / 18446744073709551616.0   # 2^64

    def partial(batch: pa.Table) -> pa.Table:
        df = pd.DataFrame({
            "k": batch[key].to_numpy(zero_copy_only=False),
            "i": batch[id_col].to_numpy(zero_copy_only=False),
            "w": batch[weight_col].to_numpy(zero_copy_only=False)
            .astype(np.float64)})
        df["es_key"] = es_key(df["i"]) ** (1.0 / df["w"].to_numpy())
        df = df.sort_values(["k", "es_key", "i"],
                            ascending=[True, False, True],
                            kind="mergesort")
        return pa.Table.from_pandas(
            df[df.groupby("k", sort=False).cumcount() < n],
            preserve_index=False)

    def topn(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["k", "es_key", "i"],
                            ascending=[True, False, True],
                            kind="mergesort")
        out = df[df.groupby("k", sort=False).cumcount() < n]
        return out.rename(columns={"k": key, "i": id_col,
                                   "w": weight_col})

    from ..stages.common import arrow_col_type
    schema = pa.schema([(key, arrow_col_type(ds, key)),
                        (id_col, arrow_col_type(ds, id_col)),
                        (weight_col, pa.float64()),
                        ("es_key", pa.float64())])
    return bucketed_group_reduce(
        ds.select_columns([key, id_col, weight_col]).map_batches(
            partial, batch_format="pyarrow"),
        ["k"], topn, num_buckets, schema=schema)


def temperature_mix(ds: "ray.data.Dataset", group_col: str, id_col: str,
                    alpha: float = 0.5,
                    target_total: int = 100_000) -> "ray.data.Dataset":
    """Temperature-based corpus mixing (the multinomial data-mixture rule
    of large-LM training sets): target take per group ∝ n_g^alpha
    (alpha < 1 upweights small sources), realized as a DETERMINISTIC
    per-row Bernoulli — keep iff md5-uniform(id) < min(1, t_g / n_g)
    where t_g = target_total · n_g^alpha / Σ n^alpha. No RNG state, so
    the same input yields the same subsample at any parallelism and the
    SQL oracle reproduces it exactly.

    Scale shape: one combiner-backed groupby for the group sizes (rows =
    |groups|, broadcast via closure — sources are few by contract), then
    a pure filter map. → input rows of the survivors.
    """
    import hashlib as _hl

    sizes = {r[group_col]: r["count()"]
             for r in ds.groupby(group_col).count().take_all()}
    denom = sum(n ** alpha for n in sizes.values())
    rates = {g: min(1.0, (target_total * (n ** alpha) / denom) / n)
             for g, n in sizes.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_pylist()
        gs = batch[group_col].to_pylist()
        u = np.array([int(_hl.md5(str(i).encode()).hexdigest()[:16], 16)
                      for i in ids], dtype=np.float64) / 2.0 ** 64
        r = np.array([rates.get(g, 0.0) for g in gs])
        return batch.filter(pa.array(u < r))

    return ds.map_batches(keep, batch_format="pyarrow")


def deterministic_shuffle(ds: "ray.data.Dataset", id_col: str,
                          seed: int = 0,
                          out_col: str = "shuffle_rank"
                          ) -> "ray.data.Dataset":
    """Reproducible global training-order shuffle: every row gets a
    dense 1-based ``shuffle_rank`` by sorting on
    ``md5(seed || '|' || id)`` (ties by id). Unlike
    ``Dataset.random_shuffle`` the order is a pure function of
    (seed, id) — identical on any run, worker count, or engine, so a
    resumed/re-run training job reads the same sequence, and different
    seeds give independent epoch orders. One range sort (the same
    distributed total-order machinery as global_row_number); the hash
    key is added map-side and dropped on output."""
    import hashlib

    def add_key(t: pa.Table) -> pa.Table:
        ids = t[id_col].to_pylist()
        h = [hashlib.md5(f"{seed}|{v}".encode()).hexdigest() for v in ids]
        return t.append_column("__shuf", pa.array(h, pa.string()))

    from .rank import global_row_number
    keyed = ds.map_batches(add_key, batch_format="pyarrow")
    ranked = global_row_number(keyed, ["__shuf", id_col], out_col=out_col)
    return ranked.drop_columns(["__shuf"])
