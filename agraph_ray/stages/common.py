"""Shared distributed-reduction utilities.

``bucketed_group_reduce`` is the workhorse pattern for keyed merges at high
key cardinality. Ray Data's ``groupby(key).map_groups(fn)`` invokes the
Python UDF once *per group* — at millions of tiny groups the interpreter
overhead dominates (observed: 197k relation_id groups → 200s). Instead we
hash rows into coarse buckets, ``sort`` on the bucket (every key lands in
one block) and run ONE vectorized pandas reduction per sorted block over
all its keys. Same shuffle as ``map_groups``, but no per-group (or
per-bucket) Python dispatch.
"""

from __future__ import annotations

from typing import Callable, List, Optional

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

BUCKET_COL = "__bucket"


def hash_frame(t: pa.Table, keys: List[str]) -> pd.DataFrame:
    """The pandas frame of ``t``'s ``keys`` that key hashes read. A null
    in an integer or bool key turns its block's pandas column into float
    / object, which hashes 1 and 1.0 apart: nulls are filled with the
    type's zero, so an equal key hashes equal in every block."""
    kt = t.select(keys)
    for i, c in enumerate(kt.columns):
        if c.null_count and (pa.types.is_integer(c.type)
                             or pa.types.is_boolean(c.type)):
            kt = kt.set_column(i, keys[i], pc.fill_null(
                c, pa.scalar(0).cast(c.type)))
    return kt.to_pandas()


def _add_bucket(keys: List[str], num_buckets: int):
    def add(t: pa.Table) -> pa.Table:
        # deterministic across processes (fixed pandas hash key); hash only
        # the key columns, keep the block itself zero-copy Arrow (pandas
        # object-dtype list columns defeat Ray's block size estimator).
        # Pandas schema metadata is dropped: it makes the schema
        # unhashable ("Failed to hash the schemas" in the sort).
        h = pd.util.hash_pandas_object(hash_frame(t, keys),
                                       index=False).to_numpy()
        return t.append_column(
            BUCKET_COL, pa.array((h % num_buckets).astype("int32"))
        ).replace_schema_metadata(None)
    return add


def bucketed_group_reduce(ds: "ray.data.Dataset", keys: List[str],
                          reduce_df: Callable[[pd.DataFrame], pd.DataFrame],
                          num_buckets: int = 64,
                          schema: Optional[pa.Schema] = None,
                          ) -> "ray.data.Dataset":
    """Hash ``keys`` into ``num_buckets`` buckets, sort on the bucket (all
    rows of a key land in one block) and apply ``reduce_df``, a vectorized
    pandas function, once per non-empty block. A call sees many keys, so
    ``reduce_df``'s own group-by on ``keys`` is load-bearing.

    ``num_buckets`` sets only the hash granularity the sort range-partitions
    on; the sort keeps the block count (hence per-task memory) of its input.
    When ``schema`` is given, each block's result is emitted as an Arrow
    table with that schema (exact block sizing, typed list columns), else
    with Ray's inferred types. Pandas schema metadata is dropped: it makes
    the schema unhashable ("Failed to hash the schemas" in Ray's concat).
    """
    from ray.data.block import BlockAccessor

    def per_block(df: pd.DataFrame):
        if len(df) == 0:
            return
        out = reduce_df(df.drop(columns=[BUCKET_COL]))
        if schema is None:
            out = BlockAccessor.for_block(out).to_arrow()
        elif len(out) == 0:
            # empty frames carry NaN-float dtypes that can't cast to
            # list/typed columns — emit the typed empty table directly
            out = schema.empty_table()
        else:
            out = pa.Table.from_pandas(out, schema=schema,
                                       preserve_index=False)
        yield out.replace_schema_metadata(None)

    return (ds.map_batches(_add_bucket(keys, num_buckets),
                           batch_format="pyarrow")
            .sort(BUCKET_COL)
            .map_batches(per_block, batch_format="pandas", batch_size=None))


def keyed_sum(ds: "ray.data.Dataset", keys: List[str],
              sum_cols: "dict[str, str]",
              key_schema: Optional[List[pa.Field]] = None,
              num_buckets: int = 64) -> "ray.data.Dataset":
    """Vectorized distributed SUM of ``sum_cols`` (in-name → out-name) per
    distinct ``keys`` tuple. Drop-in for the native
    ``groupby(keys).aggregate(Sum...)`` which does Python-level per-row
    partial merges (~15 us/row): the pandas path is ~50x faster at
    >10^4 distinct keys for the same one-shuffle plan."""
    in_cols = list(sum_cols)

    def sum_bucket(df: pd.DataFrame) -> pd.DataFrame:
        # dropna=False: the native Aggregate this replaces keeps a
        # null-key group; pandas' default would silently drop those rows
        out = df.groupby(keys, as_index=False, sort=False,
                         dropna=False)[in_cols].sum()
        # groupby surfaces the NA group's key as float NaN — restore
        # object dtype + None for string-ish keys so the Arrow block
        # carries a proper null instead of a type-changing NaN
        for k in keys:
            if df[k].dtype == object and (out[k].dtype != object
                                          or out[k].isna().any()):
                out[k] = out[k].astype(object).where(out[k].notna(), None)
        return out.rename(columns=sum_cols)

    schema = None
    if key_schema is not None:
        def _sum_type(col: str) -> pa.DataType:
            try:
                t = arrow_col_type(ds, col)
            except Exception:
                return pa.int64()
            return pa.float64() if pa.types.is_floating(t) else pa.int64()
        schema = pa.schema(list(key_schema) +
                           [pa.field(v, _sum_type(c)) for c, v in
                            sum_cols.items()])
    return bucketed_group_reduce(ds, keys, sum_bucket, num_buckets,
                                 schema=schema)


def distinct_on(ds: "ray.data.Dataset", keys: List[str],
                num_buckets: int = 64) -> "ray.data.Dataset":
    """Keep the first row per distinct key tuple (vectorized per bucket)."""
    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(keys, keep="first")
    return bucketed_group_reduce(ds, keys, reduce_df, num_buckets)


def arrow_col_type(ds: "ray.data.Dataset", col: str) -> pa.DataType:
    """Arrow type of a Dataset column. ``Dataset.schema().types`` can hold
    plain Python classes (e.g. ``str``) for simple-block datasets — fall
    back to the underlying Arrow schema, then to a Python-type map."""
    sch = ds.schema()
    t = dict(zip(sch.names, sch.types))[col]
    if isinstance(t, pa.DataType):
        return t
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base.field(col).type
    return {str: pa.string(), int: pa.int64(),
            float: pa.float64(), bool: pa.bool_()}.get(t, pa.string())
