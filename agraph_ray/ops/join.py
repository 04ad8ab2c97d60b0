"""Distributed joins as bucketed co-groups.

Ray 2.49's ``Dataset.join`` raises ``ArrowInvalid: No match for
FieldRef.Name`` when a hash partition on either side comes up empty
(its per-partition Arrow join probes a column on a zero-field empty
table — easy to hit with few rows or skewed keys), so the
engine ships its own partitioned-join primitive: tag both sides, union,
hash-partition by key into buckets, and run ONE vectorized pandas merge
per sorted block (``stages/common.py``). Shuffle volume equals a hash
join's; per-task memory is one block.

For small build sides prefer ``broadcast_join`` — ``ray.put`` the lookup
once and map over the probe side with zero shuffle (the classic
map-side/broadcast join).

Size constants, each read on the driver once per call:

- ``_BROADCAST_JOIN_ROWS`` (500k rows): :func:`auto_join` broadcasts a
  right side up to it, and co-groups above it;
- ``_HOT_BUILD_ROWS`` (2M rows): :func:`skew_join` broadcasts the build
  rows of its hot keys up to it, and falls back to the plain co-group
  above it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import pandas as pd
import pyarrow as pa
import ray

from ..stages.common import bucketed_group_reduce

_SIDE = "__side"
_BROADCAST_JOIN_ROWS = 500_000
_HOT_BUILD_ROWS = 2_000_000


def cogroup_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                 on: Sequence[str], how: str = "inner",
                 num_buckets: int = 64,
                 schema: Optional[pa.Schema] = None) -> "ray.data.Dataset":
    """Join two Datasets on ``on`` columns. ``how``: inner | left | right |
    full | semi | anti (left-anti). Non-key column names must be disjoint.
    Outer variants emit NULL for the absent side's columns (integer columns
    pass through pandas' nullable Int dtypes so the pinned Arrow schema
    keeps its integer types instead of drifting to float)."""
    import ray.data as rd
    on = list(on)
    lschema = left.schema()
    rschema = right.schema()
    lcols, rcols = lschema.names, rschema.names
    overlap = (set(lcols) & set(rcols)) - set(on)
    if overlap:
        raise ValueError(f"non-key columns overlap: {sorted(overlap)}")

    # key dtypes must agree on both sides: the bucket assignment hashes the
    # raw values, so an int32 key and an int64 key with equal values would
    # land in different buckets and silently drop matches. Cast the right
    # side's keys to the left side's Arrow types up front.
    def _as_pa(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    lkey_types = {n: _as_pa(t) for n, t in zip(lschema.names, lschema.types)
                  if n in on}
    rkey_types = {n: _as_pa(t) for n, t in zip(rschema.names, rschema.types)
                  if n in on}
    if lkey_types != rkey_types:
        def cast_keys(t: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc
            for k, typ in lkey_types.items():
                i = t.schema.get_field_index(k)
                t = t.set_column(i, k, _pc.cast(t[k], typ))
            return t
        right = right.map_batches(cast_keys, batch_format="pyarrow")

    if schema is None:
        # derive the output schema so even a zero-match join yields typed,
        # named columns (a groupby over zero rows produces zero blocks and
        # the result would otherwise lose its schema entirely)
        def _pa_type(t):
            if isinstance(t, pa.DataType):
                return t
            try:
                return pa.from_numpy_dtype(t)   # pandas-block schemas
            except (pa.ArrowNotImplementedError, TypeError):
                return pa.string()

        ltypes = dict(zip(lschema.names, lschema.types))
        rtypes = dict(zip(rschema.names, rschema.types))
        fields = [(n, _pa_type(ltypes[n])) for n in lcols]
        if how in ("inner", "left", "right", "full"):
            fields += [(n, _pa_type(rtypes[n]))
                       for n in rcols if n not in on]
        schema = pa.schema(fields)

    def tag(side: str):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column(_SIDE, pa.array([side] * len(t)))
        return f

    both = (left.map_batches(tag("L"), batch_format="pyarrow")
            .union(right.map_batches(tag("R"), batch_format="pyarrow")))

    rval = [c for c in rcols if c not in on]
    lval = [c for c in lcols if c not in on]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # reindex: a bucket whose rows all come from one side never saw the
        # other side's columns (blocks keep their own schema through the
        # union) — the missing columns materialize as empty/NaN
        l = df[df[_SIDE] == "L"].reindex(columns=on + lval)
        r = df[df[_SIDE] == "R"].reindex(columns=on + rval)
        if how == "inner":
            return l.merge(r, on=on, how="inner")
        if how == "left":
            return l.merge(r, on=on, how="left")
        if how in ("right", "full"):
            out = l.merge(r, on=on,
                          how="right" if how == "right" else "outer")
            # unmatched rows surface the other side's columns as NaN,
            # which silently promotes ints to float64 — restore the
            # pinned schema's integer/bool types via nullable dtypes
            for f in schema:
                if f.name in out.columns:
                    d = out[f.name].dtype
                    if d == "float64" or d == "float32":
                        if pa.types.is_integer(f.type):
                            out[f.name] = out[f.name].astype(
                                str(f.type).capitalize().replace(
                                    "Uint", "UInt"))
                        elif pa.types.is_boolean(f.type):
                            out[f.name] = out[f.name].astype("boolean")
            return out
        if how == "semi":
            keys = r[on].drop_duplicates()
            return l.merge(keys, on=on, how="inner")
        if how == "anti":
            keys = r[on].drop_duplicates()
            m = l.merge(keys, on=on, how="left", indicator=True)
            return m[m["_merge"] == "left_only"].drop(columns=["_merge"])
        raise ValueError(f"unknown how={how!r}")

    joined = bucketed_group_reduce(both, on, merge, num_buckets,
                                   schema=schema)
    # a zero-row schema anchor: keeps column names/types on the result even
    # when no bucket emits anything (e.g. an anti-join with full coverage)
    return joined.union(rd.from_arrow(schema.empty_table()))


def asof_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              left_on: str, right_on: str,
              left_by: str, right_by: str,
              tie_break: Optional[str] = None,
              direction: str = "backward",
              num_buckets: int = 64) -> "ray.data.Dataset":
    """Distributed as-of join: for each left row, attach the right row
    sharing the ``by`` key with the greatest ``right_on`` <= ``left_on``
    (``direction='backward'``; ``'forward'`` = least >=). Left-join
    semantics — unmatched left rows keep nulls.

    Ray Data has no asof primitive; this is the bucketed co-group
    composition: both sides hash-partition by the equality key (the right
    side's key renamed/cast to the left's), and each bucket runs ONE
    vectorized ``pd.merge_asof`` — the same partitioning assumption as
    ``cogroup_join`` (all rows of one ``by`` key co-located; skew bounded
    by the hottest single key).

    ``tie_break``: right column sorted ascending before the asof pick, so
    equal ``right_on`` values resolve to the row with its maximum —
    deterministic output (plain merge_asof tie order is input order).
    """
    import numpy as np
    import pyarrow.compute as _pc
    import ray.data as rd

    if direction not in ("backward", "forward"):
        raise ValueError(f"unknown direction={direction!r}")
    lschema, rschema = left.schema(), right.schema()
    lcols = lschema.names
    rcols = [c for c in rschema.names if c != right_by]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"non-key columns overlap: {sorted(overlap)}")

    def _pa_type(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    by_type = _pa_type(ltypes[left_by])
    fields = ([(n, _pa_type(ltypes[n])) for n in lcols]
              + [(n, _pa_type(rtypes[n])) for n in rcols])
    schema = pa.schema(fields)
    int_rcols = [n for n in rcols
                 if pa.types.is_integer(_pa_type(rtypes[n]))]

    def tag_l(t: pa.Table) -> pa.Table:
        return t.append_column(_SIDE, pa.array(["L"] * len(t)))

    def tag_r(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(right_by)
        t = t.set_column(i, left_by, _pc.cast(t[right_by], by_type))
        return t.append_column(_SIDE, pa.array(["R"] * len(t)))

    both = (left.map_batches(tag_l, batch_format="pyarrow")
            .union(right.map_batches(tag_r, batch_format="pyarrow")))

    # merge_asof picks the LAST qualifying row going backward and the FIRST
    # going forward; sorting ties ascending (backward) / descending
    # (forward) makes both resolve to the max tie_break value
    rsort = [right_on] + ([tie_break] if tie_break else [])
    rasc = [True] + ([direction == "backward"] if tie_break else [])
    lcols2 = [c for c in lcols if c != left_by]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        l = (df[df[_SIDE] == "L"].reindex(columns=[left_by] + lcols2)
             .sort_values(left_on, kind="stable"))
        r = (df[df[_SIDE] == "R"].reindex(columns=[left_by] + rcols)
             .sort_values(rsort, ascending=rasc, kind="stable"))
        if len(l) == 0:
            return l.reindex(columns=lcols + rcols)
        if len(r) == 0:
            out = l.reindex(columns=lcols + rcols)
        else:
            out = pd.merge_asof(l, r, left_on=left_on, right_on=right_on,
                                by=left_by, direction=direction)
            out = out.reindex(columns=lcols + rcols)
        for c in int_rcols:    # NaN-bearing ints -> arrow-safe nullables
            out[c] = out[c].astype("Int64")
        return out

    joined = bucketed_group_reduce(both, [left_by], merge, num_buckets,
                                   schema=schema)
    return joined.union(rd.from_arrow(schema.empty_table()))


def range_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
               left_by: str, right_by: str,
               left_on: str, right_on: str,
               before_us: int, after_us: int,
               num_buckets: int = 64) -> "ray.data.Dataset":
    """Distributed inner range join: pairs with equal ``by`` keys whose
    ``right_on`` falls in ``[left_on - before_us, left_on + after_us]``
    (inclusive both ends). Timestamp/date ``on`` columns are normalized to
    epoch microseconds (int64) in the output.

    Same partitioning contract as ``cogroup_join``/``asof_join`` (one
    ``by`` key's rows co-located per bucket); per bucket the matches are
    found with two ``searchsorted`` calls over the key-segmented right
    timeline and materialized with an output-sized ``np.repeat`` gather —
    never a per-key cross product, so per-task memory is
    O(bucket + matches)."""
    import numpy as np
    import pyarrow.compute as _pc
    import ray.data as rd

    lschema, rschema = left.schema(), right.schema()
    lcols = lschema.names
    rcols = [c for c in rschema.names if c != right_by]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"non-key columns overlap: {sorted(overlap)}")

    def _pa_type(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    ltypes = dict(zip(lschema.names, lschema.types))
    rtypes = dict(zip(rschema.names, rschema.types))
    by_type = _pa_type(ltypes[left_by])

    def _norm_us(col: "pa.ChunkedArray") -> "pa.ChunkedArray":
        t = col.type
        if pa.types.is_date(t):
            col = _pc.cast(col, pa.timestamp("us"))
        elif pa.types.is_timestamp(t) and t.unit != "us":
            col = _pc.cast(col, pa.timestamp("us", tz=t.tz))
        return _pc.cast(col, pa.int64())

    def _out_type(name, types):
        t = _pa_type(types[name])
        if name in (left_on, right_on) and (
                pa.types.is_date(t) or pa.types.is_timestamp(t)):
            return pa.int64()
        return t

    fields = ([(n, _out_type(n, ltypes)) for n in lcols]
              + [(n, _out_type(n, rtypes)) for n in rcols])
    schema = pa.schema(fields)

    def tag_l(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(left_on)
        t = t.set_column(i, left_on, _norm_us(t[left_on]))
        return t.append_column(_SIDE, pa.array(["L"] * len(t)))

    def tag_r(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index(right_on)
        t = t.set_column(i, right_on, _norm_us(t[right_on]))
        i = t.schema.get_field_index(right_by)
        t = t.set_column(i, left_by, _pc.cast(t[right_by], by_type))
        return t.append_column(_SIDE, pa.array(["R"] * len(t)))

    both = (left.map_batches(tag_l, batch_format="pyarrow")
            .union(right.map_batches(tag_r, batch_format="pyarrow")))
    lcols2 = [c for c in lcols if c != left_by]

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(columns=lcols + rcols)
        l = df[df[_SIDE] == "L"].reindex(columns=[left_by] + lcols2)
        r = df[df[_SIDE] == "R"].reindex(columns=[left_by] + rcols)
        if len(l) == 0 or len(r) == 0:
            return empty
        codes, _ = pd.factorize(
            pd.concat([l[left_by], r[left_by]], ignore_index=True),
            sort=False)
        lk = codes[:len(l)].astype(np.int64)
        rk = codes[len(l):].astype(np.int64)
        lts = l[left_on].to_numpy(dtype=np.int64)
        rts = r[right_on].to_numpy(dtype=np.int64)
        t0 = min(lts.min(), rts.min())
        big = np.int64(max(lts.max(), rts.max()) - t0) + before_us \
            + after_us + 1
        n_keys = codes.max() + 1
        if int(n_keys) * int(big) >= (1 << 62):   # would overflow int64
            raise ValueError("range_join: key-count x time-span too large "
                             "for segment offsets; reduce the time span or "
                             "pre-bucket by coarse time")
        r_adj = rk * big + (rts - t0)
        order = np.argsort(r_adj, kind="stable")
        r_adj = r_adj[order]
        l_base = lk * big + (lts - t0)
        lo = np.searchsorted(r_adj, l_base - before_us, side="left")
        hi = np.searchsorted(r_adj, l_base + after_us, side="right")
        counts = hi - lo
        total = int(counts.sum())
        if total == 0:
            return empty
        li = np.repeat(np.arange(len(l), dtype=np.int64), counts)
        offs = np.arange(total, dtype=np.int64) - np.repeat(
            np.cumsum(counts) - counts, counts)
        ri = order[np.repeat(lo, counts) + offs]
        out = pd.concat(
            [l.iloc[li].reset_index(drop=True),
             r.iloc[ri].drop(columns=[left_by]).reset_index(drop=True)],
            axis=1)
        return out.reindex(columns=lcols + rcols)

    joined = bucketed_group_reduce(both, [left_by], merge, num_buckets,
                                   schema=schema)
    return joined.union(rd.from_arrow(schema.empty_table()))


def heavy_hitter_keys(ds: "ray.data.Dataset", on: str, k: int = 64,
                      cap: int = 8192) -> dict:
    """Bounded heavy-hitter counts over one column: per-block value_counts
    accumulated into a dict pruned to the ``cap`` largest entries
    (Misra-Gries flavor — counts of surviving keys are exact-or-under,
    state is O(cap) regardless of cardinality, so the reduce never holds
    the full key domain). Returns {key: count} for the top ``k``."""
    import pickle

    from ray.data.aggregate import AggregateFn

    # the accumulator rides Ray blocks as an explicit bytes payload: a
    # raw dict (int keys) fails Arrow conversion and hits the slow
    # throw-and-pickle fallback on every emission
    def _prune(d: dict) -> dict:
        if len(d) <= cap:
            return d
        return dict(sorted(d.items(), key=lambda x: -x[1])[:cap])

    def acc_block(acc: bytes, block) -> bytes:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(
            block)
        if len(t) == 0:
            return acc
        vc = t[on].to_pandas().value_counts()   # vectorized count per block
        out = pickle.loads(acc) if acc else {}
        for key, c in vc.items():
            out[key] = out.get(key, 0) + int(c)
        return pickle.dumps(_prune(out))

    def merge(a: bytes, b: bytes) -> bytes:
        out = pickle.loads(a) if a else {}
        for key, c in (pickle.loads(b) if b else {}).items():
            out[key] = out.get(key, 0) + c
        return pickle.dumps(_prune(out))

    raw = ds.select_columns([on]).aggregate(AggregateFn(
        init=lambda _k: b"", accumulate_block=acc_block, merge=merge,
        name="hh"))["hh"]
    counts = pickle.loads(raw) if raw else {}
    top = sorted(counts.items(), key=lambda x: (-x[1], str(x[0])))[:k]
    return dict(top)


def skew_join(probe: "ray.data.Dataset", build: "ray.data.Dataset",
              on: str, how: str = "inner", num_buckets: int = 64,
              max_hot: int = 32,
              hot_threshold: int = 1_000_000) -> "ray.data.Dataset":
    """Skew-aware join: probe keys hotter than ``hot_threshold`` (found
    with bounded heavy-hitter counting, no full shuffle) are joined
    map-side against a broadcast of the build rows for JUST those keys;
    everything else goes through the normal ``cogroup_join`` shuffle.

    This is the standard salting alternative for power-law keys: a single
    key with 10^9 probe rows would pin one co-group task for hours, while
    here its rows never shuffle at all — each probe block merges against
    the tiny broadcast build slice in place. Both paths are exact, so
    mis-classifying a key merely moves it to the other (still correct)
    path; results are path-invariant.

    ``how``: inner | left. The broadcast slice is capped at
    ``_HOT_BUILD_ROWS`` (falls back to the plain shuffle join above it).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"skew_join supports inner/left, got {how!r}")
    import pyarrow.compute as _pc

    hh = heavy_hitter_keys(probe, on, k=max_hot)
    hot = sorted((k for k, c in hh.items() if c >= hot_threshold), key=str)
    if not hot:
        return cogroup_join(probe, build, on=[on], how=how,
                            num_buckets=num_buckets)

    # build rows for the hot keys only — by construction a tiny slice
    # (|hot| dimension keys), collected once and broadcast via ray.put
    hot_arr = pa.array(hot)

    def _hot_mask(t: pa.Table):
        vs = hot_arr if hot_arr.type.equals(t.column(on).type) \
            else hot_arr.cast(t.column(on).type)
        return _pc.is_in(t[on], value_set=vs)

    def only_hot(t: pa.Table) -> pa.Table:
        return t.filter(_hot_mask(t))

    def only_cold(t: pa.Table) -> pa.Table:
        return t.filter(_pc.invert(_hot_mask(t)))

    hot_batches = list(build.map_batches(only_hot, batch_format="pyarrow")
                       .iter_batches(batch_size=None, batch_format="pyarrow"))
    build_hot = (pa.concat_tables(hot_batches, promote_options="default")
                 if hot_batches else None)
    if build_hot is None:
        # a probe-hot key with zero build rows: empty build slice with the
        # build side's real schema (hot probe rows then inner-drop /
        # left-null exactly like the shuffle path would)
        def _bt(t):
            if isinstance(t, pa.DataType):
                return t
            try:
                return pa.from_numpy_dtype(t)
            except (pa.ArrowNotImplementedError, TypeError):
                return pa.string()
        bs = build.schema()
        build_hot = pa.schema(
            [(n, _bt(t)) for n, t in zip(bs.names, bs.types)]).empty_table()
    if len(build_hot) > _HOT_BUILD_ROWS:
        return cogroup_join(probe, build, on=[on], how=how,
                            num_buckets=num_buckets)
    bdf_ref = ray.put(build_hot.to_pandas())

    lschema, rschema = probe.schema(), build.schema()
    rval = [c for c in rschema.names if c != on]

    def _pa_type(t):
        if isinstance(t, pa.DataType):
            return t
        try:
            return pa.from_numpy_dtype(t)
        except (pa.ArrowNotImplementedError, TypeError):
            return pa.string()

    schema = pa.schema(
        [(n, _pa_type(t)) for n, t in zip(lschema.names, lschema.types)]
        + [(n, _pa_type(t)) for n, t in zip(rschema.names, rschema.types)
           if n != on])

    def hot_merge(t: pa.Table) -> pa.Table:
        t = only_hot(t)
        if len(t) == 0:
            return schema.empty_table()
        out = t.to_pandas().merge(ray.get(bdf_ref), on=on, how=how)
        for f in schema:        # left-join NaNs must not drift ints->float
            if how == "left" and f.name in rval and pa.types.is_integer(
                    f.type) and out[f.name].dtype.kind == "f":
                out[f.name] = out[f.name].astype(
                    str(f.type).capitalize().replace("Uint", "UInt"))
        return pa.Table.from_pandas(out, schema=schema,
                                    preserve_index=False)

    hot_joined = probe.map_batches(hot_merge, batch_format="pyarrow")
    cold_probe = probe.map_batches(only_cold, batch_format="pyarrow")
    # inner: hot build rows can never match a cold probe row, prune them
    # from the shuffle too; left: same, cold probe keys are disjoint
    cold_build = build.map_batches(only_cold, batch_format="pyarrow")
    cold_joined = cogroup_join(cold_probe, cold_build, on=[on], how=how,
                               num_buckets=num_buckets, schema=schema)
    return hot_joined.union(cold_joined)


def broadcast_join(probe: "ray.data.Dataset", build: "ray.data.Dataset",
                   on: str, columns: Sequence[str],
                   how: str = "inner") -> "ray.data.Dataset":
    """Map-side join: ``build`` (small) collected to a dict, ``ray.put``
    once, looked up per probe batch. ``columns`` = build columns to append.
    ``how`` inner drops probe rows without a match; left keeps them with
    nulls."""
    lookup = {}
    for b in build.select_columns([on] + list(columns)).iter_batches(
            batch_size=None, batch_format="pyarrow"):
        rows = b.to_pylist()
        for r in rows:
            lookup[r[on]] = tuple(r[c] for c in columns)
    ref = ray.put(lookup)

    def f(t: pa.Table) -> pa.Table:
        m = ray.get(ref)
        keys = t[on].to_pylist()
        hits = [m.get(k) for k in keys]
        if how == "inner":
            mask = pa.array([h is not None for h in hits])
            t = t.filter(mask)
            hits = [h for h in hits if h is not None]
        for i, c in enumerate(columns):
            t = t.append_column(
                c, pa.array([h[i] if h else None for h in hits]))
        return t

    return probe.map_batches(f, batch_format="pyarrow")


def auto_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              on: Sequence[str], how: str = "inner",
              num_buckets: int = 64) -> "ray.data.Dataset":
    """Adaptive join: pick the physical strategy from measured sizes —
    the engine-side version of a cost-based join planner. All strategies
    are exact, so the choice never changes the result (pinned by test):

    - semi/anti with any right side → ``bloom_join`` (runtime filter:
      the shuffle carries only the bloom-positive slice);
    - inner/left with a right side under ``_BROADCAST_JOIN_ROWS`` AND a single
      key column → ``broadcast_join`` (map-side, zero shuffle);
    - everything else → ``cogroup_join`` (tagged-union bucketed
      co-group). Power-law keys: call ``skew_join`` directly — hot-key
      detection costs a pass, so it stays opt-in.
    """
    on = list(on)
    if how in ("semi", "anti") and len(on) == 1:
        from .bloom import bloom_join
        return bloom_join(left, right.select_columns(on), on[0], how=how,
                          num_buckets=num_buckets)
    if how in ("inner", "left") and len(on) == 1:
        # materialize before the size probe: count() on a lazy right side
        # executes its whole upstream, and whichever join runs next would
        # execute it AGAIN
        right = right.materialize()
        if right.count() <= _BROADCAST_JOIN_ROWS:
            cols = [c for c in right.schema().names if c != on[0]]
            return broadcast_join(left, right, on[0], cols, how=how)
    return cogroup_join(left, right, on, how=how, num_buckets=num_buckets)
