"""Distributed joins: one merge kernel, two placements.

Ray 2.49's ``Dataset.join`` raises ``ArrowInvalid: No match for
FieldRef.Name`` when a hash partition on either side comes up empty
(its per-partition Arrow join probes a column on a zero-field empty
table — easy to hit with few rows or skewed keys), so the engine ships
its own join. Every keyed join (inner, left, right, full, semi, anti)
runs one pandas merge kernel, :func:`_merge`, in one of two placements:

- co-group (:func:`cogroup_join`): tag both sides, union, hash-partition
  by key into buckets, and run the kernel once per sorted block
  (``stages/common.py``). Shuffle volume equals a hash join's; per-task
  memory is one block.
- broadcast (:func:`broadcast_join`, and the hot keys of
  :func:`skew_join`): the right side is collected and ``ray.put`` once,
  and the kernel runs once per probe batch against it — the classic
  map-side join, zero shuffle. Inner, left, semi and anti only.

Duplicate keys, null keys and dtypes agree between the placements
because both run the same kernel. :func:`auto_join` is the one place
that picks a placement, from one size constant read on the driver once
per call:

- ``_BROADCAST_SIDE_BYTES`` (64 MB): :func:`auto_join` broadcasts a
  materialized right side up to it and co-groups above it (semi/anti on
  one key through ``ops/bloom.py::bloom_join``); :func:`skew_join`
  broadcasts the build rows of its hot keys up to it, and falls back to
  the plain co-group above it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from ..stages.common import bucketed_group_reduce

_SIDE = "__side"
_ROW = "__row"
_BROADCAST_SIDE_BYTES = 64 << 20


def _pa_type(t) -> pa.DataType:
    """Arrow type of a ``Dataset.schema()`` entry (pandas-block schemas
    hold numpy dtypes; anything unmappable reads as string)."""
    if isinstance(t, pa.DataType):
        return t
    try:
        return pa.from_numpy_dtype(t)
    except (pa.ArrowNotImplementedError, TypeError):
        return pa.string()


def _types(ds: "ray.data.Dataset") -> dict:
    sch = ds.schema()
    return {n: _pa_type(t) for n, t in zip(sch.names, sch.types)}


def _plan(ltypes: dict, rtypes: dict, right: "ray.data.Dataset",
          on: List[str], how: str):
    """(right with its keys cast to the left's key types, output schema),
    from both sides' ``_types``.

    Key dtypes must agree on both sides: the bucket assignment hashes the
    raw values, so an int32 key and an int64 key with equal values would
    land in different buckets and silently drop matches."""
    import pyarrow.compute as pc
    overlap = (set(ltypes) & set(rtypes)) - set(on)
    if overlap:
        raise ValueError(f"non-key columns overlap: {sorted(overlap)}")
    if any(ltypes[k] != rtypes[k] for k in on):
        def cast_keys(t: pa.Table) -> pa.Table:
            for k in on:
                t = t.set_column(t.schema.get_field_index(k), k,
                                 pc.cast(t[k], ltypes[k]))
            return t
        right = right.map_batches(cast_keys, batch_format="pyarrow")
    fields = list(ltypes.items())
    if how not in ("semi", "anti"):
        fields += [(n, t) for n, t in rtypes.items() if n not in on]
    return right, pa.schema(fields)


def _merge(l: pd.DataFrame, r: pd.DataFrame, on: List[str], how: str,
           schema: pa.Schema) -> pd.DataFrame:
    """The join kernel both placements run: ``l`` ⋈ ``r`` on ``on``.
    ``how``: inner | left | right | full | semi | anti (left-anti).
    Null keys match each other (pandas merge semantics) on both sides."""
    if how in ("semi", "anti"):
        keys = r[on].drop_duplicates()
        if how == "semi":
            return l.merge(keys, on=on, how="inner")
        m = l.merge(keys, on=on, how="left", indicator=True)
        return m[m["_merge"] == "left_only"].drop(columns=["_merge"])
    if how not in ("inner", "left", "right", "full"):
        raise ValueError(f"unknown how={how!r}")
    out = l.merge(r, on=on, how="outer" if how == "full" else how)
    # unmatched rows surface the other side's columns as NaN, which
    # silently promotes ints to float64 — restore the schema's
    # integer/bool types via nullable dtypes
    for f in schema:
        if f.name in out.columns and out[f.name].dtype.kind == "f":
            if pa.types.is_integer(f.type):
                out[f.name] = out[f.name].astype(
                    str(f.type).capitalize().replace("Uint", "UInt"))
            elif pa.types.is_boolean(f.type):
                out[f.name] = out[f.name].astype("boolean")
    return out


def cogroup_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
                 on: Sequence[str], how: str = "inner",
                 num_buckets: int = 64,
                 schema: Optional[pa.Schema] = None) -> "ray.data.Dataset":
    """The co-group placement: join two Datasets on ``on`` columns,
    running :func:`_merge` once per bucketed block. ``how``: inner | left
    | right | full | semi | anti (left-anti). Non-key column names must
    be disjoint. Outer variants emit NULL for the absent side's columns
    (integer columns pass through pandas' nullable Int dtypes so the
    pinned Arrow schema keeps its integer types instead of drifting to
    float)."""
    import ray.data as rd
    on = list(on)
    ltypes, rtypes = _types(left), _types(right)
    right, derived = _plan(ltypes, rtypes, right, on, how)
    # derived when not given, so even a zero-match join yields typed,
    # named columns (a groupby over zero rows produces zero blocks and the
    # result would otherwise lose its schema entirely)
    schema = derived if schema is None else schema

    lval = [c for c in ltypes if c not in on]
    rval = [c for c in rtypes if c not in on]
    # Ray's sort concat cannot align blocks of which only some carry an
    # extension-typed (tensor) column: such columns ride the shuffle as
    # their storage arrays and get their type back at the end
    ext = {f.name: f.type for f in schema
           if isinstance(f.type, pa.ExtensionType)}
    shuffled = pa.schema([(f.name, ext[f.name].storage_type)
                          if f.name in ext else f for f in schema])

    def tag(side: str):
        def f(t: pa.Table) -> pa.Table:
            for i, fld in enumerate(t.schema):
                if isinstance(fld.type, pa.ExtensionType):
                    t = t.set_column(i, fld.name, pa.chunked_array(
                        [c.storage for c in t[fld.name].chunks],
                        fld.type.storage_type))
            return t.append_column(_SIDE, pa.array([side] * len(t)))
        return f

    def restore(t: pa.Table) -> pa.Table:
        for n, typ in ext.items():
            t = t.set_column(t.schema.get_field_index(n), n, pa.chunked_array(
                [pa.ExtensionArray.from_storage(typ, c)
                 for c in t[n].chunks], typ))
        return t

    both = (left.map_batches(tag("L"), batch_format="pyarrow")
            .union(right.map_batches(tag("R"), batch_format="pyarrow")))

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        # reindex: a bucket whose rows all come from one side never saw the
        # other side's columns (blocks keep their own schema through the
        # union) — the missing columns materialize as empty/NaN
        l = df[df[_SIDE] == "L"].reindex(columns=on + lval)
        r = df[df[_SIDE] == "R"].reindex(columns=on + rval)
        return _merge(l, r, on, how, schema)

    joined = bucketed_group_reduce(both, on, merge, num_buckets,
                                   schema=shuffled)
    if ext:
        joined = joined.map_batches(restore, batch_format="pyarrow")
    # a zero-row schema anchor: keeps column names/types on the result even
    # when no bucket emits anything (e.g. an anti-join with full coverage)
    return joined.union(rd.from_arrow(schema.empty_table()))


def _broadcast(left: "ray.data.Dataset", right: "ray.data.Dataset",
               on: List[str], how: str) -> "ray.data.Dataset":
    """The broadcast placement: ``right`` is collected and ``ray.put``
    once as Arrow; each probe batch casts its keys to the batch's key
    types (as the co-group casts them to the left's) and runs
    :func:`_merge` on the batch's key columns plus a row index, then takes
    its matched rows in Arrow, so the probe side's other columns never
    leave Arrow and its schema is never probed. inner | left | semi |
    anti."""
    import pyarrow.compute as pc
    if how not in ("inner", "left", "semi", "anti"):
        raise ValueError(f"broadcast placement cannot run how={how!r}")
    parts = [t for t in ray.get(right.to_arrow_refs()) if len(t)]
    side = (pa.concat_tables(parts, promote_options="default") if parts
            else pa.schema(list(_types(right).items())).empty_table())
    if how in ("semi", "anti"):
        side = side.select(on).group_by(on).aggregate([])
    side = side.replace_schema_metadata(None)
    rval = [f for f in side.schema if f.name not in on]
    ref = ray.put(side)

    def probe(t: pa.Table) -> pa.Table:
        overlap = {f.name for f in rval} & set(t.column_names)
        if overlap:
            raise ValueError(f"non-key columns overlap: {sorted(overlap)}")
        r = ray.get(ref)
        for k in on:
            if r[k].type != t[k].type:
                r = r.set_column(r.schema.get_field_index(k), k,
                                 pc.cast(r[k], t[k].type))
        l = t.select(on).to_pandas()
        l[_ROW] = np.arange(len(t))
        out = _merge(l, r.to_pandas(), on, how, r.schema)
        res = t.take(pa.array(out[_ROW].to_numpy(np.int64)))
        for f in rval:
            res = res.append_column(f, pa.Array.from_pandas(
                out[f.name], type=f.type))
        return res.replace_schema_metadata(None)

    return left.map_batches(probe, batch_format="pyarrow")


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
    import pyarrow.compute as _pc
    import ray.data as rd

    lschema, rschema = left.schema(), right.schema()
    lcols = lschema.names
    rcols = [c for c in rschema.names if c != right_by]
    overlap = set(lcols) & set(rcols)
    if overlap:
        raise ValueError(f"non-key columns overlap: {sorted(overlap)}")

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
    with bounded heavy-hitter counting, no full shuffle) are joined in the
    broadcast placement against the build rows for JUST those keys;
    everything else goes through the normal ``cogroup_join`` shuffle.

    This is the standard salting alternative for power-law keys: a single
    key with 10^9 probe rows would pin one co-group task for hours, while
    here its rows never shuffle at all — each probe block merges against
    the tiny broadcast build slice in place. Both placements run the same
    kernel, so mis-classifying a key merely moves it to the other (still
    correct) path; results are path-invariant.

    ``how``: inner | left. The broadcast slice is capped at
    ``_BROADCAST_SIDE_BYTES`` (falls back to the plain shuffle join above
    it).
    """
    if how not in ("inner", "left"):
        raise ValueError(f"skew_join supports inner/left, got {how!r}")
    import pyarrow.compute as _pc

    hh = heavy_hitter_keys(probe, on, k=max_hot)
    hot = sorted((k for k, c in hh.items() if c >= hot_threshold), key=str)
    if not hot:
        return cogroup_join(probe, build, on=[on], how=how,
                            num_buckets=num_buckets)

    hot_arr = pa.array(hot)

    def _hot_mask(t: pa.Table):
        vs = hot_arr if hot_arr.type.equals(t.column(on).type) \
            else hot_arr.cast(t.column(on).type)
        return _pc.is_in(t[on], value_set=vs)

    def only_hot(t: pa.Table) -> pa.Table:
        return t.filter(_hot_mask(t))

    def only_cold(t: pa.Table) -> pa.Table:
        return t.filter(_pc.invert(_hot_mask(t)))

    # build rows for the hot keys only — by construction a tiny slice
    # (|hot| dimension keys); a probe-hot key with zero build rows leaves
    # it empty, and its probe rows inner-drop / left-null as in the shuffle
    build_hot = build.map_batches(only_hot,
                                  batch_format="pyarrow").materialize()
    if build_hot.size_bytes() > _BROADCAST_SIDE_BYTES:
        return cogroup_join(probe, build, on=[on], how=how,
                            num_buckets=num_buckets)
    hot_joined = _broadcast(probe.map_batches(only_hot,
                                              batch_format="pyarrow"),
                            build_hot, [on], how)
    cold_probe = probe.map_batches(only_cold, batch_format="pyarrow")
    # inner: hot build rows can never match a cold probe row, prune them
    # from the shuffle too; left: same, cold probe keys are disjoint
    cold_build = build.map_batches(only_cold, batch_format="pyarrow")
    _, schema = _plan(_types(probe), _types(build), build, [on], how)
    cold_joined = cogroup_join(cold_probe, cold_build, on=[on], how=how,
                               num_buckets=num_buckets, schema=schema)
    return hot_joined.union(cold_joined)


def broadcast_join(probe: "ray.data.Dataset", build: "ray.data.Dataset",
                   on: str, columns: Sequence[str],
                   how: str = "inner") -> "ray.data.Dataset":
    """The broadcast placement, forced: ``build``'s ``columns`` joined
    onto ``probe`` by ``on`` with ``build`` (small) ``ray.put`` once.
    ``how`` inner drops probe rows without a match; left keeps them with
    nulls. A key repeated in ``build`` repeats its probe rows, as in any
    join."""
    return _broadcast(probe, build.select_columns([on] + list(columns)),
                      [on], how)


def auto_join(left: "ray.data.Dataset", right: "ray.data.Dataset",
              on: Sequence[str], how: str = "inner",
              num_buckets: int = 64) -> "ray.data.Dataset":
    """Adaptive join: the one place that picks a placement, from the
    materialized right side's bytes. Both placements run :func:`_merge`,
    so the choice never changes the result (pinned by test):

    - inner/left/semi/anti with a right side up to
      ``_BROADCAST_SIDE_BYTES`` → the broadcast placement (map-side,
      zero shuffle); semi/anti size only the right side's key columns;
    - semi/anti on one key above it → ``bloom_join`` (runtime filter:
      the shuffle carries only the bloom-positive slice);
    - everything else → ``cogroup_join``. Power-law keys: call
      ``skew_join`` directly — hot-key detection costs a pass, so it
      stays opt-in.
    """
    on = list(on)
    if how in ("semi", "anti"):
        right = right.select_columns(on)
    if how in ("inner", "left", "semi", "anti"):
        # materialize before the size probe: the size of a lazy right
        # side executes its whole upstream, and whichever join runs next
        # would execute it AGAIN
        right = right.materialize()
        if right.size_bytes() <= _BROADCAST_SIDE_BYTES:
            return _broadcast(left, right, on, how)
    if how in ("semi", "anti") and len(on) == 1:
        from .bloom import bloom_join
        # keys cast to the left's types first: the Bloom filter hashes them
        right, _ = _plan(_types(left), _types(right), right, on, how)
        return bloom_join(left, right, on[0], how=how,
                          num_buckets=num_buckets)
    return cogroup_join(left, right, on, how=how, num_buckets=num_buckets)
