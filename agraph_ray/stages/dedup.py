"""Stage D — exact dedup / merge.

Entities: ``mentions[kind=entity]`` → ``nodes`` keyed by ``norm_name``
(merge semantics of agraph/extractors/entity_extractor.py:93-125: union
aliases, keep max confidence and its description). The reference's
"first-encountered record wins the name/type" rule is encounter-order
dependent and therefore nondeterministic under distribution; we replace it
with a deterministic equivalent — the representative record is the one with
(max confidence, then lexicographically-smallest entity_type, then smallest
name) — and document the deviation (SURVEY.md §7.5 item 3). The fixture
gate compares normalized names, which are unaffected.

Edges: ``mentions[kind=triple]`` → ``edges`` keyed by ``relation_id`` (the
(head, type, tail) signature dedup of agraph/utils.py:431-452), keeping the
max-confidence witness and a mention count.

Scale shape: one orchestration, :func:`dedup_both`, dedups both kinds in a
single scan of the mentions. A *partial per-batch merge* (combiner) runs
first, so the final merge sees one row per key per batch instead of one
row per mention — the standard pre-aggregation pattern for hot-key-heavy
distributions (planted vocabulary entities appear in most conversations).
:func:`dedup_entities` and :func:`dedup_edges` are its per-kind views.

Size constant: ``_DRIVER_MERGE_BYTES`` (48 MB) — combined partials up to
it merge on the driver, larger ones in one bucketed reduce.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa

from ..config import KGConfig

NODES_SCHEMA = pa.schema([
    ("entity_id", pa.string()),
    ("name", pa.string()),            # normalized name (dedup key)
    ("display_name", pa.string()),
    ("entity_type", pa.string()),
    ("description", pa.string()),
    ("aliases", pa.list_(pa.string())),
    ("properties", pa.string()),      # JSON dict, null when empty
    ("confidence", pa.float64()),
    ("source", pa.string()),
    ("n_mentions", pa.int64()),
    ("n_convs", pa.int64()),
])


ENTITY_PARTIAL_SCHEMA = pa.schema([
    ("entity_id", pa.string()), ("name", pa.string()),
    ("norm_name", pa.string()), ("entity_type", pa.string()),
    ("description", pa.string()), ("aliases", pa.list_(pa.string())),
    ("properties", pa.string()),
    ("confidence", pa.float64()), ("source", pa.string()),
    ("n_mentions", pa.int64()), ("n_convs", pa.int64()),
    # exact distinct-conversation lineage: sorted-unique 64-bit HASHES
    # of the conv_ids seen so far (int arrays, not string lists — the
    # string form made the final single-task merge 4.3 s of serial wall
    # at 128k convs; the int unions/nunique below are pure lexsort/
    # reduceat numpy). Bounded by the entity's true conversation
    # fan-out; dedup_both's _DRIVER_MERGE_BYTES routes oversized lineage
    # to the bucketed reduce automatically. For
    # sketch-bounded state at extreme fan-out see
    # ops.sketch.hll_count_distinct.
    ("conv_ids", pa.list_(pa.int64())),
])

# witness-priority columns per merge family — ORDER MATCHES the rep sort
# in _entity_partial/_merge_entities_bucket and _edge_partial/
# merge_edges_bucket respectively (confidence desc is prepended).
ENT_PRI_COLS = ["entity_type", "name", "description", "source"]
EDGE_PRI_COLS = ["subj_type", "obj_type", "source", "description"]

# amalgam marker for partially-merged property state (see merge_properties)
_PW = "__pw__"


def _prop_state(df: pd.DataFrame, key: str, pri_cols: "list[str]") -> dict:
    """Accumulate per-key per-property-key winner state:
    ``{key: {prop_key: [priority, value]}}`` where priority is the witness
    tuple of the record that wrote the property — ``[-confidence,
    *pri_cols, own-plain-properties-JSON]`` (None → "" so lists compare).
    min(priority) wins per property key, which is associative AND
    commutative — so the two-level reduce (per-batch partial → bucket
    merge) yields the same result as a single global first-writer pass in
    rep-sorted order, for ANY partitioning of the input (r3 invariance
    harness finding: the previous first-writer-within-each-level compose
    was partition-dependent)."""
    import json
    if "properties" not in df.columns:
        return {}
    has = df[df["properties"].notna()]
    if has.empty:
        return {}
    state: dict = {}
    cols = [has[key], has["properties"], has["confidence"]] \
        + [has[c] for c in pri_cols]
    for k, p, conf, *rest in zip(*cols):
        d = json.loads(p)
        cur = state.setdefault(k, {})
        if isinstance(d, dict) and set(d) == {_PW} \
                and isinstance(d[_PW], dict):
            for pk, (pri, v) in d[_PW].items():
                if pk not in cur or pri < cur[pk][0]:
                    cur[pk] = [pri, v]
        else:
            pri_self = [-float(conf)] \
                + ["" if v is None else str(v) for v in rest] \
                + [json.dumps(d, sort_keys=True, ensure_ascii=False)]
            for pk, v in d.items():
                if pk not in cur or pri_self < cur[pk][0]:
                    cur[pk] = [pri_self, v]
    return state


def merge_properties(df: pd.DataFrame, key: str,
                     pri_cols: "Optional[list[str]]" = None,
                     final: bool = True) -> pd.Series:
    """Per-key merged JSON properties (reference dict-update semantics,
    entity_extractor.py:113-115, made deterministic AND associative): the
    winner of each property key is the record with the best witness tuple
    (max confidence, then ``pri_cols`` ascending, then its own canonical
    properties JSON) — equivalent to a first-writer-wins pass over the
    globally rep-sorted records, i.e. the representative's values take
    precedence and lower-priority records fill in missing keys.

    ``final=False`` returns the mergeable amalgam state
    (``{"__pw__": {prop_key: [priority, value]}}``) for combiner output;
    ``final=True`` collapses to the plain user-facing dict. Only rows
    with non-null properties are touched (rare in the regex path), so
    the loop is output-bound."""
    import json
    pri_cols = ENT_PRI_COLS if pri_cols is None else pri_cols
    state = _prop_state(df, key, pri_cols)
    if not state:
        return pd.Series(dtype="object")
    if final:
        return pd.Series(
            {k: json.dumps({pk: pv[1] for pk, pv in kv.items()},
                           sort_keys=True, ensure_ascii=False)
             for k, kv in state.items()}, dtype="object")
    return pd.Series(
        {k: json.dumps({_PW: kv}, sort_keys=True, ensure_ascii=False)
         for k, kv in state.items()}, dtype="object")


_CONV_HASH_KEY = "agraph-ray-conv!"          # 16 bytes, pinned


def _conv_hashes(col: pd.Series) -> np.ndarray:
    """Stable 64-bit hash of a conv_id column (one C call)."""
    return pd.util.hash_array(col.to_numpy(dtype=object),
                              hash_key=_CONV_HASH_KEY,
                              categorize=False).view(np.int64)


def _grouped_unique(keys: np.ndarray, vals: np.ndarray, n_groups: int):
    """(row-group-code, int64 value) pairs → per-group sorted-unique
    value arrays (index = group code) + per-group distinct counts.
    Pure lexsort + boolean dedupe + searchsorted — no Python sets."""
    order = np.lexsort((vals, keys))
    fk, fv = keys[order], vals[order]
    keep = np.ones(len(fk), dtype=bool)
    if len(fk) > 1:
        keep[1:] = (fk[1:] != fk[:-1]) | (fv[1:] != fv[:-1])
    fk, fv = fk[keep], fv[keep]
    grid = np.arange(n_groups)
    starts = np.searchsorted(fk, grid)
    ends = np.searchsorted(fk, grid, side="right")
    return [fv[s:e] for s, e in zip(starts, ends)], ends - starts


def _lineage_pairs(df: pd.DataFrame) -> "tuple[np.ndarray, np.ndarray, pd.Index] | None":
    """Flatten the conversation lineage of a mention/partial frame into
    (group_code, conv_hash) int pairs + the group key index. Raw
    mentions contribute hash(conv_id); re-combined partials contribute
    their conv_ids arrays."""
    if "conv_ids" in df:
        arrays = [np.asarray(a, dtype=np.int64)
                  if a is not None and len(a) else np.empty(0, np.int64)
                  for a in df["conv_ids"]]
        lens = np.fromiter((len(a) for a in arrays), dtype=np.int64,
                           count=len(arrays))
        codes, uniq = pd.factorize(df["norm_name"])
        if lens.sum() == 0:
            return (np.empty(0, np.int64), np.empty(0, np.int64),
                    pd.Index(uniq))
        flat = np.concatenate([a for a in arrays if len(a)])
        keys = np.repeat(codes.astype(np.int64), lens)
        return keys, flat, pd.Index(uniq)
    if "conv_id" in df:
        sub = df[df["conv_id"].notna()]
        codes, uniq = pd.factorize(sub["norm_name"])
        return (codes.astype(np.int64), _conv_hashes(sub["conv_id"]),
                pd.Index(uniq))
    return None


def _entity_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner: collapse duplicate norm_names inside the batch.
    Fully vectorized — one sort + drop_duplicates + two groupby reductions,
    no per-group Python."""
    df = batch.to_pandas()
    if "n_mentions" not in df:
        df["n_mentions"] = 1
    if "n_convs" not in df:
        df["n_convs"] = 1
    if "properties" not in df:
        df["properties"] = None
    # exact conversation lineage: each raw mention contributes its
    # hashed conv_id; re-combined partials contribute their conv_ids
    # union — all int64 lexsort/searchsorted kernels (_grouped_unique).
    # The legacy n_convs int sum remains only for lineage-free inputs
    # (no conv column) — the old per-batch distinct count was
    # partition-dependent (and counted documents, not conversations).
    s = df.sort_values(
        ["confidence", "entity_type", "name", "description", "source",
         "properties"],
        ascending=[False, True, True, True, True, True], kind="mergesort")
    rep = s.drop_duplicates("norm_name", keep="first").set_index("norm_name")
    g = df.groupby("norm_name", sort=False)
    rep["confidence"] = g["confidence"].max()
    rep["n_mentions"] = g["n_mentions"].sum()
    rep["n_convs"] = g["n_convs"].sum()
    pairs = _lineage_pairs(df)
    if pairs is not None:
        keys, vals, uniq = pairs
        per_group, _ = _grouped_unique(keys, vals, len(uniq))
        cids = pd.Series(per_group, index=uniq, dtype="object")
    else:
        cids = pd.Series(dtype="object")
    rep["conv_ids"] = cids.reindex(rep.index)
    rep["conv_ids"] = rep["conv_ids"].map(
        lambda v: v if v is not None and not (
            isinstance(v, float) and pd.isna(v)) else
        np.empty(0, np.int64))
    props = merge_properties(s, "norm_name", ENT_PRI_COLS, final=False)
    rep["properties"] = props.reindex(rep.index) if len(props) else None
    # alias union: most rows carry no aliases — explode only the few that do
    has = df[df["aliases"].map(lambda v: v is not None and len(v) > 0)]
    if len(has):
        al = (has[["norm_name", "aliases"]].explode("aliases")
              .groupby("norm_name", sort=False)["aliases"]
              .agg(lambda x: sorted(set(x))))
        rep["aliases"] = al.reindex(rep.index)
        rep["aliases"] = rep["aliases"].map(
            lambda v: v if isinstance(v, list) else [])
    else:
        rep["aliases"] = [[] for _ in range(len(rep))]
    out = rep.reset_index()[[f.name for f in ENTITY_PARTIAL_SCHEMA]]
    return pa.Table.from_pandas(out, schema=ENTITY_PARTIAL_SCHEMA,
                                preserve_index=False).replace_schema_metadata(None)


def _merge_entities_bucket(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized whole-bucket merge over all norm_names in the bucket.
    n_convs is the exact distinct-conversation count when lineage
    (conv_ids / conv_id) is present, else the legacy n_convs sum."""
    if "properties" not in df.columns:
        df = df.assign(properties=None)
    df = df.sort_values(
        ["confidence", "entity_type", "name", "description", "source",
         "properties"],
        ascending=[False, True, True, True, True, True], kind="mergesort")
    rep = df.drop_duplicates("norm_name", keep="first").set_index("norm_name")
    agg = df.groupby("norm_name", sort=False).agg(
        display_name=("name", "min"), confidence=("confidence", "max"),
        n_mentions=("n_mentions", "sum"), n_convs=("n_convs", "sum"))
    aliases = (df[["norm_name", "aliases"]].explode("aliases").dropna()
               .groupby("norm_name", sort=False)["aliases"]
               .agg(lambda s: sorted(set(s))))
    pairs = _lineage_pairs(df)
    if pairs is not None:
        keys, vals, uniq = pairs
        _, counts = _grouped_unique(keys, vals, len(uniq))
        cids = pd.Series(counts, index=uniq, dtype="int64")
    else:
        cids = pd.Series(dtype="int64")
    n_convs = cids.reindex(rep.index).fillna(0).astype("int64")
    legacy = agg["n_convs"].astype("int64")
    props = merge_properties(df, "norm_name", ENT_PRI_COLS, final=True)
    out = pd.DataFrame({
        "entity_id": rep["entity_id"],
        "name": rep.index,
        "display_name": agg["display_name"],
        "entity_type": rep["entity_type"],
        "description": rep["description"].fillna(""),
        "aliases": aliases.reindex(rep.index).apply(
            lambda v: v if isinstance(v, list) else []),
        "properties": props.reindex(rep.index) if len(props) else None,
        "confidence": agg["confidence"],
        "source": rep["source"],
        "n_mentions": agg["n_mentions"].astype("int64"),
        "n_convs": n_convs.where(n_convs > 0, legacy),
    }).reset_index(drop=True)
    return out


def _precombine(partials: "ray.data.Dataset", combiner,
                width: int = 64) -> "ray.data.MaterializedDataset":
    """Second-level combine over the materialized partials: re-merge
    them into ~``width`` coalesced batches so the final merge sees
    ~vocabulary x width rows instead of vocabulary x num_blocks. Pure
    batch-size coalescing — no exchange — and the merges are
    associative, so the reduced result is identical. ``width`` floors
    at num_blocks/8 so a task never coalesces more than ~8 input blocks
    — bounded memory at any corpus size. Few blocks or rows return the
    partials as they are, without an execution."""
    n = partials.count()
    nb = partials.num_blocks()
    width = max(width, nb // 8)
    if nb > 2 * width and n > 8 * width:
        return partials.map_batches(combiner, batch_format="pyarrow",
                                    batch_size=max(1, n // width)
                                    ).materialize()
    return partials


EDGES_SCHEMA = pa.schema([
    ("relation_id", pa.string()),
    ("head_id", pa.string()),
    ("tail_id", pa.string()),
    ("relation_type", pa.string()),
    ("subj", pa.string()),
    ("obj", pa.string()),
    ("subj_type", pa.string()),
    ("obj_type", pa.string()),
    ("description", pa.string()),     # relation description (relations.py:17-48)
    ("properties", pa.string()),      # JSON dict, null when empty
    ("confidence", pa.float64()),
    ("source", pa.string()),
    ("n_mentions", pa.int64()),
])


def _edge_partial(batch: pa.Table) -> pa.Table:
    df = batch.to_pandas()
    if "n_mentions" not in df:
        df["n_mentions"] = 1
    for c in ("description", "properties"):
        if c not in df:
            df[c] = None
    rel_col = "pred" if "pred" in df else "relation_type"
    # witness election must be a TOTAL order: relation_id pins
    # head/tail/type/subj/obj (content hash), but subj_type/obj_type/
    # description/source can differ across mentions of the same id —
    # confidence alone lets the input partition order pick the winner
    # (caught by test_incremental_replay_equals_batch: replayed adds
    # elected different obj_type witnesses than the batch build).
    # properties is the FINAL tie-break: without it, mentions tying on
    # every other column but carrying different properties JSON merge
    # first-writer-wins in partition order (ADVICE r2, medium).
    df = df.sort_values(
        ["confidence", "subj_type", "obj_type", "source", "description",
         "properties"],
        ascending=[False, True, True, True, True, True], kind="mergesort")
    agg = df.groupby("relation_id", sort=False).agg(
        head_id=("head_id", "first"), tail_id=("tail_id", "first"),
        relation_type=(rel_col, "first"), subj=("subj", "first"),
        obj=("obj", "first"), subj_type=("subj_type", "first"),
        obj_type=("obj_type", "first"),
        description=("description", "first"),
        confidence=("confidence", "max"),
        source=("source", "first"), n_mentions=("n_mentions", "sum"),
    )
    props = merge_properties(df, "relation_id", EDGE_PRI_COLS, final=False)
    agg["properties"] = props.reindex(agg.index) if len(props) else None
    return pa.Table.from_pandas(agg.reset_index(), preserve_index=False,
                                schema=EDGES_SCHEMA)


def merge_edges_bucket(df: pd.DataFrame,
                       key: str = "relation_id") -> pd.DataFrame:
    """Vectorized whole-bucket edge merge: max-confidence witness per key,
    mention counts summed, properties dict-merged (witness wins). The
    sort is a total order over every witness-carried column — including
    the properties JSON — so the elected row is partition-invariant
    (see _edge_partial)."""
    if "properties" not in df.columns:
        df = df.assign(properties=None)
    s = df.sort_values(
        ["confidence", "subj_type", "obj_type", "source", "description",
         "properties"],
        ascending=[False, True, True, True, True, True], kind="mergesort")
    top = s.drop_duplicates(key, keep="first").set_index(key)
    top["n_mentions"] = df.groupby(key, sort=False)["n_mentions"].sum()
    if "properties" in df.columns and df["properties"].notna().any():
        props = merge_properties(s, key, EDGE_PRI_COLS, final=True)
        top["properties"] = props.reindex(top.index)
    return top.reset_index()


# ---------------------------------------------------------------------------
# Exact dedup: both kinds in one scan of the mentions blocks
# ---------------------------------------------------------------------------
# One map over the mentions blocks emits a kind-tagged union of entity and
# edge partials and one bounded re-combine (_precombine) shrinks them.
# Combined partials up to _DRIVER_MERGE_BYTES finish on the driver from
# `to_arrow_refs`; larger ones finish in one composite-key bucketed reduce
# keyed (kind, norm_name|relation_id), where every partial of a key lands
# in one bucket. Both sides run the same associative merge functions, so
# the result is partition-invariant — pinned against a one-pass reference
# by test_dedup_both_equals_per_kind, on both sides.
#
# Raising the cap instead costs the driver ~5x the partials' bytes (137
# MB of partials: driver max RSS ~180 → ~950 MB), and past the cap the
# bucketed reduce is the side that gains with width: on a 4-vCPU VM, 797k
# partial rows took 0.54-0.64 of a single-task merge's time at 4 Ray CPUs
# but 1.2-1.6x at 1 Ray CPU — BASELINE.md, "Size sides are constants".
#
# This is the only exact-dedup orchestration: in-memory mentions and the
# Parquet checkpoint are both scanned once for both kinds. Against the
# per-kind pair it replaced (one filtered scan per kind, overlapped on two
# threads): 0.43 vs 0.52 s at 1 Ray CPU (78k mention rows, 6 blocks), but
# 1.34-1.53 vs 1.17-1.47 s at 4 Ray CPUs (804k rows in 30 small blocks,
# where the per-batch partials pay per-block overhead) — BASELINE.md,
# "One exact-dedup path".

_DRIVER_MERGE_BYTES = 48 << 20

_EDGE_ONLY = ["relation_id", "head_id", "tail_id", "relation_type",
              "subj", "obj", "subj_type", "obj_type"]
FUSED_PARTIAL_SCHEMA = pa.schema(
    [("kind", pa.string())]
    + list(ENTITY_PARTIAL_SCHEMA)
    + [EDGES_SCHEMA.field(n) for n in _EDGE_ONLY])
_ENT_NAMES = [f.name for f in ENTITY_PARTIAL_SCHEMA]
_EDGE_NAMES = [f.name for f in EDGES_SCHEMA]


def _pad_union(tbl: pa.Table, kind: str) -> pa.Table:
    """Lift a per-kind partial table into FUSED_PARTIAL_SCHEMA (missing
    columns become typed nulls)."""
    n = tbl.num_rows
    cols = []
    for f in FUSED_PARTIAL_SCHEMA:
        if f.name == "kind":
            cols.append(pa.array([kind] * n, pa.string()))
        elif f.name in tbl.column_names:
            cols.append(tbl.column(f.name).cast(f.type))
        else:
            cols.append(pa.nulls(n, f.type))
    return pa.Table.from_arrays(cols, schema=FUSED_PARTIAL_SCHEMA)


def _split_kinds(batch: pa.Table):
    import pyarrow.compute as pc
    ent = batch.filter(pc.equal(batch["kind"], "entity"))
    edg = batch.filter(pc.equal(batch["kind"], "triple"))
    return ent, edg


# raw-mention columns each partial needs (prune before to_pandas — the
# mention blocks carry both kinds' columns)
_ENT_RAW = ["conv_id", "entity_id", "name", "norm_name", "entity_type",
            "description", "aliases", "properties", "confidence", "source",
            "n_mentions", "n_convs"]
_EDGE_RAW = ["relation_id", "subj", "subj_type", "pred", "obj", "obj_type",
             "head_id", "tail_id", "description", "properties",
             "confidence", "source", "n_mentions"]
# every mention column dedup reads (the checkpoint scan prunes to these)
MENTION_COLS = sorted({"kind", *_ENT_RAW, *_EDGE_RAW})


def _fused_partial(batch: pa.Table) -> pa.Table:
    """Per-batch combiner over RAW mentions: both kinds in one pass."""
    ent, edg = _split_kinds(batch)
    parts = []
    if ent.num_rows:
        cols = [c for c in _ENT_RAW if c in ent.column_names]
        parts.append(_pad_union(_entity_partial(ent.select(cols)), "entity"))
    if edg.num_rows:
        cols = [c for c in _EDGE_RAW if c in edg.column_names]
        parts.append(_pad_union(_edge_partial(edg.select(cols)), "triple"))
    if not parts:
        return FUSED_PARTIAL_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def _fused_combine(batch: pa.Table) -> pa.Table:
    """Second-level combiner over union PARTIALS (associative re-merge)."""
    ent, edg = _split_kinds(batch)
    parts = []
    if ent.num_rows:
        parts.append(_pad_union(_entity_partial(ent.select(_ENT_NAMES)),
                                "entity"))
    if edg.num_rows:
        parts.append(_pad_union(_edge_partial(edg.select(_EDGE_NAMES)),
                                "triple"))
    if not parts:
        return FUSED_PARTIAL_SCHEMA.empty_table()
    return pa.concat_tables(parts)


def _final_table(df: pd.DataFrame, merge_df, schema: pa.Schema) -> pa.Table:
    if len(df) == 0:
        return schema.empty_table()
    out = merge_df(df)
    return pa.Table.from_pandas(out, schema=schema,
                                preserve_index=False
                                ).replace_schema_metadata(None)


def dedup_both(mentions: "ray.data.Dataset", cfg: Optional[KGConfig] = None):
    """mentions → (nodes, edges): one partial pass over the mentions, one
    :func:`_precombine`, then one size decision on the combined partials
    (see the note above)."""
    import ray
    import ray.data as rd
    import pyarrow.compute as pc

    comb = _precombine(mentions.map_batches(
        _fused_partial, batch_format="pyarrow").materialize(),
        _fused_combine)
    if (comb.size_bytes() or 0) <= _DRIVER_MERGE_BYTES:
        refs = [t for t in ray.get(comb.to_arrow_refs()) if t.num_rows]
        tbl = pa.concat_tables(refs) if refs \
            else FUSED_PARTIAL_SCHEMA.empty_table()
        ent, edg = _split_kinds(tbl)
        nodes = rd.from_arrow(_final_table(
            ent.select(_ENT_NAMES).to_pandas(), _merge_entities_bucket,
            NODES_SCHEMA))
        edges = rd.from_arrow(_final_table(
            edg.select(_EDGE_NAMES).to_pandas(), merge_edges_bucket,
            EDGES_SCHEMA))
        return nodes, edges

    from .common import bucketed_group_reduce

    node_names = [f.name for f in NODES_SCHEMA]
    edge_only = [n for n in _EDGE_NAMES if n not in node_names]
    fused_red = pa.schema([("kind", pa.string())]
                          + list(NODES_SCHEMA)
                          + [EDGES_SCHEMA.field(n) for n in edge_only])
    all_names = [f.name for f in fused_red]

    def both_bucket(df: "pd.DataFrame") -> "pd.DataFrame":
        import pandas as _pd
        outs = []
        for kind, names, merge_df in (
                ("entity", _ENT_NAMES, _merge_entities_bucket),
                ("triple", _EDGE_NAMES, merge_edges_bucket)):
            part = df[df["kind"] == kind]
            if len(part) == 0:
                continue
            o = merge_df(part[names]).copy()
            # absent columns as object-None (a float reindex would
            # put NaN into int64/list fields and break the cast)
            for c in all_names:
                if c not in o.columns:
                    o[c] = _pd.Series([None] * len(o), dtype=object)
            o["kind"] = kind
            outs.append(o[all_names])
        if not outs:
            return _pd.DataFrame(columns=all_names)
        return _pd.concat(outs, ignore_index=True)

    # key on the raw (kind, norm_name, relation_id) tuple — exactly one
    # of the two key columns is non-null per kind, so equal logical keys
    # hash equal with NO extra key-derivation pass over the partials
    reduced = bucketed_group_reduce(
        comb, ["kind", "norm_name", "relation_id"], both_bucket,
        schema=fused_red).materialize()

    def pick(kind, names, schema):
        def f(t: pa.Table, k=kind, ns=names, s=schema) -> pa.Table:
            return t.filter(pc.equal(t["kind"], k)).select(ns).cast(s)
        return reduced.map_batches(f, batch_format="pyarrow")

    return (pick("entity", node_names, NODES_SCHEMA),
            pick("triple", _EDGE_NAMES, EDGES_SCHEMA))


def _as_kind(mentions: "ray.data.Dataset", kind: str) -> "ray.data.Dataset":
    """Tag mentions of one kind with it (their ``kind`` column is
    optional) so :func:`dedup_both` files every row under that kind."""
    def tag(t: pa.Table) -> pa.Table:
        if "kind" in t.column_names:
            t = t.drop_columns(["kind"])
        return t.append_column("kind", pa.array([kind] * t.num_rows,
                                                pa.string()))
    return mentions.map_batches(tag, batch_format="pyarrow")


def dedup_entities(entity_mentions: "ray.data.Dataset",
                   cfg: Optional[KGConfig] = None) -> "ray.data.Dataset":
    """entity mentions → nodes: the entity side of :func:`dedup_both`."""
    return dedup_both(_as_kind(entity_mentions, "entity"), cfg)[0]


def dedup_edges(triple_mentions: "ray.data.Dataset",
                cfg: Optional[KGConfig] = None) -> "ray.data.Dataset":
    """triple mentions → edges, deduped on relation_id: the edge side of
    :func:`dedup_both`.

    Endpoint existence (the assembly filter of
    agraph/builders/llm_builders.py:699-702) holds by construction: triples
    only ever reference entities extracted from the same document, and exact
    entity dedup is keyed by the same norm_name the ids hash — so every
    head_id/tail_id has a node row. Verified by the dangling-edge test.
    """
    return dedup_both(_as_kind(triple_mentions, "triple"), cfg)[1]
