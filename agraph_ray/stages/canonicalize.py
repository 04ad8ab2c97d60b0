"""Stages E+F — entity linking (MinHash-LSH) + canonicalization.

Replaces the reference's O(n²) near-duplicate prefilter over all entity
pairs (agraph/builders/llm_builders.py:413-475) with minhash-LSH blocking:

  nodes → batch minhash signatures over the names' char-k shingles
  (ops/dedup.py MinHashSigner) → (band, bucket, entity_type) and alias
  blocks → candidate pairs inside each block only (capped) → name
  similarity scoring → union-find → canonical map → one vectorized
  merge of all merge groups → endpoint rewrite of the edges.

Scoring mirrors the reference's candidate rule (same entity_type AND name
similarity; exact = 1.0, containment = 0.8, else difflib ratio —
agraph/builders/llm_builders.py:437-469) with an accept threshold in place
of the LLM pairwise judge (which plugs into the same pair table as an actor
pool when available). The canonical map does not score a candidate whose
endpoints are already linked.

Determinism: minhash permutations use fixed 64-bit multiply-shift constants
(ops/dedup.py:_perm_constants) — identical across processes and cluster
sizes.
"""

from __future__ import annotations

import difflib
import functools
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..config import KGConfig
# the query oracles import _GRAM_MULT, _MERSENNE, _TOKEN_HASH_KEY from here
from ..ops.dedup import (_GRAM_MULT, _MERSENNE,  # noqa: F401
                         _TOKEN_HASH_KEY, MinHashSigner, _hash_tokens)
from ..state.unionfind import connected_components, components_to_canonical_map


def _char_shingles(name: str, k: int) -> set:
    """The char-k shingles of a name padded as ``^name$`` (and with ``_``
    up to k chars)."""
    s = f"^{name}$"
    if len(s) < k:
        s = s.ljust(k, "_")
    return {s[i:i + k] for i in range(len(s) - k + 1)}


def _shingle_hashes(name: str, k: int) -> np.ndarray:
    """Stable 64-bit hashes of the char-k shingles of a (padded) name."""
    return _hash_tokens(sorted(_char_shingles(name, k)))


BAND_COLS = ["entity_id", "name", "entity_type", "aliases", "properties"]


class MinHashBander(MinHashSigner):
    """map_batches callable: nodes batch → (block_key, entity_id, name,
    entity_type, aliases, properties) band rows. Two block families:

    - ``<band>:<bucket>:<type>``: minhash bands of the name's char
      shingles (near-identical names), signed for the whole batch;
    - alias blocks ``A:<hash(value)>:<type>`` — one per element of
      {name} ∪ aliases, lowercased — so entities sharing an exact
      name/alias string collide even when their display names share no
      shingle (the reference's alias-overlap candidate signal,
      agraph/builders/llm_builders.py:471-475).

    A null ``entity_type`` blocks as ``"None"``."""

    def __init__(self, cfg: Optional[KGConfig] = None):
        cfg = cfg or KGConfig()
        super().__init__(cfg.num_perm, cfg.lsh_bands)
        self.k = cfg.shingle_k

    def shingles(self, name: str) -> np.ndarray:
        return _shingle_hashes(name, self.k)

    def batch_shingles(self, names: List[Optional[str]]
                       ) -> Tuple[np.ndarray, np.ndarray]:
        """The whole batch's shingles hashed in one call."""
        grams = [_char_shingles(n or "", self.k) for n in names]
        lens = np.fromiter(map(len, grams), dtype=np.int64, count=len(grams))
        return _hash_tokens([g for gs in grams for g in gs]), lens

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = {c: batch[c].combine_chunks() for c in BAND_COLS
               if c in batch.schema.names}
        n = len(batch)
        names = col["name"].to_pylist()
        aliases = (col["aliases"].to_pylist() if "aliases" in col
                   else [None] * n)
        al_rows, al_values = [], []
        for i, (name, al) in enumerate(zip(names, aliases)):
            for v in dict.fromkeys([(name or "").lower(),
                                    *(a.lower() for a in al or ())]):
                if v:
                    al_rows.append(i)
                    al_values.append(v)
        mh_rows = np.repeat(np.arange(n, dtype=np.int64), self.bands)
        etype = pc.fill_null(col["entity_type"].cast(pa.string()), "None")
        mh_keys = pc.binary_join_element_wise(
            pa.array(np.tile(np.arange(self.bands), n)).cast(pa.string()),
            pa.array(self.band_buckets(
                self.batch_signatures(names)).reshape(-1)).cast(pa.string()),
            etype.take(mh_rows), ":")
        al_keys = pc.binary_join_element_wise(
            "A", pa.array(_hash_tokens(al_values), pa.uint64())
            .cast(pa.string()), etype.take(pa.array(al_rows, pa.int64())),
            ":")
        idx = pa.array(np.concatenate(
            [mh_rows, np.asarray(al_rows, dtype=np.int64)]))
        aliases_col = pa.array([a or [] for a in aliases],
                               pa.list_(pa.string()))
        props_col = (col["properties"].cast(pa.string())
                     if "properties" in col else pa.nulls(n, pa.string()))
        return pa.Table.from_arrays(
            [pa.concat_arrays([mh_keys, al_keys])]
            + [col[c].cast(pa.string()).take(idx)
               for c in ("entity_id", "name", "entity_type")]
            + [aliases_col.take(idx), props_col.take(idx)],
            names=["block_key"] + BAND_COLS)


def name_similarity(a: str, b: str) -> float:
    """Reference scoring (llm_builders.py:450-469): exact 1.0, containment
    0.8, else SequenceMatcher ratio."""
    if a == b:
        return 1.0
    if a in b or b in a:
        return 0.8
    return difflib.SequenceMatcher(None, a, b).ratio()


def _jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def weighted_similarity(name_a: str, name_b: str, type_a: str, type_b: str,
                        aliases_a, aliases_b,
                        props_a: Optional[dict],
                        props_b: Optional[dict]) -> float:
    """Reference EntityMerger weighted similarity
    (agraph/services/entity_merger.py:193-293): 0.4 name word-Jaccard +
    0.2 type equality + 0.2 alias-set Jaccard + 0.2 property similarity
    with partial credit (case-insensitive equal 0.8, containment 0.5)."""
    name_s = _jaccard(set((name_a or "").lower().split()),
                      set((name_b or "").lower().split()))
    type_s = 1.0 if type_a == type_b else 0.0
    alias_s = _jaccard({a.lower() for a in aliases_a or []},
                       {a.lower() for a in aliases_b or []})
    pa_, pb = props_a or {}, props_b or {}
    if not pa_ and not pb:
        prop_s = 1.0
    elif not pa_ or not pb:
        prop_s = 0.0
    else:
        keys = set(pa_) | set(pb)
        match = 0.0
        for k in keys:
            v1, v2 = pa_.get(k), pb.get(k)
            if v1 == v2:
                match += 1
            elif isinstance(v1, str) and isinstance(v2, str):
                if v1.lower() == v2.lower():
                    match += 0.8
                elif v1.lower() in v2.lower() or v2.lower() in v1.lower():
                    match += 0.5
        prop_s = match / len(keys)
    return 0.4 * name_s + 0.2 * type_s + 0.2 * alias_s + 0.2 * prop_s


def _walk_blocks(df: pd.DataFrame, cfg: KGConfig,
                 linked: Optional[Callable[[str, str], bool]] = None
                 ) -> Iterator[Tuple[str, str, float]]:
    """Yield the accepted candidate pairs ``(src, dst, sim)`` of the blocks
    in MinHashBander rows ``df``, at most ``cfg.max_block_pairs``
    candidates per block. A pair can come out of several blocks.

    Accept rules (all same-type by block-key construction):
    - minhash blocks: name similarity >= ``cfg.link_threshold``
      (llm_builders.py:437-469 scoring); pairs below it but carrying
      alias/property evidence get a second chance at the weighted score
      >= ``cfg.weighted_threshold`` (entity_merger.py:193-293) — pure-name
      pairs never reach the weighted path, so the regex KG (no
      aliases/properties) is unaffected;
    - alias blocks (``A:`` keys): members share an exact name/alias
      string — the reference's alias-overlap candidate signal
      (llm_builders.py:471-475); accepted outright with the weighted
      score recorded as the pair's sim.

    A candidate for which ``linked(src, dst)`` is true is skipped
    unscored; it still spends the block's budget.
    """
    import json as _json
    if df.empty:
        return
    # one global dedup + sort, then numpy slices per block (a pandas frame
    # per block dominated the pass); members iterate in entity_id order
    df = (df.drop_duplicates(["block_key", "entity_id"])
          .sort_values(["block_key", "entity_id"], kind="mergesort"))
    bk_arr = df["block_key"].to_numpy()
    ids_arr = df["entity_id"].to_numpy()
    names_arr = df["name"].to_numpy()
    types_arr = df["entity_type"].to_numpy()
    alias_arr = [list(a) for a in df["aliases"]]
    props_arr = [(_json.loads(p) if p else {}) for p in df["properties"]]
    starts = np.flatnonzero(np.r_[True, bk_arr[1:] != bk_arr[:-1]])
    ends = np.r_[starts[1:], len(bk_arr)]
    # a pair collides in up to lsh_bands minhash blocks and in alias
    # blocks too: score each distinct pair once per kind
    name_sim = functools.lru_cache(maxsize=None)(name_similarity)
    _wc: dict = {}

    def w_sim(i: int, j: int) -> float:
        v = _wc.get((ids[i], ids[j]))
        if v is None:
            v = _wc[(ids[i], ids[j])] = weighted_similarity(
                names[i], names[j], types[i], types[j],
                aliases[i], aliases[j], props[i], props[j])
        return v

    for s0, e0 in zip(starts, ends):
        n = int(e0 - s0)
        if n < 2:
            continue
        ids = ids_arr[s0:e0].tolist()
        names = names_arr[s0:e0].tolist()
        types = types_arr[s0:e0].tolist()
        aliases, props = alias_arr[s0:e0], props_arr[s0:e0]
        is_alias_block = bk_arr[s0].startswith("A:")
        budget = cfg.max_block_pairs
        for i in range(n):
            if budget <= 0:
                break
            for j in range(i + 1, n):
                budget -= 1
                if budget < 0:
                    break
                if linked is not None and linked(ids[i], ids[j]):
                    continue
                if is_alias_block:
                    yield ids[i], ids[j], w_sim(i, j)
                    continue
                s = name_sim(names[i], names[j])
                if s >= cfg.link_threshold:
                    yield ids[i], ids[j], s
                elif aliases[i] or aliases[j] or props[i] or props[j]:
                    w = w_sim(i, j)
                    if w >= cfg.weighted_threshold:
                        yield ids[i], ids[j], w


_PAIR_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                          ("sim", pa.float64())])


def _collect_df(ds: "ray.data.Dataset") -> pd.DataFrame:
    """Driver-side collect via Arrow concat — bypasses Dataset.to_pandas's
    tensor-extension casting, which chokes on ragged list columns."""
    tbls = list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    if not tbls:
        return pd.DataFrame()
    return pa.concat_tables(tbls, promote_options="default").to_pandas()


def link_entities(nodes: "ray.data.Dataset",
                  cfg: Optional[KGConfig] = None,
                  num_buckets: int = 64) -> "ray.data.Dataset":
    """nodes → match edges (src, dst, sim) between near-duplicate entities,
    one row per pair."""
    from .common import bucketed_group_reduce
    cfg = cfg or KGConfig()
    # stateless tasks: the bander's only state (perm constants) is trivially
    # cheap, and tasks can't starve sibling operators the way a full-size
    # actor pool can
    bands = nodes.map_batches(MinHashBander(cfg), batch_format="pyarrow")
    pairs = bucketed_group_reduce(
        bands, ["block_key"],
        lambda df: pd.DataFrame(list(_walk_blocks(df, cfg)),
                                columns=_PAIR_SCHEMA.names),
        num_buckets, schema=_PAIR_SCHEMA)
    # the same pair can surface from several blocks, with a lower sim from
    # a minhash block than from an alias block: keep its best sim
    return bucketed_group_reduce(
        pairs, ["src", "dst"],
        lambda df: df.groupby(["src", "dst"], as_index=False,
                              sort=False)["sim"].max(),
        num_buckets, schema=_PAIR_SCHEMA)


def find_similar_entities(nodes: "ray.data.Dataset",
                          cfg: Optional[KGConfig] = None,
                          similarity_threshold: Optional[float] = None,
                          max_pairs: Optional[int] = None
                          ) -> "ray.data.Dataset":
    """Ranked similar-entity pairs (src, dst, sim), similarity descending —
    the EntityMerger.find_similar_entities surface
    (agraph/services/entity_merger.py:149-191) with LSH/alias blocking in
    place of its O(n²) all-pairs scan. ``max_pairs`` mirrors the
    auto-merge cap (entity_merger.py:295-316 max_merges)."""
    import pyarrow.compute as pc2
    cfg = cfg or KGConfig()
    pairs = link_entities(nodes, cfg)
    if similarity_threshold is not None:
        pairs = pairs.map_batches(
            lambda t: t.filter(pc2.greater_equal(t["sim"],
                                                 similarity_threshold)),
            batch_format="pyarrow")
    ranked = pairs.sort(["sim", "src", "dst"],
                        descending=[True, False, False])
    return ranked.limit(max_pairs) if max_pairs else ranked


def compute_canonical_map(nodes: "ray.data.Dataset",
                          cfg: Optional[KGConfig] = None,
                          driver_threshold: int = 200_000) -> Dict[str, str]:
    """nodes → {entity_id: canonical_id} for matched near-duplicates.

    Size-adaptive like connected_components: when the node table is
    dictionary-sized (≤ ``driver_threshold``; the canonical-entity table
    is vocabulary, not corpus), the nodes are collected and
    banding, pair scoring and union-find run on the driver — the same
    blocking, ordering, caps and scoring as the distributed path, without
    its two shuffle rounds. Above the threshold the shuffle path
    (link_entities → connected_components) takes over.
    """
    cfg = cfg or KGConfig()
    if nodes.count() > driver_threshold:
        match_edges = link_entities(nodes, cfg)
        if match_edges.count() == 0:
            return {}
        labels = connected_components(match_edges,
                                      max_iters=cfg.max_label_prop_iters)
        return components_to_canonical_map(labels)

    return _canonical_map_from_df(_collect_df(nodes), cfg)


def _canonical_map_from_df(ndf: pd.DataFrame,
                           cfg: KGConfig) -> Dict[str, str]:
    """compute_canonical_map over an already-collected node frame: the
    bander runs in-process on one Arrow table (vocabulary-sized input by
    contract), then union-find over the block walk.

    Each accepted pair is unioned as the walk yields it, and the walk
    skips the scoring of a candidate whose endpoints already share a
    root: that pair cannot change the components, and the root is the
    component's minimum id whatever the union order."""
    if ndf.empty:
        return {}
    cols = ["entity_id", "name", "entity_type"] + [
        c for c in ("aliases", "properties") if c in ndf.columns]
    bands = MinHashBander(cfg)(
        pa.Table.from_pandas(ndf[cols], preserve_index=False)).to_pandas()
    parent: Dict[str, str] = {}

    def find(x: str) -> str:
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s, d, _ in _walk_blocks(bands, cfg,
                                linked=lambda a, b: find(a) == find(b)):
        rs, rd_ = find(s), find(d)
        parent[max(rs, rd_)] = min(rs, rd_)
    return {n: r for n in parent if (r := find(n)) != n}


def _fill_schema_cols(df: pd.DataFrame, schema: pa.Schema) -> pd.DataFrame:
    """Add any schema columns the frame lacks as nulls (inputs predating
    the properties/description columns remain valid)."""
    for f in schema:
        if f.name not in df.columns:
            df[f.name] = None
    return df


def _merge_groups(hit: pd.DataFrame) -> pd.DataFrame:
    """Collapse every canonical merge group of ``hit`` (node rows with a
    ``canonical_id`` column) to its representative row, in one pass: the
    max-confidence member (ties: lowest entity_id) keeps its fields under
    the canonical id, the sorted union of every alias and the other
    members' names becomes its aliases, properties dict-merge and
    mention/conv counts sum. Groups come out in first-appearance order of
    their canonical id."""
    s = hit.sort_values(["canonical_id", "confidence", "entity_id"],
                        ascending=[True, False, True], kind="mergesort")
    rep = s.drop_duplicates("canonical_id").set_index("canonical_id",
                                                      drop=False)
    names = s[["canonical_id", "name"]].rename(columns={"name": "alias"})
    names = names[names["alias"].to_numpy()
                  != rep["name"].reindex(names["canonical_id"]).to_numpy()]
    aliases = (s[["canonical_id", "aliases"]].explode("aliases")
               .rename(columns={"aliases": "alias"}))
    union = (pd.concat([names, aliases]).dropna().drop_duplicates()
             .sort_values(["canonical_id", "alias"], kind="mergesort")
             .groupby("canonical_id", sort=False)["alias"].agg(list))
    rep["aliases"] = [union.get(k, []) for k in rep.index]
    if "properties" in s.columns:
        from .dedup import merge_properties
        props = merge_properties(s, "canonical_id")
        rep["properties"] = [props.get(k) for k in rep.index]
    sums = s.groupby("canonical_id", sort=False)[["n_mentions",
                                                  "n_convs"]].sum()
    rep["n_mentions"] = sums["n_mentions"]
    rep["n_convs"] = sums["n_convs"]
    rep["entity_id"] = rep["canonical_id"]
    return (rep.loc[hit["canonical_id"].unique()]
            .drop(columns=["canonical_id"]).reset_index(drop=True))


def _canonicalize_driver(nodes, edges, cmap):
    """Whole-graph driver rewrite for dictionary-sized graphs: node merge,
    edge endpoint rewrite, self-loop drop, and signature re-dedup in one
    pandas pass — zero cluster executions. Returns (pa.Table, pa.Table)."""
    from .dedup import EDGES_SCHEMA, NODES_SCHEMA

    def _as_df(x):
        if isinstance(x, pd.DataFrame):
            return x
        return _collect_df(x) if hasattr(x, "iter_batches") \
            else x.to_pandas()

    ndf = _fill_schema_cols(_as_df(nodes), NODES_SCHEMA)
    ndf["aliases"] = ndf["aliases"].map(
        lambda v: list(v) if v is not None else [])
    affected = set(cmap) | set(cmap.values())
    mask = ndf["entity_id"].isin(affected)
    keep = ndf[~mask]
    hit = ndf[mask].copy()
    if len(hit):
        hit["canonical_id"] = hit["entity_id"].map(lambda i: cmap.get(i, i))
        ndf = pd.concat([keep, _merge_groups(hit)], ignore_index=True)
    else:
        ndf = keep
    nodes_t = pa.Table.from_pandas(ndf, schema=NODES_SCHEMA,
                                   preserve_index=False
                                   ).replace_schema_metadata(None)

    edf = _fill_schema_cols(_as_df(edges), EDGES_SCHEMA)
    edf["head_id"] = edf["head_id"].map(lambda i: cmap.get(i, i))
    edf["tail_id"] = edf["tail_id"].map(lambda i: cmap.get(i, i))
    edges_t = pa.Table.from_pandas(
        _resig_dedup(edf[edf["head_id"] != edf["tail_id"]]),
        schema=EDGES_SCHEMA, preserve_index=False
    ).replace_schema_metadata(None)
    return nodes_t, edges_t


def _resig_dedup(edf: pd.DataFrame) -> pd.DataFrame:
    """Rewritten endpoints can make two edges share a (head, type, tail)
    signature — keep the max-confidence witness (utils.py:431-452), with
    the signature's summed mentions."""
    s = edf.assign(__sig=edf["head_id"] + "\x00" + edf["relation_type"]
                   + "\x00" + edf["tail_id"]).sort_values(
        ["confidence", "relation_id"], ascending=[False, True],
        kind="mergesort")
    top = s.drop_duplicates("__sig", keep="first").set_index("__sig")
    top["n_mentions"] = s.groupby("__sig", sort=False)["n_mentions"].sum()
    return top.reset_index(drop=True)


def canonicalize(nodes: "ray.data.Dataset", edges: "ray.data.Dataset",
                 cfg: Optional[KGConfig] = None,
                 driver_threshold: int = 2_000_000):
    """Run linking + components, rewrite nodes/edges to canonical ids.

    Returns (canonical_nodes, canonical_edges, canonical_map); the first
    two are pyarrow Tables when the whole graph fits the driver rewrite
    path (≤ ``driver_threshold`` rows each — the canonical graph is
    vocabulary-sized relative to the corpus), else Datasets. The
    distributed rewrite is a broadcast-map (ray.put of the non-trivial
    id→root dict) — only matched duplicates appear in the map.
    """
    cfg = cfg or KGConfig()

    if (nodes.count() <= min(driver_threshold, 200_000)
            and edges.count() <= driver_threshold):
        # Single-collect fast path: pull nodes and edges once (two reads
        # of already-materialized blocks, overlapped on threads) and run
        # banding, pair generation, union-find and the whole-graph
        # rewrite in-process. Replaces ~6 fixed-latency cluster
        # executions with 2 — this was the dominant SERIAL term of the
        # headline pipeline (4.5 s at every CPU count on a 241-node
        # graph), i.e. the Amdahl cap on scaling efficiency.
        from concurrent.futures import ThreadPoolExecutor
        from .dedup import EDGES_SCHEMA, NODES_SCHEMA
        with ThreadPoolExecutor(max_workers=2) as tp:
            f_n = tp.submit(_collect_df, nodes)
            f_e = tp.submit(_collect_df, edges)
            ndf, edf = f_n.result(), f_e.result()
        ndf = _fill_schema_cols(ndf, NODES_SCHEMA) if len(ndf) else ndf
        edf = _fill_schema_cols(edf, EDGES_SCHEMA) if len(edf) else edf
        cmap = _canonical_map_from_df(ndf, cfg)
        if not cmap:
            return nodes, edges, {}
        nodes_t, edges_t = _canonicalize_driver(ndf, edf, cmap)
        return nodes_t, edges_t, cmap

    cmap = compute_canonical_map(nodes, cfg)
    if not cmap:
        return nodes, edges, {}
    nodes_o, edges_o = apply_canonical_map(nodes, edges, cmap, cfg,
                                           driver_threshold)
    return nodes_o, edges_o, cmap


def apply_canonical_map(nodes: "ray.data.Dataset", edges: "ray.data.Dataset",
                        cmap: Dict[str, str],
                        cfg: Optional[KGConfig] = None,
                        driver_threshold: int = 2_000_000):
    """Rewrite nodes/edges under an externally computed ``{entity_id:
    canonical_id}`` map — the post-linking tail of :func:`canonicalize`,
    exposed so alternative match sources (embedding-ANN candidates run
    through the LLM pair judge — the reference lifecycle
    agraph/builders/llm_builders.py:1035-1097) can share the same merge
    semantics. Size-adaptive exactly like canonicalize: whole-graph
    driver rewrite when both tables fit ``driver_threshold``, else the
    broadcast filter-map (unaffected nodes never shuffle)."""
    cfg = cfg or KGConfig()
    if not cmap:
        return nodes, edges

    # cmap came from an external linker, but the whole-graph rewrite
    # still fits the driver
    if (nodes.count() <= driver_threshold
            and edges.count() <= driver_threshold):
        return _canonicalize_driver(nodes, edges, cmap)

    cmap_ref = ray.put(cmap)
    # every node participating in any merge group (sources AND targets)
    affected = set(cmap) | set(cmap.values())
    affected_ref = ray.put(affected)

    # Nodes outside any merge group pass through untouched — a pure filter
    # map, NO shuffle. Only the matched minority (bounded by |cmap|) is
    # pulled to the driver, merged per canonical group, and unioned back.
    def keep_unaffected(batch: pa.Table) -> pa.Table:
        aff = ray.get(affected_ref)
        mask = [i not in aff for i in batch["entity_id"].to_pylist()]
        return batch.filter(pa.array(mask))

    def keep_affected(batch: pa.Table) -> pa.Table:
        aff = ray.get(affected_ref)
        m: Dict[str, str] = ray.get(cmap_ref)
        mask = [i in aff for i in batch["entity_id"].to_pylist()]
        t = batch.filter(pa.array(mask))
        canon = [m.get(i, i) for i in t["entity_id"].to_pylist()]
        return t.append_column("canonical_id", pa.array(canon, pa.string()))

    import ray.data as rd

    from .common import bucketed_group_reduce
    from .dedup import EDGES_SCHEMA, NODES_SCHEMA
    merged_df = _collect_df(
        nodes.map_batches(keep_affected, batch_format="pyarrow"))
    merged_rows = (_merge_groups(merged_df)
                   if len(merged_df) else merged_df.drop(
                       columns=["canonical_id"], errors="ignore"))
    merged_rows = _fill_schema_cols(merged_rows, NODES_SCHEMA)
    canon_nodes = nodes.map_batches(
        keep_unaffected, batch_format="pyarrow").union(
        rd.from_arrow(pa.Table.from_pandas(
            merged_rows, schema=NODES_SCHEMA, preserve_index=False)
            .replace_schema_metadata(None)))

    def rewrite_edges(batch: pa.Table) -> pa.Table:
        m: Dict[str, str] = ray.get(cmap_ref)
        head = [m.get(i, i) for i in batch["head_id"].to_pylist()]
        tail = [m.get(i, i) for i in batch["tail_id"].to_pylist()]
        out = batch.set_column(batch.schema.get_field_index("head_id"),
                               "head_id", pa.array(head, pa.string()))
        out = out.set_column(out.schema.get_field_index("tail_id"),
                             "tail_id", pa.array(tail, pa.string()))
        # a merge can collapse both endpoints into one node — such
        # self-relations are invalid (agraph/relations.py:116-125)
        return out.filter(pc.invert(pc.equal(out["head_id"], out["tail_id"])))

    canon_edges = bucketed_group_reduce(
        edges.map_batches(rewrite_edges, batch_format="pyarrow"),
        ["head_id", "relation_type", "tail_id"],
        lambda df: _resig_dedup(_fill_schema_cols(df, EDGES_SCHEMA)),
        schema=EDGES_SCHEMA)
    return canon_nodes, canon_edges
