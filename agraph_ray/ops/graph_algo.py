"""Distributed graph algorithms over edge-list Datasets.

Complements the KG-side graph utilities (ops/graph.py, state/unionfind.py)
with the classic large-graph kernels a training-data / analytics engine
needs: co-occurrence edge building, exact triangle counting, and PageRank.
All three follow the repo's shuffle discipline — per-batch combiners before
every wide step, ``bucketed_group_reduce`` with vectorized pandas bodies
instead of per-key ``map_groups``, and keyed lookups (the triangle and
link-prediction degree tables) joined through ``ops/join.py::auto_join``,
which broadcasts a small side and co-groups a large one.

Reference parity: the reference keeps whole graphs in one process
(networkx-style dict graphs, agraph/graph/knowledge_graph.py); these
kernels are the scale-out replacements for its degree / connectivity
analytics (agraph/graph/operations.py) on graphs that exceed one heap.

Size constants, each read on the driver once per call:

- ``_DRIVER_EDGES`` (5M edges): :func:`pagerank`, :func:`k_core` and
  :func:`label_propagation` iterate in numpy on the driver up to it, and
  in bucketed shuffle rounds above it;
- ``_BROADCAST_ROWS`` (20M rows, 160 MB per int64 column): the
  negative-sampling pool and the random-walk adjacency ride ``ray.put``
  up to it, and a co-grouped shuffle above it.
"""

from __future__ import annotations

from typing import Optional

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..stages.common import bucketed_group_reduce, distinct_on

_DRIVER_EDGES = 5_000_000
_BROADCAST_ROWS = 20_000_000

__all__ = ["pairs_within_groups", "triangle_counts", "pagerank",
           "personalized_pagerank", "k_core", "label_propagation",
           "link_prediction_scores", "random_walks"]


def pairs_within_groups(ds: "ray.data.Dataset", group_col: str,
                        item_col: str, max_group: int = 10_000,
                        num_buckets: int = 64) -> "ray.data.Dataset":
    """Distinct unordered co-occurrence pairs ``(a, b)`` (a < b) of items
    sharing a group — e.g. parts appearing in the same order. One hash
    shuffle on the group id; per bucket one lexsort + per-size-class
    ``triu_indices`` expansion (no per-group Python dispatch). Groups
    larger than ``max_group`` are truncated to their ``max_group``
    smallest items (quadratic blowup guard; log-worthy at call sites)."""
    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64())])

    def dedup_in_batch(t: pa.Table) -> pa.Table:
        # combiner: drop duplicate (group, item) rows before the shuffle
        return pa.Table.from_pandas(
            t.select([group_col, item_col]).to_pandas()
            .drop_duplicates([group_col, item_col]), preserve_index=False)

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        if n == 0:
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64")})
        g = df[group_col].to_numpy(dtype=np.int64)
        v = df[item_col].to_numpy(dtype=np.int64)
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        sizes = np.minimum(np.diff(np.append(starts, n)), max_group)
        out_a, out_b = [], []
        for s in np.unique(sizes):
            if s < 2:
                continue
            st = starts[sizes == s]
            iu, ju = np.triu_indices(int(s), k=1)
            out_a.append(v[(st[:, None] + iu[None, :]).reshape(-1)])
            out_b.append(v[(st[:, None] + ju[None, :]).reshape(-1)])
        if not out_a:
            return pd.DataFrame({"a": pd.Series(dtype="int64"),
                                 "b": pd.Series(dtype="int64")})
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        keep = a != b          # dedup_in_batch makes this vacuous; belt
        return (pd.DataFrame({"a": a[keep], "b": b[keep]})
                .drop_duplicates())

    cand = bucketed_group_reduce(
        ds.select_columns([group_col, item_col])
        .map_batches(dedup_in_batch, batch_format="pyarrow"),
        [group_col], pairs, num_buckets, schema=pair_schema)
    return distinct_on(cand, ["a", "b"])


def _ren(ds: "ray.data.Dataset", mapping: dict) -> "ray.data.Dataset":
    """Rename columns with an explicit pyarrow map: Ray 2.49's
    ``Dataset.rename_columns`` calls ``.rename_columns`` on the raw block
    and breaks on pandas blocks, which bucketed reduces emit."""
    def f(t: pa.Table) -> pa.Table:
        return t.rename_columns([mapping.get(c, c) for c in t.column_names])
    return ds.map_batches(f, batch_format="pyarrow")


def _degree_table(edges: "ray.data.Dataset") -> "ray.data.Dataset":
    """(node, deg) over undirected distinct edges (a < b) — per-batch
    bincount combiner, one small keyed sum."""
    from ..stages.common import keyed_sum

    def partial(t: pa.Table) -> pa.Table:
        both = np.concatenate([
            t["a"].to_numpy(zero_copy_only=False),
            t["b"].to_numpy(zero_copy_only=False)]).astype(np.int64)
        u, c = np.unique(both, return_counts=True)
        return pa.table({"node": pa.array(u, pa.int64()),
                         "d": pa.array(c, pa.int64())})

    return keyed_sum(edges.map_batches(partial, batch_format="pyarrow"),
                     ["node"], {"d": "deg"},
                     key_schema=[pa.field("node", pa.int64())])


def triangle_counts(edges: "ray.data.Dataset",
                    num_buckets: int = 128) -> "ray.data.Dataset":
    """Exact per-node triangle counts over an undirected edge list
    ``(a, b)`` (any order, duplicates tolerated) → ``(node, n_tri)`` for
    every node in at least one triangle.

    Degree-ordered node-iterator algorithm (the MapReduce classic from
    Suri & Vassilvitskii, "Counting Triangles and the Curse of the Last
    Reducer", WWW'11): orient each edge from its lower-(deg, id) endpoint
    to the higher, emit "wedges" only between a node's *out*-neighbors
    (bounding per-node work by O(sqrt(m)) out-degree, total wedge volume
    by O(m^1.5)), and close wedges against the oriented edge set with one
    hash co-group — no all-pairs step anywhere.

    The (node → degree) table is attached to both endpoints with two
    joins through ``ops/join.py::auto_join`` (broadcast while small).
    Node ids must fit in uint32 (packed (deg << 32 | id) orientation
    key)."""
    from .join import auto_join

    def norm(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return (pa.table({"a": pa.array(lo), "b": pa.array(hi)})
                .to_pandas().drop_duplicates().pipe(
                    pa.Table.from_pandas, preserve_index=False))

    und = distinct_on(
        edges.select_columns(["a", "b"]).map_batches(
            norm, batch_format="pyarrow"),
        ["a", "b"]).materialize()
    deg = _degree_table(und).materialize()   # attached to both ends
    withdeg = auto_join(
        auto_join(und, _ren(deg, {"node": "a", "deg": "da"}), ["a"]),
        _ren(deg, {"node": "b", "deg": "db"}), ["b"])

    def orient(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        da = t["da"].to_numpy(zero_copy_only=False).astype(np.uint64)
        db = t["db"].to_numpy(zero_copy_only=False).astype(np.uint64)
        orda = (da << np.uint64(32)) | a.astype(np.uint64)
        ordb = (db << np.uint64(32)) | b.astype(np.uint64)
        a_first = orda < ordb
        return pa.table({
            "src": pa.array(np.where(a_first, a, b), pa.int64()),
            "dst": pa.array(np.where(a_first, b, a), pa.int64()),
            "dord": pa.array(np.where(a_first, ordb, orda)
                             .astype(np.int64))})

    oriented = withdeg.map_batches(orient, batch_format="pyarrow")
    oriented = oriented.materialize()   # consumed by wedges AND closing

    wedge_schema = pa.schema([("x", pa.int64()), ("y", pa.int64()),
                              ("u", pa.int64())])

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        """All out-neighbor pairs per center, pair ordered by the
        orientation key so the wedge key (x, y) matches the oriented
        edge (src, dst) exactly."""
        n = len(df)
        if n == 0:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("x", "y", "u")})
        src = df["src"].to_numpy(dtype=np.int64)
        dst = df["dst"].to_numpy(dtype=np.int64)
        dord = df["dord"].to_numpy(dtype=np.int64)
        order = np.lexsort((dord, src))
        src, dst = src[order], dst[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = src[1:] != src[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n))
        xs, ys, us = [], [], []
        for s in np.unique(sizes):
            if s < 2:
                continue
            st = starts[sizes == s]
            iu, ju = np.triu_indices(int(s), k=1)
            xs.append(dst[(st[:, None] + iu[None, :]).reshape(-1)])
            ys.append(dst[(st[:, None] + ju[None, :]).reshape(-1)])
            us.append(np.repeat(src[st], len(iu)))
        if not xs:
            return pd.DataFrame({c: pd.Series(dtype="int64")
                                 for c in ("x", "y", "u")})
        return pd.DataFrame({"x": np.concatenate(xs),
                             "y": np.concatenate(ys),
                             "u": np.concatenate(us)})

    wedge_rows = bucketed_group_reduce(oriented, ["src"], wedges,
                                       num_buckets, schema=wedge_schema)

    def tag_edge(t: pa.Table) -> pa.Table:
        return pa.table({"x": t["src"], "y": t["dst"],
                         "u": pa.nulls(len(t), pa.int64())})

    cnt_schema = pa.schema([("node", pa.int64()), ("c", pa.int64())])

    def close(df: pd.DataFrame) -> pd.DataFrame:
        """Per bucket: match wedges against the edge set and collapse the
        three corners of each closed triangle to partial counts."""
        is_edge = df["u"].isna()
        edge_keys = pd.MultiIndex.from_frame(df.loc[is_edge, ["x", "y"]])
        w = df.loc[~is_edge]
        hit = pd.MultiIndex.from_frame(w[["x", "y"]]).isin(edge_keys)
        tri = w.loc[hit]
        if len(tri) == 0:
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "c": pd.Series(dtype="int64")})
        corners = np.concatenate([tri["x"].to_numpy(dtype=np.int64),
                                  tri["y"].to_numpy(dtype=np.int64),
                                  tri["u"].to_numpy(dtype=np.int64)])
        u, c = np.unique(corners, return_counts=True)
        return pd.DataFrame({"node": u, "c": c})

    from ..stages.common import keyed_sum
    tagged = wedge_rows.union(
        oriented.map_batches(tag_edge, batch_format="pyarrow"))
    partial = bucketed_group_reduce(tagged, ["x", "y"], close, num_buckets,
                                    schema=cnt_schema)
    return keyed_sum(partial, ["node"], {"c": "n_tri"},
                     key_schema=[pa.field("node", pa.int64())])


def _driver_pagerank(ed: "ray.data.Dataset", damping: float, iters: int,
                     round_to: Optional[int],
                     seeds: Optional[list] = None) -> "ray.data.Dataset":
    """Exact numpy power iteration for edge sets that fit the driver —
    a label-propagation-style distributed round costs several
    whole-cluster executions, pure overhead for a few-million-edge
    graph (same size-adaptive rationale as state/unionfind.py)."""
    import ray.data as rd
    srcs, dsts = [], []
    for b in ed.iter_batches(batch_size=None, batch_format="pyarrow"):
        srcs.append(b["src"].to_numpy(zero_copy_only=False))
        dsts.append(b["dst"].to_numpy(zero_copy_only=False))
    src = np.concatenate(srcs).astype(np.int64)
    dst = np.concatenate(dsts).astype(np.int64)
    nodes = np.unique(np.concatenate([src, dst]))
    n = len(nodes)
    if n == 0:
        return rd.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "rank": pa.array([], pa.float64())}))
    si = np.searchsorted(nodes, src)
    di = np.searchsorted(nodes, dst)
    outdeg = np.bincount(si, minlength=n)
    sinks = outdeg == 0
    if seeds is None:
        e = np.full(n, 1.0 / n)
    else:
        # teleport mass only on the seed nodes (absent seeds lose their
        # share — S is the given seed count, matching the SQL oracle)
        e = np.zeros(n)
        sidx = np.searchsorted(nodes, np.asarray(seeds, np.int64))
        sidx = sidx[(sidx < n) & (nodes[np.minimum(sidx, n - 1)]
                                  == np.asarray(seeds, np.int64))]
        e[sidx] = 1.0 / len(seeds)
    r = e.copy()
    for _ in range(iters):
        contrib = r[si] / outdeg[si]
        insum = np.bincount(di, weights=contrib, minlength=n)
        dang = r[sinks].sum()
        r = (1.0 - damping) * e + damping * (insum + dang * e)
    if round_to is not None:
        r = np.round(r, round_to)
    return rd.from_arrow(pa.table({"node": pa.array(nodes, pa.int64()),
                                   "rank": pa.array(r, pa.float64())}))


def pagerank(edges: "ray.data.Dataset", damping: float = 0.85,
             iters: int = 20, src_col: str = "src", dst_col: str = "dst",
             num_buckets: int = 64, round_to: Optional[int] = 8,
             assume_no_dangling: bool = False,
             seeds: Optional[list] = None) -> "ray.data.Dataset":
    """Exact power-iteration PageRank over a directed edge list →
    ``(node, rank)`` for every node incident to an edge. Dangling mass
    (nodes with no out-edges) is redistributed uniformly each round, so
    ranks sum to 1.

    Size-adaptive: at or below ``_DRIVER_EDGES`` edges, one numpy
    power iteration on the driver (a distributed round is several
    whole-cluster executions — pure overhead for small graphs). Above
    it, per round: one bucketed shuffle keyed on the source node (every
    edge picks up its source's current rank/out-degree and emits a
    contribution to its destination — a vectorized per-bucket merge, no
    per-node dispatch) and one keyed on the destination (sum + damping).
    The edge set is materialized once and re-streamed each round; rank
    state is O(|V|) rows. Iteration count is fixed (deterministic
    results), the standard 10-30 rounds of web-graph practice.
    ``assume_no_dangling=True`` skips the per-round dangling-mass pass
    (correct for symmetrized/undirected graphs, where every node has an
    out-edge)."""
    import ray.data as rd
    from ray.data.aggregate import Sum

    # explicit pyarrow select+rename (Dataset.rename_columns breaks on
    # pandas blocks in Ray 2.49)
    ed = (edges.select_columns([src_col, dst_col])
          .map_batches(lambda t: t.rename_columns(["src", "dst"]),
                       batch_format="pyarrow")
          .materialize())
    if ed.count() <= _DRIVER_EDGES:
        return _driver_pagerank(ed, damping, iters, round_to, seeds)

    def node_partial(t: pa.Table) -> pa.Table:
        s = t["src"].to_numpy(zero_copy_only=False).astype(np.int64)
        d = t["dst"].to_numpy(zero_copy_only=False).astype(np.int64)
        u_all = np.unique(np.concatenate([s, d]))
        us, cs = np.unique(s, return_counts=True)
        out = np.zeros(len(u_all), dtype=np.int64)
        out[np.searchsorted(u_all, us)] = cs
        return pa.table({"node": pa.array(u_all, pa.int64()),
                         "o": pa.array(out, pa.int64())})

    from ..stages.common import keyed_sum
    state = keyed_sum(
        ed.map_batches(node_partial, batch_format="pyarrow"),
        ["node"], {"o": "outdeg"},
        key_schema=[pa.field("node", pa.int64())]).materialize()
    n = state.count()
    if n == 0:
        return rd.from_arrow(pa.table(
            {"node": pa.array([], pa.int64()),
             "rank": pa.array([], pa.float64())}))

    seed_arr = (np.unique(np.asarray(seeds, np.int64))
                if seeds is not None else None)
    n_seeds = len(seeds) if seeds is not None else 0

    def _teleport(node_arr: np.ndarray) -> np.ndarray:
        """e(v): uniform 1/n (standard) or 1/S on seeds (personalized)."""
        if seed_arr is None:
            return np.full(len(node_arr), 1.0 / n)
        return np.where(np.isin(node_arr, seed_arr), 1.0 / n_seeds, 0.0)

    state = state.map_batches(
        lambda t: t.append_column("rank", pa.array(
            _teleport(t["node"].to_numpy(zero_copy_only=False)
                      .astype(np.int64)), pa.float64())),
        batch_format="pyarrow").materialize()

    msg_schema = pa.schema([("node", pa.int64()), ("w", pa.float64()),
                            ("outdeg", pa.int64())])
    state_schema = pa.schema([("node", pa.int64()), ("outdeg", pa.int64()),
                              ("rank", pa.float64())])

    def tag_state(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["node"], "dst": pa.nulls(len(t), pa.int64()),
                         "rank": t["rank"], "outdeg": t["outdeg"]})

    def tag_edge(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["src"], "dst": t["dst"],
                         "rank": pa.nulls(len(t), pa.float64()),
                         "outdeg": pa.nulls(len(t), pa.int64())})

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        """Every edge learns its source's rank/outdeg; the state row
        re-emits itself with w=0 so sinks and no-inbound nodes survive."""
        selfs = df.loc[df["dst"].isna(), ["key", "rank", "outdeg"]]
        reqs = df.loc[df["dst"].notna(), ["key", "dst"]]
        m = reqs.merge(selfs, on="key", how="inner")
        give = m["rank"].to_numpy() / m["outdeg"].to_numpy()
        # combiner: collapse same-destination contributions in-bucket
        part = (pd.DataFrame({"node": m["dst"].astype("int64"), "w": give})
                .groupby("node", as_index=False)["w"].sum())
        part["outdeg"] = pd.array([None] * len(part), dtype="Int64")
        keep = pd.DataFrame({"node": selfs["key"].astype("int64"),
                             "w": 0.0,
                             "outdeg": pd.array(selfs["outdeg"],
                                                dtype="Int64")})
        return pd.concat([part, keep], ignore_index=True)

    for _ in range(iters):
        if assume_no_dangling:
            tele_mass = 1.0 - damping
        else:
            dang = state.map_batches(
                lambda t: pa.table({"dm": pa.array(
                    [float(np.where(
                        t["outdeg"].to_numpy(zero_copy_only=False) == 0,
                        t["rank"].to_numpy(zero_copy_only=False),
                        0.0).sum())],
                    pa.float64())}),
                batch_format="pyarrow").aggregate(Sum("dm", alias_name="dm"))
            tele_mass = (1.0 - damping
                         + damping * float(dang["dm"] or 0.0))

        tagged = (state.map_batches(tag_state, batch_format="pyarrow")
                  .union(ed.map_batches(tag_edge, batch_format="pyarrow")))
        msgs = bucketed_group_reduce(tagged, ["key"], contrib, num_buckets,
                                     schema=msg_schema)

        def resolve(df: pd.DataFrame, _tm=tele_mass) -> pd.DataFrame:
            g = df.groupby("node", sort=False)
            insum = g["w"].sum()
            od = g["outdeg"].max()    # exactly one non-null per node
            nodes_arr = insum.index.to_numpy()
            return pd.DataFrame({
                "node": nodes_arr,
                "outdeg": od.to_numpy(dtype="float64").astype("int64"),
                "rank": (_tm * _teleport(nodes_arr.astype(np.int64))
                         + damping * insum.to_numpy())})

        state = bucketed_group_reduce(msgs, ["node"], resolve, num_buckets,
                                      schema=state_schema).materialize()

    out = state.select_columns(["node", "rank"])
    if round_to is not None:
        out = out.map_batches(
            lambda t: pa.table({"node": t["node"],
                                "rank": pc.round(t["rank"],
                                                 ndigits=round_to)}),
            batch_format="pyarrow")
    return out


def personalized_pagerank(edges: "ray.data.Dataset", seeds: list,
                          damping: float = 0.85, iters: int = 20,
                          **kw) -> "ray.data.Dataset":
    """Personalized PageRank: the teleport vector is uniform over
    ``seeds`` (1/len(seeds) each) instead of uniform over all nodes, and
    dangling mass restarts at the seeds — the random-walk-with-restart
    relevance score used for graph-local retrieval (seed entities →
    related entities). Same size-adaptive driver/distributed machinery
    as :func:`pagerank`; seeds are a small query-side list by contract
    (they ride into the resolve closure, never a shuffle). With a fixed
    iteration count the fixpoint is SQL-expressible as a recursive CTE
    power iteration, so this op is oracle-checked end to end
    (``__ray_entry__.oracle_sql()['part_ppr']``)."""
    return pagerank(edges, damping=damping, iters=iters, seeds=list(seeds),
                    **kw)


def _driver_k_core(edges_df: pd.DataFrame, k: int) -> pd.DataFrame:
    """Vectorized peeling on the driver: repeatedly drop nodes with
    degree < k until fixpoint."""
    a = edges_df["a"].to_numpy(dtype=np.int64)
    b = edges_df["b"].to_numpy(dtype=np.int64)
    while True:
        if len(a) == 0:
            return pd.DataFrame({"node": pd.Series(dtype="int64"),
                                 "deg": pd.Series(dtype="int64")})
        nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        deg = np.bincount(inv, minlength=len(nodes))
        bad = nodes[deg < k]
        if len(bad) == 0:
            return pd.DataFrame({"node": nodes, "deg": deg})
        keep = ~(np.isin(a, bad) | np.isin(b, bad))
        a, b = a[keep], b[keep]


def k_core(edges: "ray.data.Dataset", k: int,
           max_rounds: int = 1000) -> "ray.data.Dataset":
    """The k-core of an undirected edge list ``(a, b)`` → ``(node, deg)``
    for every node of the maximal subgraph where all degrees are >= k
    (``deg`` = the node's degree *inside* the core).

    Size-adaptive like :func:`pagerank`: small edge sets peel on the
    driver with vectorized numpy rounds. The distributed path peels one
    round per pass — degree count (per-batch combiner + one small
    groupby), then two anti-joins drop edges incident to sub-k nodes —
    and each pass strictly shrinks the edge set, so later rounds get
    cheaper; round count is the graph's peeling depth (low for real
    co-occurrence graphs; ``max_rounds`` guards pathological chains)."""
    import ray.data as rd

    from .join import cogroup_join

    def norm(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return (pa.table({"a": pa.array(lo), "b": pa.array(hi)})
                .to_pandas().drop_duplicates().pipe(
                    pa.Table.from_pandas, preserve_index=False))

    und = distinct_on(
        edges.select_columns(["a", "b"]).map_batches(
            norm, batch_format="pyarrow"),
        ["a", "b"]).materialize()

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "deg": pa.array([], pa.int64())})
    if und.count() <= _DRIVER_EDGES:
        return rd.from_arrow(pa.Table.from_pandas(
            _driver_k_core(und.to_pandas(), k), preserve_index=False)
            .cast(empty.schema) if und.count() else empty)

    for _ in range(max_rounds):
        deg = _degree_table(und).materialize()
        bad = deg.filter(expr=f"deg < {k}").select_columns(["node"]
                                                           ).materialize()
        if bad.count() == 0:
            return deg
        und = _ren(cogroup_join(_ren(und, {"a": "node"}), bad,
                                on=["node"], how="anti"), {"node": "a"})
        und = _ren(cogroup_join(_ren(und, {"b": "node"}), bad,
                                on=["node"], how="anti"), {"node": "b"})
        und = und.materialize()
        if und.count() == 0:
            return rd.from_arrow(empty)
    raise RuntimeError(f"k_core did not converge in {max_rounds} rounds")

def _lpa_pick(node: np.ndarray, label: np.ndarray,
              cnt: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Per node: the label with the highest vote count, ties to the
    smallest label — fully vectorized (sort by (node, -cnt, label), take
    each node's first row)."""
    order = np.lexsort((label, -cnt, node))
    n_s, l_s = node[order], label[order]
    first = np.ones(len(n_s), dtype=bool)
    first[1:] = n_s[1:] != n_s[:-1]
    return n_s[first], l_s[first]


def _driver_lpa(df: pd.DataFrame, iters: int) -> pd.DataFrame:
    a = df["a"].to_numpy(dtype=np.int64)
    b = df["b"].to_numpy(dtype=np.int64)
    nodes, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
    ai, bi = inv[:len(a)], inv[len(a):]
    lab = np.arange(len(nodes), dtype=np.int64)   # dense label = node index
    for _ in range(iters):
        # votes: each edge endpoint votes its neighbor's label; each node
        # votes its own current label once (self-vote damps the classic
        # synchronous-LPA two-coloring oscillation, deterministically)
        vn = np.concatenate([ai, bi, np.arange(len(nodes))])
        vl = np.concatenate([lab[bi], lab[ai], lab])
        pairs = vn.astype(np.int64) * np.int64(len(nodes)) + vl
        uniq, cnt = np.unique(pairs, return_counts=True)
        n_id = (uniq // len(nodes)).astype(np.int64)
        l_id = (uniq % len(nodes)).astype(np.int64)
        pick_n, pick_l = _lpa_pick(n_id, l_id, cnt.astype(np.int64))
        new = lab.copy()
        new[pick_n] = pick_l
        if np.array_equal(new, lab):
            break
        lab = new
    # canonical community id = the min node id carrying each label
    comm = nodes[lab]
    order = np.argsort(comm, kind="stable")
    uniq_c, first_idx = np.unique(comm[order], return_index=True)
    rep = np.minimum.reduceat(nodes[order], first_idx)
    comm = rep[np.searchsorted(uniq_c, comm)]
    return pd.DataFrame({"node": nodes, "community": comm})


def label_propagation(edges: "ray.data.Dataset", iters: int = 10,
                      num_buckets: int = 64) -> "ray.data.Dataset":
    """Label-propagation community detection over an undirected edge list
    ``(a, b)`` → ``(node, community)``; the community id is the smallest
    node id in the community.

    Synchronous LPA with two deterministic pins: ties go to the smallest
    label, and every node casts one vote for its own current label (the
    self-vote prevents the two-coloring flip-flop synchronous LPA is
    known for). Fixed ``iters`` rounds (early exit when labels stop
    changing), so results are reproducible across runs and partitionings.

    Size-adaptive like :func:`pagerank`: small graphs run vectorized numpy
    rounds on the driver; above ``_DRIVER_EDGES`` edges each round is
    two bucketed shuffles — (1) every edge picks up its source endpoint's
    current label and emits a vote to the other endpoint (plus the
    self-vote), with an in-bucket (node, label) combiner so the second
    shuffle carries pre-summed counts, and (2) per node, vectorized
    argmax-with-min-tie over the vote counts. Label state is O(|V|) rows;
    the edge set is materialized once and re-streamed per round.

    Not SQL-expressible (iterative fixpoint) — exactness is pytest-pinned:
    the distributed path must equal the driver path label-for-label.
    """
    import ray.data as rd

    def norm(t: pa.Table) -> pa.Table:
        a = t["a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["b"].to_numpy(zero_copy_only=False).astype(np.int64)
        keep = a != b
        a, b = a[keep], b[keep]
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        return (pa.table({"a": pa.array(lo), "b": pa.array(hi)})
                .to_pandas().drop_duplicates().pipe(
                    pa.Table.from_pandas, preserve_index=False))

    und = distinct_on(
        edges.select_columns(["a", "b"]).map_batches(
            norm, batch_format="pyarrow"),
        ["a", "b"]).materialize()

    empty = pa.table({"node": pa.array([], pa.int64()),
                      "community": pa.array([], pa.int64())})
    if und.count() == 0:
        return rd.from_arrow(empty)
    if und.count() <= _DRIVER_EDGES:
        return rd.from_arrow(pa.Table.from_pandas(
            _driver_lpa(und.to_pandas(), iters),
            preserve_index=False).cast(empty.schema))

    # state: (node, label), initialized label = node
    def init_state(t: pa.Table) -> pa.Table:
        n = np.unique(np.concatenate([
            t["a"].to_numpy(zero_copy_only=False).astype(np.int64),
            t["b"].to_numpy(zero_copy_only=False).astype(np.int64)]))
        return pa.table({"node": pa.array(n, pa.int64()),
                         "label": pa.array(n, pa.int64())})

    state = distinct_on(
        und.map_batches(init_state, batch_format="pyarrow"),
        ["node"]).materialize()

    vote_schema = pa.schema([("node", pa.int64()), ("label", pa.int64()),
                             ("c", pa.int64())])
    state_schema = pa.schema([("node", pa.int64()), ("label", pa.int64())])

    def tag_state(t: pa.Table) -> pa.Table:
        return pa.table({"key": t["node"],
                         "other": pa.nulls(len(t), pa.int64()),
                         "label": t["label"]})

    def tag_edges(t: pa.Table) -> pa.Table:
        # each undirected edge keyed on BOTH endpoints so one shuffle
        # serves both directions
        a = t["a"].combine_chunks()
        b = t["b"].combine_chunks()
        return pa.table({"key": pa.concat_arrays([a, b]),
                         "other": pa.concat_arrays([b, a]),
                         "label": pa.nulls(2 * len(t), pa.int64())})

    def votes(df: pd.DataFrame) -> pd.DataFrame:
        own = df.loc[df["other"].isna(), ["key", "label"]]
        ed = df.loc[df["other"].notna(), ["key", "other"]]
        m = ed.merge(own, on="key", how="inner")
        out = pd.concat([
            pd.DataFrame({"node": m["other"].astype("int64"),
                          "label": m["label"].astype("int64")}),
            pd.DataFrame({"node": own["key"].astype("int64"),
                          "label": own["label"].astype("int64")})],
            ignore_index=True)
        # in-bucket combiner: the argmax shuffle carries (node,label,c)
        return (out.groupby(["node", "label"], as_index=False)
                .size().rename(columns={"size": "c"}))

    def argmax(df: pd.DataFrame) -> pd.DataFrame:
        g = (df.groupby(["node", "label"], as_index=False)["c"].sum())
        n, l = _lpa_pick(g["node"].to_numpy(dtype=np.int64),
                         g["label"].to_numpy(dtype=np.int64),
                         g["c"].to_numpy(dtype=np.int64))
        return pd.DataFrame({"node": n, "label": l})

    for _ in range(iters):
        tagged = (state.map_batches(tag_state, batch_format="pyarrow")
                  .union(und.map_batches(tag_edges,
                                         batch_format="pyarrow")))
        vote_counts = bucketed_group_reduce(tagged, ["key"], votes,
                                            num_buckets,
                                            schema=vote_schema)
        state = bucketed_group_reduce(vote_counts, ["node"], argmax,
                                      num_buckets,
                                      schema=state_schema).materialize()

    # canonical community id = min node id per label (labels ARE node ids,
    # but a community's surviving label may not be its smallest member)
    def relabel_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("label", as_index=False)["node"].min().rename(
            columns={"node": "rep"})

    reps = bucketed_group_reduce(
        state, ["label"], relabel_partial, num_buckets,
        schema=pa.schema([("label", pa.int64()), ("rep", pa.int64())]))
    from .join import cogroup_join
    out = cogroup_join(state, reps, on=["label"], how="inner",
                       num_buckets=num_buckets)
    return out.map_batches(
        lambda t: pa.table({"node": t["node"],
                            "community": t["rep"]}),
        batch_format="pyarrow")


def sample_neighbors(edges: "ray.data.Dataset", src: str, dst: str,
                     k: int, num_buckets: int = 64) -> "ray.data.Dataset":
    """Deterministic k-neighbor sample per source node — the GraphSAGE /
    GNN-minibatch fan-out primitive. Within each ``src`` group keep the
    ``k`` edges with the smallest (md5-hash(dst), dst) rank: a uniform-ish
    run-stable sample (same rule as ops/stats.py::stratified_sample, so
    the DuckDB oracle is a row_number window over the same md5 prefix).
    One bucketed shuffle on ``src``; vectorized per-bucket body."""
    from .stats import _key_hash32

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(__h=_key_hash32(df[dst].tolist()))
        df = df.sort_values(["__h", dst], kind="stable")
        return (df.groupby(src, sort=False).head(k).drop(columns="__h"))

    dd = distinct_on(edges.select_columns([src, dst]), [src, dst],
                     num_buckets)
    from ..stages.common import arrow_col_type
    schema = pa.schema([(src, arrow_col_type(edges, src)),
                        (dst, arrow_col_type(edges, dst))])
    return bucketed_group_reduce(dd, [src], reduce_df, num_buckets,
                                 schema=schema)


def negative_sample_edges(edges: "ray.data.Dataset", src: str, dst: str,
                          pool: "ray.data.Dataset", pool_col: str,
                          k: int = 2, num_buckets: int = 64
                          ) -> "ray.data.Dataset":
    """Deterministic negative sampling for KG-embedding training: for
    each distinct edge and each j in [0, k), corrupt the tail by a
    hash-picked candidate from ``pool`` → ``(src, dst, neg_idx,
    neg_<pool_col>)``. The pick is ``md5("src|dst|j") % |pool|`` over the
    pool sorted ascending — same on any worker/run, and reproducible in
    SQL (row_number join). Unfiltered sampling (a negative may collide
    with a true edge) — the standard trade in LCWA training; filter
    downstream with an anti join if needed.

    The pool rides as a broadcast sorted numpy array (``ray.put`` once)
    up to ``_BROADCAST_ROWS`` ids; above it, the pick
    index becomes a join key against the globally-ranked pool (one
    range sort for the ranks + one co-group join) — identical output,
    never a driver-memory cliff."""
    import ray

    from .stats import _key_hash32

    pool_d = distinct_on(pool.select_columns([pool_col]), [pool_col],
                         num_buckets)
    n_pool = pool_d.count()
    if n_pool > _BROADCAST_ROWS:
        return _negative_sample_joined(edges, src, dst, pool_d, pool_col,
                                       k, n_pool, num_buckets)
    pool_ids = np.sort(np.asarray(
        [r[pool_col] for r in pool_d.take_all()], dtype=np.int64))
    ref = ray.put(pool_ids)

    def sample(t: pa.Table) -> pa.Table:
        ids = ray.get(ref)
        cnt = np.uint64(len(ids))
        s = t[src].to_numpy(zero_copy_only=False)
        d = t[dst].to_numpy(zero_copy_only=False)
        n = len(t)
        out_s = np.repeat(s, k)
        out_d = np.repeat(d, k)
        out_j = np.tile(np.arange(k, dtype=np.int32), n)
        keys = [f"{a}|{b}|{j}"
                for a, b, j in zip(out_s, out_d, out_j)]
        idx = (_key_hash32(keys) % cnt).astype(np.int64)
        return pa.table({src: pa.array(out_s),
                         dst: pa.array(out_d),
                         "neg_idx": pa.array(out_j, pa.int32()),
                         f"neg_{pool_col}": pa.array(ids[idx], pa.int64())})

    dd = distinct_on(edges.select_columns([src, dst]), [src, dst],
                     num_buckets)
    return dd.map_batches(sample, batch_format="pyarrow")


def link_prediction_scores(edges: "ray.data.Dataset", src: str, dst: str,
                           k: int = 100, max_group: int = 10_000,
                           num_buckets: int = 64) -> "ray.data.Dataset":
    """Link-prediction scores for src pairs sharing dst neighbors in a
    bipartite edge list: common-neighbor count, Jaccard, and Adamic-Adar
    (Liben-Nowell & Kleinberg 2003). Returns the global top-``k`` pairs
    ``(a, b, cn, aa_micro, jac_micro)`` ordered by Adamic-Adar desc with
    pinned ties (sorted on the micro-scaled INTEGER so the engine and a
    SQL oracle break float ties identically).

    Shuffle plan: one dst-keyed bucketed reduce emits weighted pairs —
    because all rows of a dst are co-located, the neighbor degree (the
    1/ln(deg) Adamic-Adar weight) is just the in-bucket group size, so no
    separate degree pass or join is needed. One (a, b)-keyed reduce sums
    cn/aa. Src degrees (for Jaccard) are a tiny keyed count attached to
    both ends through ``ops/join.py::auto_join``. Groups larger
    than ``max_group`` are skipped entirely (quadratic guard; a hub dst
    shared by everyone carries ~zero Adamic-Adar signal anyway) — mirror
    the same HAVING bound in any oracle."""
    from .join import auto_join

    # materialized once: both the pair chain and the degree chain consume
    # it — lazy, the distinct shuffle would execute twice
    e = distinct_on(edges.select_columns([src, dst]), [src, dst],
                    num_buckets).materialize()
    # bucket count for the pair/fold shuffles: byte-adaptive below the
    # caller's value (which stays the cap — large graphs are unchanged).
    # The x8 allowance covers the wedge-pair expansion over the edge list.
    num_buckets = int(min(num_buckets, max(
        8, ((e.size_bytes() or 0) * 8) // (32 << 20) + 1)))

    pair_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                             ("cn", pa.int64()), ("aa", pa.float64())])

    def weighted_pairs(df: pd.DataFrame) -> pd.DataFrame:
        n = len(df)
        empty = pd.DataFrame({"a": pd.Series(dtype="int64"),
                              "b": pd.Series(dtype="int64"),
                              "cn": pd.Series(dtype="int64"),
                              "aa": pd.Series(dtype="float64")})
        if n == 0:
            return empty
        g = df[dst].to_numpy(dtype=np.int64)
        v = df[src].to_numpy(dtype=np.int64)
        order = np.lexsort((v, g))
        g, v = g[order], v[order]
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = g[1:] != g[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n))
        out_a, out_b, out_w = [], [], []
        for s in np.unique(sizes):
            if s < 2 or s > max_group:
                continue
            st = starts[sizes == s]
            iu, ju = np.triu_indices(int(s), k=1)
            out_a.append(v[(st[:, None] + iu[None, :]).reshape(-1)])
            out_b.append(v[(st[:, None] + ju[None, :]).reshape(-1)])
            out_w.append(np.full(len(st) * len(iu), 1.0 / np.log(float(s))))
        if not out_a:
            return empty
        a = np.concatenate(out_a)
        b = np.concatenate(out_b)
        w = np.concatenate(out_w)
        # in-bucket combiner: collapse repeated (a, b) before the shuffle
        p = (pd.DataFrame({"a": a, "b": b, "aa": w, "cn": 1})
             .groupby(["a", "b"], as_index=False, sort=False)
             .agg(cn=("cn", "sum"), aa=("aa", "sum")))
        return p[["a", "b", "cn", "aa"]]

    cand = bucketed_group_reduce(e, [dst], weighted_pairs, num_buckets,
                                 schema=pair_schema)

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["a", "b"], as_index=False, sort=False).agg(
            cn=("cn", "sum"), aa=("aa", "sum"))

    pairs = bucketed_group_reduce(cand, ["a", "b"], fold, num_buckets,
                                  schema=pair_schema)

    # src degrees for Jaccard: |N(a) ∪ N(b)| = ds_a + ds_b - cn
    def deg_partial(t: pa.Table) -> pa.Table:
        u, c = np.unique(t[src].to_numpy(zero_copy_only=False)
                         .astype(np.int64), return_counts=True)
        return pa.table({"s": pa.array(u, pa.int64()),
                         "ds": pa.array(c, pa.int64())})

    def deg_fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("s", as_index=False, sort=False)["ds"].sum()

    deg = bucketed_group_reduce(
        e.map_batches(deg_partial, batch_format="pyarrow"), ["s"], deg_fold,
        num_buckets, schema=pa.schema([("s", pa.int64()),
                                       ("ds", pa.int64())]))

    out_schema = pa.schema([("a", pa.int64()), ("b", pa.int64()),
                            ("cn", pa.int64()), ("aa_micro", pa.int64()),
                            ("jac_micro", pa.int64())])

    def score(t: pa.Table) -> pa.Table:
        cn = t["cn"].to_numpy(zero_copy_only=False).astype(np.float64)
        da = t["ds_a"].to_numpy(zero_copy_only=False)
        db = t["ds_b"].to_numpy(zero_copy_only=False)
        jac = cn / (da + db - cn)
        aa = t["aa"].to_numpy(zero_copy_only=False)
        return pa.table({
            "a": t["a"], "b": t["b"], "cn": t["cn"],
            "aa_micro": pa.array(
                np.floor(aa * 1e6 + 0.5).astype(np.int64), pa.int64()),
            "jac_micro": pa.array(
                np.floor(jac * 1e6 + 0.5).astype(np.int64), pa.int64())})

    deg = deg.materialize()   # attached to both ends
    scored = auto_join(
        auto_join(pairs, _ren(deg, {"s": "a", "ds": "ds_a"}), ["a"],
                  num_buckets=num_buckets),
        _ren(deg, {"s": "b", "ds": "ds_b"}), ["b"],
        num_buckets=num_buckets).map_batches(score, batch_format="pyarrow")

    return (scored.map_batches(
        lambda t: t.cast(out_schema), batch_format="pyarrow")
        .sort(["aa_micro", "a", "b"],
              descending=[True, False, False]).limit(k))


def random_walks(edges: "ray.data.Dataset", src: str, dst: str,
                 length: int = 4, walks_per_node: int = 1,
                 undirected: bool = True,
                 num_buckets: int = 64) -> "ray.data.Dataset":
    """Deterministic DeepWalk-style random walks (Perozzi 2014) →
    ``(walk_id, step, node)`` trail rows, one walk of ``length`` nodes
    per (node, replica) seed. The "random" neighbor pick is the pinned
    md5 rule shared with ``hash_sample``: rank =
    md5_32("walk_id|step|node") % degree into the node's
    neighbors sorted ascending — byte-reproducible on any worker, any
    run, and in SQL (recursive CTE + the same md5 expression), so even
    this op is oracle-checkable. Walks stop early at sinks.

    Two paths, identical output. Adjacency within
    ``_BROADCAST_ROWS`` edges: broadcast once as two sorted arrays and
    walk ALL steps in a single map pass over the seeds — zero shuffles
    after the adjacency build. Beyond the cap: one node-keyed bucketed
    reduce per step (frontier rows meet their node's co-located
    adjacency; rank lookup is one searchsorted per bucket), each step's
    frontier materialized to keep lineage flat."""
    from .stats import _key_hash32

    def norm(t: pa.Table) -> pa.Table:
        a = t[src].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t[dst].to_numpy(zero_copy_only=False).astype(np.int64)
        if undirected:
            node = np.concatenate([a, b])
            nbr = np.concatenate([b, a])
        else:
            node, nbr = a, b
        return pa.Table.from_pandas(
            pd.DataFrame({"node": node, "nbr": nbr}).drop_duplicates(),
            preserve_index=False)

    def seed(t: pa.Table) -> pa.Table:
        nodes = t["node"].to_numpy(zero_copy_only=False)
        n = len(nodes)
        reps = np.tile(np.arange(walks_per_node), n)
        nd = np.repeat(nodes, walks_per_node)
        wid = np.array([f"{a}#{j}" for a, j in zip(nd, reps)],
                       dtype=object)
        return pa.table({"walk_id": pa.array(wid, pa.string()),
                         "node": pa.array(nd, pa.int64())})

    # Size probe without a shuffle: collect the per-batch-deduped pairs
    # straight to the driver until the cap trips. In the (common)
    # broadcast regime the sorted adjacency has to live on the driver
    # anyway, so the distinct/sort shuffles and the frontier shuffle are
    # pure overhead — one streaming pass replaces three executions.
    # Per-batch dedup overcounts true distinct pairs, so the cap check
    # is conservative (trips early, never late).
    normed = edges.select_columns([src, dst]).map_batches(
        norm, batch_format="pyarrow")
    an_l, ab_l, rows, over = [], [], 0, False
    it = normed.iter_batches(batch_size=None, batch_format="pyarrow")
    for bt in it:
        an_l.append(bt["node"].to_numpy(zero_copy_only=False))
        ab_l.append(bt["nbr"].to_numpy(zero_copy_only=False))
        rows += len(bt["node"])
        if rows > _BROADCAST_ROWS:
            over = True
            del it  # cancel the streaming execution
            break

    if not over:
        import ray
        an = (np.concatenate(an_l) if an_l
              else np.zeros(0, np.int64)).astype(np.int64)
        ab = (np.concatenate(ab_l) if ab_l
              else np.zeros(0, np.int64)).astype(np.int64)
        # driver-side distinct + sort(node, nbr) — identical to the
        # distributed distinct_on + Dataset.sort it replaces
        order = np.lexsort((ab, an))
        an, ab = an[order], ab[order]
        if len(an):
            keep = np.ones(len(an), bool)
            keep[1:] = (an[1:] != an[:-1]) | (ab[1:] != ab[:-1])
            an, ab = an[keep], ab[keep]
        ref = ray.put((an, ab))

        # seeds = every distinct endpoint (node col already holds all of
        # them when undirected; nbr adds the dsts otherwise)
        u = np.unique(np.concatenate([an, ab])) if len(an) else \
            np.zeros(0, np.int64)
        chunk = max(1, (len(u) + num_buckets - 1) // num_buckets)
        seed_tabs = [seed(pa.table({"node": pa.array(u[i:i + chunk],
                                                     pa.int64())}))
                     for i in range(0, max(len(u), 1), chunk)]
        import ray.data as _rd
        frontier = _rd.from_arrow(seed_tabs)

        def walk_all(t: pa.Table) -> pa.Table:
            node_arr, nbr_arr = ray.get(ref)
            wid = t["walk_id"].to_numpy(zero_copy_only=False)
            cur = t["node"].to_numpy(zero_copy_only=False).astype(np.int64)
            out_w = [wid]
            out_s = [np.zeros(len(t), np.int64)]
            out_n = [cur]
            w_alive, c = wid, cur
            for s in range(length - 1):
                lo = np.searchsorted(node_arr, c, side="left")
                hi = np.searchsorted(node_arr, c, side="right")
                deg = (hi - lo).astype(np.uint64)
                live = deg > 0
                if not live.any():
                    break
                w_alive = w_alive[live]
                keys = [f"{w}|{s}|{n}" for w, n in zip(w_alive, c[live])]
                rank = (_key_hash32(keys) % deg[live]).astype(np.int64)
                c = nbr_arr[lo[live] + rank]
                out_w.append(w_alive)
                out_s.append(np.full(len(c), s + 1, np.int64))
                out_n.append(c)
            return pa.table({
                "walk_id": pa.array(np.concatenate(out_w), pa.string()),
                "step": pa.array(np.concatenate(out_s), pa.int64()),
                "node": pa.array(np.concatenate(out_n), pa.int64())})

        return frontier.map_batches(walk_all, batch_format="pyarrow")

    # Beyond the cap: full distributed path — distinct adjacency and
    # seed frontier via bucketed shuffles, then one node-keyed reduce
    # per step. (The partial driver collect above is discarded; this
    # regime re-reads the input once, which is noise next to the
    # length-1 keyed reduces that follow.)
    del an_l, ab_l
    adj = distinct_on(normed, ["node", "nbr"], num_buckets).materialize()

    def both_endpoints(t: pa.Table) -> pa.Table:
        u = np.unique(np.concatenate([
            t["node"].to_numpy(zero_copy_only=False),
            t["nbr"].to_numpy(zero_copy_only=False)]).astype(np.int64))
        return pa.table({"node": pa.array(u, pa.int64())})

    frontier = distinct_on(
        adj.map_batches(both_endpoints, batch_format="pyarrow"),
        ["node"], num_buckets).map_batches(
        seed, batch_format="pyarrow").materialize()

    def stamp(step_val: int):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({
                "walk_id": t["walk_id"],
                "step": pa.array([step_val] * len(t), pa.int64()),
                "node": t["node"]})
        return f

    trails = [frontier.map_batches(stamp(0), batch_format="pyarrow")]

    tag_adj = adj.map_batches(
        lambda t: pa.table({"node": t["node"], "nbr": t["nbr"],
                            "walk_id": pa.nulls(len(t), pa.string())}),
        batch_format="pyarrow")

    for s in range(length - 1):
        tag_frontier = frontier.map_batches(
            lambda t: pa.table({"node": t["node"],
                                "nbr": pa.nulls(len(t), pa.int64()),
                                "walk_id": t["walk_id"]}),
            batch_format="pyarrow")

        def step_body(df: pd.DataFrame, _s=s) -> pd.DataFrame:
            is_adj = df["walk_id"].isna()
            a = df[is_adj].sort_values(["node", "nbr"], kind="mergesort")
            f = df[~is_adj]
            empty = pd.DataFrame({"walk_id": pd.Series(dtype=object),
                                  "node": pd.Series(dtype="int64")})
            if not len(f) or not len(a):
                return empty
            an = a["node"].to_numpy(dtype=np.int64)
            anbr = a["nbr"].to_numpy(dtype=np.int64)
            fn = f["node"].to_numpy(dtype=np.int64)
            lo = np.searchsorted(an, fn, side="left")
            hi = np.searchsorted(an, fn, side="right")
            deg = (hi - lo).astype(np.uint64)
            live = deg > 0
            if not live.any():
                return empty
            wid = f["walk_id"].to_numpy(dtype=object)[live]
            keys = [f"{w}|{_s}|{n}" for w, n in
                    zip(wid, fn[live])]
            rank = (_key_hash32(keys) % deg[live]).astype(np.int64)
            nxt = anbr[lo[live] + rank]
            return pd.DataFrame({"walk_id": wid, "node": nxt})

        u = tag_adj.union(tag_frontier)
        frontier = bucketed_group_reduce(
            u, ["node"], step_body, num_buckets,
            schema=pa.schema([("walk_id", pa.string()),
                              ("node", pa.int64())])).materialize()
        trails.append(frontier.map_batches(stamp(s + 1),
                                           batch_format="pyarrow"))

    out = trails[0]
    for t in trails[1:]:
        out = out.union(t)
    return out


def _negative_sample_joined(edges: "ray.data.Dataset", src: str, dst: str,
                            pool_d: "ray.data.Dataset", pool_col: str,
                            k: int, n_pool: int,
                            num_buckets: int) -> "ray.data.Dataset":
    """Beyond-broadcast negative sampling: the md5 pick index becomes a
    join key. The pool gets a 0-based global rank (range sort +
    O(blocks) driver offsets), sample rows carry their target rank, and
    one co-group join resolves rank → pool id. Output identical to the
    broadcast path (same pick rule)."""
    from .join import cogroup_join
    from .rank import global_row_number
    from .stats import _key_hash32

    ranked = global_row_number(pool_d, [pool_col], out_col="__rn")
    ranked = ranked.map_batches(
        lambda t: pa.table({
            "__rank": pa.array(
                t["__rn"].to_numpy(zero_copy_only=False) - 1, pa.int64()),
            f"neg_{pool_col}": pc.cast(t[pool_col], pa.int64())}),
        batch_format="pyarrow")

    cnt = np.uint64(n_pool)

    def want(t: pa.Table) -> pa.Table:
        s = t[src].to_numpy(zero_copy_only=False)
        d = t[dst].to_numpy(zero_copy_only=False)
        n = len(t)
        out_s = np.repeat(s, k)
        out_d = np.repeat(d, k)
        out_j = np.tile(np.arange(k, dtype=np.int32), n)
        keys = [f"{a}|{b}|{j}" for a, b, j in zip(out_s, out_d, out_j)]
        idx = (_key_hash32(keys) % cnt).astype(np.int64)
        return pa.table({src: pa.array(out_s), dst: pa.array(out_d),
                         "neg_idx": pa.array(out_j, pa.int32()),
                         "__rank": pa.array(idx, pa.int64())})

    dd = distinct_on(edges.select_columns([src, dst]), [src, dst],
                     num_buckets)
    wanted = dd.map_batches(want, batch_format="pyarrow")
    joined = cogroup_join(wanted, ranked, on=["__rank"], how="inner",
                          num_buckets=num_buckets)
    return joined.drop_columns(["__rank"])
