"""Distributed connected components (union-find) over Dataset shuffles.

Replaces the reference's in-heap union-find over duplicate pairs
(agraph/builders/llm_builders.py:513-551) with min-label propagation
expressed entirely as Ray Data groupby-aggregate shuffles, so it scales to
edge sets far beyond one node's memory (BASELINE.json north_star step 4).

Each round is two ``bucketed_group_reduce`` shuffles with fully vectorized
pandas bodies (merge + groupby-min) — never a per-key ``map_groups``, which
dispatches Python once per node (stages/common.py:4-10) — and no join (Ray
2.49's ``Dataset.join`` mis-handles empty hash partitions):

  1. bucket (labels ∪ edges ∪ doubling-requests) by the *key* node: every
     requester — an edge's ``dst``, or a node v asking for L(L(v)) (pointer
     doubling) — learns the key's current label; the key also re-emits its
     own label tagged "old".
  2. bucket the messages by the *destination* node: new label = min over
     (received ∪ own); a changed-flag is computed against the "old" tag.

Convergence = global Sum(chg) == 0. Pointer doubling makes the round count
O(log component-diameter) (a 10k-node chain converges in ~14 rounds, not
10k); non-convergence within ``max_iters`` raises instead of silently
splitting components. Only edge-incident nodes participate — every other
entity is a singleton by definition — so the shuffle volume is bounded by
the match-edge set, not the corpus.

Size constant: ``_DRIVER_EDGES`` (2M symmetric edges) — up to it the exact
:class:`UnionFind` runs on the driver instead of the rounds above.
"""

from __future__ import annotations

from typing import Dict

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

_DRIVER_EDGES = 2_000_000


def _empty_labels():
    import ray.data as rd
    return rd.from_arrow(pa.Table.from_pydict(
        {"node": pa.array([], pa.string()), "label": pa.array([], pa.string())}))


class UnionFind:
    """Exact in-memory union-find with path compression. A component's
    root is its minimum id, whatever the union order."""

    def __init__(self):
        self.parent: Dict[str, str] = {}

    def find(self, x: str) -> str:
        parent = self.parent
        root = x
        while parent.setdefault(root, root) != root:
            root = parent[root]
        while parent[x] != root:       # path compression
            parent[x], x = root, parent[x]
        return root

    def union(self, a: str, b: str) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[max(ra, rb)] = min(ra, rb)

    def labels(self) -> Dict[str, str]:
        """``{node: root}`` over every node seen."""
        return {n: self.find(n) for n in self.parent}


def _driver_union_find(sym_edges) -> "ray.data.Dataset":
    """Exact union-find on the driver for small edge sets, in one
    streaming pass over the edges."""
    import ray.data as rd
    uf = UnionFind()
    for b in sym_edges.iter_batches(batch_size=None, batch_format="pyarrow"):
        for s, d in zip(b["src"].to_pylist(), b["dst"].to_pylist()):
            uf.union(s, d)
    labels = uf.labels()
    return rd.from_arrow(pa.table({
        "node": pa.array(list(labels.keys()), pa.string()),
        "label": pa.array(list(labels.values()), pa.string())}))


def connected_components(edges: "ray.data.Dataset",
                         max_iters: int = 25) -> "ray.data.Dataset":
    """``edges(src, dst)`` (undirected pairs) → ``(node, label)`` with
    label = min node id in the component. Nodes in no edge are absent.

    Size-adaptive: up to ``_DRIVER_EDGES`` symmetric edges the exact
    union-find runs on the driver in one pass (a label-propagation round
    costs several whole-cluster executions — pure overhead for a
    few-thousand-edge match graph); above it, the distributed min-label
    propagation loop below takes over."""
    import ray.data as rd
    from ray.data.aggregate import Min, Sum

    def sym(batch: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [pa.concat_arrays([batch["src"].combine_chunks(),
                               batch["dst"].combine_chunks()]),
             pa.concat_arrays([batch["dst"].combine_chunks(),
                               batch["src"].combine_chunks()])],
            names=["src", "dst"])

    # The edge-incident subgraph is orders of magnitude smaller than the
    # corpus (only near-duplicate candidates), so pinning it and the label
    # table per round is safe and avoids re-running the lazy lineage.
    sym_edges = edges.select_columns(["src", "dst"]).map_batches(
        sym, batch_format="pyarrow").materialize()
    n_edges = sym_edges.count()
    if n_edges == 0:
        return _empty_labels()
    if n_edges <= _DRIVER_EDGES:
        return _driver_union_find(sym_edges)

    from ..stages.common import bucketed_group_reduce

    # label-table partition width, proportional to the edge set and fixed
    # across rounds (see the repartition note in the loop)
    label_blocks = max(4, sym_edges.num_blocks())

    labels = (sym_edges.groupby("src")
              .aggregate(Min("src", alias_name="label"))
              .map_batches(lambda t: t.rename_columns(["node", "label"]),
                           batch_format="pyarrow")
              .repartition(label_blocks).materialize())

    msg_schema = pa.schema([("node", pa.string()), ("cand", pa.string()),
                            ("old", pa.string())])
    lab_schema = pa.schema([("node", pa.string()), ("label", pa.string()),
                            ("chg", pa.int64())])

    def tag_self(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["node"].combine_chunks(), pa.nulls(len(t), pa.string()),
             t["label"].combine_chunks()], names=["key", "out", "lab"])

    def tag_edge(t: pa.Table) -> pa.Table:
        return pa.Table.from_arrays(
            [t["src"].combine_chunks(), t["dst"].combine_chunks(),
             pa.nulls(len(t), pa.string())], names=["key", "out", "lab"])

    def tag_double(t: pa.Table) -> pa.Table:
        # pointer doubling: v asks for L(L(v)) — keyed by v's current label
        # (every label value is itself a node in the table). Shortcuts long
        # chains so rounds are O(log diameter), not O(diameter).
        t2 = t.filter(pc.invert(pc.equal(t["node"], t["label"])))
        return pa.Table.from_arrays(
            [t2["label"].combine_chunks(), t2["node"].combine_chunks(),
             pa.nulls(len(t2), pa.string())], names=["key", "out", "lab"])

    def fwd(df: pd.DataFrame) -> pd.DataFrame:
        """Whole-bucket vectorized key-join: every requester (edge dst /
        doubling asker) learns the key node's current label."""
        selfs = df.loc[df["lab"].notna(), ["key", "lab"]]
        reqs = df.loc[df["out"].notna(), ["key", "out"]]
        m = reqs.merge(selfs, on="key", how="inner")
        return pd.concat([
            pd.DataFrame({"node": m["out"], "cand": m["lab"],
                          "old": pd.Series([None] * len(m), dtype="object")}),
            pd.DataFrame({"node": selfs["key"], "cand": selfs["lab"],
                          "old": selfs["lab"]}),
        ], ignore_index=True)

    def resolve(df: pd.DataFrame) -> pd.DataFrame:
        """Whole-bucket vectorized min-resolution over all nodes at once."""
        new = df.groupby("node", sort=False)["cand"].min()
        # exactly one non-null "old" per node; object-dtype max trips over
        # str/NaN comparisons, so select + reindex instead of an agg
        old = (df.loc[df["old"].notna(), ["node", "old"]]
               .set_index("node")["old"].reindex(new.index))
        return pd.DataFrame({
            "node": new.index.to_numpy(),
            "label": new.to_numpy(),
            "chg": (new.to_numpy() != old.to_numpy()).astype("int64")})

    n_changed = None
    for _ in range(max_iters):
        tagged = (labels.map_batches(tag_self, batch_format="pyarrow")
                  .union(sym_edges.map_batches(tag_edge,
                                               batch_format="pyarrow"))
                  .union(labels.map_batches(tag_double,
                                            batch_format="pyarrow")))
        msgs = bucketed_group_reduce(tagged, ["key"], fwd, schema=msg_schema)
        resolved = bucketed_group_reduce(msgs, ["node"], resolve,
                                         schema=lab_schema).materialize()
        n_changed = resolved.aggregate(Sum("chg", alias_name="n"))["n"]
        # re-bound the block count every round: a sort-shuffle's output
        # partitioning follows its input block count, and ``tagged`` feeds
        # ``labels`` back in twice — without this the label table's block
        # count doubles per round (observed 3→7→15→…→2^k) and round time
        # grows with it
        labels = (resolved.select_columns(["node", "label"])
                  .repartition(label_blocks).materialize())
        if not n_changed:
            break
    if n_changed:
        # a silently-split component would corrupt canonicalization — with
        # pointer doubling this needs diameter > 2^max_iters, so reaching
        # here means something is genuinely wrong
        raise RuntimeError(
            f"connected_components did not converge in {max_iters} rounds "
            f"({n_changed} labels still changing)")
    return labels


def components_to_canonical_map(labels: "ray.data.Dataset") -> Dict[str, str]:
    """Collect the non-trivial (node != label) part of the labelling as a
    driver-side dict for broadcast rewrite. Safe because its size is bounded
    by the number of *merged* entities (matched near-duplicates), which is a
    tiny fraction of the corpus; assert-guarded."""
    out: Dict[str, str] = {}
    nontrivial = labels.map_batches(
        lambda t: t.filter(pc.invert(pc.equal(t["node"], t["label"]))),
        batch_format="pyarrow")
    for b in nontrivial.iter_batches(batch_size=None, batch_format="pyarrow"):
        out.update(zip(b["node"].to_pylist(), b["label"].to_pylist()))
        assert len(out) < 50_000_000, "canonical map too large to broadcast"
    return out


def non_min_members(labels: "ray.data.Dataset", id_col: str,
                    id_type: pa.DataType) -> "ray.data.Dataset":
    """``id_col`` rows of every labelled node that is not the smallest
    member of its component — the survivor rule "keep the min id per
    component" as a kill list. Ids compare in ``id_type``: for integer
    ids the string label is the lexicographic min ("102" < "2"), not the
    survivor. One bucketed reduce by label; its size is bounded by the
    matched set, never the corpus."""
    import ray.data as rd

    from ..stages.common import bucketed_group_reduce

    def typed(t: pa.Table) -> pa.Table:
        return pa.table({"label": t["label"],
                         id_col: pc.cast(t["node"], id_type)})

    def non_min(df: pd.DataFrame) -> pd.DataFrame:
        first = df.groupby("label")[id_col].transform("min")
        return df.loc[df[id_col] != first, [id_col]]

    schema = pa.schema([(id_col, id_type)])
    # the empty anchor keeps the schema when no component has two members
    return bucketed_group_reduce(
        labels.map_batches(typed, batch_format="pyarrow"), ["label"],
        non_min, schema=schema).union(rd.from_arrow(schema.empty_table()))
