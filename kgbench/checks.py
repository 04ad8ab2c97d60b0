"""Output checks on a finished build directory.

All reads are single-process pyarrow scans of the Parquet artifacts the
pipeline wrote, outside the timed region.
"""

from __future__ import annotations

import hashlib
import os
from itertools import combinations
from typing import Dict, Iterable, Set, Tuple

import pyarrow.dataset as pads


def _column(path: str, col: str) -> list:
    if not os.path.isdir(path):
        return []
    ds = pads.dataset(path, format="parquet")
    if col not in ds.schema.names:
        return []
    return ds.to_table(columns=[col])[col].to_pylist()


def graph_digest(out_dir: str) -> Tuple[str, Dict[str, int]]:
    """sha256 over the sorted node, edge and triple ids, and the counts.

    ``dangling`` counts edges whose head or tail is not a node id."""
    nodes = _column(os.path.join(out_dir, "nodes"), "entity_id")
    edges = _column(os.path.join(out_dir, "edges"), "relation_id")
    triples = _column(os.path.join(out_dir, "triples"), "relation_id")
    h = hashlib.sha256()
    for part in (nodes, edges, triples):
        h.update("\n".join(sorted(part)).encode())
        h.update(b"\x00|")
    ids = set(nodes)
    heads = _column(os.path.join(out_dir, "edges"), "head_id")
    tails = _column(os.path.join(out_dir, "edges"), "tail_id")
    dangling = sum(1 for a, b in zip(heads, tails)
                   if a not in ids or b not in ids)
    return h.hexdigest(), {"nodes": len(nodes), "edges": len(edges),
                           "triples": len(triples), "dangling": dangling}


def documents_match(out_dir: str, truth: Dict[str, str],
                    sep: str = "\n") -> bool:
    """The reassembled documents, joined per conversation in ``doc_seq``
    order, equal the generator's per-turn text (the BASELINE invariant)."""
    path = os.path.join(out_dir, "documents")
    t = pads.dataset(path, format="parquet").to_table(
        columns=["conv_id", "doc_seq", "text"])
    docs: Dict[str, list] = {}
    for c, s, x in zip(t["conv_id"].to_pylist(), t["doc_seq"].to_pylist(),
                       t["text"].to_pylist()):
        docs.setdefault(c, []).append((s, x))
    if set(docs) != set(truth):
        return False
    return all(sep.join(x for _, x in sorted(parts)) == truth[c]
               for c, parts in docs.items())


def _clusters(out_dir: str, universe: Set[str]):
    """For each final node, the planted names (lower-cased) among its name,
    display name and aliases."""
    path = os.path.join(out_dir, "nodes")
    t = pads.dataset(path, format="parquet").to_table(
        columns=["name", "display_name", "aliases"])
    for name, disp, aliases in zip(t["name"].to_pylist(),
                                   t["display_name"].to_pylist(),
                                   t["aliases"].to_pylist()):
        names = {v.lower() for v in [name, disp, *(aliases or [])] if v}
        hit = names & universe
        if len(hit) > 1:
            yield hit


def merge_quality(out_dir: str, universe: Set[str],
                  truth: Iterable[Tuple[str, str]]) -> Tuple[float, float]:
    """(recall, precision) of the merges among planted names.

    recall: share of planted (canonical, variant) pairs that ended up in
    one final node. precision: share of the planted names merged with any
    other planted name whose node holds no planted name but its own
    partner — counted per name, not per pair, so one large wrong cluster
    weighs by its size rather than its size squared. 1.0 when nothing
    merged."""
    truth = set(truth)
    partner: Dict[str, Set[str]] = {}
    for a, b in truth:
        partner.setdefault(a, set()).add(b)
        partner.setdefault(b, set()).add(a)
    together: Set[Tuple[str, str]] = set()
    merged = right = 0
    for hit in _clusters(out_dir, universe):
        together.update(combinations(sorted(hit), 2))
        for n in hit:
            merged += 1
            right += hit <= {n} | partner.get(n, set())
    recall = len(together & truth) / len(truth) if truth else 1.0
    precision = right / merged if merged else 1.0
    return recall, precision
