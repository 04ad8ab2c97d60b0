"""Chunk → entity/relation linking.

Reference semantics (agraph/builders/llm_builders.py:770-812): a chunk
links to an entity when the entity's name or an alias appears (substring,
case-insensitive) in the chunk text; it links to a relation when BOTH
endpoint names appear.

Scale shape: the canonical entity dictionary is tiny relative to the chunk
stream (vocabulary vs corpus), so it is broadcast once with ``ray.put`` and
looked up inside ``map_batches`` — never a chunks x entities shuffle join.
Per worker process (cached on the broadcast ref, built once):

  - an Aho-Corasick automaton over all lowercased names/aliases — each
    chunk is ONE O(|text|) pass regardless of vocabulary size, replacing
    the O(|names| x |text|) per-chunk substring scan;
  - a head-name → [(tail_name, relation_id)] index — the relation check
    touches only edges incident to names present in the chunk, replacing a
    per-chunk loop over the full edge list (quadratic co-occurrence edges
    made that the real hot loop: ~2·10^5 edges x every chunk).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import pyarrow as pa
import ray

from ..state.textmatch import AhoCorasick


def _collect_link_dicts(nodes: "ray.data.Dataset",
                        edges: "ray.data.Dataset"):
    """(name_lower → entity_id), [(head_lower, tail_lower, relation_id)]."""
    names = {}
    for b in nodes.select_columns(["entity_id", "name", "aliases"]) \
                  .iter_batches(batch_size=None, batch_format="pyarrow"):
        for eid, name, aliases in zip(b["entity_id"].to_pylist(),
                                      b["name"].to_pylist(),
                                      b["aliases"].to_pylist()):
            if name:
                names.setdefault(name.lower(), eid)
            for a in aliases or []:
                names.setdefault(a.lower(), eid)
    rels = []
    for b in edges.select_columns(["relation_id", "subj", "obj"]) \
                  .iter_batches(batch_size=None, batch_format="pyarrow"):
        for rid, s, o in zip(b["relation_id"].to_pylist(),
                             b["subj"].to_pylist(),
                             b["obj"].to_pylist()):
            rels.append((s.lower(), o.lower(), rid))
    return names, rels


# per-worker-process matcher cache keyed by the broadcast ref: Ray reuses
# worker processes across tasks, so the automaton builds once per worker
# (actor-pool amortization without an actor pool's static CPU reservation)
_MATCHER_CACHE: Dict[str, tuple] = {}


def _get_matcher(names_ref, rels_ref):
    key = names_ref.hex()
    cached = _MATCHER_CACHE.get(key)
    if cached is None:
        names: Dict[str, str] = ray.get(names_ref)   # name_lower -> entity_id
        rels: List[Tuple[str, str, str]] = ray.get(rels_ref)
        ac = AhoCorasick(names)
        by_head: Dict[str, List[Tuple[str, str]]] = {}
        for h, t, rid in rels:
            by_head.setdefault(h, []).append((t, rid))
        if len(_MATCHER_CACHE) > 4:      # bound worker memory across builds
            _MATCHER_CACHE.clear()
        _MATCHER_CACHE[key] = cached = (names, ac, by_head)
    return cached


def _linker(names_ref, rels_ref):
    """Stateless-task closure: ray.get of a broadcast ref is a zero-copy
    object-store read on every node after the first fetch — no actor pool
    needed (a CPU-reserving pool sized near the CPU count can starve its
    own upstream read tasks)."""

    def link_batch(batch: pa.Table) -> pa.Table:
        names, ac, by_head = _get_matcher(names_ref, rels_ref)
        ent_col: List[List[str]] = []
        rel_col: List[List[str]] = []
        for text in batch["text"].to_pylist():
            low = (text or "").lower()
            present = ac.find_present(low)
            ent_col.append(sorted({names[n] for n in present}))
            rids = set()
            for h in present:
                for t, rid in by_head.get(h, ()):
                    if t in present:
                        rids.add(rid)
            rel_col.append(sorted(rids))
        return (batch
                .append_column("entities",
                               pa.array(ent_col, pa.list_(pa.string())))
                .append_column("relations",
                               pa.array(rel_col, pa.list_(pa.string()))))

    return link_batch


def link_chunks(chunks: "ray.data.Dataset", nodes: "ray.data.Dataset",
                edges: "ray.data.Dataset",
                concurrency: Optional[int] = None) -> "ray.data.Dataset":
    """chunks + graph tables → chunks with ``entities``/``relations`` id
    lists (llm_builders.py:770-812)."""
    names, rels = _collect_link_dicts(nodes, edges)
    names_ref, rels_ref = ray.put(names), ray.put(rels)
    return chunks.map_batches(_linker(names_ref, rels_ref),
                              batch_format="pyarrow")


def mention_timeline(turns: "ray.data.Dataset", nodes: "ray.data.Dataset",
                     text_col: str = "text", conv_col: str = "conv_id",
                     ts_col: str = "ts", window_us: Optional[int] = None,
                     num_buckets: int = 32) -> "ray.data.Dataset":
    """Entity-mention timeline over a transcript stream: for each vocabulary
    entity, WHEN it is talked about and HOW WIDELY —
    ``(entity_id, mentions, n_convs, first_us, last_us)``.

    With ``window_us`` set, the timeline is sliced into tumbling event-time
    windows instead: ``(entity_id, window_us [start], mentions, n_convs)``
    — the per-window view of graph construction (which entities a window's
    transcripts would add), same partial/combine shape with the window id
    joining the reduce key.

    A turn mentions an entity when the entity's name or an alias appears
    (substring, case-insensitive) in the turn text — the same containment
    rule as :func:`link_chunks` (reference llm_builders.py:770-812), applied
    to the time axis: ``mentions`` counts mentioning TURNS (an entity counts
    once per turn regardless of repeats), ``first_us``/``last_us`` are the
    epoch-microsecond timestamps of the first/last mentioning turn, and
    ``n_convs`` the exact distinct conversations that mention it.

    Scale shape: vocabulary broadcast once (``ray.put``), Aho-Corasick
    automaton built once per worker (O(|text|) per turn); each batch emits a
    pre-combined ``(entity, conv)`` partial (count + ts min/max), so the one
    entity-keyed shuffle carries at most |entities| x |touched convs| rows —
    never the turn stream. Distinct-conversation counts stay exact because
    the partials keep (entity, conv) granularity.
    """
    import pandas as pd

    names = {}
    for b in nodes.select_columns(["entity_id", "name", "aliases"]) \
                  .iter_batches(batch_size=None, batch_format="pyarrow"):
        for eid, name, aliases in zip(b["entity_id"].to_pylist(),
                                      b["name"].to_pylist(),
                                      b["aliases"].to_pylist()):
            if name:
                names.setdefault(name.lower(), eid)
            for a in aliases or []:
                names.setdefault(a.lower(), eid)
    names_ref, rels_ref = ray.put(names), ray.put([])

    windowed = window_us is not None
    partial_fields = [("entity_id", pa.string()), ("conv_id", pa.string())]
    if windowed:
        partial_fields.append(("window_us", pa.int64()))
    partial_fields += [("n", pa.int64()), ("lo", pa.int64()),
                       ("hi", pa.int64())]
    partial_schema = pa.schema(partial_fields)
    grain = ["entity_id", "conv_id"] + (["window_us"] if windowed else [])

    def partial(batch: pa.Table) -> pa.Table:
        nm, ac, _ = _get_matcher(names_ref, rels_ref)
        ts_us = batch[ts_col].cast(pa.timestamp("us")).cast(
            pa.int64()).to_pylist()
        ents, convs, tss = [], [], []
        for text, conv, us in zip(batch[text_col].to_pylist(),
                                  batch[conv_col].to_pylist(), ts_us):
            if us is None:   # null-ts turns carry no event time: excluded
                continue     # from the timeline (ADVICE r2 — was TypeError)
            present = ac.find_present((text or "").lower())
            for eid in {nm[n] for n in present}:
                ents.append(eid)
                convs.append(conv)
                tss.append(us)
        if not ents:
            return partial_schema.empty_table()
        df = pd.DataFrame({"entity_id": ents, "conv_id": convs, "ts": tss})
        if windowed:
            df["window_us"] = (df["ts"] // window_us) * window_us
        df = (df.groupby(grain, as_index=False)
              .agg(n=("ts", "size"), lo=("ts", "min"), hi=("ts", "max")))
        return pa.Table.from_pandas(df, schema=partial_schema,
                                    preserve_index=False)

    if windowed:
        out_schema = pa.schema([
            ("entity_id", pa.string()), ("window_us", pa.int64()),
            ("mentions", pa.int64()), ("n_convs", pa.int64())])
        reduce_keys = ["entity_id", "window_us"]
    else:
        out_schema = pa.schema([
            ("entity_id", pa.string()), ("mentions", pa.int64()),
            ("n_convs", pa.int64()), ("first_us", pa.int64()),
            ("last_us", pa.int64())])
        reduce_keys = ["entity_id"]

    def reduce_df(df: "pd.DataFrame") -> "pd.DataFrame":
        spec = dict(mentions=("n", "sum"), n_convs=("conv_id", "nunique"))
        if not windowed:
            spec.update(first_us=("lo", "min"), last_us=("hi", "max"))
        g = df.groupby(reduce_keys, as_index=False).agg(**spec)
        g["mentions"] = g["mentions"].astype("int64")
        g["n_convs"] = g["n_convs"].astype("int64")
        return g

    from .common import bucketed_group_reduce
    parts = turns.select_columns([conv_col, text_col, ts_col]).map_batches(
        partial, batch_format="pyarrow")
    return bucketed_group_reduce(parts, reduce_keys, reduce_df,
                                 num_buckets, schema=out_schema)


def speaker_pseudonym_plan(turns: "ray.data.Dataset",
                           nodes: "ray.data.Dataset",
                           prefix: str = "ENT_",
                           text_col: str = "text",
                           conv_col: str = "conv_id",
                           idx_col: str = "turn_idx",
                           num_buckets: int = 32) -> "ray.data.Dataset":
    """Per-conversation pseudonymization PLAN for transcript release: each
    vocabulary name gets a stable placeholder numbered by FIRST APPEARANCE
    within its conversation → ``(conv_id, name, first_idx, placeholder)``.

    First-appearance numbering (vs a global map) is what makes released
    transcripts non-linkable across conversations while staying readable
    within one — the standard conversational-anonymization rule. Rank rule
    pinned: dense rank by (first turn_idx, name). Same broadcast-vocab +
    Aho-Corasick + (conv, name) combiner shape as mention_timeline; one
    conv-keyed reduce ranks in-bucket (all names of a conversation
    co-locate). Apply the plan with :func:`apply_pseudonyms`.
    """
    import pandas as pd

    names = {}
    for b in nodes.select_columns(["entity_id", "name", "aliases"]) \
                  .iter_batches(batch_size=None, batch_format="pyarrow"):
        for _, name, aliases in zip(b["entity_id"].to_pylist(),
                                    b["name"].to_pylist(),
                                    b["aliases"].to_pylist()):
            if name:
                names.setdefault(name.lower(), name)
            for a in aliases or []:
                names.setdefault(a.lower(), name)
    names_ref, rels_ref = ray.put(names), ray.put([])

    partial_schema = pa.schema([("conv_id", pa.string()),
                                ("name", pa.string()),
                                ("first_idx", pa.int64())])

    def partial(batch: pa.Table) -> pa.Table:
        nm, ac, _ = _get_matcher(names_ref, rels_ref)
        convs, out_names, idxs = [], [], []
        for text, conv, idx in zip(batch[text_col].to_pylist(),
                                   batch[conv_col].to_pylist(),
                                   batch[idx_col].to_pylist()):
            present = ac.find_present((text or "").lower())
            for canon in {nm[n] for n in present}:
                convs.append(conv)
                out_names.append(canon)
                idxs.append(int(idx))
        if not convs:
            return partial_schema.empty_table()
        df = (pd.DataFrame({"conv_id": convs, "name": out_names,
                            "first_idx": idxs})
              .groupby(["conv_id", "name"], as_index=False)["first_idx"]
              .min())
        return pa.Table.from_pandas(df, schema=partial_schema,
                                    preserve_index=False)

    out_schema = pa.schema([("conv_id", pa.string()),
                            ("name", pa.string()),
                            ("first_idx", pa.int64()),
                            ("placeholder", pa.string())])

    def rank(df: "pd.DataFrame") -> "pd.DataFrame":
        g = (df.groupby(["conv_id", "name"], as_index=False)["first_idx"]
             .min()
             .sort_values(["conv_id", "first_idx", "name"],
                          kind="mergesort"))
        g["placeholder"] = prefix + (
            g.groupby("conv_id", sort=False).cumcount() + 1).astype(str)
        return g

    from .common import bucketed_group_reduce
    parts = turns.select_columns([conv_col, text_col, idx_col]).map_batches(
        partial, batch_format="pyarrow")
    return bucketed_group_reduce(parts, ["conv_id"], rank,
                                 num_buckets, schema=out_schema)


def apply_pseudonyms(turns: "ray.data.Dataset", plan: "ray.data.Dataset",
                     text_col: str = "text", conv_col: str = "conv_id",
                     num_buckets: int = 32) -> "ray.data.Dataset":
    """Rewrite transcript text per a :func:`speaker_pseudonym_plan`:
    case-insensitive replacement of each planned name with its
    conversation's placeholder. One conv-keyed co-group (turns ∪ plan,
    both sides arbitrary size); per bucket the rewrite is a SINGLE PASS
    per distinct conversation mapping — one alternation regex (longest
    name first, so "Alice Johnson" wins over "Alice") applied once per
    row. Single-pass matters: sequential per-name replacement rescans
    already-rewritten text, so a vocabulary name that happens to match
    inside a placeholder (e.g. entity "ent" vs prefix "ENT_") would
    corrupt earlier substitutions (ADVICE r2). Substring (not
    word-boundary) matching is intentional — it mirrors the containment
    rule the plan itself uses (llm_builders.py:770-812)."""
    import re

    import pandas as pd
    import pyarrow.compute as pc

    plan_tagged = plan.map_batches(
        lambda t: pa.table({conv_col: t[conv_col], "name": t["name"],
                            "placeholder": t["placeholder"],
                            "turn_idx": pa.nulls(len(t), pa.int64()),
                            text_col: pa.nulls(len(t), pa.string())}),
        batch_format="pyarrow")
    turns_tagged = turns.select_columns(
        [conv_col, "turn_idx", text_col]).map_batches(
        lambda t: pa.table({conv_col: t[conv_col],
                            "name": pa.nulls(len(t), pa.string()),
                            "placeholder": pa.nulls(len(t), pa.string()),
                            "turn_idx": pc.cast(t["turn_idx"], pa.int64()),
                            text_col: t[text_col]}),
        batch_format="pyarrow")

    out_schema = pa.schema([(conv_col, pa.string()),
                            ("turn_idx", pa.int64()),
                            (text_col, pa.string())])

    def rewrite(df: "pd.DataFrame") -> "pd.DataFrame":
        rows = df[df["name"].isna()][[conv_col, "turn_idx", text_col]]
        pl = df[df["name"].notna()][[conv_col, "name", "placeholder"]]
        if not len(rows):
            return pd.DataFrame(columns=[conv_col, "turn_idx", text_col])
        # conv → sorted((name, placeholder)) mapping; convs sharing a
        # mapping share one compiled regex and one vectorized pass
        conv_map: dict = {}
        for conv, name, ph in zip(pl[conv_col], pl["name"],
                                  pl["placeholder"]):
            conv_map.setdefault(conv, {})[name] = ph
        by_sig: dict = {}
        for conv, m in conv_map.items():
            by_sig.setdefault(tuple(sorted(m.items())), []).append(conv)
        text = rows[text_col].copy()
        for sig, convs in by_sig.items():
            mask = rows[conv_col].isin(set(convs))
            if not mask.any():
                continue
            # longest first: the alternation tries branches in order, so
            # "Alice Johnson" must precede "Alice"
            names = sorted((n for n, _ in sig), key=lambda n: (-len(n), n))
            lookup = {n.lower(): ph for n, ph in sig}
            pat = re.compile("|".join(re.escape(n) for n in names),
                             re.IGNORECASE)
            text.loc[mask] = text.loc[mask].str.replace(
                pat, lambda m: lookup[m.group(0).lower()], regex=True)
        out = rows.assign(**{text_col: text})
        return out

    from .common import bucketed_group_reduce
    return bucketed_group_reduce(turns_tagged.union(plan_tagged),
                                 [conv_col], rewrite, num_buckets,
                                 schema=out_schema)


def comention_edges(turns: "ray.data.Dataset", nodes: "ray.data.Dataset",
                    text_col: str = "text", conv_col: str = "conv_id",
                    ts_col: str = "ts", window_us: Optional[int] = None,
                    num_buckets: int = 32) -> "ray.data.Dataset":
    """Co-mention edge construction over a transcript stream: an
    undirected edge ``(a, b, n_convs)`` for every vocabulary-entity pair
    mentioned in the SAME conversation, weighted by the number of
    distinct conversations that co-mention them — the co-occurrence
    relation-building rule of the reference
    (relation_extractor.py co-occurrence path / llm_builders.py:770-812
    containment), keyed by conversation instead of chunk so it is
    SQL-checkable end to end.

    With ``window_us`` set, edges are built per tumbling event-time
    window — ``(a, b, window_us, n_convs)``, co-mention meaning "same
    conversation AND same window": the dynamic-graph snapshot sequence
    that temporal-GNN training consumes, produced with the identical
    shuffle shape (the window id rides the partials).

    Scale shape: vocabulary broadcast once, Aho-Corasick per worker; each
    batch emits distinct ``(conv[, window], entity)`` partials; one
    conv-keyed bucketed reduce forms within-conversation pairs
    (per-conversation entity sets are bounded by the vocabulary, so the
    pair expansion is O(|vocab|²) per conversation[, window], not
    corpus-quadratic) and pre-counts them in-bucket; a final pair-keyed
    Sum yields exact distinct-conv weights. Turn text never shuffles.
    """
    import pandas as pd
    from ray.data.aggregate import Sum

    names = {}
    for b in nodes.select_columns(["entity_id", "name", "aliases"]) \
                  .iter_batches(batch_size=None, batch_format="pyarrow"):
        for eid, name, aliases in zip(b["entity_id"].to_pylist(),
                                      b["name"].to_pylist(),
                                      b["aliases"].to_pylist()):
            if name:
                names.setdefault(name.lower(), eid)
            for a in aliases or []:
                names.setdefault(a.lower(), eid)
    names_ref, rels_ref = ray.put(names), ray.put([])

    windowed = window_us is not None
    partial_fields = [("conv_id", pa.string()), ("entity_id", pa.string())]
    if windowed:
        partial_fields.append(("window_us", pa.int64()))
    partial_schema = pa.schema(partial_fields)
    grain = ["conv_id"] + (["window_us"] if windowed else [])

    def partial(batch: pa.Table) -> pa.Table:
        nm, ac, _ = _get_matcher(names_ref, rels_ref)
        if windowed:
            ts_us = batch[ts_col].cast(pa.timestamp("us")).cast(
                pa.int64()).to_pylist()
        else:
            ts_us = [0] * len(batch)
        seen = set()
        for text, conv, us in zip(batch[text_col].to_pylist(),
                                  batch[conv_col].to_pylist(), ts_us):
            if windowed and us is None:  # no event time → no window
                continue                 # (ADVICE r2 — was TypeError)
            present = ac.find_present((text or "").lower())
            w = (us // window_us) * window_us if windowed else 0
            for eid in {nm[n] for n in present}:
                seen.add((conv, eid, w))
        if not seen:
            return partial_schema.empty_table()
        convs, eids, ws = zip(*sorted(seen))
        cols = {"conv_id": pa.array(convs, pa.string()),
                "entity_id": pa.array(eids, pa.string())}
        if windowed:
            cols["window_us"] = pa.array(ws, pa.int64())
        return pa.table(cols)

    pair_fields = [("a", pa.string()), ("b", pa.string())]
    if windowed:
        pair_fields.append(("window_us", pa.int64()))
    pair_fields.append(("n", pa.int64()))
    pair_schema = pa.schema(pair_fields)
    pair_keys = ["a", "b"] + (["window_us"] if windowed else [])

    def pairs(df: "pd.DataFrame") -> "pd.DataFrame":
        d = df.drop_duplicates(grain + ["entity_id"])
        m = d.merge(d, on=grain)
        m = m[m["entity_id_x"] < m["entity_id_y"]]
        gkeys = ["entity_id_x", "entity_id_y"] + (
            ["window_us"] if windowed else [])
        out = (m.groupby(gkeys, as_index=False)
               .size().rename(columns={"entity_id_x": "a",
                                       "entity_id_y": "b", "size": "n"}))
        out["n"] = out["n"].astype("int64")
        return out[pair_keys + ["n"]]

    from .common import bucketed_group_reduce
    cols = [conv_col, text_col] + ([ts_col] if windowed else [])
    parts = turns.select_columns(cols).map_batches(
        partial, batch_format="pyarrow")
    pair_partials = bucketed_group_reduce(parts, ["conv_id"], pairs,
                                          num_buckets, schema=pair_schema)
    return (pair_partials.groupby(pair_keys)
            .aggregate(Sum("n", alias_name="n_convs")))
