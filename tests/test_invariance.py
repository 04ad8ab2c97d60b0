"""Partition-count / row-order invariance harness (round-2 verdict item 7).

The round-2 dedup bug (witness election silently depended on input
partition order) motivates a REUSABLE invariance check: every keyed
reduce must produce identical results no matter how the input rows are
split into blocks or in what order they arrive.  Each spec below builds
a seeded adversarial input (duplicate keys, ties on every sort column,
null-vs-populated properties) and runs the op across four layouts:

  L0  one block, original order          (the reference answer)
  L1  5 blocks, rows shuffled (seed 7)
  L2  13 uneven blocks, rows reversed
  L3  3 blocks, rows sorted by a value column (worst-case key clustering)

All four results must be identical after canonical sorting.  A failure
here is exactly the class of bug the r2 witness-election fix closed.
"""

import json

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

from agraph_ray.config import KGConfig


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------

def _split_uneven(df: pd.DataFrame, n: int, seed: int) -> "list[pd.DataFrame]":
    """Split df into n non-empty chunks with adversarially uneven sizes."""
    rng = np.random.default_rng(seed)
    if len(df) < n:
        n = max(1, len(df))
    cuts = np.sort(rng.choice(np.arange(1, len(df)), size=n - 1,
                              replace=False)) if n > 1 else np.array([], int)
    bounds = [0, *cuts.tolist(), len(df)]
    return [df.iloc[a:b].reset_index(drop=True)
            for a, b in zip(bounds[:-1], bounds[1:])]


def _layouts(df: pd.DataFrame):
    """Yield (label, list-of-chunks) — each chunk becomes one Ray block."""
    yield "1blk-orig", [df]
    shuf = df.sample(frac=1.0, random_state=7).reset_index(drop=True)
    yield "5blk-shuffled", _split_uneven(shuf, 5, seed=11)
    rev = df.iloc[::-1].reset_index(drop=True)
    yield "13blk-reversed", _split_uneven(rev, 13, seed=13)
    by_val = df.sort_values(df.columns[-1].__str__(), kind="mergesort",
                            key=lambda s: s.astype(str)).reset_index(drop=True)
    yield "3blk-clustered", _split_uneven(by_val, 3, seed=17)


def _to_ds(chunks: "list[pd.DataFrame]"):
    import ray.data as rd
    return rd.from_pandas([c for c in chunks if len(c)])


def _normalize(result) -> pd.DataFrame:
    """Result (Dataset | pa.Table | pd.DataFrame) → canonically sorted df."""
    if hasattr(result, "to_pandas"):         # Dataset or pa.Table
        df = result.to_pandas()
    else:
        df = result.copy()
    df = df[sorted(df.columns)]
    for c in df.columns:
        if df[c].map(lambda v: isinstance(v, (list, np.ndarray))).any():
            df[c] = df[c].map(
                lambda v: tuple(v) if isinstance(v, (list, np.ndarray))
                else v)
        if df[c].dtype == np.float64:
            df[c] = df[c].round(9)
    order = np.lexsort(
        [df[c].astype(str).to_numpy() for c in df.columns])
    return df.iloc[order].reset_index(drop=True)


def _assert_invariant(make_inputs, op, extra_frames=()):
    """Run op across all layouts of the FIRST input frame (extra frames
    keep a fixed single-block layout) and assert identical results."""
    frames = make_inputs()
    main, rest = frames[0], list(frames[1:])
    ref = None
    for label, chunks in _layouts(main):
        out = op(_to_ds(chunks), *[_to_ds([r]) for r in rest])
        norm = (tuple(_normalize(o) for o in out)
                if isinstance(out, tuple) else (_normalize(out),))
        if ref is None:
            ref = norm
            continue
        assert len(ref) == len(norm)
        for a, b in zip(ref, norm):
            pd.testing.assert_frame_equal(a, b, check_dtype=False,
                                          obj=f"layout {label}")


# ---------------------------------------------------------------------------
# seeded adversarial inputs
# ---------------------------------------------------------------------------

def _mentions_df(n_names: int = 30, n_rows: int = 220,
                 seed: int = 5) -> pd.DataFrame:
    """Entity mentions with heavy duplication and deliberate full ties:
    several mentions of the same norm_name share (confidence, type,
    name, description, source) but differ in `properties` — the exact
    tie the ADVICE r2 fix added to the witness order."""
    rng = np.random.default_rng(seed)
    names = [f"acme corp {i}" for i in range(n_names)]
    rows = []
    for k in range(n_rows):
        i = int(rng.integers(0, n_names))
        tie = k % 3 == 0
        rows.append(dict(
            entity_id=f"entity_{i:04d}",
            name=names[i].title(),
            norm_name=names[i],
            entity_type=["organization", "person"][i % 2],
            description="" if tie else f"desc {k % 5}",
            aliases=[f"a{i}", f"b{k % 4}"] if k % 4 == 0 else [],
            properties=(json.dumps({"k": k % 7, "src": int(i)},
                                   sort_keys=True)
                        if k % 2 == 0 else None),
            confidence=0.8 if tie else round(0.5 + (k % 5) * 0.1, 2),
            source="text_extraction",
            conv_id=f"conv_{k % 9}",
        ))
    return pd.DataFrame(rows)


def _nodes_df(seed: int = 6) -> pd.DataFrame:
    """Entity nodes with planted near-duplicate clusters."""
    base = ["globex incorporated", "initech systems", "umbrella labs",
            "wayne enterprises", "stark industries"]
    variants = ["", ".", " inc", " the", " co"]
    rows = []
    eid = 0
    for b in base:
        for v in variants[:3]:
            rows.append(dict(
                entity_id=f"entity_{eid:04d}", name=b + v,
                display_name=(b + v).title(), entity_type="organization",
                description="", aliases=[], properties=None,
                confidence=0.6 + 0.01 * (eid % 5),
                source="text_extraction", n_mentions=1 + eid % 3,
                n_convs=1))
            eid += 1
    rng = np.random.default_rng(seed)
    for j in range(20):       # unrelated noise nodes
        rows.append(dict(
            entity_id=f"entity_{eid:04d}",
            name=f"solo entity {rng.integers(0, 10**6)} {j}",
            display_name=f"Solo {j}", entity_type="person",
            description="", aliases=[], properties=None,
            confidence=0.5, source="text_extraction",
            n_mentions=1, n_convs=1))
        eid += 1
    return pd.DataFrame(rows)


def _edges_df(nodes: pd.DataFrame, seed: int = 8) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    ids = nodes["entity_id"].tolist()
    rows = []
    for k in range(60):
        h, t = rng.choice(len(ids), size=2, replace=False)
        rows.append(dict(
            relation_id=f"relation_{k:04d}",
            head_id=ids[h], tail_id=ids[t], relation_type="related_to",
            subj=nodes["name"].iloc[h], obj=nodes["name"].iloc[t],
            subj_type="organization", obj_type="organization",
            description="", properties=None,
            confidence=0.5 + (k % 4) * 0.1, source="cooccurrence",
            n_mentions=1))
    return pd.DataFrame(rows)


def _events_df(seed: int = 9) -> pd.DataFrame:
    """Events with deliberate timestamp ties inside windows."""
    rng = np.random.default_rng(seed)
    rows = []
    for k in range(300):
        u = int(rng.integers(0, 12))
        # cluster timestamps so many rows share a window; force exact
        # ts ties (k%3) so the tie_col actually decides
        ts = 1_700_000_000_000_000 + (k % 5) * 3_600_000_000 \
            + (0 if k % 3 == 0 else int(rng.integers(0, 3_000_000_000)))
        rows.append(dict(user=f"u{u}", ts_us=ts,
                         event_id=f"e{rng.integers(0, 10**9):09d}",
                         val=float(k % 7)))
    return pd.DataFrame(rows)


def _docs_df(seed: int = 10, n: int = 120) -> pd.DataFrame:
    """Documents with exact-duplicate groups and near-duplicate pairs."""
    rng = np.random.default_rng(seed)
    vocab = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta",
             "eta", "theta", "iota", "kappa"]
    rows = []
    for k in range(n):
        g = k % 25                       # 25 distinct base texts
        words = [vocab[(g * 3 + j) % len(vocab)] for j in range(30)]
        if k % 5 == 4:                   # near-dup: perturb one word
            words[7] = vocab[(g + k) % len(vocab)]
        rows.append(dict(doc_id=f"d{k:05d}", text=" ".join(words),
                         rank=int(rng.integers(0, 4))))
    return pd.DataFrame(rows)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

def test_inv_dedup_entities(ray_session):
    from agraph_ray.stages.dedup import dedup_entities
    _assert_invariant(
        lambda: (_mentions_df(),),
        lambda ds: dedup_entities(ds, KGConfig()))


def test_inv_link_entities(ray_session):
    from agraph_ray.stages.canonicalize import link_entities
    _assert_invariant(
        lambda: (_nodes_df(),),
        lambda ds: link_entities(ds, KGConfig(), num_buckets=8))


# canonicalize's map and rewrite on their distributed sides
_CANON = "agraph_ray.stages.canonicalize"
_CANON_LARGE = {"_MAP_DRIVER_NODES": 0, "_REWRITE_DRIVER_ROWS": 0}


@pytest.mark.parametrize("large_side", [False, True],
                         ids=["driver", "distributed"])
def test_inv_canonicalize(ray_session, force_side, large_side):
    from agraph_ray.stages.canonicalize import canonicalize
    nodes = _nodes_df()

    def op(nds, eds):
        cn, ce, cmap = canonicalize(nds, eds, KGConfig())
        cm = pd.DataFrame(sorted(cmap.items()), columns=["src", "root"])
        return cn, ce, cm

    with force_side(_CANON, **(_CANON_LARGE if large_side else {})):
        _assert_invariant(lambda: (nodes, _edges_df(nodes)), op)


def test_inv_canonicalize_driver_equals_distributed(ray_session, force_side):
    """The two canonicalize sides agree on the same single-layout input:
    the same 12-entry map, the same nodes and edges."""
    import ray.data as rd
    from agraph_ray.stages.canonicalize import canonicalize
    nodes = _nodes_df()
    edges = _edges_df(nodes)
    outs = []
    for large_side in (False, True):
        with force_side(_CANON, **(_CANON_LARGE if large_side else {})):
            cn, ce, cmap = canonicalize(rd.from_pandas([nodes]),
                                        rd.from_pandas([edges]), KGConfig())
        assert isinstance(cn, pa.Table) != large_side
        outs.append((_normalize(cn), _normalize(ce), dict(cmap)))
    assert len(outs[0][2]) == 12
    pd.testing.assert_frame_equal(outs[0][0], outs[1][0], check_dtype=False)
    pd.testing.assert_frame_equal(outs[0][1], outs[1][1], check_dtype=False)
    assert outs[0][2] == outs[1][2]


def test_apply_external_map_driver_equals_distributed(ray_session,
                                                      force_side):
    """apply_canonical_map under a map from another linker (the llm_e2e
    judge path): merges across types, a root absent from the nodes,
    self-loops and edge-signature collisions rewrite the same on both
    sides, over a multi-block layout."""
    from agraph_ray.stages.canonicalize import apply_canonical_map
    nodes = _nodes_df()
    edges = _edges_df(nodes)
    ids = nodes["entity_id"].tolist()
    cmap = {ids[1]: ids[0], ids[2]: ids[0], ids[16]: ids[0],
            ids[4]: ids[3], ids[20]: ids[3], ids[22]: "entity_gone"}
    chunks = dict(_layouts(nodes))["5blk-shuffled"]
    outs = []
    for large_side in (False, True):
        with force_side(_CANON, **(_CANON_LARGE if large_side else {})):
            cn, ce = apply_canonical_map(_to_ds(chunks), _to_ds([edges]),
                                         cmap)
        assert isinstance(cn, pa.Table) != large_side
        outs.append((_normalize(cn), _normalize(ce)))
    n_ids = set(outs[0][0]["entity_id"])
    assert n_ids == set(ids) - {ids[i] for i in (1, 2, 16, 4, 20, 22)} \
        | {"entity_gone"}
    assert len(outs[0][1]) < len(edges)
    pd.testing.assert_frame_equal(outs[0][0], outs[1][0], check_dtype=False)
    pd.testing.assert_frame_equal(outs[0][1], outs[1][1], check_dtype=False)


def test_inv_window_dedup(ray_session):
    from agraph_ray.ops.window import window_dedup
    _assert_invariant(
        lambda: (_events_df(),),
        lambda ds: window_dedup(ds, ["user"], "ts_us", width_sec=3600,
                                tie_col="event_id", num_buckets=8))


def test_inv_upsert_latest(ray_session):
    from agraph_ray.ops.setops import upsert_latest
    rng = np.random.default_rng(21)
    base = pd.DataFrame(dict(
        k=[f"k{i % 15}" for i in range(60)],
        v=[f"b{i}" for i in range(60)],
        order=[int(rng.integers(0, 5)) for _ in range(60)]))
    base = base.drop_duplicates("k")  # base: one row per key
    upd = pd.DataFrame(dict(
        k=[f"k{int(rng.integers(0, 20))}" for _ in range(80)],
        v=[f"u{i}" for i in range(80)],
        order=[int(rng.integers(0, 5)) for _ in range(80)]))
    _assert_invariant(
        lambda: (upd, base),
        # layouts vary the UPDATES side (the history stream); base fixed
        lambda u, b: upsert_latest(b, u, ["k"], "order", num_buckets=8))


def test_inv_scd2_apply(ray_session):
    from agraph_ray.ops.setops import OPEN_SENTINEL, scd2_apply
    rng = np.random.default_rng(23)
    hist = pd.DataFrame(dict(
        k=[f"k{i}" for i in range(12)],
        attr=[f"h{i}" for i in range(12)],
        valid_from=[100 + i for i in range(12)],
        valid_to=[OPEN_SENTINEL if i % 2 == 0 else 200 + i
                  for i in range(12)]))
    upd = pd.DataFrame(dict(
        k=[f"k{int(rng.integers(0, 16))}" for _ in range(70)],
        attr=[f"u{i % 6}" for i in range(70)],
        ts=[300 + int(rng.integers(0, 40)) for _ in range(70)]))
    # scd2 requires distinct (k, ts) update versions to be well-defined
    upd = upd.drop_duplicates(["k", "ts"]).reset_index(drop=True)
    _assert_invariant(
        lambda: (upd, hist),
        lambda u, h: scd2_apply(h, u, ["k"], "ts", num_buckets=8))


def test_inv_exact_dedup_by(ray_session):
    from agraph_ray.ops.dedup import exact_dedup_by
    _assert_invariant(
        lambda: (_docs_df(),),
        lambda ds: exact_dedup_by(ds, "text", "doc_id",
                                  keep_cols=["rank"], ascending=[False]))


def test_inv_exact_dedup(ray_session):
    # r3 s13: exact_dedup moved from the native Min aggregate to the
    # bucketed reduce with a map-side combiner — pin layout invariance
    from agraph_ray.ops.dedup import exact_dedup
    _assert_invariant(
        lambda: (_docs_df(),),
        lambda ds: exact_dedup(ds, "text", "doc_id"))


def test_inv_tumbling_window(ray_session):
    from agraph_ray.ops.window import tumbling_window
    _assert_invariant(
        lambda: (_events_df(),),
        lambda ds: tumbling_window(ds, "user", "ts_us", 3600, "val"))


def test_inv_minhash_dedup(ray_session):
    from agraph_ray.ops.dedup import minhash_dedup
    _assert_invariant(
        lambda: (_docs_df(),),
        lambda ds: minhash_dedup(ds, "text", "doc_id",
                                 jaccard_threshold=0.8))


# ---------------------------------------------------------------------------
# second tier — more keyed reduces under the same harness
# ---------------------------------------------------------------------------

def test_inv_sessionize(ray_session):
    from agraph_ray.ops.window import sessionize
    rng = np.random.default_rng(31)
    rows = [dict(user=int(rng.integers(0, 10)),
                 ts_us=1_700_000_000_000_000
                 + int(rng.integers(0, 50)) * 600_000_000)
            for _ in range(250)]
    df = pd.DataFrame(rows).drop_duplicates(["user", "ts_us"])
    _assert_invariant(
        lambda: (df,),
        lambda ds: sessionize(ds, "user", "ts_us", gap_sec=1200,
                              num_buckets=8))


def test_inv_ranked_agg(ray_session):
    from agraph_ray.ops.window import ranked_agg
    rng = np.random.default_rng(33)
    df = pd.DataFrame(dict(
        id=np.arange(300, dtype=np.int64),
        k=rng.integers(0, 8, size=300).astype(np.int64),
        v=rng.integers(0, 20, size=300).astype(np.int64)))  # heavy ties
    _assert_invariant(
        lambda: (df,),
        lambda ds: ranked_agg(ds, "k", "v", "id", ntiles=4, num_buckets=8))


def test_inv_line_dedup(ray_session):
    from agraph_ray.ops.dedup import line_dedup
    rng = np.random.default_rng(35)
    rows = [dict(conv_id=f"c{k % 12}", turn_idx=k // 12,
                 text=f"line {int(rng.integers(0, 40))}")  # heavy repeats
            for k in range(240)]
    _assert_invariant(
        lambda: (pd.DataFrame(rows),),
        lambda ds: line_dedup(ds, "conv_id", "turn_idx", "text",
                              num_buckets=8))


def test_inv_dedup_edges(ray_session):
    from agraph_ray.stages.dedup import dedup_edges
    rng = np.random.default_rng(37)
    rows = []
    for k in range(200):
        i = int(rng.integers(0, 25))
        tie = k % 3 == 0
        rows.append(dict(
            kind="triple", conv_id=f"c{k % 7}",
            relation_id=f"relation_{i:04d}",
            head_id=f"entity_a{i}", tail_id=f"entity_b{i}",
            subj=f"subj {i}", obj=f"obj {i}", pred="related_to",
            subj_type="person", obj_type=["person", "organization"][k % 2],
            description="" if tie else f"d{k % 4}",
            properties=(json.dumps({"p": k % 5}, sort_keys=True)
                        if k % 2 == 0 else None),
            confidence=0.7 if tie else round(0.4 + (k % 6) * 0.1, 2),
            source="cooccurrence"))
    _assert_invariant(
        lambda: (pd.DataFrame(rows),),
        lambda ds: dedup_edges(ds))


def test_inv_funnel_depths(ray_session):
    from agraph_ray.ops.window import funnel_depths
    rng = np.random.default_rng(39)
    stages = ["view", "cart", "buy"]
    rows = [dict(user=f"u{int(rng.integers(0, 15))}",
                 ts_us=1_700_000_000_000_000
                 + int(rng.integers(0, 10**9)),
                 etype=stages[int(rng.integers(0, 3))])
            for _ in range(300)]
    df = pd.DataFrame(rows).drop_duplicates(["user", "ts_us"])
    _assert_invariant(
        lambda: (df,),
        lambda ds: funnel_depths(ds, "user", "ts_us", "etype", stages,
                                 num_buckets=8))


def _turns_and_vocab():
    rng = np.random.default_rng(41)
    names = ["alpha systems", "beta corp", "gamma labs", "delta inc"]
    nodes = pd.DataFrame([dict(entity_id=f"entity_{i:04d}", name=n,
                               aliases=[n.split()[0]])
                          for i, n in enumerate(names)])
    rows = []
    for k in range(220):
        mentioned = [n for n in names if rng.random() < 0.3]
        rows.append(dict(
            conv_id=f"c{k % 16}",
            ts=1_700_000_000_000_000 + int(rng.integers(0, 10**9)),
            text="we discussed " + " and ".join(mentioned)
                 if mentioned else "nothing relevant here"))
    return pd.DataFrame(rows), nodes


def test_inv_mention_timeline(ray_session):
    from agraph_ray.stages.link_chunks import mention_timeline
    turns, nodes = _turns_and_vocab()
    _assert_invariant(
        lambda: (turns, nodes),
        lambda t, n: mention_timeline(t, n, num_buckets=8))


def test_inv_comention_edges(ray_session):
    from agraph_ray.stages.link_chunks import comention_edges
    turns, nodes = _turns_and_vocab()
    _assert_invariant(
        lambda: (turns, nodes),
        lambda t, n: comention_edges(t, n, num_buckets=8))


def _mixed_mentions_df() -> pd.DataFrame:
    """Kind-tagged union frame (entity + triple mentions) as the extract
    stage emits it: every column present, per-kind irrelevant columns
    None."""
    ent = _mentions_df().assign(kind="entity")
    rng = np.random.default_rng(37)
    rows = []
    for k in range(200):
        i = int(rng.integers(0, 25))
        tie = k % 3 == 0
        rows.append(dict(
            kind="triple", conv_id=f"c{k % 7}",
            relation_id=f"relation_{i:04d}",
            head_id=f"entity_a{i}", tail_id=f"entity_b{i}",
            subj=f"subj {i}", obj=f"obj {i}", pred="related_to",
            subj_type="person", obj_type=["person", "organization"][k % 2],
            description="" if tie else f"d{k % 4}",
            properties=(json.dumps({"p": k % 5}, sort_keys=True)
                        if k % 2 == 0 else None),
            confidence=0.7 if tie else round(0.4 + (k % 6) * 0.1, 2),
            source="cooccurrence"))
    edg = pd.DataFrame(rows)
    both = pd.concat([ent, edg], ignore_index=True)
    # object-dtype None padding for per-kind missing columns (as Arrow
    # nulls, not NaN floats)
    for c in both.columns:
        if both[c].dtype == np.float64 and c != "confidence":
            both[c] = both[c].astype(object)
        both[c] = both[c].where(both[c].notna(), None)
    both["aliases"] = both["aliases"].map(
        lambda v: v if isinstance(v, list) else [])
    return both


def test_inv_dedup_both_fused(ray_session, force_side):
    """The fused single-scan dedup is partition-invariant on both sides
    (driver merge, bucketed reduce)."""
    from agraph_ray.stages.dedup import dedup_both

    for forced in ({}, {"_DRIVER_MERGE_BYTES": 0}):
        with force_side("agraph_ray.stages.dedup", **forced):
            _assert_invariant(
                lambda: (_mixed_mentions_df(),),
                lambda ds: dedup_both(ds, KGConfig()))


def _one_pass_reference(df: pd.DataFrame):
    """Per kind, one partial over ALL of its rows and one bucket merge —
    the reference's single dict-update pass, with no batching, combine
    levels or shuffles in between."""
    from agraph_ray.stages.dedup import (_edge_partial, _entity_partial,
                                         _merge_entities_bucket,
                                         merge_edges_bucket)

    def rows(kind):
        part = df[df["kind"] == kind].dropna(axis=1, how="all")
        return pa.Table.from_pandas(part, preserve_index=False)
    nodes = _merge_entities_bucket(_entity_partial(rows("entity")).to_pandas())
    edges = merge_edges_bucket(_edge_partial(rows("triple")).to_pandas())
    return nodes, edges


def test_dedup_both_equals_per_kind(ray_session, force_side):
    from agraph_ray.stages.dedup import dedup_both
    import ray.data as rd
    df = _mixed_mentions_df()
    ds = rd.from_pandas([df]).repartition(7)
    nodes_ref, edges_ref = _one_pass_reference(df)
    # the driver merge, and the composite-key bucketed reduce that
    # continues from the combined partials
    for forced in ({}, {"_DRIVER_MERGE_BYTES": 0}):
        with force_side("agraph_ray.stages.dedup", **forced):
            nodes, edges = dedup_both(ds, KGConfig())
        pd.testing.assert_frame_equal(_normalize(nodes),
                                      _normalize(nodes_ref),
                                      check_dtype=False)
        pd.testing.assert_frame_equal(_normalize(edges),
                                      _normalize(edges_ref),
                                      check_dtype=False)


# ---------------------------------------------------------------------------
# round-4: co-location-contract ops under violating layouts (verdict #5).
# asof_join / dense_time_series document "all rows of one by-key
# co-located per bucket" — the bucketed_group_reduce shuffle must
# ENFORCE that no matter how a multi-node loader scattered the keys
# across input blocks (the 3blk-clustered layout is the worst case).
# ---------------------------------------------------------------------------

def _quotes_df(seed: int = 21) -> pd.DataFrame:
    """Right side for asof_join: per-user quote timeline with exact
    timestamp ties so tie_break decides."""
    rng = np.random.default_rng(seed)
    rows = []
    for u in range(12):
        for j in range(15):
            ts = 1_700_000_000_000_000 + j * 1_000_000_000 \
                + (0 if j % 4 else int(rng.integers(0, 2)))
            rows.append(dict(quser=f"u{u}", qts=ts,
                             qval=float((u * 7 + j) % 11)))
    return pd.DataFrame(rows)


def test_inv_asof_join_left_layouts(ray_session):
    from agraph_ray.ops.join import asof_join
    ev = _events_df()[["user", "ts_us", "event_id"]]
    _assert_invariant(
        lambda: (ev, _quotes_df()),
        lambda l, r: asof_join(l, r, "ts_us", "qts", "user", "quser",
                               tie_break="qval", num_buckets=8))


def test_inv_asof_join_right_layouts(ray_session):
    """Same op, layouts applied to the RIGHT side (the side whose
    co-location a general loader is most likely to scatter)."""
    from agraph_ray.ops.join import asof_join
    ev = _events_df()[["user", "ts_us", "event_id"]]
    _assert_invariant(
        lambda: (_quotes_df(), ev),
        lambda r, l: asof_join(l, r, "ts_us", "qts", "user", "quser",
                               tie_break="qval", num_buckets=8))


def test_inv_dense_time_series(ray_session):
    from agraph_ray.ops.window import dense_time_series
    _assert_invariant(
        lambda: (_events_df(),),
        lambda ds: dense_time_series(ds, "user", "ts_us", 3600,
                                     agg_col="val", num_buckets=8))


def test_inv_llm_extract_pool(ray_session):
    """extract_mentions_llm (repartition + zero-CPU actor pool +
    in-actor threads) must be a pure execution strategy: identical
    mentions for any input block layout."""
    from agraph_ray.config import KGConfig
    from agraph_ray.mock_llm import mock_llm_engine_factory
    from agraph_ray.stages.extract import extract_mentions_llm

    docs = pd.DataFrame([
        dict(conv_id=f"c{i}", doc_seq=0, n_turns=3,
             text=(f"Alice Johnson met Bob at Acme Corp in Paris. "
                   f"Topic{i % 7} came up with Carol Smith. Case {i}."))
        for i in range(60)])
    fac = mock_llm_engine_factory(latency_sec=0.0)

    def run(ds):
        out = extract_mentions_llm(ds, KGConfig(), engine_factory=fac,
                                   num_actors=6, max_concurrent=4,
                                   batch_size=8)
        # collect as Arrow: Ray's tensor-extension cast chokes on the
        # ragged aliases list column in Dataset.to_pandas()
        return pa.concat_tables(list(out.iter_batches(
            batch_size=None, batch_format="pyarrow")))

    _assert_invariant(lambda: (docs,), run)
