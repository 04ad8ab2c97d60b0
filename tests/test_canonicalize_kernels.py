"""Canonicalize's array kernels against per-row references kept here:
the batch MinHash bander, the one-pass merge of all merge groups, and the
union-find walk that skips candidates whose endpoints are already linked.
No Ray session: every kernel runs in-process."""

import hashlib
import importlib
import json

import numpy as np
import pandas as pd
import pyarrow as pa

from agraph_ray.config import KGConfig

# -- the per-row bander these kernels replaced (frozen copy) -----------------

_MERSENNE = (1 << 61) - 1


def _ref_perm_constants(num_perm):
    stream = b"".join(
        hashlib.md5(f"agraph-ray-minhash-{i}".encode()).digest()
        for i in range(num_perm))
    arr = np.frombuffer(stream, dtype=np.uint64).reshape(num_perm, 2).copy()
    arr[:, 0] |= 1
    return arr


def _ref_shingle_hashes(name, k):
    s = f"^{name}$"
    if len(s) < k:
        s = s.ljust(k, "_")
    toks = sorted({s[i:i + k] for i in range(len(s) - k + 1)})
    return pd.util.hash_array(np.asarray(toks, dtype=object),
                              hash_key="agraph-ray-tok!!", categorize=False)


def _ref_band_rows(cfg, table):
    """(block_key, entity_id) rows of the per-row bander: one signature
    matrix op and one md5 per band for each name."""
    perms = _ref_perm_constants(cfg.num_perm)
    rows = cfg.num_perm // cfg.lsh_bands
    out = []
    for r in table.to_pylist():
        name, etype, al = r["name"], r["entity_type"], r.get("aliases") or []
        h = _ref_shingle_hashes(name or "", cfg.shingle_k)
        sig = ((perms[:, 0][:, None] * h[None, :] + perms[:, 1][:, None])
               % _MERSENNE).min(axis=1)
        for band in range(cfg.lsh_bands):
            digest = hashlib.md5(
                sig[band * rows:(band + 1) * rows].tobytes()).hexdigest()
            out.append((f"{band}:{digest[:12]}:{etype}", r["entity_id"]))
        for value in {(name or "").lower()} | {a.lower() for a in al}:
            if value:
                digest = hashlib.md5(value.encode()).hexdigest()[:12]
                out.append((f"A:{digest}:{etype}", r["entity_id"]))
    return out


def _partition(rows):
    """Sorted (band or "A", type, sorted members) per block."""
    blocks = {}
    for key, eid in rows:
        blocks.setdefault(key, set()).add(eid)
    return sorted((k.split(":", 1)[0], k.rsplit(":", 1)[1], tuple(sorted(v)))
                  for k, v in blocks.items())


def test_batch_bander_partition_equals_per_row_reference():
    from agraph_ray.stages.canonicalize import MinHashBander
    names = ["Acme Corp", "Acme Corp.", "ACME corp", "acme corporation",
             "A", "ab", "", None, "Zoë Straße", "Zoe Strasse", "Зоя",
             "東京都", "東京", "Globex", "Globex Inc", "globex inc"]
    n = len(names)
    aliases = [["Acme"], None, [], ["acme", "ACME"], [], None, ["x"], None,
               ["Zoë"], ["zoë"], [], ["Tokyo"], ["tokyo"], [], None, []]
    types = ["org", "org", "org", None, "org", "org", None, "org",
             "person", "person", "person", None, None, "org", "org", "org"]
    table = pa.table({
        "entity_id": [f"e{i:02d}" for i in range(n)],
        "name": pa.array(names, pa.string()),
        "entity_type": pa.array(types, pa.string()),
        "aliases": pa.array(aliases, pa.list_(pa.string())),
        "properties": pa.array([None] * (n - 1) + ['{"k": 1}'], pa.string()),
    })
    for cfg in (KGConfig(), KGConfig(shingle_k=4, num_perm=64,
                                     lsh_bands=16)):
        out = MinHashBander(cfg)(table)
        assert out.column_names == ["block_key", "entity_id", "name",
                                    "entity_type", "aliases", "properties"]
        got = list(zip(out["block_key"].to_pylist(),
                       out["entity_id"].to_pylist()))
        assert _partition(got) == _partition(_ref_band_rows(cfg, table))
        # every band row carries its entity's own attributes
        by_id = {r["entity_id"]: r for r in table.to_pylist()}
        for r in out.to_pylist():
            src = by_id[r["entity_id"]]
            assert (r["name"], r["entity_type"], r["aliases"],
                    r["properties"]) == (src["name"], src["entity_type"],
                                         src["aliases"] or [],
                                         src["properties"])


def test_batch_bander_without_optional_columns():
    from agraph_ray.stages.canonicalize import MinHashBander
    table = pa.table({"entity_id": ["a", "b"], "name": ["x y", "x y"],
                      "entity_type": ["t", "t"]})
    out = MinHashBander(KGConfig())(table)
    assert out["aliases"].to_pylist() == [[]] * len(out)
    assert out["properties"].null_count == len(out)
    assert _partition(zip(out["block_key"].to_pylist(),
                          out["entity_id"].to_pylist())) == \
        _partition(_ref_band_rows(KGConfig(), table))


# -- the per-group merge these kernels replaced (frozen copy) ----------------

def _ref_merge_group_row(g):
    from agraph_ray.stages.dedup import merge_properties
    g = g.sort_values(["confidence", "entity_id"],
                      ascending=[False, True], kind="mergesort")
    rep = g.iloc[0].copy()
    rep["entity_id"] = g["canonical_id"].iloc[0]
    others = sorted(set(g["name"]) - {rep["name"]})
    rep["aliases"] = sorted(
        {a for lst in g["aliases"] for a in lst} | set(others))
    rep["properties"] = merge_properties(g.assign(__k="x"), "__k").get("x")
    rep["n_mentions"] = int(g["n_mentions"].sum())
    rep["n_convs"] = int(g["n_convs"].sum())
    return rep.drop(labels=["canonical_id"])


def _records(df):
    from agraph_ray.stages.dedup import NODES_SCHEMA
    return pa.Table.from_pandas(df, schema=NODES_SCHEMA,
                                preserve_index=False).to_pylist()


def test_merge_groups_equals_per_group_reference():
    from agraph_ray.stages.canonicalize import _merge_groups
    rows = [
        # c1: a confidence tie, broken by entity_id; an alias that is also
        # a member's name; properties on two members
        ("e3", "c1", "Acme", ["ACME", "Acme Corp"], 0.9, '{"hq": "NY"}'),
        ("e1", "c1", "Acme Corp", ["acme"], 0.9, None),
        ("e2", "c1", "acme corp", [], 0.5, '{"hq": "Boston", "ceo": "W"}'),
        # c9 appears before c5: groups keep first-appearance order
        ("e9", "c9", "Globex", [], 0.7, None),
        ("e5", "c5", "Initech", ["Initech"], 0.6, None),
        ("e6", "c5", "Initech", ["Inytech"], 0.8, None),
        ("e8", "c9", "Globex Inc", ["Globex"], 0.7, None),
    ]
    hit = pd.DataFrame(rows, columns=["entity_id", "canonical_id", "name",
                                      "aliases", "confidence", "properties"])
    hit = hit.assign(display_name=hit["name"], entity_type="org",
                     description="", source="text_extraction",
                     n_mentions=range(1, len(hit) + 1),
                     n_convs=[1, 2, 1, 1, 3, 1, 2])
    want = pd.DataFrame([_ref_merge_group_row(g) for _, g in
                         hit.groupby("canonical_id", sort=False)])
    got = _merge_groups(hit)
    assert list(got["entity_id"]) == ["c1", "c9", "c5"]
    assert _records(got) == _records(want)
    c1 = _records(got)[0]
    assert c1["name"] == "Acme Corp"          # e1 wins the 0.9 tie
    assert c1["aliases"] == ["ACME", "Acme", "Acme Corp", "acme",
                             "acme corp"]
    assert json.loads(c1["properties"]) == {"hq": "NY", "ceo": "W"}


# -- union-find over the block walk ------------------------------------------

def _map_from_all_scored_pairs(ndf, cfg):
    """Union-find over every accepted pair of the walk, none skipped."""
    from agraph_ray.stages.canonicalize import MinHashBander, _walk_blocks
    bands = MinHashBander(cfg)(pa.Table.from_pandas(
        ndf, preserve_index=False)).to_pandas()
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for s, d, _ in _walk_blocks(bands, cfg):
        rs, rd = find(s), find(d)
        if rs != rd:
            parent[max(rs, rd)] = min(rs, rd)
    return {n: find(n) for n in parent if find(n) != n}


def test_union_find_skip_gives_the_map_of_all_scored_pairs(monkeypatch):
    """e0/e1 link in minhash blocks first (their keys sort before "A:"),
    so the alias block skips (e0, e1) unscored — but that pair still
    spends the block's budget of 3, and e4, e5 stay unlinked."""
    canon = importlib.import_module("agraph_ray.stages.canonicalize")
    names = ["Acme Corp", "Acme Corp.", "Boris Yeltsin", "Quux Labs",
             "Wombat Tea", "Zygote Ltd", "Acme Corpp", "Pluto"]
    ndf = pd.DataFrame({
        "entity_id": [f"e{i}" for i in range(len(names))],
        "name": names, "entity_type": "org",
        "aliases": [["shared"]] * 6 + [[], []],
        "properties": [None] * len(names)})
    cfg = KGConfig(max_block_pairs=3)
    want = _map_from_all_scored_pairs(ndf, cfg)
    assert want == {"e1": "e0", "e2": "e0", "e3": "e0", "e6": "e0"}

    calls = []
    real = canon.weighted_similarity
    monkeypatch.setattr(canon, "weighted_similarity",
                        lambda *a: calls.append(a) or real(*a))
    assert canon._canonical_map_from_df(ndf, cfg) == want
    # the alias block scored (e0, e2) and (e0, e3) only
    assert sorted((a[0], a[1]) for a in calls) == [
        ("Acme Corp", "Boris Yeltsin"), ("Acme Corp", "Quux Labs")]
