"""Graph-kernel tests: co-occurrence pairs, triangle counts, PageRank.

Distributed paths are forced with threshold=0 / the shuffle-join branch and
compared against brute-force numpy references on random graphs.
"""

import numpy as np
import pandas as pd
import pytest

GA = "agraph_ray.ops.graph_algo"


def _random_edges(n_nodes: int, n_edges: int, seed: int) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    a = rng.integers(0, n_nodes, n_edges)
    b = rng.integers(0, n_nodes, n_edges)
    keep = a != b
    return pd.DataFrame({"a": a[keep], "b": b[keep]})


def _brute_triangles(df: pd.DataFrame) -> dict:
    adj = {}
    for a, b in zip(df["a"], df["b"]):
        lo, hi = (a, b) if a < b else (b, a)
        adj.setdefault(lo, set()).add(hi)
        adj.setdefault(hi, set()).add(lo)
    counts = {}
    seen = set()
    for u, nb in adj.items():
        for v in nb:
            if v <= u:
                continue
            for w in adj[v]:
                if w <= v or w not in nb:
                    continue
                key = (u, v, w)
                if key in seen:
                    continue
                seen.add(key)
                for x in key:
                    counts[x] = counts.get(x, 0) + 1
    return counts


def test_pairs_within_groups(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import pairs_within_groups
    df = pd.DataFrame({"g": [1, 1, 1, 2, 2, 3, 1],
                       "v": [10, 11, 12, 10, 20, 5, 10]})
    out = (pairs_within_groups(rd.from_pandas(df), "g", "v")
           .to_pandas().sort_values(["a", "b"]).reset_index(drop=True))
    exp = {(10, 11), (10, 12), (11, 12), (10, 20)}
    got = set(zip(out["a"], out["b"]))
    assert got == exp


def test_triangle_counts_vs_brute(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import triangle_counts
    df = _random_edges(60, 400, seed=5)
    exp = _brute_triangles(df)
    out = triangle_counts(rd.from_pandas(df)).to_pandas()
    got = dict(zip(out["node"], out["n_tri"]))
    assert got == exp


def test_triangle_counts_shuffle_join_path(ray_session, force_side):
    """_BROADCAST_SIDE_BYTES=0 forces the co-group degree attachment."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import triangle_counts
    df = _random_edges(40, 200, seed=9)
    exp = _brute_triangles(df)
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        out = triangle_counts(rd.from_pandas(df)).to_pandas()
    got = dict(zip(out["node"], out["n_tri"]))
    assert got == exp


def _dense_pagerank(df: pd.DataFrame, damping: float, iters: int):
    nodes = np.unique(np.concatenate([df["src"], df["dst"]]))
    n = len(nodes)
    si = np.searchsorted(nodes, df["src"].to_numpy())
    di = np.searchsorted(nodes, df["dst"].to_numpy())
    outdeg = np.bincount(si, minlength=n)
    r = np.full(n, 1.0 / n)
    for _ in range(iters):
        contrib = r[si] / outdeg[si]
        insum = np.bincount(di, weights=contrib, minlength=n)
        dang = r[outdeg == 0].sum()
        r = (1 - damping) / n + damping * (insum + dang / n)
    return dict(zip(nodes, r))


def test_pagerank_driver_path(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import pagerank
    rng = np.random.default_rng(2)
    df = pd.DataFrame({"src": rng.integers(0, 30, 200),
                       "dst": rng.integers(0, 30, 200)})
    exp = _dense_pagerank(df, 0.85, 15)
    out = pagerank(rd.from_pandas(df), damping=0.85, iters=15,
                   round_to=None).to_pandas()
    got = dict(zip(out["node"], out["rank"]))
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    assert abs(sum(got.values()) - 1.0) < 1e-9


def test_pagerank_distributed_matches_driver(ray_session, force_side):
    """_DRIVER_EDGES=0 forces the shuffle rounds; ranks must match the
    dense reference (dangling nodes included)."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import pagerank
    rng = np.random.default_rng(4)
    # include guaranteed sinks: nodes 50..54 never appear as src
    df = pd.DataFrame({"src": rng.integers(0, 50, 300),
                       "dst": rng.integers(0, 55, 300)})
    exp = _dense_pagerank(df, 0.85, 8)
    with force_side(GA, _DRIVER_EDGES=0):
        out = pagerank(rd.from_pandas(df), damping=0.85, iters=8,
                       round_to=None).to_pandas()
    got = dict(zip(out["node"], out["rank"]))
    assert set(got) == set(exp)
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-9, k
    assert abs(sum(got.values()) - 1.0) < 1e-9


def _brute_k_core(df: pd.DataFrame, k: int) -> dict:
    edges = set(map(tuple, np.sort(df[["a", "b"]].to_numpy(), axis=1)))
    edges = {(a, b) for a, b in edges if a != b}
    while True:
        deg = {}
        for a, b in edges:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        bad = {n for n, d in deg.items() if d < k}
        if not bad:
            return deg
        edges = {(a, b) for a, b in edges
                 if a not in bad and b not in bad}


def test_k_core_both_paths(ray_session, force_side):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import k_core
    df = _random_edges(50, 300, seed=8)
    for k in (2, 3, 5):
        exp = _brute_k_core(df, k)
        got = dict(zip(*(lambda o: (o["node"], o["deg"]))(
            k_core(rd.from_pandas(df), k).to_pandas())))
        assert got == exp, f"driver k={k}"
        with force_side(GA, _DRIVER_EDGES=0):
            got_d = dict(zip(*(lambda o: (o["node"], o["deg"]))(
                k_core(rd.from_pandas(df), k).to_pandas())))
        assert got_d == exp, f"distributed k={k}"


def test_link_prediction_scores_hand_graph(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.graph_algo import link_prediction_scores
    # parts -> suppliers: p1:{1,2,3}, p2:{1,2}, p3:{2,3,4}
    edges = pd.DataFrame({
        "s": [1, 2, 3, 1, 2, 2, 3, 4, 4],   # one duplicate (4, 30)
        "p": [10, 10, 10, 20, 20, 30, 30, 30, 30]})
    out = link_prediction_scores(rd.from_pandas(edges), "s", "p",
                                 k=100).to_pandas()
    got = {(r.a, r.b): r for r in out.itertuples()}
    w3 = 1.0 / np.log(3.0)
    w2 = 1.0 / np.log(2.0)
    # degrees: s1=2 (p1,p2), s2=3, s3=2, s4=1
    exp = {
        (1, 2): (2, w3 + w2, 2 / (2 + 3 - 2)),
        (1, 3): (1, w3, 1 / (2 + 2 - 1)),
        (2, 3): (2, w3 + w3, 2 / (3 + 2 - 2)),
        (2, 4): (1, w3, 1 / (3 + 1 - 1)),
        (3, 4): (1, w3, 1 / (2 + 1 - 1)),
    }
    assert set(got) == set(exp)
    for k_, (cn, aa, jac) in exp.items():
        r = got[k_]
        assert r.cn == cn
        assert r.aa_micro == int(np.floor(aa * 1e6 + 0.5))
        assert r.jac_micro == int(np.floor(jac * 1e6 + 0.5))
    # ordered by aa_micro desc with (a, b) tie-break
    assert list(out["aa_micro"]) == sorted(out["aa_micro"], reverse=True)


def test_link_prediction_join_path_equals_broadcast(ray_session,
                                                    force_side):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.graph_algo import link_prediction_scores
    rng = np.random.default_rng(9)
    edges = pd.DataFrame({"s": rng.integers(0, 30, 400),
                          "p": rng.integers(0, 50, 400)})
    ds = rd.from_pandas(edges)
    b = link_prediction_scores(ds, "s", "p", k=1000).to_pandas()
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        j = link_prediction_scores(ds, "s", "p", k=1000).to_pandas()
    pd.testing.assert_frame_equal(b, j)


def test_random_walks_match_hand_rule(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.graph_algo import random_walks
    from agraph_ray.ops.stats import _key_hash32
    edges = pd.DataFrame({"a": [1, 1, 2, 3], "b": [2, 3, 3, 4]})
    out = random_walks(rd.from_pandas(edges), "a", "b", length=3,
                       walks_per_node=2).to_pandas()
    # undirected adjacency
    adj = {1: [2, 3], 2: [1, 3], 3: [1, 2, 4], 4: [3]}
    exp_rows = set()
    for node in adj:
        for j in range(2):
            wid = f"{node}#{j}"
            cur = node
            exp_rows.add((wid, 0, cur))
            for step in range(2):
                nbrs = adj[cur]
                r = int(_key_hash32([f"{wid}|{step}|{cur}"])[0]
                        % np.uint64(len(nbrs)))
                cur = nbrs[r]
                exp_rows.add((wid, step + 1, cur))
    got_rows = {(r.walk_id, r.step, r.node) for r in out.itertuples()}
    assert got_rows == exp_rows


def test_random_walks_stop_at_sink(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.graph_algo import random_walks
    edges = pd.DataFrame({"a": [1, 2], "b": [2, 3]})
    out = random_walks(rd.from_pandas(edges), "a", "b", length=5,
                       undirected=False).to_pandas()
    # node 3 is a sink: its walk has a single row; every walk from 1
    # reaches 3 by step 2 and stops
    w3 = out[out["walk_id"] == "3#0"]
    assert list(w3["step"]) == [0]
    w1 = out[out["walk_id"] == "1#0"].sort_values("step")
    assert list(w1["node"]) == [1, 2, 3]


def test_random_walks_distributed_equals_broadcast(ray_session, force_side):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.graph_algo import random_walks
    rng = np.random.default_rng(23)
    edges = pd.DataFrame({"a": rng.integers(0, 40, 200),
                          "b": rng.integers(0, 40, 200)})
    edges = edges[edges["a"] != edges["b"]]
    ds = rd.from_pandas(edges)
    fast = random_walks(ds, "a", "b", length=4).to_pandas()
    with force_side(GA, _BROADCAST_ROWS=0):
        slow = random_walks(ds, "a", "b", length=4).to_pandas()
    key = lambda d: sorted(map(tuple, d[["walk_id", "step", "node"]].values))
    assert key(fast) == key(slow)


def _dense_ppr(df, seeds, damping, iters):
    nodes = np.unique(df[["src", "dst"]].to_numpy())
    idx = {n: i for i, n in enumerate(nodes)}
    n = len(nodes)
    A = np.zeros((n, n))
    for s, d in df.itertuples(index=False):
        A[idx[s], idx[d]] += 1.0
    # collapse parallel edges like the op's out-degree (count-based)
    od = A.sum(1)
    e = np.zeros(n)
    for s in seeds:
        if s in idx:
            e[idx[s]] = 1.0 / len(seeds)
    r = e.copy()
    for _ in range(iters):
        contrib = np.where(od[:, None] > 0, A * (r / np.maximum(od, 1))[:, None], 0)
        insum = contrib.sum(0)
        dang = r[od == 0].sum()
        r = (1 - damping) * e + damping * (insum + dang * e)
    return dict(zip(nodes, r))


def test_personalized_pagerank_driver_and_distributed(ray_session,
                                                      force_side):
    """PPR teleports to the seed set only; distributed shuffle rounds
    (_DRIVER_EDGES=0) match the driver numpy iteration exactly."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import personalized_pagerank
    rng = np.random.default_rng(7)
    df = pd.DataFrame({"src": rng.integers(0, 40, 250),
                       "dst": rng.integers(0, 45, 250)})
    seeds = [0, 1, 2]
    exp = _dense_ppr(df, seeds, 0.85, 8)
    for forced in ({}, {"_DRIVER_EDGES": 0}):
        with force_side(GA, **forced):
            out = personalized_pagerank(rd.from_pandas(df), seeds,
                                        damping=0.85, iters=8,
                                        round_to=None).to_pandas()
        got = dict(zip(out["node"], out["rank"]))
        assert set(got) == set(exp)
        for k in exp:
            assert abs(got[k] - exp[k]) < 1e-9, (forced, k)
        # mass concentrates near the seeds: every seed outranks the median
        med = float(np.median(list(got.values())))
        assert all(got[s] > med for s in seeds)
