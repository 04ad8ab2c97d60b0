"""Label-propagation communities: planted structure, driver==distributed."""

import numpy as np
import pandas as pd


def _clique_edges(members):
    return [(a, b) for i, a in enumerate(members) for b in members[i + 1:]]


def test_lpa_two_planted_cliques(ray_session):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import label_propagation
    c1, c2 = list(range(0, 6)), list(range(10, 16))
    edges = _clique_edges(c1) + _clique_edges(c2) + [(5, 10)]  # one bridge
    df = pd.DataFrame(edges, columns=["a", "b"]).astype(np.int64)
    out = label_propagation(rd.from_pandas(df)).to_pandas()
    comm = dict(zip(out.node, out.community))
    assert len(out) == 12
    assert len({comm[n] for n in c1}) == 1
    assert len({comm[n] for n in c2}) == 1
    assert comm[0] != comm[10]
    # community id is the smallest member node id
    assert comm[0] == 0 and comm[10] == 10


def test_lpa_distributed_equals_driver(ray_session, force_side):
    import ray.data as rd
    from agraph_ray.ops.graph_algo import label_propagation
    rng = np.random.RandomState(3)
    # three noisy clusters with sparse cross edges
    blocks = [np.arange(0, 30), np.arange(100, 130), np.arange(200, 230)]
    edges = []
    for blk in blocks:
        for _ in range(200):
            a, b = rng.choice(blk, 2, replace=False)
            edges.append((a, b))
    for _ in range(5):
        a = rng.choice(blocks[0])
        b = rng.choice(blocks[1])
        edges.append((a, b))
    df = pd.DataFrame(edges, columns=["a", "b"]).astype(np.int64)
    ds = rd.from_pandas(df).repartition(6)
    drv = label_propagation(ds).to_pandas().sort_values("node")
    with force_side("agraph_ray.ops.graph_algo", _DRIVER_EDGES=0):
        dist = label_propagation(ds, num_buckets=8).to_pandas() \
            .sort_values("node")
    assert list(drv.node) == list(dist.node)
    assert list(drv.community) == list(dist.community)


def test_lpa_handles_self_loops_dups_empty(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.graph_algo import label_propagation
    df = pd.DataFrame({"a": [1, 1, 2, 3], "b": [1, 2, 1, 3]}).astype(
        np.int64)
    out = label_propagation(rd.from_pandas(df)).to_pandas()
    # self-loops dropped entirely; only the 1-2 edge survives
    assert sorted(out.node) == [1, 2]
    assert set(out.community) == {1}
    empty = rd.from_arrow(pa.table({"a": pa.array([], pa.int64()),
                                    "b": pa.array([], pa.int64())}))
    assert label_propagation(empty).count() == 0
