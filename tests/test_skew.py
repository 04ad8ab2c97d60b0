"""Skew-aware join: path-invariant exactness, heavy-hitter detection."""

import numpy as np
import pandas as pd
import pytest


def _skewed(ray):
    import ray.data as rd
    rng = np.random.RandomState(7)
    # key 42 takes ~60% of the probe side — the classic power-law hot key
    cold = rng.randint(0, 300, size=8_000).astype(np.int64)
    keys = np.concatenate([np.full(12_000, 42, dtype=np.int64), cold])
    rng.shuffle(keys)
    probe = pd.DataFrame({"k": keys,
                          "v": np.arange(len(keys), dtype=np.int64)})
    build = pd.DataFrame({"k": np.arange(0, 250, dtype=np.int64),
                          "name": [f"n{i}" for i in range(250)]})
    return (rd.from_pandas(probe).repartition(8),
            rd.from_pandas(build).repartition(3), probe, build)


def test_skew_inner_matches_pandas(ray_session):
    from agraph_ray.ops.join import skew_join
    probe, build, pdf, bdf = _skewed(ray_session)
    got = skew_join(probe, build, on="k", how="inner",
                    hot_threshold=5_000).to_pandas()
    want = pdf.merge(bdf, on="k", how="inner")
    assert len(got) == len(want)
    assert sorted(zip(got.v, got.name)) == sorted(zip(want.v, want.name))


def test_skew_left_keeps_unmatched_with_nulls(ray_session):
    from agraph_ray.ops.join import skew_join
    probe, build, pdf, bdf = _skewed(ray_session)
    got = skew_join(probe, build, on="k", how="left",
                    hot_threshold=5_000).to_pandas()
    want = pdf.merge(bdf, on="k", how="left")
    assert len(got) == len(want)
    missing = got[got.name.isna()]
    assert set(missing.k) == set(want[want.name.isna()].k)
    assert got.k.dtype.kind in "i"          # no int->float drift


def test_skew_path_invariance(ray_session, force_side):
    """Classifying every key as cold (huge threshold), or a hot build slice
    over the broadcast cap, must give the same rows as the hybrid routing
    — correctness cannot depend on detection."""
    from agraph_ray.ops.join import skew_join
    probe, build, _, _ = _skewed(ray_session)
    hybrid = skew_join(probe, build, on="k",
                       hot_threshold=5_000).to_pandas()
    all_cold = skew_join(probe, build, on="k",
                         hot_threshold=10**12).to_pandas()
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        over_cap = skew_join(probe, build, on="k",
                             hot_threshold=5_000).to_pandas()
    assert sorted(zip(hybrid.v, hybrid.name)) == \
        sorted(zip(all_cold.v, all_cold.name)) == \
        sorted(zip(over_cap.v, over_cap.name))


def test_heavy_hitter_detection_bounded_state(ray_session):
    from agraph_ray.ops.join import heavy_hitter_keys
    probe, _, pdf, _ = _skewed(ray_session)
    hh = heavy_hitter_keys(probe, "k", k=4, cap=64)
    true_count = int((pdf.k == 42).sum())
    assert 42 in hh
    assert hh[42] >= 10_000          # pruned counts may undercount, not over
    assert hh[42] <= true_count
    assert len(hh) <= 4


def test_skew_hot_key_absent_from_build(ray_session):
    """The detected hot key has ZERO build rows — the broadcast slice is
    empty; inner drops the hot rows, left keeps them with nulls."""
    import ray.data as rd
    from agraph_ray.ops.join import skew_join
    probe = pd.DataFrame({"k": np.concatenate([
        np.full(5_000, 999, dtype=np.int64),
        np.arange(0, 50, dtype=np.int64)]),
        "v": np.arange(5_050, dtype=np.int64)})
    build = pd.DataFrame({"k": np.arange(0, 50, dtype=np.int64),
                          "name": [f"n{i}" for i in range(50)]})
    p = rd.from_pandas(probe).repartition(4)
    b = rd.from_pandas(build).repartition(2)
    inner = skew_join(p, b, on="k", how="inner",
                      hot_threshold=1_000).to_pandas()
    assert len(inner) == 50 and 999 not in set(inner.k)
    left = skew_join(p, b, on="k", how="left",
                     hot_threshold=1_000).to_pandas()
    assert len(left) == 5_050
    assert left[left.k == 999].name.isna().all()


def test_skew_rejects_bad_how(ray_session):
    from agraph_ray.ops.join import skew_join
    probe, build, _, _ = _skewed(ray_session)
    with pytest.raises(ValueError):
        skew_join(probe, build, on="k", how="anti")


def test_auto_join_strategies_agree(ray_session, force_side):
    """Both placements of ``auto_join`` (broadcast by default, co-group /
    bloom when the size constant is 0) give the co-group reference's rows
    for all four hows — also with a right side that repeats keys and holds
    a null key (a broadcast dict once kept only the last match)."""
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.join import auto_join, cogroup_join
    import numpy as np
    rng = np.random.default_rng(3)
    l = pd.DataFrame({"k": rng.integers(0, 50, 300),
                      "v": np.arange(300)})
    r = pd.DataFrame({"k": np.arange(0, 60, 2), "w": np.arange(30)})
    dl = rd.from_pandas(l)
    plain = rd.from_pandas(r)
    dup_null = rd.from_arrow(pa.table({
        "k": pa.array([1, 1, 2, None, 4, 4, 4], pa.int64()),
        "w": pa.array(np.arange(7), pa.int64())}))

    def rows(df):
        return sorted(map(tuple, df[sorted(df.columns)].fillna(-9e9)
                          .astype(float).values))

    for dr in (plain, dup_null):
        for how in ("inner", "left", "semi", "anti"):
            ref = cogroup_join(dl, dr.select_columns(
                ["k"] + ([] if how in ("semi", "anti") else ["w"])),
                ["k"], how=how).to_pandas()
            want = l.merge(r if dr is plain else dr.to_pandas(),
                           on="k", how="left", indicator=True)
            n = {"inner": (want["_merge"] == "both").sum(),
                 "left": len(want),
                 "semi": l.k.isin(dr.to_pandas().k).sum(),
                 "anti": (~l.k.isin(dr.to_pandas().k)).sum()}[how]
            assert len(ref) == n, how
            bcast = auto_join(dl, dr, ["k"], how=how).to_pandas()
            with force_side("agraph_ray.ops.join",
                            _BROADCAST_SIDE_BYTES=0):
                shuffled = auto_join(dl, dr, ["k"], how=how).to_pandas()
            assert rows(bcast) == rows(ref) == rows(shuffled), how
