"""cogroup_join / broadcast_join / windowing unit tests."""

import pyarrow as pa
import pytest


@pytest.fixture()
def lr(ray_session):
    import ray.data as rd
    left = rd.from_arrow(pa.table({
        "k": [1, 2, 3, 4], "lv": ["a", "b", "c", "d"]}))
    right = rd.from_arrow(pa.table({
        "k": [2, 3, 3, 5], "rv": ["x", "y", "z", "w"]}))
    return left, right


def test_inner_join(lr):
    from agraph_ray.ops.join import cogroup_join
    left, right = lr
    out = cogroup_join(left, right, on=["k"], how="inner").to_pandas()
    got = sorted(map(tuple, out[["k", "lv", "rv"]].values.tolist()))
    assert got == [(2, "b", "x"), (3, "c", "y"), (3, "c", "z")]


def test_left_join(lr):
    from agraph_ray.ops.join import cogroup_join
    left, right = lr
    out = cogroup_join(left, right, on=["k"], how="left").to_pandas()
    assert len(out) == 5   # 1,2,3x2,4
    missing = out[out["k"] == 1]
    assert missing["rv"].isna().all()


def test_semi_anti_join(lr):
    from agraph_ray.ops.join import cogroup_join
    left, right = lr
    semi = cogroup_join(left, right, on=["k"], how="semi").to_pandas()
    assert sorted(semi["k"]) == [2, 3]
    anti = cogroup_join(left, right, on=["k"], how="anti").to_pandas()
    assert sorted(anti["k"]) == [1, 4]


def test_overlap_rejected(lr):
    from agraph_ray.ops.join import cogroup_join
    left, _ = lr
    with pytest.raises(ValueError, match="overlap"):
        cogroup_join(left, left, on=["k"])


def test_broadcast_join(lr):
    from agraph_ray.ops.join import broadcast_join
    left, right = lr
    out = broadcast_join(left, right, on="k", columns=["rv"],
                         how="inner").to_pandas()
    # a repeated build key repeats its probe row, as in cogroup_join
    assert sorted(map(tuple, out[["k", "rv"]].values.tolist())) == \
        [(2, "x"), (3, "y"), (3, "z")]
    out_l = broadcast_join(left, right, on="k", columns=["rv"],
                           how="left").to_pandas()
    assert len(out_l) == 5


def test_sessionize(ray_session):
    import ray.data as rd
    from agraph_ray.ops.window import sessionize
    us = 1_000_000
    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1, 2, 2],
        "ts": pa.array([0, 10 * us, 2000 * us, 5 * us, 6 * us],
                       pa.timestamp("us")),
    }))
    out = sessionize(ds, "user_id", "ts", gap_sec=60).to_pandas()
    u1 = out[out["user_id"] == 1].sort_values("session_id")
    assert len(u1) == 2
    assert u1.iloc[0]["n_events"] == 2 and u1.iloc[1]["n_events"] == 1
    assert u1.iloc[0]["duration_sec"] == 10.0
    u2 = out[out["user_id"] == 2]
    assert len(u2) == 1 and u2.iloc[0]["n_events"] == 2


def test_tumbling_window(ray_session):
    import ray.data as rd
    from agraph_ray.ops.window import tumbling_window
    us = 1_000_000
    ds = rd.from_arrow(pa.table({
        "user_id": [1, 1, 1],
        "ts": pa.array([5 * us, 30 * us, 70 * us], pa.timestamp("us")),
        "value": [1.0, 2.0, 4.0],
    }))
    out = tumbling_window(ds, "user_id", "ts", width_sec=60,
                          agg_col="value").to_pandas()
    out = out.sort_values("window_start")
    assert len(out) == 2
    assert out.iloc[0]["sum_value"] == 3.0 and out.iloc[1]["sum_value"] == 4.0


def test_asof_join_backward_with_ties_and_unmatched(ray_session):
    import ray.data as rd
    from agraph_ray.ops.join import asof_join
    left = rd.from_items([
        {"eid": 1, "t": 10, "k": 1},
        {"eid": 2, "t": 5,  "k": 1},   # before any right row -> unmatched
        {"eid": 3, "t": 30, "k": 2},
        {"eid": 4, "t": 10, "k": 3},   # key with no right rows at all
    ])
    right = rd.from_items([
        {"rid": 100, "rt": 7,  "rk": 1, "v": 1.0},
        {"rid": 101, "rt": 7,  "rk": 1, "v": 2.0},   # tie on rt -> max rid
        {"rid": 102, "rt": 9,  "rk": 1, "v": 3.0},
        {"rid": 200, "rt": 30, "rk": 2, "v": 4.0},   # exact match allowed
    ])
    out = {r["eid"]: r for r in asof_join(
        left, right, left_on="t", right_on="rt",
        left_by="k", right_by="rk", tie_break="rid").take_all()}
    assert out[1]["rid"] == 102 and out[1]["v"] == 3.0
    assert out[2]["rid"] is None and out[2]["v"] is None
    assert out[3]["rid"] == 200
    assert out[4]["rid"] is None

    fwd = {r["eid"]: r for r in asof_join(
        left, right, left_on="t", right_on="rt",
        left_by="k", right_by="rk", tie_break="rid",
        direction="forward").take_all()}
    assert fwd[2]["rid"] == 101   # least rt >= 5 is the tie pair; max rid
    assert fwd[1]["rid"] is None  # nothing at/after t=10 for k=1


def test_grouped_quantiles_exact_rank_rule(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_quantiles
    # group a: sorted values 1..5 -> q25 idx floor(.25*4+.5)=1 -> 2
    #          q50 idx 2 -> 3, q75 idx floor(3.5)=3 -> 4
    # group b: single value
    rows = ([{"k": "a", "v": float(x)} for x in (5, 1, 3, 2, 4)]
            + [{"k": "b", "v": 9.0}])
    out = {r["k"]: r for r in grouped_quantiles(
        rd.from_items(rows), "k", "v").take_all()}
    assert (out["a"]["q25"], out["a"]["q50"], out["a"]["q75"]) == (2, 3, 4)
    assert out["a"]["n"] == 5
    assert (out["b"]["q25"], out["b"]["q50"], out["b"]["q75"]) == (9, 9, 9)
    assert out["b"]["n"] == 1


def test_sampling_deterministic(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import hash_sample, stratified_sample
    rows = [{"id": i, "grp": "ab"[i % 2]} for i in range(400)]
    ds = rd.from_items(rows)
    a = sorted(r["id"] for r in hash_sample(ds, "id", 0.3).take_all())
    b = sorted(r["id"] for r in hash_sample(ds, "id", 0.3).take_all())
    assert a == b and 60 < len(a) < 180          # ~120 expected
    sub = set(sorted(r["id"] for r in hash_sample(ds, "id", 0.1).take_all()))
    assert sub <= set(a)                          # nested fractions

    s = stratified_sample(ds, "grp", "id", 10).take_all()
    per = {}
    for r in s:
        per.setdefault(r["grp"], set()).add(r["id"])
    assert set(per) == {"a", "b"}
    assert all(len(v) == 10 for v in per.values())
    s2 = stratified_sample(ds, "grp", "id", 10).take_all()
    assert {r["id"] for r in s2} == {r["id"] for r in s}


def test_hopping_window_membership(ray_session):
    import ray.data as rd
    from agraph_ray.ops.window import hopping_window
    import datetime as dt
    base = dt.datetime(2024, 1, 1)
    # width=60min hop=30min: each event lands in exactly 2 hop-aligned
    # (epoch-aligned) windows
    ds = rd.from_items([
        {"k": 1, "ts": base + dt.timedelta(minutes=90), "v": 2.0},
        {"k": 1, "ts": base + dt.timedelta(minutes=10), "v": 1.0},
    ])
    rows = hopping_window(ds, key="k", ts_col="ts", width_sec=3600,
                          hop_sec=1800, agg_col="v").take_all()
    # t=10min -> windows [-30, 30) and [0, 60) rel. midnight;
    # t=90min -> windows [60, 120) and [90, 150)
    epoch0 = min(r["window_start"] for r in rows)   # the -30-minute window
    wins = {(r["window_start"] - epoch0) // 60_000_000: (r["n"], r["sum_v"])
            for r in rows}
    assert wins == {0: (1, 1.0), 30: (1, 1.0), 90: (1, 2.0), 120: (1, 2.0)}


def test_rolling_range_agg_peers_and_bounds(ray_session):
    import ray.data as rd
    from agraph_ray.ops.window import rolling_range_agg
    # key 1: ts 0, 50, 100, 100 (peers), 161 with range 100 (sec->us via
    # int64 ts? use raw int64 ts col)  -- feed int64 microsecond ts
    rows = [
        {"id": 1, "k": 1, "ts": 0, "v": 1.0},
        {"id": 2, "k": 1, "ts": 50_000_000, "v": 2.0},
        {"id": 3, "k": 1, "ts": 100_000_000, "v": 4.0},
        {"id": 4, "k": 1, "ts": 100_000_000, "v": 8.0},   # ts peer of id 3
        {"id": 5, "k": 1, "ts": 161_000_000, "v": 16.0},  # 0 falls out
        {"id": 6, "k": 2, "ts": 100_000_000, "v": 32.0},  # other key
    ]
    out = rolling_range_agg(rd.from_items(rows), key="k", ts_col="ts",
                            value_col="v", range_sec=100, id_col="id")
    got = {r["id"]: (r["roll_n"], r["roll_sum"]) for r in out.take_all()}
    # RANGE semantics: peers included both ends; window = [ts-100s, ts]
    assert got == {1: (1, 1.0), 2: (2, 3.0),
                   3: (4, 15.0), 4: (4, 15.0),   # both peers see 1+2+4+8
                   5: (3, 28.0),                 # [61s,161s]: 100,100,161
                   6: (1, 32.0)}


def test_lag_delta_first_and_ties(ray_session):
    import ray.data as rd
    from agraph_ray.ops.window import lag_delta
    rows = [
        {"id": 11, "k": 1, "ts": 500},
        {"id": 10, "k": 1, "ts": 500},   # tie -> ordered by id
        {"id": 12, "k": 1, "ts": 900},
        {"id": 20, "k": 2, "ts": 700},
    ]
    out = lag_delta(rd.from_items(rows), key="k", ts_col="ts", id_col="id")
    got = {r["id"]: r["delta_us"] for r in out.take_all()}
    assert got == {10: -1, 11: 0, 12: 400, 20: -1}


def test_pivot_counts_zero_fill(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import pivot_counts
    rows = [
        {"k": 1, "c": "x", "v": 1.0},
        {"k": 1, "c": "x", "v": 2.0},
        {"k": 1, "c": "y", "v": 4.0},
        {"k": 2, "c": "y", "v": 8.0},
        {"k": 2, "c": "zzz", "v": 99.0},   # not in category list: dropped
    ]
    out = pivot_counts(rd.from_items(rows), key="k", pivot_col="c",
                       categories=["x", "y", "z"], value_col="v")
    got = {r["k"]: r for r in out.take_all()}
    assert (got[1]["n_x"], got[1]["n_y"], got[1]["n_z"]) == (2, 1, 0)
    assert (got[1]["sum_x"], got[1]["sum_y"], got[1]["sum_z"]) == (3.0, 4.0, 0.0)
    assert (got[2]["n_x"], got[2]["n_y"], got[2]["n_z"]) == (0, 1, 0)
    assert got[2]["sum_y"] == 8.0


def test_range_join_inclusive_bounds(ray_session):
    import ray.data as rd
    from agraph_ray.ops.join import range_join
    left = rd.from_items([
        {"lk": 1, "lts": 1000, "lid": 1},
        {"lk": 2, "lts": 1000, "lid": 2},   # key with no right rows
    ])
    right = rd.from_items([
        {"rk": 1, "rts": 900, "rid": 10},    # == lts - before: included
        {"rk": 1, "rts": 899, "rid": 11},    # just outside
        {"rk": 1, "rts": 1050, "rid": 12},   # == lts + after: included
        {"rk": 1, "rts": 1051, "rid": 13},   # just outside
        {"rk": 3, "rts": 1000, "rid": 14},   # other key
    ])
    out = range_join(left, right, left_by="lk", right_by="rk",
                     left_on="lts", right_on="rts",
                     before_us=100, after_us=50)
    rows = out.take_all()
    assert {(r["lid"], r["rid"]) for r in rows} == {(1, 10), (1, 12)}


def test_exact_quantiles_radix(ray_session):
    import numpy as np
    import ray.data as rd
    from agraph_ray.ops.stats import exact_quantiles

    rng = np.random.default_rng(7)
    vals = np.concatenate([rng.normal(0, 100, 5000),
                           np.full(500, -3.25),      # heavy duplicates
                           np.array([-1e300, 1e300, 0.0, -0.0])])
    ds = rd.from_arrow(__import__("pyarrow").table({"v": vals}))
    qs = (0.0, 0.25, 0.5, 0.75, 1.0)
    got = exact_quantiles(ds, "v", qs=qs)
    srt = np.sort(vals)
    for q, v in zip(got["q"], got["value"]):
        idx = int(np.floor(q * (len(vals) - 1) + 0.5))
        assert v == srt[idx], (q, v, srt[idx])

    one = exact_quantiles(rd.from_items([{"v": 42.5}]), "v", qs=(0.5,))
    assert list(one["value"]) == [42.5]


def test_grouped_count_distinct(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_count_distinct

    rows = ([{"k": 1, "v": x} for x in "aabbc"]
            + [{"k": 2, "v": x} for x in "zz"])
    out = {r["k"]: r["n_distinct"] for r in grouped_count_distinct(
        rd.from_items(rows), "k", "v").take_all()}
    assert out == {1: 3, 2: 1}


def test_full_and_right_join(lr):
    from agraph_ray.ops.join import cogroup_join
    left, right = lr
    full = cogroup_join(left, right, on=["k"], how="full").to_pandas()
    # 1,4 left-only; 2,3x2 matched; 5 right-only
    assert len(full) == 6
    assert full[full["k"] == 5]["lv"].isna().all()
    assert full[full["k"] == 1]["rv"].isna().all()
    # int key survives as an integer dtype despite the NULL-bearing rows
    assert str(full["k"].dtype).lower().startswith("int")
    assert sorted(full["k"].tolist()) == [1, 2, 3, 3, 4, 5]
    rj = cogroup_join(left, right, on=["k"], how="right").to_pandas()
    assert sorted(rj["k"].tolist()) == [2, 3, 3, 5]
    assert rj[rj["k"] == 5]["lv"].isna().all()


def test_running_agg_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import running_agg
    rng = np.random.default_rng(7)
    n = 500
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 20, n),
        "ts": pd.to_datetime(rng.integers(0, 10**6, n), unit="s"),
        "value": rng.normal(size=n)})
    out = (running_agg(rd.from_pandas(df), key="user_id", ts_col="ts",
                       id_col="event_id", value_col="value")
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    ref = df.sort_values(["user_id", "ts", "event_id"])
    g = ref.groupby("user_id", sort=False)
    ref = ref.assign(row_num=g.cumcount() + 1,
                     run_min=g["value"].cummin(),
                     run_max=g["value"].cummax())
    ref = ref.sort_values("event_id").reset_index(drop=True)
    assert (out["row_num"] == ref["row_num"]).all()
    assert np.allclose(out["run_min"], ref["run_min"])
    assert np.allclose(out["run_max"], ref["run_max"])


def test_rollup_agg_levels(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import rollup_agg
    df = pd.DataFrame({
        "a": ["x", "x", "y", "y", "y"],
        "b": ["p", "q", "p", "p", "q"],
        "v": [1, 2, 3, 4, 5]})
    out = rollup_agg(rd.from_pandas(df), ["a", "b"],
                     value_col="v").to_pandas()
    # 4 finest groups + 2 level-(a) rows + 1 grand total
    assert len(out) == 7
    grand = out[out["a"].isna() & out["b"].isna()]
    assert grand["cnt"].iloc[0] == 5 and grand["sum_v"].iloc[0] == 15
    lvl_a = out[out["a"].notna() & out["b"].isna()].set_index("a")
    assert lvl_a.loc["x", "cnt"] == 2 and lvl_a.loc["x", "sum_v"] == 3
    assert lvl_a.loc["y", "cnt"] == 3 and lvl_a.loc["y", "sum_v"] == 12
    finest = out[out["b"].notna()].set_index(["a", "b"])
    assert finest.loc[("y", "p"), "sum_v"] == 7


def test_cube_agg_all_grouping_sets(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import cube_agg
    df = pd.DataFrame({
        "a": ["x", "x", "y", "y", "y"],
        "b": ["p", "q", "p", "p", "q"],
        "v": [1, 2, 3, 4, 5]})
    out = cube_agg(rd.from_pandas(df), ["a", "b"], value_col="v").to_pandas()
    # 4 finest + 2 (a) + 2 (b) + 1 grand = 9 rows
    assert len(out) == 9
    lvl_b = out[out["a"].isna() & out["b"].notna()].set_index("b")
    assert lvl_b.loc["p", "cnt"] == 3 and lvl_b.loc["p", "sum_v"] == 8
    assert lvl_b.loc["q", "cnt"] == 2 and lvl_b.loc["q", "sum_v"] == 7
    grand = out[out["a"].isna() & out["b"].isna()]
    assert grand["cnt"].iloc[0] == 5 and grand["sum_v"].iloc[0] == 15


def test_ranked_agg_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import ranked_agg
    rng = np.random.default_rng(11)
    n = 400
    df = pd.DataFrame({
        "event_id": np.arange(n),
        "user_id": rng.integers(0, 13, n),
        # few distinct values -> plenty of rank ties
        "value": rng.integers(0, 9, n).astype("int64")})
    out = (ranked_agg(rd.from_pandas(df), key="user_id", value_col="value",
                      id_col="event_id", ntiles=4)
           .to_pandas().sort_values("event_id").reset_index(drop=True))
    ref = df.sort_values(["user_id", "value", "event_id"])
    g = ref.groupby("user_id", sort=False)
    nn = g["value"].transform("size")
    rmin = g["value"].rank(method="min")
    ref = ref.assign(
        rnk=rmin.astype("int64"),
        dense_rnk=g["value"].rank(method="dense").astype("int64"),
        pct_rank=np.where(nn > 1, (rmin - 1) / (nn - 1).clip(lower=1), 0.0),
        cume_dist=g["value"].rank(method="max") / nn,
    ).sort_values("event_id").reset_index(drop=True)
    for c in ["rnk", "dense_rnk"]:
        assert (out[c] == ref[c]).all(), c
    for c in ["pct_rank", "cume_dist"]:
        assert np.allclose(out[c], ref[c]), c
    # ntile: per user tiles are 1..4, sizes differ by at most one and are
    # non-increasing in tile order
    for _, grp in out.groupby("user_id"):
        sizes = grp["tile"].value_counts().sort_index()
        assert sizes.index.min() == 1
        assert sizes.max() - sizes.min() <= 1
        assert (sizes.diff().dropna() <= 0).all()


def test_histogram_counts(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import histogram
    rng = np.random.default_rng(3)
    v = np.concatenate([rng.uniform(0, 100, 3000), [-5.0, 105.0]])
    out = (histogram(rd.from_pandas(pd.DataFrame({"v": v})), "v",
                     lo=0.0, hi=100.0, nbins=10)
           .to_pandas().sort_values("bin").reset_index(drop=True))
    ref = np.bincount(np.clip((v // 10).astype(int), 0, 9), minlength=10)
    assert out["cnt"].sum() == len(v)
    assert (out["cnt"].to_numpy() == ref[out["bin"].to_numpy()]).all()
    assert np.allclose(out["bin_lo"], out["bin"] * 10.0)


def test_funnel_depths_strict_order(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import funnel_depths
    T = 1_700_000_000
    df = pd.DataFrame([
        # u1: full ordered funnel
        (1, "view", T + 1), (1, "click", T + 2), (1, "purchase", T + 3),
        # u2: click BEFORE view → click doesn't count; depth 1
        (2, "click", T + 1), (2, "view", T + 2),
        # u3: click at the SAME ts as view → strictly-after fails; depth 1
        (3, "view", T + 5), (3, "click", T + 5),
        # u4: view then purchase (skips click) → depth 1
        (4, "view", T + 1), (4, "purchase", T + 2),
        # u5: only non-stage events → absent from output
        (5, "error", T + 1),
    ], columns=["user_id", "event_type", "ts"])
    df["ts"] = pd.to_datetime(df["ts"], unit="s")
    out = (funnel_depths(rd.from_pandas(df).repartition(3), "user_id",
                         "ts", "event_type",
                         ["view", "click", "purchase"])
           .to_pandas().set_index("user_id").sort_index())
    assert out.loc[1, "depth"] == 3
    assert out.loc[2, "depth"] == 1
    assert out.loc[3, "depth"] == 1
    assert out.loc[4, "depth"] == 1
    assert 5 not in out.index
    assert out.loc[2, "stage1_us"] == -1
    assert out.loc[1, "stage2_us"] == (T + 3) * 1_000_000


def test_grouped_ewma_matches_pandas(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import grouped_ewma
    rng = np.random.default_rng(21)
    n = 300
    df = pd.DataFrame({
        "k": rng.integers(0, 7, n),
        "ts": rng.choice(np.arange(10_000, dtype=np.int64) * 1_000_000,
                         n, replace=False),
        "v": rng.normal(size=n)})
    out = grouped_ewma(rd.from_pandas(df).repartition(4), "k", "ts", "v",
                       alpha=0.4).to_pandas() \
        .sort_values(["k", "ts"]).reset_index(drop=True)
    ref = df.sort_values(["k", "ts"]).reset_index(drop=True)
    ref["ewma"] = ref.groupby("k")["v"].transform(
        lambda s: s.ewm(alpha=0.4, adjust=False).mean())
    assert np.allclose(out["ewma"], ref["ewma"], atol=1e-12)
    assert (out["k"] == ref["k"]).all()


def test_grouped_quantiles_cont_matches_numpy(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_quantiles_cont
    rng = np.random.default_rng(31)
    df = pd.DataFrame({"g": rng.integers(0, 4, 300).astype("int64"),
                       "v": rng.uniform(-5, 5, 300)})
    out = {r["g"]: r for r in grouped_quantiles_cont(
        rd.from_pandas(df).repartition(3), "g", "v").take_all()}
    for g, sub in df.groupby("g"):
        for q, c in ((0.25, "q25"), (0.5, "q50"), (0.75, "q75")):
            # numpy 'linear' interpolation == SQL quantile_cont
            assert out[g][c] == pytest.approx(
                np.quantile(sub["v"], q), abs=1e-12)
        assert out[g]["n"] == len(sub)


def test_sample_n_exact_and_deterministic(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import sample_n, _key_hash32
    df = pd.DataFrame({"k": np.arange(500), "v": np.arange(500) * 2})
    got = sample_n(rd.from_pandas(df).repartition(5), "k", 10).to_pandas()
    h = _key_hash32([str(x) for x in df["k"]])
    exp = df.assign(h=h.astype(np.int64)).sort_values(["h", "k"]).head(10)
    assert sorted(got["k"]) == sorted(exp["k"])
    got2 = sample_n(rd.from_pandas(df), "k", 10).to_pandas()
    assert sorted(got2["k"]) == sorted(got["k"])


def test_cohort_retention_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import cohort_retention
    week = 7 * 24 * 3600 * 1_000_000
    rows = [  # (user, week_index)
        (1, 0), (1, 0), (1, 1), (2, 0), (2, 2), (3, 1), (3, 2)]
    df = pd.DataFrame({
        "u": [u for u, _ in rows],
        "ts": pd.to_datetime([(w * week + 1000) // 1_000_000
                              for _, w in rows], unit="s")})
    out = cohort_retention(rd.from_pandas(df), "u", "ts").to_pandas()
    got = {(r.cohort_w, r.w): r.n_users for r in out.itertuples()}
    assert got == {(0, 0): 2, (0, 1): 1, (0, 2): 1, (1, 1): 1, (1, 2): 1}


def test_event_transitions_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import event_transitions
    df = pd.DataFrame({
        "u": [1, 1, 1, 2, 2],
        "ts": pd.to_datetime([1, 2, 3, 1, 2], unit="s"),
        "t": ["view", "click", "buy", "view", "view"],
        "eid": [1, 2, 3, 4, 5]})
    out = event_transitions(rd.from_pandas(df).repartition(2),
                            "u", "ts", "t", "eid").to_pandas()
    got = {(r.from_type, r.to_type): r.cnt for r in out.itertuples()}
    assert got == {("view", "click"): 1, ("click", "buy"): 1,
                   ("view", "view"): 1}


def test_linear_attribution_hand_computed(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import linear_attribution
    # user 1: view, click, PURCHASE, view (dangling)
    # user 2: view, PURCHASE, click, PURCHASE
    df = pd.DataFrame({
        "u":  [1, 1, 1, 1, 2, 2, 2, 2],
        "ts": pd.to_datetime([1, 2, 3, 4, 1, 2, 3, 4], unit="s"),
        "eid": range(8),
        "t": ["view", "click", "purchase", "view",
              "view", "purchase", "click", "purchase"]})
    out = linear_attribution(rd.from_pandas(df).repartition(3), "u", "ts",
                             "eid", "t", ["view", "click"]).to_pandas()
    got = {r.event_type: (r.n_touches, round(r.credit, 9))
           for r in out.itertuples()}
    # u1 purchase: view+click split 0.5 each; u1 trailing view dangles
    # u2 purchase#1: view alone (1.0); purchase#2: click alone (1.0)
    assert got == {"view": (2, 1.5), "click": (2, 1.5)}


def test_late_events_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.window import late_events
    # arrival order (seq): event times in seconds
    #   seq 0: t=100   first arrival, never late, watermark = sentinel
    #   seq 1: t=200   wm=100 → on time
    #   seq 2: t=150   wm=200, lag 50s ≤ 60s → on time
    #   seq 3: t=130   wm=200, lag 70s > 60s → LATE
    #   seq 4: t=300   wm=200 → on time
    #   seq 5: t=100   wm=300, lag 200s → LATE
    df = pd.DataFrame({
        "seq": [0, 1, 2, 3, 4, 5],
        "ts": pd.to_datetime([100, 200, 150, 130, 300, 100], unit="s")})
    out = (late_events(rd.from_pandas(df).repartition(3), "ts", "seq",
                       lateness_sec=60)
           .to_pandas().sort_values("seq").reset_index(drop=True))
    assert out["late"].tolist() == [False, False, False, True, False, True]
    NEG = -(2 ** 63)
    assert out["watermark_us"].tolist() == [
        NEG, 100_000_000, 200_000_000, 200_000_000, 200_000_000,
        300_000_000]
