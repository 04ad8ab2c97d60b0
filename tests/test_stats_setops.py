"""grouped_corr / grouped_mode / grouped_entropy / group_concat and the
relational set operators (intersect/except)."""

import math

import numpy as np
import pyarrow as pa
import pytest


@pytest.fixture()
def xy(ray_session):
    import ray.data as rd
    rng = np.random.RandomState(7)
    n = 500
    g = np.where(np.arange(n) % 2 == 0, "a", "b")
    x = rng.uniform(0, 10, n)
    y = np.where(g == "a", 3.0 * x + 1.0, -2.0 * x + 5.0) \
        + rng.normal(0, 0.5, n)
    return rd.from_arrow(pa.table({"g": g, "x": x, "y": y})), g, x, y


def test_grouped_corr_matches_numpy(xy):
    from agraph_ray.ops.stats import grouped_corr
    ds, g, x, y = xy
    out = {r["g"]: r for r in grouped_corr(ds, "g", "x", "y").take_all()}
    for grp in ("a", "b"):
        m = g == grp
        assert out[grp]["n"] == int(m.sum())
        assert out[grp]["corr"] == pytest.approx(
            np.corrcoef(x[m], y[m])[0, 1], abs=1e-9)
        slope, intercept = np.polyfit(x[m], y[m], 1)
        assert out[grp]["slope"] == pytest.approx(slope, abs=1e-9)
        assert out[grp]["intercept"] == pytest.approx(intercept, abs=1e-9)


def test_grouped_corr_degenerate(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_corr
    # constant x → zero variance → corr/slope pinned to 0, not NaN
    ds = rd.from_arrow(pa.table({"g": ["c"] * 4, "x": [1.0] * 4,
                                 "y": [1.0, 2.0, 3.0, 4.0]}))
    r = grouped_corr(ds, "g", "x", "y").take_all()[0]
    assert r["corr"] == 0.0 and r["slope"] == 0.0


def test_grouped_mode_tiebreak(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_mode
    ds = rd.from_arrow(pa.table({
        "k": [1, 1, 1, 1, 2, 2, 2],
        "v": ["b", "a", "b", "a", "z", "y", "z"]}))
    out = {r["k"]: r for r in grouped_mode(ds, "k", "v").take_all()}
    assert out[1]["mode_value"] == "a" and out[1]["cnt"] == 2  # tie → min
    assert out[2]["mode_value"] == "z" and out[2]["cnt"] == 2


def test_grouped_entropy(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_entropy
    ds = rd.from_arrow(pa.table({
        "k": [1] * 4 + [2] * 4 + [3] * 3,
        "v": ["a", "b", "a", "b",          # uniform over 2 → 1 bit
              "a", "a", "a", "a",          # degenerate → 0 bits
              "a", "b", "c"]}))            # uniform over 3 → log2(3)
    out = {r["k"]: r["entropy"] for r in
           grouped_entropy(ds, "k", "v").take_all()}
    assert out[1] == pytest.approx(1.0)
    assert out[2] == pytest.approx(0.0)
    assert out[3] == pytest.approx(math.log2(3))


def test_group_concat_ordered(ray_session):
    import ray.data as rd
    from agraph_ray.ops.stats import group_concat
    ds = rd.from_arrow(pa.table({
        "k": [1, 1, 1, 2],
        "v": ["c", "a", "b", "x"],
        "o": [3, 1, 2, 1]}))
    out = {r["k"]: r["concat"] for r in
           group_concat(ds, "k", "v", order_col="o").take_all()}
    assert out == {1: "a,b,c", 2: "x"}
    # value-as-order (dedup'd column list) also works
    out2 = {r["k"]: r["concat"] for r in
            group_concat(ds, "k", "v", order_col="v").take_all()}
    assert out2 == {1: "a,b,c", 2: "x"}


@pytest.fixture()
def ab(ray_session):
    import ray.data as rd
    a = rd.from_arrow(pa.table({"u": [1, 1, 2, 3], "w": ["p", "p", "q", "r"]}))
    b = rd.from_arrow(pa.table({"u": [2, 4], "w": ["q", "s"]}))
    return a, b


def test_intersect_except(ab):
    from agraph_ray.ops.setops import except_distinct, intersect_distinct
    a, b = ab
    inter = sorted(map(tuple, intersect_distinct(a, b).to_pandas().values))
    assert inter == [(2, "q")]
    ex = sorted(map(tuple, except_distinct(a, b).to_pandas().values))
    assert ex == [(1, "p"), (3, "r")]        # distinct semantics: (1,p) once
    ex_b = sorted(map(tuple, except_distinct(b, a).to_pandas().values))
    assert ex_b == [(4, "s")]


def test_setops_schema_mismatch(ab):
    import ray.data as rd
    from agraph_ray.ops.setops import intersect_distinct
    a, _ = ab
    c = rd.from_arrow(pa.table({"u": [1]}))
    with pytest.raises(ValueError):
        intersect_distinct(a, c)


def test_winsorize_rank_rule(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.stats import winsorize
    rng = np.random.RandomState(11)
    v = rng.uniform(-100, 100, 400)
    ds = rd.from_arrow(pa.table({"id": np.arange(400), "v": v}))
    out = winsorize(ds, "v", 0.1, 0.9).to_pandas().sort_values("id")
    sv = np.sort(v)
    lo = sv[int(np.floor(0.1 * 399 + 0.5))]
    hi = sv[int(np.floor(0.9 * 399 + 0.5))]
    assert np.allclose(out["w"].to_numpy(), np.clip(v, lo, hi))
    assert out["w"].min() == lo and out["w"].max() == hi


def test_table_diff(ab):
    from agraph_ray.ops.setops import table_diff
    a, b = ab
    got = sorted(map(tuple, table_diff(a, b).to_pandas().values))
    assert got == [(1, "p", "removed"), (3, "r", "removed"),
                   (4, "s", "added")]


def test_profile_table(ray_session):
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.stats import profile_table
    ds = rd.from_arrow(pa.table({
        "x": pa.array([1.0, 2.0, None, 4.0], pa.float64()),
        "s": pa.array(["b", None, "a", "c"], pa.string()),
        "l": pa.array([[1], [2], [3], [4]],
                      pa.list_(pa.int64()))})).repartition(2)
    rows = {r["column"]: r for r in profile_table(ds).take_all()}
    x = rows["x"]
    assert (x["n"], x["nulls"]) == (4, 1)
    assert (x["min_v"], x["max_v"]) == (1.0, 4.0)
    assert x["mean_v"] == pytest.approx(7.0 / 3)
    s = rows["s"]
    assert (s["nulls"], s["min_s"], s["max_s"]) == (1, "a", "c")
    assert s["min_v"] is None or np.isnan(s["min_v"])
    lcol = rows["l"]          # non-scalar type → counts only
    assert lcol["n"] == 4 and lcol["min_s"] is None


def test_upsert_latest_semantics(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.setops import upsert_latest
    base = pd.DataFrame({"k": [1, 2, 3], "v": ["a", "b", "c"],
                         "version": [0, 0, 0]})
    upd = pd.DataFrame({"k": [2, 4, 2], "v": ["B2", "D", "B1"],
                        "version": [2, 1, 1]})
    out = upsert_latest(rd.from_pandas(base), rd.from_pandas(upd),
                        ["k"], "version").to_pandas() \
        .sort_values("k").reset_index(drop=True)
    # k=1,3 pass through; k=2 takes the highest-version update; k=4 inserts
    assert list(out["k"]) == [1, 2, 3, 4]
    assert list(out["v"]) == ["a", "B2", "c", "D"]
    assert list(out["version"]) == [0, 2, 0, 1]


def test_upsert_latest_tie_updates_win(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.setops import upsert_latest
    base = pd.DataFrame({"k": [1], "v": ["old"], "version": [5]})
    upd = pd.DataFrame({"k": [1], "v": ["new"], "version": [5]})
    out = upsert_latest(rd.from_pandas(base), rd.from_pandas(upd),
                        ["k"], "version").to_pandas()
    assert list(out["v"]) == ["new"]


def test_table_checksum_order_and_partition_invariant(ray_session):
    import hashlib
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.setops import table_checksum
    import pyarrow as pa
    t = pa.table({"a": pa.array([1, 2, 3, None], pa.int64()),
                  "c": pa.array(["x", "y", None, "z"], pa.string())})
    p = 1_000_000_007
    exp = sum(
        int(hashlib.md5(f"{'' if a is None else a}|"
                        f"{'' if c is None else c}"
                        .encode()).hexdigest()[:15], 16) % p
        for a, c in zip(t["a"].to_pylist(), t["c"].to_pylist())) % p
    rev = t.take(pa.array([3, 2, 1, 0]))
    for ds in (rd.from_arrow(t), rd.from_arrow(t).repartition(3),
               rd.from_arrow(rev)):
        out = table_checksum(ds, ["a", "c"]).to_pandas()
        assert out.loc[0, "n_rows"] == 4
        assert out.loc[0, "checksum"] == exp


def test_table_checksum_rejects_float_columns(ray_session):
    import pandas as pd
    import pytest
    import ray.data as rd
    from agraph_ray.ops.setops import table_checksum
    ds = rd.from_pandas(pd.DataFrame({"a": [1.5]}))
    with pytest.raises(ValueError):
        table_checksum(ds, ["a"])


def test_explode_collect_list_roundtrip(ray_session):
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.stats import explode, collect_list
    t = pa.table({"k": pa.array([10, 11, 12], pa.int64()),
                  "vals": pa.array([[1.0, 2.0], [], [5.0, 6.0, 7.0]],
                                   pa.list_(pa.float64()))})
    ex = explode(rd.from_arrow(t), "vals", ["k"]).to_pandas()
    assert len(ex) == 5
    assert list(ex.sort_values(["k", "pos"])["value"]) == \
        [1.0, 2.0, 5.0, 6.0, 7.0]
    back = collect_list(explode(rd.from_arrow(t), "vals", ["k"]),
                        "k", "pos", "value").to_pandas()
    back = back.sort_values("k").reset_index(drop=True)
    # empty list rows have no exploded rows, so only k=10,12 come back
    assert list(back["k"]) == [10, 12]
    assert [list(v) for v in back["values"]] == [[1.0, 2.0],
                                                 [5.0, 6.0, 7.0]]


def test_grouped_quantile_radix_equals_cogrouped(ray_session):
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import (grouped_quantile_radix,
                                      grouped_quantiles)
    rng = np.random.default_rng(43)
    df = pd.DataFrame({"g": rng.integers(0, 5, 800).astype("int64"),
                       "v": np.round(rng.uniform(-50, 50, 800), 3)})
    rad = grouped_quantile_radix(rd.from_pandas(df).repartition(4),
                                 "g", "v", q=0.5).set_index("g")
    cog = {r["g"]: r for r in grouped_quantiles(
        rd.from_pandas(df), "g", "v", qs=(0.5,)).take_all()}
    for g in sorted(df["g"].unique()):
        assert rad.loc[g, "q_value"] == cog[g]["q50"], g
        assert rad.loc[g, "n"] == cog[g]["n"]
    # negative values and duplicated values exercised by construction
    neg = pd.DataFrame({"g": [0] * 6, "v": [-1.5, -1.5, -1.5, 2.0,
                                            2.0, 7.25]})
    r2 = grouped_quantile_radix(rd.from_pandas(neg), "g", "v", q=0.5)
    # rank index floor(0.5*(6-1)+0.5) = 3 → sorted[3] = 2.0
    assert r2.loc[0, "q_value"] == 2.0


def test_validate_expectations_detects_violations(ray_session):
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.stats import validate_expectations
    t = pa.table({"a": pa.array([1, None, 3, 3], pa.int64()),
                  "s": pa.array(["x1", "x2", "bad", "x4"], pa.string())})
    out = validate_expectations(rd.from_arrow(t).repartition(2), [
        {"type": "not_null", "col": "a"},
        {"type": "in_range", "col": "a", "lo": 1, "hi": 2},
        {"type": "matches", "col": "s", "pattern": "^x"},
        {"type": "unique", "col": "a"},
    ]).set_index("rule")
    assert out.loc["not_null", "n_violations"] == 1
    assert not out.loc["not_null", "passed"]
    # in_range: 3 and 3 violate; NULL comparisons are not ok -> violation
    assert out.loc["in_range", "n_violations"] == 3
    assert out.loc["matches", "n_violations"] == 1
    assert out.loc["unique", "n_violations"] == 1
    assert out["n_checked"].tolist() == [4, 4, 4, 4]


def test_grouped_zscore_join_path_equals_broadcast(ray_session, force_side):
    """Both placements of the stats join give the same z; a null group is
    its own group (DuckDB's PARTITION BY g keeps it), here with z = 0."""
    import numpy as np
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_zscore
    rng = np.random.default_rng(51)
    df = pd.DataFrame({"g": rng.integers(0, 6, 200).astype("int64"),
                       "v": rng.normal(size=200)})
    nulls = pd.DataFrame({"g": ["x", "x", None, "y", "y"],
                          "v": [1.0, 3.0, 5.0, 2.0, 2.0]})

    def run(frame):
        return grouped_zscore(rd.from_pandas(frame), "g", "v").to_pandas() \
            .sort_values(["v", "g"]).reset_index(drop=True)

    b, bn = run(df), run(nulls)
    with force_side("agraph_ray.ops.join", _BROADCAST_SIDE_BYTES=0):
        j, jn = run(df), run(nulls)
    assert np.allclose(b["z"], j["z"], atol=1e-12)
    assert (b["g"] == j["g"]).all()
    for got in (bn, jn):
        assert got["v"].tolist() == [1.0, 2.0, 2.0, 3.0, 5.0]
        assert got["g"].tolist()[:4] == ["x", "y", "y", "x"]
        assert got["g"].isna().tolist() == [False] * 4 + [True]
        assert np.allclose(got["z"], [-1.0, 0.0, 0.0, 1.0, 0.0])


def test_scd2_apply_hand_computed(ray_session):
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.setops import OPEN_SENTINEL, scd2_apply
    hist = pd.DataFrame({
        "k": [1, 1, 2],
        "v": ["a0", "a1", "b0"],
        "valid_from": [0, 10, 0],
        "valid_to": [10, OPEN_SENTINEL, OPEN_SENTINEL]})
    upd = pd.DataFrame({"k": [1, 1, 3], "v": ["a2", "a3", "c0"],
                        "ts": [20, 30, 5]})
    out = scd2_apply(rd.from_pandas(hist), rd.from_pandas(upd),
                     ["k"], "ts").to_pandas() \
        .sort_values(["k", "valid_from"]).reset_index(drop=True)
    rows = list(map(tuple, out[["k", "v", "valid_from",
                                "valid_to"]].values))
    assert rows == [
        (1, "a0", 0, 10),               # closed row untouched
        (1, "a1", 10, 20),              # open row closed at first update
        (1, "a2", 20, 30),              # update chain
        (1, "a3", 30, OPEN_SENTINEL),   # newest stays open
        (2, "b0", 0, OPEN_SENTINEL),    # no updates -> untouched
        (3, "c0", 5, OPEN_SENTINEL),    # brand-new key inserts open
    ]
