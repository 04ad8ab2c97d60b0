"""Driver contract for the agraph_ray engine.

``entry()`` — flagship KG pipeline on sf0.001-derived transcripts.
``queries()`` — one callable per implemented operator/pipeline (SURVEY.md §2
plus the training-data ops); each takes ``sf_dir`` and returns a Dataset /
pandas DataFrame / pyarrow Table.
``oracle_sql()`` — DuckDB-equivalent SQL for every SQL-expressible query
(same column names; floats rounded identically on both sides). Queries
whose semantics are not SQL-expressible (regex KG extraction, LSH/minhash,
simhash, media actors) intentionally have no oracle → rows-only check.

Ray is initialised by the driver before import; nothing here calls
ray.init()/ray.shutdown().
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import pyarrow.compute as pc

from agraph_ray.sources import sized_read_parquet as _sized_read


def _quiet():
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False


def _pandas_safe(ds, schema=None):
    """Dataset → pandas, preserving column names/dtypes when the result
    is legitimately EMPTY: Ray's ``to_pandas`` returns a zero-column
    frame when every block is empty (even though ``ds.schema()`` still
    knows the columns), which fails the driver's column-name compare.
    Only used by queries whose correct answer can be 0 rows (set ops,
    strict filter chains) — caught by the sf0.1 sweep. ``schema`` is the
    explicit fallback for chains whose lazy schema can't be inferred."""
    import pyarrow as pa

    df = ds.to_pandas()
    if len(df.columns) > 0:
        return df
    if schema is not None:
        return schema.empty_table().to_pandas()
    sch = ds.schema()
    if sch is None:
        return df
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base.empty_table().to_pandas()
    py_map = {str: pa.string(), int: pa.int64(),
              float: pa.float64(), bool: pa.bool_()}
    fields = [(n, t if isinstance(t, pa.DataType) else
               py_map.get(t, pa.string()))
              for n, t in zip(sch.names, sch.types)]
    return pa.schema(fields).empty_table().to_pandas()


def _scale_cols(ds, spec):
    """Turn float columns into scaled BIGINTs via floor(x*f + 0.5) — an
    explicit half-up rule identical to the oracle's
    CAST(floor(x*f + 0.5) AS BIGINT), immune to float-repr hashing drift
    (half-even vs half-away ROUND differs between engines)."""
    import pyarrow as pa

    def _r(t: "pa.Table") -> "pa.Table":
        for col, factor in spec.items():
            i = t.schema.get_field_index(col)
            v = pc.cast(t[col], pa.float64())
            scaled = pc.floor(pc.add(pc.multiply(v, float(factor)), 0.5))
            t = t.set_column(i, col, pc.cast(scaled, pa.int64()))
        return t

    return ds.map_batches(_r, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# relational / aggregate queries (TPC-H-ish tables)
# ---------------------------------------------------------------------------

def q_lineitem_agg(sf_dir: str):
    """Grouped aggregate with per-batch partial pre-aggregation."""
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Sum

    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_linestatus",
                                  "l_quantity", "l_extendedprice"])

    def partial(t):
        g = t.group_by(["l_returnflag", "l_linestatus"]).aggregate(
            [("l_quantity", "sum"), ("l_extendedprice", "sum"),
             ("l_quantity", "max"), ("l_quantity", "count")])
        return g.rename_columns(["l_returnflag", "l_linestatus",
                                 "p_qty", "p_price", "p_maxq", "p_n"])

    out = (ds.map_batches(partial, batch_format="pyarrow")
           .groupby(["l_returnflag", "l_linestatus"])
           .aggregate(Sum("p_qty", alias_name="sum_qty"),
                      Sum("p_price", alias_name="sum_price"),
                      Max("p_maxq", alias_name="max_qty"),
                      Sum("p_n", alias_name="n")))
    return _scale_cols(out, {"sum_qty": 100, "sum_price": 100, "max_qty": 100})


def q_orders_by_segment(sf_dir: str):
    """Dim ⋈ fact join + aggregate: broadcast (ray.put dict) while the dim
    fits comfortably on the driver, bucketed cogroup_join above that.

    The 5M-row threshold ≈ 300 MB as a python dict — safely inside one
    worker heap; past it a broadcast stops being the cheap side and the
    shuffle join wins (customer at 100x testdata scale is ~15M rows)."""
    import pyarrow as pa
    import ray
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    cust_ds = _sized_read(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey", "c_mktsegment"])
    orders = _sized_read(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_totalprice"])

    if cust_ds.count() <= 5_000_000:
        cust = cust_ds.to_pandas()
        seg_ref = ray.put(dict(zip(cust["c_custkey"], cust["c_mktsegment"])))

        def add_seg(t: "pa.Table") -> "pa.Table":
            m = ray.get(seg_ref)
            seg = [m.get(k) for k in t["o_custkey"].to_pylist()]
            return t.append_column("c_mktsegment", pa.array(seg, pa.string()))

        joined = orders.map_batches(add_seg, batch_format="pyarrow")
    else:
        from agraph_ray.ops.join import cogroup_join
        keyed = orders.map_batches(
            lambda t: t.rename_columns(["c_custkey", "o_totalprice"]),
            batch_format="pyarrow")
        joined = cogroup_join(keyed, cust_ds, on=["c_custkey"], how="inner")

    out = (joined.groupby("c_mktsegment")
           .aggregate(Sum("o_totalprice", alias_name="revenue"),
                      Count(alias_name="n_orders")))
    return _scale_cols(out, {"revenue": 100})


def q_top10_orders(sf_dir: str):
    import ray.data as rd
    ds = _sized_read(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    return ds.sort(["o_totalprice", "o_orderkey"],
                   descending=[True, False]).limit(10)


def q_filter_lineitem(sf_dir: str):
    import ray.data as rd
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber", "l_quantity"])
    return ds.map_batches(
        lambda t: t.filter(pc.greater(t["l_quantity"], 45.0)),
        batch_format="pyarrow")


def q_nation_region(sf_dir: str):
    import pyarrow as pa
    import ray
    import ray.data as rd
    reg = _sized_read(f"{sf_dir}/region.parquet").to_pandas()
    reg_ref = ray.put(dict(zip(reg["r_regionkey"], reg["r_name"])))

    def add_region(t):
        m = ray.get(reg_ref)
        return pa.Table.from_arrays(
            [t["n_name"].combine_chunks(),
             pa.array([m.get(k) for k in t["n_regionkey"].to_pylist()],
                      pa.string())],
            names=["n_name", "r_name"])

    return _sized_read(f"{sf_dir}/nation.parquet").map_batches(
        add_region, batch_format="pyarrow")


def q_part_brand_stats(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count, Mean
    out = (_sized_read(f"{sf_dir}/part.parquet",
                           columns=["p_brand", "p_retailprice"])
           .groupby("p_brand")
           .aggregate(Count(alias_name="n"),
                      Mean("p_retailprice", alias_name="avg_price")))
    return _scale_cols(out, {"avg_price": 10000})


def q_customer_top3_per_segment(sf_dir: str):
    """Per-group top-k via map_groups (window-function equivalent)."""
    import pandas as pd
    import ray.data as rd

    def top3(g: pd.DataFrame) -> pd.DataFrame:
        return g.sort_values(["c_acctbal", "c_custkey"],
                             ascending=[False, True],
                             kind="mergesort").head(3)

    return (_sized_read(f"{sf_dir}/customer.parquet",
                            columns=["c_mktsegment", "c_custkey", "c_acctbal"])
            .groupby("c_mktsegment")
            .map_groups(top3, batch_format="pandas"))


def q_events_window(sf_dir: str):
    """Tumbling 1-day event-time window per user (streaming-shaped).
    ~40k distinct (user, day) groups — the vectorized bucketed reduce,
    not the native Aggregate (Python per-row partial merges)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.stages.common import bucketed_group_reduce

    def add_day(t: "pa.Table") -> "pa.Table":
        us = pc.cast(t["ts"], pa.int64())
        day = pc.divide(us, 86_400_000_000)
        return pa.table({"user_id": t["user_id"],
                         "day": pc.cast(day, pa.int64()),
                         "value": t["value"]})

    def win(df):
        return (df.groupby(["user_id", "day"], as_index=False)
                .agg(n=("value", "size"), sum_value=("value", "sum")))

    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    out = bucketed_group_reduce(
        ds.map_batches(add_day, batch_format="pyarrow"),
        ["user_id", "day"], win,
        schema=pa.schema([("user_id", pa.int64()), ("day", pa.int64()),
                          ("n", pa.int64()), ("sum_value", pa.float64())]))
    return _scale_cols(out, {"sum_value": 100})


def q_events_by_type(sf_dir: str):
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    out = (_sized_read(f"{sf_dir}/events.parquet",
                           columns=["event_type", "value"])
           .groupby("event_type")
           .aggregate(Count(alias_name="n"),
                      Sum("value", alias_name="sum_value")))
    return _scale_cols(out, {"sum_value": 100})


def q_distinct_event_types(sf_dir: str):
    import ray.data as rd
    import pandas as pd
    vals = (_sized_read(f"{sf_dir}/events.parquet",
                            columns=["event_type"]).unique("event_type"))
    return pd.DataFrame({"event_type": sorted(vals)})


# ---------------------------------------------------------------------------
# documents: text analysis + dedup
# ---------------------------------------------------------------------------

def q_docs_token_count(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.text import add_token_count
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(lambda t: add_token_count(t).drop(["text"]),
                          batch_format="pyarrow")


def q_docs_bpe_tokens(sf_dir: str):
    """BPE-pre-tokenizer-style token count (letter/digit/symbol runs,
    RE2 pattern identical in pyarrow and the DuckDB oracle)."""
    import ray.data as rd
    from agraph_ray.ops.text import add_bpe_token_count
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(lambda t: add_bpe_token_count(t).drop(["text"]),
                          batch_format="pyarrow")


def q_docs_quality(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.text import add_quality
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ds.map_batches(lambda t: add_quality(t).drop(["text"]),
                         batch_format="pyarrow")
    return _scale_cols(out, {"avg_token_len": 10**6, "punct_ratio": 10**6,
                             "alpha_ratio": 10**6})


def q_docs_langid(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.text import add_lang_id
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(lambda t: add_lang_id(t).drop(["text"]),
                          batch_format="pyarrow")


def q_docs_fingerprint(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.text import add_fingerprint
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return ds.map_batches(lambda t: add_fingerprint(t).drop(["text"]),
                          batch_format="pyarrow")


def q_docs_repetition(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.text import add_word_repetition
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ds.map_batches(lambda t: add_word_repetition(t).drop(["text"]),
                         batch_format="pyarrow")
    return _scale_cols(out, {"dup_word_fraction": 10**6,
                             "top_word_fraction": 10**6})


def q_docs_top_words(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.text import top_words
    ds = _sized_read(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_words(ds, k=20)


def q_docs_top_words_sketch(sf_dir: str):
    """Sketch-guided exact top-k words: bounded heavy-hitter candidates
    (O(cap) state, no vocabulary shuffle) + exact recount of candidates
    only — same oracle as docs_top_words, scale-path execution."""
    import ray.data as rd
    from agraph_ray.ops.text import top_words_sketch
    ds = _sized_read(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_words_sketch(ds, k=20)


def q_docs_corpus_filter(sf_dir: str):
    """Gopher/C4-style composite quality gate: keep/drop + failed-rule
    reasons per document, all map-side (ops/text.py::add_corpus_filter)."""
    import ray.data as rd
    from agraph_ray.ops.text import add_corpus_filter
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return (ds.map_batches(add_corpus_filter, batch_format="pyarrow")
            .select_columns(["doc_id", "keep", "reasons"]))


def q_docs_dedup_exact(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.dedup import exact_dedup
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return exact_dedup(ds).select_columns(["doc_id"])


def q_docs_dedup_normalized(sf_dir: str):
    """Exact dedup on NORMALIZED text (normalize_text → min-id per
    distinct normalized value): formatting variants (whitespace, NFC)
    collapse to one survivor — the canonical normalize-then-dedup
    chain, ONE oracle."""
    import ray.data as rd
    from agraph_ray.ops.dedup import exact_dedup
    from agraph_ray.ops.text import normalize_text
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    norm = ds.map_batches(normalize_text, batch_format="pyarrow")
    return exact_dedup(norm, text_col="norm_text").select_columns(
        ["doc_id"])


def q_docs_dedup_keep_best(sf_dir: str):
    """Exact dedup on normalized text with a keep-longest-raw rule
    (keep_cols=[n_chars] desc, ties by min id) — the configurable
    survivor knob of production dedup (ops/dedup.py::exact_dedup_by).
    ONE oracle for normalize + ranked dedup."""
    import ray.data as rd
    from agraph_ray.ops.dedup import exact_dedup_by
    from agraph_ray.ops.text import normalize_text
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "n_chars"])
    norm = ds.map_batches(normalize_text, batch_format="pyarrow")
    out = exact_dedup_by(norm, text_col="norm_text",
                         keep_cols=["n_chars"], ascending=[False])
    return out.select_columns(["doc_id", "n_chars"])


def q_turns_dedup(sf_dir: str):
    """Corpus-level exact turn dedup (CCNet line-hash rule) over the
    transcript turns: keep the globally first (conv_id, turn_idx)
    occurrence of each distinct turn text; later repetitions across ALL
    conversations are dropped. Only (md5, conv_id, turn_idx) rides the
    shuffle; the kill list is duplicate-mass-bounded."""
    import pyarrow.compute as pc
    from agraph_ray.ops.dedup import line_dedup
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir).select_columns(
        ["conv_id", "turn_idx", "text"])
    out = line_dedup(ds, "conv_id", "turn_idx", "text")
    return out.map_batches(
        lambda t: t.set_column(t.schema.get_field_index("turn_idx"),
                               "turn_idx", pc.cast(t["turn_idx"],
                                                   "int64")),
        batch_format="pyarrow")


def q_docs_strip_spans(sf_dir: str):
    """Exact duplicated-span removal (Lee et al. 2022): words covered by
    any 8-gram window occurring >= 2 times corpus-wide are deleted and the
    document rebuilt from the survivors."""
    import ray.data as rd
    from agraph_ray.ops.text import remove_duplicate_spans
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return remove_duplicate_spans(ds, n=8, min_count=2)


def q_lineitem_quantiles_sketch(sf_dir: str):
    """One-pass mergeable quantile sketch (k=256 equi-weight centroids
    per block) over l_extendedprice per l_returnflag — the streaming
    companion to the exact multi-pass quantile queries. Centroid
    placement depends on block boundaries, so rows-only; the rank-error
    bound is pytest-pinned (ops/sketch.py::approx_quantiles)."""
    import ray.data as rd
    from agraph_ray.ops.sketch import approx_quantiles
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])
    return approx_quantiles(ds, "l_extendedprice", [0.25, 0.5, 0.75],
                            key="l_returnflag")


def q_lineitem_heavy_hitters(sf_dir: str):
    """Top-3 line numbers per return flag via the mergeable SpaceSaving
    summary — capacity (64) exceeds the 7-value domain, so nothing is
    ever dropped, err = 0 and the result is EXACT top-k by count:
    full DuckDB oracle (ops/sketch.py::grouped_heavy_hitters)."""
    import ray.data as rd
    from agraph_ray.ops.sketch import grouped_heavy_hitters
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_linenumber"])
    return grouped_heavy_hitters(ds, "l_returnflag", "l_linenumber",
                                 k=3, capacity=64)


def q_orders_weighted_sample(sf_dir: str):
    """Deterministic weighted sampling without replacement (Efraimidis-
    Spirakis keys from md5-derived uniforms): 3 orders per priority,
    inclusion-biased by o_totalprice. No RNG state — DuckDB computes the
    identical key, full oracle (ops/stats.py::weighted_sample_n)."""
    import ray.data as rd
    from agraph_ray.ops.stats import weighted_sample_n
    ds = _sized_read(f"{sf_dir}/orders.parquet",
                         columns=["o_orderpriority", "o_orderkey",
                                  "o_totalprice"])
    out = weighted_sample_n(ds, "o_orderpriority", "o_orderkey",
                            "o_totalprice", n=3)
    return out.select_columns(["o_orderpriority", "o_orderkey"])


def q_docs_select_budget(sf_dir: str):
    """Budget-capped curation: rank documents by alpha_ratio (desc,
    doc_id tiebreak) and keep the maximal prefix whose cumulative
    whitespace-token count stays within 15,000 tokens — 'the
    best-quality N tokens' selection. Full oracle: window-sum QUALIFY
    (ops/pack.py::select_until_budget)."""
    import ray.data as rd
    from agraph_ray.ops.pack import select_until_budget
    from agraph_ray.ops.text import add_quality
    ds = (_sized_read(f"{sf_dir}/documents.parquet",
                          columns=["doc_id", "text"])
          .map_batches(add_quality, batch_format="pyarrow"))
    out = select_until_budget(ds, "alpha_ratio", "doc_id", "token_count",
                              budget=15_000)
    return out.select_columns(["doc_id", "cum"])


def q_docs_compress_ratio(sf_dir: str):
    """Per-document DEFLATE compression ratio (Gopher repetitiveness
    signal) — zlib is not SQL-expressible, rows-only; values pinned in
    pytest (ops/text.py::add_compress_ratio)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.text import add_compress_ratio
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return (ds.map_batches(add_compress_ratio, batch_format="pyarrow")
            .map_batches(lambda t: pa.table({
                "doc_id": t["doc_id"],
                "ratio_e6": pc.cast(pc.floor(pc.add(pc.multiply(
                    t["compress_ratio"], 1e6), 0.5)), pa.int64())}),
                batch_format="pyarrow"))


def q_docs_redact_pii(sf_dir: str):
    """PII scrubbing: deterministic synthetic PII (email/phone/IP) is
    injected into every third document, then redact_pii rewrites it to
    typed tags with a per-doc replacement count. Oracle = the identical
    injection + the same RE2 patterns chained through nested
    regexp_replace (built from ops.text.PII_PATTERNS — one source of
    truth for both sides)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.text import redact_pii

    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def inject(t: pa.Table) -> pa.Table:
        did = pc.cast(t["doc_id"], pa.string())
        suffix = pc.binary_join_element_wise(
            " contact user", did,
            "@example.com or +1 555-123-4567 ip 10.0.0.1", "")
        three = pa.scalar(3, pa.int64())
        mod = pc.subtract(t["doc_id"],
                          pc.multiply(pc.divide(t["doc_id"], three),
                                      three))
        hit = pc.equal(mod, pa.scalar(0, pa.int64()))
        new = pc.if_else(hit,
                         pc.binary_join_element_wise(t["text"], suffix,
                                                     ""),
                         t["text"])
        return t.set_column(t.schema.get_field_index("text"), "text", new)

    out = redact_pii(ds.map_batches(inject, batch_format="pyarrow"))
    return out.select_columns(["doc_id", "redacted", "n_pii"])


def _pii_oracle_sql() -> str:
    """docs_redact_pii oracle: same injection, same patterns, same
    count-then-replace order as ops.text.redact_pii."""
    from agraph_ray.ops.text import PII_PATTERNS
    sql = ["WITH r0 AS (SELECT doc_id,",
           "    CASE WHEN doc_id % 3 = 0 THEN text || ' contact user' ||",
           "        CAST(doc_id AS VARCHAR) ||",
           "        '@example.com or +1 555-123-4567 ip 10.0.0.1'",
           "    ELSE text END AS t, 0::BIGINT AS n FROM documents)"]
    prev = "r0"
    for i, (_, pat, tag) in enumerate(PII_PATTERNS, 1):
        # DuckDB single-quoted literals keep backslashes verbatim —
        # only quotes need escaping
        p = pat.replace("'", "''")
        sql.append(
            f", r{i} AS (SELECT doc_id, regexp_replace(t, '{p}', "
            f"'{tag}', 'g') AS t, "
            f"n + len(regexp_extract_all(t, '{p}')) AS n FROM {prev})")
        prev = f"r{i}"
    sql.append(f"SELECT doc_id, t AS redacted, n AS n_pii FROM {prev}")
    return "\n".join(sql)


def q_docs_temperature_mix(sf_dir: str):
    """Temperature mixing (alpha=0.5) of documents across 'lang' sources
    toward a 300-doc target: per-group keep rate min(1, t_g/n_g) with
    t_g ∝ n_g^0.5, realized by the deterministic md5 uniform — the SQL
    oracle reproduces the subsample exactly
    (ops/stats.py::temperature_mix)."""
    import ray.data as rd
    from agraph_ray.ops.stats import temperature_mix
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    return temperature_mix(ds, "lang", "doc_id", alpha=0.5,
                           target_total=300)


def q_docs_script_ratios(sf_dir: str):
    """Unicode script composition (latin/cjk/cyrillic/arabic/digit
    ratios, x1e6 ints for the hash compare) — the pre-langid routing
    signal (ops/text.py::add_script_ratios)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.text import add_script_ratios
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def scale(t: pa.Table) -> pa.Table:
        cols = {"doc_id": t["doc_id"]}
        for c in ("latin_ratio", "cjk_ratio", "cyrillic_ratio",
                  "arabic_ratio", "digit_ratio"):
            cols[c] = pc.cast(pc.floor(pc.add(pc.multiply(
                t[c], 1e6), 0.5)), pa.int64())
        return pa.table(cols)

    return (ds.map_batches(add_script_ratios, batch_format="pyarrow")
            .map_batches(scale, batch_format="pyarrow"))


def q_docs_vocab_prune(sf_dir: str):
    """Closed-vocabulary preprocessing: corpus words with count < 3
    become '<unk>', documents rebuilt. Full oracle
    (ops/text.py::vocab_prune)."""
    import ray.data as rd
    from agraph_ray.ops.text import vocab_prune
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return vocab_prune(ds, min_count=3)


def q_docs_dedup_incremental(sf_dir: str):
    """Incremental exact dedup of a 'new crawl batch' (doc_id % 5 == 0)
    against the 'existing corpus' (the rest): bloom-accelerated anti join
    on content hashes — the existing corpus is reduced to a fixed-size
    bitmap, never shuffled (ops/dedup.py::dedup_against)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.dedup import dedup_against

    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def part(t: pa.Table, is_new: bool) -> pa.Table:
        k = t["doc_id"]
        five = pa.scalar(5, pa.int64())
        mod = pc.subtract(k, pc.multiply(pc.divide(k, five), five))
        m = pc.equal(mod, pa.scalar(0, pa.int64()))
        return t.filter(m if is_new else pc.invert(m))

    new = docs.map_batches(lambda t: part(t, True), batch_format="pyarrow")
    old = docs.map_batches(lambda t: part(t, False),
                           batch_format="pyarrow")
    return dedup_against(new, old)


def q_docs_neardedup_incremental(sf_dir: str):
    """Incremental NEAR-dup filter of the same 'new crawl batch' against
    the 'existing corpus': LSH cross-side candidates + exact Jaccard
    verify (>= 0.7), survivors of `new` returned. LSH recall makes the
    result non-SQL-expressible — rows-only, semantics pytest-pinned
    (ops/dedup.py::neardedup_against)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.dedup import neardedup_against

    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def part(t: pa.Table, is_new: bool) -> pa.Table:
        k = t["doc_id"]
        five = pa.scalar(5, pa.int64())
        mod = pc.subtract(k, pc.multiply(pc.divide(k, five), five))
        m = pc.equal(mod, pa.scalar(0, pa.int64()))
        return t.filter(m if is_new else pc.invert(m))

    new = docs.map_batches(lambda t: part(t, True), batch_format="pyarrow")
    old = docs.map_batches(lambda t: part(t, False),
                           batch_format="pyarrow")
    return (neardedup_against(new, old, jaccard_threshold=0.7)
            .select_columns(["doc_id"]))


def q_docs_minhash_pairs(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.dedup import ngram_jaccard_pairs
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    out = ngram_jaccard_pairs(ds, threshold=0.5)
    return _scale_cols(out, {"jaccard": 10**6})


def q_docs_simhash_pairs(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.dedup import simhash_near_dup_pairs
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return simhash_near_dup_pairs(ds, max_hamming=8)


def q_docs_minhash_dedup(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.dedup import minhash_dedup
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return minhash_dedup(ds, jaccard_threshold=0.8).select_columns(["doc_id"])


# ---------------------------------------------------------------------------
# embeddings: similarity search + near-dup
# ---------------------------------------------------------------------------

def _load_queries(sf_dir: str, n: int = 4):
    """The n lowest-vec_id query vectors. Reads the int64 id column whole
    (cheap at any scale), then fetches ONLY those n rows' vectors with a
    pushed-down filter — never the full vector table on the driver."""
    import pyarrow.compute as pc
    import pyarrow.dataset as pads
    d = pads.dataset(f"{sf_dir}/embeddings.parquet", format="parquet")
    id_col = d.to_table(columns=["vec_id"])["vec_id"]
    ids = sorted(id_col.to_pylist())[:n]
    t = d.to_table(columns=["vec_id", "embedding"],
                   filter=pc.field("vec_id").isin(ids)).sort_by("vec_id")
    vecs = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    return vecs, t["vec_id"].to_pylist()


def q_ann_topk(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.similarity import topk_cosine
    vecs, ids = _load_queries(sf_dir)
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return _scale_cols(topk_cosine(ds, vecs, query_ids=ids, k=10),
                       {"sim": 10**6})


def q_ann_topk_lsh(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.similarity import topk_cosine_lsh
    vecs, ids = _load_queries(sf_dir)
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    return topk_cosine_lsh(ds, vecs, query_ids=ids, k=10)


def q_ann_topk_ivf(sf_dir: str):
    """IVF coarse-quantized ANN run exhaustively (nprobe == nlist) so the
    brute-force oracle checks the full assign/probe/score path exactly."""
    import ray.data as rd
    from agraph_ray.ops.similarity import topk_cosine_ivf
    vecs, ids = _load_queries(sf_dir)
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = topk_cosine_ivf(ds, vecs, query_ids=ids, k=10, nlist=8, nprobe=8)
    return _scale_cols(out, {"sim": 10**6})


def q_ann_topk_pq(sf_dir: str):
    """IVF-PQ shard-pool ANN (state/ann.py): ADC over uint8 codes in the
    probed lists + exact re-rank. Rows-only (approximate by design);
    recall floor vs the exact path is pytest-pinned
    (test_graph_ops.py::test_ann_actor_pq_recall_floor)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from agraph_ray.state.ann import AnnShardPool
    vecs, qids = _load_queries(sf_dir)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).sort_by("vec_id")
    ids = [str(i) for i in t["vec_id"].to_pylist()]
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float32)
    pool = AnnShardPool(ids, mat, num_shards=4, ivf_nlist=16, pq_m=8)
    got_ids, got_sims = pool.query_pq(np.asarray(vecs, dtype=np.float32),
                                      k=10, nprobe=8, rerank=200)
    rows_q, rows_id, rows_rank, rows_sim = [], [], [], []
    for qi, qid in enumerate(qids):
        for r in range(got_ids.shape[1]):
            if got_sims[qi, r] == -np.inf:
                continue
            rows_q.append(qid)
            rows_id.append(int(got_ids[qi, r]))
            rows_rank.append(r + 1)
            rows_sim.append(int(round(float(got_sims[qi, r]) * 10**6)))
    return pa.Table.from_arrays(
        [pa.array(rows_q, pa.int64()), pa.array(rows_id, pa.int64()),
         pa.array(rows_rank, pa.int64()), pa.array(rows_sim, pa.int64())],
        names=["query_id", "vec_id", "rank", "sim"])


def q_ann_topk_hnsw(sf_dir: str):
    """NSW-graph shard-pool ANN (state/ann.py): vectorized NN-descent
    build (Dong et al. 2011), greedy beam-search query. Rows-only
    (approximate by design); recall floor vs the exact path is
    pytest-pinned (test_graph_ops.py::test_ann_actor_hnsw_recall_floor)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    from agraph_ray.state.ann import AnnShardPool
    vecs, qids = _load_queries(sf_dir)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).sort_by("vec_id")
    ids = [str(i) for i in t["vec_id"].to_pylist()]
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float32)
    pool = AnnShardPool(ids, mat, num_shards=4, hnsw_m=12)
    got_ids, got_sims = pool.query_hnsw(
        np.asarray(vecs, dtype=np.float32), k=10, ef=64)
    return _ann_rank_table(qids, got_ids, got_sims)


def _ann_rank_table(qids, got_ids, got_sims):
    import pyarrow as pa
    rows_q, rows_id, rows_rank, rows_sim = [], [], [], []
    for qi, qid in enumerate(qids):
        for r in range(got_ids.shape[1]):
            if got_sims[qi, r] == -np.inf:
                continue
            rows_q.append(qid)
            rows_id.append(int(got_ids[qi, r]))
            rows_rank.append(r + 1)
            rows_sim.append(int(round(float(got_sims[qi, r]) * 10**6)))
    return pa.Table.from_arrays(
        [pa.array(rows_q, pa.int64()), pa.array(rows_id, pa.int64()),
         pa.array(rows_rank, pa.int64()), pa.array(rows_sim, pa.int64())],
        names=["query_id", "vec_id", "rank", "sim"])


def q_ann_topk_hnsw_exact(sf_dir: str):
    """HNSW shard pool in exact-re-rank mode: ef covers every shard, so
    the beam degenerates to the exact scan (state/ann.py query_hnsw
    fallback — same exact-coverage contract as query_ivf at
    nprobe >= nlist). Fully oracle-checkable, unlike the approximate
    ann_topk_hnsw whose recall floor is pytest-pinned."""
    import pyarrow.parquet as pq
    from agraph_ray.state.ann import AnnShardPool
    vecs, qids = _load_queries(sf_dir)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"]).sort_by("vec_id")
    ids = [str(i) for i in t["vec_id"].to_pylist()]
    # float64 input + precision="float64" shards: the exact fallback
    # scores in double, bit-compatible with DuckDB's DOUBLE cosine
    mat = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    pool = AnnShardPool(ids, mat, num_shards=4, hnsw_m=12,
                        precision="float64")
    got_ids, got_sims = pool.query_hnsw(
        np.asarray(vecs, dtype=np.float64), k=10, ef=len(ids))
    return _ann_rank_table(qids, got_ids, got_sims)


def q_emb_near_dup(sf_dir: str):
    import ray.data as rd
    from agraph_ray.ops.dedup import embedding_near_dup_pairs
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = embedding_near_dup_pairs(ds, threshold=0.35)
    return _scale_cols(out, {"cosine": 10**6})


# ---------------------------------------------------------------------------
# KG pipeline over transcripts derived from documents
# ---------------------------------------------------------------------------

def q_reassemble_docs(sf_dir: str):
    """Transcripts (80-char turn slices, reverse-emitted) → reassembled
    documents; SQL oracle = the original documents table."""
    from agraph_ray.config import KGConfig
    from agraph_ray.stages.reassemble import reassemble
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    docs = reassemble(ds, KGConfig(turn_separator=""), detect_hot=False)
    return docs.select_columns(["conv_id", "text"])


def q_render_chat(sf_dir: str):
    """Chat-template rendering over the derived transcripts: per
    conversation, '<|role|>text' turns concatenated in order plus
    SFT loss-mask statistics (assistant turn/char counts). Full oracle:
    string_agg over the SQL-reconstructed turn table
    (stages/reassemble.py::render_chat)."""
    import pyarrow.compute as pc2
    from agraph_ray.stages.reassemble import render_chat
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    out = render_chat(ds)
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("doc_seq"), "doc_seq",
            pc2.cast(t["doc_seq"], "int64")),
        batch_format="pyarrow")


def q_preference_pairs(sf_dir: str):
    """DPO-style preference pairs over the derived transcripts: adjacent
    user→assistant turn pairs, grouped by identical prompt text; chosen =
    longest distinct response (ties → lexicographically greatest),
    rejected = shortest (ties → smallest). Full oracle: self-join +
    window functions over the SQL-reconstructed turn table
    (ops/preference.py::preference_pairs)."""
    from agraph_ray.ops.preference import preference_pairs
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    return preference_pairs(ds)


def q_tool_usage(sf_dir: str):
    """Agent tool-call analytics over the derived transcripts (the
    input_hint's ``tool`` column, deterministically annotated by
    synth.add_synthetic_tools): per tool — total calls, distinct
    conversations, total response chars. Per-batch (tool, conv) combiner
    before one tool-keyed reduce; shuffle carries distinct pairs only."""
    import pyarrow as pa2
    from agraph_ray.stages.common import bucketed_group_reduce
    from agraph_ray.synth import add_synthetic_tools, \
        transcripts_from_documents

    ds = add_synthetic_tools(transcripts_from_documents(sf_dir))
    ds = ds.filter(expr="tool != ''").select_columns(
        ["tool", "conv_id", "text"])

    def partial(t: "pa2.Table"):
        import pandas as pd2
        import pyarrow.compute as pc2
        df = pd2.DataFrame({
            "tool": t["tool"].to_pandas(),
            "conv_id": t["conv_id"].to_pandas(),
            "chars": pc2.utf8_length(t["text"]).to_pandas().astype("int64"),
        })
        return df.groupby(["tool", "conv_id"], as_index=False).agg(
            n_calls=("chars", "size"), chars=("chars", "sum"))

    part = ds.map_batches(lambda t: pa2.Table.from_pandas(
        partial(t), preserve_index=False), batch_format="pyarrow")

    def reduce_df(df):
        g = df.groupby("tool", as_index=False).agg(
            n_calls=("n_calls", "sum"), n_convs=("conv_id", "nunique"),
            chars=("chars", "sum"))
        g["n_calls"] = g["n_calls"].astype("int64")
        g["n_convs"] = g["n_convs"].astype("int64")
        g["chars"] = g["chars"].astype("int64")
        return g

    return bucketed_group_reduce(part, ["tool"], reduce_df, num_buckets=4)


def q_tool_transitions(sf_dir: str):
    """Markov transition counts between consecutive tool calls within a
    conversation (reuses ops/window.py::event_transitions; the synthetic
    ts is monotone in turn_idx so the LAG-by-turn_idx oracle orders
    identically). Oracle: LAG window over the reconstructed turns."""
    from agraph_ray.ops.window import event_transitions
    from agraph_ray.synth import add_synthetic_tools, \
        transcripts_from_documents

    ds = add_synthetic_tools(transcripts_from_documents(sf_dir))
    calls = ds.filter(expr="tool != ''")
    return event_transitions(calls, key="conv_id", ts_col="ts",
                             type_col="tool", id_col="turn_idx")


def q_conv_truncate(sf_dir: str):
    """Chat-history context-window trim: per conversation keep the maximal
    suffix of whole turns totalling <= 64 whitespace tokens (drop oldest
    first, never split a turn). Oracle: reverse-ordered window sum
    (stages/reassemble.py::truncate_context)."""
    from agraph_ray.stages.reassemble import truncate_context
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    return truncate_context(ds, max_tokens=64)


def q_conv_wellformed(sf_dir: str):
    """Per-conversation well-formedness report (alternation violations,
    index gaps, empty turns, user-first start) — the triage filter before
    SFT rendering / preference extraction. Oracle: LAG windows
    (stages/reassemble.py::validate_conversations)."""
    from agraph_ray.stages.reassemble import validate_conversations
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    return validate_conversations(ds)


def q_conv_curation(sf_dir: str):
    """Composed agent-transcript curation chain, ONE end-to-end oracle:
    transcripts → well-formedness gate (validate_conversations + semi
    join) → 64-token context truncation (whole-turn suffix) →
    chat-template render with SFT loss-mask stats. Runs the FUSED
    single-shuffle path (stages/reassemble.py::curate_conversations —
    every step is per-conversation, so one conv-keyed shuffle replaces
    validate + semi join + truncate + render's four);
    test_preference.py pins fused == composed row-for-row. One
    nested-CTE DuckDB oracle."""
    import pyarrow.compute as pc2
    from agraph_ray.stages.reassemble import curate_conversations
    from agraph_ray.synth import transcripts_from_documents

    turns = transcripts_from_documents(sf_dir)
    out = curate_conversations(turns, max_tokens=64)
    return out.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("doc_seq"), "doc_seq",
            pc2.cast(t["doc_seq"], "int64")),
        batch_format="pyarrow")


def q_conv_segments(sf_dir: str):
    """Overlapping conversation segmentation (window=4 turns, stride=2)
    for long-context SFT examples. Oracle: generate_series segments
    joined to row_number positions
    (stages/reassemble.py::segment_conversations)."""
    from agraph_ray.stages.reassemble import segment_conversations
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    return segment_conversations(ds, window_turns=4, stride=2)


def q_conv_sft_unroll(sf_dir: str):
    """Conversation → per-reply SFT examples: one row per assistant turn
    with the rendered context of the previous 4 whole turns
    (stages/reassemble.py::unroll_sft_examples). Oracle: windowed
    string_agg over ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING."""
    from agraph_ray.stages.reassemble import unroll_sft_examples
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    return unroll_sft_examples(ds, context_turns=4)


# fixed SQL-reproducible vocabulary for entity_timeline (words planted in
# the synthetic documents text); single source for the op AND the oracle
TIMELINE_VOCAB = ("spark", "stream", "window", "join", "table",
                  "customer", "vector", "hash", "merge", "filter")


def q_entity_timeline(sf_dir: str):
    """Entity-mention timeline over the transcript stream: per vocabulary
    entity, the mentioning-turn count, exact distinct conversations, and
    first/last mention timestamps — temporal KG provenance over
    transcripts (stages/link_chunks.py::mention_timeline; containment
    rule of reference llm_builders.py:770-812). Full oracle: contains()
    join + group min/max over the reconstructed turn table."""
    import ray.data as rd
    from agraph_ray.stages.link_chunks import mention_timeline
    from agraph_ray.synth import transcripts_from_documents

    nodes = rd.from_items(
        [{"entity_id": f"w_{w}", "name": w, "aliases": []}
         for w in TIMELINE_VOCAB])
    turns = transcripts_from_documents(sf_dir)
    return mention_timeline(turns, nodes)


def q_conv_pack(sf_dir: str):
    """SFT batch packing end to end: transcripts → chat-template render
    (one training string per conversation) → whitespace token count →
    concat-and-cut packing into 512-token sequences in conv_id order —
    the exact sequence layout a trainer reads. ONE oracle for the chain
    (string_agg render + windowed prefix sum)."""
    from agraph_ray.ops.pack import pack_concat
    from agraph_ray.ops.text import add_token_count
    from agraph_ray.stages.reassemble import render_chat
    from agraph_ray.synth import transcripts_from_documents

    rendered = render_chat(transcripts_from_documents(sf_dir))
    toks = rendered.map_batches(add_token_count, batch_format="pyarrow")
    out = pack_concat(toks, "token_count", cap=512, order_col="conv_id")
    return out.select_columns(["conv_id", "token_count", "seq_id",
                               "seq_offset"])


def q_conv_pack_stats(sf_dir: str):
    """Training-batch content accounting: per packed 512-token sequence,
    how many conversations start in it, their token total, and the
    assistant-generated share (loss-mask mass) — the lineage view a
    trainer needs per batch. Chain: render_chat (stats) →
    add_token_count → pack_concat → seq-keyed rollup; ONE oracle."""
    import pyarrow as pa

    from agraph_ray.ops.pack import pack_concat
    from agraph_ray.ops.text import add_token_count
    from agraph_ray.stages.reassemble import render_chat
    from agraph_ray.synth import transcripts_from_documents

    rendered = render_chat(transcripts_from_documents(sf_dir))
    toks = rendered.map_batches(add_token_count, batch_format="pyarrow")
    # pack_concat projects to (conv_id, token_count, seq_id, seq_offset);
    # keep the per-conv stats alongside by re-deriving the pack columns
    # on the stats-bearing rows via the same distributed prefix sum
    from agraph_ray.ops.pack import ordered_prefix_sum
    with_prefix = ordered_prefix_sum(toks, "conv_id", "token_count")

    def finish(t: "pa.Table") -> "pa.Table":
        p = t["prefix"].to_numpy(zero_copy_only=False)
        return pa.table({
            "seq_id": pa.array(p // 512, pa.int64()),
            "token_count": t["token_count"],
            "n_assistant_turns": t["n_assistant_turns"],
            "assistant_chars": t["assistant_chars"]})

    packed = with_prefix.map_batches(finish, batch_format="pyarrow")
    from agraph_ray.stages.common import bucketed_group_reduce

    def rollup(df):
        return (df.groupby("seq_id", as_index=False)
                .agg(n_convs=("token_count", "size"),
                     seq_tokens=("token_count", "sum"),
                     assistant_turns=("n_assistant_turns", "sum"),
                     assistant_chars=("assistant_chars", "sum")))

    return bucketed_group_reduce(
        packed, ["seq_id"], rollup,
        schema=pa.schema([("seq_id", pa.int64()),
                          ("n_convs", pa.int64()),
                          ("seq_tokens", pa.int64()),
                          ("assistant_turns", pa.int64()),
                          ("assistant_chars", pa.int64())]))


def q_entity_timeline_windowed(sf_dir: str):
    """Tumbling-window slice of the entity-mention timeline (2-second
    event-time windows): which entities a window's transcripts mention,
    how often, in how many conversations — the per-window view of graph
    construction (stages/link_chunks.py::mention_timeline(window_us=…)).
    Full oracle: containment join + window-id projection + group."""
    import ray.data as rd
    from agraph_ray.stages.link_chunks import mention_timeline
    from agraph_ray.synth import transcripts_from_documents

    nodes = rd.from_items(
        [{"entity_id": f"w_{w}", "name": w, "aliases": []}
         for w in TIMELINE_VOCAB])
    turns = transcripts_from_documents(sf_dir)
    return mention_timeline(turns, nodes, window_us=2_000_000)


def q_entity_comention_windowed(sf_dir: str):
    """Dynamic-graph snapshot sequence: co-mention edges per 2-second
    tumbling event-time window (same conversation AND same window) —
    the temporal-GNN training input
    (stages/link_chunks.py::comention_edges(window_us=…)). Full oracle:
    distinct containment join self-joined on (conv, window)."""
    import ray.data as rd
    from agraph_ray.stages.link_chunks import comention_edges
    from agraph_ray.synth import transcripts_from_documents

    nodes = rd.from_items(
        [{"entity_id": f"w_{w}", "name": w, "aliases": []}
         for w in TIMELINE_VOCAB])
    turns = transcripts_from_documents(sf_dir)
    return comention_edges(turns, nodes, window_us=2_000_000)


def q_conv_pseudonym_plan(sf_dir: str):
    """Per-conversation anonymization plan for transcript release: each
    vocabulary entity gets a placeholder numbered by first appearance
    within its conversation (non-linkable across conversations,
    readable within one). Full oracle: min(turn_idx) + dense_rank
    (stages/link_chunks.py::speaker_pseudonym_plan; the text rewrite is
    apply_pseudonyms, pytest-pinned)."""
    import ray.data as rd
    from agraph_ray.stages.link_chunks import speaker_pseudonym_plan
    from agraph_ray.synth import transcripts_from_documents

    nodes = rd.from_items(
        [{"entity_id": f"w_{w}", "name": w, "aliases": []}
         for w in TIMELINE_VOCAB])
    turns = transcripts_from_documents(sf_dir)
    return speaker_pseudonym_plan(turns, nodes)


def q_entity_comention(sf_dir: str):
    """Co-mention edge construction over transcripts: undirected
    vocabulary-entity pairs weighted by distinct co-mentioning
    conversations — the reference's co-occurrence relation rule on
    SQL-checkable input (stages/link_chunks.py::comention_edges). Full
    oracle: distinct containment join self-joined on conv_id."""
    import ray.data as rd
    from agraph_ray.stages.link_chunks import comention_edges
    from agraph_ray.synth import transcripts_from_documents

    nodes = rd.from_items(
        [{"entity_id": f"w_{w}", "name": w, "aliases": []}
         for w in TIMELINE_VOCAB])
    turns = transcripts_from_documents(sf_dir)
    return comention_edges(turns, nodes)


def q_docs_shuffle(sf_dir: str):
    """Reproducible global training-order shuffle: dense shuffle_rank by
    md5(seed|id) — identical on any run/worker-count, per-seed epoch
    orders (ops/stats.py::deterministic_shuffle). Full oracle: ORDER BY
    md5 in DuckDB."""
    import ray.data as rd
    from agraph_ray.ops.stats import deterministic_shuffle
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])
    return deterministic_shuffle(ds, "doc_id", seed=1)


def q_docs_epoch_order(sf_dir: str):
    """The epoch a trainer actually reads: temperature-based corpus mix
    (alpha=0.5 by lang, deterministic md5 Bernoulli) then the
    reproducible global shuffle order over the survivors — ONE oracle
    for the composed chain (temperature_mix → deterministic_shuffle)."""
    import ray.data as rd
    from agraph_ray.ops.stats import deterministic_shuffle, temperature_mix
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    mixed = temperature_mix(ds, "lang", "doc_id", alpha=0.5,
                            target_total=300)
    return deterministic_shuffle(mixed, "doc_id", seed=2)


def q_docs_normalize(sf_dir: str):
    """CCNet/C4-style normalization (NFC + whitespace collapse + trim),
    byte-equal vs DuckDB nfc_normalize/regexp_replace
    (ops/text.py::normalize_text)."""
    import ray.data as rd
    from agraph_ray.ops.text import normalize_text
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return (ds.map_batches(normalize_text, batch_format="pyarrow")
            .select_columns(["doc_id", "norm_text"]))


def q_docs_sft_pipeline(sf_dir: str):
    """Composed SFT-data curation chain, ONE end-to-end oracle:
    transcripts → corpus-level turn dedup (CCNet first-occurrence rule)
    → chat-template render ('<|role|>text') → alpha-ratio quality score
    → budget-capped selection (8,000 whitespace tokens of the rendered
    strings). Exercises line_dedup + render_chat + add_quality +
    select_until_budget composed, against one nested-CTE DuckDB query."""
    from agraph_ray.ops.dedup import line_dedup
    from agraph_ray.ops.pack import select_until_budget
    from agraph_ray.ops.text import add_quality
    from agraph_ray.stages.reassemble import render_chat
    from agraph_ray.synth import transcripts_from_documents

    turns = transcripts_from_documents(sf_dir)
    kept = line_dedup(turns, "conv_id", "turn_idx", "text")
    rendered = render_chat(kept)
    scored = rendered.map_batches(add_quality, batch_format="pyarrow")
    out = select_until_budget(scored, "alpha_ratio", "conv_id",
                              "token_count", budget=8_000)
    return out.select_columns(["conv_id", "cum"])


def q_kg_triples(sf_dir: str):
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import kg_tables
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    _, edges, _ = kg_tables(ds, KGConfig(turn_separator=""))
    return edges.select_columns(
        ["relation_id", "subj", "relation_type", "obj", "confidence"])


def q_kg_nodes(sf_dir: str):
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.kg_build import kg_tables
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    nodes, _, _ = kg_tables(ds, KGConfig(turn_separator=""))
    return nodes.select_columns(
        ["entity_id", "name", "entity_type", "confidence", "n_mentions"])


def q_kg_llm_mock(sf_dir: str):
    """The full production LLM pipeline offline: transcripts →
    actor-pool LLM extraction (deterministic mock transport through the
    real OpenAI-compatible client, JSON repair, fuzzy endpoint
    resolution) → dedup → nodes. Rows-only: the mention set comes from
    the mock completions (model-output-shaped, not SQL-expressible);
    determinism and pool==single-task parity are pytest-pinned
    (tests/test_mock_llm.py)."""
    from agraph_ray.config import KGConfig
    from agraph_ray.mock_llm import mock_llm_engine_factory
    from agraph_ray.pipelines.kg_build import kg_tables
    from agraph_ray.synth import transcripts_from_documents
    ds = transcripts_from_documents(sf_dir)
    nodes, _, _ = kg_tables(
        ds, KGConfig(turn_separator=""),
        engine_factory=mock_llm_engine_factory(latency_sec=0.0),
        llm_opts={"num_actors": 8, "max_concurrent": 8, "batch_size": 32})
    return nodes.select_columns(
        ["entity_id", "name", "entity_type", "n_mentions"])


def q_docs_meta_text(sf_dir: str):
    """DocumentProcessor.extract_metadata text-format fields
    (text_processor.py:216-219: line/word/char/non-empty-line counts)
    via extract_document_metadata — the JSON metadata column unpacked
    to scalars so DuckDB can recompute every field."""
    import json as _json

    import pyarrow as pa
    from agraph_ray.ops.parse import extract_document_metadata
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                     columns=["doc_id", "text"])
    meta = extract_document_metadata(
        ds.map_batches(lambda t: pa.table({
            "doc_id": t["doc_id"], "content": t["text"],
            "format": pa.array(["txt"] * len(t), pa.string())}),
            batch_format="pyarrow"))

    def unpack(t: pa.Table) -> pa.Table:
        rows = [_json.loads(s) for s in t["metadata"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"],
            "line_count": pa.array([r["line_count"] for r in rows],
                                   pa.int64()),
            "word_count": pa.array([r["word_count"] for r in rows],
                                   pa.int64()),
            "character_count": pa.array(
                [r["character_count"] for r in rows], pa.int64()),
            "non_empty_line_count": pa.array(
                [r["non_empty_line_count"] for r in rows], pa.int64()),
            "content_bytes": t["content_bytes"],
        })

    return meta.map_batches(unpack, batch_format="pyarrow")


def q_doc_metadata(sf_dir: str):
    """extract_metadata over the 9-format round-robin corpus (same
    payload generation as parse_documents): per-row format-specific
    metadata JSON. Rows-only — office payloads are binary; field
    semantics pinned in test_officefmt.py."""
    import json as _json

    import pyarrow as pa
    from agraph_ray.ops.parse import extract_document_metadata
    ds = _formatted_documents(sf_dir)
    out = extract_document_metadata(ds)

    def project(t: pa.Table) -> pa.Table:
        fmts = [_json.loads(s).get("format", "")
                for s in t["metadata"].to_pylist()]
        return pa.table({
            "doc_id": t["doc_id"], "format": t["format"],
            "meta_format": pa.array(fmts, pa.string()),
            "content_bytes": t["content_bytes"]})

    return out.map_batches(project, batch_format="pyarrow")


def q_kg_llm_e2e(sf_dir: str):
    """The COMPOSED production-LLM lifecycle (pipelines/llm_e2e.py,
    reference llm_builders.py:1035-1097): partitioned LLM extract →
    dedup → embedding client → ANN shard self-join → LLM pair judge →
    union-find merge, all six phases checkpointed, all clients on the
    mock transport at zero latency. Rows-only: mentions come from mock
    completions; phase semantics, kill/resume and merge parity are
    pytest-pinned (tests/test_llm_e2e.py); ≥1M-turn wall numbers in
    BASELINE.md round 5."""
    import glob
    import hashlib as _hl
    import os
    import shutil

    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from agraph_ray.config import KGConfig
    from agraph_ray.mock_llm import (mock_chat_client,
                                     mock_embedding_client,
                                     mock_llm_engine_factory)
    from agraph_ray.pipelines.llm_e2e import build_kg_llm_e2e
    from agraph_ray.synth import transcripts_from_documents

    key = _hl.md5(os.path.abspath(sf_dir).encode()).hexdigest()[:10]
    base = f"/tmp/graft_llm_e2e_q_{key}"
    inp = os.path.join(base, "input")
    if not glob.glob(os.path.join(inp, "*.parquet")):
        # conv-hash-partitioned shards (the resumable loader contract);
        # the corpus tables are dictionary-sized, so a driver-side
        # split is fine here — the at-scale path is tools/llm_e2e_scale
        t = pa.concat_tables([
            b for b in transcripts_from_documents(sf_dir)
            .iter_batches(batch_size=None, batch_format="pyarrow")])
        df = t.to_pandas()
        shard = [int(_hl.md5(c.encode()).hexdigest()[:8], 16) % 8
                 for c in df["conv_id"]]
        os.makedirs(inp, exist_ok=True)
        for s in range(8):
            part = df[[x == s for x in shard]]
            pq.write_table(pa.Table.from_pandas(part, preserve_index=False),
                           os.path.join(inp, f"shard-{s}.parquet"))
    out = os.path.join(base, "out")
    shutil.rmtree(out, ignore_errors=True)
    res = build_kg_llm_e2e(
        sorted(glob.glob(os.path.join(inp, "*.parquet"))), out,
        KGConfig(turn_separator=""),
        engine_factory=mock_llm_engine_factory(latency_sec=0.0),
        embedder=mock_embedding_client(latency_sec=0.0, embedding_dim=32),
        judge_llm_factory=lambda: mock_chat_client(latency_sec=0.0),
        shards_per_partition=4, embed_dim=32, ann_sim_threshold=0.60,
        llm_opts={"num_actors": 8, "max_concurrent": 8, "batch_size": 32})
    return (rd.read_parquet(res.tables["nodes"])
            .select_columns(["entity_id", "name", "entity_type",
                             "n_mentions"]))


def q_kg_chunk_similarity(sf_dir: str):
    """Chunk-to-chunk similarity over shared linked entities/relations."""
    from agraph_ray.ops.misc import chunk_similarity_pairs
    out = chunk_similarity_pairs(_linked_chunks(sf_dir), threshold=0.8,
                                 max_block_pairs=5_000)
    return _scale_cols(out, {"similarity": 10**6})


def q_kg_importance(sf_dir: str):
    from agraph_ray.ops.misc import entity_importance
    nodes, edges = _kg(sf_dir)
    out = entity_importance(edges, n_entities=nodes.count())
    return _scale_cols(out, {"importance": 10**6})


def q_media_audio_windows(sf_dir: str):
    """Audio windowing plumbing: 300 ms windows with deterministic fake
    spectral features (decode kernel stubbed, distribution real)."""
    import ray.data as rd
    from agraph_ray.ops.multimodal import chunk_audio, synth_media
    ds = rd.from_arrow(synth_media(n=96, seed=5))
    wins = chunk_audio(ds, window_ms=300, concurrency=2)
    return wins.map_batches(
        lambda t: t.drop(["feature"]).append_column(
            "f0", pc.round(pc.list_element(t["feature"], 0), 6)),
        batch_format="pyarrow")


def q_media_features(sf_dir: str):
    """Multimodal plumbing: deterministic fake media → actor-pool feature
    extraction (decode kernel stubbed, distribution real)."""
    import ray.data as rd
    from agraph_ray.ops.multimodal import extract_media_features, synth_media
    ds = rd.from_arrow(synth_media(n=96, seed=5))
    feats = extract_media_features(ds, fake=True)
    return feats.map_batches(
        lambda t: t.drop(["feature"]).append_column(
            "feat_norm", pc.round(pc.list_element(t["feature"], 0), 6)),
        batch_format="pyarrow")


def _synth_raw_media(n: int = 48, seed: int = 9):
    """Deterministic REAL media payloads across every stdlib-decodable
    container: BMP/PNG/netpbm/TIFF/GIF images (round-robin) and 16-bit
    PCM WAV tones (builders in ops/rawmedia.py)."""
    import pyarrow as pa
    from agraph_ray.ops.multimodal import MEDIA_SCHEMA
    from agraph_ray.ops.rawmedia import (make_bmp, make_gif, make_png,
                                         make_ppm, make_tiff, make_wav)
    encoders = [("bmp", make_bmp), ("png", make_png), ("ppm", make_ppm),
                ("tiff", make_tiff),
                ("gif", lambda a: make_gif((a // 64) * 64))]
    rng = np.random.default_rng(seed)
    rows = []
    for i in range(n):
        if i % 2 == 0:
            w, h = 8 + i % 5, 6 + i % 4
            img = (rng.integers(0, 256, size=(h, w, 3))
                   .astype("uint8"))
            fmt, enc = encoders[(i // 2) % len(encoders)]
            rows.append({"media_id": f"img{i:04d}", "kind": "image",
                         "payload": enc(img), "mime": f"image/{fmt}",
                         "width": w, "height": h, "duration_ms": -1})
        else:
            rate = 4000
            freq = 200 + 50 * (i % 7)
            t = np.arange(rate) / rate          # 1 s tone
            sig = 0.5 * np.sin(2 * np.pi * freq * t)
            rows.append({"media_id": f"aud{i:04d}", "kind": "audio",
                         "payload": make_wav(sig, rate),
                         "mime": "audio/wav", "width": -1, "height": -1,
                         "duration_ms": 1000})
    return pa.Table.from_pylist(rows, schema=MEDIA_SCHEMA)


def q_media_captions(sf_dir: str):
    """Vision-LLM captioning (the reference ImageProcessor surface,
    image_processor.py:292-612) through the latency-bound endpoint
    pool with the mock vision transport — which REALLY decodes the BMP
    payloads and captions their true dimensions/colour. Rows-only:
    captions are model output; decode + caption semantics pinned in
    test_rawmedia.py."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.mock_llm import mock_chat_client
    from agraph_ray.ops.multimodal import caption_images
    ds = rd.from_arrow(_synth_raw_media())
    out = caption_images(ds, lambda: mock_chat_client(latency_sec=0.0),
                         concurrency=2)
    return out.map_batches(
        lambda t: pa.table({
            "media_id": t["media_id"], "kind": t["kind"],
            "caption": t["caption"]}), batch_format="pyarrow")


def q_media_real_decode(sf_dir: str):
    """REAL stdlib decode through the actor-pool stages (fake=False):
    BMP → color/histogram features, WAV PCM → rms/zcr/centroid window
    features (ops/rawmedia.py). Rows-only: feature values are pinned in
    test_rawmedia.py (tone-vs-silence rms, color reflection,
    byte-exact round-trips)."""
    import ray.data as rd
    from agraph_ray.ops.multimodal import extract_media_features
    ds = rd.from_arrow(_synth_raw_media())
    feats = extract_media_features(ds, fake=False)
    return feats.map_batches(
        lambda t: t.drop(["feature"]).append_column(
            "f0", pc.round(pc.list_element(t["feature"], 0), 6)),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# LLM extraction engine over canned completions (oracle-checked: the canned
# responses are analytic functions of doc_id, so DuckDB reproduces the
# expected post-parse/normalize output without parsing any JSON)
# ---------------------------------------------------------------------------

def _make_canned_llm():
    """Deterministic offline LLM: replays canned completions keyed by the
    docid embedded in the text. Exercises clean / fenced / prose-wrapped /
    broken completions (parse-repair path), the entity/relation type
    normalization maps, in-doc dedup, fuzzy endpoint resolution, the
    confidence floor and the validity whitelist. Self-contained closure so
    Ray workers need not import this driver module."""
    import json as _json
    import re as _re

    raw_etypes = ["Person", "ORG", "company", "Place", "misc",
                  "SOFTWARE", "wizard"]
    raw_rtypes = ["RELATED_TO", "ASSOCIATED_WITH", "DESCRIBES",
                  "MENTIONS", "HAS"]

    def llm(prompt: str) -> str:
        i = int(_re.search(r"docid=(\d+)", prompt).group(1))
        if '"entities"' in prompt and '"relations"' not in prompt:
            payload = _json.dumps({"entities": [
                {"name": f"Entity {i}", "type": raw_etypes[i % 7],
                 "description": "canned", "aliases": [f"E{i}"]},
                {"name": f"entity {i}", "type": "CONCEPT"},   # in-doc dup
                {"name": f"Concept {i}", "type": "Concept"},
            ]})
        else:
            payload = _json.dumps({"relations": [
                {"head_entity": f"entity {i}",
                 "tail_entity": f"Concept {i}",
                 "relation_type": raw_rtypes[i % 5], "confidence": 0.9},
                {"head_entity": "Nobody", "tail_entity": f"Concept {i}",
                 "relation_type": "RELATED_TO", "confidence": 0.9},
                {"head_entity": f"Entity {i}",
                 "tail_entity": f"Concept {i}",
                 "relation_type": "RELATED_TO", "confidence": 0.3},
            ]})
        v = i % 4
        if v == 0:
            return payload
        if v == 1:
            return "Sure, here is the JSON:\n```json\n" + payload + "\n```"
        if v == 2:
            return "Result: " + payload + " -- end of response"
        return "I could not produce structured output."

    return llm


def _llm_parse(sf_dir: str):
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.extract.llm import LLMExtractorEngine
    ds = _sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    canned = _make_canned_llm()

    def run(t: "pa.Table") -> "pa.Table":
        eng = LLMExtractorEngine(canned)
        cols = {k: [] for k in ("doc_id", "kind", "name", "entity_type",
                                "subj", "relation_type", "obj",
                                "confidence_pct")}
        for did in t["doc_id"].to_pylist():
            ents, triples = eng.extract(f"docid={did}")
            for e in ents:
                cols["doc_id"].append(did)
                cols["kind"].append("entity")
                cols["name"].append(e.name)
                cols["entity_type"].append(e.etype)
                cols["subj"].append(None)
                cols["relation_type"].append(None)
                cols["obj"].append(None)
                cols["confidence_pct"].append(int(round(e.confidence * 100)))
            for tr in triples:
                cols["doc_id"].append(did)
                cols["kind"].append("triple")
                cols["name"].append(None)
                cols["entity_type"].append(None)
                cols["subj"].append(tr.subj)
                cols["relation_type"].append(tr.pred)
                cols["obj"].append(tr.obj)
                cols["confidence_pct"].append(int(round(tr.confidence * 100)))
        return pa.table({
            "doc_id": pa.array(cols["doc_id"], pa.int64()),
            "kind": pa.array(cols["kind"], pa.string()),
            "name": pa.array(cols["name"], pa.string()),
            "entity_type": pa.array(cols["entity_type"], pa.string()),
            "subj": pa.array(cols["subj"], pa.string()),
            "relation_type": pa.array(cols["relation_type"], pa.string()),
            "obj": pa.array(cols["obj"], pa.string()),
            "confidence_pct": pa.array(cols["confidence_pct"], pa.int64())})

    return ds.map_batches(run, batch_format="pyarrow")


def q_llm_parse_entities(sf_dir: str):
    import pyarrow as pa
    return _llm_parse(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "entity"))
        .select(["doc_id", "name", "entity_type", "confidence_pct"]),
        batch_format="pyarrow")


def q_llm_parse_relations(sf_dir: str):
    import pyarrow as pa
    return _llm_parse(sf_dir).map_batches(
        lambda t: t.filter(pc.equal(t["kind"], "triple"))
        .select(["doc_id", "subj", "relation_type", "obj",
                 "confidence_pct"]),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# joins / windows / graph analytics (oracle-checked where SQL-expressible)
# ---------------------------------------------------------------------------

def _eval_triples_inputs(sf_dir: str):
    """Deterministic pred/gold triple tables derived from doc ids (the
    scorer is the unit under test; the SQL oracle regenerates both
    sides with the same arithmetic)."""
    import pyarrow as pa
    import ray.data as rd

    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def mk(pred: bool):
        def f(t: pa.Table) -> pa.Table:
            ids = t["doc_id"].to_pylist()
            rows = {"doc_id": [], "subj": [], "relation_type": [],
                    "obj": []}
            for i in ids:
                if pred or i % 3 != 1:
                    rows["doc_id"].append(i)
                    rows["subj"].append(f"e{i}")
                    rows["relation_type"].append("related_to")
                    rows["obj"].append(f"c{i}")
                if i % 2 == 0:
                    rows["doc_id"].append(i)
                    rows["subj"].append(f"e{i}")
                    rows["relation_type"].append("mentions")
                    rows["obj"].append(f"x{i}")
                if not pred and i % 5 == 0:
                    rows["doc_id"].append(i)
                    rows["subj"].append(f"g{i}")
                    rows["relation_type"].append("describes")
                    rows["obj"].append(f"y{i}")
            return pa.table({"doc_id": pa.array(rows["doc_id"],
                                                pa.int64()),
                             "subj": pa.array(rows["subj"], pa.string()),
                             "relation_type": pa.array(
                                 rows["relation_type"], pa.string()),
                             "obj": pa.array(rows["obj"], pa.string())})
        return f

    return (docs.map_batches(mk(True), batch_format="pyarrow"),
            docs.map_batches(mk(False), batch_format="pyarrow"))


def q_kg_incremental(sf_dir: str):
    """§2.9 incremental maintenance end-to-end: build the KG on the
    first half of the derived transcripts, add_documents the second
    half, remove_documents a fixed conv set — returns the surviving
    node table. Deterministic ids make add idempotent and remove an
    anti-join; rows-only (extraction is not SQL-expressible)."""
    import tempfile

    import pyarrow.compute as pc2
    from agraph_ray.config import KGConfig
    from agraph_ray.pipelines.incremental import (add_documents,
                                                  remove_documents)
    from agraph_ray.pipelines.kg_build import build_kg
    from agraph_ray.synth import transcripts_from_documents

    ds = transcripts_from_documents(sf_dir)

    def half(parity):
        def f(t):
            return t.filter(pc2.equal(
                pc2.bit_wise_and(t["turn_idx"], 1), parity))
        return f

    first = ds.map_batches(half(0), batch_format="pyarrow")
    second = ds.map_batches(half(1), batch_format="pyarrow")
    out = tempfile.mkdtemp(prefix="kg_incr_")
    cfg = KGConfig(turn_separator="")
    build_kg(first, out, cfg, with_chunks=False)
    add_documents(out, second, cfg)
    # tombstone two deterministic conversations
    import ray.data as rd
    res = remove_documents(out, ["0", "1"], cfg)
    nodes = _sized_read(res.tables["nodes"])
    return (nodes.select_columns(["entity_id", "name", "entity_type"])
            .sort("entity_id"))


def q_eval_triples(sf_dir: str):
    """Distributed triple P/R scorer (ops/eval.py::triple_prf): per-doc
    tp/fp/fn + ppm precision/recall via one tagged-union bucketed
    reduce. Full oracle: FULL JOIN membership counts in DuckDB."""
    pred, gold = _eval_triples_inputs(sf_dir)
    from agraph_ray.ops.eval import triple_prf
    return triple_prf(pred, gold)


def q_eval_clusters(sf_dir: str):
    """Pairwise clustering P/R (entity-resolution metric) of a predicted
    vs gold clustering over doc ids, via contingency-count C(n,2) sums —
    no pairs materialized (ops/eval.py::cluster_pair_prf). Full oracle:
    the same combinatorics in SQL."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.eval import cluster_pair_prf
    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id"])

    def assign(t, pa=pa):
        ids = t["doc_id"]
        return pa.table({
            "pred_cluster": pc.divide(ids, 4),
            "gold_cluster": pc.divide(ids, 5),
        })

    return cluster_pair_prf(docs.map_batches(assign,
                                             batch_format="pyarrow"))


def q_customers_without_orders(sf_dir: str):
    """Distributed anti-join via the bucketed co-group primitive. Returns
    a pyarrow Table (Ray's to_pandas drops the schema of an all-empty
    dataset, and full-coverage inputs legitimately anti-join to zero
    rows)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.join import cogroup_join
    cust = _sized_read(f"{sf_dir}/customer.parquet",
                           columns=["c_custkey", "c_name"])
    orders = (_sized_read(f"{sf_dir}/orders.parquet",
                              columns=["o_custkey"])
              .map_batches(lambda t: t.rename_columns(["c_custkey"]),
                           batch_format="pyarrow"))
    out = cogroup_join(cust, orders, on=["c_custkey"], how="anti")
    schema = pa.schema([("c_custkey", pa.int64()), ("c_name", pa.string())])
    batches = [b for b in out.iter_batches(batch_size=None, batch_format="pyarrow")]
    return (pa.concat_tables([t.cast(schema) for t in batches])
            if batches else schema.empty_table())


def q_lineitem_bloom_semi(sf_dir: str):
    """Bloom-runtime-filter semi join: lineitem rows whose part falls in a
    5% sliver of the part table. The bloom bitmap is OR-reduced over the
    build side, broadcast once (``ray.put``), and drops ~95% of the probe
    map-side *before* the exact verify shuffle — shuffle volume scales with
    |matches|, not |lineitem|. Exactness is guaranteed by the verify join
    over bloom positives (ops/bloom.py)."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    from agraph_ray.ops.bloom import bloom_join

    li = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity", "l_returnflag"])

    def sliver(t: pa.Table) -> pa.Table:
        k = t["p_partkey"]
        mod = pc.subtract(k, pc.multiply(
            pc.divide(k, pa.scalar(20, pa.int64())),
            pa.scalar(20, pa.int64())))
        return (t.filter(pc.equal(mod, pa.scalar(3, pa.int64())))
                .select(["p_partkey"]).rename_columns(["l_partkey"]))

    part = _sized_read(
        f"{sf_dir}/part.parquet", columns=["p_partkey"]).map_batches(
        sliver, batch_format="pyarrow")
    out = bloom_join(li, part, on="l_partkey", how="semi")
    agg = (out.groupby("l_returnflag")
           .aggregate(Count(alias_name="n"),
                      Sum("l_quantity", alias_name="sum_qty")))
    return _scale_cols(agg, {"sum_qty": 100})


def q_orders_bloom_anti(sf_dir: str):
    """Bloom anti join: orders whose customer is NOT in the BUILDING
    segment. Bloom-negative probe rows are definitely-not-present and pass
    through with ZERO shuffle (~80% of orders here); only the positive
    slice is re-verified exactly."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count
    from agraph_ray.ops.bloom import bloom_join

    orders = _sized_read(f"{sf_dir}/orders.parquet",
                             columns=["o_custkey", "o_orderpriority"])
    def building(t: pa.Table) -> pa.Table:
        m = pc.equal(t["c_mktsegment"], pa.scalar("BUILDING"))
        return (t.filter(m).select(["c_custkey"])
                .rename_columns(["o_custkey"]))

    cust = _sized_read(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"]).map_batches(
        building, batch_format="pyarrow")
    out = bloom_join(orders, cust, on="o_custkey", how="anti")
    return out.groupby("o_orderpriority").aggregate(Count(alias_name="n"))


def q_lineitem_skew_join(sf_dir: str):
    """Skew-aware inner join lineitem ⋈ part: keys hotter than the
    threshold are joined map-side against a broadcast build slice, the
    rest through the cogroup shuffle — both paths exact, result
    path-invariant (ops/join.py::skew_join). The threshold is set low
    enough here that BOTH paths carry rows at every sf."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    from agraph_ray.ops.join import skew_join

    li = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_partkey", "l_quantity"])
    part = (_sized_read(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_brand"])
            .map_batches(lambda t: t.rename_columns(
                ["l_partkey", "p_brand"]), batch_format="pyarrow"))
    out = skew_join(li, part, on="l_partkey", how="inner",
                    hot_threshold=25, max_hot=16)
    agg = (out.groupby("p_brand")
           .aggregate(Count(alias_name="n"),
                      Sum("l_quantity", alias_name="sum_qty")))
    return _scale_cols(agg, {"sum_qty": 100})


def q_tpch_q3(sf_dir: str):
    """TPC-H Q3-style 3-way join composing the engine's primitives:
    BUILDING customers bloom-semi-joined into date-filtered orders (the
    runtime filter drops ~80% of orders before any shuffle), lineitem
    revenue pre-aggregated per order key BEFORE the fact-fact join
    (combine-first: the shuffle carries |orders| rows, not |lineitem|),
    then top-10 by revenue. Every filter sits on a column-pruned read."""
    import datetime as dt
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.bloom import bloom_join
    from agraph_ray.ops.join import cogroup_join
    from agraph_ray.stages.common import bucketed_group_reduce

    cutoff = dt.datetime(1996, 6, 1)

    def building(t: pa.Table) -> pa.Table:
        m = pc.equal(t["c_mktsegment"], pa.scalar("BUILDING"))
        return (t.filter(m).select(["c_custkey"])
                .rename_columns(["o_custkey"]))

    cust = _sized_read(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_mktsegment"]).map_batches(
        building, batch_format="pyarrow")

    def order_filter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.less(t["o_orderdate"], pa.scalar(cutoff)))
        day = pc.cast(pc.cast(t["o_orderdate"], pa.date32()), pa.int32())
        return pa.table({"o_orderkey": t["o_orderkey"],
                         "o_custkey": t["o_custkey"],
                         "od_day": pc.cast(day, pa.int64())})

    orders = _sized_read(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate"]).map_batches(
        order_filter, batch_format="pyarrow")
    qual = (bloom_join(orders, cust, on="o_custkey", how="semi")
            .select_columns(["o_orderkey", "od_day"]))

    def li_rev(t: pa.Table) -> pa.Table:
        t = t.filter(pc.greater(t["l_shipdate"], pa.scalar(cutoff)))
        rev = pc.multiply(t["l_extendedprice"],
                          pc.subtract(pa.scalar(1.0), t["l_discount"]))
        return pa.table({"o_orderkey": t["l_orderkey"], "rev": rev})

    li = _sized_read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_extendedprice", "l_discount",
                 "l_shipdate"]).map_batches(li_rev, batch_format="pyarrow")
    rev = bucketed_group_reduce(
        li, ["o_orderkey"],
        lambda df: df.groupby("o_orderkey", as_index=False)["rev"].sum(),
        schema=pa.schema([("o_orderkey", pa.int64()),
                          ("rev", pa.float64())]))
    joined = cogroup_join(rev, qual, on=["o_orderkey"], how="inner")
    scaled = _scale_cols(joined, {"rev": 100}).map_batches(
        lambda t: t.rename_columns(
            [{"rev": "revenue"}.get(c, c) for c in t.column_names]),
        batch_format="pyarrow")
    return scaled.sort(["revenue", "o_orderkey"],
                       descending=[True, False]).limit(10)


def q_revenue_by_priority(sf_dir: str):
    """Fact-fact shuffle join (lineitem ⋈ orders) with lineitem
    pre-aggregated per order key before the join — the combine-first
    pattern that keeps the shuffle at |orders| not |lineitem|."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    from agraph_ray.ops.join import cogroup_join

    from agraph_ray.stages.common import bucketed_group_reduce

    def sum_bucket(df):
        return (df.groupby("o_orderkey", as_index=False)["order_rev"]
                .sum().rename(columns={"order_rev": "rev"}))

    li = (_sized_read(f"{sf_dir}/lineitem.parquet",
                          columns=["l_orderkey", "l_extendedprice"])
          .map_batches(lambda t: t.rename_columns(
              ["o_orderkey", "order_rev"]), batch_format="pyarrow"))
    # high-cardinality keyed sum via the bucketed reduce (Ray's native
    # groupby-aggregate is ~5x slower at 10^5 distinct keys). No per-batch
    # combiner: lineitem is not clustered by order key, so in-batch key
    # duplication is ~3% — a combiner would be pure overhead.
    li = bucketed_group_reduce(
        li, ["o_orderkey"], sum_bucket,
        schema=pa.schema([("o_orderkey", pa.int64()),
                          ("rev", pa.float64())]))
    orders = _sized_read(f"{sf_dir}/orders.parquet",
                             columns=["o_orderkey", "o_orderpriority"])
    joined = cogroup_join(orders, li, on=["o_orderkey"], how="inner")
    out = (joined.groupby("o_orderpriority")
           .aggregate(Sum("rev", alias_name="revenue"),
                      Count(alias_name="n_orders")))
    return _scale_cols(out, {"revenue": 100})


def q_supplier_part_degree(sf_dir: str):
    """degree_table over a bipartite supplier→part edge set derived from
    lineitem (the KG degree operator on SQL-checkable input)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.graph import degree_table
    from agraph_ray.stages.common import distinct_on

    def to_edges(t: pa.Table) -> pa.Table:
        # vectorized id rendering + in-batch dedup: lineitem repeats
        # (supp, part) pairs ~2.5x, so dropping duplicates before the
        # shuffle cuts its volume by the same factor
        s = pc.binary_join_element_wise(
            "s", pc.cast(t["l_suppkey"], pa.string()), "")
        p = pc.binary_join_element_wise(
            "p", pc.cast(t["l_partkey"], pa.string()), "")
        return pa.table({"head_id": s, "tail_id": p}).group_by(
            ["head_id", "tail_id"]).aggregate([])

    edges = distinct_on(
        _sized_read(f"{sf_dir}/lineitem.parquet",
                        columns=["l_suppkey", "l_partkey"])
        .map_batches(to_edges, batch_format="pyarrow"),
        ["head_id", "tail_id"])
    return degree_table(edges)


def _supplier_part_graph(sf_dir: str):
    """(nodes, edges) datasets for the supplier→part bipartite graph
    derived from lineitem — the KG analytics ops on SQL-checkable input."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.stages.common import distinct_on

    def to_edges(t: pa.Table) -> pa.Table:
        s = [f"s{k}" for k in t["l_suppkey"].to_pylist()]
        p = [f"p{k}" for k in t["l_partkey"].to_pylist()]
        return pa.table({"head_id": pa.array(s, pa.string()),
                         "tail_id": pa.array(p, pa.string()),
                         "relation_type": pa.array(["supplies"] * len(s))})

    edges = distinct_on(
        _sized_read(f"{sf_dir}/lineitem.parquet",
                        columns=["l_suppkey", "l_partkey"])
        .map_batches(to_edges, batch_format="pyarrow"),
        ["head_id", "tail_id"]).materialize()

    def to_nodes(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc2
        eid = pa.concat_arrays([t["head_id"].combine_chunks(),
                                t["tail_id"].combine_chunks()])
        etype = pa.concat_arrays([
            pa.array(["supplier"] * len(t)), pa.array(["part"] * len(t))])
        return pa.table({"entity_id": eid, "entity_type": etype})

    nodes = distinct_on(
        edges.map_batches(to_nodes, batch_format="pyarrow"), ["entity_id"])
    return nodes, edges


def q_graph_stats_sql(sf_dir: str):
    """graph_statistics (the kg_statistics engine) over the supplier-part
    graph — SQL-checkable subset (components excluded: not expressible)."""
    import pandas as pd
    from agraph_ray.ops.graph import graph_statistics
    nodes, edges = _supplier_part_graph(sf_dir)
    s = graph_statistics(nodes, edges)
    row = {
        "total_entities": s["total_entities"],
        "total_relations": s["total_relations"],
        "n_suppliers": s["entity_types"]["supplier"],
        "n_parts": s["entity_types"]["part"],
        "max_degree": int(s["degree_statistics"]["max_degree"]),
        "min_degree": int(s["degree_statistics"]["min_degree"]),
        "avg_degree_scaled": int(np.floor(
            s["degree_statistics"]["average_degree"] * 10**6 + 0.5)),
        "density_scaled": int(np.floor(s["density"] * 10**9 + 0.5)),
    }
    return pd.DataFrame([row])


def q_graph_importance_sql(sf_dir: str):
    """entity_importance (degree centrality) over the supplier-part graph."""
    from agraph_ray.ops.misc import entity_importance
    nodes, edges = _supplier_part_graph(sf_dir)
    out = entity_importance(edges, n_entities=nodes.count())
    return _scale_cols(out, {"importance": 10**9})


def _vocab_linked_docs(sf_dir: str):
    """documents linked against the nation/region vocabulary (shared by
    linked_vocab and chunk_stats)."""
    import ray.data as rd
    from agraph_ray.stages.link_chunks import link_chunks

    nat = _sized_read(f"{sf_dir}/nation.parquet").to_pandas()
    reg = _sized_read(f"{sf_dir}/region.parquet").to_pandas()
    rname = dict(zip(reg["r_regionkey"], reg["r_name"]))
    nodes = rd.from_items(
        [{"entity_id": f"n{k}", "name": n, "aliases": []}
         for k, n in zip(nat["n_nationkey"], nat["n_name"])]
        + [{"entity_id": f"r{k}", "name": n, "aliases": []}
           for k, n in zip(reg["r_regionkey"], reg["r_name"])])
    edges = rd.from_items(
        [{"relation_id": f"e{k}", "subj": rname[rk], "obj": n}
         for k, rk, n in zip(nat["n_nationkey"], nat["n_regionkey"],
                             nat["n_name"])])
    chunks = _sized_read(f"{sf_dir}/documents.parquet",
                             columns=["doc_id", "text"])
    return link_chunks(chunks, nodes, edges)


def q_linked_vocab(sf_dir: str):
    """link_chunks (Aho-Corasick vocabulary containment + both-endpoint
    relation linking) over documents with the nation/region vocabulary —
    the oracle checks the matcher against SQL substring semantics."""
    import pyarrow as pa
    linked = _vocab_linked_docs(sf_dir)
    return linked.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"],
            "n_entities": pc.cast(pc.list_value_length(t["entities"]),
                                  pa.int64()),
            "n_relations": pc.cast(pc.list_value_length(t["relations"]),
                                   pa.int64())}),
        batch_format="pyarrow")


def q_chunk_stats(sf_dir: str):
    """chunk_statistics + orphaned_chunks over the vocabulary-linked
    documents (base_storage.py:850-960 semantics, oracle-checked)."""
    import pandas as pd
    from agraph_ray.ops.graph import chunk_statistics
    s = chunk_statistics(_vocab_linked_docs(sf_dir))
    conn = s["connection_statistics"]
    return pd.DataFrame([{
        "total_chunks": s["total_chunks"],
        "total_content_length": s["total_content_length"],
        "avg_content_length_scaled": int(np.floor(
            s["avg_content_length"] * 10**6 + 0.5)),
        "chunks_with_entities": conn["chunks_with_entities"],
        "chunks_with_relations": conn["chunks_with_relations"],
        "orphaned_chunks": conn["orphaned_chunks"],
        "avg_entities_scaled": int(np.floor(
            conn["avg_entities_per_chunk"] * 10**6 + 0.5)),
        "avg_relations_scaled": int(np.floor(
            conn["avg_relations_per_chunk"] * 10**6 + 0.5)),
    }])


def q_events_sessionize(sf_dir: str):
    """Gap-based sessionization (30-min gap) per user."""
    import ray.data as rd
    from agraph_ray.ops.window import sessionize
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    out = sessionize(ds, key="user_id", ts_col="ts", gap_sec=1800)
    return _scale_cols(out, {"duration_sec": 10**6})


def q_events_asof_order(sf_dir: str):
    """Each event matched to the customer's latest order at-or-before the
    event time (as-of backward join; ties on date -> max orderkey)."""
    import pyarrow.compute as pc2
    import ray.data as rd
    from agraph_ray.ops.join import asof_join
    ev = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts", "user_id"])
    orders = _sized_read(
        f"{sf_dir}/orders.parquet",
        columns=["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    out = asof_join(ev, orders, left_on="ts", right_on="o_orderdate",
                    left_by="user_id", right_by="o_custkey",
                    tie_break="o_orderkey")
    out = out.map_batches(   # oracle is an inner asof: drop unmatched
        lambda t: t.filter(pc2.is_valid(t["o_orderkey"])),
        batch_format="pyarrow")
    return _scale_cols(
        out.select_columns(["event_id", "user_id", "o_orderkey",
                            "o_totalprice"]),
        {"o_totalprice": 100})


def q_events_hopping(sf_dir: str):
    """4h windows hopping by 1h per user — every event in 4 windows."""
    import ray.data as rd
    from agraph_ray.ops.window import hopping_window
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    out = hopping_window(ds, key="user_id", ts_col="ts",
                         width_sec=4 * 3600, hop_sec=3600, agg_col="value")
    return _scale_cols(out, {"sum_value": 100})


def _cents(ds, col: str):
    """value -> integer cents BEFORE any windowed/pivoted sum: integer
    sums are exact in both engines, where float accumulation order (cumsum
    here, segment trees in DuckDB) would drift near rounding boundaries."""
    import pyarrow as pa

    def f(t: "pa.Table") -> "pa.Table":
        i = t.schema.get_field_index(col)
        v = pc.cast(t[col], pa.float64())
        return t.set_column(
            i, col,
            pc.floor(pc.add(pc.multiply(v, 100.0), 0.5)))
    return ds.map_batches(f, batch_format="pyarrow")


def q_events_rolling(sf_dir: str):
    """Per-event trailing-24h count + sum per user (RANGE window)."""
    import ray.data as rd
    from agraph_ray.ops.window import rolling_range_agg
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    out = rolling_range_agg(_cents(ds, "value"), key="user_id",
                            ts_col="ts", value_col="value",
                            range_sec=86400, id_col="event_id")
    return _scale_cols(out, {"roll_sum": 1})


def q_events_late(sf_dir: str):
    """Watermark-based late-event flagging over the arrival-ordered event
    stream (event_id = ingest sequence): an event is late when its event
    time lags the running max over all earlier arrivals by more than 10
    minutes — the §2.9 late-data concern as a distributed prefix-max
    (ops/window.py::late_events). Full oracle: running-MAX window frame
    in DuckDB."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.window import late_events
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "ts"])
    out = late_events(ds, ts_col="ts", seq_col="event_id",
                      lateness_sec=600)

    def finish(t: "pa.Table") -> "pa.Table":
        return pa.table({
            "event_id": t["event_id"],
            "watermark_us": t["watermark_us"],
            "late": pc.cast(t["late"], pa.int64())})

    return out.map_batches(finish, batch_format="pyarrow")


def q_events_window_ontime(sf_dir: str):
    """Allowed-lateness windowed aggregate: the 1-day-per-user tumbling
    window computed over ON-TIME events only — events arriving (by
    event_id ingest order) more than 10 minutes behind the running
    watermark are dropped before aggregation, the standard streaming
    late-data rule (late_events ∘ filter ∘ tumbling window). ONE oracle
    for the composed chain."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.window import late_events
    from agraph_ray.stages.common import bucketed_group_reduce

    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    flagged = late_events(ds, ts_col="ts", seq_col="event_id",
                          lateness_sec=600)

    def ontime_day(t: "pa.Table") -> "pa.Table":
        t = t.filter(pc.equal(t["late"], False))
        us = pc.cast(t["ts"], pa.int64())
        day = pc.cast(pc.divide(us, 86_400_000_000), pa.int64())
        return pa.table({"user_id": t["user_id"], "day": day,
                         "value": t["value"]})

    def win(df):
        return (df.groupby(["user_id", "day"], as_index=False)
                .agg(n=("value", "size"), sum_value=("value", "sum")))

    out = bucketed_group_reduce(
        flagged.map_batches(ontime_day, batch_format="pyarrow"),
        ["user_id", "day"], win,
        schema=pa.schema([("user_id", pa.int64()), ("day", pa.int64()),
                          ("n", pa.int64()), ("sum_value", pa.float64())]))
    return _scale_cols(out, {"sum_value": 100})


def q_events_lag_delta(sf_dir: str):
    """Microseconds since each user's previous event (LAG; -1 = first)."""
    import ray.data as rd
    from agraph_ray.ops.window import lag_delta
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts"])
    return lag_delta(ds, key="user_id", ts_col="ts", id_col="event_id")


def q_events_pivot(sf_dir: str):
    """Per-user wide pivot: count + value sum per event type."""
    import ray.data as rd
    from agraph_ray.ops.stats import pivot_counts
    types = ["click", "error", "purchase", "signup", "view"]
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "value"])
    out = pivot_counts(_cents(ds, "value"), key="user_id",
                       pivot_col="event_type", categories=types,
                       value_col="value")
    return _scale_cols(out, {f"sum_{t}": 1 for t in types})


def q_events_running(sf_dir: str):
    """Per-event running row_number + min/max of value (cents) per user —
    ROWS UNBOUNDED PRECEDING window, order-exact (no float accumulation)."""
    import ray.data as rd
    from agraph_ray.ops.window import running_agg
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "ts", "value"])
    return running_agg(_cents(ds, "value"), key="user_id", ts_col="ts",
                       id_col="event_id", value_col="value")


def q_rollup_orders(sf_dir: str):
    """GROUP BY ROLLUP(priority, status): count + exact cents sum at all
    three rollup levels, input read once, coarser levels derived from the
    finest aggregate."""
    import ray.data as rd
    from agraph_ray.ops.stats import rollup_agg
    ds = _sized_read(f"{sf_dir}/orders.parquet",
                         columns=["o_orderpriority", "o_orderstatus",
                                  "o_totalprice"])
    return rollup_agg(_cents(ds, "o_totalprice"),
                      ["o_orderpriority", "o_orderstatus"],
                      value_col="o_totalprice")


def q_events_ranked(sf_dir: str):
    """Ranking-function family per user over value cents: RANK /
    DENSE_RANK / PERCENT_RANK / CUME_DIST (SQL tie semantics) plus a
    deterministic NTILE(4) ordered by (value, event_id)."""
    import ray.data as rd
    from agraph_ray.ops.window import ranked_agg
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "value"])
    return ranked_agg(_cents(ds, "value"), key="user_id",
                      value_col="value", id_col="event_id", ntiles=4)


def q_cube_orders(sf_dir: str):
    """GROUP BY CUBE(priority, status): count + exact cents sum for all
    four grouping sets, input read once (coarser sets derived from the
    finest aggregate)."""
    import ray.data as rd
    from agraph_ray.ops.stats import cube_agg
    ds = _sized_read(f"{sf_dir}/orders.parquet",
                         columns=["o_orderpriority", "o_orderstatus",
                                  "o_totalprice"])
    return cube_agg(_cents(ds, "o_totalprice"),
                    ["o_orderpriority", "o_orderstatus"],
                    value_col="o_totalprice")


def q_lineitem_price_hist(sf_dir: str):
    """Fixed-width 22-bin histogram of l_extendedprice over [0, 110000) —
    per-batch np.bincount combiner, O(nbins) rows through the shuffle."""
    import ray.data as rd
    from agraph_ray.ops.stats import histogram
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_extendedprice"])
    return histogram(ds, "l_extendedprice", lo=0.0, hi=110000.0, nbins=22)


def q_docs_unigram_lp(sf_dir: str):
    """Per-document average log-likelihood under the corpus's own unigram
    LM (micro-scaled integer) — the cheap LM-quality signal."""
    import ray.data as rd
    from agraph_ray.ops.text import unigram_logprob
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return unigram_logprob(ds)


def q_emb_label_centroids(sf_dir: str):
    """Per-label embedding centroids, exploded to (label, dim, n,
    c_micro) long form so the DuckDB unnest oracle checks every
    component exactly (micro-scaled floor ints)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.embedding import label_centroids

    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["label", "embedding"])
    cent = label_centroids(ds)

    def explode(t: "pa.Table") -> "pa.Table":
        lab = t["label"].to_numpy(zero_copy_only=False).astype(np.int64)
        n = t["n"].to_numpy(zero_copy_only=False).astype(np.int64)
        c = t["centroid"].combine_chunks()
        flat = c.flatten().to_numpy(zero_copy_only=False)
        dims = np.diff(np.asarray(c.offsets))
        parents = np.repeat(np.arange(len(t)), dims)
        dim_idx = np.concatenate([np.arange(1, d + 1) for d in dims]) \
            if len(t) else np.empty(0, dtype=np.int64)
        return pa.table({
            "label": pa.array(lab[parents], pa.int64()),
            "dim": pa.array(dim_idx, pa.int64()),
            "n": pa.array(n[parents], pa.int64()),
            "c_micro": pa.array(
                np.floor(flat * 1e6 + 0.5).astype(np.int64))})

    return cent.map_batches(explode, batch_format="pyarrow")


def q_emb_outliers(sf_dir: str):
    """Cosine of each vector to its own label centroid (micro ints) —
    label-quality / outlier signal, centroids broadcast once."""
    import ray.data as rd
    from agraph_ray.ops.embedding import centroid_outlier_scores
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "label", "embedding"])
    return centroid_outlier_scores(ds)


def q_emb_semdedup(sf_dir: str):
    """SemDeDup survivors: k-means-cluster embeddings, drop within-cluster
    cosine >= 0.97 duplicates (keep min id per component). Iterative
    clustering — rows-only; exactness pytest-pinned with planted dups."""
    import ray.data as rd
    from agraph_ray.ops.embedding import semdedup
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "label", "embedding"])
    return semdedup(ds, threshold=0.97, n_clusters=16).select_columns(
        ["vec_id", "label"])


def q_customer_fuzzy_names(sf_dir: str):
    """All customer-name pairs within Levenshtein distance 1 — SymSpell
    deletion-neighborhood blocking (exact superset) + DP verify; the
    DuckDB oracle is the all-pairs levenshtein() cross join."""
    import ray.data as rd
    from agraph_ray.ops.fuzzy import fuzzy_self_join
    ds = _sized_read(f"{sf_dir}/customer.parquet", columns=["c_name"])
    return fuzzy_self_join(ds, "c_name", max_edits=1)


def q_events_hll_users(sf_dir: str):
    """Approximate distinct users per event type via mergeable
    HyperLogLog sketches (p=12, ~1.6% err). Deterministic but
    sketch-valued — rows-only; the error bound and merge-associativity
    are pytest-pinned against exact counts."""
    import ray.data as rd
    from agraph_ray.ops.sketch import hll_count_distinct
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_type", "user_id"])
    return hll_count_distinct(ds, key="event_type", value_col="user_id")


def _coorder_part_edges(sf_dir: str):
    """Distinct undirected (a, b) part pairs co-occurring in an order —
    the co-occurrence edge builder over SQL-checkable input."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import pairs_within_groups
    li = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey"])
    return pairs_within_groups(li, group_col="l_orderkey",
                               item_col="l_partkey")


def q_part_triangles(sf_dir: str):
    """Exact per-part triangle counts over the co-ordered-parts graph —
    degree-ordered distributed node-iterator (no all-pairs step)."""
    from agraph_ray.ops.graph_algo import triangle_counts
    return triangle_counts(_coorder_part_edges(sf_dir))


def q_part_ppr(sf_dir: str):
    """Personalized PageRank (random walk with restart) from seed parts
    {0,1,2} over the symmetrized co-ordered-parts graph, 6 rounds — the
    graph-local relevance score for seed-anchored retrieval. Symmetrized
    graph has no dangling nodes, so the fixpoint is a recursive-CTE power
    iteration in DuckDB: full oracle."""
    import pyarrow as pa
    from agraph_ray.ops.graph_algo import personalized_pagerank

    def both_dirs(t: "pa.Table") -> "pa.Table":
        return pa.table({
            "src": pa.concat_arrays([t["a"].combine_chunks(),
                                     t["b"].combine_chunks()]),
            "dst": pa.concat_arrays([t["b"].combine_chunks(),
                                     t["a"].combine_chunks()])})

    edges = _coorder_part_edges(sf_dir).map_batches(
        both_dirs, batch_format="pyarrow")
    out = personalized_pagerank(edges, seeds=[0, 1, 2], iters=6,
                                assume_no_dangling=True, round_to=None)
    return out.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "rank_e6": pc.cast(pc.floor(pc.add(
                pc.multiply(t["rank"], 1e6), 0.5)), pa.int64())}),
        batch_format="pyarrow")


def q_supplier_nbr_features(sf_dir: str):
    """One-hop GNN-style feature aggregation: each part's feature vector
    is the mean of its supplying suppliers' embedding vectors (supplier
    vec_id = l_suppkey). Output long (node, pos, val_e6, n_in) so the
    DuckDB oracle can average per position: full oracle
    (ops/embedding.py::neighbor_mean)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.embedding import neighbor_mean

    li = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])
    edges = li.map_batches(
        lambda t: pa.table({"src": t["l_suppkey"],
                            "dst": t["l_partkey"]}),
        batch_format="pyarrow")
    from agraph_ray.stages.common import distinct_on
    edges = distinct_on(edges, ["src", "dst"])
    feats = _sized_read(f"{sf_dir}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
    out = neighbor_mean(edges, feats)

    def to_long(t: pa.Table) -> pa.Table:
        import numpy as np
        vec = t["vec"].combine_chunks()
        lens = pc.list_value_length(vec).to_numpy(zero_copy_only=False)
        node = np.repeat(t["node"].to_numpy(zero_copy_only=False), lens)
        n_in = np.repeat(t["n_in"].to_numpy(zero_copy_only=False), lens)
        pos = np.concatenate([np.arange(n, dtype=np.int64)
                              for n in lens]) if len(lens) else \
            np.empty(0, np.int64)
        vals = vec.flatten().to_numpy(zero_copy_only=False)
        v6 = np.floor(vals * 1e6 + 0.5).astype(np.int64)
        return pa.table({"node": pa.array(node, pa.int64()),
                         "pos": pa.array(pos, pa.int64()),
                         "val_e6": pa.array(v6, pa.int64()),
                         "n_in": pa.array(n_in, pa.int64())})

    return out.map_batches(to_long, batch_format="pyarrow")


def q_supplier_components(sf_dir: str):
    """Connected components (min-label) of the sparse supplier–part
    bipartite graph restricted to l_quantity = 50 lineitems — the
    union-find/label-propagation core on SQL-checkable input (DuckDB
    oracle: recursive-CTE transitive closure)."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from agraph_ray.state.unionfind import connected_components

    def to_edges(t: "pa.Table") -> "pa.Table":
        import pyarrow as pa
        s = pc.binary_join_element_wise(
            "s", pc.cast(t["l_suppkey"], pa.string()), "")
        p = pc.binary_join_element_wise(
            "p", pc.cast(t["l_partkey"], pa.string()), "")
        return pa.table({"src": s, "dst": p}).group_by(
            ["src", "dst"]).aggregate([])

    edges = (_sized_read(f"{sf_dir}/lineitem.parquet",
                             columns=["l_suppkey", "l_partkey"],
                             filter=pads.field("l_quantity") == 50.0)
             .map_batches(to_edges, batch_format="pyarrow"))
    return connected_components(edges)


def q_part_pagerank(sf_dir: str):
    """PageRank over the co-ordered-parts graph (each undirected edge as
    two directed edges), 6 power-iteration rounds. The symmetrized graph
    has no dangling nodes, so the fixpoint is a recursive-CTE power
    iteration in DuckDB — full oracle (same pattern as part_ppr);
    exactness additionally pytest-pinned against a dense numpy power
    iteration at 20 rounds."""
    import pyarrow as pa
    from agraph_ray.ops.graph_algo import pagerank

    def both_dirs(t: "pa.Table") -> "pa.Table":
        return pa.table({
            "src": pa.concat_arrays([t["a"].combine_chunks(),
                                     t["b"].combine_chunks()]),
            "dst": pa.concat_arrays([t["b"].combine_chunks(),
                                     t["a"].combine_chunks()])})

    edges = _coorder_part_edges(sf_dir).map_batches(
        both_dirs, batch_format="pyarrow")
    out = pagerank(edges, damping=0.85, iters=6,
                   assume_no_dangling=True, round_to=None)
    return out.map_batches(
        lambda t: pa.table({
            "node": t["node"],
            "rank_e6": pc.cast(pc.floor(pc.add(
                pc.multiply(t["rank"], 1e6), 0.5)), pa.int64())}),
        batch_format="pyarrow")


def q_part_kcore(sf_dir: str):
    """80-core of the co-ordered-parts graph: the densely co-purchased
    part cluster after iterative peeling — (node, deg-in-core).
    Iterative fixpoint, not SQL-expressible; rows-only, exactness
    pytest-pinned against brute-force peeling."""
    from agraph_ray.ops.graph_algo import k_core
    return k_core(_coorder_part_edges(sf_dir), k=80)


def q_part_communities(sf_dir: str):
    """Label-propagation communities over the co-ordered-parts graph —
    (node, community) with the community id = its smallest member.
    Iterative fixpoint, not SQL-expressible; rows-only, exactness
    pytest-pinned (distributed path == driver path label-for-label)."""
    from agraph_ray.ops.graph_algo import label_propagation
    return label_propagation(_coorder_part_edges(sf_dir), iters=10)


def q_full_outer_parts(sf_dir: str):
    """FULL OUTER co-group join: large parts (p_size >= 48) vs
    heavily-ordered partkeys (lineitem count >= 8) — unmatched rows
    survive from BOTH sides with NULLs for the absent side."""
    import pyarrow as pa
    import pyarrow.dataset as pads
    import ray.data as rd
    from agraph_ray.ops.join import cogroup_join

    left = (_sized_read(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_brand"],
                            filter=pads.field("p_size") >= 48)
            .rename_columns({"p_partkey": "partkey"}))

    def part_counts(t: "pa.Table") -> "pa.Table":
        return t.group_by(["l_partkey"]).aggregate([("l_partkey", "count")])

    from agraph_ray.stages.common import keyed_sum
    right = (keyed_sum(_sized_read(f"{sf_dir}/lineitem.parquet",
                                   columns=["l_partkey"])
                       .map_batches(part_counts, batch_format="pyarrow"),
                       ["l_partkey"], {"l_partkey_count": "cnt"},
                       key_schema=[pa.field("l_partkey", pa.int64())])
             .filter(expr="cnt >= 8")
             .rename_columns({"l_partkey": "partkey"}))
    return cogroup_join(left, right, on=["partkey"], how="full")


def q_events_click_attrib(sf_dir: str):
    """Attribution range join: every click by the same user in the 24h
    window before each purchase."""
    import pyarrow.dataset as pads
    import ray.data as rd
    from agraph_ray.ops.join import range_join
    day = 86400 * 1_000_000

    def side(kind):   # row-group/page-level predicate pushdown at the read
        return _sized_read(f"{sf_dir}/events.parquet",
                               columns=["event_id", "ts", "user_id"],
                               filter=pads.field("event_type") == kind)

    purchases = side("purchase")
    clicks = side("click").rename_columns(
        {"event_id": "click_id", "ts": "click_ts"})
    out = range_join(purchases, clicks,
                     left_by="user_id", right_by="user_id",
                     left_on="ts", right_on="click_ts",
                     before_us=day, after_us=0)
    return (out.select_columns(["event_id", "user_id", "click_id",
                                "click_ts"])
            .rename_columns({"click_ts": "click_ts_us"}))


def q_docs_tfidf(sf_dir: str):
    """Top-5 TF-IDF terms per document (smoothed idf, word-asc ties)."""
    import ray.data as rd
    from agraph_ray.ops.text import tfidf_top_terms
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return _scale_cols(tfidf_top_terms(ds, k=5), {"score": 10**6})


def q_docs_top_trigrams(sf_dir: str):
    """Global top-20 word trigrams (combiner, ties by gram asc)."""
    import ray.data as rd
    from agraph_ray.ops.text import top_ngrams
    ds = _sized_read(f"{sf_dir}/documents.parquet", columns=["text"])
    return top_ngrams(ds, n=3, k=20)


_CONTAM_NEEDLES = ["hash join", "table scan", "sort merge",
                   "spark window", "vector join"]


def q_docs_contamination(sf_dir: str):
    """Benchmark-leakage scan: docs containing any needle substring."""
    import ray.data as rd
    from agraph_ray.ops.text import scan_contains
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return scan_contains(ds, _CONTAM_NEEDLES)


def q_docs_redact(sf_dir: str):
    """Regex scrub of flagged tokens (PII-removal shape)."""
    import ray.data as rd
    from agraph_ray.ops.text import redact_pattern
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return redact_pattern(ds, r"(spark|hash)", "[X]").select_columns(
        ["doc_id", "redacted"])


def q_lineitem_exact_quantiles(sf_dir: str):
    """Exact corpus-wide price quantiles via radix selection (no sort,
    no driver materialization)."""
    import ray.data as rd
    from agraph_ray.ops.stats import exact_quantiles
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_extendedprice"])
    df = exact_quantiles(ds, "l_extendedprice", qs=(0.25, 0.5, 0.75, 0.99))
    import numpy as np
    df["q_pct"] = np.floor(df["q"] * 100 + 0.5).astype("int64")
    df["value"] = np.floor(df["value"] * 100 + 0.5).astype("int64")
    return df[["q_pct", "value"]]


def q_events_user_type_distinct(sf_dir: str):
    """Exact distinct event types per user (pair-combiner + keyed reduce)."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_count_distinct
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    return grouped_count_distinct(ds, "user_id", "event_type")


def q_docs_sample(sf_dir: str):
    """Deterministic 25% Bernoulli sample by doc_id hash bucket."""
    import ray.data as rd
    from agraph_ray.ops.stats import hash_sample
    ds = _sized_read(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    return hash_sample(ds, "doc_id", 0.25)


def q_events_stratified(sf_dir: str):
    """Deterministic 50-per-event-type stratum sample (hash-ranked)."""
    import ray.data as rd
    from agraph_ray.ops.stats import stratified_sample
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type"])
    return stratified_sample(ds, "event_type", "event_id", 50)


def q_lineitem_quantiles(sf_dir: str):
    """Exact per-returnflag price quantiles (distributed co-grouped sort,
    nearest-rank half-up on the (n-1) scale)."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_quantiles
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])
    out = grouped_quantiles(ds, "l_returnflag", "l_extendedprice",
                            qs=(0.25, 0.5, 0.75))
    return _scale_cols(out, {"q25": 100, "q50": 100, "q75": 100})


def q_orders_date_stats(sf_dir: str):
    """min/max date + count per order status (date + string kernels)."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Max, Min

    def prep(t: pa.Table) -> pa.Table:
        d = pc.cast(pc.cast(t["o_orderdate"], pa.date32()), pa.int32())
        return pa.table({"o_orderstatus": t["o_orderstatus"],
                         "d": d})

    out = (_sized_read(f"{sf_dir}/orders.parquet",
                           columns=["o_orderstatus", "o_orderdate"])
           .map_batches(prep, batch_format="pyarrow")
           .groupby("o_orderstatus")
           .aggregate(Count(alias_name="n"),
                      Min("d", alias_name="first_day"),
                      Max("d", alias_name="last_day")))
    return out


def q_part_type_tokens(sf_dir: str):
    """String kernels: upper/split/substring over p_type, grouped."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    def prep(t: pa.Table) -> pa.Table:
        first = pc.utf8_upper(
            pc.list_element(pc.split_pattern(t["p_type"], " "), 0))
        return pa.table({"type_head": first})

    return (_sized_read(f"{sf_dir}/part.parquet", columns=["p_type"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby("type_head").aggregate(Count(alias_name="n")))


def q_supplier_acct_by_nation(sf_dir: str):
    """supplier ⋈ nation (broadcast) + per-nation balance stats."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    from agraph_ray.ops.join import broadcast_join
    sup = _sized_read(f"{sf_dir}/supplier.parquet",
                          columns=["s_nationkey", "s_acctbal"])
    nat = (_sized_read(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"])
           .map_batches(lambda t: t.rename_columns(["s_nationkey", "n_name"]),
                        batch_format="pyarrow"))
    out = (broadcast_join(sup, nat, on="s_nationkey", columns=["n_name"])
           .groupby("n_name")
           .aggregate(Count(alias_name="n_suppliers"),
                      Sum("s_acctbal", alias_name="total_bal")))
    return _scale_cols(out, {"total_bal": 100})


def q_events_json_extract(sf_dir: str):
    """JSON scalar kernel: extract props.k, aggregate per event type."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count, Sum

    def prep(t: pa.Table) -> pa.Table:
        ks = pc.struct_field(
            pc.extract_regex(t["props"], r'"k": (?P<k>\d+)'), "k")
        return pa.table({"event_type": t["event_type"],
                         "k": pc.cast(ks, pa.int64())})

    return (_sized_read(f"{sf_dir}/events.parquet",
                            columns=["event_type", "props"])
            .map_batches(prep, batch_format="pyarrow")
            .groupby("event_type")
            .aggregate(Count(alias_name="n"), Sum("k", alias_name="sum_k")))


def q_union_region_nation(sf_dir: str):
    """Dataset.union of two sources with a type tag."""
    import pyarrow as pa
    import ray.data as rd

    def tag(col, kind):
        def f(t: pa.Table) -> pa.Table:
            return pa.table({"name": t[col],
                             "kind": pa.array([kind] * len(t))})
        return f

    r = _sized_read(f"{sf_dir}/region.parquet", columns=["r_name"]) \
        .map_batches(tag("r_name", "region"), batch_format="pyarrow")
    n = _sized_read(f"{sf_dir}/nation.parquet", columns=["n_name"]) \
        .map_batches(tag("n_name", "nation"), batch_format="pyarrow")
    return r.union(n)


# ---------------------------------------------------------------------------
# KG analytics / maintenance surfaces (rows-only: non-SQL-expressible)
# ---------------------------------------------------------------------------

_KG_CACHE: dict = {}


def _kg(sf_dir: str):
    """Materialized (nodes, edges) for the sf-derived transcript KG —
    cached per sf_dir so the analytics queries don't re-run the build."""
    if sf_dir not in _KG_CACHE:
        from agraph_ray.config import KGConfig
        from agraph_ray.pipelines.kg_build import kg_tables
        from agraph_ray.synth import transcripts_from_documents
        ds = transcripts_from_documents(sf_dir)
        nodes, edges, _ = kg_tables(ds, KGConfig(turn_separator=""))
        _KG_CACHE[sf_dir] = (nodes.materialize(), edges.materialize())
    return _KG_CACHE[sf_dir]


def q_kg_statistics(sf_dir: str):
    import pandas as pd
    from agraph_ray.ops.graph import graph_statistics
    nodes, edges = _kg(sf_dir)
    s = graph_statistics(nodes, edges)
    return pd.DataFrame([{
        "total_entities": s["total_entities"],
        "total_relations": s["total_relations"],
        "n_entity_types": len(s["entity_types"]),
        "n_relation_types": len(s["relation_types"]),
        "max_degree": s["degree_statistics"]["max_degree"],
        "components": s["connectivity"]["components"],
    }])


def q_kg_validate(sf_dir: str):
    import pandas as pd
    from agraph_ray.ops.graph import validate_graph
    nodes, edges = _kg(sf_dir)
    issues = validate_graph(nodes, edges).to_pandas()
    if issues.empty:
        return pd.DataFrame([{"issue_type": "none", "n": 0}])
    return (issues.groupby("issue_type").size().reset_index(name="n")
            .sort_values("issue_type").reset_index(drop=True))


def q_kg_inferred_relations(sf_dir: str):
    from agraph_ray.ops.graph import infer_implicit_relations
    nodes, edges = _kg(sf_dir)
    return (infer_implicit_relations(nodes, edges)
            .select_columns(["relation_id", "subj", "relation_type", "obj",
                             "confidence", "source"]))


_LINKED_CACHE: dict = {}


def _linked_chunks(sf_dir: str):
    """Materialized linked-chunks table, cached per sf_dir."""
    if sf_dir not in _LINKED_CACHE:
        from agraph_ray.config import KGConfig
        from agraph_ray.stages.chunk import chunk_documents
        from agraph_ray.stages.link_chunks import link_chunks
        from agraph_ray.stages.reassemble import reassemble
        from agraph_ray.synth import transcripts_from_documents
        cfg = KGConfig(turn_separator="")
        docs = reassemble(transcripts_from_documents(sf_dir), cfg,
                          detect_hot=False)
        chunks = chunk_documents(docs, cfg)
        nodes, edges = _kg(sf_dir)
        _LINKED_CACHE[sf_dir] = link_chunks(chunks, nodes,
                                            edges).materialize()
    return _LINKED_CACHE[sf_dir]


def q_kg_linked_chunks(sf_dir: str):
    import pyarrow as pa
    linked = _linked_chunks(sf_dir)
    return linked.map_batches(
        lambda t: pa.table({
            "chunk_id": t["chunk_id"],
            "n_entities": pc.list_value_length(t["entities"]),
            "n_relations": pc.list_value_length(t["relations"])}),
        batch_format="pyarrow")


def q_kg_retrieval(sf_dir: str):
    import pandas as pd
    from agraph_ray.retrieval import KnowledgeRetriever
    nodes, edges = _kg(sf_dir)
    kr = KnowledgeRetriever(nodes=nodes, edges=edges)
    res = kr.search_knowledge("Alice Johnson works for Google", top_k=5)
    rows = []
    for kind, hits in res.items():
        for rank, h in enumerate(hits):
            rows.append({"kind": kind, "rank": rank,
                         "ref": h.get("entity_id") or h.get("relation_id")
                         or h.get("chunk_id")})
    return pd.DataFrame(rows)


def q_kg_retrieval_enhanced(sf_dir: str):
    """Enhanced 3-way retrieval with connected-chunk expansion over the
    sf-derived KG + linked chunks (rows-only: embedding retrieval)."""
    import pandas as pd
    from agraph_ray.retrieval import KnowledgeRetriever
    nodes, edges = _kg(sf_dir)
    kr = KnowledgeRetriever(nodes=nodes, edges=edges,
                            chunks=_linked_chunks(sf_dir))
    res = kr.search_knowledge_enhanced("Alice Johnson works for Google",
                                       top_k=5, similarity_threshold=0.2)
    rows = []
    for kind, hits in res.items():
        for rank, h in enumerate(hits):
            rows.append({"kind": kind, "rank": rank,
                         "ref": h.get("entity_id") or h.get("relation_id")
                         or h.get("chunk_id")})
    return pd.DataFrame(rows)


def q_schema_entities(sf_dir: str):
    """DB-schema extraction over the testdata tables' own parquet schemas
    (deterministic columns table built from file metadata)."""
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray.data as rd
    from agraph_ray.ops.db_schema import extract_schema_entities
    rows = []
    for t in ["region", "nation", "customer", "supplier", "part", "orders",
              "lineitem", "events", "documents", "embeddings"]:
        sch = pq.read_schema(f"{sf_dir}/{t}.parquet")
        for f in sch:
            rows.append({"database": "testdata", "table_name": t,
                         "column_name": f.name, "data_type": str(f.type),
                         "is_primary_key": False, "fk_table": None,
                         "fk_column": None, "table_comment": None,
                         "column_comment": None})
    cols = rd.from_arrow(pa.Table.from_pylist(rows))
    return (extract_schema_entities(cols)
            .select_columns(["entity_id", "name", "entity_type",
                             "confidence"]))


def _formatted_documents(sf_dir: str):
    """Documents table re-rendered as a 9-format round-robin corpus
    (md/json/csv/html/docx/xlsx/pdf/doc/xls by doc_id; office payloads built
    in-process by the stdlib builders) — shared by parse_documents and
    doc_metadata."""
    import json as _json
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.officefmt import make_docx, make_pdf, make_xlsx
    from agraph_ray.ops.olefmt import make_doc, make_xls

    def to_formats(t: pa.Table) -> pa.Table:
        fmts, contents, blobs = [], [], []
        for did, text in zip(t["doc_id"].to_pylist(),
                             t["text"].to_pylist()):
            text = text or ""
            fmt = ["md", "json", "csv", "html",
                   "docx", "xlsx", "pdf", "doc", "xls"][did % 9]
            blob = None
            if fmt == "md":
                contents.append(f"# doc {did}\n\n**{text}**")
            elif fmt == "json":
                contents.append(_json.dumps({"body": text}))
            elif fmt == "csv":
                safe = text.replace('"', "'")
                contents.append(f'body\n"{safe}"')
            elif fmt == "html":
                import html as _html
                contents.append(f"<p>{_html.escape(text)}</p>")
            else:
                lines = [ln for ln in text.split(". ") if ln][:8]
                if fmt == "docx":
                    blob = make_docx(lines or [text])
                elif fmt == "xlsx":
                    blob = make_xlsx(
                        {"doc": [["body"]] + [[ln] for ln in
                                              (lines or [text])]})
                elif fmt == "pdf":
                    blob = make_pdf(lines or [text])
                elif fmt == "doc":
                    blob = make_doc("\n".join(lines or [text]))
                else:
                    blob = make_xls(
                        {"doc": [["body"]] + [[ln] for ln in
                                              (lines or [text])]})
                contents.append(None)
            fmts.append(fmt)
            blobs.append(blob)
        return pa.table({"doc_id": t["doc_id"],
                         "content": pa.array(contents, pa.string()),
                         "content_binary": pa.array(blobs, pa.binary()),
                         "format": pa.array(fmts, pa.string())})

    return (_sized_read(f"{sf_dir}/documents.parquet",
                        columns=["doc_id", "text"])
            .map_batches(to_formats, batch_format="pyarrow"))


def q_parse_documents(sf_dir: str):
    """Parser registry over deterministically formatted variants of the
    documents table (md/json/csv/html/docx/xlsx/pdf/doc/xls round-robin by
    doc_id — the binary office formats are generated in-process by the
    stdlib builders and parsed back by the stdlib parsers)."""
    import pyarrow as pa
    from agraph_ray.ops.parse import parse_documents
    out = parse_documents(_formatted_documents(sf_dir))
    return out.map_batches(
        lambda t: pa.table({
            "doc_id": t["doc_id"], "format": t["format"],
            "n_chars": pc.binary_length(t["text"])}),
        batch_format="pyarrow")


# ---------------------------------------------------------------------------
# sequence packing / sampling / stream dedup / conversation analytics
# ---------------------------------------------------------------------------

def q_lineitem_melt(sf_dir: str):
    """Wide→long unpivot of four lineitem measures (zero-shuffle)."""
    import ray.data as rd
    from agraph_ray.ops.stats import melt
    ds = _sized_read(
        f"{sf_dir}/lineitem.parquet",
        columns=["l_orderkey", "l_linenumber", "l_quantity",
                 "l_extendedprice", "l_discount", "l_tax"])
    out = melt(ds, ["l_orderkey", "l_linenumber"],
               ["l_quantity", "l_extendedprice", "l_discount", "l_tax"],
               var_name="measure", value_name="v")
    return _scale_cols(out, {"v": 100})


def q_events_zscore(sf_dir: str):
    """Per-event-type population z-score of the value column (combiner
    stats + broadcast, no row shuffle)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_zscore
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "event_type", "value"])
    out = grouped_zscore(ds, "event_type", "value")
    return _scale_cols(out.select_columns(
        ["event_id", "event_type", "z"]), {"z": 10**6})


def q_events_funnel(sf_dir: str):
    """Ordered view→click→purchase funnel per user (each stage strictly
    after the first event of the previous stage)."""
    import ray.data as rd
    from agraph_ray.ops.window import funnel_depths
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type", "ts"])
    return funnel_depths(ds, "user_id", "ts", "event_type",
                         ["view", "click", "purchase"])


def q_docs_pack_concat(sf_dir: str):
    """Concat-and-cut sequence packing of documents into 512-token
    training sequences (global doc_id order; distributed prefix sum)."""
    import ray.data as rd
    from agraph_ray.ops.pack import pack_concat
    from agraph_ray.ops.text import add_token_count
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    toks = ds.map_batches(lambda t: add_token_count(t).drop(["text"]),
                          batch_format="pyarrow")
    return pack_concat(toks, "token_count", cap=512, order_col="doc_id")


def q_docs_pack_greedy(sf_dir: str):
    """First-fit-decreasing bin packing into ≤512-token bins within hash
    partitions (bin layout is an iterative greedy — rows-only; invariants
    pytest-pinned)."""
    import ray.data as rd
    from agraph_ray.ops.pack import pack_greedy
    from agraph_ray.ops.text import add_token_count
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    toks = ds.map_batches(lambda t: add_token_count(t).drop(["text"]),
                          batch_format="pyarrow")
    return pack_greedy(toks, "token_count", cap=512, id_col="doc_id")


def q_docs_prep_pipeline(sf_dir: str):
    """Composed end-to-end training-data prep, every stage exact vs the
    oracle: Gopher/C4 quality filter → exact dedup (min-id per content
    hash) → token counts → concat-and-cut packing into 512-token
    sequences → deterministic 95/5 train/val split by id hash. No text
    rides any shuffle: the dedup shuffles (hash, id, token_count), the
    pack shuffles counts only."""
    import hashlib

    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.pack import pack_concat
    from agraph_ray.ops.stats import _key_hash32
    from agraph_ray.ops.text import add_corpus_filter, add_token_count
    from agraph_ray.stages.common import bucketed_group_reduce

    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def filter_and_sig(t: pa.Table) -> pa.Table:
        t = add_corpus_filter(t)
        t = t.filter(t["keep"])
        t = add_token_count(t)
        h = [hashlib.md5(s.encode("utf-8")).hexdigest()
             for s in t["text"].to_pylist()]
        return pa.table({"doc_id": t["doc_id"],
                         "token_count": t["token_count"],
                         "h": pa.array(h, pa.string())})

    sigs = docs.map_batches(filter_and_sig, batch_format="pyarrow")
    survivors = bucketed_group_reduce(
        sigs, ["h"],
        lambda df: df.sort_values("doc_id").drop_duplicates("h"),
        schema=pa.schema([("doc_id", pa.int64()),
                          ("token_count", pa.int64()),
                          ("h", pa.string())])).drop_columns(["h"])
    packed = pack_concat(survivors, "token_count", cap=512,
                         order_col="doc_id")

    def add_split(t: pa.Table) -> pa.Table:
        hv = _key_hash32(t["doc_id"].to_pylist()) % np.uint64(100)
        return t.append_column(
            "split", pa.array(np.where(hv < 95, "train", "val")))

    return packed.map_batches(add_split, batch_format="pyarrow")


def q_docs_dup_ngrams(sf_dir: str):
    """Per-document duplicated-8-gram occurrence counts (the substring-
    dedup signal from Lee et al. 2022)."""
    import ray.data as rd
    from agraph_ray.ops.text import duplicate_ngram_stats
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return duplicate_ngram_stats(ds, n=8, min_count=2)


def q_events_window_dedup(sf_dir: str):
    """Earliest event per (user, type) per 1-hour tumbling window."""
    import ray.data as rd
    from agraph_ray.ops.window import window_dedup
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["event_id", "user_id", "event_type", "ts"])
    out = window_dedup(ds, ["user_id", "event_type"], "ts",
                       width_sec=3600, tie_col="event_id")
    return out.select_columns(["event_id", "user_id", "event_type",
                               "window_start"])


def q_supplier_neighbor_sample(sf_dir: str):
    """Deterministic 5-neighbor sample per supplier over the
    supplier–part co-purchase graph (GNN fan-out primitive)."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import sample_neighbors
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])
    return sample_neighbors(ds, "l_suppkey", "l_partkey", k=5)


def q_emb_nn_join(sf_dir: str):
    """Exact nearest-neighbor join: odd-id vectors against the even-id
    index side (zero-shuffle stream×broadcast)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.similarity import embedding_join

    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])

    def parity(p: int):
        def f(t: pa.Table) -> pa.Table:
            ids = pc.cast(t["vec_id"], pa.int64())
            return t.filter(pc.equal(pc.bit_wise_and(ids, 1), p))
        return f

    a = ds.map_batches(parity(1), batch_format="pyarrow")
    b = ds.map_batches(parity(0), batch_format="pyarrow")
    return _scale_cols(embedding_join(a, b, k=3), {"sim": 10**6})


def q_ann_recall_lsh(sf_dir: str):
    """Per-query recall@10 of the LSH ANN path against the exact top-10
    (retrieval-quality eval; approximate input, so rows-only)."""
    import ray.data as rd
    from agraph_ray.ops.similarity import (recall_at_k, topk_cosine,
                                           topk_cosine_lsh)
    vecs, ids = _load_queries(sf_dir)
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    exact = topk_cosine(ds, vecs, query_ids=ids, k=10)
    approx = topk_cosine_lsh(ds, vecs, query_ids=ids, k=10)
    return recall_at_k(approx, exact, k=10)


def q_ann_ndcg_ivf(sf_dir: str):
    """Per-query nDCG@10 of the IVF ANN path against the exact top-10 —
    position-sensitive retrieval quality (rows-only)."""
    import ray.data as rd
    from agraph_ray.ops.similarity import (ndcg_at_k, topk_cosine,
                                           topk_cosine_ivf)
    vecs, ids = _load_queries(sf_dir)
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    exact = topk_cosine(ds, vecs, query_ids=ids, k=10)
    approx = topk_cosine_ivf(ds, vecs, query_ids=ids, k=10)
    return ndcg_at_k(approx, exact, k=10)


def q_docs_corpus_drift(sf_dir: str):
    """Jensen-Shannon divergence between the even- and odd-doc_id halves
    of the corpus (the train-snapshot vs fresh-crawl drift monitor)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.text import corpus_js_divergence

    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def half(parity: int):
        def f(t: pa.Table) -> pa.Table:
            ids = pc.cast(t["doc_id"], pa.int64())
            return t.filter(pc.equal(
                pc.bit_wise_and(ids, 1), parity))
        return f

    a = docs.map_batches(half(0), batch_format="pyarrow")
    b = docs.map_batches(half(1), batch_format="pyarrow")
    return corpus_js_divergence(a, b)


def q_events_trending(sf_dir: str):
    """Top-3 event types per day by count (windowed top-k: tumbling
    window groupby + per-window ranked head)."""
    import pyarrow as pa
    import ray.data as rd
    from ray.data.aggregate import Count

    from agraph_ray.stages.common import bucketed_group_reduce

    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["ts", "event_type"])

    def add_day(t: pa.Table) -> pa.Table:
        us = pc.cast(t["ts"], pa.int64())
        return t.append_column(
            "day", pc.cast(pc.divide(us, 86_400_000_000), pa.int64()))

    counts = (ds.map_batches(add_day, batch_format="pyarrow")
              .groupby(["day", "event_type"])
              .aggregate(Count(alias_name="n")))

    def topk(df):
        df = df.sort_values(["n", "event_type"],
                            ascending=[False, True], kind="stable")
        out = df.groupby("day", sort=False).head(3).copy()
        out["rank"] = out.groupby("day", sort=False).cumcount() + 1
        return out[["day", "event_type", "n", "rank"]]

    return bucketed_group_reduce(
        counts, ["day"], topk, num_buckets=16,
        schema=pa.schema([("day", pa.int64()),
                          ("event_type", pa.string()),
                          ("n", pa.int64()), ("rank", pa.int64())]))


_BM25_QUERIES = {0: ["table", "scan", "fast"],
                 1: ["window", "agg", "batch"],
                 2: ["customer", "query"],
                 3: ["spark", "stream"]}


def q_docs_bm25(sf_dir: str):
    """BM25 top-10 documents for 4 pinned term queries (lexical
    retrieval; integer-scaled scores so ranking is float-noise-proof)."""
    import ray.data as rd
    from agraph_ray.ops.text import bm25_topk
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return bm25_topk(ds, _BM25_QUERIES, k=10)


def q_docs_scd2(sf_dir: str):
    """SCD-type-2 MERGE: apply two deterministic update waves (ts 100
    for doc_id%7, ts 200 for doc_id%14) to a versioned history of the
    documents table; open rows close at the next version's start."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.setops import OPEN_SENTINEL, scd2_apply
    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "lang"])

    def as_hist(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"], "lang": t["lang"],
            "valid_from": pa.array([0] * len(t), pa.int64()),
            "valid_to": pa.array([OPEN_SENTINEL] * len(t), pa.int64())})

    def wave(m: int, lang: str, ts: int):
        def f(t: pa.Table) -> pa.Table:
            rem = pc.subtract(t["doc_id"],
                              pc.multiply(pc.divide(t["doc_id"], m), m))
            t = t.filter(pc.equal(rem, 0))
            return pa.table({
                "doc_id": t["doc_id"],
                "lang": pa.array([lang] * len(t), pa.string()),
                "ts": pa.array([ts] * len(t), pa.int64())})
        return f

    hist = docs.map_batches(as_hist, batch_format="pyarrow")
    upd = (docs.map_batches(wave(7, "xx", 100), batch_format="pyarrow")
           .union(docs.map_batches(wave(14, "yy", 200),
                                   batch_format="pyarrow")))
    return scd2_apply(hist, upd, ["doc_id"], "ts")


def q_docs_curation_v2(sf_dir: str):
    """Composed curation pipeline v2, one oracle for the whole chain:
    held-out eval split → exact dedup (min-id per content hash, Bloom
    semi join pulls survivors) → 8-gram benchmark decontamination
    (drop) → token counts + deterministic 95/5 split. Text never rides
    a shuffle (hashes and gram strings only)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.dedup import exact_dedup
    from agraph_ray.ops.join import auto_join
    from agraph_ray.ops.stats import _key_hash32
    from agraph_ray.ops.text import add_token_count, decontaminate_ngrams
    docs = _sized_read(f"{sf_dir}/documents.parquet",
                           columns=["doc_id", "text"])

    def mod_split(want_eval: bool):
        def f(t: pa.Table) -> pa.Table:
            rem = pc.subtract(t["doc_id"],
                              pc.multiply(pc.divide(t["doc_id"], 10), 10))
            m = pc.equal(rem, 0)
            return t.filter(m if want_eval else pc.invert(m))
        return f

    train = docs.map_batches(mod_split(False), batch_format="pyarrow")
    ev = docs.map_batches(mod_split(True), batch_format="pyarrow")
    surv_ids = exact_dedup(train)                      # (hash, min doc_id)
    deduped = auto_join(train, surv_ids.select_columns(["doc_id"]),
                        ["doc_id"], how="semi")
    kept = decontaminate_ngrams(deduped, ev, n=8, mode="drop")

    def finish(t: pa.Table) -> pa.Table:
        t = add_token_count(t)
        hv = _key_hash32(t["doc_id"].to_pylist()) % np.uint64(100)
        return pa.table({
            "doc_id": t["doc_id"],
            "token_count": t["token_count"],
            "split": pa.array(np.where(hv < 95, "train", "val"))})

    return _pandas_safe(
        kept.map_batches(finish, batch_format="pyarrow"),
        schema=pa.schema([("doc_id", pa.int64()),
                          ("token_count", pa.int64()),
                          ("split", pa.string())]))


def q_lineitem_expectations(sf_dir: str):
    """Data-quality expectations report: not-null / range / regex /
    uniqueness rules checked in one shared combiner pass plus one
    distinct-count."""
    import ray.data as rd
    from agraph_ray.ops.stats import validate_expectations
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber",
                                  "l_quantity", "l_returnflag"])
    return validate_expectations(ds, [
        {"type": "not_null", "col": "l_orderkey"},
        {"type": "in_range", "col": "l_quantity", "lo": 1, "hi": 50},
        {"type": "matches", "col": "l_returnflag", "pattern": "^[ANR]$"},
        {"type": "unique", "col": "l_orderkey"},
    ])


def q_events_attrib_linear(sf_dir: str):
    """Linear multi-touch attribution: each purchase's credit splits
    evenly over the user's preceding view/click touches (next-conversion
    assignment)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.window import linear_attribution
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_id",
                                  "event_type"])
    out = linear_attribution(ds, "user_id", "ts", "event_id",
                             "event_type", ["view", "click"])
    return _scale_cols(out, {"credit": 1_000_000}).map_batches(
        lambda t: t.rename_columns(["event_type", "n_touches",
                                    "credit_micro"]),
        batch_format="pyarrow").sort("event_type")


def q_docs_cdc_dedup(sf_dir: str):
    """Content-defined-chunking dedup statistics over the corpus bytes
    (gear rolling hash, boundaries move with content). Byte-level
    chunking isn't SQL-expressible — rows-only."""
    import ray.data as rd
    from agraph_ray.ops.dedup import cdc_chunk_stats
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return cdc_chunk_stats(ds, mask_bits=9)


def q_events_transitions(sf_dir: str):
    """Markov transition counts between consecutive event types per user
    ((ts, event_id)-pinned order) — the user-journey matrix."""
    import ray.data as rd
    from agraph_ray.ops.window import event_transitions
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "event_type",
                                  "event_id"])
    return event_transitions(ds, "user_id", "ts", "event_type",
                             "event_id")


def q_lineitem_means(sf_dir: str):
    """Per-group arithmetic/geometric/harmonic means from one combiner
    pass of (n, Σv, Σln v, Σ1/v) partials."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_means
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_quantity"])
    out = grouped_means(ds, "l_returnflag", "l_quantity")
    return _scale_cols(out, {"mean_v": 1000, "geomean_v": 1000,
                             "harmean_v": 1000})


def q_events_cohorts(sf_dir: str):
    """Weekly cohort retention: users bucketed by first-event week,
    distinct active users per (cohort, week)."""
    import ray.data as rd
    from agraph_ray.ops.window import cohort_retention
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts"])
    return cohort_retention(ds, "user_id", "ts")


def q_docs_word_pmi(sf_dir: str):
    """Top-100 word-pair collocations by document co-occurrence with PMI
    (capped per-doc distinct sets, SQL-reproducible cap rule)."""
    import ray.data as rd
    from agraph_ray.ops.text import word_pmi
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return word_pmi(ds, max_words=64, k=100)


def q_docs_hybrid_search(sf_dir: str):
    """Hybrid retrieval: BM25 lexical ranking ⊕ dense cosine ranking
    over feature-hashed vectors, merged with reciprocal-rank fusion.
    Rank arithmetic is integer-scaled; rows-only (the dense leg's
    iterative hash vectors aren't SQL-expressible)."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.ml import hash_vectorize
    from agraph_ray.ops.similarity import rrf_fuse, topk_cosine
    from agraph_ray.ops.stats import _key_hash32
    from agraph_ray.ops.text import bm25_topk
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    lex = bm25_topk(ds, _BM25_QUERIES, k=10)
    dim = 32
    vecs = hash_vectorize(ds, dim=dim)
    qm = np.zeros((len(_BM25_QUERIES), dim))
    for qi, terms in _BM25_QUERIES.items():
        for t in terms:
            qm[qi, int(_key_hash32([t])[0] % np.uint64(dim))] += 1.0
    dense = topk_cosine(vecs, qm, query_ids=list(_BM25_QUERIES), k=10,
                        vec_col="embedding", id_col="doc_id")
    dense = dense.map_batches(
        lambda t: t.select(["query_id", "doc_id", "rank"]),
        batch_format="pyarrow")
    lex = lex.map_batches(
        lambda t: t.select(["query_id", "doc_id", "rank"]),
        batch_format="pyarrow")
    return rrf_fuse([lex, dense], topk=10)


def q_kg_negative_samples(sf_dir: str):
    """Deterministic 2-per-edge negative sampling over the supplier→part
    graph (KG-embedding training corruption, hash-pick from the part
    pool)."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import negative_sample_edges
    edges = _sized_read(f"{sf_dir}/lineitem.parquet",
                            columns=["l_suppkey", "l_partkey"])
    pool = _sized_read(f"{sf_dir}/part.parquet", columns=["p_partkey"])
    return negative_sample_edges(edges, "l_suppkey", "l_partkey",
                                 pool, "p_partkey", k=2)


def q_conv_stats(sf_dir: str):
    """Per-conversation turn/role/char statistics off the transcripts."""
    from agraph_ray.stages.reassemble import conversation_stats
    from agraph_ray.synth import transcripts_from_documents
    return conversation_stats(transcripts_from_documents(sf_dir))


def q_lineitem_corr(sf_dir: str):
    """Per-returnflag Pearson correlation + regression line of
    extendedprice on quantity (moment-sum combiner; only |groups| rows
    of sums ride the shuffle)."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_corr
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_quantity",
                                  "l_extendedprice"])
    out = grouped_corr(ds, "l_returnflag", "l_quantity", "l_extendedprice")
    return _scale_cols(out, {"corr": 10**6, "slope": 10**4,
                             "intercept": 10**4})


def q_events_user_mode(sf_dir: str):
    """Most frequent event type per user (ties → lexicographically
    smallest) — exact integer counts, combiner + one bucketed argmax."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_mode
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    return grouped_mode(ds, "user_id", "event_type")


def q_user_event_entropy(sf_dir: str):
    """Shannon entropy of each user's event-type distribution (corpus
    diversity signal; counts combiner, one bucketed reduce)."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_entropy
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "event_type"])
    out = grouped_entropy(ds, "user_id", "event_type")
    return _scale_cols(out, {"entropy": 10**6})


def q_region_nation_concat(sf_dir: str):
    """Ordered string_agg: nation names per region, comma-joined in name
    order (deterministic total order under any shuffle)."""
    import ray.data as rd
    from agraph_ray.ops.stats import group_concat
    ds = _sized_read(f"{sf_dir}/nation.parquet",
                         columns=["n_regionkey", "n_name"])
    return group_concat(ds, "n_regionkey", "n_name", order_col="n_name")


def q_docs_except(sf_dir: str):
    """SQL EXCEPT: distinct (lang, source) combos that occur among short
    documents but never among long ones — tagged-union bucketed set op,
    neither side collected."""
    import ray.data as rd
    from agraph_ray.ops.setops import except_distinct
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source", "n_chars"])
    short = ds.filter(expr="n_chars < 400").drop_columns(["n_chars"])
    long_ = ds.filter(expr="n_chars >= 400").drop_columns(["n_chars"])
    return _pandas_safe(except_distinct(short, long_))


def q_docs_intersect(sf_dir: str):
    """SQL INTERSECT: distinct (lang, source) combos present in both the
    short- and long-document halves."""
    import ray.data as rd
    from agraph_ray.ops.setops import intersect_distinct
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source", "n_chars"])
    short = ds.filter(expr="n_chars < 400").drop_columns(["n_chars"])
    long_ = ds.filter(expr="n_chars >= 400").drop_columns(["n_chars"])
    return _pandas_safe(intersect_distinct(short, long_))


def q_orders_row_number(sf_dir: str):
    """Global ROW_NUMBER over all orders by (totalprice, orderkey) —
    distributed two-pass rank, O(blocks) driver state."""
    import ray.data as rd
    from agraph_ray.ops.rank import global_row_number
    ds = _sized_read(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    out = global_row_number(ds, ["o_totalprice", "o_orderkey"])
    return out.select_columns(["o_orderkey", "rn"])


def q_orders_ntile(sf_dir: str):
    """NTILE(7) over all orders by (totalprice, orderkey) — exact
    equal-count range partitioner (SQL tile-size rule)."""
    import ray.data as rd
    from agraph_ray.ops.rank import global_ntile
    ds = _sized_read(f"{sf_dir}/orders.parquet",
                         columns=["o_orderkey", "o_totalprice"])
    out = global_ntile(ds, ["o_totalprice", "o_orderkey"], k=7)
    return out.select_columns(["o_orderkey", "tile"])


def q_events_resample(sf_dir: str):
    """Dense hourly resample per user: every hour between a user's first
    and last event, gaps zero-filled (combiner + vectorized per-bucket
    grid expansion)."""
    import ray.data as rd
    from agraph_ray.ops.window import dense_time_series
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    out = dense_time_series(ds, "user_id", "ts", width_sec=3600,
                            agg_col="value")
    return _scale_cols(out, {"sum_v": 100})


def q_docs_bpe_vocab(sf_dir: str):
    """Learn 60 BPE merges from the corpus (distributed word count →
    driver merge loop over the bounded vocab; Sennrich-style, ties
    pinned). Iterative global argmax — rows-only."""
    import ray.data as rd
    from agraph_ray.ops.bpe import learn_bpe
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    return learn_bpe(ds, num_merges=60)


def q_docs_bpe_encode(sf_dir: str):
    """Encode every document with the learned merges (actor pool, merge
    ranks built once per actor, unique-word memoization)."""
    import ray.data as rd
    from agraph_ray.ops.bpe import bpe_encode, learn_bpe
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    merges = learn_bpe(ds, num_merges=60)
    return bpe_encode(ds, merges).select_columns(
        ["doc_id", "n_words", "n_tokens"])


def q_lineitem_winsorize(sf_dir: str):
    """Corpus-wide 5/95-percentile winsorization of extendedprice —
    exercises the radix-select exact_quantiles under an oracle, then a
    pure map-side clip."""
    import ray.data as rd
    from agraph_ray.ops.stats import winsorize
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_linenumber",
                                  "l_extendedprice"])
    out = winsorize(ds, "l_extendedprice", 0.05, 0.95)
    return _scale_cols(out.select_columns(
        ["l_orderkey", "l_linenumber", "w"]), {"w": 100})


def q_docs_diff(sf_dir: str):
    """Snapshot diff between the short- and long-document (lang, source)
    sets: added/removed rows only."""
    import ray.data as rd
    from agraph_ray.ops.setops import table_diff
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["lang", "source", "n_chars"])
    short = ds.filter(expr="n_chars < 400").drop_columns(["n_chars"])
    long_ = ds.filter(expr="n_chars >= 400").drop_columns(["n_chars"])
    import pyarrow as pa
    return _pandas_safe(table_diff(short, long_),
                        schema=pa.schema([("lang", pa.string()),
                                          ("source", pa.string()),
                                          ("status", pa.string())]))


def q_emb_pca(sf_dir: str):
    """PCA-8 projection of the embeddings table (distributed d×d moment
    pass, driver eigh, map-side projection). Eigenbasis not
    SQL-expressible — rows-only."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.embedding import embedding_pca
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    _, _, proj = embedding_pca(ds, "embedding", k=8, id_col="vec_id")

    def first2(t: pa.Table) -> pa.Table:
        import pyarrow.compute as _pc
        return pa.table({
            "vec_id": t["vec_id"],
            "p0": _pc.round(_pc.list_element(t["pca"], 0), 6),
            "p1": _pc.round(_pc.list_element(t["pca"], 1), 6)})

    return proj.map_batches(first2, batch_format="pyarrow")


def q_lineitem_profile(sf_dir: str):
    """Table profile (ANALYZE/describe): per-column count/null/min/max/
    mean in ONE pass — |columns| partial rows per batch, never row
    count, ride the shuffle."""
    import ray.data as rd
    from agraph_ray.ops.stats import profile_table
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_quantity", "l_extendedprice",
                                  "l_returnflag", "l_linestatus"])
    out = profile_table(ds)
    return _scale_cols(out, {"min_v": 100, "max_v": 100, "mean_v": 100})


def q_lineitem_quantiles_cont(sf_dir: str):
    """Interpolated per-group quantiles (SQL quantile_cont semantics) —
    the smooth counterpart of lineitem_quantiles' nearest-rank rule."""
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_quantiles_cont
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])
    out = grouped_quantiles_cont(ds, "l_returnflag", "l_extendedprice")
    return _scale_cols(out, {"q25": 1000, "q50": 1000, "q75": 1000})


def q_lineitem_quantile_radix(sf_dir: str):
    """Exact per-group median via per-group radix selection — NO
    co-location of a group's rows needed (a 10^12-row group costs the
    same driver state as a 10-row group). Same pinned rank rule as
    lineitem_quantiles."""
    import pandas as pd
    import ray.data as rd
    from agraph_ray.ops.stats import grouped_quantile_radix
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_returnflag", "l_extendedprice"])
    out = grouped_quantile_radix(ds, "l_returnflag", "l_extendedprice",
                                 q=0.5)
    out["q50"] = np.floor(out["q_value"] * 100 + 0.5).astype("int64")
    return out[["l_returnflag", "q50", "n"]]


def q_docs_sample_n(sf_dir: str):
    """Exactly-n deterministic global sample (md5-rank rule): each batch
    forwards its local n smallest hashes; reproducible in SQL."""
    import ray.data as rd
    from agraph_ray.ops.stats import sample_n
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "lang"])
    return sample_n(ds, "doc_id", 25)


def q_events_ewma(sf_dir: str):
    """Per-user exponentially weighted moving average of event values in
    event-time order. Full oracle: the y_i = a*x_i + (1-a)*y_{i-1}
    recurrence as a DuckDB recursive CTE over per-user row_number
    (depth = max events per user), e6-scaled."""
    import ray.data as rd
    from agraph_ray.ops.window import grouped_ewma
    ds = _sized_read(f"{sf_dir}/events.parquet",
                         columns=["user_id", "ts", "value"])
    out = grouped_ewma(ds, "user_id", "ts", "value", alpha=0.3)
    return _scale_cols(out, {"value": 10**6, "ewma": 10**6})


def q_docs_cluster(sf_dir: str):
    """Text clustering end to end: feature-hash bag-of-words vectors
    (pinned md5 buckets) → distributed Lloyd k-means. Iterative —
    rows-only."""
    import ray.data as rd
    from agraph_ray.ops.ml import embedding_kmeans, hash_vectorize
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])
    vecs = hash_vectorize(ds, dim=32)
    assigns, _ = embedding_kmeans(vecs, k=5, iters=10, id_col="doc_id")
    return assigns.select_columns(["doc_id", "cluster"])


def q_docs_resample(sf_dir: str):
    """Deterministic importance resampling (corpus mixing): weight
    0.5 + doc_id%5, each doc repeated floor(w) + Bernoulli(frac(w)) times
    under the pinned md5 rule — expected multiplicity exactly w."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.stats import resample_by_weight
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id"])

    def weight(t: pa.Table) -> pa.Table:
        rem = pc.subtract(t["doc_id"],
                          pc.multiply(pc.divide(t["doc_id"], 5), 5))
        return t.append_column(
            "wt", pc.add(pc.cast(rem, pa.float64()), 0.5))

    out = resample_by_weight(ds.map_batches(weight, batch_format="pyarrow"),
                             "doc_id", "wt")
    return out.select_columns(["doc_id", "rep"])


def q_docs_decontaminate(sf_dir: str):
    """GPT-3-style benchmark decontamination: even-id docs are the train
    split, odd-id docs the eval set; a train doc is contaminated if it
    shares any word 8-gram with eval (the GPT-3 appendix-C rule; short
    grams mark nearly every doc at corpus scale). Exact string grams
    decide membership — eval grams broadcast, the train side is pure
    map passes."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.text import decontaminate_ngrams
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text"])

    def split(parity: int):
        def f(t: pa.Table) -> pa.Table:
            rem = pc.subtract(t["doc_id"],
                              pc.multiply(pc.divide(t["doc_id"], 2), 2))
            return t.filter(pc.equal(rem, parity))
        return f

    train = ds.map_batches(split(0), batch_format="pyarrow")
    ev = ds.map_batches(split(1), batch_format="pyarrow")
    out = decontaminate_ngrams(train, ev, n=8)
    return out.select_columns(["doc_id", "contaminated"])


def q_emb_explode(sf_dir: str):
    """UNNEST WITH ORDINALITY of the embedding list column — pure
    per-batch Arrow projection, zero shuffle."""
    import ray.data as rd
    from agraph_ray.ops.stats import explode
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    out = explode(ds, "embedding", ["vec_id"], value_col="v")
    return _scale_cols(out, {"v": 1_000_000}).map_batches(
        lambda t: t.rename_columns(["vec_id", "pos", "v_micro"]),
        batch_format="pyarrow")


def q_supplier_walks(sf_dir: str):
    """Deterministic DeepWalk random walks on the supplier-part bipartite
    graph (part ids offset to disjoint node space). The md5 neighbor-pick
    rule is SQL-reproducible, so even the walks are oracle-checked (via a
    recursive CTE)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.graph_algo import random_walks
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])

    def offset(t: pa.Table) -> pa.Table:
        return pa.table({"a": pc.cast(t["l_suppkey"], pa.int64()),
                         "b": pc.cast(pc.add(t["l_partkey"], 1_000_000),
                                      pa.int64())})

    edges = ds.map_batches(offset, batch_format="pyarrow")
    return random_walks(edges, "a", "b", length=4, walks_per_node=1)


def q_docs_upsert(sf_dir: str):
    """SCD-1 MERGE (latest wins): apply a deterministic update batch
    (doc_id%7 rows modified, doc_id%11 rows re-keyed as inserts) to the
    documents table — matched keys update, new keys insert."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.setops import upsert_latest
    cols = ["doc_id", "lang", "source", "n_chars"]
    docs = _sized_read(f"{sf_dir}/documents.parquet", columns=cols)

    def with_version(v: int):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column("version",
                                   pa.array([v] * len(t), pa.int64()))
        return f

    def modify(t: pa.Table) -> pa.Table:
        return pa.table({
            "doc_id": t["doc_id"],
            "lang": pa.array(["xx"] * len(t), pa.string()),
            "source": t["source"],
            "n_chars": pc.add(t["n_chars"], 1000)})

    def rekey(t: pa.Table) -> pa.Table:
        return t.set_column(0, "doc_id", pc.add(t["doc_id"], 10_000_000))

    def mod_filter(m: int):
        def f(t: pa.Table) -> pa.Table:
            rem = pc.subtract(t["doc_id"],
                              pc.multiply(pc.divide(t["doc_id"], m), m))
            return t.filter(pc.equal(rem, 0))
        return f

    base = docs.map_batches(with_version(0), batch_format="pyarrow")
    upd = (docs.map_batches(mod_filter(7), batch_format="pyarrow")
           .map_batches(modify, batch_format="pyarrow")
           .union(docs.map_batches(mod_filter(11), batch_format="pyarrow")
                  .map_batches(rekey, batch_format="pyarrow"))
           .map_batches(with_version(1), batch_format="pyarrow"))
    return upsert_latest(base, upd, ["doc_id"], "version")


def q_lineitem_checksum(sf_dir: str):
    """Order-independent table checksum (anti-entropy verify primitive):
    sum of md5-prefix row hashes mod p + row count, one partial per
    batch."""
    import ray.data as rd
    from agraph_ray.ops.setops import table_checksum
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_orderkey", "l_partkey", "l_suppkey",
                                  "l_linenumber", "l_returnflag"])
    return table_checksum(ds, ["l_orderkey", "l_partkey", "l_suppkey",
                               "l_linenumber", "l_returnflag"])


def q_supplier_link_pred(sf_dir: str):
    """Link-prediction scores (common neighbors / Jaccard / Adamic-Adar)
    for supplier pairs sharing parts — dst-keyed weighted-pair reduce, the
    1/ln(deg) weight read off the in-bucket group size; top-100 by the
    integer-scaled Adamic-Adar with pinned ties."""
    import ray.data as rd
    from agraph_ray.ops.graph_algo import link_prediction_scores
    ds = _sized_read(f"{sf_dir}/lineitem.parquet",
                         columns=["l_suppkey", "l_partkey"])
    return link_prediction_scores(ds, "l_suppkey", "l_partkey", k=100)


def q_docs_nb_predict(sf_dir: str):
    """Distributed multinomial Naive Bayes: train on (text, lang) with one
    (label, word) combiner shuffle, self-score map-side against the
    broadcast model. Full formula oracle-checked (priors + add-1
    smoothing + unseen-word folding)."""
    import pyarrow as pa
    import ray.data as rd
    from agraph_ray.ops.ml import train_nb, score_nb
    ds = _sized_read(f"{sf_dir}/documents.parquet",
                         columns=["doc_id", "text", "lang"])
    model = train_nb(ds, text_col="text", label_col="lang", alpha=1.0)
    out = _scale_cols(score_nb(ds, model), {"score": 1000})

    def rename(t: pa.Table) -> pa.Table:
        return t.rename_columns(["doc_id", "pred_label", "score_milli"])

    return out.map_batches(rename, batch_format="pyarrow")


def q_emb_kmeans(sf_dir: str):
    """Distributed Lloyd k-means over the embeddings table (farthest-point
    init, per-batch segment-sum partials). Iterative argmin not
    SQL-expressible — rows-only."""
    import ray.data as rd
    from agraph_ray.ops.ml import embedding_kmeans
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "embedding"])
    assigns, _ = embedding_kmeans(ds, k=8, iters=15)
    return assigns.select_columns(["vec_id", "cluster"])


def q_emb_probe(sf_dir: str):
    """Linear softmax probe on (embedding, label): full-batch GD with
    per-batch gradient partials; returns per-class accuracy. Iterative —
    rows-only."""
    import ray.data as rd
    from ray.data.aggregate import Count, Sum
    from agraph_ray.ops.ml import softmax_probe
    ds = _sized_read(f"{sf_dir}/embeddings.parquet",
                         columns=["vec_id", "label", "embedding"])
    scored, _, _ = softmax_probe(ds, iters=12, lr=1.0)
    acc = (scored.groupby("label")
           .aggregate(Count(), Sum("correct", alias_name="n_correct")))
    return acc.sort("label")


# ---------------------------------------------------------------------------
# contract
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: full KG build over sf0.001-derived transcripts."""
    _quiet()
    return q_kg_triples("/root/testdata/sf0.001")


def queries() -> dict[str, Callable[[str], Any]]:
    _quiet()
    return {
        # relational / aggregation / windows
        "lineitem_agg": q_lineitem_agg,
        "orders_by_segment": q_orders_by_segment,
        "top10_orders": q_top10_orders,
        "filter_lineitem": q_filter_lineitem,
        "nation_region": q_nation_region,
        "part_brand_stats": q_part_brand_stats,
        "customer_top3_per_segment": q_customer_top3_per_segment,
        "events_window": q_events_window,
        "events_by_type": q_events_by_type,
        "distinct_event_types": q_distinct_event_types,
        # text analysis
        "docs_token_count": q_docs_token_count,
        "docs_quality": q_docs_quality,
        "docs_bpe_tokens": q_docs_bpe_tokens,
        "docs_repetition": q_docs_repetition,
        "docs_top_words": q_docs_top_words,
        "docs_langid": q_docs_langid,
        "docs_fingerprint": q_docs_fingerprint,
        "docs_corpus_filter": q_docs_corpus_filter,
        "docs_top_words_sketch": q_docs_top_words_sketch,
        # dedup family
        "docs_dedup_exact": q_docs_dedup_exact,
        "docs_strip_spans": q_docs_strip_spans,
        "docs_dedup_incremental": q_docs_dedup_incremental,
        "docs_neardedup_incremental": q_docs_neardedup_incremental,
        "lineitem_quantiles_sketch": q_lineitem_quantiles_sketch,
        "lineitem_heavy_hitters": q_lineitem_heavy_hitters,
        "orders_weighted_sample": q_orders_weighted_sample,
        "docs_select_budget": q_docs_select_budget,
        "docs_redact_pii": q_docs_redact_pii,
        "docs_temperature_mix": q_docs_temperature_mix,
        "docs_script_ratios": q_docs_script_ratios,
        "docs_vocab_prune": q_docs_vocab_prune,
        "docs_compress_ratio": q_docs_compress_ratio,
        "docs_minhash_pairs": q_docs_minhash_pairs,
        "docs_simhash_pairs": q_docs_simhash_pairs,
        "docs_minhash_dedup": q_docs_minhash_dedup,
        "emb_near_dup": q_emb_near_dup,
        # similarity search
        "ann_topk": q_ann_topk,
        "ann_topk_lsh": q_ann_topk_lsh,
        "ann_topk_ivf": q_ann_topk_ivf,
        "ann_topk_pq": q_ann_topk_pq,
        "ann_topk_hnsw": q_ann_topk_hnsw,
        "ann_topk_hnsw_exact": q_ann_topk_hnsw_exact,
        # joins / windows / graph analytics
        "customers_without_orders": q_customers_without_orders,
        "lineitem_bloom_semi": q_lineitem_bloom_semi,
        "orders_bloom_anti": q_orders_bloom_anti,
        "lineitem_skew_join": q_lineitem_skew_join,
        "tpch_q3": q_tpch_q3,
        "revenue_by_priority": q_revenue_by_priority,
        "supplier_part_degree": q_supplier_part_degree,
        "graph_stats_sql": q_graph_stats_sql,
        "graph_importance_sql": q_graph_importance_sql,
        "linked_vocab": q_linked_vocab,
        "chunk_stats": q_chunk_stats,
        "events_sessionize": q_events_sessionize,
        "events_asof_order": q_events_asof_order,
        "lineitem_quantiles": q_lineitem_quantiles,
        "docs_sample": q_docs_sample,
        "events_hopping": q_events_hopping,
        "events_rolling": q_events_rolling,
        "events_late": q_events_late,
        "events_window_ontime": q_events_window_ontime,
        "events_lag_delta": q_events_lag_delta,
        "events_pivot": q_events_pivot,
        "events_running": q_events_running,
        "rollup_orders": q_rollup_orders,
        "events_ranked": q_events_ranked,
        "cube_orders": q_cube_orders,
        "lineitem_price_hist": q_lineitem_price_hist,
        "docs_unigram_lp": q_docs_unigram_lp,
        "customer_fuzzy_names": q_customer_fuzzy_names,
        "events_hll_users": q_events_hll_users,
        "emb_label_centroids": q_emb_label_centroids,
        "emb_outliers": q_emb_outliers,
        "emb_semdedup": q_emb_semdedup,
        "part_triangles": q_part_triangles,
        "supplier_components": q_supplier_components,
        "part_pagerank": q_part_pagerank,
        "part_ppr": q_part_ppr,
        "supplier_nbr_features": q_supplier_nbr_features,
        "part_kcore": q_part_kcore,
        "part_communities": q_part_communities,
        "full_outer_parts": q_full_outer_parts,
        "events_click_attrib": q_events_click_attrib,
        "docs_tfidf": q_docs_tfidf,
        "docs_top_trigrams": q_docs_top_trigrams,
        "docs_contamination": q_docs_contamination,
        "docs_redact": q_docs_redact,
        "lineitem_exact_quantiles": q_lineitem_exact_quantiles,
        "events_user_type_distinct": q_events_user_type_distinct,
        "events_stratified": q_events_stratified,
        "docs_pack_concat": q_docs_pack_concat,
        "docs_dup_ngrams": q_docs_dup_ngrams,
        "docs_prep_pipeline": q_docs_prep_pipeline,
        "docs_pack_greedy": q_docs_pack_greedy,
        "events_window_dedup": q_events_window_dedup,
        "supplier_neighbor_sample": q_supplier_neighbor_sample,
        "kg_negative_samples": q_kg_negative_samples,
        "docs_bm25": q_docs_bm25,
        "events_trending": q_events_trending,
        "docs_corpus_drift": q_docs_corpus_drift,
        "ann_recall_lsh": q_ann_recall_lsh,
        "emb_nn_join": q_emb_nn_join,
        "events_funnel": q_events_funnel,
        "lineitem_melt": q_lineitem_melt,
        "events_zscore": q_events_zscore,
        "conv_stats": q_conv_stats,
        "lineitem_corr": q_lineitem_corr,
        "events_user_mode": q_events_user_mode,
        "user_event_entropy": q_user_event_entropy,
        "region_nation_concat": q_region_nation_concat,
        "docs_except": q_docs_except,
        "docs_intersect": q_docs_intersect,
        "orders_row_number": q_orders_row_number,
        "orders_ntile": q_orders_ntile,
        "events_resample": q_events_resample,
        "docs_bpe_vocab": q_docs_bpe_vocab,
        "docs_bpe_encode": q_docs_bpe_encode,
        "lineitem_winsorize": q_lineitem_winsorize,
        "lineitem_profile": q_lineitem_profile,
        "docs_diff": q_docs_diff,
        "emb_pca": q_emb_pca,
        "docs_nb_predict": q_docs_nb_predict,
        "emb_kmeans": q_emb_kmeans,
        "emb_probe": q_emb_probe,
        "supplier_link_pred": q_supplier_link_pred,
        "docs_upsert": q_docs_upsert,
        "lineitem_checksum": q_lineitem_checksum,
        "supplier_walks": q_supplier_walks,
        "emb_explode": q_emb_explode,
        "docs_decontaminate": q_docs_decontaminate,
        "docs_resample": q_docs_resample,
        "events_ewma": q_events_ewma,
        "docs_cluster": q_docs_cluster,
        "lineitem_quantiles_cont": q_lineitem_quantiles_cont,
        "lineitem_quantile_radix": q_lineitem_quantile_radix,
        "docs_sample_n": q_docs_sample_n,
        "docs_hybrid_search": q_docs_hybrid_search,
        "docs_word_pmi": q_docs_word_pmi,
        "events_cohorts": q_events_cohorts,
        "lineitem_means": q_lineitem_means,
        "ann_ndcg_ivf": q_ann_ndcg_ivf,
        "events_transitions": q_events_transitions,
        "docs_cdc_dedup": q_docs_cdc_dedup,
        "events_attrib_linear": q_events_attrib_linear,
        "lineitem_expectations": q_lineitem_expectations,
        "docs_curation_v2": q_docs_curation_v2,
        "docs_scd2": q_docs_scd2,
        "orders_date_stats": q_orders_date_stats,
        "part_type_tokens": q_part_type_tokens,
        "supplier_acct_by_nation": q_supplier_acct_by_nation,
        "events_json_extract": q_events_json_extract,
        "union_region_nation": q_union_region_nation,
        "turns_dedup": q_turns_dedup,
        "render_chat": q_render_chat,
        "preference_pairs": q_preference_pairs,
        "tool_usage": q_tool_usage,
        "tool_transitions": q_tool_transitions,
        "conv_truncate": q_conv_truncate,
        "conv_wellformed": q_conv_wellformed,
        "conv_curation": q_conv_curation,
        "conv_segments": q_conv_segments,
        "conv_sft_unroll": q_conv_sft_unroll,
        "conv_pack": q_conv_pack,
        "conv_pack_stats": q_conv_pack_stats,
        "entity_timeline": q_entity_timeline,
        "entity_timeline_windowed": q_entity_timeline_windowed,
        "entity_comention": q_entity_comention,
        "entity_comention_windowed": q_entity_comention_windowed,
        "conv_pseudonym_plan": q_conv_pseudonym_plan,
        "docs_shuffle": q_docs_shuffle,
        "docs_epoch_order": q_docs_epoch_order,
        "docs_normalize": q_docs_normalize,
        "docs_dedup_normalized": q_docs_dedup_normalized,
        "eval_triples": q_eval_triples,
        "eval_clusters": q_eval_clusters,
        "docs_dedup_keep_best": q_docs_dedup_keep_best,
        "kg_incremental": q_kg_incremental,
        "docs_sft_pipeline": q_docs_sft_pipeline,
        # KG pipeline
        "reassemble_docs": q_reassemble_docs,
        "kg_triples": q_kg_triples,
        "kg_nodes": q_kg_nodes,
        "kg_llm_mock": q_kg_llm_mock,
        "kg_llm_e2e": q_kg_llm_e2e,
        "kg_statistics": q_kg_statistics,
        "kg_validate": q_kg_validate,
        "kg_inferred_relations": q_kg_inferred_relations,
        "kg_linked_chunks": q_kg_linked_chunks,
        "kg_retrieval": q_kg_retrieval,
        "kg_retrieval_enhanced": q_kg_retrieval_enhanced,
        "kg_chunk_similarity": q_kg_chunk_similarity,
        "kg_importance": q_kg_importance,
        "schema_entities": q_schema_entities,
        "parse_documents": q_parse_documents,
        "docs_meta_text": q_docs_meta_text,
        "doc_metadata": q_doc_metadata,
        "media_real_decode": q_media_real_decode,
        "media_captions": q_media_captions,
        # multimodal plumbing
        "media_features": q_media_features,
        "media_audio_windows": q_media_audio_windows,
        # LLM extraction engine (canned completions; full oracle)
        "llm_parse_entities": q_llm_parse_entities,
        "llm_parse_relations": q_llm_parse_relations,
    }


def oracle_py() -> dict:
    """Driver-side PYTHON oracles for rows-only queries whose semantics
    are recomputable sequentially but not in SQL (zlib, iterative bin
    packing). Consumed by tools/check_queries.py alongside oracle_sql()
    — the local correctness harness, not the driver gate (the driver's
    protocol only carries SQL). Each entry: name -> callable(sf_dir) ->
    pandas.DataFrame with the same columns as the query."""
    return {
        "docs_compress_ratio": _py_oracle_compress_ratio,
        "docs_pack_greedy": _py_oracle_pack_greedy,
        "docs_minhash_pairs": _py_oracle_minhash_pairs,
        "docs_simhash_pairs": _py_oracle_simhash_pairs,
        "docs_cdc_dedup": _py_oracle_cdc_dedup,
        "emb_near_dup": _py_oracle_emb_near_dup,
        "part_kcore": _py_oracle_part_kcore,
        "docs_bpe_vocab": _py_oracle_bpe_vocab,
        "docs_minhash_dedup": _py_oracle_minhash_dedup,
        "ann_topk_lsh": _py_oracle_ann_topk_lsh,
        "ann_recall_lsh": _py_oracle_ann_recall_lsh,
        "docs_neardedup_incremental": _py_oracle_neardedup_incremental,
        "part_communities": _py_oracle_part_communities,
        "docs_bpe_encode": _py_oracle_bpe_encode,
    }


def _py_oracle_bpe_encode(sf_dir: str):
    """Independent sequential BPE encoding: merges from the (already
    harness-checked) sequential trainer, then the classic lowest-rank /
    leftmost-position merge loop per word — (doc_id, n_words,
    n_tokens)."""
    import pandas as pd
    import pyarrow.parquet as pq
    merges = _py_oracle_bpe_vocab(sf_dir)
    ranks = {(l, r): i for i, (l, r) in
             enumerate(zip(merges["left"], merges["right"]))}
    cache: dict = {}

    def encode(w: str) -> int:
        hit = cache.get(w)
        if hit is not None:
            return hit
        syms = list(w) + ["</w>"]
        while len(syms) > 1:
            best = None
            for i in range(len(syms) - 1):
                r = ranks.get((syms[i], syms[i + 1]))
                if r is not None and (best is None or r < best[0]):
                    best = (r, i)
            if best is None:
                break
            i = best[1]
            syms[i:i + 2] = [syms[i] + syms[i + 1]]
        cache[w] = len(syms)
        return len(syms)

    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = []
    for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        words = (s or "").split(" ")
        rows.append((did, len(words), sum(encode(w) for w in words)))
    return pd.DataFrame(rows, columns=["doc_id", "n_words", "n_tokens"])


def _py_oracle_part_communities(sf_dir: str):
    """Independent sequential synchronous LPA: plain-dict vote counting
    with the engine's two deterministic pins (self-vote, min-label
    tie-break), 10 rounds with early exit, then community id = min node
    carrying each final label — all integer arithmetic, no float
    order dependence."""
    import pandas as pd
    adj = _py_coorder_adj(sf_dir)
    nodes = sorted(adj)
    lab = {n: n for n in nodes}
    for _ in range(10):
        new = {}
        for n in nodes:
            votes: dict = {lab[n]: 1}           # self-vote
            for m in adj[n]:
                votes[lab[m]] = votes.get(lab[m], 0) + 1
            best = max(votes.values())
            new[n] = min(l for l, c in votes.items() if c == best)
        if new == lab:
            break
        lab = new
    rep: dict = {}
    for n in nodes:
        rep[lab[n]] = min(rep.get(lab[n], n), n)
    return pd.DataFrame(
        sorted((n, rep[lab[n]]) for n in nodes),
        columns=["node", "community"])


def _py_oracle_neardedup_incremental(sf_dir: str):
    """Independent sequential incremental near-dedup: new = doc_id
    divisible by 5, old = the rest; cross-side-only candidates within
    equal (band, signature-tuple) buckets; Jaccard ≥ 0.7 confirms a
    kill; survivors of new returned."""
    import pandas as pd
    shingles, sigs = _py_minhash_sigs(sf_dir)
    new = {d for d in sigs if d % 5 == 0}
    buckets: dict = {}
    for did, sig in sigs.items():
        for band in range(16):
            key = (band, tuple(sig[band * 4:(band + 1) * 4].tolist()))
            buckets.setdefault(key, []).append(did)
    killed = set()
    for members in buckets.values():
        ms = set(members)
        ns = sorted(m for m in ms if m in new)
        os_ = sorted(m for m in ms if m not in new)
        for a in ns:
            if a in killed:
                continue
            for b in os_:
                sa, sb = shingles[a], shingles[b]
                if len(sa & sb) / max(1, len(sa | sb)) >= 0.7:
                    killed.add(a)
                    break
    return pd.DataFrame({"doc_id": sorted(new - killed)})


def _py_oracle_ann_recall_lsh(sf_dir: str):
    """Independent sequential recall@10: brute-force exact top-10 per
    query vs the LSH oracle's top-10 — set intersection, half-up 1e6
    scaling."""
    import math

    import pandas as pd
    import pyarrow.parquet as pq
    qvecs, qids = _load_queries(sf_dir)
    q = np.asarray(qvecs, dtype=np.float64)
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    vecs = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    lsh = _py_oracle_ann_topk_lsh(sf_dir)
    rows = []
    for qi, qid in enumerate(qids):
        qv = q[qi] / max(np.linalg.norm(q[qi]), 1e-12)
        sims = [(float((vecs[i] / norms[i]) @ qv), ids[i])
                for i in range(len(ids))]
        sims.sort(key=lambda x: (-x[0], x[1]))
        exact = {vid for _, vid in sims[:10]}
        approx = set(lsh.loc[lsh["query_id"] == qid, "vec_id"])
        hit = len(exact & approx)
        rec = hit / len(exact) if exact else 0.0
        rows.append((qid, len(exact), hit,
                     int(math.floor(rec * 1e6 + 0.5))))
    return pd.DataFrame(rows, columns=["query_id", "n_exact", "n_hit",
                                       "recall_scaled"])


def _py_oracle_ann_topk_lsh(sf_dir: str):
    """Independent sequential LSH top-k: the seeded plane matrix is the
    spec constant; per-vector sign keys and per-query exact cosines
    with plain loops, round-6 + (-sim, vec_id) ordering, top 10."""
    import hashlib as _hl

    import pandas as pd
    import pyarrow.parquet as pq
    rng = np.random.default_rng(
        int.from_bytes(_hl.md5(b"agraph-ray-hyperplanes").digest()[:4],
                       "little"))
    qvecs, qids = _load_queries(sf_dir)
    q = np.asarray(qvecs, dtype=np.float64)
    dim = q.shape[1]
    planes = rng.standard_normal((8, dim))
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    vecs = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)

    def key_of(v):
        k = 0
        for p in range(8):
            if float(v @ planes[p]) > 0:
                k |= 1 << p
        return k

    vkeys = [key_of(v) for v in vecs]
    norms = np.linalg.norm(vecs, axis=1)
    norms[norms == 0] = 1.0
    rows = []
    for qi, qid in enumerate(qids):
        qk = key_of(q[qi])
        qv = q[qi] / max(np.linalg.norm(q[qi]), 1e-12)
        cands = [(float(np.round((vecs[i] / norms[i]) @ qv, 6)), ids[i])
                 for i in range(len(ids)) if vkeys[i] == qk]
        cands.sort(key=lambda x: (-x[0], x[1]))
        for rank, (sim, vid) in enumerate(cands[:10], start=1):
            rows.append((qid, vid, sim, rank))
    return pd.DataFrame(rows,
                        columns=["query_id", "vec_id", "sim", "rank"])


def _py_oracle_bpe_vocab(sf_dir: str):
    """Independent sequential Sennrich BPE: plain-dict word counting
    (single-space tokenization like the engine's combiner), then a
    from-scratch merge loop — pair stats by nested loops, highest-count
    / lexicographically-smallest tie-break, 60 merges."""
    import pandas as pd
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    wc: dict = {}
    for s in t["text"].to_pylist():
        for w in (s or "").split(" "):
            wc[w] = wc.get(w, 0) + 1
    vocab = {}
    for w, c in wc.items():
        if not w:
            continue
        key = tuple(list(w) + ["</w>"])
        vocab[key] = vocab.get(key, 0) + c
    merges = []
    for rank in range(60):
        stats: dict = {}
        for syms, c in vocab.items():
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                stats[p] = stats.get(p, 0) + c
        if not stats:
            break
        best = max(stats.values())
        pair = min(p for p, c in stats.items() if c == best)
        merges.append((rank, pair[0], pair[1], best))
        new_vocab: dict = {}
        for syms, c in vocab.items():
            out = []
            i = 0
            while i < len(syms):
                if (i + 1 < len(syms)
                        and (syms[i], syms[i + 1]) == pair):
                    out.append(syms[i] + syms[i + 1])
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            key = tuple(out)
            new_vocab[key] = new_vocab.get(key, 0) + c
        vocab = new_vocab
    return pd.DataFrame(merges,
                        columns=["rank", "left", "right", "freq"])


def _py_coorder_adj(sf_dir: str) -> dict:
    """Sequential co-order part adjacency (distinct undirected pairs,
    the builder's smallest-max_group truncation replicated)."""
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/lineitem.parquet",
                      columns=["l_orderkey", "l_partkey"])
    groups: dict = {}
    for o, p in zip(t["l_orderkey"].to_pylist(),
                    t["l_partkey"].to_pylist()):
        groups.setdefault(o, set()).add(p)
    adj: dict = {}
    for items in groups.values():
        ms = sorted(items)[:10_000]
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                adj.setdefault(ms[i], set()).add(ms[j])
                adj.setdefault(ms[j], set()).add(ms[i])
    return adj


def _py_oracle_part_kcore(sf_dir: str):
    """Independent sequential 80-core: co-order pair building with plain
    dict/set loops, then textbook iterative peeling (the k-core is
    unique, so peel order is irrelevant)."""
    import pandas as pd
    adj = _py_coorder_adj(sf_dir)
    k = 80
    changed = True
    while changed:
        changed = False
        for n in [n for n, nb in adj.items() if len(nb) < k]:
            for m in adj.pop(n):
                adj[m].discard(n)
            changed = True
    rows = sorted((n, len(nb)) for n, nb in adj.items())
    return pd.DataFrame(rows, columns=["node", "deg"])


def _py_oracle_emb_near_dup(sf_dir: str):
    """Independent sequential hyperplane-LSH near-dup: the seeded plane
    matrices are the spec constant; per-vector sign keys, dict buckets,
    per-pair float64 cosine, threshold 0.35, half-up 1e6 scaling —
    plain loops in place of the bucketed-shuffle pipeline."""
    import hashlib as _hl
    import math

    import pandas as pd
    import pyarrow.parquet as pq
    rng = np.random.default_rng(
        int.from_bytes(_hl.md5(b"agraph-ray-hyperplanes").digest()[:4],
                       "little"))
    planes = [rng.standard_normal((12, 64)) for _ in range(4)]
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    ids = t["vec_id"].to_pylist()
    vecs = np.asarray(t["embedding"].to_pylist(), dtype=np.float64)
    dim = vecs.shape[1]
    unit = vecs / np.maximum(
        np.linalg.norm(vecs, axis=1, keepdims=True), 1e-300)
    by_id = dict(zip(ids, range(len(ids))))
    pairs: dict = {}
    for tbl, P in enumerate(planes):
        buckets: dict = {}
        for i, vid in enumerate(ids):
            key = 0
            for p in range(12):
                if float(vecs[i] @ P[p, :dim]) > 0:
                    key |= 1 << p
            buckets.setdefault(key, []).append(vid)
        for members in buckets.values():
            ms = sorted(set(members))
            for x in range(len(ms)):
                for y in range(x + 1, len(ms)):
                    a, b = ms[x], ms[y]
                    if (a, b) in pairs:
                        continue
                    cos = float(unit[by_id[a]] @ unit[by_id[b]])
                    if cos >= 0.35:
                        pairs[(a, b)] = cos
    rows = [(a, b, int(math.floor(c * 1e6 + 0.5)))
            for (a, b), c in sorted(pairs.items())]
    return pd.DataFrame(rows, columns=["a", "b", "cosine"])


def _py_oracle_cdc_dedup(sf_dir: str):
    """Independent sequential CDC reimplementation: the classic
    per-byte gear recurrence h = ((h << 1) + gear[b]) mod 2^64 — which
    equals the engine's windowed 64-term shifted sum because shifts
    >= 64 vanish mod 2^64 — plain-int, one byte at a time; then
    corpus-level chunk-count aggregation in a dict. mask_bits=9 like
    the query."""
    import hashlib as _hl
    import math

    import pandas as pd
    import pyarrow.parquet as pq
    gear = [int.from_bytes(_hl.md5(bytes([i])).digest()[:8], "little")
            for i in range(256)]
    mask = (1 << 9) - 1
    m64 = (1 << 64) - 1
    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["text"])
    counts: dict = {}
    for s in t["text"].to_pylist():
        b = (s or "").encode("utf-8")
        if not b:
            continue
        h = 0
        cuts = [0]
        for i, byte in enumerate(b):
            h = ((h << 1) + gear[byte]) & m64
            if (h & mask) == 0:
                cuts.append(i + 1)
        if cuts[-1] != len(b):
            cuts.append(len(b))
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            key = (_hl.md5(b[lo:hi]).hexdigest()[:16], hi - lo)
            counts[key] = counts.get(key, 0) + 1
    total_b = sum(size * c for (_, size), c in counts.items())
    dist_b = sum(size for (_, size) in counts)
    ratio = 1.0 - (dist_b / total_b if total_b else 0.0)
    return pd.DataFrame({
        "n_chunks": [sum(counts.values())],
        "n_distinct": [len(counts)],
        "total_bytes": [total_b],
        "distinct_bytes": [dist_b],
        "dedup_ratio_micro": [int(math.floor(ratio * 1e6 + 0.5))]})


def _py_oracle_simhash_pairs(sf_dir: str):
    """Independent sequential simhash near-dup reimplementation:
    per-token md5 (the spec hash) but plain-int bit voting instead of
    the engine's vectorized bit-matrix reduction; dict banding; hamming
    via int.bit_count. max_hamming=8 like the query."""
    import hashlib as _hl

    import pandas as pd
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    sims = {}
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = (text or "").lower().split()
        if not toks:
            sims[did] = 0
            continue
        votes = [0] * 64
        for tok in toks:
            h = int.from_bytes(_hl.md5(tok.encode()).digest()[:8],
                               "little")
            for b in range(64):
                votes[b] += 1 if (h >> b) & 1 else -1
        sims[did] = sum(1 << b for b in range(64) if votes[b] > 0)
    buckets: dict = {}
    for did, h in sims.items():
        for band in range(4):
            buckets.setdefault((band, (h >> (16 * band)) & 0xFFFF),
                               []).append(did)
    pairs = set()
    for members in buckets.values():
        ms = sorted(set(members))
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                pairs.add((ms[i], ms[j]))
    rows = [(x, y, (sims[x] ^ sims[y]).bit_count())
            for x, y in sorted(pairs)]
    rows = [(x, y, hm) for x, y, hm in rows if hm <= 8]
    return pd.DataFrame(rows, columns=["a", "b", "hamming"]).astype(
        {"hamming": "int32"})


def _py_minhash_sigs(sf_dir: str):
    """Sequential per-doc shingle sets + 64-perm minhash signatures
    (formulas transliterated from the spec; only constants are shared)."""
    import hashlib as _hl

    import pandas as pd
    import pyarrow.parquet as pq
    from agraph_ray.stages.canonicalize import (_GRAM_MULT, _MERSENNE,
                                                _TOKEN_HASH_KEY)

    def _hash_tokens(toks):   # the spec's pinned-key SipHash
        return pd.util.hash_array(np.asarray(toks, dtype=object),
                                  hash_key=_TOKEN_HASH_KEY, categorize=False)
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    # permutation i = md5("agraph-ray-minhash-<i>") as (odd a, b) LE u64s
    digests = [_hl.md5(f"agraph-ray-minhash-{i}".encode()).digest()
               for i in range(64)]
    a_c = np.array([int.from_bytes(d[:8], "little") | 1 for d in digests],
                   dtype=np.uint64)[:, None]
    b_c = np.array([int.from_bytes(d[8:], "little") for d in digests],
                   dtype=np.uint64)[:, None]
    shingles, sigs = {}, {}
    for did, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        toks = (text or "").lower().split()
        if len(toks) < 3:
            g = _hash_tokens([" ".join(toks) if toks else ""])
        else:
            th = _hash_tokens(toks)
            m = len(toks) - 2
            with np.errstate(over="ignore"):
                g = np.zeros(m, dtype=np.uint64)
                for k in range(3):
                    g = g * _GRAM_MULT + th[k:k + m]
        g = np.unique(g)
        shingles[did] = set(g.tolist())
        with np.errstate(over="ignore"):
            sigs[did] = ((a_c * g[None, :] + b_c) % _MERSENNE).min(axis=1)
    return shingles, sigs


def _py_minhash_verified_pairs(sf_dir: str, threshold: float):
    """Shared tail of the MinHash-LSH oracles: → ({(a, b): jaccard}
    over verified pairs ≥ threshold, set of all doc ids)."""
    shingles, sigs = _py_minhash_sigs(sf_dir)
    buckets: dict = {}
    for did, sig in sigs.items():
        for band in range(16):
            key = (band, tuple(sig[band * 4:(band + 1) * 4].tolist()))
            buckets.setdefault(key, []).append(did)
    pairs = set()
    for members in buckets.values():
        ms = sorted(set(members))
        for i in range(len(ms)):
            for j in range(i + 1, len(ms)):
                pairs.add((ms[i], ms[j]))
    verified = {}
    for x, y in sorted(pairs):
        sa, sb = shingles[x], shingles[y]
        j = len(sa & sb) / max(1, len(sa | sb))
        if j >= threshold:
            verified[(x, y)] = j
    return verified, set(shingles)


def _py_oracle_minhash_pairs(sf_dir: str):
    """Independent sequential reimplementation of the MinHash-LSH
    near-dup pipeline: per-document shingle/signature formulas
    transliterated from the spec (the shared hash/permutation constants
    ARE the spec, like the extraction regex literals), dict-of-tuples
    banding in place of the distributed bucketed shuffle, plain
    set-Jaccard verification, threshold 0.5, half-up 1e6 scaling."""
    import math

    import pandas as pd
    verified, _ = _py_minhash_verified_pairs(sf_dir, 0.5)
    rows = [(x, y, int(math.floor(j * 1e6 + 0.5)))
            for (x, y), j in sorted(verified.items())]
    return pd.DataFrame(rows, columns=["a", "b", "jaccard"])


def _py_oracle_minhash_dedup(sf_dir: str):
    """Independent sequential near-dup dedup: verified pairs at 0.8 →
    plain union-find → survivors = numeric-min id per component plus
    every unmatched document."""
    import pandas as pd
    verified, all_ids = _py_minhash_verified_pairs(sf_dir, 0.8)
    parent: dict = {}

    def find(x):
        while parent.get(x, x) != x:
            parent[x] = parent.get(parent[x], parent[x])
            x = parent[x]
        return x

    for a, b in verified:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comps: dict = {}
    matched = set()
    for a, b in verified:
        matched.update((a, b))
    for d in matched:
        comps.setdefault(find(d), set()).add(d)
    survivors = (all_ids - matched) | {min(m) for m in comps.values()}
    return pd.DataFrame({"doc_id": sorted(survivors)})


def _py_oracle_compress_ratio(sf_dir: str):
    """Independent per-doc zlib recomputation (no engine code)."""
    import math
    import zlib

    import pandas as pd
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    rows = []
    for did, s in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
        b = (s or "").encode("utf-8")
        r = len(zlib.compress(b, 6)) / max(len(b), 1)
        rows.append((did, int(math.floor(r * 1e6 + 0.5))))
    return pd.DataFrame(rows, columns=["doc_id", "ratio_e6"])


def _py_oracle_pack_greedy(sf_dir: str):
    """Sequential first-fit-decreasing re-implementation (plain loops,
    independent of ops/pack.py's distributed bucketed path): whitespace
    token counts, the same pandas id-hash partitioning rule, FFD with
    ties by ascending id and the closed-bin optimization's
    OBSERVABLE contract (bin assignment order), per 64 partitions."""
    import re

    import numpy as np
    import pandas as pd
    import pyarrow.parquet as pq
    t = pq.read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id", "text"])
    df = pd.DataFrame({
        "doc_id": t["doc_id"].to_pylist(),
        "token_count": [len(re.findall(r"\S+", s or ""))
                        for s in t["text"].to_pylist()]})
    h = pd.util.hash_pandas_object(df[["doc_id"]], index=False).to_numpy()
    df["partition"] = (h % 64).astype("int64")
    out = []
    for part, g in df.groupby("partition", sort=False):
        g = g.sort_values(["token_count", "doc_id"], kind="stable",
                          ascending=[False, True])
        loads, assign = [], []
        for tc in g["token_count"]:
            placed = -1
            for bi, ld in enumerate(loads):
                if ld + tc <= 512:
                    placed = bi
                    break
            if placed < 0:
                placed = len(loads)
                loads.append(0)
            loads[placed] += tc
            assign.append(placed)
        g = g.assign(bin=np.array(assign, dtype="int64"))
        g["bin_tokens"] = g["bin"].map(lambda b: loads[b]).astype("int64")
        out.append(g[["doc_id", "token_count", "partition", "bin",
                      "bin_tokens"]])
    return pd.concat(out, ignore_index=True)


def oracle_sql() -> dict[str, str]:
    return {
        "lineitem_agg": """
            SELECT l_returnflag, l_linestatus,
                   CAST(floor(sum(l_quantity) * 100 + 0.5) AS BIGINT) AS sum_qty,
                   CAST(floor(sum(l_extendedprice) * 100 + 0.5) AS BIGINT) AS sum_price,
                   CAST(floor(max(l_quantity) * 100 + 0.5) AS BIGINT) AS max_qty,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag, l_linestatus
        """,
        "orders_by_segment": """
            SELECT c_mktsegment, CAST(floor(sum(o_totalprice) * 100 + 0.5) AS BIGINT) AS revenue,
                   count(*) AS n_orders
            FROM orders JOIN customer ON o_custkey = c_custkey
            GROUP BY c_mktsegment
        """,
        "top10_orders": """
            SELECT o_orderkey, o_totalprice FROM orders
            ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
        """,
        "filter_lineitem": """
            SELECT l_orderkey, l_linenumber, l_quantity FROM lineitem
            WHERE l_quantity > 45.0
        """,
        "nation_region": """
            SELECT n_name, r_name FROM nation
            JOIN region ON n_regionkey = r_regionkey
        """,
        "part_brand_stats": """
            SELECT p_brand, count(*) AS n,
                   CAST(floor(avg(p_retailprice) * 10000 + 0.5) AS BIGINT) AS avg_price
            FROM part GROUP BY p_brand
        """,
        "customer_top3_per_segment": """
            SELECT c_mktsegment, c_custkey, c_acctbal FROM customer
            QUALIFY row_number() OVER (PARTITION BY c_mktsegment
                ORDER BY c_acctbal DESC, c_custkey) <= 3
        """,
        "events_window": """
            SELECT user_id,
                   CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
                   count(*) AS n, CAST(floor(sum(value) * 100 + 0.5) AS BIGINT) AS sum_value
            FROM events GROUP BY user_id, day
        """,
        "events_by_type": """
            SELECT event_type, count(*) AS n,
                   CAST(floor(sum(value) * 100 + 0.5) AS BIGINT) AS sum_value
            FROM events GROUP BY event_type
        """,
        "distinct_event_types": """
            SELECT DISTINCT event_type FROM events
        """,
        "docs_token_count": r"""
            SELECT doc_id,
                   len(regexp_extract_all(text, '\S+')) AS token_count
            FROM documents
        """,
        "docs_bpe_tokens": r"""
            SELECT doc_id,
                   len(regexp_extract_all(
                       text, '\p{L}+|\p{N}+|[^\p{L}\p{N}\s]+'))
                       AS bpe_token_count
            FROM documents
        """,
        "docs_quality": r"""
            SELECT doc_id,
                   length(text) AS n_chars,
                   len(regexp_extract_all(text, '\S+')) AS token_count,
                   CAST(floor((length(text) - len(regexp_extract_all(text, '\s')))
                         / greatest(len(regexp_extract_all(text, '\S+')), 1)::DOUBLE
                         * 1000000 + 0.5) AS BIGINT) AS avg_token_len,
                   CAST(floor(len(regexp_extract_all(text, '[[:punct:]]'))
                         / greatest(length(text), 1)::DOUBLE
                         * 1000000 + 0.5) AS BIGINT) AS punct_ratio,
                   CAST(floor(len(regexp_extract_all(text, '[A-Za-z]'))
                         / greatest(length(text), 1)::DOUBLE
                         * 1000000 + 0.5) AS BIGINT) AS alpha_ratio
            FROM documents
        """,
        "docs_repetition": r"""
            WITH w AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS w
                FROM documents
            ), c AS (
                SELECT doc_id, w, count(*) AS c
                FROM w GROUP BY doc_id, w
            ), m AS (
                SELECT doc_id, w, c,
                       max(c)  OVER (PARTITION BY doc_id) AS mc,
                       sum(c)  OVER (PARTITION BY doc_id) AS total,
                       count(*) OVER (PARTITION BY doc_id) AS distinct_words
                FROM c
            )
            SELECT doc_id,
                   CAST(max(total) AS BIGINT) AS word_total,
                   CAST(max(distinct_words) AS BIGINT) AS distinct_words,
                   CAST(floor((1 - max(distinct_words)
                        / greatest(max(total), 1)::DOUBLE)
                        * 1000000 + 0.5) AS BIGINT) AS dup_word_fraction,
                   min(w) FILTER (WHERE c = mc) AS top_word,
                   CAST(floor(max(mc) / greatest(max(total), 1)::DOUBLE
                        * 1000000 + 0.5) AS BIGINT) AS top_word_fraction
            FROM m GROUP BY doc_id
        """,
        "docs_top_words": r"""
            SELECT w AS word, count(*) AS cnt
            FROM (SELECT unnest(string_split(text, ' ')) AS w
                  FROM documents)
            GROUP BY w
            ORDER BY cnt DESC, w
            LIMIT 20
        """,
        "docs_top_words_sketch": r"""
            SELECT w AS word, count(*) AS cnt
            FROM (SELECT unnest(string_split(text, ' ')) AS w
                  FROM documents)
            GROUP BY w
            ORDER BY cnt DESC, w
            LIMIT 20
        """,
        "docs_langid": r"""
            SELECT doc_id,
                   CASE WHEN len(regexp_extract_all(text, '[\x{4e00}-\x{9fff}]'))
                             / greatest(length(text), 1)::DOUBLE > 0.2 THEN 'zh'
                        WHEN len(regexp_extract_all(text, '[A-Za-z]'))
                             / greatest(length(text), 1)::DOUBLE > 0.6 THEN 'en'
                        ELSE 'other' END AS lang_pred
            FROM documents
        """,
        "docs_fingerprint": r"""
            SELECT doc_id,
                   md5(trim(regexp_replace(lower(text), '\s+', ' ', 'g')))
                       AS fingerprint
            FROM documents
        """,
        "docs_corpus_filter": r"""
            WITH q AS (
                SELECT doc_id,
                       (length(text) - len(regexp_extract_all(text, '\s')))
                         / greatest(len(regexp_extract_all(text, '\S+')),
                                    1)::DOUBLE AS avg_token_len,
                       len(regexp_extract_all(text, '[[:punct:]]'))
                         / greatest(length(text), 1)::DOUBLE AS punct_ratio,
                       CASE WHEN len(regexp_extract_all(
                                     text, '[\x{4e00}-\x{9fff}]'))
                                 / greatest(length(text), 1)::DOUBLE > 0.2
                                THEN 'zh'
                            WHEN len(regexp_extract_all(text, '[A-Za-z]'))
                                 / greatest(length(text), 1)::DOUBLE > 0.6
                                THEN 'en'
                            ELSE 'other' END AS lang_pred
                FROM documents),
            wc AS (
                SELECT doc_id, w, count(*) AS c
                FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w
                      FROM documents)
                GROUP BY doc_id, w),
            w AS (
                SELECT doc_id,
                       sum(c) AS word_total,
                       1 - count(*) / greatest(sum(c), 1)::DOUBLE
                           AS dup_word_fraction,
                       max(c) / greatest(sum(c), 1)::DOUBLE
                           AS top_word_fraction
                FROM wc GROUP BY doc_id),
            f AS (
                SELECT q.doc_id,
                       (w.word_total < 5) AS few_words,
                       (w.word_total > 100000) AS many_words,
                       (avg_token_len < 2.0 OR avg_token_len > 12.0)
                           AS word_len,
                       (punct_ratio > 0.30) AS punct,
                       (lang_pred = 'other') AS lang,
                       (dup_word_fraction > 0.50) AS dup_words,
                       (top_word_fraction > 0.30 AND w.word_total >= 5)
                           AS top_word
                FROM q JOIN w USING (doc_id))
            SELECT doc_id,
                   NOT (few_words OR many_words OR word_len OR punct
                        OR lang OR dup_words OR top_word) AS keep,
                   rtrim(concat(
                       CASE WHEN few_words THEN 'few_words;' ELSE '' END,
                       CASE WHEN many_words THEN 'many_words;' ELSE '' END,
                       CASE WHEN word_len THEN 'word_len;' ELSE '' END,
                       CASE WHEN punct THEN 'punct;' ELSE '' END,
                       CASE WHEN lang THEN 'lang;' ELSE '' END,
                       CASE WHEN dup_words THEN 'dup_words;' ELSE '' END,
                       CASE WHEN top_word THEN 'top_word;' ELSE '' END),
                       ';') AS reasons
            FROM f
        """,
        "docs_dedup_incremental": """
            WITH h AS (SELECT doc_id, md5(text) AS content_hash
                       FROM documents),
            new_reps AS (
                SELECT content_hash, min(doc_id) AS doc_id
                FROM h WHERE doc_id % 5 = 0 GROUP BY content_hash)
            SELECT doc_id, content_hash FROM new_reps
            WHERE content_hash NOT IN (
                SELECT content_hash FROM h WHERE doc_id % 5 <> 0)
        """,
        "docs_dedup_exact": """
            SELECT min(doc_id) AS doc_id FROM documents GROUP BY text
        """,
        "docs_temperature_mix": """
            WITH n AS (SELECT lang, count(*)::DOUBLE AS n
                       FROM documents GROUP BY lang),
                 d AS (SELECT sum(pow(n, 0.5)) AS den FROM n),
                 r AS (SELECT lang,
                              least(1.0, (300 * pow(n.n, 0.5) / d.den)
                                         / n.n) AS rate
                       FROM n, d)
            SELECT doc_id, documents.lang FROM documents
            JOIN r USING (lang)
            WHERE (('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 16))
                       ::UBIGINT) / 18446744073709551616.0 < rate
        """,
        "docs_script_ratios": r"""
            SELECT doc_id,
                CAST(floor(len(regexp_extract_all(text, '[A-Za-z]'))
                    / greatest(length(text), 1)::DOUBLE * 1e6 + 0.5)
                    AS BIGINT) AS latin_ratio,
                CAST(floor(len(regexp_extract_all(text,
                        '[\x{4e00}-\x{9fff}]'))
                    / greatest(length(text), 1)::DOUBLE * 1e6 + 0.5)
                    AS BIGINT) AS cjk_ratio,
                CAST(floor(len(regexp_extract_all(text,
                        '[\x{0400}-\x{04FF}]'))
                    / greatest(length(text), 1)::DOUBLE * 1e6 + 0.5)
                    AS BIGINT) AS cyrillic_ratio,
                CAST(floor(len(regexp_extract_all(text,
                        '[\x{0600}-\x{06FF}]'))
                    / greatest(length(text), 1)::DOUBLE * 1e6 + 0.5)
                    AS BIGINT) AS arabic_ratio,
                CAST(floor(len(regexp_extract_all(text, '[0-9]'))
                    / greatest(length(text), 1)::DOUBLE * 1e6 + 0.5)
                    AS BIGINT) AS digit_ratio
            FROM documents
        """,
        "docs_vocab_prune": """
            WITH w AS (
                SELECT doc_id,
                       unnest(string_split(text, ' ')) AS word,
                       unnest(generate_series(0,
                           len(string_split(text, ' ')) - 1)) AS pos
                FROM documents
            ), f AS (
                SELECT word FROM w GROUP BY word HAVING count(*) >= 3
            )
            SELECT doc_id,
                   string_agg(CASE WHEN word IN (SELECT word FROM f)
                                   THEN word ELSE '<unk>' END,
                              ' ' ORDER BY pos) AS text,
                   count(*) FILTER (WHERE word NOT IN
                                    (SELECT word FROM f)) AS n_unk
            FROM w GROUP BY doc_id
        """,
        "docs_select_budget": """
            WITH s AS (
                SELECT doc_id,
                       len(regexp_extract_all(text, '[A-Za-z]'))
                           / greatest(length(text), 1)::DOUBLE AS score,
                       len(regexp_extract_all(text, '\\S+')) AS tok
                FROM documents
            )
            SELECT doc_id, CAST(cum AS BIGINT) AS cum FROM (
                SELECT doc_id,
                       sum(tok) OVER (ORDER BY score DESC, doc_id
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM s)
            WHERE cum <= 15000
        """,
        "orders_weighted_sample": """
            SELECT o_orderpriority, o_orderkey FROM (
                SELECT o_orderpriority, o_orderkey,
                       row_number() OVER (
                           PARTITION BY o_orderpriority
                           ORDER BY pow(
                               (('0x' || substr(md5(CAST(o_orderkey
                                    AS VARCHAR)), 1, 16))::UBIGINT)
                               / 18446744073709551616.0,
                               1.0 / o_totalprice) DESC,
                           o_orderkey) AS r
                FROM orders)
            WHERE r <= 3
        """,
        "lineitem_heavy_hitters": """
            SELECT l_returnflag, l_linenumber, cnt AS count, 0::BIGINT AS err
            FROM (
                SELECT l_returnflag, l_linenumber, count(*) AS cnt,
                       row_number() OVER (
                           PARTITION BY l_returnflag
                           ORDER BY count(*) DESC, l_linenumber) AS r
                FROM lineitem GROUP BY l_returnflag, l_linenumber)
            WHERE r <= 3
        """,
        "docs_strip_spans": """
            WITH w AS (
                SELECT doc_id,
                       unnest(string_split(text, ' ')) AS word,
                       unnest(generate_series(0,
                           len(string_split(text, ' ')) - 1)) AS pos
                FROM documents
            ), g AS (
                SELECT doc_id, pos,
                       array_to_string(list(word) OVER (
                           PARTITION BY doc_id ORDER BY pos
                           ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING),
                           ' ') AS gram,
                       count(*) OVER (PARTITION BY doc_id) AS nw
                FROM w
                QUALIFY pos + 8 <= nw
            ), kill AS (
                SELECT doc_id, pos FROM (
                    SELECT doc_id, pos,
                           count(*) OVER (PARTITION BY gram) AS c FROM g)
                WHERE c >= 2
            ), cov AS (
                SELECT DISTINCT doc_id, pos FROM (
                    SELECT doc_id,
                           unnest(generate_series(pos, pos + 7)) AS pos
                    FROM kill)
            )
            SELECT w.doc_id,
                   coalesce(string_agg(w.word, ' ' ORDER BY w.pos)
                            FILTER (WHERE cov.pos IS NULL), '') AS text,
                   count(cov.pos) AS n_removed
            FROM w LEFT JOIN cov
              ON w.doc_id = cov.doc_id AND w.pos = cov.pos
            GROUP BY w.doc_id
        """,
        "ann_topk": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 sims AS (SELECT q.query_id, e.vec_id,
                                 list_cosine_similarity(
                                     q.qv::DOUBLE[], e.embedding::DOUBLE[]) AS s
                          FROM q CROSS JOIN embeddings e)
            SELECT query_id, vec_id,
                   CAST(floor(s * 1000000 + 0.5) AS BIGINT) AS sim,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY s DESC, vec_id) AS rank
            FROM sims
            QUALIFY rank <= 10
        """,
        "ann_topk_ivf": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 sims AS (SELECT q.query_id, e.vec_id,
                                 list_cosine_similarity(
                                     q.qv::DOUBLE[], e.embedding::DOUBLE[]) AS s
                          FROM q CROSS JOIN embeddings e)
            SELECT query_id, vec_id,
                   CAST(floor(s * 1000000 + 0.5) AS BIGINT) AS sim,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY s DESC, vec_id) AS rank
            FROM sims
            QUALIFY rank <= 10
        """,
        "docs_meta_text": """
            SELECT doc_id,
                   array_length(string_split(text, chr(10))) AS line_count,
                   array_length(regexp_extract_all(text, '\\S+'))
                       AS word_count,
                   length(text) AS character_count,
                   array_length(list_filter(
                       string_split(text, chr(10)),
                       x -> trim(x) != '')) AS non_empty_line_count,
                   octet_length(encode(text)) AS content_bytes
            FROM documents
        """,
        "ann_topk_hnsw_exact": """
            WITH q AS (SELECT vec_id AS query_id, embedding AS qv
                       FROM embeddings WHERE vec_id < 4),
                 sims AS (SELECT q.query_id, e.vec_id,
                                 list_cosine_similarity(
                                     q.qv::DOUBLE[], e.embedding::DOUBLE[]) AS s
                          FROM q CROSS JOIN embeddings e)
            SELECT query_id, vec_id,
                   CAST(floor(s * 1000000 + 0.5) AS BIGINT) AS sim,
                   row_number() OVER (PARTITION BY query_id
                                      ORDER BY s DESC, vec_id) AS rank
            FROM sims
            QUALIFY rank <= 10
        """,
        "customers_without_orders": """
            SELECT c_custkey, c_name FROM customer
            WHERE c_custkey NOT IN (SELECT o_custkey FROM orders)
        """,
        "orders_date_stats": """
            SELECT o_orderstatus, count(*) AS n,
                   CAST(min(CAST(o_orderdate AS DATE)) - DATE '1970-01-01'
                        AS INT) AS first_day,
                   CAST(max(CAST(o_orderdate AS DATE)) - DATE '1970-01-01'
                        AS INT) AS last_day
            FROM orders GROUP BY o_orderstatus
        """,
        "part_type_tokens": """
            SELECT upper(split_part(p_type, ' ', 1)) AS type_head,
                   count(*) AS n
            FROM part GROUP BY type_head
        """,
        "supplier_acct_by_nation": """
            SELECT n_name, count(*) AS n_suppliers,
                   CAST(floor(sum(s_acctbal) * 100 + 0.5) AS BIGINT)
                       AS total_bal
            FROM supplier JOIN nation ON s_nationkey = n_nationkey
            GROUP BY n_name
        """,
        "events_json_extract": """
            SELECT event_type, count(*) AS n,
                   CAST(sum(CAST(json_extract_string(props, '$.k')
                        AS BIGINT)) AS BIGINT) AS sum_k
            FROM events GROUP BY event_type
        """,
        "union_region_nation": """
            SELECT r_name AS name, 'region' AS kind FROM region
            UNION ALL
            SELECT n_name, 'nation' FROM nation
        """,
        "revenue_by_priority": """
            SELECT o_orderpriority,
                   CAST(floor(sum(rev) * 100 + 0.5) AS BIGINT) AS revenue,
                   count(*) AS n_orders
            FROM orders JOIN (
                SELECT l_orderkey, sum(l_extendedprice) AS rev
                FROM lineitem GROUP BY l_orderkey
            ) li ON o_orderkey = l_orderkey
            GROUP BY o_orderpriority
        """,
        "lineitem_bloom_semi": """
            SELECT l_returnflag, count(*) AS n,
                   CAST(floor(sum(l_quantity) * 100 + 0.5) AS BIGINT)
                       AS sum_qty
            FROM lineitem
            WHERE l_partkey IN (SELECT p_partkey FROM part
                                WHERE p_partkey % 20 = 3)
            GROUP BY l_returnflag
        """,
        "orders_bloom_anti": """
            SELECT o_orderpriority, count(*) AS n
            FROM orders
            WHERE o_custkey NOT IN (
                SELECT c_custkey FROM customer
                WHERE c_mktsegment = 'BUILDING')
            GROUP BY o_orderpriority
        """,
        "lineitem_skew_join": """
            SELECT p_brand, count(*) AS n,
                   CAST(floor(sum(l_quantity) * 100 + 0.5) AS BIGINT)
                       AS sum_qty
            FROM lineitem JOIN part ON l_partkey = p_partkey
            GROUP BY p_brand
        """,
        "tpch_q3": """
            WITH r AS (
                SELECT l_orderkey AS o_orderkey,
                       sum(l_extendedprice * (1 - l_discount)) AS rev
                FROM lineitem
                WHERE l_shipdate > TIMESTAMP '1996-06-01'
                GROUP BY l_orderkey),
            q AS (
                SELECT o_orderkey,
                       CAST(CAST(o_orderdate AS DATE) - DATE '1970-01-01'
                            AS BIGINT) AS od_day
                FROM orders
                WHERE o_orderdate < TIMESTAMP '1996-06-01'
                  AND o_custkey IN (SELECT c_custkey FROM customer
                                    WHERE c_mktsegment = 'BUILDING'))
            SELECT q.o_orderkey,
                   CAST(floor(r.rev * 100 + 0.5) AS BIGINT) AS revenue,
                   od_day
            FROM r JOIN q USING (o_orderkey)
            ORDER BY revenue DESC, o_orderkey
            LIMIT 10
        """,
        "supplier_part_degree": """
            WITH edges AS (
                SELECT DISTINCT 's' || l_suppkey AS head_id,
                                'p' || l_partkey AS tail_id
                FROM lineitem),
            up AS (
                SELECT head_id AS entity_id, 1 AS o, 0 AS i FROM edges
                UNION ALL
                SELECT tail_id, 0, 1 FROM edges)
            SELECT entity_id, CAST(sum(o) AS BIGINT) AS out_degree,
                   CAST(sum(i) AS BIGINT) AS in_degree,
                   count(*) AS degree
            FROM up GROUP BY entity_id
        """,
        "graph_stats_sql": """
            WITH edges AS (
                SELECT DISTINCT 's' || l_suppkey AS head_id,
                                'p' || l_partkey AS tail_id
                FROM lineitem),
            deg AS (
                SELECT entity_id, count(*) AS degree FROM (
                    SELECT head_id AS entity_id FROM edges
                    UNION ALL SELECT tail_id FROM edges)
                GROUP BY entity_id),
            n AS (SELECT count(*) AS n_e FROM deg),
            e AS (SELECT count(*) AS n_r FROM edges)
            SELECT n.n_e AS total_entities,
                   e.n_r AS total_relations,
                   (SELECT count(DISTINCT head_id) FROM edges) AS n_suppliers,
                   (SELECT count(DISTINCT tail_id) FROM edges) AS n_parts,
                   (SELECT max(degree) FROM deg) AS max_degree,
                   (SELECT min(degree) FROM deg) AS min_degree,
                   CAST(floor((SELECT avg(degree) FROM deg) * 1000000 + 0.5)
                        AS BIGINT) AS avg_degree_scaled,
                   CAST(floor(e.n_r / (n.n_e * (n.n_e - 1.0)) * 1000000000
                        + 0.5) AS BIGINT) AS density_scaled
            FROM n, e
        """,
        "graph_importance_sql": """
            WITH edges AS (
                SELECT DISTINCT 's' || l_suppkey AS head_id,
                                'p' || l_partkey AS tail_id
                FROM lineitem),
            up AS (
                SELECT head_id AS entity_id, 1 AS o, 0 AS i FROM edges
                UNION ALL
                SELECT tail_id, 0, 1 FROM edges),
            deg AS (
                SELECT entity_id, CAST(sum(o) AS BIGINT) AS out_degree,
                       CAST(sum(i) AS BIGINT) AS in_degree,
                       count(*) AS degree
                FROM up GROUP BY entity_id),
            n AS (SELECT count(*) AS n_e FROM deg)
            SELECT entity_id, out_degree, in_degree, degree,
                   CAST(floor(degree / (n.n_e - 1.0) * 1000000000 + 0.5)
                        AS BIGINT) AS importance
            FROM deg, n
        """,
        "linked_vocab": """
            SELECT d.doc_id,
                   (SELECT count(*) FROM nation n
                    WHERE contains(lower(d.text), lower(n.n_name)))
                 + (SELECT count(*) FROM region r
                    WHERE contains(lower(d.text), lower(r.r_name)))
                   AS n_entities,
                   (SELECT count(*) FROM nation n
                    JOIN region r ON n.n_regionkey = r.r_regionkey
                    WHERE contains(lower(d.text), lower(n.n_name))
                      AND contains(lower(d.text), lower(r.r_name)))
                   AS n_relations
            FROM documents d
        """,
        "schema_entities": """
            WITH cols AS (
                SELECT table_name, column_name
                FROM information_schema.columns
                WHERE table_name IN ('region','nation','customer','supplier',
                                     'part','orders','lineitem','events',
                                     'documents','embeddings')),
            tables AS (SELECT DISTINCT table_name FROM cols),
            ents AS (
                SELECT 'testdata' AS name, 'database' AS entity_type,
                       CAST(1.0 AS DOUBLE) AS confidence
                UNION ALL
                SELECT table_name, 'table', 1.0 FROM tables
                UNION ALL
                SELECT table_name || '.' || column_name, 'column', 1.0
                FROM cols
                WHERE lower(column_name) NOT IN
                      ('id','created_at','updated_at','deleted_at')
                UNION ALL
                SELECT DISTINCT m.concept, 'concept', 0.7
                FROM (VALUES ('user','User Management'),
                             ('customer','Customer Management'),
                             ('order','Order Management'),
                             ('product','Product Management'),
                             ('inventory','Inventory Management'),
                             ('payment','Payment Processing'),
                             ('shipment','Shipping Management'),
                             ('category','Category Management'),
                             ('review','Review System'),
                             ('cart','Shopping Cart'),
                             ('wishlist','Wishlist Management'))
                     AS m(kw, concept)
                WHERE EXISTS (SELECT 1 FROM tables t
                              WHERE contains(t.table_name, m.kw)))
            SELECT 'entity_' || substr(md5(lower(trim(name))), 1, 8)
                       AS entity_id,
                   name, entity_type, confidence
            FROM ents
        """,
        "chunk_stats": """
            WITH linked AS (
                SELECT d.doc_id, length(d.text) AS len,
                       (SELECT count(*) FROM nation n
                        WHERE contains(lower(d.text), lower(n.n_name)))
                     + (SELECT count(*) FROM region r
                        WHERE contains(lower(d.text), lower(r.r_name)))
                       AS n_e,
                       (SELECT count(*) FROM nation n
                        JOIN region r ON n.n_regionkey = r.r_regionkey
                        WHERE contains(lower(d.text), lower(n.n_name))
                          AND contains(lower(d.text), lower(r.r_name)))
                       AS n_r
                FROM documents d)
            SELECT count(*) AS total_chunks,
                   CAST(sum(len) AS BIGINT) AS total_content_length,
                   CAST(floor(sum(len) / count(*)::DOUBLE * 1000000 + 0.5)
                        AS BIGINT) AS avg_content_length_scaled,
                   CAST(sum(CASE WHEN n_e > 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS chunks_with_entities,
                   CAST(sum(CASE WHEN n_r > 0 THEN 1 ELSE 0 END) AS BIGINT)
                       AS chunks_with_relations,
                   CAST(sum(CASE WHEN n_e = 0 AND n_r = 0 THEN 1 ELSE 0 END)
                        AS BIGINT) AS orphaned_chunks,
                   CAST(floor(sum(n_e) / count(*)::DOUBLE * 1000000 + 0.5)
                        AS BIGINT) AS avg_entities_scaled,
                   CAST(floor(sum(n_r) / count(*)::DOUBLE * 1000000 + 0.5)
                        AS BIGINT) AS avg_relations_scaled
            FROM linked
        """,
        "events_sessionize": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS ts_us FROM events),
            o AS (SELECT user_id, ts_us,
                         CASE WHEN ts_us - lag(ts_us) OVER
                              (PARTITION BY user_id ORDER BY ts_us)
                              > 1800000000 THEN 1 ELSE 0 END AS brk
                  FROM e),
            s AS (SELECT user_id, ts_us,
                         CAST(sum(brk) OVER (PARTITION BY user_id
                             ORDER BY ts_us ROWS UNBOUNDED PRECEDING)
                             AS BIGINT) AS session_id
                  FROM o)
            SELECT user_id, session_id, count(*) AS n_events,
                   min(ts_us) AS session_start, max(ts_us) AS session_end,
                   CAST(floor((max(ts_us) - min(ts_us)) / 1e6 * 1000000
                        + 0.5) AS BIGINT) AS duration_sec
            FROM s GROUP BY user_id, session_id
        """,
        "events_hopping": """
            WITH e AS (SELECT user_id, epoch_us(ts) AS us, value
                       FROM events),
            x AS (SELECT user_id, value, us,
                         (us // 3600000000) * 3600000000
                             - i * 3600000000 AS window_start
                  FROM e, range(0, 4) t(i))
            SELECT user_id, window_start, count(*) AS n,
                   CAST(floor(sum(value) * 100 + 0.5) AS BIGINT) AS sum_value
            FROM x
            WHERE window_start >= 0
              AND us < window_start + 14400000000
            GROUP BY user_id, window_start
        """,
        "events_rolling": """
            SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                   count(*) OVER w AS roll_n,
                   CAST(sum(CAST(floor(value * 100 + 0.5) AS BIGINT))
                        OVER w AS BIGINT) AS roll_sum
            FROM events
            WINDOW w AS (PARTITION BY user_id ORDER BY epoch_us(ts)
                         RANGE BETWEEN 86400000000 PRECEDING
                         AND CURRENT ROW)
        """,
        "events_late": """
            SELECT event_id, watermark_us,
                   -- additive form: the sentinel minus lateness would
                   -- underflow INT64 (no short-circuit in SQL)
                   CAST(watermark_us <> -9223372036854775808
                        AND ts_us + 600000000 < watermark_us
                        AS BIGINT) AS late
            FROM (
                SELECT event_id, epoch_us(ts) AS ts_us,
                       COALESCE(MAX(epoch_us(ts)) OVER (
                           ORDER BY event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), -9223372036854775808)
                           AS watermark_us
                FROM events)
        """,
        "events_window_ontime": """
            SELECT user_id,
                   CAST(epoch_us(ts) // 86400000000 AS BIGINT) AS day,
                   count(*) AS n,
                   CAST(floor(sum(value) * 100 + 0.5) AS BIGINT)
                       AS sum_value
            FROM (
                SELECT user_id, ts, value,
                       COALESCE(MAX(epoch_us(ts)) OVER (
                           ORDER BY event_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                           AND 1 PRECEDING), -9223372036854775808) AS wm
                FROM events)
            WHERE NOT (wm <> -9223372036854775808
                       AND epoch_us(ts) + 600000000 < wm)
            GROUP BY user_id, day
        """,
        "events_lag_delta": """
            SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                   COALESCE(epoch_us(ts) - lag(epoch_us(ts)) OVER (
                       PARTITION BY user_id
                       ORDER BY epoch_us(ts), event_id), -1) AS delta_us
            FROM events
        """,
        "events_running": """
            SELECT event_id, user_id, epoch_us(ts) AS ts_us,
                   CAST(row_number() OVER w AS BIGINT) AS row_num,
                   min(floor(value * 100 + 0.5)) OVER w AS run_min,
                   max(floor(value * 100 + 0.5)) OVER w AS run_max
            FROM events
            WINDOW w AS (PARTITION BY user_id
                         ORDER BY epoch_us(ts), event_id
                         ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
        """,
        "rollup_orders": """
            SELECT o_orderpriority, o_orderstatus, count(*) AS cnt,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_v
            FROM orders
            GROUP BY ROLLUP (o_orderpriority, o_orderstatus)
        """,
        "events_ranked": """
            SELECT event_id, user_id,
                   CAST(floor(value * 100 + 0.5) AS BIGINT) AS v,
                   CAST(rank() OVER w AS BIGINT) AS rnk,
                   CAST(dense_rank() OVER w AS BIGINT) AS dense_rnk,
                   percent_rank() OVER w AS pct_rank,
                   cume_dist() OVER w AS cume_dist,
                   CAST(ntile(4) OVER wt AS BIGINT) AS tile
            FROM events
            WINDOW w AS (PARTITION BY user_id
                         ORDER BY floor(value * 100 + 0.5)),
                   wt AS (PARTITION BY user_id
                          ORDER BY floor(value * 100 + 0.5), event_id)
        """,
        "cube_orders": """
            SELECT o_orderpriority, o_orderstatus, count(*) AS cnt,
                   CAST(sum(CAST(floor(o_totalprice * 100 + 0.5) AS BIGINT))
                        AS BIGINT) AS sum_v
            FROM orders
            GROUP BY CUBE (o_orderpriority, o_orderstatus)
        """,
        "lineitem_price_hist": """
            WITH b AS (SELECT LEAST(GREATEST(CAST(floor(
                           l_extendedprice / 5000.0) AS BIGINT), 0), 21)
                       AS bin FROM lineitem)
            SELECT bin, bin * 5000.0 AS bin_lo, count(*) AS cnt
            FROM b GROUP BY bin
        """,
        "docs_unigram_lp": """
            WITH toks AS (SELECT doc_id, unnest(string_split(text, ' ')) AS w
                          FROM documents),
                 cnt AS (SELECT w, count(*) AS c FROM toks GROUP BY w),
                 tot AS (SELECT count(*) AS t FROM toks)
            SELECT toks.doc_id,
                   count(*) AS n_tokens,
                   CAST(floor(avg(ln(cnt.c / CAST(tot.t AS DOUBLE)))
                              * 1000000 + 0.5) AS BIGINT) AS lp_micro
            FROM toks, tot JOIN cnt ON toks.w = cnt.w
            GROUP BY toks.doc_id
        """,
        "customer_fuzzy_names": """
            WITH n AS (SELECT DISTINCT c_name FROM customer)
            SELECT x.c_name AS a, y.c_name AS b,
                   CAST(levenshtein(x.c_name, y.c_name) AS BIGINT) AS dist
            FROM n x JOIN n y
              ON x.c_name < y.c_name
             AND levenshtein(x.c_name, y.c_name) <= 1
        """,
        "emb_label_centroids": """
            WITH u AS (SELECT label,
                              generate_subscripts(embedding, 1) AS dim,
                              unnest(embedding) AS v
                       FROM embeddings)
            SELECT label, dim, count(*) AS n,
                   CAST(floor(avg(CAST(v AS DOUBLE)) * 1000000 + 0.5)
                        AS BIGINT) AS c_micro
            FROM u GROUP BY label, dim
        """,
        "emb_outliers": """
            WITH u AS (SELECT vec_id, label,
                              generate_subscripts(embedding, 1) AS dim,
                              CAST(unnest(embedding) AS DOUBLE) AS v
                       FROM embeddings),
                 c AS (SELECT label, dim, avg(v) AS cv
                       FROM u GROUP BY label, dim),
                 j AS (SELECT u.vec_id, u.label,
                              sum(u.v * c.cv) AS dot,
                              sqrt(sum(u.v * u.v)) AS nv,
                              sqrt(sum(c.cv * c.cv)) AS nc
                       FROM u JOIN c ON u.label = c.label AND u.dim = c.dim
                       GROUP BY u.vec_id, u.label)
            SELECT vec_id, label,
                   CAST(floor(dot / greatest(nv * nc, 1e-300)
                              * 1000000 + 0.5) AS BIGINT) AS cos_micro
            FROM j
        """,
        "supplier_nbr_features": """
            WITH e AS (SELECT DISTINCT l_suppkey AS s, l_partkey AS p
                       FROM lineitem),
                 m AS (SELECT e.p AS node, f.embedding AS v
                       FROM e JOIN embeddings f ON f.vec_id = e.s),
                 x AS (SELECT node,
                              unnest(v) AS val,
                              unnest(generate_series(1, len(v))) AS pos
                       FROM m)
            SELECT node, CAST(pos - 1 AS BIGINT) AS pos,
                   CAST(floor(avg(CAST(val AS DOUBLE)) * 1e6 + 0.5)
                        AS BIGINT) AS val_e6,
                   count(*) AS n_in
            FROM x GROUP BY node, pos
        """,
        "part_ppr": """
            WITH RECURSIVE
            eu AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
                   FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey),
            e AS (SELECT a AS src, b AS dst FROM eu
                  UNION ALL SELECT b, a FROM eu),
            deg AS (SELECT src, CAST(count(*) AS DOUBLE) AS od
                    FROM e GROUP BY src),
            pr(iter, node, rank) AS (
                SELECT 0, src,
                       CASE WHEN src IN (0, 1, 2)
                            THEN CAST(1 AS DOUBLE) / 3
                            ELSE CAST(0 AS DOUBLE) END
                FROM (SELECT DISTINCT src FROM e)
                UNION ALL
                SELECT p.iter + 1, ee.dst,
                       (CAST(1 AS DOUBLE) - 0.85) *
                           (CASE WHEN ee.dst IN (0, 1, 2)
                                 THEN CAST(1 AS DOUBLE) / 3
                                 ELSE CAST(0 AS DOUBLE) END)
                       + 0.85 * sum(p.rank / d.od)
                FROM pr p JOIN e ee ON ee.src = p.node
                          JOIN deg d ON d.src = p.node
                WHERE p.iter < 6
                GROUP BY p.iter, ee.dst
            )
            SELECT node, CAST(floor(rank * 1e6 + 0.5) AS BIGINT) AS rank_e6
            FROM pr WHERE iter = 6
        """,
        "part_triangles": """
            WITH e AS (SELECT DISTINCT l1.l_partkey AS a,
                                       l2.l_partkey AS b
                       FROM lineitem l1 JOIN lineitem l2
                         ON l1.l_orderkey = l2.l_orderkey
                        AND l1.l_partkey < l2.l_partkey),
                 t AS (SELECT e1.a AS x, e1.b AS y, e2.b AS z
                       FROM e e1
                       JOIN e e2 ON e2.a = e1.b
                       JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b),
                 c AS (SELECT x AS node FROM t
                       UNION ALL SELECT y FROM t
                       UNION ALL SELECT z FROM t)
            SELECT node, count(*) AS n_tri FROM c GROUP BY node
        """,
        "supplier_components": """
            WITH RECURSIVE
              e AS (SELECT DISTINCT 's' || l_suppkey AS a,
                                    'p' || l_partkey AS b
                    FROM lineitem WHERE l_quantity = 50),
              ee AS (SELECT a, b FROM e UNION SELECT b, a FROM e),
              reach(n, lbl) AS (
                SELECT a, a FROM ee
                UNION
                SELECT ee.b, r.lbl FROM reach r JOIN ee ON ee.a = r.n)
            SELECT n AS node, min(lbl) AS label FROM reach GROUP BY n
        """,
        "full_outer_parts": """
            WITH l AS (SELECT p_partkey AS partkey, p_brand
                       FROM part WHERE p_size >= 48),
                 r AS (SELECT l_partkey AS partkey, count(*) AS cnt
                       FROM lineitem GROUP BY 1 HAVING count(*) >= 8)
            SELECT COALESCE(l.partkey, r.partkey) AS partkey, p_brand, cnt
            FROM l FULL OUTER JOIN r ON l.partkey = r.partkey
        """,
        "events_pivot": """
            SELECT user_id,
                   count(*) FILTER (event_type = 'click') AS n_click,
                   count(*) FILTER (event_type = 'error') AS n_error,
                   count(*) FILTER (event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (event_type = 'signup') AS n_signup,
                   count(*) FILTER (event_type = 'view') AS n_view,
                   CAST(COALESCE(sum(CAST(floor(value * 100 + 0.5)
                       AS BIGINT)) FILTER (event_type = 'click'), 0)
                       AS BIGINT) AS sum_click,
                   CAST(COALESCE(sum(CAST(floor(value * 100 + 0.5)
                       AS BIGINT)) FILTER (event_type = 'error'), 0)
                       AS BIGINT) AS sum_error,
                   CAST(COALESCE(sum(CAST(floor(value * 100 + 0.5)
                       AS BIGINT)) FILTER (event_type = 'purchase'), 0)
                       AS BIGINT) AS sum_purchase,
                   CAST(COALESCE(sum(CAST(floor(value * 100 + 0.5)
                       AS BIGINT)) FILTER (event_type = 'signup'), 0)
                       AS BIGINT) AS sum_signup,
                   CAST(COALESCE(sum(CAST(floor(value * 100 + 0.5)
                       AS BIGINT)) FILTER (event_type = 'view'), 0)
                       AS BIGINT) AS sum_view
            FROM events GROUP BY user_id
        """,
        "docs_tfidf": """
            WITH tok AS (
                SELECT doc_id, unnest(string_split(text, ' ')) AS word
                FROM documents),
            tf AS (SELECT doc_id, word, count(*) AS tf
                   FROM tok GROUP BY doc_id, word),
            dft AS (SELECT word, count(*) AS df FROM tf GROUP BY word),
            n AS (SELECT count(*) AS n FROM documents),
            scored AS (
                SELECT tf.doc_id, tf.word, tf.tf, dft.df,
                       tf.tf * (ln((n.n + 1.0) / (dft.df + 1.0)) + 1.0)
                           AS fscore
                FROM tf, dft, n WHERE tf.word = dft.word)
            SELECT doc_id, word, tf, df,
                   CAST(floor(fscore * 1000000 + 0.5) AS BIGINT) AS score
            FROM scored
            QUALIFY row_number() OVER (
                PARTITION BY doc_id
                ORDER BY fscore DESC, word ASC) <= 5
        """,
        "docs_top_trigrams": """
            WITH t AS (SELECT string_split(text, ' ') AS l FROM documents),
            g AS (SELECT unnest(list_transform(
                      generate_series(1, len(l) - 2),
                      i -> l[i] || ' ' || l[i+1] || ' ' || l[i+2])) AS gram
                  FROM t)
            SELECT gram, count(*) AS cnt FROM g GROUP BY gram
            ORDER BY cnt DESC, gram LIMIT 20
        """,
        "docs_contamination": """
            SELECT d.doc_id, t.needle
            FROM documents d, (VALUES ('hash join'), ('table scan'),
                                      ('sort merge'), ('spark window'),
                                      ('vector join')) AS t(needle)
            WHERE contains(d.text, t.needle)
        """,
        "docs_redact": """
            SELECT doc_id, regexp_replace(text, '(spark|hash)', '[X]', 'g')
                AS redacted
            FROM documents
        """,
        "lineitem_exact_quantiles": """
            WITH s AS (SELECT l_extendedprice AS v FROM lineitem),
            n AS (SELECT count(*) AS n FROM s),
            r AS (SELECT v, row_number() OVER (ORDER BY v) AS rn FROM s)
            SELECT CAST(floor(q * 100 + 0.5) AS BIGINT) AS q_pct,
                   CAST(floor(r.v * 100 + 0.5) AS BIGINT) AS value
            FROM (VALUES (0.25), (0.5), (0.75), (0.99)) t(q), r, n
            WHERE r.rn = CAST(floor(q * (n.n - 1) + 0.5) AS BIGINT) + 1
        """,
        "events_user_type_distinct": """
            SELECT user_id, count(DISTINCT event_type) AS n_distinct
            FROM events GROUP BY user_id
        """,
        "events_click_attrib": """
            SELECT p.event_id, p.user_id, c.event_id AS click_id,
                   epoch_us(c.ts) AS click_ts_us
            FROM events p JOIN events c
              ON c.user_id = p.user_id
             AND epoch_us(c.ts) BETWEEN epoch_us(p.ts) - 86400000000
                                    AND epoch_us(p.ts)
            WHERE p.event_type = 'purchase' AND c.event_type = 'click'
        """,
        "docs_sample": """
            SELECT doc_id FROM documents
            WHERE ('0x' || substr(md5(CAST(doc_id AS VARCHAR)), 1, 8))
                  ::UBIGINT % 1000000 < 250000
        """,
        "events_stratified": """
            SELECT event_id, event_type FROM events
            QUALIFY row_number() OVER (
                PARTITION BY event_type
                ORDER BY ('0x' || substr(md5(CAST(event_id AS VARCHAR)),
                          1, 8))::UBIGINT, event_id) <= 50
        """,
        "docs_pack_concat": r"""
            WITH toks AS (
                SELECT doc_id,
                       CAST(len(regexp_extract_all(text, '\S+')) AS BIGINT)
                           AS token_count
                FROM documents),
            p AS (
                SELECT doc_id, token_count,
                       COALESCE(SUM(token_count) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS prefix
                FROM toks)
            SELECT doc_id, token_count,
                   CAST(prefix // 512 AS BIGINT) AS seq_id,
                   CAST(prefix % 512 AS BIGINT) AS seq_offset
            FROM p
        """,
        "docs_prep_pipeline": r"""
            WITH q AS (
                SELECT doc_id,
                       (length(text) - len(regexp_extract_all(text, '\s')))
                         / greatest(len(regexp_extract_all(text, '\S+')),
                                    1)::DOUBLE AS avg_token_len,
                       len(regexp_extract_all(text, '[[:punct:]]'))
                         / greatest(length(text), 1)::DOUBLE AS punct_ratio,
                       CASE WHEN len(regexp_extract_all(
                                     text, '[\x{4e00}-\x{9fff}]'))
                                 / greatest(length(text), 1)::DOUBLE > 0.2
                                THEN 'zh'
                            WHEN len(regexp_extract_all(text, '[A-Za-z]'))
                                 / greatest(length(text), 1)::DOUBLE > 0.6
                                THEN 'en'
                            ELSE 'other' END AS lang_pred
                FROM documents),
            wc AS (
                SELECT doc_id, w, count(*) AS c
                FROM (SELECT doc_id, unnest(string_split(text, ' ')) AS w
                      FROM documents)
                GROUP BY doc_id, w),
            w AS (
                SELECT doc_id,
                       sum(c) AS word_total,
                       1 - count(*) / greatest(sum(c), 1)::DOUBLE
                           AS dup_word_fraction,
                       max(c) / greatest(sum(c), 1)::DOUBLE
                           AS top_word_fraction
                FROM wc GROUP BY doc_id),
            keepers AS (
                SELECT q.doc_id
                FROM q JOIN w USING (doc_id)
                WHERE NOT (w.word_total < 5 OR w.word_total > 100000
                           OR avg_token_len < 2.0 OR avg_token_len > 12.0
                           OR punct_ratio > 0.30
                           OR lang_pred = 'other'
                           OR dup_word_fraction > 0.50
                           OR (top_word_fraction > 0.30
                               AND w.word_total >= 5))),
            t AS (
                SELECT d.doc_id, md5(d.text) AS h,
                       CAST(len(regexp_extract_all(d.text, '\S+'))
                            AS BIGINT) AS token_count
                FROM documents d JOIN keepers USING (doc_id)),
            reps AS (SELECT h, min(doc_id) AS doc_id FROM t GROUP BY h),
            s AS (SELECT t.doc_id, t.token_count
                  FROM t JOIN reps ON t.doc_id = reps.doc_id),
            p AS (
                SELECT doc_id, token_count,
                       COALESCE(SUM(token_count) OVER (
                           ORDER BY doc_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS prefix
                FROM s)
            SELECT doc_id, token_count,
                   CAST(prefix // 512 AS BIGINT) AS seq_id,
                   CAST(prefix % 512 AS BIGINT) AS seq_offset,
                   CASE WHEN ('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                              1, 8))::UBIGINT % 100 < 95
                        THEN 'train' ELSE 'val' END AS split
            FROM p
        """,
        "docs_dup_ngrams": """
            WITH w AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            g AS (SELECT doc_id,
                         array_to_string(list_slice(ws, i, i + 7), ' ')
                             AS gram
                  FROM w, UNNEST(generate_series(1, len(ws) - 7)) AS t(i)),
            c AS (SELECT gram, count(*) AS total FROM g GROUP BY gram),
            d AS (SELECT g.doc_id, count(*) AS n,
                         sum(CASE WHEN c.total >= 2 THEN 1 ELSE 0 END) AS dup
                  FROM g JOIN c USING (gram) GROUP BY g.doc_id)
            SELECT doc_id,
                   CAST(COALESCE(d.n, 0) AS BIGINT) AS n_ngrams,
                   CAST(COALESCE(d.dup, 0) AS BIGINT) AS n_dup_ngrams
            FROM documents LEFT JOIN d USING (doc_id)
        """,
        "events_window_dedup": """
            WITH w AS (
                SELECT event_id, user_id, event_type,
                       (epoch_us(ts) // 3600000000) * 3600000000
                           AS window_start,
                       epoch_us(ts) AS ts_us
                FROM events)
            SELECT event_id, user_id, event_type, window_start FROM w
            QUALIFY row_number() OVER (
                PARTITION BY user_id, event_type, window_start
                ORDER BY ts_us, event_id) = 1
        """,
        "supplier_neighbor_sample": """
            WITH e AS (SELECT DISTINCT l_suppkey, l_partkey FROM lineitem)
            SELECT l_suppkey, l_partkey FROM e
            QUALIFY row_number() OVER (
                PARTITION BY l_suppkey
                ORDER BY ('0x' || substr(md5(CAST(l_partkey AS VARCHAR)),
                          1, 8))::UBIGINT, l_partkey) <= 5
        """,
        "lineitem_melt": """
            WITH m AS (
                SELECT l_orderkey, l_linenumber,
                       'l_quantity' AS measure,
                       CAST(l_quantity AS DOUBLE) AS val FROM lineitem
                UNION ALL
                SELECT l_orderkey, l_linenumber, 'l_extendedprice',
                       CAST(l_extendedprice AS DOUBLE) FROM lineitem
                UNION ALL
                SELECT l_orderkey, l_linenumber, 'l_discount',
                       CAST(l_discount AS DOUBLE) FROM lineitem
                UNION ALL
                SELECT l_orderkey, l_linenumber, 'l_tax',
                       CAST(l_tax AS DOUBLE) FROM lineitem)
            SELECT l_orderkey, l_linenumber, measure,
                   CAST(floor(val * 100 + 0.5) AS BIGINT) AS v
            FROM m
        """,
        "events_zscore": """
            WITH s AS (
                SELECT event_type, avg(value) AS m,
                       stddev_pop(value) AS sd
                FROM events GROUP BY event_type)
            SELECT e.event_id, e.event_type,
                   CAST(floor(CASE WHEN s.sd > 0
                                   THEN (e.value - s.m) / s.sd
                                   ELSE 0 END * 1000000 + 0.5) AS BIGINT)
                       AS z
            FROM events e JOIN s USING (event_type)
        """,
        "lineitem_corr": """
            SELECT l_returnflag, COUNT(*) AS n,
                   CAST(floor(corr(l_extendedprice, l_quantity)
                              * 1000000 + 0.5) AS BIGINT) AS corr,
                   CAST(floor(regr_slope(l_extendedprice, l_quantity)
                              * 10000 + 0.5) AS BIGINT) AS slope,
                   CAST(floor(regr_intercept(l_extendedprice, l_quantity)
                              * 10000 + 0.5) AS BIGINT) AS intercept
            FROM lineitem GROUP BY l_returnflag
        """,
        "events_user_mode": """
            SELECT user_id, mode_value, cnt FROM (
                SELECT user_id, event_type AS mode_value,
                       COUNT(*) AS cnt,
                       ROW_NUMBER() OVER (
                           PARTITION BY user_id
                           ORDER BY COUNT(*) DESC, event_type) AS rn
                FROM events GROUP BY user_id, event_type) t
            WHERE rn = 1
        """,
        "user_event_entropy": """
            WITH c AS (SELECT user_id, event_type, COUNT(*) AS c
                       FROM events GROUP BY user_id, event_type),
            t AS (SELECT user_id, SUM(c) AS n FROM c GROUP BY user_id)
            SELECT c.user_id, CAST(t.n AS BIGINT) AS n,
                   CAST(floor(SUM(-(c.c / t.n) * log2(c.c / t.n))
                              * 1000000 + 0.5) AS BIGINT) AS entropy
            FROM c JOIN t USING (user_id)
            GROUP BY c.user_id, t.n
        """,
        "region_nation_concat": """
            SELECT n_regionkey,
                   string_agg(n_name, ',' ORDER BY n_name) AS concat
            FROM nation GROUP BY n_regionkey
        """,
        "docs_except": """
            SELECT lang, source FROM documents WHERE n_chars < 400
            EXCEPT
            SELECT lang, source FROM documents WHERE n_chars >= 400
        """,
        "docs_intersect": """
            SELECT lang, source FROM documents WHERE n_chars < 400
            INTERSECT
            SELECT lang, source FROM documents WHERE n_chars >= 400
        """,
        "orders_row_number": """
            SELECT o_orderkey,
                   ROW_NUMBER() OVER (ORDER BY o_totalprice, o_orderkey)
                       AS rn
            FROM orders
        """,
        "orders_ntile": """
            SELECT o_orderkey,
                   NTILE(7) OVER (ORDER BY o_totalprice, o_orderkey)
                       AS tile
            FROM orders
        """,
        "lineitem_profile": """
            SELECT 'l_quantity' AS column, COUNT(*) AS n,
                   COUNT(*) - COUNT(l_quantity) AS nulls,
                   CAST(floor(MIN(l_quantity) * 100 + 0.5) AS BIGINT)
                       AS min_v,
                   CAST(floor(MAX(l_quantity) * 100 + 0.5) AS BIGINT)
                       AS max_v,
                   CAST(floor(AVG(l_quantity) * 100 + 0.5) AS BIGINT)
                       AS mean_v,
                   NULL AS min_s, NULL AS max_s
            FROM lineitem
            UNION ALL
            SELECT 'l_extendedprice', COUNT(*),
                   COUNT(*) - COUNT(l_extendedprice),
                   CAST(floor(MIN(l_extendedprice) * 100 + 0.5) AS BIGINT),
                   CAST(floor(MAX(l_extendedprice) * 100 + 0.5) AS BIGINT),
                   CAST(floor(AVG(l_extendedprice) * 100 + 0.5) AS BIGINT),
                   NULL, NULL
            FROM lineitem
            UNION ALL
            SELECT 'l_returnflag', COUNT(*),
                   COUNT(*) - COUNT(l_returnflag),
                   NULL, NULL, NULL,
                   MIN(l_returnflag), MAX(l_returnflag)
            FROM lineitem
            UNION ALL
            SELECT 'l_linestatus', COUNT(*),
                   COUNT(*) - COUNT(l_linestatus),
                   NULL, NULL, NULL,
                   MIN(l_linestatus), MAX(l_linestatus)
            FROM lineitem
        """,
        "lineitem_winsorize": """
            WITH s AS (
                SELECT l_extendedprice AS v,
                       row_number() OVER (ORDER BY l_extendedprice) - 1
                           AS r,
                       count(*) OVER () AS n
                FROM lineitem),
            b AS (SELECT
                max(v) FILTER (WHERE r =
                    CAST(floor(0.05 * (n - 1) + 0.5) AS BIGINT)) AS lo,
                max(v) FILTER (WHERE r =
                    CAST(floor(0.95 * (n - 1) + 0.5) AS BIGINT)) AS hi
                FROM s)
            SELECT l_orderkey, l_linenumber,
                   CAST(floor(LEAST(GREATEST(l_extendedprice, b.lo), b.hi)
                              * 100 + 0.5) AS BIGINT) AS w
            FROM lineitem, b
        """,
        "docs_diff": """
            SELECT lang, source, 'removed' AS status FROM (
                SELECT lang, source FROM documents WHERE n_chars < 400
                EXCEPT
                SELECT lang, source FROM documents WHERE n_chars >= 400)
            UNION ALL
            SELECT lang, source, 'added' AS status FROM (
                SELECT lang, source FROM documents WHERE n_chars >= 400
                EXCEPT
                SELECT lang, source FROM documents WHERE n_chars < 400)
        """,
        "lineitem_quantiles_cont": """
            SELECT l_returnflag,
                   CAST(floor(quantile_cont(l_extendedprice, 0.25) * 1000
                              + 0.5) AS BIGINT) AS q25,
                   CAST(floor(quantile_cont(l_extendedprice, 0.50) * 1000
                              + 0.5) AS BIGINT) AS q50,
                   CAST(floor(quantile_cont(l_extendedprice, 0.75) * 1000
                              + 0.5) AS BIGINT) AS q75,
                   count(*) AS n
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "docs_scd2": """
            WITH hist AS (SELECT doc_id, lang,
                                 CAST(0 AS BIGINT) AS valid_from,
                                 CAST(4611686018427387904 AS BIGINT)
                                     AS valid_to
                          FROM documents),
            upd AS (SELECT doc_id, 'xx' AS lang,
                           CAST(100 AS BIGINT) AS ts
                    FROM documents WHERE doc_id % 7 = 0
                    UNION ALL
                    SELECT doc_id, 'yy', CAST(200 AS BIGINT)
                    FROM documents WHERE doc_id % 14 = 0),
            allv AS (SELECT doc_id, lang, valid_from, valid_to,
                            0 AS src FROM hist
                     UNION ALL
                     SELECT doc_id, lang, ts,
                            CAST(4611686018427387904 AS BIGINT), 1
                     FROM upd)
            SELECT doc_id, lang, valid_from,
                   CASE WHEN valid_to = 4611686018427387904
                             AND lead(valid_from) OVER w IS NOT NULL
                        THEN lead(valid_from) OVER w
                        ELSE valid_to END AS valid_to
            FROM allv
            WINDOW w AS (PARTITION BY doc_id
                         ORDER BY src, valid_from, lang)
            ORDER BY doc_id, valid_from
        """,
        "docs_curation_v2": """
            WITH tr AS (SELECT doc_id, text FROM documents
                        WHERE doc_id % 10 <> 0),
            ev AS (SELECT doc_id, text FROM documents
                   WHERE doc_id % 10 = 0),
            dd AS (SELECT doc_id, text FROM tr
                   QUALIFY row_number() OVER (PARTITION BY md5(text)
                                              ORDER BY doc_id) = 1),
            trt AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS w,
                           unnest(generate_series(
                               1, len(string_split(text, ' ')))) AS pos
                    FROM dd),
            evt AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS w,
                           unnest(generate_series(
                               1, len(string_split(text, ' ')))) AS pos
                    FROM ev),
            trg AS (SELECT doc_id,
                           w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win || ' ' || lead(w, 5) OVER win || ' ' || lead(w, 6) OVER win || ' ' || lead(w, 7) OVER win AS gram
                    FROM trt
                    WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            evg AS (SELECT DISTINCT
                           w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win || ' ' || lead(w, 5) OVER win || ' ' || lead(w, 6) OVER win || ' ' || lead(w, 7) OVER win AS gram
                    FROM evt
                    WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            bad AS (SELECT DISTINCT doc_id FROM trg
                    WHERE gram IS NOT NULL
                      AND gram IN (SELECT gram FROM evg
                                   WHERE gram IS NOT NULL)),
            kept AS (SELECT doc_id, text FROM dd
                     WHERE doc_id NOT IN (SELECT doc_id FROM bad))
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+')) AS token_count,
                   CASE WHEN CAST(('0x' || substr(md5(
                            CAST(doc_id AS VARCHAR)), 1, 8)) AS UBIGINT)
                            % 100 < 95
                        THEN 'train' ELSE 'val' END AS split
            FROM kept ORDER BY doc_id
        """,
        "lineitem_expectations": """
            SELECT 'not_null' AS rule, 'l_orderkey' AS column,
                   count(*) AS n_checked,
                   count(*) - count(l_orderkey) AS n_violations,
                   count(*) = count(l_orderkey) AS passed
            FROM lineitem
            UNION ALL
            SELECT 'in_range', 'l_quantity', count(*),
                   count(*) FILTER (WHERE l_quantity < 1
                                       OR l_quantity > 50),
                   count(*) FILTER (WHERE l_quantity < 1
                                       OR l_quantity > 50) = 0
            FROM lineitem
            UNION ALL
            SELECT 'matches', 'l_returnflag', count(*),
                   count(*) FILTER (WHERE NOT
                       regexp_matches(l_returnflag, '^[ANR]$')),
                   count(*) FILTER (WHERE NOT
                       regexp_matches(l_returnflag, '^[ANR]$')) = 0
            FROM lineitem
            UNION ALL
            SELECT 'unique', 'l_orderkey', count(*),
                   count(*) - count(DISTINCT l_orderkey),
                   count(*) = count(DISTINCT l_orderkey)
            FROM lineitem
            ORDER BY rule
        """,
        "events_attrib_linear": """
            WITH e AS (SELECT user_id, ts, event_id, event_type,
                              CASE WHEN event_type = 'purchase'
                                   THEN event_id END AS pid
                       FROM events),
            w AS (SELECT *, first_value(pid IGNORE NULLS) OVER
                          (PARTITION BY user_id ORDER BY ts, event_id
                           ROWS BETWEEN 1 FOLLOWING
                                AND UNBOUNDED FOLLOWING) AS conv
                  FROM e),
            t AS (SELECT event_type, conv FROM w
                  WHERE conv IS NOT NULL
                    AND event_type IN ('view', 'click')),
            c AS (SELECT conv, count(*) AS n FROM t GROUP BY conv)
            SELECT t.event_type, count(*) AS n_touches,
                   CAST(floor(sum(1.0 / c.n) * 1000000 + 0.5) AS BIGINT)
                       AS credit_micro
            FROM t JOIN c ON t.conv = c.conv
            GROUP BY t.event_type ORDER BY t.event_type
        """,
        "events_transitions": """
            WITH o AS (SELECT user_id, event_type,
                              lead(event_type) OVER
                                  (PARTITION BY user_id
                                   ORDER BY ts, event_id) AS nxt
                       FROM events)
            SELECT event_type AS from_type, nxt AS to_type,
                   count(*) AS cnt
            FROM o WHERE nxt IS NOT NULL
            GROUP BY event_type, nxt
            ORDER BY from_type, to_type
        """,
        "lineitem_means": """
            SELECT l_returnflag, count(*) AS n,
                   CAST(floor(avg(l_quantity) * 1000 + 0.5) AS BIGINT)
                       AS mean_v,
                   CAST(floor(exp(avg(ln(l_quantity))) * 1000 + 0.5)
                        AS BIGINT) AS geomean_v,
                   CAST(floor(count(*) / sum(1.0 / l_quantity) * 1000
                              + 0.5) AS BIGINT) AS harmean_v
            FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag
        """,
        "events_cohorts": """
            WITH w AS (SELECT user_id,
                              CAST(floor(epoch_us(ts) / 604800000000)
                                   AS BIGINT) AS w
                       FROM events),
            c AS (SELECT user_id, min(w) AS cohort_w
                  FROM w GROUP BY user_id)
            SELECT c.cohort_w, w.w,
                   count(DISTINCT w.user_id) AS n_users
            FROM w JOIN c ON w.user_id = c.user_id
            GROUP BY c.cohort_w, w.w
            ORDER BY c.cohort_w, w.w
        """,
        "docs_word_pmi": """
            WITH dw AS (SELECT DISTINCT doc_id, w FROM
                        (SELECT doc_id,
                                unnest(string_split(text, ' ')) AS w
                         FROM documents)),
            cap AS (SELECT doc_id, w FROM
                    (SELECT doc_id, w,
                            row_number() OVER (PARTITION BY doc_id
                                               ORDER BY w) AS rk
                     FROM dw) WHERE rk <= 64),
            pairs AS (SELECT a.w AS w1, b.w AS w2, count(*) AS c12
                      FROM cap a JOIN cap b
                        ON a.doc_id = b.doc_id AND a.w < b.w
                      GROUP BY a.w, b.w),
            uni AS (SELECT w, count(*) AS c FROM cap GROUP BY w),
            nd AS (SELECT count(*)::DOUBLE AS n FROM documents),
            top AS (SELECT * FROM pairs
                    ORDER BY c12 DESC, w1, w2 LIMIT 100)
            SELECT t.w1, t.w2, t.c12,
                   CAST(floor(ln(t.c12 * nd.n / (u1.c * u2.c)) * 1000000
                              + 0.5) AS BIGINT) AS pmi_micro
            FROM top t JOIN uni u1 ON u1.w = t.w1
                       JOIN uni u2 ON u2.w = t.w2
                       CROSS JOIN nd
            ORDER BY t.c12 DESC, t.w1, t.w2
        """,
        "lineitem_quantile_radix": """
            WITH s AS (SELECT l_returnflag, l_extendedprice,
                              row_number() OVER (PARTITION BY l_returnflag
                                  ORDER BY l_extendedprice) - 1 AS r,
                              count(*) OVER (PARTITION BY l_returnflag)
                                  AS n
                       FROM lineitem)
            SELECT l_returnflag,
                   CAST(floor(l_extendedprice * 100 + 0.5) AS BIGINT)
                       AS q50,
                   n
            FROM s
            WHERE r = CAST(floor(0.5 * (n - 1) + 0.5) AS BIGINT)
            ORDER BY l_returnflag
        """,
        "docs_sample_n": """
            SELECT doc_id, lang FROM documents
            ORDER BY CAST(('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                           1, 8)) AS UBIGINT), doc_id
            LIMIT 25
        """,
        "docs_resample": """
            WITH w AS (SELECT doc_id,
                              (doc_id % 5) + 0.5 AS wt FROM documents),
            r AS (SELECT doc_id,
                         CAST(floor(wt) AS BIGINT)
                         + CASE WHEN CAST(('0x' || substr(md5(
                                 CAST(doc_id AS VARCHAR)), 1, 8))
                                 AS UBIGINT) % 1000000
                             < CAST(floor((wt - floor(wt)) * 1000000
                                          + 0.5) AS UBIGINT)
                           THEN 1 ELSE 0 END AS reps
                  FROM w)
            SELECT doc_id,
                   unnest(generate_series(0, reps - 1)) AS rep
            FROM r WHERE reps > 0
            ORDER BY doc_id, rep
        """,
        "docs_decontaminate": """
            WITH tr AS (SELECT doc_id, text FROM documents
                        WHERE doc_id % 2 = 0),
            ev AS (SELECT doc_id, text FROM documents
                   WHERE doc_id % 2 = 1),
            trt AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS w,
                           unnest(generate_series(
                               1, len(string_split(text, ' ')))) AS pos
                    FROM tr),
            evt AS (SELECT doc_id,
                           unnest(string_split(text, ' ')) AS w,
                           unnest(generate_series(
                               1, len(string_split(text, ' ')))) AS pos
                    FROM ev),
            trg AS (SELECT doc_id,
                           w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win || ' ' || lead(w, 5) OVER win || ' ' || lead(w, 6) OVER win || ' ' || lead(w, 7) OVER win AS gram
                    FROM trt
                    WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            evg AS (SELECT DISTINCT
                           w || ' ' || lead(w, 1) OVER win || ' ' || lead(w, 2) OVER win || ' ' || lead(w, 3) OVER win || ' ' || lead(w, 4) OVER win || ' ' || lead(w, 5) OVER win || ' ' || lead(w, 6) OVER win || ' ' || lead(w, 7) OVER win AS gram
                    FROM evt
                    WINDOW win AS (PARTITION BY doc_id ORDER BY pos)),
            bad AS (SELECT DISTINCT doc_id FROM trg
                    WHERE gram IS NOT NULL
                      AND gram IN (SELECT gram FROM evg
                                   WHERE gram IS NOT NULL))
            SELECT doc_id,
                   CAST(doc_id IN (SELECT doc_id FROM bad) AS BIGINT)
                       AS contaminated
            FROM tr ORDER BY doc_id
        """,
        "emb_explode": """
            SELECT vec_id,
                   unnest(generate_series(0, len(embedding) - 1)) AS pos,
                   CAST(floor(unnest(embedding)::DOUBLE * 1000000 + 0.5)
                        AS BIGINT) AS v_micro
            FROM embeddings
            ORDER BY vec_id, pos
        """,
        "supplier_walks": """
            WITH RECURSIVE e AS (
                SELECT DISTINCT l_suppkey AS a,
                                l_partkey + 1000000 AS b FROM lineitem),
            adj AS (SELECT a AS node, b AS nbr FROM e
                    UNION SELECT b, a FROM e),
            r AS (SELECT node, nbr,
                         row_number() OVER (PARTITION BY node
                                            ORDER BY nbr) - 1 AS rnk,
                         count(*) OVER (PARTITION BY node) AS deg
                  FROM adj),
            walk(walk_id, step, node) AS (
                SELECT CAST(node AS VARCHAR) || '#0', CAST(0 AS BIGINT),
                       node
                FROM (SELECT DISTINCT node FROM adj)
                UNION ALL
                SELECT w.walk_id, w.step + 1, r.nbr
                FROM walk w JOIN r ON r.node = w.node
                 AND r.rnk = CAST(CAST(('0x' || substr(md5(
                         w.walk_id || '|' || CAST(w.step AS VARCHAR)
                         || '|' || CAST(w.node AS VARCHAR)), 1, 8))
                         AS UBIGINT) % CAST(r.deg AS UBIGINT) AS BIGINT)
                WHERE w.step < 3)
            SELECT walk_id, step, node FROM walk ORDER BY walk_id, step
        """,
        "docs_upsert": """
            WITH base AS (SELECT doc_id, lang, source, n_chars,
                                 CAST(0 AS BIGINT) AS version, 0 AS s
                          FROM documents),
            upd AS (SELECT doc_id, 'xx' AS lang, source,
                           n_chars + 1000 AS n_chars,
                           CAST(1 AS BIGINT) AS version, 1 AS s
                    FROM documents WHERE doc_id % 7 = 0
                    UNION ALL
                    SELECT doc_id + 10000000, lang, source, n_chars,
                           CAST(1 AS BIGINT), 1
                    FROM documents WHERE doc_id % 11 = 0),
            u AS (SELECT * FROM base UNION ALL SELECT * FROM upd)
            SELECT doc_id, lang, source, n_chars, version FROM u
            QUALIFY row_number() OVER (PARTITION BY doc_id
                                       ORDER BY version DESC, s DESC) = 1
            ORDER BY doc_id
        """,
        "lineitem_checksum": """
            SELECT count(*) AS n_rows,
                   CAST(sum(CAST(('0x' || substr(md5(
                            coalesce(CAST(l_orderkey AS VARCHAR), '')
                            || '|' ||
                            coalesce(CAST(l_partkey AS VARCHAR), '')
                            || '|' ||
                            coalesce(CAST(l_suppkey AS VARCHAR), '')
                            || '|' ||
                            coalesce(CAST(l_linenumber AS VARCHAR), '')
                            || '|' ||
                            coalesce(l_returnflag, '')), 1, 15)) AS BIGINT)
                        % 1000000007) % 1000000007 AS BIGINT) AS checksum
            FROM lineitem
        """,
        "supplier_link_pred": """
            WITH e AS (SELECT DISTINCT l_suppkey AS s, l_partkey AS p
                       FROM lineitem),
            g AS (SELECT p, count(*) AS dp FROM e
                  GROUP BY p HAVING count(*) BETWEEN 2 AND 10000),
            pr AS (SELECT e1.s AS a, e2.s AS b, count(*) AS cn,
                          sum(1.0 / ln(g.dp)) AS aa
                   FROM e e1 JOIN e e2 ON e1.p = e2.p AND e1.s < e2.s
                        JOIN g ON g.p = e1.p
                   GROUP BY e1.s, e2.s),
            sd AS (SELECT s, count(*) AS ds FROM e GROUP BY s)
            SELECT pr.a, pr.b, pr.cn,
                   CAST(floor(pr.aa * 1000000 + 0.5) AS BIGINT) AS aa_micro,
                   CAST(floor(pr.cn / (sda.ds + sdb.ds - pr.cn)::DOUBLE
                        * 1000000 + 0.5) AS BIGINT) AS jac_micro
            FROM pr JOIN sd sda ON sda.s = pr.a
                    JOIN sd sdb ON sdb.s = pr.b
            ORDER BY aa_micro DESC, a, b LIMIT 100
        """,
        "docs_nb_predict": """
            WITH tok AS (SELECT doc_id, lang,
                                unnest(string_split(text, ' ')) AS w
                         FROM documents),
            tf AS (SELECT doc_id, w, count(*)::DOUBLE AS tf
                   FROM tok GROUP BY doc_id, w),
            dl AS (SELECT doc_id, count(*)::DOUBLE AS ntok
                   FROM tok GROUP BY doc_id),
            wc AS (SELECT lang AS c, w, count(*)::DOUBLE AS cnt
                   FROM tok GROUP BY lang, w),
            cls AS (SELECT c, sum(cnt) AS total FROM wc GROUP BY c),
            pri AS (SELECT lang AS c, count(*)::DOUBLE AS nd
                    FROM documents GROUP BY lang),
            vv AS (SELECT count(DISTINCT w)::DOUBLE AS vs FROM tok),
            nn AS (SELECT count(*)::DOUBLE AS n FROM documents),
            delta AS (SELECT tf.doc_id, wc.c,
                             sum(tf.tf * ln(wc.cnt + 1.0)) AS dlt
                      FROM tf JOIN wc ON tf.w = wc.w
                      GROUP BY tf.doc_id, wc.c),
            base AS (SELECT dl.doc_id, pri.c,
                            ln(pri.nd / nn.n)
                            - dl.ntok * ln(cls.total + vv.vs) AS b
                     FROM dl CROSS JOIN pri
                          JOIN cls ON cls.c = pri.c
                          CROSS JOIN vv CROSS JOIN nn),
            sc AS (SELECT base.doc_id, base.c,
                          base.b + coalesce(delta.dlt, 0.0) AS s
                   FROM base LEFT JOIN delta
                     ON base.doc_id = delta.doc_id AND base.c = delta.c)
            SELECT doc_id, c AS pred_label,
                   CAST(floor(s * 1000 + 0.5) AS BIGINT) AS score_milli
            FROM sc
            QUALIFY row_number() OVER (PARTITION BY doc_id
                                       ORDER BY s DESC, c) = 1
            ORDER BY doc_id
        """,
        "events_resample": """
            WITH b AS (
                SELECT user_id,
                       CAST(floor(epoch_us(ts) / 3600000000) AS BIGINT)
                           AS w,
                       COUNT(*) AS n, SUM(value) AS sum_v
                FROM events GROUP BY user_id, w),
            r AS (SELECT user_id, MIN(w) AS lo, MAX(w) AS hi
                  FROM b GROUP BY user_id),
            g AS (SELECT user_id, UNNEST(generate_series(lo, hi)) AS w
                  FROM r)
            SELECT g.user_id, g.w,
                   CAST(COALESCE(b.n, 0) AS BIGINT) AS n,
                   CAST(floor(COALESCE(b.sum_v, 0) * 100 + 0.5)
                        AS BIGINT) AS sum_v
            FROM g LEFT JOIN b USING (user_id, w)
        """,
        "events_funnel": """
            WITH s AS (SELECT user_id, event_type, epoch_us(ts) AS t
                       FROM events
                       WHERE event_type IN ('view', 'click', 'purchase')),
            v AS (SELECT user_id, min(t) AS t FROM s
                  WHERE event_type = 'view' GROUP BY user_id),
            c AS (SELECT s.user_id, min(s.t) AS t
                  FROM s JOIN v ON s.user_id = v.user_id AND s.t > v.t
                  WHERE s.event_type = 'click' GROUP BY s.user_id),
            p AS (SELECT s.user_id, min(s.t) AS t
                  FROM s JOIN c ON s.user_id = c.user_id AND s.t > c.t
                  WHERE s.event_type = 'purchase' GROUP BY s.user_id),
            u AS (SELECT DISTINCT user_id FROM s)
            SELECT u.user_id,
                   CAST(CASE WHEN p.t IS NOT NULL THEN 3
                             WHEN c.t IS NOT NULL THEN 2
                             WHEN v.t IS NOT NULL THEN 1
                             ELSE 0 END AS BIGINT) AS depth,
                   CAST(COALESCE(v.t, -1) AS BIGINT) AS stage0_us,
                   CAST(COALESCE(c.t, -1) AS BIGINT) AS stage1_us,
                   CAST(COALESCE(p.t, -1) AS BIGINT) AS stage2_us
            FROM u LEFT JOIN v USING (user_id)
                   LEFT JOIN c USING (user_id)
                   LEFT JOIN p USING (user_id)
        """,
        "emb_nn_join": """
            WITH a AS (SELECT vec_id, embedding FROM embeddings
                       WHERE vec_id % 2 = 1),
                 b AS (SELECT vec_id, embedding FROM embeddings
                       WHERE vec_id % 2 = 0),
                 sims AS (SELECT a.vec_id AS a_id, b.vec_id AS b_id,
                                 list_cosine_similarity(
                                     a.embedding::DOUBLE[],
                                     b.embedding::DOUBLE[]) AS s
                          FROM a CROSS JOIN b)
            SELECT a_id, b_id,
                   CAST(floor(s * 1000000 + 0.5) AS BIGINT) AS sim,
                   row_number() OVER (PARTITION BY a_id
                                      ORDER BY s DESC, b_id) AS rank
            FROM sims
            QUALIFY rank <= 3
        """,
        "docs_corpus_drift": """
            WITH wa AS (SELECT w AS word, CAST(count(*) AS DOUBLE) AS c
                        FROM (SELECT unnest(string_split(text, ' ')) AS w
                              FROM documents WHERE doc_id % 2 = 0)
                        GROUP BY w),
            wb AS (SELECT w AS word, CAST(count(*) AS DOUBLE) AS c
                   FROM (SELECT unnest(string_split(text, ' ')) AS w
                         FROM documents WHERE doc_id % 2 = 1)
                   GROUP BY w),
            ta AS (SELECT sum(c) AS s FROM wa),
            tb AS (SELECT sum(c) AS s FROM wb),
            j AS (SELECT COALESCE(wa.c, 0) / (SELECT s FROM ta) AS p,
                         COALESCE(wb.c, 0) / (SELECT s FROM tb) AS q
                  FROM wa FULL OUTER JOIN wb ON wa.word = wb.word)
            SELECT CAST((SELECT s FROM ta) AS BIGINT) AS words_a,
                   CAST((SELECT s FROM tb) AS BIGINT) AS words_b,
                   CAST(count(*) AS BIGINT) AS vocab_union,
                   CAST(floor(sum(
                       CASE WHEN p > 0
                            THEN 0.5 * p * ln(p / (0.5 * (p + q)))
                            ELSE 0 END
                     + CASE WHEN q > 0
                            THEN 0.5 * q * ln(q / (0.5 * (p + q)))
                            ELSE 0 END) * 1000000 + 0.5) AS BIGINT)
                       AS js_scaled
            FROM j
        """,
        "events_trending": """
            WITH c AS (
                SELECT CAST(floor(epoch(ts) / 86400) AS BIGINT) AS day,
                       event_type, count(*) AS n
                FROM events GROUP BY day, event_type)
            SELECT day, event_type, n,
                   CAST(row_number() OVER (
                       PARTITION BY day
                       ORDER BY n DESC, event_type) AS BIGINT) AS rank
            FROM c QUALIFY rank <= 3
        """,
        "docs_bm25": """
            WITH d AS (SELECT doc_id, string_split(text, ' ') AS ws
                       FROM documents),
            dl AS (SELECT doc_id, CAST(len(ws) AS DOUBLE) AS dl FROM d),
            stats AS (SELECT avg(dl) AS avgdl, count(*) AS n FROM dl),
            q(query_id, term) AS (VALUES
                (0, 'table'), (0, 'scan'), (0, 'fast'),
                (1, 'window'), (1, 'agg'), (1, 'batch'),
                (2, 'customer'), (2, 'query'),
                (3, 'spark'), (3, 'stream')),
            w AS (SELECT doc_id, w AS term,
                         CAST(count(*) AS DOUBLE) AS tf
                  FROM (SELECT doc_id, unnest(ws) AS w FROM d)
                  GROUP BY doc_id, w),
            dft AS (SELECT term, count(*) AS df FROM w
                    WHERE term IN (SELECT DISTINCT term FROM q)
                    GROUP BY term),
            m AS (SELECT q.query_id, w.doc_id,
                         ln(1 + (stats.n - dft.df + 0.5)
                                / (dft.df + 0.5))
                           * w.tf * (1.2::DOUBLE + 1)
                           / (w.tf + 1.2::DOUBLE
                              * (1 - 0.75::DOUBLE
                                 + 0.75::DOUBLE * dl.dl / stats.avgdl))
                             AS s
                  FROM q JOIN w USING (term) JOIN dft USING (term)
                       JOIN dl ON w.doc_id = dl.doc_id, stats),
            agg AS (SELECT query_id, doc_id,
                           CAST(floor(sum(s) * 1000000 + 0.5) AS BIGINT)
                               AS score_scaled
                    FROM m GROUP BY query_id, doc_id)
            SELECT query_id, doc_id, score_scaled,
                   CAST(row_number() OVER (
                       PARTITION BY query_id
                       ORDER BY score_scaled DESC, doc_id) AS BIGINT)
                       AS rank
            FROM agg
            QUALIFY rank <= 10
        """,
        "kg_negative_samples": """
            WITH e AS (SELECT DISTINCT l_suppkey, l_partkey FROM lineitem),
            pool AS (SELECT p_partkey,
                            row_number() OVER (ORDER BY p_partkey) - 1 AS r
                     FROM (SELECT DISTINCT p_partkey FROM part)),
            n AS (SELECT count(*) AS cnt FROM pool),
            x AS (SELECT e.l_suppkey, e.l_partkey, t.j,
                         ('0x' || substr(md5(
                              CAST(e.l_suppkey AS VARCHAR) || '|' ||
                              CAST(e.l_partkey AS VARCHAR) || '|' ||
                              CAST(t.j AS VARCHAR)), 1, 8))::UBIGINT
                             % (SELECT cnt FROM n) AS r
                  FROM e, UNNEST([0, 1]) AS t(j))
            SELECT x.l_suppkey, x.l_partkey,
                   CAST(x.j AS INTEGER) AS neg_idx,
                   CAST(pool.p_partkey AS BIGINT) AS neg_p_partkey
            FROM x JOIN pool ON x.r = pool.r
        """,
        "conv_stats": """
            SELECT CAST(doc_id AS VARCHAR) AS conv_id,
                   CAST(CEIL(GREATEST(LENGTH(text), 1) / 80.0) AS BIGINT)
                       AS n_turns,
                   CAST(CEIL(CEIL(GREATEST(LENGTH(text), 1) / 80.0) / 2.0)
                       AS BIGINT) AS n_user,
                   CAST(FLOOR(CEIL(GREATEST(LENGTH(text), 1) / 80.0) / 2.0)
                       AS BIGINT) AS n_assistant,
                   CAST(0 AS BIGINT) AS n_tool_calls,
                   CAST(LENGTH(text) AS BIGINT) AS total_chars,
                   CAST(LEAST(LENGTH(text), 80) AS BIGINT) AS max_turn_chars
            FROM documents
        """,
        "lineitem_quantiles": """
            WITH s AS (
                SELECT l_returnflag, l_extendedprice AS v,
                       row_number() OVER (PARTITION BY l_returnflag
                                          ORDER BY l_extendedprice) - 1 AS r,
                       count(*) OVER (PARTITION BY l_returnflag) AS n
                FROM lineitem)
            SELECT l_returnflag,
                   CAST(floor(max(v) FILTER (WHERE r =
                        CAST(floor(0.25 * (n - 1) + 0.5) AS BIGINT))
                        * 100 + 0.5) AS BIGINT) AS q25,
                   CAST(floor(max(v) FILTER (WHERE r =
                        CAST(floor(0.50 * (n - 1) + 0.5) AS BIGINT))
                        * 100 + 0.5) AS BIGINT) AS q50,
                   CAST(floor(max(v) FILTER (WHERE r =
                        CAST(floor(0.75 * (n - 1) + 0.5) AS BIGINT))
                        * 100 + 0.5) AS BIGINT) AS q75,
                   max(n) AS n
            FROM s GROUP BY l_returnflag
        """,
        "events_asof_order": """
            SELECT e.event_id, e.user_id, o.o_orderkey,
                   CAST(floor(o.o_totalprice * 100 + 0.5) AS BIGINT)
                       AS o_totalprice
            FROM events e JOIN orders o
              ON o.o_custkey = e.user_id AND o.o_orderdate <= e.ts
            QUALIFY row_number() OVER (
                PARTITION BY e.event_id
                ORDER BY o.o_orderdate DESC, o.o_orderkey DESC) = 1
        """,
        "reassemble_docs": """
            SELECT CAST(doc_id AS VARCHAR) AS conv_id, text FROM documents
        """,
        "docs_sft_pipeline": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id,
                       text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS BIGINT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), kept AS (
                SELECT conv_id, turn_idx, role, text FROM t
                QUALIFY row_number() OVER (
                    PARTITION BY text ORDER BY conv_id, turn_idx) = 1
            ), rendered AS (
                SELECT conv_id,
                       string_agg('<|' || role || '|>' || text, ''
                                  ORDER BY turn_idx) AS rtext
                FROM kept GROUP BY conv_id
            ), scored AS (
                SELECT conv_id,
                       len(regexp_extract_all(rtext, '[A-Za-z]'))
                           / greatest(length(rtext), 1)::DOUBLE AS score,
                       len(regexp_extract_all(rtext, '\\S+')) AS tok
                FROM rendered
            )
            SELECT conv_id, CAST(cum AS BIGINT) AS cum FROM (
                SELECT conv_id,
                       sum(tok) OVER (ORDER BY score DESC, conv_id
                           ROWS UNBOUNDED PRECEDING) AS cum
                FROM scored)
            WHERE cum <= 8000
        """,
        "render_chat": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id,
                       text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            )
            SELECT conv_id, 0::BIGINT AS doc_seq,
                   string_agg('<|' || role || '|>' || text, ''
                              ORDER BY turn_idx) AS text,
                   count(*) AS n_turns,
                   count(*) FILTER (WHERE role = 'assistant')
                       AS n_assistant_turns,
                   CAST(coalesce(sum(length(text))
                       FILTER (WHERE role = 'assistant'), 0) AS BIGINT)
                       AS assistant_chars
            FROM t GROUP BY conv_id
        """,
        "preference_pairs": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), p AS (
                SELECT u.text AS prompt, a.text AS response
                FROM t u JOIN t a
                  ON u.conv_id = a.conv_id AND a.turn_idx = u.turn_idx + 1
                WHERE u.role = 'user' AND a.role = 'assistant'
            ), d AS (SELECT DISTINCT prompt, response FROM p),
            r AS (
                SELECT prompt, response,
                       row_number() OVER (PARTITION BY prompt
                           ORDER BY length(response) DESC, response DESC)
                           AS rb,
                       row_number() OVER (PARTITION BY prompt
                           ORDER BY length(response) ASC, response ASC)
                           AS rw,
                       count(*) OVER (PARTITION BY prompt) AS n
                FROM d
            )
            SELECT prompt,
                   max(CASE WHEN rb = 1 THEN response END) AS chosen,
                   max(CASE WHEN rw = 1 THEN response END) AS rejected,
                   max(n) AS n_candidates
            FROM r GROUP BY prompt HAVING max(n) >= 2
        """,
        "tool_usage": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), tl AS (
                SELECT conv_id, turn_idx, text,
                       CASE WHEN role = 'assistant' THEN
                           CASE (turn_idx + length(text)) % 4
                                WHEN 0 THEN 'search'
                                WHEN 1 THEN 'calculator'
                                WHEN 2 THEN 'code_run' ELSE '' END
                       ELSE '' END AS tool
                FROM t
            )
            SELECT tool, count(*) AS n_calls,
                   count(DISTINCT conv_id) AS n_convs,
                   CAST(sum(length(text)) AS BIGINT) AS chars
            FROM tl WHERE tool <> '' GROUP BY tool
        """,
        "tool_transitions": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), tl AS (
                SELECT conv_id, turn_idx,
                       CASE WHEN role = 'assistant' THEN
                           CASE (turn_idx + length(text)) % 4
                                WHEN 0 THEN 'search'
                                WHEN 1 THEN 'calculator'
                                WHEN 2 THEN 'code_run' ELSE '' END
                       ELSE '' END AS tool
                FROM t
            ), c AS (SELECT conv_id, turn_idx, tool FROM tl
                     WHERE tool <> ''),
            lagged AS (
                SELECT lag(tool) OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS from_type,
                       tool AS to_type
                FROM c
            )
            SELECT from_type, to_type, count(*) AS cnt
            FROM lagged WHERE from_type IS NOT NULL
            GROUP BY from_type, to_type
        """,
        "conv_truncate": r"""
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), tok AS (
                SELECT conv_id, turn_idx, role, text,
                       len(regexp_extract_all(text, '\S+')) AS tk
                FROM t
            ), suf AS (
                SELECT conv_id, turn_idx, role, text,
                       sum(tk) OVER (PARTITION BY conv_id
                           ORDER BY turn_idx DESC) AS sfx
                FROM tok
            )
            SELECT conv_id, turn_idx, role, text FROM suf WHERE sfx <= 64
        """,
        "conv_wellformed": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), l AS (
                SELECT conv_id, turn_idx, role, text,
                       lag(role) OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS prev_role,
                       lag(turn_idx) OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS prev_idx,
                       row_number() OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS rn
                FROM t
            )
            SELECT conv_id, count(*) AS n_turns,
                   CAST(coalesce(sum(CASE WHEN prev_role = role
                       THEN 1 ELSE 0 END), 0) AS BIGINT)
                       AS n_alternation_violations,
                   CAST(coalesce(sum(CASE WHEN prev_idx IS NOT NULL
                       AND turn_idx <> prev_idx + 1 THEN 1 ELSE 0 END), 0)
                       AS BIGINT) AS n_gaps,
                   CAST(sum(CASE WHEN length(text) = 0 THEN 1 ELSE 0 END)
                       AS BIGINT) AS n_empty_turns,
                   CAST(max(CASE WHEN rn = 1 AND turn_idx = 0
                       AND role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
                       AS starts_ok,
                   CAST(CASE WHEN
                       coalesce(sum(CASE WHEN prev_role = role
                           THEN 1 ELSE 0 END), 0) = 0
                       AND coalesce(sum(CASE WHEN prev_idx IS NOT NULL
                           AND turn_idx <> prev_idx + 1
                           THEN 1 ELSE 0 END), 0) = 0
                       AND sum(CASE WHEN length(text) = 0
                           THEN 1 ELSE 0 END) = 0
                       AND max(CASE WHEN rn = 1 AND turn_idx = 0
                           AND role = 'user' THEN 1 ELSE 0 END) = 1
                       THEN 1 ELSE 0 END AS BIGINT) AS is_wellformed
            FROM l GROUP BY conv_id
        """,
        "conv_curation": r"""
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), l AS (
                SELECT conv_id, turn_idx, role, text,
                       lag(role) OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS prev_role,
                       lag(turn_idx) OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS prev_idx,
                       row_number() OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS rn
                FROM t
            ), wf AS (
                SELECT conv_id FROM l GROUP BY conv_id
                HAVING coalesce(sum(CASE WHEN prev_role = role
                           THEN 1 ELSE 0 END), 0) = 0
                   AND coalesce(sum(CASE WHEN prev_idx IS NOT NULL
                           AND turn_idx <> prev_idx + 1
                           THEN 1 ELSE 0 END), 0) = 0
                   AND sum(CASE WHEN length(text) = 0
                           THEN 1 ELSE 0 END) = 0
                   AND max(CASE WHEN rn = 1 AND turn_idx = 0
                           AND role = 'user' THEN 1 ELSE 0 END) = 1
            ), kept AS (
                SELECT t.* FROM t JOIN wf USING (conv_id)
            ), suf AS (
                SELECT conv_id, turn_idx, role, text,
                       sum(len(regexp_extract_all(text, '\S+')))
                           OVER (PARTITION BY conv_id
                                 ORDER BY turn_idx DESC) AS sfx
                FROM kept
            )
            SELECT conv_id, 0::BIGINT AS doc_seq,
                   string_agg('<|' || role || '|>' || text, ''
                              ORDER BY turn_idx) AS text,
                   count(*) AS n_turns,
                   count(*) FILTER (WHERE role = 'assistant')
                       AS n_assistant_turns,
                   CAST(coalesce(sum(length(text))
                       FILTER (WHERE role = 'assistant'), 0) AS BIGINT)
                       AS assistant_chars
            FROM suf WHERE sfx <= 64 GROUP BY conv_id
        """,
        "conv_segments": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), convs AS (
                SELECT conv_id, count(*) AS n FROM t GROUP BY conv_id
            ), segs AS (
                SELECT conv_id,
                       unnest(generate_series(0,
                           CAST((greatest(n - 4, 0) + 1) // 2 AS INT)))
                           AS seg_id
                FROM convs
            ), pos AS (
                SELECT conv_id, turn_idx, text,
                       row_number() OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) - 1 AS p
                FROM t
            )
            SELECT sg.conv_id, CAST(sg.seg_id AS BIGINT) AS seg_id,
                   count(*) AS n_turns,
                   min(p.turn_idx) AS first_turn_idx,
                   string_agg(p.text, chr(10) ORDER BY p.turn_idx) AS text
            FROM segs sg JOIN pos p ON sg.conv_id = p.conv_id
                 AND p.p >= sg.seg_id * 2 AND p.p < sg.seg_id * 2 + 4
            GROUP BY sg.conv_id, sg.seg_id
        """,
        "conv_sft_unroll": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), r AS (
                SELECT conv_id, turn_idx, role, text,
                       '<|' || role || '|>' || text AS rend,
                       row_number() OVER (PARTITION BY conv_id
                           ORDER BY turn_idx) AS rn
                FROM t
            ), w AS (
                SELECT conv_id, turn_idx, role, text AS response,
                       coalesce(string_agg(rend, chr(10)) OVER (
                           PARTITION BY conv_id ORDER BY turn_idx
                           ROWS BETWEEN 4 PRECEDING AND 1 PRECEDING), '')
                           AS context,
                       least(rn - 1, 4) AS n_context_turns
                FROM r
            )
            SELECT conv_id, turn_idx, context, response, n_context_turns
            FROM w WHERE role = 'assistant'
        """,
        "conv_pack": r"""
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), r AS (
                SELECT conv_id,
                       string_agg('<|' || role || '|>' || text, ''
                           ORDER BY turn_idx) AS rendered
                FROM t GROUP BY conv_id
            ), toks AS (
                SELECT conv_id,
                       CAST(len(regexp_extract_all(rendered, '\S+'))
                           AS BIGINT) AS token_count
                FROM r
            ), p AS (
                SELECT conv_id, token_count,
                       COALESCE(SUM(token_count) OVER (
                           ORDER BY conv_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS prefix
                FROM toks
            )
            SELECT conv_id, token_count,
                   CAST(prefix // 512 AS BIGINT) AS seq_id,
                   CAST(prefix % 512 AS BIGINT) AS seq_offset
            FROM p
        """,
        "entity_timeline": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS BIGINT) AS i,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), v AS (
                SELECT 'w_' || nm AS entity_id, nm
                FROM (VALUES ('spark'), ('stream'), ('window'), ('join'),
                             ('table'), ('customer'), ('vector'), ('hash'),
                             ('merge'), ('filter')) AS vv(nm)
            ), m AS (
                SELECT v.entity_id, t.conv_id,
                       1700000000000000 + t.i * 1000000 AS ts_us
                FROM t JOIN v ON contains(lower(t.text), v.nm)
            )
            SELECT entity_id, count(*) AS mentions,
                   count(DISTINCT conv_id) AS n_convs,
                   min(ts_us) AS first_us, max(ts_us) AS last_us
            FROM m GROUP BY entity_id
        """,
        "events_ewma": """
            WITH RECURSIVE
            b AS (SELECT user_id, epoch_us(ts) AS ts,
                         CAST(value AS DOUBLE) AS v,
                         row_number() OVER (PARTITION BY user_id
                             ORDER BY epoch_us(ts), CAST(value AS DOUBLE))
                             AS rn
                  FROM events),
            r(user_id, rn, ts, v, y) AS (
                SELECT user_id, rn, ts, v, v FROM b WHERE rn = 1
                UNION ALL
                SELECT b.user_id, b.rn, b.ts, b.v,
                       CAST(0.3 AS DOUBLE) * b.v
                       + CAST(0.7 AS DOUBLE) * r.y
                FROM r JOIN b ON b.user_id = r.user_id
                             AND b.rn = r.rn + 1
            )
            SELECT user_id, ts,
                   CAST(floor(v * 1e6 + 0.5) AS BIGINT) AS value,
                   CAST(floor(y * 1e6 + 0.5) AS BIGINT) AS ewma
            FROM r
        """,
        "conv_pack_stats": r"""
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS INT) AS turn_idx,
                       CASE WHEN i % 2 = 0 THEN 'user'
                            ELSE 'assistant' END AS role,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), r AS (
                SELECT conv_id,
                       string_agg('<|' || role || '|>' || text, ''
                           ORDER BY turn_idx) AS rendered,
                       CAST(sum(CASE WHEN role = 'assistant'
                           THEN 1 ELSE 0 END) AS BIGINT)
                           AS n_assistant_turns,
                       CAST(sum(CASE WHEN role = 'assistant'
                           THEN length(text) ELSE 0 END) AS BIGINT)
                           AS assistant_chars
                FROM t GROUP BY conv_id
            ), toks AS (
                SELECT conv_id,
                       CAST(len(regexp_extract_all(rendered, '\S+'))
                           AS BIGINT) AS token_count,
                       n_assistant_turns, assistant_chars
                FROM r
            ), p AS (
                SELECT *,
                       COALESCE(SUM(token_count) OVER (
                           ORDER BY conv_id
                           ROWS BETWEEN UNBOUNDED PRECEDING
                                    AND 1 PRECEDING), 0) AS prefix
                FROM toks
            )
            SELECT CAST(prefix // 512 AS BIGINT) AS seq_id,
                   count(*) AS n_convs,
                   CAST(sum(token_count) AS BIGINT) AS seq_tokens,
                   CAST(sum(n_assistant_turns) AS BIGINT)
                       AS assistant_turns,
                   CAST(sum(assistant_chars) AS BIGINT) AS assistant_chars
            FROM p GROUP BY 1
        """,
        "entity_timeline_windowed": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS BIGINT) AS i,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), v AS (
                SELECT 'w_' || nm AS entity_id, nm
                FROM (VALUES ('spark'), ('stream'), ('window'), ('join'),
                             ('table'), ('customer'), ('vector'), ('hash'),
                             ('merge'), ('filter')) AS vv(nm)
            ), m AS (
                SELECT v.entity_id, t.conv_id,
                       ((1700000000000000 + t.i * 1000000) // 2000000)
                           * 2000000 AS window_us
                FROM t JOIN v ON contains(lower(t.text), v.nm)
            )
            SELECT entity_id, window_us, count(*) AS mentions,
                   count(DISTINCT conv_id) AS n_convs
            FROM m GROUP BY entity_id, window_us
        """,
        "entity_comention_windowed": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS BIGINT) AS i,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), v AS (
                SELECT 'w_' || nm AS entity_id, nm
                FROM (VALUES ('spark'), ('stream'), ('window'), ('join'),
                             ('table'), ('customer'), ('vector'), ('hash'),
                             ('merge'), ('filter')) AS vv(nm)
            ), m AS (
                SELECT DISTINCT v.entity_id, t.conv_id,
                       ((1700000000000000 + t.i * 1000000) // 2000000)
                           * 2000000 AS window_us
                FROM t JOIN v ON contains(lower(t.text), v.nm)
            )
            SELECT m1.entity_id AS a, m2.entity_id AS b,
                   m1.window_us, count(*) AS n_convs
            FROM m m1 JOIN m m2 ON m1.conv_id = m2.conv_id
                                AND m1.window_us = m2.window_us
                                AND m1.entity_id < m2.entity_id
            GROUP BY a, b, m1.window_us
        """,
        "conv_pseudonym_plan": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS BIGINT) AS turn_idx,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), v AS (
                SELECT nm
                FROM (VALUES ('spark'), ('stream'), ('window'), ('join'),
                             ('table'), ('customer'), ('vector'), ('hash'),
                             ('merge'), ('filter')) AS vv(nm)
            ), m AS (
                SELECT t.conv_id, v.nm AS name,
                       min(t.turn_idx) AS first_idx
                FROM t JOIN v ON contains(lower(t.text), v.nm)
                GROUP BY t.conv_id, v.nm
            )
            SELECT conv_id, name, first_idx,
                   'ENT_' || dense_rank() OVER (PARTITION BY conv_id
                       ORDER BY first_idx, name) AS placeholder
            FROM m
        """,
        "entity_comention": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            ), v AS (
                SELECT 'w_' || nm AS entity_id, nm
                FROM (VALUES ('spark'), ('stream'), ('window'), ('join'),
                             ('table'), ('customer'), ('vector'), ('hash'),
                             ('merge'), ('filter')) AS vv(nm)
            ), m AS (
                SELECT DISTINCT v.entity_id, t.conv_id
                FROM t JOIN v ON contains(lower(t.text), v.nm)
            )
            SELECT m1.entity_id AS a, m2.entity_id AS b,
                   count(*) AS n_convs
            FROM m m1 JOIN m m2 ON m1.conv_id = m2.conv_id
                                AND m1.entity_id < m2.entity_id
            GROUP BY a, b
        """,
        "part_pagerank": """
            WITH RECURSIVE
            eu AS (SELECT DISTINCT l1.l_partkey AS a, l2.l_partkey AS b
                   FROM lineitem l1 JOIN lineitem l2
                     ON l1.l_orderkey = l2.l_orderkey
                    AND l1.l_partkey < l2.l_partkey),
            e AS (SELECT a AS src, b AS dst FROM eu
                  UNION ALL SELECT b, a FROM eu),
            deg AS (SELECT src, CAST(count(*) AS DOUBLE) AS od
                    FROM e GROUP BY src),
            nn AS (SELECT CAST(count(DISTINCT src) AS DOUBLE) AS n FROM e),
            pr(iter, node, rank) AS (
                SELECT 0, src, (SELECT CAST(1 AS DOUBLE) / n FROM nn)
                FROM (SELECT DISTINCT src FROM e)
                UNION ALL
                SELECT p.iter + 1, ee.dst,
                       (CAST(1 AS DOUBLE) - 0.85) *
                           (SELECT CAST(1 AS DOUBLE) / n FROM nn)
                       + 0.85 * sum(p.rank / d.od)
                FROM pr p JOIN e ee ON ee.src = p.node
                          JOIN deg d ON d.src = p.node
                WHERE p.iter < 6
                GROUP BY p.iter, ee.dst
            )
            SELECT node, CAST(floor(rank * 1e6 + 0.5) AS BIGINT) AS rank_e6
            FROM pr WHERE iter = 6
        """,
        "eval_clusters": """
            WITH a AS (
                SELECT doc_id // 4 AS p, doc_id // 5 AS g FROM documents
            ),
            cells AS (SELECT p, g, count(*)::DOUBLE AS n
                      FROM a GROUP BY p, g),
            tp AS (SELECT sum(n * (n - 1) / 2) AS v FROM cells),
            pm AS (SELECT sum(n * (n - 1) / 2) AS v FROM
                   (SELECT sum(n) AS n FROM cells GROUP BY p)),
            gm AS (SELECT sum(n * (n - 1) / 2) AS v FROM
                   (SELECT sum(n) AS n FROM cells GROUP BY g))
            SELECT CAST(tp.v AS BIGINT) AS tp_pairs,
                   CAST(pm.v AS BIGINT) AS pred_pairs,
                   CAST(gm.v AS BIGINT) AS gold_pairs,
                   CAST(CASE WHEN pm.v > 0 THEN floor(
                       tp.v / pm.v * 1e6 + 0.5) ELSE 0 END AS BIGINT)
                       AS precision_ppm,
                   CAST(CASE WHEN gm.v > 0 THEN floor(
                       tp.v / gm.v * 1e6 + 0.5) ELSE 0 END AS BIGINT)
                       AS recall_ppm
            FROM tp, pm, gm
        """,
        "eval_triples": """
            WITH ids AS (SELECT doc_id FROM documents),
            pred AS (
                SELECT doc_id, 'e' || CAST(doc_id AS VARCHAR) AS subj,
                       'related_to' AS relation_type,
                       'c' || CAST(doc_id AS VARCHAR) AS obj FROM ids
                UNION ALL
                SELECT doc_id, 'e' || CAST(doc_id AS VARCHAR),
                       'mentions', 'x' || CAST(doc_id AS VARCHAR)
                FROM ids WHERE doc_id % 2 = 0
            ),
            gold AS (
                SELECT doc_id, 'e' || CAST(doc_id AS VARCHAR) AS subj,
                       'related_to' AS relation_type,
                       'c' || CAST(doc_id AS VARCHAR) AS obj
                FROM ids WHERE doc_id % 3 <> 1
                UNION ALL
                SELECT doc_id, 'e' || CAST(doc_id AS VARCHAR),
                       'mentions', 'x' || CAST(doc_id AS VARCHAR)
                FROM ids WHERE doc_id % 2 = 0
                UNION ALL
                SELECT doc_id, 'g' || CAST(doc_id AS VARCHAR),
                       'describes', 'y' || CAST(doc_id AS VARCHAR)
                FROM ids WHERE doc_id % 5 = 0
            ),
            p AS (SELECT DISTINCT * FROM pred),
            g AS (SELECT DISTINCT * FROM gold),
            u AS (
                SELECT coalesce(p.doc_id, g.doc_id) AS doc_id,
                       CASE WHEN p.doc_id IS NOT NULL
                                 AND g.doc_id IS NOT NULL THEN 3
                            WHEN p.doc_id IS NOT NULL THEN 1
                            ELSE 2 END AS bits
                FROM p FULL JOIN g
                  ON p.doc_id = g.doc_id AND p.subj = g.subj
                 AND p.relation_type = g.relation_type AND p.obj = g.obj
            ),
            c AS (
                SELECT doc_id,
                       sum(CASE WHEN bits = 3 THEN 1 ELSE 0 END) AS tp,
                       sum(CASE WHEN bits = 1 THEN 1 ELSE 0 END) AS fp,
                       sum(CASE WHEN bits = 2 THEN 1 ELSE 0 END) AS fn
                FROM u GROUP BY doc_id
            )
            SELECT doc_id, CAST(tp AS BIGINT) AS tp,
                   CAST(fp AS BIGINT) AS fp, CAST(fn AS BIGINT) AS fn,
                   CAST(CASE WHEN tp + fp > 0 THEN floor(
                       tp / (tp + fp)::DOUBLE * 1e6 + 0.5)
                       ELSE 0 END AS BIGINT) AS precision_ppm,
                   CAST(CASE WHEN tp + fn > 0 THEN floor(
                       tp / (tp + fn)::DOUBLE * 1e6 + 0.5)
                       ELSE 0 END AS BIGINT) AS recall_ppm
            FROM c
        """,
        "docs_dedup_keep_best": r"""
            SELECT doc_id, n_chars FROM documents
            QUALIFY row_number() OVER (
                PARTITION BY nfc_normalize(trim(regexp_replace(
                    coalesce(text, ''), '\s+', ' ', 'g')))
                ORDER BY n_chars DESC, doc_id) = 1
        """,
        "docs_dedup_normalized": r"""
            SELECT min(doc_id) AS doc_id FROM documents
            GROUP BY nfc_normalize(trim(regexp_replace(
                coalesce(text, ''), '\s+', ' ', 'g')))
        """,
        "docs_normalize": r"""
            SELECT doc_id,
                   nfc_normalize(trim(regexp_replace(
                       coalesce(text, ''), '\s+', ' ', 'g')))
                       AS norm_text
            FROM documents
        """,
        "docs_epoch_order": """
            WITH n AS (SELECT lang, count(*)::DOUBLE AS n
                       FROM documents GROUP BY lang),
                 d AS (SELECT sum(pow(n, 0.5)) AS den FROM n),
                 r AS (SELECT lang,
                              least(1.0, (300 * pow(n.n, 0.5) / d.den)
                                         / n.n) AS rate
                       FROM n, d),
                 kept AS (
                     SELECT doc_id, documents.lang FROM documents
                     JOIN r USING (lang)
                     WHERE (('0x' || substr(md5(CAST(doc_id AS VARCHAR)),
                                1, 16))::UBIGINT)
                           / 18446744073709551616.0 < rate
                 )
            SELECT doc_id, lang,
                   row_number() OVER (
                       ORDER BY md5('2|' || CAST(doc_id AS VARCHAR)),
                                doc_id) AS shuffle_rank
            FROM kept
        """,
        "docs_shuffle": """
            SELECT doc_id,
                   row_number() OVER (
                       ORDER BY md5('1|' || CAST(doc_id AS VARCHAR)),
                                doc_id) AS shuffle_rank
            FROM documents
        """,
        "turns_dedup": """
            WITH s AS (
                SELECT CAST(doc_id AS VARCHAR) AS conv_id, text AS full_text,
                       unnest(generate_series(0,
                           (greatest(length(text), 1) - 1) // 80)) AS i
                FROM documents
            ), t AS (
                SELECT conv_id, CAST(i AS BIGINT) AS turn_idx,
                       substring(full_text, CAST(i * 80 + 1 AS INT), 80)
                           AS text
                FROM s
            )
            SELECT conv_id, turn_idx, text FROM t
            QUALIFY row_number() OVER (
                PARTITION BY text ORDER BY conv_id, turn_idx) = 1
        """,
        "llm_parse_entities": """
            WITH d AS (SELECT doc_id FROM documents WHERE doc_id % 4 <> 3)
            SELECT doc_id,
                   'Entity ' || CAST(doc_id AS VARCHAR) AS name,
                   CASE doc_id % 7 WHEN 0 THEN 'person'
                        WHEN 1 THEN 'organization' WHEN 2 THEN 'organization'
                        WHEN 3 THEN 'location' WHEN 4 THEN 'other'
                        WHEN 5 THEN 'software' ELSE 'unknown'
                   END AS entity_type,
                   80 AS confidence_pct
            FROM d
            UNION ALL
            SELECT doc_id, 'Concept ' || CAST(doc_id AS VARCHAR),
                   'concept', 80
            FROM d
        """,
        "llm_parse_relations": """
            SELECT doc_id,
                   'entity ' || CAST(doc_id AS VARCHAR) AS subj,
                   CASE doc_id % 5 WHEN 0 THEN 'related_to'
                        WHEN 1 THEN 'related_to' WHEN 2 THEN 'describes'
                        ELSE 'mentions'
                   END AS relation_type,
                   'concept ' || CAST(doc_id AS VARCHAR) AS obj,
                   90 AS confidence_pct
            FROM documents
            WHERE doc_id % 4 <> 3 AND doc_id % 5 <> 4
        """,
        # no oracle (non-SQL-expressible; driver records rows-only checks):
        # kg_triples, kg_nodes, docs_minhash_pairs, docs_simhash_pairs,
        # docs_minhash_dedup, emb_near_dup, ann_topk_lsh, media_features
        "docs_redact_pii": _pii_oracle_sql(),
    }
