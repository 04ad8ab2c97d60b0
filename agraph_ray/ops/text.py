"""Text-analysis operators for large-scale training-data pipelines.

All operators are vectorized ``map_batches`` transforms over Arrow batches
(pyarrow.compute / numpy kernels — no per-row Python in the hot path) and
have deliberately SQL-expressible semantics where possible so the DuckDB
oracle can verify them exactly (see __ray_entry__.oracle_sql).

Size constants, each read on the driver once per call; up to each, a
table rides ``ray.put`` and the corpus side stays map-only, above it the
same result comes from a bucketed shuffle:

- ``_VOCAB_BROADCAST_ROWS`` (5M words): the kept vocabulary of
  :func:`vocab_prune` and the unigram model of :func:`unigram_logprob`;
- ``_KILL_BROADCAST_ROWS`` (2M rows): the kill list of
  :func:`remove_duplicate_spans`.

:func:`decontaminate_ngrams` joins through ``ops/join.py::auto_join``,
which picks broadcast or co-group.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# RE2 syntax in both pyarrow and DuckDB → identical semantics in the oracle.
_VOCAB_BROADCAST_ROWS = 5_000_000
_KILL_BROADCAST_ROWS = 2_000_000

_TOKEN_RE = r"\S+"
_PUNCT_RE = r"[[:punct:]]"
_CJK_RE = r"[\x{4e00}-\x{9fff}]"
_ALPHA_RE = r"[A-Za-z]"
_WS_RE = r"\s+"


def add_token_count(batch: pa.Table, col: str = "text",
                    out: str = "token_count") -> pa.Table:
    """Whitespace token count (count of \\S+ runs)."""
    return batch.append_column(
        out, pc.cast(pc.count_substring_regex(batch[col], _TOKEN_RE),
                     pa.int64()))


def add_bpe_token_count(batch: pa.Table, col: str = "text",
                        out: str = "bpe_token_count") -> pa.Table:
    """BPE-pre-tokenizer-style token count: maximal runs of letters,
    digits, or other non-space symbols counted separately
    (``\\p{L}+|\\p{N}+|[^\\p{L}\\p{N}\\s]+`` — the lookahead-free core of
    the GPT-2 pre-tokenizer split, RE2-compatible so the DuckDB oracle
    computes the identical count). Approximates subword token counts ~1.3x
    closer than whitespace splitting on punctuated text; the exact BPE
    merge table is a per-worker actor stage when a tokenizer is
    available."""
    pat = r"\p{L}+|\p{N}+|[^\p{L}\p{N}\s]+"
    return batch.append_column(
        out, pc.cast(pc.count_substring_regex(batch[col], pat), pa.int64()))


def add_quality(batch: pa.Table, col: str = "text") -> pa.Table:
    """Quality signals: n_chars, token_count, avg_token_len, punct_ratio,
    alpha_ratio. Ratios are over total characters (0 for empty text)."""
    t = batch[col]
    n_chars = pc.cast(pc.utf8_length(t), pa.float64())
    toks = pc.cast(pc.count_substring_regex(t, _TOKEN_RE), pa.float64())
    punct = pc.cast(pc.count_substring_regex(t, _PUNCT_RE), pa.float64())
    alpha = pc.cast(pc.count_substring_regex(t, _ALPHA_RE), pa.float64())
    ws = pc.cast(pc.count_substring_regex(t, r"\s"), pa.float64())  # ws CHARS
    denom = pc.max_element_wise(n_chars, pa.scalar(1.0))
    batch = batch.append_column("n_chars", pc.cast(n_chars, pa.int64()))
    batch = batch.append_column("token_count", pc.cast(toks, pa.int64()))
    batch = batch.append_column(
        "avg_token_len",
        pc.divide(pc.subtract(n_chars, ws), pc.max_element_wise(toks, pa.scalar(1.0))))
    batch = batch.append_column("punct_ratio", pc.divide(punct, denom))
    batch = batch.append_column("alpha_ratio", pc.divide(alpha, denom))
    return batch


def add_lang_id(batch: pa.Table, col: str = "text",
                out: str = "lang_pred") -> pa.Table:
    """Heuristic language id: 'zh' if CJK-char ratio > 0.2, else 'en' if
    ASCII-letter ratio > 0.6, else 'other'. (Deliberately simple and
    SQL-expressible; a real model slots in as an actor-pool stage.)"""
    t = batch[col]
    n = pc.max_element_wise(pc.cast(pc.utf8_length(t), pa.float64()),
                            pa.scalar(1.0))
    cjk = pc.divide(pc.cast(pc.count_substring_regex(t, _CJK_RE), pa.float64()), n)
    alpha = pc.divide(pc.cast(pc.count_substring_regex(t, _ALPHA_RE), pa.float64()), n)
    lang = pc.if_else(pc.greater(cjk, 0.2), pa.scalar("zh"),
                      pc.if_else(pc.greater(alpha, 0.6), pa.scalar("en"),
                                 pa.scalar("other")))
    return batch.append_column(out, lang)


def add_compress_ratio(batch: pa.Table, col: str = "text",
                       out: str = "compress_ratio") -> pa.Table:
    """DEFLATE compression ratio (compressed/raw bytes, level 6) — the
    Gopher-family repetitiveness signal: boilerplate and template spam
    compress far below ~0.4, high-entropy noise sits near 1.0. One zlib
    call per document (inherently per-doc; the C call dominates, not the
    Python loop). Not SQL-expressible — rows-only, value-pinned in
    pytest."""
    import zlib
    ratios = []
    for s in batch[col].to_pylist():
        b = (s or "").encode("utf-8")
        ratios.append(len(zlib.compress(b, 6)) / max(len(b), 1))
    return batch.append_column(out, pa.array(ratios, pa.float64()))


def add_script_ratios(batch: pa.Table, col: str = "text") -> pa.Table:
    """Unicode script composition per document — the pre-langid routing
    signal of multilingual curation (which script bucket does this text
    even live in): latin_ratio, cjk_ratio, cyrillic_ratio, arabic_ratio,
    digit_ratio over total characters (0 for empty). RE2 character
    classes, identical in DuckDB."""
    t = batch[col]
    n = pc.cast(pc.utf8_length(t), pa.float64())
    denom = pc.max_element_wise(n, pa.scalar(1.0))
    for name, pat in (("latin_ratio", r"[A-Za-z]"),
                      ("cjk_ratio", _CJK_RE),
                      ("cyrillic_ratio", r"[\x{0400}-\x{04FF}]"),
                      ("arabic_ratio", r"[\x{0600}-\x{06FF}]"),
                      ("digit_ratio", r"[0-9]")):
        cnt = pc.cast(pc.count_substring_regex(t, pat), pa.float64())
        batch = batch.append_column(name, pc.divide(cnt, denom))
    return batch


def add_corpus_filter(batch: pa.Table, col: str = "text") -> pa.Table:
    """Gopher/C4-style composite quality gate (vectorized, map-side only —
    no shuffle; the rules are per-document projections). Appends:

    - ``keep``     bool — document passes every rule
    - ``reasons``  ';'-joined names of the FAILED rules, '' when kept

    Rules (constants pinned; mirrors Gopher's doc-level filters on the
    signals this module already computes and the oracle already verifies):

    - ``few_words``    word_total < 5
    - ``many_words``   word_total > 100000
    - ``word_len``     avg_token_len outside [2, 12]
    - ``punct``        punct_ratio > 0.30
    - ``lang``         lang_pred == 'other'
    - ``dup_words``    dup_word_fraction > 0.50
    - ``top_word``     top_word_fraction > 0.30 (and word_total >= 5)

    Every signal is a float64 expression over integer counts, computed with
    the same operations DuckDB uses — bitwise-identical values, so the
    threshold comparisons agree exactly with the SQL oracle."""
    work = add_quality(pa.table({col: batch[col]}), col)
    work = add_word_repetition(work, col)
    work = add_lang_id(work, col)

    def gt(c, v):
        return pc.greater(work[c], pa.scalar(v))

    fails = [
        ("few_words", pc.less(work["word_total"], pa.scalar(5))),
        ("many_words", gt("word_total", 100_000)),
        ("word_len", pc.or_(pc.less(work["avg_token_len"], pa.scalar(2.0)),
                            gt("avg_token_len", 12.0))),
        ("punct", gt("punct_ratio", 0.30)),
        ("lang", pc.equal(work["lang_pred"], pa.scalar("other"))),
        ("dup_words", gt("dup_word_fraction", 0.50)),
        ("top_word", pc.and_(gt("top_word_fraction", 0.30),
                             pc.greater_equal(work["word_total"],
                                              pa.scalar(5)))),
    ]
    keep = None
    parts = []
    for name, mask in fails:
        keep = mask if keep is None else pc.or_(keep, mask)
        parts.append(pc.if_else(mask, pa.scalar(name + ";"), pa.scalar("")))
    reasons = parts[0]
    for p in parts[1:]:
        reasons = pc.binary_join_element_wise(reasons, p, "")
    reasons = pc.utf8_rtrim(reasons, ";")
    batch = batch.append_column("keep", pc.invert(keep))
    return batch.append_column("reasons", reasons)


def _md5_hex(arr: np.ndarray) -> np.ndarray:
    return np.fromiter((hashlib.md5(s.encode("utf-8")).hexdigest()
                        for s in arr), dtype=object, count=len(arr))


def add_fingerprint(batch: pa.Table, col: str = "text",
                    out: str = "fingerprint") -> pa.Table:
    """Document fingerprint: md5 of lower-cased, whitespace-collapsed,
    trimmed text. Matches DuckDB
    ``md5(trim(regexp_replace(lower(text), '\\s+', ' ', 'g')))`` exactly."""
    norm = pc.utf8_trim_whitespace(
        pc.replace_substring_regex(pc.utf8_lower(batch[col]), _WS_RE, " "))
    fp = _md5_hex(np.asarray(norm.to_pylist(), dtype=object))
    return batch.append_column(out, pa.array(fp, pa.string()))


def add_word_repetition(batch: pa.Table, col: str = "text") -> pa.Table:
    """Gopher-style word-repetition quality signals (vectorized):

    - ``word_total``        total single-space-split tokens
    - ``distinct_words``    distinct tokens
    - ``dup_word_fraction`` 1 - distinct/total
    - ``top_word``          most frequent token (alphabetic min on ties)
    - ``top_word_fraction`` occurrences of top token / total

    Split is a literal single space (DuckDB ``string_split(text, ' ')``)
    so the oracle matches exactly, empty strings included. One pandas
    groupby per batch — no per-row Python."""
    import pandas as pd
    n = len(batch)
    t = batch[col].combine_chunks()
    lists = pc.split_pattern(t, " ")
    lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    parents = np.repeat(np.arange(n, dtype=np.int64),
                        np.asarray(lens, dtype=np.int64))
    words = np.asarray(lists.flatten().to_pylist(), dtype=object)
    df = pd.DataFrame({"p": parents, "w": words})
    cc = df.groupby(["p", "w"], sort=False).size().reset_index(name="c")
    agg = cc.groupby("p", sort=False)["c"].agg(
        total="sum", distinct="count", mc="max")
    tops = cc.merge(agg[["mc"]], left_on="p", right_index=True)
    tops = tops[tops["c"] == tops["mc"]].groupby("p", sort=False)["w"].min()
    idx = np.arange(n)
    total = agg["total"].reindex(idx).fillna(0).to_numpy(dtype=np.int64)
    distinct = agg["distinct"].reindex(idx).fillna(0).to_numpy(dtype=np.int64)
    mc = agg["mc"].reindex(idx).fillna(0).to_numpy(dtype=np.int64)
    denom = np.maximum(total, 1).astype(np.float64)
    batch = batch.append_column("word_total", pa.array(total))
    batch = batch.append_column("distinct_words", pa.array(distinct))
    batch = batch.append_column(
        "dup_word_fraction", pa.array(1.0 - distinct / denom))
    batch = batch.append_column(
        "top_word", pa.array(tops.reindex(idx).to_numpy(dtype=object),
                             pa.string()))
    batch = batch.append_column(
        "top_word_fraction", pa.array(mc / denom))
    return batch


def corpus_word_counts(ds: "ray.data.Dataset",
                       col: str = "text") -> "ray.data.Dataset":
    """Distributed wordcount with a per-batch combiner: each batch emits
    its (word, cnt) partials (one ``np.unique`` per batch), so the shuffle
    carries at most |batch vocabulary| rows per batch — not one row per
    token occurrence — before the small keyed sum."""
    from ..stages.common import bucketed_group_reduce
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        if len(words) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        u, c = np.unique(words, return_counts=True)
        return pa.table({"word": pa.array(u, pa.string()),
                         "cnt": pa.array(c, pa.int64())})

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("word", as_index=False, sort=False)["cnt"].sum()

    return bucketed_group_reduce(
        ds.map_batches(partial, batch_format="pyarrow"), ["word"], reduce_df,
        schema=pa.schema([("word", pa.string()), ("cnt", pa.int64())]))


def vocab_prune(ds: "ray.data.Dataset", min_count: int = 2,
                col: str = "text", id_col: str = "doc_id",
                unk: str = "<unk>",
                num_buckets: int = 64) -> "ray.data.Dataset":
    """Vocabulary pruning / UNK replacement: every word whose CORPUS-WIDE
    count is below ``min_count`` is replaced by ``unk`` and each document
    rebuilt — the closed-vocabulary preprocessing step of classic LM /
    classifier pipelines.

    → ``(id_col, text, n_unk)`` for every input document.

    Scale shape: the kept vocabulary (count >= min_count) is the
    BOUNDED side — heavy-tail corpora have unbounded hapax counts but a
    dictionary-sized frequent vocab — so it is collected and broadcast
    under ``_VOCAB_BROADCAST_ROWS`` rows (one ``ray.put``, membership
    tested per batch with one ``pa.compute.is_in``). Past the cap, documents
    explode to (id, pos, word) rows, pick up a keep-mark through a
    word-keyed bucketed co-group, and reassemble through an id-keyed
    reduce — two shuffles, no driver state."""
    import ray
    import ray.data as rd

    from ..stages.common import arrow_col_type, bucketed_group_reduce

    freq = corpus_word_counts(ds.select_columns([id_col, col]), col) \
        .map_batches(
            lambda t: t.filter(pc.greater_equal(t["cnt"], min_count))
            .select(["word"]), batch_format="pyarrow").materialize()

    id_t = arrow_col_type(ds, id_col)
    out_schema = pa.schema([(id_col, id_t), (col, pa.string()),
                            ("n_unk", pa.int64())])

    if freq.count() <= _VOCAB_BROADCAST_ROWS:
        words: list = []
        for b in freq.iter_batches(batch_size=None, batch_format="pyarrow"):
            words.append(b["word"].combine_chunks())
        vocab_ref = ray.put(pa.concat_arrays(words) if words
                            else pa.array([], pa.string()))

        def rebuild(batch: pa.Table) -> pa.Table:
            vocab = ray.get(vocab_ref)
            lists = pc.split_pattern(batch[col].combine_chunks(), " ")
            flat = lists.flatten()
            keep = pc.is_in(flat, value_set=vocab)
            kept = pc.if_else(keep, flat, pa.scalar(unk, pa.string()))
            lens = pc.list_value_length(lists).to_numpy(
                zero_copy_only=False)
            words_np = kept.to_numpy(zero_copy_only=False)
            starts = np.cumsum(lens) - lens
            texts = [" ".join(words_np[s:s + L])
                     for s, L in zip(starts, lens)]
            unks = np.add.reduceat(
                pc.invert(keep).to_numpy(zero_copy_only=False)
                .astype(np.int64), starts) \
                if len(flat) else np.zeros(len(batch), np.int64)
            unks = np.where(lens == 0, 0, unks)
            return pa.Table.from_arrays(
                [batch[id_col].combine_chunks(),
                 pa.array(texts, pa.string()),
                 pa.array(unks, pa.int64())], schema=out_schema)

        return ds.select_columns([id_col, col]).map_batches(
            rebuild, batch_format="pyarrow")

    # beyond-cap: explode -> word-keyed keep-mark co-group -> id-keyed
    # reassembly. No driver state.
    def explode(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        pos = np.concatenate([np.arange(n, dtype=np.int64)
                              for n in lens]) if len(lens) else \
            np.empty(0, np.int64)
        return pa.table({
            id_col: pa.array(np.repeat(ids, lens)).cast(id_t),
            "pos": pa.array(pos, pa.int64()),
            "word": lists.flatten()})

    def tag_vocab(t: pa.Table) -> pa.Table:
        return pa.table({id_col: pa.nulls(len(t), id_t),
                         "pos": pa.nulls(len(t), pa.int64()),
                         "word": t["word"]})

    marked_schema = pa.schema([(id_col, id_t), ("pos", pa.int64()),
                               ("word", pa.string())])

    def mark(df: pd.DataFrame) -> pd.DataFrame:
        kept = set(df.loc[df[id_col].isna(), "word"])
        occ = df.loc[df[id_col].notna()].copy()
        occ.loc[~occ["word"].isin(kept), "word"] = unk
        return occ[[id_col, "pos", "word"]]

    occurrences = ds.select_columns([id_col, col]).map_batches(
        explode, batch_format="pyarrow")
    marked = bucketed_group_reduce(
        occurrences.union(freq.map_batches(tag_vocab,
                                           batch_format="pyarrow")),
        ["word"], mark, num_buckets, schema=marked_schema)

    def reassemble_doc(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values([id_col, "pos"], kind="mergesort")
        g = df.groupby(id_col, sort=False)
        out = g.agg(text=("word", " ".join),
                    n_unk=("word", lambda w: int((w == unk).sum())))
        return out.reset_index()[[id_col, "text", "n_unk"]]

    return bucketed_group_reduce(marked, [id_col], reassemble_doc,
                                 num_buckets, schema=out_schema)


def top_words(ds: "ray.data.Dataset", k: int = 20,
              col: str = "text") -> "ray.data.Dataset":
    """Global top-k words by count, ties broken by word ascending (fully
    deterministic result set)."""
    return corpus_word_counts(ds, col).sort(
        ["cnt", "word"], descending=[True, False]).limit(k)


def top_words_sketch(ds: "ray.data.Dataset", k: int = 20,
                     col: str = "text", cap: int = 8192
                     ) -> "ray.data.Dataset":
    """Sketch-guided exact top-k words: two corpus scans, ZERO
    full-vocabulary shuffle.

    Pass 1 finds candidates with a bounded heavy-hitter accumulator (per
    batch: one ``np.unique`` wordcount folded into a dict pruned to the
    ``cap`` largest entries — Misra-Gries flavor, O(cap) state regardless
    of vocabulary size, merged as one tree-reduce). Pass 2 recounts ONLY
    the candidate words exactly (a map-side ``is_in`` filter, then a
    tiny <=cap-key sum) and returns the top ``k`` of those exact counts.

    vs :func:`top_words`: that shuffles |corpus vocabulary| partial rows
    per batch; this shuffles at most ``cap`` rows per batch after a free
    map-side filter — the 100-TB path. The result equals ``top_words``
    whenever every true top-k word survives pass 1 (guaranteed for any
    word with count >= total/cap; on Zipf-distributed text candidates
    exceed the top-k by orders of magnitude). Same determinism pin:
    ties break by word ascending."""
    import pandas as pd
    import ray
    from ray.data.aggregate import AggregateFn
    from ..stages.common import bucketed_group_reduce

    def _prune(d: dict) -> dict:
        if len(d) <= cap:
            return d
        return dict(sorted(d.items(), key=lambda x: -x[1])[:cap])

    def acc_block(acc: dict, block) -> dict:
        t = block if isinstance(block, pa.Table) else pa.Table.from_pandas(
            block)
        if len(t) == 0:
            return acc
        lists = pc.split_pattern(t[col].combine_chunks(), " ")
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        if len(words) == 0:
            return acc
        u, c = np.unique(words, return_counts=True)
        out = dict(acc)
        for w, n in zip(u, c):
            out[w] = out.get(w, 0) + int(n)
        return _prune(out)

    def merge(a: dict, b: dict) -> dict:
        out = dict(a)
        for w, n in b.items():
            out[w] = out.get(w, 0) + n
        return _prune(out)

    sk = ds.select_columns([col]).aggregate(AggregateFn(
        init=lambda _k: {}, accumulate_block=acc_block, merge=merge,
        name="hw"))["hw"]
    cand = pa.array(sorted(sk.keys()), pa.string())
    ref = ray.put(cand)

    def recount(t: pa.Table) -> pa.Table:
        lists = pc.split_pattern(t[col].combine_chunks(), " ")
        flat = lists.flatten()
        hits = flat.filter(pc.is_in(flat, value_set=ray.get(ref)))
        if len(hits) == 0:
            return pa.table({"word": pa.array([], pa.string()),
                             "cnt": pa.array([], pa.int64())})
        u, c = np.unique(np.asarray(hits.to_pylist(), dtype=object),
                         return_counts=True)
        return pa.table({"word": pa.array(u, pa.string()),
                         "cnt": pa.array(c, pa.int64())})

    def reduce_df(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("word", as_index=False, sort=False)["cnt"].sum()

    exact = bucketed_group_reduce(
        ds.map_batches(recount, batch_format="pyarrow"), ["word"],
        reduce_df,
        schema=pa.schema([("word", pa.string()), ("cnt", pa.int64())]))
    return exact.sort(["cnt", "word"], descending=[True, False]).limit(k)


def unigram_logprob(ds: "ray.data.Dataset", id_col: str = "doc_id",
                    col: str = "text") -> "ray.data.Dataset":
    """Corpus-unigram-LM document scoring → ``(id, n_tokens, lp_micro)``
    with ``lp_micro = floor(mean_w ln(count(w)/total_tokens) * 1e6 + 0.5)``
    — the per-token average log-likelihood under the corpus's own unigram
    distribution, the classic cheap LM-quality signal (low = rare-word
    soup / noise, high = common-word text).

    Two passes over the corpus: (1) the combiner word count
    (:func:`corpus_word_counts` — shuffle volume bounded by per-batch
    vocabulary), (2) a scoring ``map_batches``. The (word → ln p) model
    is broadcast once via ``ray.put`` while the vocabulary fits
    ``_VOCAB_BROADCAST_ROWS`` (a 5M-word model is ~100 MB); above it the score
    pass switches to a word-keyed shuffle join: per-batch (doc, word,
    occ) partials meet the count table in one bucketed reduce, then a
    second reduce keyed on the document sums ``occ * ln p`` — no driver
    materialization of anything corpus-sized."""
    import pandas as pd

    import ray
    from ray.data.aggregate import Sum
    from ..stages.common import bucketed_group_reduce

    counts = corpus_word_counts(ds.select_columns([id_col, col]), col
                                ).materialize()
    total = float(counts.aggregate(Sum("cnt", alias_name="t"))["t"] or 0.0)
    vocab = counts.count()
    out_schema = pa.schema([(id_col, pa.int64()),
                            ("n_tokens", pa.int64()),
                            ("lp_micro", pa.int64())])

    def _tokens(batch: pa.Table):
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = np.asarray(pc.list_value_length(lists)
                          .to_numpy(zero_copy_only=False), dtype=np.int64)
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        parents = np.repeat(np.arange(len(batch), dtype=np.int64), lens)
        return ids, lens, words, parents

    if vocab <= _VOCAB_BROADCAST_ROWS:
        wl, cl = [], []
        for b in counts.iter_batches(batch_size=None, batch_format="pyarrow"):
            wl.append(np.asarray(b["word"].to_pylist(), dtype=object))
            cl.append(b["cnt"].to_numpy(zero_copy_only=False))
        w_all = np.concatenate(wl) if wl else np.empty(0, dtype=object)
        c_all = (np.concatenate(cl).astype(np.float64)
                 if cl else np.empty(0))
        order = np.argsort(w_all)
        model_ref = ray.put((w_all[order], np.log(c_all[order] / total)))

        def score(batch: pa.Table) -> pa.Table:
            wv, lp = ray.get(model_ref)
            ids, lens, words, parents = _tokens(batch)
            tok_lp = lp[np.searchsorted(wv, words)]
            sums = np.bincount(parents, weights=tok_lp,
                               minlength=len(batch))
            mean = sums / np.maximum(lens, 1)
            return pa.table({
                id_col: pa.array(ids, pa.int64()),
                "n_tokens": pa.array(lens, pa.int64()),
                "lp_micro": pa.array(
                    np.floor(mean * 1e6 + 0.5).astype(np.int64))})

        return ds.select_columns([id_col, col]).map_batches(
            score, batch_format="pyarrow")

    # distributed path: ship (doc, word, occ) partials to the word key
    def occ_partial(batch: pa.Table) -> pa.Table:
        ids, lens, words, parents = _tokens(batch)
        df = (pd.DataFrame({"d": ids[parents] if len(parents) else
                            np.empty(0, dtype=np.int64),
                            "word": words})
              .groupby(["d", "word"], sort=False).size()
              .reset_index(name="occ"))
        return pa.Table.from_pandas(
            df.rename(columns={"d": id_col}), preserve_index=False)

    def tag_counts(t: pa.Table) -> pa.Table:
        return pa.table({"word": t["word"],
                         id_col: pa.nulls(len(t), pa.int64()),
                         "occ": pa.nulls(len(t), pa.int64()),
                         "cnt": t["cnt"]})

    def tag_occ(t: pa.Table) -> pa.Table:
        return pa.table({"word": t["word"], id_col: t[id_col],
                         "occ": t["occ"],
                         "cnt": pa.nulls(len(t), pa.int64())})

    join_schema = pa.schema([(id_col, pa.int64()), ("occ", pa.int64()),
                             ("wlp", pa.float64())])

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        selfs = df.loc[df["cnt"].notna(), ["word", "cnt"]]
        reqs = df.loc[df["occ"].notna(), ["word", id_col, "occ"]]
        m = reqs.merge(selfs, on="word", how="inner")
        return pd.DataFrame({
            id_col: m[id_col].astype("int64"),
            "occ": m["occ"].astype("int64"),
            "wlp": np.log(m["cnt"].to_numpy(dtype=np.float64) / total)})

    def finish(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(id_col, sort=False)
        n = g["occ"].sum()
        s = (df.assign(x=df["occ"] * df["wlp"])
             .groupby(id_col, sort=False)["x"].sum())
        return pd.DataFrame({
            id_col: n.index.to_numpy(),
            "n_tokens": n.to_numpy(dtype=np.int64),
            "lp_micro": np.floor(
                s.to_numpy() / np.maximum(n.to_numpy(), 1) * 1e6
                + 0.5).astype(np.int64)})

    occ = ds.select_columns([id_col, col]).map_batches(
        occ_partial, batch_format="pyarrow")
    tagged = (counts.map_batches(tag_counts, batch_format="pyarrow")
              .union(occ.map_batches(tag_occ, batch_format="pyarrow")))
    attached = bucketed_group_reduce(tagged, ["word"], attach,
                                     schema=join_schema)
    return bucketed_group_reduce(attached, [id_col], finish,
                                 schema=out_schema)
    """Global top-k words by count, ties broken by word ascending (fully
    deterministic result set)."""
    return corpus_word_counts(ds, col).sort(
        ["cnt", "word"], descending=[True, False]).limit(k)


def corpus_ngram_counts(ds: "ray.data.Dataset", n: int = 3,
                        col: str = "text",
                        num_buckets: int = 64) -> "ray.data.Dataset":
    """(gram, cnt) over word n-grams (single-space tokenization, grams
    never span documents). Per-batch combiner: the shuffle carries each
    batch's distinct grams, not occurrences. The gram construction is one
    vectorized pandas shift-concat over the batch's flattened token
    stream, with cross-document positions masked out."""
    import pandas as pd
    from ..stages.common import bucketed_group_reduce

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({"gram": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        total = int(lens.sum())
        if total == 0:
            return empty
        s = pd.Series(lists.flatten().to_pandas().to_numpy(dtype=object))
        g = s
        for i in range(1, n):
            g = g + " " + s.shift(-i)
        # position within its doc: gram starting here must fit entirely
        pos = np.arange(total) - np.repeat(
            np.cumsum(lens) - lens, lens)
        valid = pos <= np.repeat(lens, lens) - n
        grams = g.to_numpy(dtype=object)[valid]
        if len(grams) == 0:
            return empty
        u, c = np.unique(grams, return_counts=True)
        return pa.table({"gram": pa.array(u, pa.string()),
                         "cnt": pa.array(c, pa.int64())})

    return bucketed_group_reduce(
        ds.select_columns([col]).map_batches(partial,
                                             batch_format="pyarrow"),
        ["gram"],
        lambda d: d.groupby("gram", as_index=False, sort=False)["cnt"].sum(),
        num_buckets,
        schema=pa.schema([("gram", pa.string()), ("cnt", pa.int64())]))


def top_ngrams(ds: "ray.data.Dataset", n: int = 3, k: int = 20,
               col: str = "text") -> "ray.data.Dataset":
    """Global top-k word n-grams by count, ties broken by gram ascending."""
    return corpus_ngram_counts(ds, n, col).sort(
        ["cnt", "gram"], descending=[True, False]).limit(k)


from functools import lru_cache as _lru_cache


@_lru_cache(maxsize=4)
def _contains_matcher(needles: tuple):
    from ..state.textmatch import AhoCorasick
    return AhoCorasick(needles)


def scan_contains(ds: "ray.data.Dataset", needles: "List[str]",
                  col: str = "text",
                  id_col: str = "doc_id") -> "ray.data.Dataset":
    """Contamination scan: one (id, needle) row per needle occurring
    verbatim as a substring of the document — the benchmark-leakage check
    run over every pretraining corpus. The needle set is compiled into an
    Aho-Corasick automaton ONCE PER WORKER PROCESS (module-level
    lru_cache keyed on the needle tuple), so each document costs
    O(|text| + matches) regardless of how many needles are screened."""
    needles_t = tuple(sorted({s for s in needles if s}))

    def f(batch: pa.Table) -> pa.Table:
        ac = _contains_matcher(needles_t)
        ids_out, hits_out = [], []
        for i, text in zip(batch[id_col].to_pylist(),
                           batch[col].to_pylist()):
            for h in sorted(ac.find_present(text or "")):
                ids_out.append(i)
                hits_out.append(h)
        return pa.table({id_col: pa.array(ids_out, pa.int64()),
                         "needle": pa.array(hits_out, pa.string())})

    return ds.select_columns([id_col, col]).map_batches(
        f, batch_format="pyarrow")


def redact_pattern(ds: "ray.data.Dataset", pattern: str,
                   replacement: str = "[REDACTED]", col: str = "text",
                   out_col: str = "redacted") -> "ray.data.Dataset":
    """Regex scrub (PII removal shape): RE2 ``pattern`` occurrences
    replaced in a single vectorized ``replace_substring_regex`` kernel —
    identical semantics to DuckDB ``regexp_replace(text, pattern, r,
    'g')`` so the oracle can verify the rewrite byte-for-byte."""
    def f(batch: pa.Table) -> pa.Table:
        return batch.append_column(
            out_col, pc.replace_substring_regex(batch[col], pattern,
                                                replacement))
    return ds.map_batches(f, batch_format="pyarrow")


# RE2-compatible PII patterns (no lookaround/backrefs) — identical
# semantics in pyarrow and DuckDB regexp_replace(..., 'g').
PII_PATTERNS = [
    ("email", r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9.\-]+\.[A-Za-z]{2,}",
     "[EMAIL]"),
    # card & ssn run before phone so a phone-shaped sub-span can never
    # eat part of a longer digit group
    ("card", r"\b[0-9]{4}[ \-][0-9]{4}[ \-][0-9]{4}[ \-][0-9]{4}\b",
     "[CARD]"),
    ("ssn", r"\b[0-9]{3}-[0-9]{2}-[0-9]{4}\b", "[SSN]"),
    ("ipv4", r"\b[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\.[0-9]{1,3}\b",
     "[IP]"),
    ("phone", r"(\+[0-9]{1,2}[ .\-])?\(?[0-9]{3}\)?[ .\-][0-9]{3}"
              r"[ .\-][0-9]{4}\b", "[PHONE]"),
]


def redact_pii(ds: "ray.data.Dataset", col: str = "text",
               out_col: str = "redacted",
               count_col: str = "n_pii") -> "ray.data.Dataset":
    """PII scrubbing for training corpora: emails, phone numbers, IPv4
    addresses, card-shaped and SSN-shaped numbers replaced by typed
    placeholder tags, applied in the fixed ``PII_PATTERNS`` order (one
    vectorized RE2 kernel per pattern — no Python per row).
    ``count_col`` totals the replacements per document. Patterns avoid
    lookaround so the DuckDB oracle reproduces the rewrite
    byte-for-byte."""
    def f(batch: pa.Table) -> pa.Table:
        cur = batch[col]
        total = np.zeros(len(batch), np.int64)
        for _, pat, tag in PII_PATTERNS:
            total += pc.count_substring_regex(cur, pat).to_numpy(
                zero_copy_only=False).astype(np.int64)
            cur = pc.replace_substring_regex(cur, pat, tag)
        batch = batch.append_column(out_col, cur)
        return batch.append_column(count_col, pa.array(total, pa.int64()))
    return ds.map_batches(f, batch_format="pyarrow")


def tfidf_top_terms(ds: "ray.data.Dataset", k: int = 5,
                    col: str = "text", id_col: str = "doc_id",
                    num_buckets: int = 64) -> "ray.data.Dataset":
    """Per-document top-k terms by smoothed TF-IDF:
    ``score = tf * (ln((N+1)/(df+1)) + 1)``, ties broken by word
    ascending. Tokenization is single-space split (same rule as
    ``corpus_word_counts`` — SQL ``string_split(text, ' ')``).

    Fully distributed, no corpus broadcast, exactly TWO shuffles:
      1. per-batch (doc, word, tf) partials — one pandas ``groupby.size``
         per batch (a document is one input row, so its tokens can never
         split across batches and the per-batch tf is final). The word
         shuffle then carries per-doc vocabularies, never occurrences;
      2. word-keyed reduce: all rows of a word co-locate, so df is a
         vectorized ``transform('size')`` attached in-bucket — no
         separate df table, no join (hot stopwords cost group size
         counting, not cross products);
      3. per-doc top-k by one doc-keyed reduce.
    """
    import pandas as pd
    from ..stages.common import bucketed_group_reduce

    n_docs = ds.count()

    def tf_partial(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        flat = lists.flatten()
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        docs = np.repeat(
            batch[id_col].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({"doc": docs,
                           "word": flat.to_pandas().to_numpy(dtype=object)})
        out = df.groupby(["doc", "word"], sort=False).size().reset_index(
            name="tf")
        return pa.table({id_col: pa.array(out["doc"], pa.int64()),
                         "word": pa.array(out["word"], pa.string()),
                         "tf": pa.array(out["tf"], pa.int64())})

    tf_rows = ds.select_columns([id_col, col]).map_batches(
        tf_partial, batch_format="pyarrow")

    def attach_df_and_score(d: pd.DataFrame) -> pd.DataFrame:
        d = d.copy()
        d["df"] = d.groupby("word", sort=False)["word"].transform("size")
        d["score"] = d["tf"].to_numpy(dtype=np.float64) * (
            np.log((n_docs + 1.0)
                   / (d["df"].to_numpy(dtype=np.float64) + 1.0)) + 1.0)
        return d

    scored = bucketed_group_reduce(
        tf_rows, ["word"], attach_df_and_score, num_buckets,
        schema=pa.schema([(id_col, pa.int64()), ("word", pa.string()),
                          ("tf", pa.int64()), ("df", pa.int64()),
                          ("score", pa.float64())]))

    def topk(d: pd.DataFrame) -> pd.DataFrame:
        d = d.sort_values(["score", "word"], ascending=[False, True],
                          kind="mergesort")
        return d.groupby(id_col, sort=False).head(k)

    return bucketed_group_reduce(
        scored, [id_col], topk, num_buckets,
        schema=pa.schema([(id_col, pa.int64()), ("word", pa.string()),
                          ("tf", pa.int64()), ("df", pa.int64()),
                          ("score", pa.float64())]))


def analyze_documents(ds: "ray.data.Dataset", col: str = "text"):
    """Full text-analysis pass: quality + lang + fingerprint + tokens."""
    def _stage(batch: pa.Table) -> pa.Table:
        batch = add_quality(batch, col)
        batch = add_lang_id(batch, col)
        batch = add_fingerprint(batch, col)
        return batch
    return ds.map_batches(_stage, batch_format="pyarrow")


def duplicate_ngram_stats(ds: "ray.data.Dataset", n: int = 8,
                          min_count: int = 2, col: str = "text",
                          id_col: str = "doc_id",
                          num_buckets: int = 64) -> "ray.data.Dataset":
    """Per-document duplicated-n-gram statistics — the signal behind
    suffix/substring training-data dedup (Lee et al., "Deduplicating
    Training Data Makes Language Models Better"): for each document,
    how many of its word n-gram occurrences belong to an n-gram seen at
    least ``min_count`` times corpus-wide.

    → ``(doc_id, n_ngrams, n_dup_ngrams)`` for every document (0/0 for
    documents shorter than ``n`` words).

    Scale shape (mirrors tfidf_top_terms): per-batch combiner collapses a
    document's n-grams to 64-bit hashes with per-doc occurrence counts
    (the gram shuffle carries distinct (doc, gram) rows, never text or
    positions); the gram-keyed reduce attaches the corpus total with one
    in-bucket ``transform('sum')`` (no join, no broadcast) and folds to
    per-doc partials; one final tiny doc-keyed sum. Token hashing is the
    pinned SipHash scheme from the minhash signer; single-space
    tokenization keeps the DuckDB oracle exact (collisions at 2^-64 are
    the accepted trade for never shuffling gram text)."""
    import pandas as pd
    from ray.data.aggregate import Sum

    from .dedup import _GRAM_MULT, _hash_tokens
    from ..stages.common import bucketed_group_reduce

    def partial(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        out_doc, out_gram, out_k = [], [], []
        toks_flat = lists.flatten().to_pandas().to_numpy(dtype=object)
        th_flat = _hash_tokens(toks_flat) if len(toks_flat) else \
            np.empty(0, np.uint64)
        starts = np.cumsum(lens) - lens
        for d in range(len(batch)):
            L = int(lens[d])
            m = L - n + 1
            if m <= 0:
                out_doc.append(np.array([ids[d]], dtype=object))
                out_gram.append(np.zeros(1, np.int64))
                out_k.append(np.zeros(1, np.int64))
                continue
            th = th_flat[starts[d]:starts[d] + L]
            with np.errstate(over="ignore"):
                g = np.zeros(m, dtype=np.uint64)
                for i in range(n):
                    g = g * _GRAM_MULT + th[i:i + m]
            u, c = np.unique(g, return_counts=True)
            out_doc.append(np.full(len(u), ids[d], dtype=object))
            out_gram.append(u.view(np.int64))
            out_k.append(c.astype(np.int64))
        return pa.table({
            id_col: pa.array(np.concatenate(out_doc)),
            "gram": pa.array(np.concatenate(out_gram), pa.int64()),
            "k": pa.array(np.concatenate(out_k), pa.int64())})

    def attach_total(df: pd.DataFrame) -> pd.DataFrame:
        # k=0 placeholder rows (short docs, sentinel gram 0) contribute
        # nothing to totals or dup counts but keep the doc in the output
        df = df.assign(total=df.groupby("gram")["k"].transform("sum"))
        dup = np.where(df["total"] >= min_count, df["k"], 0)
        out = pd.DataFrame({id_col: df[id_col], "n": df["k"],
                            "d": dup})
        return out.groupby(id_col, as_index=False, sort=False).sum()

    id_type = None
    from ..stages.common import arrow_col_type
    id_type = arrow_col_type(ds, id_col)
    partials = bucketed_group_reduce(
        ds.select_columns([id_col, col]).map_batches(
            partial, batch_format="pyarrow"),
        ["gram"], attach_total, num_buckets,
        schema=pa.schema([(id_col, id_type), ("n", pa.int64()),
                          ("d", pa.int64())]))
    from ..stages.common import keyed_sum
    return keyed_sum(partials, [id_col],
                     {"n": "n_ngrams", "d": "n_dup_ngrams"},
                     key_schema=[pa.field(id_col, id_type)])


def remove_duplicate_spans(ds: "ray.data.Dataset", n: int = 8,
                           min_count: int = 2, col: str = "text",
                           id_col: str = "doc_id", num_buckets: int = 64,
                           ) -> "ray.data.Dataset":
    """Exact duplicated-span REMOVAL (the acting half of
    ``duplicate_ngram_stats``; Lee et al., "Deduplicating Training Data
    Makes Language Models Better"): delete every word whose position is
    covered by a word n-gram window that occurs at least ``min_count``
    times corpus-wide (intra-doc repeats count), then rebuild each
    document from the surviving words.

    → ``(doc_id, text, n_removed)`` for EVERY input document (text
    unchanged and n_removed=0 where nothing was duplicated).

    Scale shape: the gram shuffle carries ``(u64 window hash, id, int32
    pos)`` per window — order of the input's own word count, never gram
    text; totals are an in-bucket ``transform('size')`` (all rows of a
    gram co-locate). The kill list (one row per duplicated window
    occurrence — bounded by the duplicate mass) is broadcast as per-doc
    position arrays under ``_KILL_BROADCAST_ROWS`` rows; past that it co-groups
    back to the texts through the same bucketed reduce (tagged union on
    ``doc_id`` — no driver state). Window hashing is the pinned
    SipHash-polynomial scheme shared with ``duplicate_ngram_stats``;
    single-space tokenization keeps the DuckDB oracle exact (2^-64
    collisions are the accepted trade for never shuffling gram text)."""
    import pandas as pd
    import ray

    from .dedup import _GRAM_MULT, _hash_tokens
    from ..stages.common import arrow_col_type, bucketed_group_reduce

    def windows(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        toks_flat = lists.flatten().to_pandas().to_numpy(dtype=object)
        th_flat = _hash_tokens(toks_flat) if len(toks_flat) else \
            np.empty(0, np.uint64)
        starts = np.cumsum(lens) - lens
        out_doc, out_gram, out_pos = [], [], []
        for d in range(len(batch)):
            L = int(lens[d])
            m = L - n + 1
            if m <= 0:
                continue
            th = th_flat[starts[d]:starts[d] + L]
            with np.errstate(over="ignore"):
                g = np.zeros(m, dtype=np.uint64)
                for i in range(n):
                    g = g * _GRAM_MULT + th[i:i + m]
            out_doc.append(np.full(m, ids[d], dtype=object))
            out_gram.append(g.view(np.int64))
            out_pos.append(np.arange(m, dtype=np.int32))
        if not out_doc:
            return pa.table({id_col: pa.array([], batch[id_col].type),
                             "gram": pa.array([], pa.int64()),
                             "pos": pa.array([], pa.int32())})
        return pa.table({
            id_col: pa.array(np.concatenate(out_doc)).cast(
                batch[id_col].type),
            "gram": pa.array(np.concatenate(out_gram), pa.int64()),
            "pos": pa.array(np.concatenate(out_pos), pa.int32())})

    def dup_occurrences(df: pd.DataFrame) -> pd.DataFrame:
        total = df.groupby("gram")["gram"].transform("size")
        return df.loc[total >= min_count, [id_col, "pos"]]

    id_t = arrow_col_type(ds, id_col)
    kills = bucketed_group_reduce(
        ds.select_columns([id_col, col]).map_batches(
            windows, batch_format="pyarrow"),
        ["gram"], dup_occurrences, num_buckets,
        schema=pa.schema([(id_col, id_t), ("pos", pa.int32())]),
    ).materialize()

    out_schema = pa.schema([(id_col, id_t), (col, pa.string()),
                            ("n_removed", pa.int64())])

    def _strip_one(text: str, kp: np.ndarray):
        words = text.split(" ")
        L = len(words)
        if kp.size == 0:
            return text, 0
        delta = np.zeros(L + 1, np.int64)
        np.add.at(delta, kp, 1)
        np.add.at(delta, np.minimum(kp + n, L), -1)
        covered = np.cumsum(delta[:-1]) > 0
        keep = np.asarray(words, dtype=object)[~covered]
        return " ".join(keep), int(covered.sum())

    if kills.count() <= _KILL_BROADCAST_ROWS:
        by_doc: dict = {}
        for b in kills.iter_batches(batch_size=None, batch_format="pyarrow"):
            for i, p in zip(b[id_col].to_pylist(), b["pos"].to_pylist()):
                by_doc.setdefault(i, []).append(p)
        kp_ref = ray.put({i: np.asarray(sorted(p), np.int64)
                          for i, p in by_doc.items()})
        _EMPTY = np.empty(0, np.int64)

        def rebuild(batch: pa.Table) -> pa.Table:
            kp = ray.get(kp_ref)
            texts, removed = [], []
            for i, t in zip(batch[id_col].to_pylist(),
                            batch[col].to_pylist()):
                s, r = _strip_one(t or "", kp.get(i, _EMPTY))
                texts.append(s)
                removed.append(r)
            return pa.Table.from_arrays(
                [batch[id_col].combine_chunks(),
                 pa.array(texts, pa.string()),
                 pa.array(removed, pa.int64())], schema=out_schema)

        return ds.select_columns([id_col, col]).map_batches(
            rebuild, batch_format="pyarrow")

    # beyond-cap path: tagged union co-grouped on doc_id, no driver state
    import ray.data as rd
    tag_schema = pa.schema([(id_col, id_t), ("pos", pa.int32()),
                            (col, pa.string())])
    doc_rows = ds.select_columns([id_col, col]).map_batches(
        lambda t: pa.Table.from_arrays(
            [t[id_col].combine_chunks(),
             pa.nulls(len(t), pa.int32()), t[col].combine_chunks()],
            schema=tag_schema), batch_format="pyarrow")
    kill_rows = kills.map_batches(
        lambda t: pa.Table.from_arrays(
            [t[id_col].combine_chunks(), t["pos"].combine_chunks(),
             pa.nulls(len(t), pa.string())], schema=tag_schema),
        batch_format="pyarrow")

    def per_doc(df: pd.DataFrame) -> pd.DataFrame:
        out_i, out_t, out_r = [], [], []
        for i, g in df.groupby(id_col, sort=False):
            trow = g[col].dropna()
            if trow.empty:       # kill rows without a doc row (can't happen)
                continue
            kp = g["pos"].dropna().to_numpy(np.int64)
            s, r = _strip_one(trow.iloc[0] or "", np.sort(kp))
            out_i.append(i)
            out_t.append(s)
            out_r.append(r)
        return pd.DataFrame({id_col: out_i, col: out_t, "n_removed": out_r})

    return bucketed_group_reduce(doc_rows.union(kill_rows), [id_col],
                                 per_doc, num_buckets, schema=out_schema)


def bm25_topk(ds: "ray.data.Dataset", queries: dict, k: int = 10,
              k1: float = 1.2, b: float = 0.75, col: str = "text",
              id_col: str = "doc_id",
              num_buckets: int = 16) -> "ray.data.Dataset":
    """Per-query BM25 top-k documents → ``(query_id, doc_id,
    score_scaled, rank)`` with ``score_scaled = floor(score·10⁶ + 0.5)``
    (ranking happens on the scaled integer so engine-level float noise
    below 10⁻⁶ can never reorder the cut; ties break by doc id).

    ``queries``: {query_id: [term, ...]} — a small driver-side dict, as
    in any search serving path. Single-space tokenization (SQL
    ``string_split`` parity); idf = ln(1 + (N − df + ½)/(df + ½)).

    Scale shape: one corpus pass emits per-doc (term, tf, dl) rows ONLY
    for query terms (shuffle volume ∝ matching docs × matched terms, not
    corpus size); df/N/avgdl reduce to a ≤|terms|-row driver table;
    scoring is map-side against the broadcast idf dict; one bucketed
    shuffle on (query, doc) sums term contributions and one tiny
    query-keyed reduce takes the top k."""
    import ray

    from ..stages.common import bucketed_group_reduce
    from .similarity import _rank_topk

    terms = sorted({t for ts in queries.values() for t in ts})
    term_set = set(terms)
    by_term: dict = {}
    for qid, ts in queries.items():
        for t in ts:
            by_term.setdefault(t, []).append(qid)

    def tf_rows(batch: pa.Table) -> pa.Table:
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        toks = lists.flatten().to_pandas().to_numpy(dtype=object)
        docs = np.repeat(np.arange(len(batch)), lens)
        o_doc, o_term, o_tf, o_dl = [], [], [], []
        hit = np.fromiter((t in term_set for t in toks), dtype=bool,
                          count=len(toks))
        if hit.any():
            import pandas as pd
            hits = pd.DataFrame({"d": docs[hit], "t": toks[hit]})
            g = hits.groupby(["d", "t"], sort=False).size().reset_index()
            o_doc = ids[g["d"].to_numpy()]
            o_dl = lens[g["d"].to_numpy()]
            o_term = g["t"].to_numpy(dtype=object)
            o_tf = g[0].to_numpy()
        # one (dl-carrier, term="") row per doc keeps N/avgdl derivable
        # from this single pass's output
        return pa.table({
            id_col: pa.array(np.concatenate([ids, np.asarray(o_doc)])),
            "term": pa.array(np.concatenate(
                [np.full(len(batch), "", dtype=object),
                 np.asarray(o_term, dtype=object)]), pa.string()),
            "tf": pa.array(np.concatenate(
                [np.zeros(len(batch), np.int64),
                 np.asarray(o_tf, dtype=np.int64)]), pa.int64()),
            "dl": pa.array(np.concatenate(
                [lens.astype(np.int64),
                 np.asarray(o_dl, dtype=np.int64)]), pa.int64())})

    rows = ds.select_columns([id_col, col]).map_batches(
        tf_rows, batch_format="pyarrow").materialize()

    # tiny reductions: N + avgdl from the dl-carrier rows, df per term
    from ray.data.aggregate import Count, Sum
    carrier = rows.map_batches(
        lambda t: t.filter(pc.equal(t["term"], "")),
        batch_format="pyarrow")
    st = carrier.aggregate(Count(alias_name="n"),
                           Sum("dl", alias_name="sdl"))
    n_docs, sum_dl = st["n"], st["sdl"]
    avgdl = (sum_dl or 0) / max(n_docs, 1)
    dfs = {r["term"]: r["df"] for r in
           rows.map_batches(
               lambda t: t.filter(pc.not_equal(t["term"], "")),
               batch_format="pyarrow")
           .groupby("term").aggregate(Count(alias_name="df")).take_all()}
    idf = {t: float(np.log(1.0 + (n_docs - dfs.get(t, 0) + 0.5)
                           / (dfs.get(t, 0) + 0.5))) for t in terms}
    ref = ray.put((idf, by_term, float(avgdl)))

    def contrib(t: pa.Table) -> pa.Table:
        idf_, by_term_, avgdl_ = ray.get(ref)
        t = t.filter(pc.not_equal(t["term"], ""))
        tfv = t["tf"].to_numpy(zero_copy_only=False).astype(np.float64)
        dlv = t["dl"].to_numpy(zero_copy_only=False).astype(np.float64)
        tv = t["term"].to_pylist()
        ids = t[id_col].to_numpy(zero_copy_only=False)
        w = np.fromiter((idf_[x] for x in tv), dtype=np.float64,
                        count=len(tv))
        sc = w * tfv * (k1 + 1) / (tfv + k1 * (1 - b + b * dlv / avgdl_))
        o_q, o_id, o_s = [], [], []
        for i, x in enumerate(tv):
            for qid in by_term_[x]:
                o_q.append(qid); o_id.append(ids[i]); o_s.append(sc[i])
        return pa.table({"query_id": pa.array(o_q, pa.int32()),
                         id_col: pa.array(o_id),
                         "s": pa.array(o_s, pa.float64())})

    import pandas as pd

    def topk(df: pd.DataFrame) -> pd.DataFrame:
        agg = df.groupby(["query_id", id_col], as_index=False)["s"].sum()
        agg["score_scaled"] = np.floor(
            agg["s"] * 1_000_000 + 0.5).astype(np.int64)
        out = _rank_topk(agg, "query_id", id_col, k, "score_scaled")
        return out[["query_id", id_col, "score_scaled", "rank"]]

    scored = rows.map_batches(contrib, batch_format="pyarrow")
    return bucketed_group_reduce(
        scored, ["query_id"], topk, num_buckets,
        schema=pa.schema([("query_id", pa.int32()),
                          (id_col, pa.int64()),
                          ("score_scaled", pa.int64()),
                          ("rank", pa.int64())]))


def corpus_js_divergence(ds_a: "ray.data.Dataset", ds_b: "ray.data.Dataset",
                         col: str = "text", scale: int = 1_000_000,
                         num_buckets: int = 64) -> "ray.data.Dataset":
    """Jensen-Shannon divergence between two corpora's word distributions
    — the drift monitor between a training snapshot and a fresh crawl.
    → one row ``(words_a, words_b, vocab_union, js_scaled)`` with
    ``js_scaled = floor(JS·scale + 0.5)`` (nats).

    Scale shape: each side reduces to (word, count) via the per-batch
    combiner in ``corpus_word_counts``; the two count tables union into
    ONE word-keyed bucketed reduce that pairs them and emits per-word JS
    contributions (zeros handled natively: a word absent from one side
    contributes only the other side's half-term); contributions fold
    through a per-batch partial sum, so the driver sees two scalars and
    one final row. No vocabulary ever leaves the cluster."""
    import pandas as pd
    import ray.data as rd
    from ray.data.aggregate import Sum

    from ..stages.common import bucketed_group_reduce

    ca = corpus_word_counts(ds_a, col=col)
    cb = corpus_word_counts(ds_b, col=col)
    total_a = ca.aggregate(Sum("cnt", alias_name="s"))["s"] or 0
    total_b = cb.aggregate(Sum("cnt", alias_name="s"))["s"] or 0

    def tag(side: str):
        def f(t: pa.Table) -> pa.Table:
            return t.append_column("side", pa.array([side] * len(t)))
        return f

    both = (ca.map_batches(tag("a"), batch_format="pyarrow")
            .union(cb.map_batches(tag("b"), batch_format="pyarrow")))

    def contrib(df: pd.DataFrame) -> pd.DataFrame:
        w = df.pivot_table(index="word", columns="side", values="cnt",
                           aggfunc="sum", fill_value=0)
        p = (w["a"].to_numpy(dtype=np.float64) / total_a
             if "a" in w else np.zeros(len(w)))
        q = (w["b"].to_numpy(dtype=np.float64) / total_b
             if "b" in w else np.zeros(len(w)))
        m = 0.5 * (p + q)
        with np.errstate(divide="ignore", invalid="ignore"):
            t1 = np.where(p > 0, p * np.log(p / m), 0.0)
            t2 = np.where(q > 0, q * np.log(q / m), 0.0)
        return pd.DataFrame({
            "js_part": [float(0.5 * (t1.sum() + t2.sum()))],
            "vocab": [int(len(w))]})

    parts = bucketed_group_reduce(
        both, ["word"], contrib, num_buckets,
        schema=pa.schema([("js_part", pa.float64()),
                          ("vocab", pa.int64())]))
    agg = parts.aggregate(Sum("js_part", alias_name="js"),
                          Sum("vocab", alias_name="vocab_union"))
    js = agg["js"] or 0.0
    return rd.from_arrow(pa.table({
        "words_a": pa.array([int(total_a)], pa.int64()),
        "words_b": pa.array([int(total_b)], pa.int64()),
        "vocab_union": pa.array([int(agg["vocab_union"] or 0)], pa.int64()),
        "js_scaled": pa.array([int(np.floor(js * scale + 0.5))],
                              pa.int64())}))


def _doc_gram_rows(id_col: str, col: str, n: int):
    """Per-batch (id, gram) distinct rows — same vectorized shift-concat
    gram builder as corpus_ngram_counts, with the doc id carried along."""
    import pandas as pd

    def partial(batch: pa.Table) -> pa.Table:
        empty = pa.table({id_col: pa.array([], pa.int64()),
                          "gram": pa.array([], pa.string())})
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        total = int(lens.sum())
        if total == 0:
            return empty
        s = pd.Series(lists.flatten().to_pandas().to_numpy(dtype=object))
        g = s
        for i in range(1, n):
            g = g + " " + s.shift(-i)
        pos = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        valid = pos <= np.repeat(lens, lens) - n
        ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({id_col: ids[valid],
                           "gram": g.to_numpy(dtype=object)[valid]})
        df = df.drop_duplicates()
        return pa.table({id_col: pa.array(df[id_col], pa.int64()),
                         "gram": pa.array(df["gram"], pa.string())})

    return partial


def decontaminate_ngrams(train: "ray.data.Dataset",
                         eval_ds: "ray.data.Dataset", n: int = 3,
                         id_col: str = "doc_id", col: str = "text",
                         mode: str = "mark",
                         num_buckets: int = 64) -> "ray.data.Dataset":
    """Benchmark decontamination (GPT-3 appendix-C style): a train doc is
    contaminated if it shares ANY word ``n``-gram with the eval set.
    ``mode="mark"`` appends an int64 0/1 ``contaminated`` column;
    ``mode="drop"`` filters contaminated docs out.

    Two joins through ``ops/join.py::auto_join``: train (id, gram) rows
    semi-join the eval grams (eval sets are benchmarks, small by
    construction, so the grams are broadcast and the train side gets map
    passes only; large eval sets go through the Bloom-filtered co-group),
    then the contaminated ids anti-join (drop) or, made distinct,
    left-join (mark) the train docs. Exact string grams decide membership on every
    path, so there are no false positives at any scale."""
    import ray.data as rd

    from ..stages.common import distinct_on
    from .join import auto_join

    def grams(ds: "ray.data.Dataset") -> "ray.data.Dataset":
        return ds.map_batches(_doc_gram_rows(id_col, col, n),
                              batch_format="pyarrow")

    ev_grams = grams(eval_ds).select_columns(["gram"])
    hits = auto_join(grams(train), ev_grams, ["gram"], how="semi",
                     num_buckets=num_buckets).select_columns([id_col])
    if mode == "drop":
        return auto_join(train, hits, [id_col], how="anti",
                         num_buckets=num_buckets)
    flag = distinct_on(hits, [id_col], num_buckets).map_batches(
        lambda t: t.append_column("contaminated",
                                  pa.array([1] * len(t), pa.int64())),
        batch_format="pyarrow").union(rd.from_arrow(pa.table({
            id_col: pa.array([], pa.int64()),
            "contaminated": pa.array([], pa.int64())})))
    joined = auto_join(train, flag, [id_col], how="left",
                       num_buckets=num_buckets)
    return joined.map_batches(
        lambda t: t.set_column(
            t.schema.get_field_index("contaminated"), "contaminated",
            pc.coalesce(pc.cast(t["contaminated"], pa.int64()), 0)),
        batch_format="pyarrow")


def word_pmi(ds: "ray.data.Dataset", id_col: str = "doc_id",
             col: str = "text", max_words: int = 64,
             k: int = 100, num_buckets: int = 64) -> "pd.DataFrame":
    """Top-k word-pair collocations by document co-occurrence with PMI:
    pmi(w1,w2) = ln(c12 · N / (c1 · c2)) over per-doc DISTINCT words
    (document frequencies, not token counts). Quadratic blowup is pinned
    by keeping each doc's ``max_words`` lexicographically-smallest
    distinct words — a rule a SQL oracle reproduces exactly (row_number
    over w), unlike a hash sample.

    Shuffle shape: per-batch (w1, w2, cnt) combiner → one pair-keyed
    reduce; unigram doc-frequencies are a word-keyed reduce of the SAME
    capped sets; only the k surviving pairs (plus their ≤2k unigram
    rows) ever reach the driver."""
    import pandas as pd

    from ..stages.common import bucketed_group_reduce

    n_docs = float(ds.count())

    def capped_words(batch: pa.Table):
        lists = pc.split_pattern(batch[col].combine_chunks(), " ")
        lens = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
        words = np.asarray(lists.flatten().to_pylist(), dtype=object)
        ids = np.repeat(batch[id_col].to_numpy(zero_copy_only=False), lens)
        df = pd.DataFrame({"d": ids, "w": words}).drop_duplicates()
        df = df.sort_values(["d", "w"], kind="mergesort")
        df = df.groupby("d", sort=False).head(max_words)
        return df

    def pair_partial(batch: pa.Table) -> pa.Table:
        df = capped_words(batch)
        d = df["d"].to_numpy()
        w = df["w"].to_numpy(dtype=object)
        n = len(df)
        empty = pa.table({"w1": pa.array([], pa.string()),
                          "w2": pa.array([], pa.string()),
                          "cnt": pa.array([], pa.int64())})
        if n == 0:
            return empty
        new = np.empty(n, dtype=bool)
        new[0] = True
        new[1:] = d[1:] != d[:-1]
        starts = np.flatnonzero(new)
        sizes = np.diff(np.append(starts, n))
        o1, o2 = [], []
        for s in np.unique(sizes):
            if s < 2:
                continue
            st = starts[sizes == s]
            iu, ju = np.triu_indices(int(s), k=1)
            o1.append(w[(st[:, None] + iu[None, :]).reshape(-1)])
            o2.append(w[(st[:, None] + ju[None, :]).reshape(-1)])
        if not o1:
            return empty
        g = (pd.DataFrame({"w1": np.concatenate(o1),
                           "w2": np.concatenate(o2)})
             .groupby(["w1", "w2"], sort=False).size()
             .reset_index(name="cnt"))
        return pa.table({"w1": pa.array(g["w1"], pa.string()),
                         "w2": pa.array(g["w2"], pa.string()),
                         "cnt": pa.array(g["cnt"], pa.int64())})

    def uni_partial(batch: pa.Table) -> pa.Table:
        df = capped_words(batch)
        u, c = np.unique(df["w"].to_numpy(dtype=object),
                         return_counts=True)
        return pa.table({"w": pa.array(u, pa.string()),
                         "c": pa.array(c, pa.int64())})

    pair_schema = pa.schema([("w1", pa.string()), ("w2", pa.string()),
                             ("cnt", pa.int64())])
    pairs = bucketed_group_reduce(
        ds.map_batches(pair_partial, batch_format="pyarrow"),
        ["w1", "w2"],
        lambda d: d.groupby(["w1", "w2"], as_index=False,
                            sort=False)["cnt"].sum(),
        num_buckets, schema=pair_schema)
    top = (pairs.sort(["cnt", "w1", "w2"], descending=[True, False, False])
           .limit(k).to_pandas())

    uni = bucketed_group_reduce(
        ds.map_batches(uni_partial, batch_format="pyarrow"), ["w"],
        lambda d: d.groupby("w", as_index=False, sort=False)["c"].sum(),
        num_buckets, schema=pa.schema([("w", pa.string()),
                                       ("c", pa.int64())]))
    need = set(top["w1"]) | set(top["w2"])

    def only_needed(t: pa.Table, _need=tuple(sorted(need))) -> pa.Table:
        keep = pc.is_in(t["w"], value_set=pa.array(list(_need),
                                                   pa.string()))
        return t.filter(keep)

    df_map = {r["w"]: int(r["c"]) for r in
              uni.map_batches(only_needed,
                              batch_format="pyarrow").take_all()}
    c1 = top["w1"].map(df_map).to_numpy(dtype=np.float64)
    c2 = top["w2"].map(df_map).to_numpy(dtype=np.float64)
    c12 = top["cnt"].to_numpy(dtype=np.float64)
    pmi = np.log(c12 * n_docs / (c1 * c2))
    top["pmi_micro"] = np.floor(pmi * 1e6 + 0.5).astype(np.int64)
    return top.rename(columns={"cnt": "c12"})[
        ["w1", "w2", "c12", "pmi_micro"]]


def normalize_text(batch: pa.Table, col: str = "text",
                   out: str = "norm_text") -> pa.Table:
    """CCNet/C4-style text normalization, byte-reproducible in SQL
    (DuckDB ``nfc_normalize(trim(regexp_replace(...)))``): any
    whitespace run collapsed to one space, leading/trailing whitespace
    stripped (both RE2 kernels), then Unicode NFC. This pyarrow build's
    ``utf8_normalize`` is a silent no-op (no utf8proc), so NFC uses
    CPython's C ``unicodedata`` — but only for the rows
    ``string_is_ascii`` flags as non-ASCII (ASCII is NFC by
    definition), so an ASCII-dominated corpus stays fully vectorized.
    Map-side only; run before exact/near dedup so formatting variants
    collapse."""
    import unicodedata

    arr = pc.fill_null(batch[col], "")
    collapsed = pc.replace_substring_regex(arr, r"\s+", " ")
    trimmed = pc.utf8_trim_whitespace(collapsed)
    ascii_mask = pc.string_is_ascii(trimmed)
    if pc.all(ascii_mask).as_py() in (True, None):
        return batch.append_column(out, trimmed)
    mask = ascii_mask.to_numpy(zero_copy_only=False)
    vals = trimmed.to_pylist()
    fixed = [v if ok else unicodedata.normalize("NFC", v)
             for v, ok in zip(vals, mask)]
    return batch.append_column(out, pa.array(fixed, pa.string()))
